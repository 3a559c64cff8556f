"""Response checks that do not reuse the code path being timed.

Each factory returns a callable `check(result, text) -> str | None` that gets
the decoded `result` of an "ok" response and the response bytes, and returns
a failure message or None.  Semantic checks recompute the answer another way
(brute-force counts, witness validation, character orthogonality, Euler
characteristics); every other command is compared with the canonical
response recorded in `canonical.json` by `record.py`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from fractions import Fraction
from math import factorial

from quasilang import wordposet
from quasilang.cyclotomic import CyclotomicNumber, cyclotomic_from_json
from quasilang.genfun import FactoredRational, SeriesTruncation

CANONICAL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "canonical.json")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class CanonicalStore:
    """Digests of recorded responses, keyed by the digest of the request.

    In recording mode a missing key is stored instead of reported."""

    def __init__(self, entries: dict, recording: bool = False):
        self.entries = entries
        self.recording = recording

    @classmethod
    def load(cls, path: str = CANONICAL_PATH) -> "CanonicalStore":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def save(self, path: str = CANONICAL_PATH) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(self.entries.items())), fh, indent=0, separators=(",", ":"))
            fh.write("\n")

    def compare(self, key: str, text: str) -> str | None:
        got = digest(text)
        want = self.entries.get(key)
        if want is None:
            if self.recording:
                self.entries[key] = got
                return None
            return f"no canonical response recorded for request {key}"
        return None if want == got else f"response differs from the canonical one ({got} != {want})"


def request_key(request: dict, part: str = "") -> str:
    return digest(canonical_json(request) + part)


def canonical(store: CanonicalStore, request: dict):
    key = request_key(request)
    return lambda result, text: store.compare(key, text)


# ---------------------------------------------------------------------------
# weighted words and automata, evaluated from their JSON forms


def dfa_accepts(dfa: dict, word) -> bool:
    index = {canonical_json(s): i for i, s in enumerate(dfa["alphabet"])}
    state = dfa["start"]
    for sym in word:
        i = index.get(canonical_json(sym))
        if i is None:
            return False
        state = dfa["delta"][state][i]
    return state in set(dfa["accepting"])


def word_symbols(w: dict) -> list:
    return [[a, list(v)] for a, v in zip(w["letters"], w["weights"])]


def theta(w: dict) -> dict:
    """Per-letter weight sums (the congruence class of the principal ideal)."""
    orders = w["orders"]
    out: dict = {}
    for a, v in zip(w["letters"], w["weights"]):
        prev = out.get(a, [0] * len(orders))
        out[a] = [(p + x) % n for p, x, n in zip(prev, v, orders)]
    return {a: tuple(v) for a, v in out.items() if any(v)}


def _ww(w: dict) -> wordposet.WeightedWord:
    return wordposet.WeightedWord.from_json(w)


def _surjection(data: dict) -> wordposet.OrderedSurjection:
    return wordposet.OrderedSurjection(tuple(v - 1 for v in data["map"]), int(data["target_size"]))


def ideal_dfa(x: dict, samples: list):
    """The compiled ordered part of the ideal of x, cut by the weight
    invariant of x, accepts y exactly when poset.leq finds x <= y."""
    tx = theta(x)

    def check(dfa, text):
        X = _ww(x)
        for y in samples:
            in_lang = dfa_accepts(dfa, word_symbols(y)) and theta(y) == tx
            related = wordposet.leq(X, _ww(y)) is not None
            if in_lang != related:
                return f"DFA says {in_lang} but leq says {related} for y={y['letters']}/{y['weights']}"
        return None

    return check


def member(dfa: dict, word: list):
    expect = dfa_accepts(dfa, word)
    return lambda result, text: None if result is expect else f"membership {result!r}, expected {expect!r}"


def leq(x: dict, y: dict, expect: bool | None):
    """Witnesses must validate; `expect` pins the answer for constructed pairs.
    A null answer on a random pair is confirmed with the upset recognizer."""

    def check(result, text):
        X, Y = _ww(x), _ww(y)
        if result is None:
            if expect is True:
                return "no witness for an inflated pair"
            if expect is None and wordposet.UpsetRecognizer(X).accepts(Y):
                return "no witness, but the upset recognizer accepts y"
            return None
        if expect is False:
            return "witness returned for a weight-perturbed pair"
        if not wordposet.validate_witness(_surjection(result), X, Y):
            return "returned witness does not validate"
        return None

    return check


def _series_coefficients(series: dict) -> dict:
    out = {}
    for e, c in series["coefficients"]:
        order, coeffs = c
        if any(Fraction(v) for v in coeffs[1:]):
            out[tuple(e)] = None  # irrational: never equals a count
        else:
            out[tuple(e)] = Fraction(coeffs[0])
    return out


def dfa_series(dfa: dict, low_degree: int):
    """Coefficients of total degree <= low_degree equal brute-force counts of
    accepted words (universal norm: one variable per alphabet symbol)."""

    def check(result, text):
        got = _series_coefficients(result)
        alphabet = dfa["alphabet"]
        counts: dict = {}
        for n in range(low_degree + 1):
            for word in itertools.product(range(len(alphabet)), repeat=n):
                if dfa_accepts(dfa, [alphabet[i] for i in word]):
                    e = [0] * len(alphabet)
                    for i in word:
                        e[i] += 1
                    counts[tuple(e)] = counts.get(tuple(e), 0) + 1
        for e, v in got.items():
            if sum(e) <= low_degree and v != counts.get(e, 0):
                return f"coefficient at {e} is {v}, brute force counts {counts.get(e, 0)}"
        for e, v in counts.items():
            if e not in got:
                return f"coefficient at {e} missing, brute force counts {v}"
        return None

    return check


def poset_series(store: CanonicalStore, request: dict):
    """The series part is canonical; a non-null closed form must expand to it."""
    key = request_key(request, "#series")

    def check(result, text):
        err = store.compare(key, canonical_json(result["series"]))
        if err:
            return err
        if result["closed"] is not None:
            series = SeriesTruncation.from_json(result["series"])
            if FactoredRational.from_json(result["closed"]).expand(series.bound) != series:
                return "closed form does not expand to the series"
        return None

    return check


def filtered_star(nsym: int, modulus: int, psi: list, target: int, degree: int):
    """Criterion 2's rule on the star series over nsym letters: the
    coefficient at e is the multinomial count when sum e_i psi_i lies in the
    target, and zero otherwise."""

    def check(result, text):
        got = _series_coefficients(result)
        for e in itertools.product(range(degree + 1), repeat=nsym):
            keep = sum(k * p for k, p in zip(e, psi)) % modulus == target
            count = factorial(sum(e))
            for k in e:
                count //= factorial(k)
            want = count if keep else 0
            if got.get(e, 0) != want:
                return f"filtered coefficient at {e} is {got.get(e, 0)}, expected {want}"
        return None

    return check


def table_orthogonal(result, text):
    """Rows of a character table are orthonormal for the class-size inner product."""
    return _table_orthogonal(text)


# Identical response bytes get the same verdict, so repeated tables and
# characters are checked once per process.
@functools.lru_cache(maxsize=256)
def _table_orthogonal(text: str) -> str | None:
    result = json.loads(text)["result"]
    sizes = result["class_sizes"]
    rows = [[cyclotomic_from_json(v) for v in row] for row in result["rows"]]
    order = sum(sizes)
    if len(rows) != len(sizes):
        return "row count differs from class count"
    for i, j in itertools.combinations_with_replacement(range(len(rows)), 2):
        total = CyclotomicNumber.zero()
        for s, a, b in zip(sizes, rows[i], rows[j]):
            total = total + a * b.conjugate() * s
        if total != (order if i == j else 0):
            return f"rows {i} and {j} are not orthonormal"
    return None


def wreath_character(group_order: int, identity_class: int, n: int):
    """<chi, chi> = 1 over the wreath product, and dim is the value at the identity."""
    return lambda result, text: _wreath_character(group_order, identity_class, n, text)


@functools.lru_cache(maxsize=256)
def _wreath_character(group_order: int, identity_class: int, n: int, text: str) -> str | None:
    big_order = group_order**n * factorial(n)
    total = CyclotomicNumber.zero()
    size_sum = 0
    at_identity = None
    result = json.loads(text)["result"]
    for entry in result["values"]:
        v = cyclotomic_from_json(entry["value"])
        total = total + v * v.conjugate() * entry["size"]
        size_sum += entry["size"]
        if all(p == ([1] * n if c == identity_class else []) for c, p in enumerate(entry["label"])):
            at_identity = v
    if size_sum != big_order:
        return f"class sizes sum to {size_sum}, not {big_order}"
    if total != big_order:
        return "<chi, chi> is not 1"
    if at_identity is None or at_identity != result["dim"]:
        return "dim differs from the value at the identity"
    return None


def _closure(facets) -> set:
    out = set()
    for f in facets:
        f = sorted(set(map(canonical_json, f)))
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return out


def homology(complex_: dict):
    """Euler characteristic from the simplex counts, and rank H_0 equal to the
    number of connected components."""
    simplices = _closure(complex_["facets"]) | {(canonical_json(v),) for v in complex_["vertices"]}
    dim = max(len(s) for s in simplices) - 1
    euler = sum((-1) ** (len(s) - 1) for s in simplices)
    parent = {canonical_json(v): canonical_json(v) for v in complex_["vertices"]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in simplices:
        for v in s[1:]:
            parent[find(v)] = find(s[0])
    components = len({find(v) for v in parent})

    def check(result, text):
        ranks = {int(k): v for k, v in result["ranks"].items()}
        if set(ranks) != set(range(dim + 1)):
            return f"ranks cover degrees {sorted(ranks)}, expected 0..{dim}"
        if ranks[0] != components:
            return f"rank H_0 is {ranks[0]}, but there are {components} components"
        if sum((-1) ** i * r for i, r in ranks.items()) != euler:
            return f"Euler characteristic of the ranks differs from the simplex count {euler}"
        return None

    return check
