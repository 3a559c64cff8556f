"""Seeded request generators for the `automata`, `characters` and `homology`
workloads.

A workload is a sequence of passes.  A pass is a generator that yields `Req`
objects and receives `(response, text)` for each, so later requests can be
built from earlier responses (compile the ideal that `poset.ideal` returned,
expand the series that `genfun.filter` returned), the way a client would.
Every pass has the same composition: each input class whose cost differs
widely from the others (ideal patterns, complex shapes, series cases, S4
and S5) appears in every pass, and the seed picks the inputs inside the
classes (weights, vertex labels, psi, targets, wreath labels).  That keeps
the mix of cheap and expensive requests, and with it the throughput and the
tail percentile, comparable across seeds and across passes, so run.py can
report the median of the per-pass throughputs.

The warm-up pass is fixed and uses inputs outside the timed pools (other
letters, other degrees, other groups), so no timed request repeats one the
warm-up sent; `test_warmup_is_disjoint_from_timed_requests` checks this.

The inputs of canonically checked requests come from finite pools, which
each workload's `pool` generator enumerates for `record.py`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from . import checks

Check = Callable[[object, str], "str | None"]


@dataclass
class Req:
    kind: str
    request: dict
    check: Check


def ok(response) -> bool:
    return isinstance(response, dict) and response.get("status") == "ok"


# ---------------------------------------------------------------------------
# automata: principal ideals over {a, b} x Z/2


MIXED = ("aba", "abb", "baa", "bab")  # |x| = 3 with both letters interleaved: 0.4-0.8 s compiles
PAIRED = ("aab", "bba")  # 50-90 ms compiles
SINGLE = ("aaa", "bbb")  # 15-35 ms compiles
LEQ_PER_KIND = 38  # inflated, perturbed and random pairs per pass
MEMBER_PER_DFA = 6
IDEAL_SAMPLES = 12  # y's with |y| <= 5 checked against poset.leq per compile
MAX_INFLATED = 12
MAX_RANDOM = 300


def weighted_word(letters, weights) -> dict:
    return {"letters": list(letters), "weights": [[w] for w in weights], "orders": [2]}


def _inflate(rng: random.Random, x: dict, length: int) -> dict:
    """A y above x: each position of x becomes a fiber of the same letter whose
    weights sum to its weight; fibers open in order and otherwise interleave."""
    n = len(x["letters"])
    sizes = [1] * n
    for _ in range(length - n):
        sizes[rng.randrange(n)] += 1
    fibers = []
    for (w,), size in zip(x["weights"], sizes):
        ws = [rng.randrange(2) for _ in range(size - 1)]
        fibers.append(ws + [(w - sum(ws)) % 2])
    remaining = list(sizes)
    opened = 0
    letters, weights = [], []
    while any(remaining):
        choices = [i for i in range(opened) if remaining[i]]
        if opened < n:
            choices.append(opened)
        i = rng.choice(choices)
        if i == opened:
            opened += 1
        letters.append(x["letters"][i])
        weights.append(fibers[i][sizes[i] - remaining[i]])
        remaining[i] -= 1
    return weighted_word(letters, weights)


def _random_word(rng: random.Random, letters, length: int) -> dict:
    return weighted_word(
        [rng.choice(letters) for _ in range(length)], [rng.randrange(2) for _ in range(length)]
    )


def _ideal_samples(rng: random.Random, x: dict) -> list:
    letters = sorted(set(x["letters"]))
    n = len(x["letters"])
    out = []
    for k in range(IDEAL_SAMPLES):
        length = rng.randint(n, 5)
        out.append(_inflate(rng, x, length) if k % 2 == 0 else _random_word(rng, letters, length))
    return out


def ideal_req(store, x: dict) -> Req:
    req = {"cmd": "poset.ideal", "x": x}
    return Req("poset.ideal", req, checks.canonical(store, req))


def minimal_req(store, x: dict) -> Req:
    req = {"cmd": "poset.minimal", "x": x}
    return Req("poset.minimal", req, checks.canonical(store, req))


def ideal_chain(store, rng: random.Random, x: dict) -> Iterator:
    """poset.ideal, lang.compile of its ordered part, genfun.series of the
    DFA, poset.minimal, and lang.member on sampled words."""
    resp, _ = yield ideal_req(store, x)
    if not ok(resp):
        return
    quasi = resp["result"]
    req = {"cmd": "lang.compile", "expr": quasi["ordered"], "alphabet": quasi["congruence"]["alphabet"]}
    resp, _ = yield Req("lang.compile", req, checks.ideal_dfa(x, _ideal_samples(rng, x)))
    if not ok(resp):
        return
    dfa = resp["result"]
    yield Req("genfun.series", {"cmd": "genfun.series", "dfa": dfa, "degree": 6}, checks.dfa_series(dfa, 4))
    yield minimal_req(store, x)
    letters = sorted(set(x["letters"]))
    for k in range(MEMBER_PER_DFA):
        word = checks.word_symbols(_random_word(rng, letters, _stratum(rng, k, MEMBER_PER_DFA, 0, 8)))
        yield Req("lang.member", {"cmd": "lang.member", "dfa": dfa, "word": word}, checks.member(dfa, word))


def poset_series_req(store, weights, degree: int = 5) -> Req:
    req = {"cmd": "poset.series", "orders": [2], "weights": [[w] for w in weights], "degree": degree}
    return Req("poset.series", req, checks.poset_series(store, req))


def leq_req(x: dict, y: dict, expect) -> Req:
    return Req("poset.leq", {"cmd": "poset.leq", "x": x, "y": y}, checks.leq(x, y, expect))


def _rand_weights(rng: random.Random, n: int) -> list:
    return [rng.randrange(2) for _ in range(n)]


def _stratum(rng: random.Random, k: int, count: int, lo: int, hi: int) -> int:
    """A random length in the k-th of `count` equal slices of [lo, hi], so
    every pass sends the same spread of lengths."""
    width = (hi - lo + 1) / count
    return rng.randint(lo + int(k * width), lo + int((k + 1) * width) - 1)


def _random_negative(rng: random.Random, x: dict, length: int) -> dict:
    """A random y of the given length whose weight invariant differs from that
    of x.  Long pairs with equal invariants are left out: the witness search
    can backtrack for seconds on them (a 130-letter pair took 7.5 s), which is
    the known leq defect listed in README.md."""
    while True:
        y = _random_word(rng, "ab", length)
        if checks.theta(y) != checks.theta(x):
            return y


def automata_pass(store, rng: random.Random) -> Iterator:
    xs = [weighted_word(p, _rand_weights(rng, 3)) for p in MIXED + PAIRED + SINGLE]
    n = rng.randint(1, 2)
    xs.append(weighted_word([rng.choice("ab") for _ in range(n)], _rand_weights(rng, n)))
    for x in xs:
        yield from ideal_chain(store, rng, x)
    for k in (3, 2, 1):
        yield poset_series_req(store, _rand_weights(rng, k))
    for k in range(LEQ_PER_KIND):
        x = _random_word(rng, "ab", 2 + k % 3)
        y = _inflate(rng, x, rng.randint(len(x["letters"]), MAX_INFLATED))
        yield leq_req(x, y, True)
        j = rng.randrange(len(y["letters"]))
        perturbed = weighted_word(y["letters"], [w for (w,) in y["weights"]])
        perturbed["weights"][j] = [1 - y["weights"][j][0]]
        yield leq_req(x, perturbed, False)
        x = _random_word(rng, "ab", 2 + k % 3)
        yield leq_req(x, _random_negative(rng, x, _stratum(rng, k, LEQ_PER_KIND, 1, MAX_RANDOM)), None)


def automata_warmup(store) -> Iterator:
    rng = random.Random(0)
    for x in (weighted_word("ccd", [1, 0, 0]), weighted_word("dd", [0, 1]), weighted_word("c", [1])):
        yield from ideal_chain(store, rng, x)
    for weights in ([1], [0, 1], [1, 1, 0]):
        yield poset_series_req(store, weights, degree=4)
    x = weighted_word("cd", [1, 1])
    yield leq_req(x, weighted_word("cdcd", [0, 1, 1, 0]), True)
    yield leq_req(x, weighted_word("cdd", [1, 0, 0]), False)


def automata_pool(store) -> Iterator:
    for n in (1, 2, 3):
        for letters in itertools.product("ab", repeat=n):
            for ws in itertools.product((0, 1), repeat=n):
                yield ideal_req(store, weighted_word(letters, ws))
                yield minimal_req(store, weighted_word(letters, ws))
    for k in (1, 2, 3):
        for ws in itertools.product((0, 1), repeat=k):
            yield poset_series_req(store, list(ws))


# ---------------------------------------------------------------------------
# characters: series over Z/N, wreath characters, character tables


STAR_SYMBOLS = ("a", "b", "c")
HILBERT_GROUPS = {"Z2": 2, "Z3": 3, "Z4": 4, "S3": 3}  # name -> number of irreducibles
CHAR_GROUPS = {"Z2": (2, 0), "Z3": (3, 0), "S3": (6, 2)}  # name -> (order, identity class)
STABILITY = (
    ("Z2", [[], [1]], [[], [1]], [[], []], [2, 5]),
    ("Z2", [[1], []], [[], [1]], [[], [1]], [2, 5]),
    ("Z2", [[], [1]], [[], [1]], [[1], []], [2, 5]),
    ("Z2", [[1], [1]], [[], [1]], [[], [1]], [2, 5]),
    ("Z2", [[], [2]], [[], [1]], [[], [1]], [2, 5]),
    ("Z3", [[], [1], []], [[], [], [1]], [[], [], []], [2, 4]),
    ("Z3", [[], [1], []], [[], [1], []], [[], [], [1]], [2, 4]),
    ("S3", [[], [1], []], [[], [1], []], [[], [], []], [2, 4]),
)
CYCLIC_TABLES = tuple(range(2, 13))
FILTER_CHAINS = ((1, 3), (1, 6), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (3, 6))  # (letters, N)
CHARS_PER_PASS = 20
CYCLIC_TABLES_PER_PASS = 6
PRODUCT_TABLES = (("Z2", "S3"), ("Z3", "Z4"), ("Z2", "Z2", "Z2"), ("S3", "Z3"), ("Z2", "S4"))


def group_json(name: str) -> dict:
    kind, n = name[0], int(name[1:])
    return {"construct": "cyclic" if kind == "Z" else "symmetric", "n": n}


def product_json(names) -> dict:
    return {"construct": "product", "factors": [group_json(n) for n in names]}


def filter_chain(store, nsym: int, modulus: int, psi: list, target: int, degree: int, symbols=STAR_SYMBOLS) -> Iterator:
    syms = list(symbols[:nsym])
    req = {"cmd": "genfun.closed", "expr": {"kind": "star", "symbols": syms}, "alphabet": syms}
    resp, _ = yield Req("genfun.closed", req, checks.canonical(store, req))
    if not ok(resp):
        return
    req = {
        "cmd": "genfun.filter",
        "rational": resp["result"],
        "orders": [modulus],
        "psi": [[p] for p in psi],
        "target": [[target]],
    }
    resp, _ = yield Req("genfun.filter", req, checks.canonical(store, req))
    if not ok(resp):
        return
    req = {"cmd": "genfun.expand", "rational": resp["result"], "degree": degree}
    yield Req("genfun.expand", req, checks.filtered_star(nsym, modulus, psi, target, degree))


def hilbert_req(store, group: str, index: int, degree: int) -> Req:
    req = {"cmd": "wreath.hilbert", "group": group_json(group), "index": index, "degree": degree}
    return Req("wreath.hilbert", req, checks.canonical(store, req))


def stability_req(store, case) -> Req:
    group, lam, mu, nu, n_range = case
    req = {"cmd": "wreath.stability", "group": group_json(group), "lambda": lam, "mu": mu, "nu": nu, "n_range": n_range}
    return Req("wreath.stability", req, checks.canonical(store, req))


def good_req(store, group: dict, covering: bool) -> Req:
    req = {"cmd": "group.good", "group": group, "young": True, "covering": covering}
    return Req("group.good", req, checks.canonical(store, req))


def table_req(group: dict) -> Req:
    return Req("group.table", {"cmd": "group.table", "group": group}, checks.table_orthogonal)


def _random_label(rng: random.Random, slots: int, n: int) -> list:
    """A partition-valued function on `slots` irreducibles with total size n."""
    sizes = [0] * slots
    for _ in range(n):
        sizes[rng.randrange(slots)] += 1
    label = []
    for k in sizes:
        parts = []
        while k:
            p = rng.randint(1, min(k, parts[-1] if parts else k))
            parts.append(p)
            k -= p
        label.append(parts)
    return label


def char_req(group: str, lam: list) -> Req:
    order, identity_class = CHAR_GROUPS.get(group, (int(group[1:]), 0))
    n = sum(sum(p) for p in lam)
    req = {"cmd": "wreath.char", "group": group_json(group), "lambda": lam}
    return Req("wreath.char", req, checks.wreath_character(order, identity_class, n))


def characters_pass(store, rng: random.Random) -> Iterator:
    for nsym, modulus in FILTER_CHAINS:
        psi = [rng.randrange(modulus) for _ in range(nsym)]
        yield from filter_chain(store, nsym, modulus, psi, rng.randrange(modulus), 6 if nsym < 3 else 5)
    for group, irr in sorted(HILBERT_GROUPS.items()):
        yield hilbert_req(store, group, rng.randrange(irr), 3 if group == "Z4" else 4)
    for _ in range(CHARS_PER_PASS):
        group = rng.choice(sorted(CHAR_GROUPS))
        slots = 2 if group == "Z2" else 3
        yield char_req(group, _random_label(rng, slots, rng.choice((2, 3))))
    for case in rng.sample(STABILITY, 4):
        yield stability_req(store, case)
    for _ in range(CYCLIC_TABLES_PER_PASS):
        yield table_req(group_json(f"Z{rng.choice(CYCLIC_TABLES)}"))
    yield table_req(product_json(rng.choice(PRODUCT_TABLES)))
    yield table_req(group_json("S4"))
    yield table_req(group_json("S5"))
    yield good_req(store, group_json("S4"), False)
    yield good_req(store, group_json("S4"), True)
    yield good_req(store, group_json("S5"), False)


def characters_warmup(store) -> Iterator:
    yield from filter_chain(store, 2, 6, [1, 4], 2, 4, symbols=("x", "y"))
    yield from filter_chain(store, 3, 4, [1, 2, 3], 0, 3, symbols=("x", "y", "z"))
    yield table_req(product_json(["S5"]))
    yield table_req(product_json(["S4"]))
    yield table_req(product_json(["Z12"]))
    yield char_req("Z4", [[1], [], [1], []])
    yield hilbert_req(store, "Z5", 1, 2)
    yield good_req(store, group_json("S3"), False)
    yield stability_req(store, ("Z4", [[], [1], [], []], [[], [], [], [1]], [[], [], [], []], [2, 3]))


def characters_pool(store) -> Iterator:
    for nsym, modulus in FILTER_CHAINS:
        for psi in itertools.product(range(modulus), repeat=nsym):
            for target in range(modulus):
                chain = filter_chain(store, nsym, modulus, list(psi), target, 0)
                resp = yield next(chain)  # genfun.closed
                yield chain.send(resp)  # genfun.filter; the expand is not canonical
    for group, irr in sorted(HILBERT_GROUPS.items()):
        for index in range(irr):
            for degree in (2, 3, 4):
                yield hilbert_req(store, group, index, degree)
    for case in STABILITY:
        yield stability_req(store, case)
    for group in ("S4", "S5"):
        for covering in (False, True):
            yield good_req(store, group_json(group), covering)


# ---------------------------------------------------------------------------
# homology: Segre squares and cubes of small complexes


SHAPES3 = {
    "circle": [[1, 2], [2, 3], [1, 3]],
    "tri": [[1, 2, 3]],
    "path": [[1, 2], [2, 3]],
    "edge_point": [[1, 2], [3]],
}
CUBE_SHAPES = ("circle", "tri")  # 0.5 s and 1.1 s cube homology
SHAPES4 = {
    "cycle4": [[1, 2], [2, 3], [3, 4], [1, 4]],
    "path4": [[1, 2], [2, 3], [3, 4]],
    "star4": [[1, 2], [1, 3], [1, 4]],
    "paw": [[1, 2], [2, 3], [1, 3], [3, 4]],
    "two_edges": [[1, 2], [3, 4]],
    "two_tri": [[1, 2, 3], [2, 3, 4]],
    "tri_tail": [[1, 2, 3], [3, 4]],
    "tri_point": [[1, 2, 3], [4]],
}
SERIES_HEAVY = (
    ("circle", "rotation", 1, 2),  # 0.45 s
    ("edge", "swap", 0, 4),  # 0.3 s
)
SERIES_LIGHT = (
    ("circle", "rotation", 0, 2),
    ("circle", "rotation", 1, 1),
    ("edge", "swap", 0, 3),
    ("edge", "swap", 1, 4),
    ("path", "flip", 0, 2),
    ("path", "flip", 1, 2),
)
SERIES_COMPLEXES = {"edge": [[1, 2]], "circle": SHAPES3["circle"], "path": SHAPES3["path"]}
SERIES_ACTIONS = {
    # vertex maps, one per element of the cyclic group
    "rotation": (3, [{1: 1, 2: 2, 3: 3}, {1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2}]),
    "swap": (2, [{1: 1, 2: 2}, {1: 2, 2: 1}]),
    "flip": (2, [{1: 1, 2: 2, 3: 3}, {1: 3, 2: 2, 3: 1}]),
}


def complex_json(facets, perm=None) -> dict:
    vertices = sorted({v for f in facets for v in f})
    relabel = dict(zip(vertices, perm)) if perm else {v: v for v in vertices}
    return {
        "vertices": sorted(relabel.values()),
        "facets": [sorted(relabel[v] for v in f) for f in facets],
    }


def flatten_vertices(c: dict) -> dict:
    """Renumber the (pair) vertices of a product 1..n in listed order."""
    index = {checks.canonical_json(v): i + 1 for i, v in enumerate(c["vertices"])}
    return {
        "vertices": list(range(1, len(index) + 1)),
        "facets": [sorted(index[checks.canonical_json(v)] for v in f) for f in c["facets"]],
    }


def product_req(store, x: dict, y: dict) -> Req:
    req = {"cmd": "segre.product", "x": x, "y": y}
    return Req("segre.product", req, checks.canonical(store, req))


def power_chain(store, x: dict, cube: bool) -> Iterator:
    """The Segre square of x, or its cube, followed by its homology."""
    resp, _ = yield product_req(store, x, x)
    if not ok(resp):
        return
    power = resp["result"]
    if cube:
        resp, _ = yield product_req(store, flatten_vertices(power), x)
        if not ok(resp):
            return
        power = resp["result"]
    yield Req("segre.homology", {"cmd": "segre.homology", "complex": power}, checks.homology(power))


def series_req(store, case) -> Req:
    name, action, i, nmax = case
    n, maps = SERIES_ACTIONS[action]
    req = {
        "cmd": "segre.series",
        "complex": complex_json(SERIES_COMPLEXES[name]),
        "group": {"construct": "cyclic", "n": n},
        "action": [sorted([k, v] for k, v in m.items()) for m in maps],
        "i": i,
        "nmax": nmax,
    }
    return Req("segre.series", req, checks.canonical(store, req))


def _perm(rng: random.Random, k: int) -> list:
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    return labels


def homology_pass(store, rng: random.Random) -> Iterator:
    for name in CUBE_SHAPES:
        yield from power_chain(store, complex_json(SHAPES3[name], _perm(rng, 3)), cube=True)
    for name in sorted(SHAPES4):
        yield from power_chain(store, complex_json(SHAPES4[name], _perm(rng, 4)), cube=False)
    name = rng.choice(sorted(SHAPES3))
    yield from power_chain(store, complex_json(SHAPES3[name], _perm(rng, 3)), cube=False)
    for case in SERIES_HEAVY:
        yield series_req(store, case)
    yield series_req(store, rng.choice(SERIES_LIGHT))


def homology_warmup(store) -> Iterator:
    yield from power_chain(store, complex_json([[5, 6], [6, 7]]), cube=True)
    yield from power_chain(store, complex_json([[5, 6, 7], [7, 8]]), cube=False)
    req = {
        "cmd": "segre.series",
        "complex": complex_json([[5, 6]]),
        "group": {"construct": "cyclic", "n": 2},
        "action": [[[5, 5], [6, 6]], [[5, 6], [6, 5]]],
        "i": 0,
        "nmax": 3,
    }
    yield Req("segre.series", req, checks.canonical(store, req))


def homology_pool(store) -> Iterator:
    for shapes, cube_shapes in ((SHAPES3, CUBE_SHAPES), (SHAPES4, ())):
        for name, facets in sorted(shapes.items()):
            k = 3 if shapes is SHAPES3 else 4
            for perm in itertools.permutations(range(1, k + 1)):
                x = complex_json(facets, list(perm))
                chain = power_chain(store, x, cube=name in cube_shapes)
                req = next(chain)
                while req.kind == "segre.product":
                    resp = yield req
                    req = chain.send(resp)
    for case in SERIES_HEAVY + SERIES_LIGHT:
        yield series_req(store, case)


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    make_pass: Callable
    warmup: Callable
    pool: Callable
    trace_passes: int  # passes in a traced run (a fixed count, so counts repeat)
    # The tail latency percentile.  The pass composition puts it inside one
    # class of requests (the four mixed-pattern compiles, the S5 good-family
    # test, the circle/Z3 series), so it does not jump between classes from
    # run to run; run.py falls back to a lower percentile only when fewer
    # than ten samples lie beyond it.
    tail_percentile: float


WORKLOADS = {
    "automata": Workload(
        "automata",
        automata_pass,
        automata_warmup,
        automata_pool,
        3,
        99.0,
    ),
    "characters": Workload(
        "characters",
        characters_pass,
        characters_warmup,
        characters_pool,
        3,
        99.0,
    ),
    "homology": Workload(
        "homology",
        homology_pass,
        homology_warmup,
        homology_pool,
        2,
        90.0,
    ),
}


def pass_rng(seed: int, index: int) -> random.Random:
    """The RNG of pass `index` of a run seeded with `seed`."""
    return random.Random(f"{seed}:{index}")
