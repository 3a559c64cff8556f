"""Batch JSON front end: one subcommand per operation, exact values only.

Requests are {"cmd": "<domain>.<op>", ...payload...}; responses are
{"status": "ok", "result": ...} or {"status": "error", "diagnostics": [...]}.
All numbers are serialized exactly (integers, "p/q" strings, cyclotomic
coefficient arrays); identical requests produce byte-identical responses.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import grouptheory, segre, wordposet, wreath
from .cyclotomic import cyclotomic_to_json
from .errors import QuasilangError, ValidationError, require_bool, require_int, require_list
from .genfun import (
    FactoredRational,
    congruence_filter,
    ordered_genfun,
    quasi_ordered_genfun,
    series_from_dfa,
)
from .langkit import (
    AbelianGroup,
    Norm,
    compile_congruence,
    compile_ordered,
    congruence_from_json,
    dfa_from_json,
    dfa_to_json,
    expr_from_json,
    intersect_dfa,
    membership,
    enumerate_by_norm,
    quasi_from_json,
    quasi_to_json,
    symbol_from_json,
    symbol_map_from_json,
    symbol_to_json,
)
from .wordposet import WeightedWord, principal_ideal_language


def _norm_from_json(data, alphabet) -> Norm:
    if data is None or data == {"universal": True}:
        return Norm.universal(alphabet)
    if data == {"length": True}:
        return Norm.length(alphabet)
    mapping = {s: require_int(i, "pairs") for s, i in symbol_map_from_json(data["pairs"], "pairs").items()}
    return Norm(mapping, _at_least(data, "size", 0))


def _at_least(req, field: str, least: int, default=None) -> int:
    """req[field], an int (not a bool) of at least `least`; `default` when
    the field is absent and a default is given."""
    if default is not None and field not in req:
        return default
    return require_int(req[field], field, least)


def _flag(req, field: str) -> bool:
    """req[field] as a JSON boolean; an absent flag is false."""
    return require_bool(req.get(field, False), field)


def _degree(req, size: int) -> tuple[int, ...]:
    """The series bound: `degree` (default 8) for every coordinate, or a list
    of `size` entries, each an int of at least 0, checked by `_fit_box`."""
    degree = req.get("degree", 8)
    entries = degree if isinstance(degree, list) else [degree] * size
    if len(entries) != size:
        raise ValidationError(f"degree must have {size} entries, got {len(entries)}")
    return _fit_box(req, tuple(require_int(b, "degree", 0) for b in entries))


def _fit_box(req, bound: tuple[int, ...]) -> tuple[int, ...]:
    """`bound` when the box of exponents it spans, prod(b_i + 1), fits the
    budget; a ValidationError otherwise.  The product stops once it is past
    both the budget and 10^100, so a box of 6^1000000 exponents is refused
    after 129 of its factors and is never printed."""
    box, budget = 1, _budget(req)
    for b in bound:
        box *= b + 1
        if box > budget and box > 10**100:
            raise ValidationError(f"degree: a series box of more than 10^100 exponents exceeds the budget {budget}")
    if box > budget:
        raise ValidationError(f"degree: a series box of {box} exponents exceeds the budget {budget}")
    return bound


def _group_from_json(data) -> grouptheory.FiniteGroup:
    if not isinstance(data, dict):
        raise ValidationError(f"group must be a JSON object, got {type(data).__name__}")
    construct = data.get("construct")
    if construct == "cyclic":
        return grouptheory.FiniteGroup.cyclic(_at_least(data, "n", 1))
    if construct == "symmetric":
        return grouptheory.FiniteGroup.symmetric(_at_least(data, "n", 0))
    if construct == "product":
        factors = [_group_from_json(f) for f in data["factors"]]
        if not factors:
            raise ValidationError("factors: a product needs at least one factor")
        g = factors[0]
        for f in factors[1:]:
            g = grouptheory.FiniteGroup.direct_product(g, f)
        return g
    return grouptheory.FiniteGroup.from_json(data)


def _table_to_json(t: grouptheory.CharacterTable) -> dict:
    return {
        "order": t.order,
        "class_sizes": list(t.class_sizes),
        "identity_class": t.identity_class,
        "rows": [[cyclotomic_to_json(v) for v in row] for row in t.rows],
        "row_names": [repr(n) for n in t.row_names],
        "class_names": [repr(n) for n in t.class_names],
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_lang_compile(req):
    if "congruence" in req:
        return dfa_to_json(compile_congruence(congruence_from_json(req["congruence"])))
    alphabet = tuple(symbol_from_json(s) for s in require_list(req["alphabet"], "alphabet"))
    dfa = compile_ordered(expr_from_json(req["expr"]), alphabet)
    return dfa_to_json(dfa)


def _cmd_lang_member(req):
    dfa = dfa_from_json(req["dfa"])
    word = tuple(symbol_from_json(s) for s in require_list(req["word"], "word"))
    return membership(dfa, word)


def _cmd_lang_enum(req):
    dfa = dfa_from_json(req["dfa"])
    norm = _norm_from_json(req.get("norm"), dfa.alphabet)
    bound = req["bound"]
    if isinstance(bound, list):
        bound = tuple(require_int(b, "bound", 0) for b in bound)
    else:
        bound = require_int(bound, "bound", 0)
    words = enumerate_by_norm(dfa, norm, bound)
    return [[symbol_to_json(s) for s in w] for w in words]


def _cmd_lang_intersect(req):
    return dfa_to_json(intersect_dfa(dfa_from_json(req["a"]), dfa_from_json(req["b"])))


def _cmd_genfun_series(req):
    dfa = dfa_from_json(req["dfa"])
    norm = _norm_from_json(req.get("norm"), dfa.alphabet)
    return series_from_dfa(dfa, norm, _degree(req, norm.size)).to_json()


def _cmd_genfun_closed(req):
    if "quasi" in req:
        F = quasi_ordered_genfun(quasi_from_json(req["quasi"]))
    else:
        alphabet = tuple(symbol_from_json(s) for s in require_list(req["alphabet"], "alphabet"))
        norm = _norm_from_json(req.get("norm"), alphabet)
        F = ordered_genfun(expr_from_json(req["expr"]), alphabet, norm)
    return F.to_json()


def _cmd_genfun_translate(req):
    F = FactoredRational.from_json(req["rational"])
    root_order = req.get("root_order")
    if root_order is not None:
        require_int(root_order, "root_order", 1)
    out = F.translate([require_int(k, "exponents") for k in req["exponents"]], root_order)
    return out.to_json()


def _cmd_genfun_filter(req):
    F = FactoredRational.from_json(req["rational"])
    group = AbelianGroup(tuple(require_int(n, "orders", 1) for n in req["orders"]))
    psi = [tuple(require_int(x, "psi") for x in v) for v in req["psi"]]
    target = [tuple(require_int(x, "target") for x in t) for t in req["target"]]
    return congruence_filter(F, psi, group, target).to_json()


def _cmd_genfun_expand(req):
    F = FactoredRational.from_json(req["rational"])
    return F.expand(_degree(req, F.nvars)).to_json()


def _cmd_poset_leq(req):
    x = WeightedWord.from_json(req["x"])
    y = WeightedWord.from_json(req["y"])
    witness = wordposet.leq(x, y)
    return None if witness is None else witness.to_json()


def _cmd_poset_minimal(req):
    x = WeightedWord.from_json(req["x"])
    words = sorted(wordposet.minimal_words_over(x), key=lambda w: (w.letters, w.weights))
    return [w.to_json() for w in words]


def _cmd_poset_ideal(req):
    x = WeightedWord.from_json(req["x"])
    letters = tuple(require_list(req["letters"], "letters")) if "letters" in req else None
    q = principal_ideal_language(x, letters=letters, reduced_stars=_flag(req, "reduced_stars"))
    return quasi_to_json(q)


def _cmd_poset_series(req):
    group = AbelianGroup(tuple(require_int(n, "orders", 1) for n in req["orders"]))
    weights = [tuple(require_int(x, "weights") for x in w) for w in req["weights"]]
    # the closed form is expanded at every exponent of the series box
    bound = _at_least(req, "degree", 0, 5)
    _fit_box(req, (bound,) * group.size)
    series, closed = wordposet.fws_principal_series(weights, group, bound)
    return {"series": series.to_json(), "closed": closed.to_json()}


def _cmd_group_table(req):
    group = _group_from_json(req["group"])
    return _table_to_json(grouptheory.character_table(group))


def _cmd_group_restrict(req):
    G = _group_from_json(req["group"])
    H = _group_from_json(req["subgroup"])
    emb = tuple(require_int(x, "embedding") for x in req["embedding"])
    return grouptheory.restriction_matrix(G, H, emb)


def _cmd_group_good(req):
    G = _group_from_json(req["group"])
    if _flag(req, "young"):
        if G.kind[0] != "symmetric":
            raise ValidationError(f"young: Young subgroups need a symmetric group, got {G.name}")
        fam = [(H, emb) for _, H, emb in grouptheory.young_subgroups(G.kind[1], G)]
    else:
        fam = [
            (_group_from_json(s["group"]), tuple(require_int(x, "embedding") for x in s["embedding"]))
            for s in req["subgroups"]
        ]
    return grouptheory.is_good_family(G, fam, covering_only=_flag(req, "covering"))


def _wreath_table(req) -> grouptheory.CharacterTable:
    return grouptheory.character_table(_group_from_json(req["group"]))


def _label(req, field: str) -> tuple:
    """A wreath label: one partition, a list of positive parts, per irreducible."""
    return tuple(tuple(require_int(x, field, 1) for x in p) for p in req[field])


def _cmd_wreath_classes(req):
    table = _wreath_table(req)
    out = []
    for label, size in wreath.wreath_classes(table, _at_least(req, "n", 0)):
        out.append({"label": [list(p) for p in label], "size": size})
    return out


def _cmd_wreath_char(req):
    table = _wreath_table(req)
    lam = _label(req, "lambda")
    chi = wreath.wreath_irreducible_character(table, lam)
    values = []
    for label, size in wreath.wreath_classes(table, wreath.label_size(lam)):
        values.append(
            {"label": [list(p) for p in label], "size": size, "value": cyclotomic_to_json(chi.values[label])}
        )
    return {"dim": chi.dim(), "values": values}


def _cmd_wreath_stability(req):
    table = _wreath_table(req)
    lam, mu, nu = (_label(req, k) for k in ("lambda", "mu", "nu"))
    lo, hi = (require_int(n, "n_range", 0) for n in req["n_range"])
    return wreath.tensor_stability_table(table, lam, mu, nu, range(lo, hi + 1))


def _cmd_wreath_hilbert(req):
    table = _wreath_table(req)
    index = _at_least(req, "index", 0)
    # F has one variable per irreducible; an oversized box is refused before F,
    # which is itself slow to build for large groups, is built
    bound = _degree(req, len(table.rows)) if "degree" in req else None
    F = wreath.diag_induced_series(table, index)
    out = {"closed": F.to_json()}
    if bound is not None:
        out["series"] = F.expand(bound).to_json()
    return out


def _budget(req) -> int:
    """The budget of an exponential construction (also the --budget flag):
    the simplices of a Segre product, or the exponents of a series box."""
    return _at_least(req, "budget", 0, segre.DEFAULT_SIMPLEX_BUDGET)


def _cmd_segre_product(req):
    x = segre.SimplicialComplex.from_json(req["x"])
    y = segre.SimplicialComplex.from_json(req["y"])
    return segre.segre_product(x, y, budget=_budget(req)).to_json()


def _cmd_segre_homology(req):
    x = segre.SimplicialComplex.from_json(req["complex"])
    i_max = _at_least(req, "i_max", 0, x.dim)
    data = segre.homology_ranks(x, i_max)
    return {"ranks": {str(k): v for k, v in sorted(data.ranks.items())}}


def _cmd_segre_series(req):
    x = segre.SimplicialComplex.from_json(req["complex"])
    group = _group_from_json(req["group"])
    table = grouptheory.character_table(group)
    fix = segre.SimplicialComplex.vertex_from_json
    maps = [{fix(k): fix(v) for k, v in perm} for perm in req["action"]]
    action = segre.GroupAction(table, x, maps)
    nmax = _at_least(req, "nmax", 1, 2)
    data = segre.equivariant_hilbert_data(action, _at_least(req, "i", 0), nmax, _budget(req))
    return [
        [[list(content), mult] for content, mult in sorted(poly.items())] for poly in data
    ]


HANDLERS = {
    "lang.compile": _cmd_lang_compile,
    "lang.member": _cmd_lang_member,
    "lang.enum": _cmd_lang_enum,
    "lang.intersect": _cmd_lang_intersect,
    "genfun.series": _cmd_genfun_series,
    "genfun.closed": _cmd_genfun_closed,
    "genfun.translate": _cmd_genfun_translate,
    "genfun.filter": _cmd_genfun_filter,
    "genfun.expand": _cmd_genfun_expand,
    "poset.leq": _cmd_poset_leq,
    "poset.minimal": _cmd_poset_minimal,
    "poset.ideal": _cmd_poset_ideal,
    "poset.series": _cmd_poset_series,
    "group.table": _cmd_group_table,
    "group.restrict": _cmd_group_restrict,
    "group.good": _cmd_group_good,
    "wreath.classes": _cmd_wreath_classes,
    "wreath.char": _cmd_wreath_char,
    "wreath.stability": _cmd_wreath_stability,
    "wreath.hilbert": _cmd_wreath_hilbert,
    "segre.product": _cmd_segre_product,
    "segre.homology": _cmd_segre_homology,
    "segre.series": _cmd_segre_series,
}


def execute_request(request: dict) -> dict:
    """Dispatch a request dict; never raises for domain errors."""
    if not isinstance(request, dict):
        return {"status": "error", "diagnostics": ["ValidationError: request must be a JSON object"]}
    cmd = request.get("cmd")
    handler = HANDLERS.get(cmd) if isinstance(cmd, str) else None
    if handler is None:
        return {"status": "error", "diagnostics": [f"unknown subcommand {cmd!r}"]}
    try:
        result = handler(request)
    except QuasilangError as exc:
        return {"status": "error", "diagnostics": [f"{type(exc).__name__}: {exc}"]}
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        return {"status": "error", "diagnostics": [f"bad request: {type(exc).__name__}: {exc}"]}
    return {"status": "ok", "result": result}


def dumps(response: dict) -> str:
    return json.dumps(response, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quasilang", description=__doc__)
    parser.add_argument("cmd", help="subcommand, e.g. poset.leq or genfun.closed")
    parser.add_argument("--in", dest="infile", help="JSON payload file (default stdin)")
    parser.add_argument("--out", dest="outfile", help="output file (default stdout)")
    parser.add_argument("--degree", type=int, help="cap series degree")
    parser.add_argument("--nmax", type=int, help="cap iterated powers")
    parser.add_argument("--budget", type=int, help="cap simplex counts and series box sizes")
    args = parser.parse_args(argv)
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        text = sys.stdin.read().strip()
        payload = json.loads(text) if text else {}
    if isinstance(payload, dict):
        payload["cmd"] = args.cmd
        for flag in ("degree", "nmax", "budget"):
            value = getattr(args, flag)
            if value is not None:
                payload[flag] = value
    response = execute_request(payload)
    text = dumps(response)
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if response["status"] == "ok" else 1
