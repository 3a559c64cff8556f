"""Batch JSON front end: one subcommand per operation, exact values only.

Requests are {"cmd": "<domain>.<op>", ...payload...}; responses are
{"status": "ok", "result": ...} or {"status": "error", "diagnostics": [...]}.
All numbers are serialized exactly (integers, "p/q" strings, cyclotomic
coefficient arrays); identical requests produce byte-identical responses.

Every field is read through an `errors.Payload`, so a missing field, a wrong
type, a repeated key, an out-of-range entry or nesting past `MAX_DEPTH` is a
`ValidationError` whose message starts with the JSON path of the value, e.g.
"rational.factors[0][0][0] must lie in range(2), got 2"; a field of the
request has its bare name as its path.  Only the readers check a request:
a rule between two fields is refused at the later one, a library check (a
group's axioms, an embedding) is named with the path of its field, and
constructors trust the values they are given, read or built.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from math import lcm

from . import grouptheory, segre, wordposet, wreath
from .cyclotomic import cyclotomic_to_json, euler_phi
from .errors import Payload, QuasilangError, ValidationError
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
    symbol_to_json,
    validate_expr,
)
from .wordposet import WeightedWord, principal_ideal_language


def _norm_from_json(p: Payload, alphabet) -> Norm:
    if p.value is None or p.value == {"universal": True}:
        return Norm.universal(alphabet)
    if p.value == {"length": True}:
        return Norm.length(alphabet)
    size, pairs = p["size"].int(0), p["pairs"]
    mapping = pairs.pairs(Payload.symbol, lambda i: i.int(0, size), "symbol")
    for s in alphabet:
        if s not in mapping:
            raise pairs.error(f"symbol {symbol_to_json(s)!r} has no index")
    return Norm(mapping, size)


def _budget(req: Payload) -> int:
    """The budget (also the --budget flag) of the simplices of a Segre
    product, the ranks of a `segre.homology` answer, the exponents of a
    series box, the elements of a group, the words the `lang.enum` search
    visits and the row entries of a cyclotomic field."""
    return req.get("budget", segre.DEFAULT_SIMPLEX_BUDGET).int(0)


def _fit(req: Payload, where: Payload, noun: str, factors) -> None:
    """Refuse at `where` a construction whose size, the product of `factors`,
    exceeds the budget.  The product stops once past both the budget and
    10^100, so a box of 6^1000000 exponents or S_(10^30) is refused at once."""
    size, budget = 1, _budget(req)
    for f in factors:
        size *= f
        if size > budget and size > 10**100:
            raise where.error(noun.format("more than 10^100") + f" exceeds the budget {budget}")
    if size > budget:
        raise where.error(noun.format(size) + f" exceeds the budget {budget}")


def _fit_box(req: Payload, p: Payload, d: int, size: int) -> None:
    """Refuse at `p` a series box of degree `d` in `size` variables past the
    budget: its (d + 1)^size exponents, or at degree 0 the `size`
    coordinates of its one exponent (size may be huge)."""
    if d:
        _fit(req, p, "a series box of {} exponents", (d + 1 for _ in range(size)))
    else:
        _fit(req, p, "a series exponent of {} coordinates", (size,))


def _fit_field(req: Payload, p: Payload, order: int) -> None:
    """Refuse at `p` a cyclotomic field of `order` whose table
    (`cyclotomic._field`), about order * phi(order) row entries, exceeds the
    budget.  phi(order) >= 1 is not computed for an order past the budget."""
    if order > _budget(req):
        raise p.error(f"a cyclotomic field of order {order} exceeds the budget {_budget(req)}")
    _fit(req, p, f"a cyclotomic field of order {order} and {{}} row entries", (order, euler_phi(order)))


def _rational(req: Payload) -> FactoredRational:
    """The `rational`, its field checked against the budget before it is
    decoded."""
    order = req["rational"]["order"]
    _fit_field(req, order, order.int(1))
    return FactoredRational.from_json(req["rational"])


def _degree(req: Payload, size: int) -> tuple[int, ...]:
    """The series bound: `degree` (default 8) for every coordinate, or a list
    of `size` ints of at least 0; its box must fit the budget."""
    p = req.get("degree", 8)
    if type(p.value) is not list:
        d = p.int(0)
        _fit_box(req, p, d, size)
        return (d,) * size
    bound = p.ints(0)
    if len(bound) != size:
        raise ValidationError(f"{p.path} must have {size} entries, got {len(bound)}")
    _fit(req, p, "a series box of {} exponents", (b + 1 for b in bound))
    return bound


def _group_reader(p: Payload, factors: list):
    """A builder of the group of `p`, {"construct": "cyclic" | "symmetric",
    "n": n}, {"construct": "product", "factors": [...]} or {"table": [[...]]},
    read in full first.  The factors of its order go on `factors`."""
    construct = p.get("construct").value
    if construct == "cyclic":
        n = p["n"].int(1)
        factors.append((n,))
        return lambda: grouptheory.FiniteGroup.cyclic(n)
    if construct == "symmetric":
        n = p["n"].int(0)
        factors.append(range(2, n + 1))
        return lambda: grouptheory.FiniteGroup.symmetric(n)
    if construct == "product":
        builds = [_group_reader(f, factors) for f in p["factors"].list()]
        if not builds:
            raise p["factors"].error("a product needs at least one factor")
        return lambda: functools.reduce(grouptheory.FiniteGroup.direct_product, (b() for b in builds))
    if construct is not None:
        raise p["construct"].expected('"cyclic", "symmetric" or "product"')
    n, name = len(p["table"]), p.get("name", "G")
    table = p["table"].rows((n,) * n)
    if type(name.value) is not str:
        raise name.expected("a string")
    factors.append((n,))
    return lambda: p["table"].check(grouptheory.FiniteGroup.from_json, {"table": table, "name": name.value})


def _group_from_json(p: Payload, req: Payload) -> grouptheory.FiniteGroup:
    """The group of `p`, its order checked against the budget before any
    multiplication table is built."""
    factors = []
    build = _group_reader(p, factors)
    _fit(req, p, "a group of {} elements", itertools.chain.from_iterable(factors))
    return build()


def _embedding(p: Payload, G: grouptheory.FiniteGroup, H: grouptheory.FiniteGroup) -> tuple:
    """The embedding at `p`: an injective homomorphism from H into G."""
    emb = p.ints(0, G.order)
    p.check(grouptheory.validate_embedding, G, H, emb)
    return emb


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
# handlers: each reads its request through the Payload `req`


def _alphabet(req: Payload) -> tuple:
    """The `alphabet`, whose symbols are distinct."""
    return req["alphabet"].distinct(req["alphabet"].symbols(), "symbol")


def _cmd_lang_compile(req):
    if "congruence" in req.value:
        return dfa_to_json(compile_congruence(congruence_from_json(req["congruence"])))
    alphabet = _alphabet(req)
    # compile_ordered refuses an expression over other symbols
    return dfa_to_json(req["expr"].check(compile_ordered, expr_from_json(req["expr"]), alphabet))


def _cmd_lang_member(req):
    dfa = dfa_from_json(req["dfa"])
    word = req["word"].symbols()
    if not set(word) <= set(dfa.alphabet):
        i = next(i for i, s in enumerate(word) if s not in dfa.alphabet)
        raise req["word"].list()[i].expected("a symbol of dfa.alphabet")
    return membership(dfa, word)


def _cmd_lang_enum(req):
    dfa = dfa_from_json(req["dfa"])
    norm = _norm_from_json(req.get("norm"), dfa.alphabet)
    bound = req["bound"]
    bound = bound.ints(0, length=norm.size) if type(bound.value) is list else bound.int(0)
    words = enumerate_by_norm(dfa, norm, bound, _budget(req))
    return [[symbol_to_json(s) for s in w] for w in words]


def _cmd_lang_intersect(req):
    return dfa_to_json(req["b"].check(intersect_dfa, dfa_from_json(req["a"]), dfa_from_json(req["b"])))


def _cmd_genfun_series(req):
    dfa = dfa_from_json(req["dfa"])
    norm = _norm_from_json(req.get("norm"), dfa.alphabet)
    return series_from_dfa(dfa, norm, _degree(req, norm.size)).to_json()


def _cmd_genfun_closed(req):
    if "quasi" in req.value:
        F = quasi_ordered_genfun(quasi_from_json(req["quasi"]))
    else:
        alphabet, expr = _alphabet(req), expr_from_json(req["expr"])
        req["expr"].check(validate_expr, expr, alphabet)
        norm = req.get("norm")
        F = norm.check(ordered_genfun, expr, alphabet, _norm_from_json(norm, alphabet))
    return F.to_json()


def _cmd_genfun_translate(req):
    F = _rational(req)
    root_order = req.get("root_order")
    if root_order.value is not None:
        _fit_field(req, root_order, lcm(F.order, root_order.int(1)))
    out = F.translate(req["exponents"].ints(length=F.nvars), root_order.value)
    return out.to_json()


def _cmd_genfun_filter(req):
    F = _rational(req)
    group = AbelianGroup(req["orders"].ints(1))
    _fit_field(req, req["orders"], lcm(F.order, group.exponent))
    psi = req["psi"].rows(group.orders, F.nvars)
    target = req["target"].distinct(req["target"].rows(group.orders), "element")
    return congruence_filter(F, psi, group, target).to_json()


def _cmd_genfun_expand(req):
    F = _rational(req)
    return F.expand(_degree(req, F.nvars)).to_json()


def _cmd_poset_leq(req):
    x = WeightedWord.from_json(req["x"])
    y = WeightedWord.from_json(req["y"])
    witness = req["y"]["orders"].check(wordposet.leq, x, y)
    return None if witness is None else witness.to_json()


def _cmd_poset_minimal(req):
    x = WeightedWord.from_json(req["x"])
    words = sorted(wordposet.minimal_words_over(x), key=lambda w: (w.letters, w.weights))
    return [w.to_json() for w in words]


def _cmd_poset_ideal(req):
    x = WeightedWord.from_json(req["x"])
    letters = req.get("letters")
    if "letters" in req.value:
        letters.distinct(letters.strings(), "letter")
    q = letters.check(principal_ideal_language, x, letters.value, req.get("reduced_stars", False).bool())
    return quasi_to_json(q)


def _cmd_poset_series(req):
    group = AbelianGroup(req["orders"].ints(1))
    weights = req["weights"].rows(group.orders)
    # the closed form is expanded at every exponent of the series box
    degree = req.get("degree", 5)
    bound = degree.int(0)
    _fit_box(req, degree, bound, group.size)
    series, closed = wordposet.fws_principal_series(weights, group, bound)
    return {"series": series.to_json(), "closed": closed.to_json()}


def _cmd_group_table(req):
    group = _group_from_json(req["group"], req)
    return _table_to_json(grouptheory.character_table(group))


def _cmd_group_restrict(req):
    G = _group_from_json(req["group"], req)
    H = _group_from_json(req["subgroup"], req)
    return grouptheory.restriction_matrix(G, H, _embedding(req["embedding"], G, H))


def _cmd_group_good(req):
    G = _group_from_json(req["group"], req)
    young = req.get("young", False)
    if young.bool():
        if G.kind[0] != "symmetric":
            raise young.error(f"Young subgroups need a symmetric group, got {G.name}")
        fam = [(H, emb) for _, H, emb in grouptheory.young_subgroups(G.kind[1], G)]
    else:
        fam = []
        for s in req["subgroups"].list():
            H = _group_from_json(s["group"], req)
            fam.append((H, _embedding(s["embedding"], G, H)))
    return grouptheory.is_good_family(G, fam, covering_only=req.get("covering", False).bool())


def _wreath_table(req) -> grouptheory.CharacterTable:
    return grouptheory.character_table(_group_from_json(req["group"], req))


def _label_from_json(p: Payload, table: grouptheory.CharacterTable) -> tuple:
    """A wreath label: one partition, a list of non-increasing positive
    parts, per irreducible of the table."""
    entries = p.list(len(table.rows))
    label = tuple([part.ints(1) for part in entries])
    for part, parts in zip(entries, label):
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise part.expected("a partition, its parts non-increasing")
    return label


def _cmd_wreath_classes(req):
    table = _wreath_table(req)
    out = []
    for label, size in wreath.wreath_classes(table, req["n"].int(0)):
        out.append({"label": [list(p) for p in label], "size": size})
    return out


def _cmd_wreath_char(req):
    table = _wreath_table(req)
    lam = _label_from_json(req["lambda"], table)
    chi = wreath.wreath_irreducible_character(table, lam)
    values = []
    for label, size in wreath.wreath_classes(table, wreath.label_size(lam)):
        values.append(
            {"label": [list(p) for p in label], "size": size, "value": cyclotomic_to_json(chi.values[label])}
        )
    return {"dim": chi.dim(table), "values": values}


def _cmd_wreath_stability(req):
    table = _wreath_table(req)
    lam, mu, nu = (_label_from_json(req[k], table) for k in ("lambda", "mu", "nu"))
    lo, hi = (n.int(0) for n in req["n_range"].list(2))
    return wreath.tensor_stability_table(table, lam, mu, nu, range(lo, hi + 1))


def _cmd_wreath_hilbert(req):
    table = _wreath_table(req)
    index = req["index"].int(0, len(table.rows))
    # F has one variable per irreducible; an oversized box is refused before F,
    # which is itself slow to build for large groups, is built
    bound = _degree(req, len(table.rows)) if "degree" in req.value else None
    F = wreath.diag_induced_series(table, index)
    out = {"closed": F.to_json()}
    if bound is not None:
        out["series"] = F.expand(bound).to_json()
    return out


def _cmd_segre_product(req):
    x = segre.SimplicialComplex.from_json(req["x"])
    y = segre.SimplicialComplex.from_json(req["y"])
    return req.get("budget").check(segre.segre_product, x, y, budget=_budget(req)).to_json()


def _cmd_segre_homology(req):
    x = segre.SimplicialComplex.from_json(req["complex"])
    i_max = x.dim
    if "i_max" in req.value:
        i_max = req["i_max"].int(0)
        _fit(req, req["i_max"], "an answer of {} ranks", (i_max + 1,))
    return {"ranks": {str(k): v for k, v in segre.homology_ranks(x, i_max).items()}}


def _cmd_segre_series(req):
    x = segre.SimplicialComplex.from_json(req["complex"])
    group = _group_from_json(req["group"], req)
    vertices = set(x.vertices)

    def vertex(p: Payload):
        v = p.symbol()
        if v not in vertices:
            raise p.expected("a vertex of the complex")
        return v

    maps = [perm.pairs(vertex, vertex, "vertex") for perm in req["action"].list()]
    action = req["action"].check(segre.GroupAction, group, x, maps)
    nmax = req.get("nmax", 2)
    n_max = nmax.int(1)
    # each power X^(*n), n <= nmax, is checked against the simplex budget
    data = nmax.check(segre.equivariant_hilbert_data, action, req["i"].int(0), n_max, _budget(req))
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
    """Dispatch a request dict; never raises for domain errors.

    A malformed payload is answered with a path-named `ValidationError` (see
    the module docstring).  The "bad request: ..." answer to a KeyError,
    TypeError, ValueError, ZeroDivisionError or RecursionError is only a
    backstop for a defect, not part of the contract."""
    if not isinstance(request, dict):
        return {"status": "error", "diagnostics": ["ValidationError: request must be a JSON object"]}
    cmd = request.get("cmd")
    handler = HANDLERS.get(cmd) if isinstance(cmd, str) else None
    if handler is None:
        return {"status": "error", "diagnostics": [f"unknown subcommand {cmd!r}"]}
    try:
        result = handler(Payload(request))
    except QuasilangError as exc:
        return {"status": "error", "diagnostics": [f"{type(exc).__name__}: {exc}"]}
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        return {"status": "error", "diagnostics": [f"bad request: {type(exc).__name__}: {exc}"]}
    return {"status": "ok", "result": result}


def dumps(response: dict) -> str:
    """The canonical text of a response.  Responses are trees the handlers
    build (lists may be shared, never cyclic), so the cycle check is off."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"), check_circular=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quasilang", description=__doc__)
    parser.add_argument("cmd", help="subcommand, e.g. poset.leq or genfun.closed")
    parser.add_argument("--in", dest="infile", help="JSON payload file (default stdin)")
    parser.add_argument("--out", dest="outfile", help="output file (default stdout)")
    parser.add_argument("--degree", type=int, help="cap series degree")
    parser.add_argument("--nmax", type=int, help="cap iterated powers")
    parser.add_argument("--budget", type=int, help="cap simplex counts, series box sizes, group orders, enumerated words and cyclotomic field tables")
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
