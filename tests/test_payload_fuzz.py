"""Mutation test of the payload boundary.

A corpus of small valid requests covers every subcommand.  Each mutant
changes one JSON node of one request: it replaces the node by a value of
another JSON type, deletes it, wraps it in a list, or duplicates it inside
its list.  Numbers are never enlarged, so no mutant tests a budget.  Every
mutant must be answered: no exception escapes `execute_request`, and no
answer is the "bad request" backstop, which would mean a field was read
without the payload reader's checks.  Every `ValidationError` answer names
the JSON path of what it refuses.  No request, answered and dumped, leaves
garbage that only the cyclic collector can free, and the package builds no
tuple from a generator (see the `quasilang` docstring).
"""

import ast
import copy
import gc
import itertools
import pathlib
import re

import quasilang
from quasilang.cli import HANDLERS, dumps, execute_request

STAR = {"kind": "star", "symbols": ["a", "b"]}
EXPR = {"kind": "concat", "parts": [{"kind": "symbol", "symbol": "a"}, STAR]}
DFA = {"alphabet": ["a", "b"], "delta": [[1, 0], [1, 1]], "start": 0, "accepting": [1]}
WEIGHTED_DFA = {"alphabet": [["a", [0]], ["a", [1]]], "delta": [[1, 0], [1, 1]], "start": 0, "accepting": [1]}
CONGRUENCE = {"orders": [2], "alphabet": ["a", "b"], "phi": [["a", [1]], ["b", [0]]], "target": [[0]]}
# 1/(1 - t) over Q(zeta_3) and (1 + t)/(1 - t/2) in two variables
RATIONAL = {"nvars": 1, "order": 3, "numerator": [[[0], [1, ["1"]]]], "factors": [[[0, [1, ["1"]]]]]}
RATIONAL2 = {
    "nvars": 2,
    "order": 1,
    "numerator": [[[0, 0], [1, ["1"]]], [[1, 0], [1, ["1"]]]],
    "factors": [[[0, [1, ["1/2"]]]], [[1, [1, ["1"]]]]],
}
X = {"letters": ["a", "b"], "weights": [[1], [0]], "orders": [2]}
Y = {"letters": ["a", "b", "a"], "weights": [[0], [0], [1]], "orders": [2]}
Z2 = {"construct": "cyclic", "n": 2}
S3 = {"construct": "symmetric", "n": 3}
TRIVIAL = {"table": [[0]], "name": "1"}
EDGE = {"vertices": [1, 2], "facets": [[1, 2]]}
TRIANGLE = {"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3], [1, 3]]}  # its boundary
SQUARE = {"vertices": [[1, 1], [1, 2], [2, 1], [2, 2]], "facets": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]}

CORPUS = [
    {"cmd": "lang.compile", "expr": EXPR, "alphabet": ["a", "b"]},
    {"cmd": "lang.compile", "congruence": CONGRUENCE},
    {"cmd": "lang.member", "dfa": WEIGHTED_DFA, "word": [["a", [1]], ["a", [0]]]},
    {"cmd": "lang.enum", "dfa": DFA, "bound": [1, 2], "norm": {"pairs": [["a", 0], ["b", 1]], "size": 2}},
    {"cmd": "lang.intersect", "a": DFA, "b": DFA},
    {"cmd": "genfun.series", "dfa": DFA, "degree": [2, 1], "norm": {"universal": True}, "budget": 100},
    {"cmd": "genfun.closed", "expr": EXPR, "alphabet": ["a", "b"], "norm": {"universal": True}},
    {"cmd": "genfun.closed", "quasi": {"ordered": STAR, "congruence": CONGRUENCE}},
    {"cmd": "genfun.translate", "rational": RATIONAL2, "exponents": [1, 0], "root_order": 2},
    {"cmd": "genfun.filter", "rational": RATIONAL, "orders": [3], "psi": [[1]], "target": [[1], [2]]},
    {"cmd": "genfun.expand", "rational": RATIONAL2, "degree": 2},
    {"cmd": "poset.leq", "x": X, "y": Y},
    {"cmd": "poset.minimal", "x": X},
    {"cmd": "poset.ideal", "x": X, "letters": ["a", "b"], "reduced_stars": True},
    {"cmd": "poset.series", "orders": [2], "weights": [[1], [0]], "degree": 2},
    {"cmd": "group.table", "group": {"construct": "product", "factors": [Z2, TRIVIAL]}},
    {"cmd": "group.restrict", "group": S3, "subgroup": Z2, "embedding": [0, 1]},
    {"cmd": "group.good", "group": S3, "young": True, "covering": False},
    {"cmd": "group.good", "group": Z2, "subgroups": [{"group": TRIVIAL, "embedding": [0]}]},
    {"cmd": "wreath.classes", "group": Z2, "n": 2},
    {"cmd": "wreath.char", "group": Z2, "lambda": [[1], [1]]},
    {"cmd": "wreath.stability", "group": Z2, "lambda": [[], [1]], "mu": [[], [1]], "nu": [[], []], "n_range": [2, 3]},
    {"cmd": "wreath.hilbert", "group": Z2, "index": 1, "degree": 1},
    {"cmd": "segre.product", "x": EDGE, "y": SQUARE, "budget": 1000},
    {"cmd": "segre.homology", "complex": SQUARE, "i_max": 1},
    {
        "cmd": "segre.series",
        "complex": EDGE,
        "group": Z2,
        "action": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
        "i": 0,
        "nmax": 2,
    },
    {
        "cmd": "segre.series",
        "complex": TRIANGLE,
        "group": S3,
        "action": [[[v, p[v - 1] + 1] for v in (1, 2, 3)] for p in itertools.permutations(range(3))],
        "i": 1,
        "nmax": 2,
    },
]

REPLACEMENTS = [None, True, 0, 1.5, "x", [], {}]
# a field, then `.field` and `[i]` steps, then what is wrong with the value there
PATH = re.compile(r"ValidationError: (\w+)(?:\.\w+|\[\d+\])*(?::| must| is| has| nests)")
# the fields of each subcommand: those of its corpus requests
FIELDS = {}
for _req in CORPUS:
    FIELDS.setdefault(_req["cmd"], set()).update(_req)


def nodes(value, path=()):
    """(path, node) for every node below the root, parents first."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def mutants(request):
    """(description, mutant) for every one-node change of `request`."""
    for path, node in nodes(request):
        if path == ("cmd",):
            continue
        changes = [(f"replace by {r!r}", lambda r=r: copy.deepcopy(r)) for r in REPLACEMENTS if type(r) is not type(node)]
        changes.append(("wrap", lambda: [copy.deepcopy(node)]))
        for what, make in changes + [("delete", None), ("duplicate", None)]:
            mutant = copy.deepcopy(request)
            *head, key = path
            parent = mutant
            for k in head:
                parent = parent[k]
            if what == "delete":
                del parent[key]
            elif what == "duplicate":
                if not isinstance(parent, list):
                    continue
                parent.insert(key, copy.deepcopy(parent[key]))
            else:
                parent[key] = make()
            yield f"{what} at {list(path)}", mutant


def test_the_corpus_covers_every_subcommand_and_answers():
    assert {req["cmd"] for req in CORPUS} == set(HANDLERS)
    for req in CORPUS:
        assert execute_request(copy.deepcopy(req))["status"] == "ok", req


def test_one_node_mutants_are_answered_without_the_backstop():
    """Every mutant of the corpus, in a fixed order (about 4,400).  A
    `ValidationError` answer starts with the path of a field of its
    subcommand."""
    count = 0
    for cmd, what, mutant in ((req["cmd"], what, mutant) for req in CORPUS for what, mutant in mutants(req)):
        count += 1
        try:
            resp = execute_request(mutant)
        except Exception as exc:  # the contract: execute_request never raises
            raise AssertionError(f"{cmd}, {what}: {type(exc).__name__}: {exc}") from exc
        assert resp["status"] in ("ok", "error"), (cmd, what)
        if resp["status"] == "error":
            (message,) = resp["diagnostics"]
            assert not message.startswith("bad request:"), (cmd, what, message)
            if message.startswith("ValidationError"):
                path = PATH.match(message)
                assert path and path.group(1) in FIELDS[cmd], (cmd, what, message)
    assert count > 4000


def test_requests_leave_no_cyclic_garbage():
    """With the collector off, everything a request allocates stays in
    generation 0, so collecting that generation after the answer is dumped
    finds everything the request left in reference cycles: nothing, for
    every corpus request and every mutant."""
    requests = [(req["cmd"], "as is", copy.deepcopy(req)) for req in CORPUS]
    requests += [(req["cmd"], what, mutant) for req in CORPUS for what, mutant in mutants(req)]
    enabled = gc.isenabled()
    try:
        for cmd, what, request in requests:
            gc.collect(0)
            gc.disable()
            dumps(execute_request(request))
            assert gc.collect(0) == 0, (cmd, what)
    finally:
        if enabled:
            gc.enable()


def _lazy(node) -> bool:
    """Whether the expression is a generator or a map, zip or filter call."""
    if isinstance(node, ast.GeneratorExp):
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("map", "zip", "filter")


def test_no_tuple_is_built_from_a_generator():
    """`tuple(x for ...)`, `tuple(map(...))` and `f(*(x for ...))` allocate a
    tuple at a guessed size and resize it, which fills CPython's tuple free
    lists once full collections are rare; the package builds them from lists."""
    found = []
    for path in sorted(pathlib.Path(quasilang.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            built = node.args[:1] if isinstance(node.func, ast.Name) and node.func.id == "tuple" else []
            starred = [a.value for a in node.args if isinstance(a, ast.Starred)]
            if any(map(_lazy, built + starred)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
