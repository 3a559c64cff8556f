import itertools
import json
import subprocess
import sys
import time

from quasilang.cli import dumps, execute_request, main
from quasilang.cyclotomic import cyclotomic_from_json
from quasilang.errors import MAX_DEPTH
from quasilang.wordposet import OrderedSurjection, WeightedWord, validate_witness
from test_payload_fuzz import CONGRUENCE, CORPUS, DFA, EDGE, RATIONAL, RATIONAL2, S3, STAR, X, Y, Z2


def run(req):
    return execute_request(req)


def test_unknown_command():
    resp = run({"cmd": "nosuch"})
    assert resp["status"] == "error" and resp["diagnostics"]
    assert "result" not in resp


def test_lang_member_round_trip():
    spec = {
        "orders": [2],
        "alphabet": ["a", "b"],
        "phi": [["a", [1]], ["b", [0]]],
        "target": [[0]],
    }
    compiled = run({"cmd": "lang.compile", "congruence": spec})
    assert compiled["status"] == "ok"
    dfa = compiled["result"]
    assert len(dfa["delta"]) == 2
    member = run({"cmd": "lang.member", "dfa": dfa, "word": ["a", "a", "b"]})
    assert member == {"status": "ok", "result": True}
    member2 = run({"cmd": "lang.member", "dfa": dfa, "word": ["a"]})
    assert member2["result"] is False


def test_lang_enum_and_series():
    compiled = run(
        {
            "cmd": "lang.compile",
            "expr": {"kind": "star", "symbols": ["a", "b"]},
            "alphabet": ["a", "b"],
        }
    )
    dfa = compiled["result"]
    words = run({"cmd": "lang.enum", "dfa": dfa, "bound": [1, 1]})["result"]
    assert [tuple(w) for w in words] == [(), ("a",), ("a", "b"), ("b",), ("b", "a")]
    series = run({"cmd": "genfun.series", "dfa": dfa, "degree": [2, 2]})["result"]
    coeffs = {tuple(e): c for e, c in series["coefficients"]}
    assert coeffs[(1, 1)] == [1, ["2"]]


def test_genfun_closed_translate_filter_expand():
    closed = run(
        {
            "cmd": "genfun.closed",
            "expr": {"kind": "star", "symbols": ["a"]},
            "alphabet": ["a"],
        }
    )
    F = closed["result"]
    translated = run({"cmd": "genfun.translate", "rational": F, "exponents": [1], "root_order": 2})
    filtered = run(
        {
            "cmd": "genfun.filter",
            "rational": F,
            "orders": [2],
            "psi": [[1]],
            "target": [[0]],
        }
    )
    assert translated["status"] == "ok" and filtered["status"] == "ok"
    series = run({"cmd": "genfun.expand", "rational": filtered["result"], "degree": 4})
    coeffs = {tuple(e): c for e, c in series["result"]["coefficients"]}
    assert set(coeffs) == {(0,), (2,), (4,)}


def test_poset_commands():
    x = {"letters": ["a"], "weights": [[1]], "orders": [2]}
    y = {"letters": ["a", "a"], "weights": [[0], [1]], "orders": [2]}
    witness = run({"cmd": "poset.leq", "x": x, "y": y})
    assert witness == {"status": "ok", "result": {"map": [1, 1], "target_size": 1}}

    minimal = run({"cmd": "poset.minimal", "x": x})["result"]
    assert len(minimal) == 2

    ideal = run({"cmd": "poset.ideal", "x": x})["result"]
    closed = run({"cmd": "genfun.closed", "quasi": ideal})
    # the paper-shaped ideal union is ambiguous here; the CLI reports an error
    reduced = run({"cmd": "poset.ideal", "x": x, "reduced_stars": True})["result"]
    closed2 = run({"cmd": "genfun.closed", "quasi": reduced})
    assert closed2["status"] == "ok"

    series = run({"cmd": "poset.series", "orders": [2], "weights": [[1]], "degree": 3})
    assert series["status"] == "ok"
    assert series["result"]["closed"] is not None


def test_poset_series_json_is_byte_identical():
    resp = run({"cmd": "poset.series", "orders": [2], "weights": [[1]], "degree": 2})
    assert dumps(resp["result"]["series"]) == (
        '{"bound":[2,2],"coefficients":[[[0,1],[1,["1"]]],[[1,1],[1,["2"]]],[[2,1],[1,["3"]]]],"order":1}'
    )


def test_group_commands():
    table = run({"cmd": "group.table", "group": {"construct": "symmetric", "n": 3}})
    assert table["status"] == "ok" and len(table["result"]["rows"]) == 3

    good = run({"cmd": "group.good", "group": {"construct": "symmetric", "n": 3}, "young": True})
    assert good["result"]["good"] is True and good["result"]["exponent_lcm"] == 2


def test_young_family_needs_a_symmetric_group():
    for group in ({"table": [[0, 1], [1, 0]]}, {"construct": "cyclic", "n": 3}):
        resp = run({"cmd": "group.good", "group": group, "young": True})
        assert resp["status"] == "error", group
        (message,) = resp["diagnostics"]
        assert message.startswith("ValidationError: young:"), message


def test_boolean_flags_must_be_booleans():
    s3 = {"construct": "symmetric", "n": 3}
    good = {"cmd": "group.good", "group": s3}
    # "false" is a string, not false: it used to select the covering-only test
    assert run(dict(good, young=True, covering=False))["result"]["exponent_lcm"] == 2
    assert run(dict(good, young=True, covering="false"))["diagnostics"] == [
        "ValidationError: covering must be true or false, got 'false'"
    ]
    # "no" used to select the Young family
    assert run(dict(good, young="no", subgroups=[]))["diagnostics"] == [
        "ValidationError: young must be true or false, got 'no'"
    ]
    assert run(dict(good, young=False, subgroups=[]))["result"]["good"] is False
    x = {"letters": ["a"], "weights": [[1]], "orders": [2]}
    assert run({"cmd": "poset.ideal", "x": x, "reduced_stars": 1})["diagnostics"] == [
        "ValidationError: reduced_stars must be true or false, got 1"
    ]
    assert run({"cmd": "poset.ideal", "x": x, "reduced_stars": False}) == run({"cmd": "poset.ideal", "x": x})


def test_payloads_that_are_not_objects_are_rejected():
    for request in ([], [{"cmd": "group.table"}], "group.table", 3, None):
        resp = run(request)
        assert resp == {"status": "error", "diagnostics": ["ValidationError: request must be a JSON object"]}
    for expr, expected in [
        ("a", "expr must be a JSON object, got str"),
        (["a"], "expr must be a JSON object, got list"),
        (1, "expr must be a JSON object, got int"),
        ({"kind": "union", "parts": "ab"}, "expr.parts must be a list, got str"),
        ({"kind": "concat", "parts": [{"kind": "epsilon"}, "b"]}, "expr.parts[1] must be a JSON object, got str"),
    ]:
        resp = run({"cmd": "lang.compile", "expr": expr, "alphabet": ["a"]})
        assert resp == {"status": "error", "diagnostics": ["ValidationError: " + expected]}, expr
    assert run({"cmd": ["group.table"]})["diagnostics"] == ["unknown subcommand ['group.table']"]


def test_cli_rejects_a_payload_that_is_not_an_object(tmp_path):
    infile, outfile = tmp_path / "request.json", tmp_path / "response.json"
    infile.write_text("[1, 2]")
    assert main(["group.table", "--in", str(infile), "--out", str(outfile)]) == 1
    assert json.loads(outfile.read_text())["diagnostics"] == ["ValidationError: request must be a JSON object"]


def test_group_table_entries_out_of_range_are_rejected():
    for table, expected in [
        ([[0, 1, 2], [1, 0, 5], [2, 5, 0]], "group.table[1][2] must lie in range(3), got 5"),
        ([[0, 1, 2], [1, 2, -3], [2, -3, 1]], "group.table[1][2] must lie in range(3), got -3"),
        ([[0, 1.0], [1, 0]], "group.table[0][1] must be an integer, got 1.0"),
        ([[0, True], [1, 0]], "group.table[0][1] must be an integer, got True"),
    ]:
        resp = run({"cmd": "group.table", "group": {"table": table}})
        assert resp == {"status": "error", "diagnostics": ["ValidationError: " + expected]}, table
    assert run({"cmd": "group.table", "group": {"table": [[0, 1], [1, 0]]}})["status"] == "ok"


def test_wreath_commands():
    classes = run({"cmd": "wreath.classes", "group": {"construct": "cyclic", "n": 2}, "n": 2})
    assert len(classes["result"]) == 5
    char = run(
        {
            "cmd": "wreath.char",
            "group": {"construct": "cyclic", "n": 2},
            "lambda": [[1], [1]],
        }
    )
    assert char["result"]["dim"] == 2
    stab = run(
        {
            "cmd": "wreath.stability",
            "group": {"construct": "cyclic", "n": 2},
            "lambda": [[], [1]],
            "mu": [[], [1]],
            "nu": [[], []],
            "n_range": [2, 5],
        }
    )
    assert stab["result"] == [1, 1, 1, 1]
    hil = run({"cmd": "wreath.hilbert", "group": {"construct": "cyclic", "n": 2}, "index": 0, "degree": 3})
    assert hil["status"] == "ok" and "series" in hil["result"]


def test_segre_commands():
    edge = {"vertices": [1, 2], "facets": [[1, 2]]}
    prod = run({"cmd": "segre.product", "x": edge, "y": edge})
    assert prod["status"] == "ok"
    hom = run({"cmd": "segre.homology", "complex": prod["result"], "i_max": 1})
    assert hom["result"]["ranks"]["0"] == 2

    series = run(
        {
            "cmd": "segre.series",
            "complex": edge,
            "group": {"construct": "cyclic", "n": 2},
            "action": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
            "i": 0,
            "nmax": 2,
        }
    )
    assert series["status"] == "ok"
    assert series["result"][1] == [[[0, 2], 1], [[2, 0], 1]]


def test_segre_product_is_budgeted(tmp_path, capsys):
    """The cube of the 6-vertex 2-skeleton has 301,716 simplices; the
    default budget refuses it before building it."""
    skeleton = {"vertices": list(range(1, 7)), "facets": [list(f) for f in itertools.combinations(range(1, 7), 3)]}
    square = run({"cmd": "segre.product", "x": skeleton, "y": skeleton})["result"]
    start = time.monotonic()
    resp = run({"cmd": "segre.product", "x": square, "y": skeleton})
    elapsed = time.monotonic() - start
    assert resp == {
        "status": "error",
        "diagnostics": ["ValidationError: budget: simplex budget 200000 exceeded at 301716 simplices"],
    }
    assert elapsed < 1, f"took {elapsed:.1f} s"
    # the square of an edge has 4 vertices and 2 edges
    edge = {"vertices": [1, 2], "facets": [[1, 2]]}
    product = {"cmd": "segre.product", "x": edge, "y": edge}
    assert run(dict(product, budget=6))["status"] == "ok"
    assert run(dict(product, budget=5))["diagnostics"] == [
        "ValidationError: budget: simplex budget 5 exceeded at 6 simplices"
    ]
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({"x": edge, "y": edge}))
    assert main(["segre.product", "--in", str(path), "--budget", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [
        "ValidationError: budget: simplex budget 5 exceeded at 6 simplices"
    ]


def test_segre_degrees_out_of_range_are_rejected():
    edge = {"vertices": [1, 2], "facets": [[1, 2]]}
    series = {
        "cmd": "segre.series",
        "complex": edge,
        "group": {"construct": "cyclic", "n": 2},
        "action": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
        "i": 0,
    }
    for req, field in [
        ({"cmd": "segre.homology", "complex": edge, "i_max": -1}, "i_max"),
        (dict(series, i=-1), "i"),
        (dict(series, nmax=0), "nmax"),
    ]:
        resp = run(req)
        assert resp["status"] == "error", req
        (message,) = resp["diagnostics"]
        assert message.startswith("ValidationError: " + field + " must be at least"), message
    assert run({"cmd": "segre.homology", "complex": edge, "i_max": "1"}) == {
        "status": "error",
        "diagnostics": ["ValidationError: i_max must be an integer, got '1'"],
    }
    # the smallest accepted values still answer
    assert run({"cmd": "segre.homology", "complex": edge, "i_max": 0})["result"] == {"ranks": {"0": 1}}
    assert run(dict(series, nmax=1))["status"] == "ok"


def test_segre_homology_ranks_are_budgeted():
    """`i_max` + 1 ranks are charged to the budget; the degrees past the
    dimension answer 0 without building a boundary map for them."""
    circle = {"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3], [1, 3]]}
    homology = {"cmd": "segre.homology", "complex": circle}
    start = time.monotonic()
    resp = run(dict(homology, i_max=10**6))
    elapsed = time.monotonic() - start
    assert resp == {
        "status": "error",
        "diagnostics": ["ValidationError: i_max: an answer of 1000001 ranks exceeds the budget 200000"],
    }
    assert elapsed < 1, f"took {elapsed:.1f} s"
    assert run(dict(homology, i_max=10**200))["diagnostics"] == [
        "ValidationError: i_max: an answer of more than 10^100 ranks exceeds the budget 200000"
    ]
    assert run(dict(homology, i_max=3, budget=3))["diagnostics"] == [
        "ValidationError: i_max: an answer of 4 ranks exceeds the budget 3"
    ]
    ranks = {"0": 1, "1": 1, "2": 0, "3": 0}
    assert run(dict(homology, i_max=3, budget=4)) == {"status": "ok", "result": {"ranks": ranks}}


def test_segre_series_past_the_dimension_is_empty_at_once():
    edge = {"vertices": [1, 2], "facets": [[1, 2]]}
    series = {
        "cmd": "segre.series",
        "complex": edge,
        "group": {"construct": "cyclic", "n": 2},
        "action": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
        "i": 100000,
    }
    start = time.monotonic()
    resp = run(series)
    elapsed = time.monotonic() - start
    assert resp == {"status": "ok", "result": [[], []]}
    assert elapsed < 0.1, f"took {elapsed:.3f} s"


def test_poset_series_degree_is_validated():
    base = {"cmd": "poset.series", "orders": [2], "weights": [[1]]}
    for degree, expected in [
        (-1, "ValidationError: degree must be at least 0, got -1"),
        ("x", "ValidationError: degree must be an integer, got 'x'"),
        (2.7, "ValidationError: degree must be an integer, got 2.7"),
        (True, "ValidationError: degree must be an integer, got True"),
    ]:
        resp = run(dict(base, degree=degree))
        assert resp == {"status": "error", "diagnostics": [expected]}, degree
    # degree 0 is the constant term alone; the closed form is always given
    resp = run(dict(base, degree=0))["result"]
    assert resp["series"] == {"order": 1, "bound": [0, 0], "coefficients": []}
    assert resp["closed"] is not None
    assert run(dict(base, weights=[[1], [0], [1]], degree=2))["result"]["closed"] is not None


def test_series_degree_is_validated():
    """`degree` of genfun.series and genfun.expand is an int or a list with
    one entry per norm coordinate, each an int of at least 0."""
    star = {"kind": "star", "symbols": ["a", "b"]}
    dfa = run({"cmd": "lang.compile", "expr": star, "alphabet": ["a", "b"]})["result"]
    rational = run({"cmd": "genfun.closed", "expr": star, "alphabet": ["a", "b"]})["result"]
    for base in ({"cmd": "genfun.series", "dfa": dfa}, {"cmd": "genfun.expand", "rational": rational}):
        for degree, expected in [
            ([2], "ValidationError: degree must have 2 entries, got 1"),
            ([2, 2, 2], "ValidationError: degree must have 2 entries, got 3"),
            (-1, "ValidationError: degree must be at least 0, got -1"),
            ([2, -1], "ValidationError: degree[1] must be at least 0, got -1"),
            (2.7, "ValidationError: degree must be an integer, got 2.7"),
            (True, "ValidationError: degree must be an integer, got True"),
            ("3", "ValidationError: degree must be an integer, got '3'"),
            ([2, 2.0], "ValidationError: degree[1] must be an integer, got 2.0"),
        ]:
            assert run(dict(base, degree=degree)) == {"status": "error", "diagnostics": [expected]}, (base, degree)
        assert run(dict(base, degree=[2, 0]))["result"]["bound"] == [2, 0]
        assert run(dict(base, degree=0))["result"]["coefficients"] == [[[0, 0], [1, ["1"]]]]
        assert run(base)["result"]["bound"] == [8, 8]


def test_series_box_is_budgeted(tmp_path, capsys):
    star = {"kind": "star", "symbols": ["a", "b"]}
    dfa = run({"cmd": "lang.compile", "expr": star, "alphabet": ["a", "b"]})["result"]
    rational = run({"cmd": "genfun.closed", "expr": star, "alphabet": ["a", "b"]})["result"]
    for base in ({"cmd": "genfun.series", "dfa": dfa}, {"cmd": "genfun.expand", "rational": rational}):
        start = time.monotonic()
        resp = run(dict(base, degree=10**9))
        elapsed = time.monotonic() - start
        assert resp["diagnostics"] == [
            "ValidationError: degree: a series box of 1000000002000000001 exponents exceeds the budget 200000"
        ]
        assert elapsed < 1, f"took {elapsed:.1f} s"
        # a 3 x 3 box has 9 exponents
        assert run(dict(base, degree=2, budget=9))["status"] == "ok"
        assert run(dict(base, degree=2, budget=8))["diagnostics"] == [
            "ValidationError: degree: a series box of 9 exponents exceeds the budget 8"
        ]
    # poset.series expands its closed form over a box with one coordinate
    # per group element: 6^52 exponents for Z/52 at degree 5
    series = {"cmd": "poset.series", "weights": [[1]]}
    start = time.monotonic()
    resp = run(dict(series, orders=[52]))
    elapsed = time.monotonic() - start
    assert resp["diagnostics"] == [f"ValidationError: degree: a series box of {6**52} exponents exceeds the budget 200000"]
    assert elapsed < 1, f"took {elapsed:.1f} s"
    # 6^1000000 exponents for Z/1000000: the product stops past 10^100
    start = time.monotonic()
    resp = run(dict(series, orders=[1000000]))
    elapsed = time.monotonic() - start
    assert resp["diagnostics"] == [
        "ValidationError: degree: a series box of more than 10^100 exponents exceeds the budget 200000"
    ]
    assert elapsed < 1, f"took {elapsed:.1f} s"
    assert run(dict(series, orders=[6]))["status"] == "ok"  # 6^6 = 46,656 exponents
    assert run(dict(series, orders=[2], degree=2, budget=9))["status"] == "ok"
    assert run(dict(series, orders=[2], degree=2, budget=8))["diagnostics"] == [
        "ValidationError: degree: a series box of 9 exponents exceeds the budget 8"
    ]
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps({"dfa": dfa}))
    assert main(["genfun.series", "--in", str(path), "--degree", "2", "--budget", "8"]) == 1
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [
        "ValidationError: degree: a series box of 9 exponents exceeds the budget 8"
    ]


def test_series_exponent_length_is_budgeted():
    """At degree 0 the box has one exponent, but it has one coordinate per
    variable, and the variable count is the client's."""
    empty = {"order": 1, "numerator": [], "den": 1, "factors": []}
    dfa = {"alphabet": ["a"], "delta": [[0]], "start": 0, "accepting": [0]}
    for nvars in (10**30, 10**7):
        error = f"ValidationError: degree: a series exponent of {nvars} coordinates exceeds the budget 200000"
        for req in (
            {"cmd": "genfun.expand", "rational": dict(empty, nvars=nvars), "degree": 0},
            {"cmd": "genfun.series", "dfa": dfa, "norm": {"size": nvars, "pairs": [["a", 0]]}, "degree": 0},
            {"cmd": "poset.series", "orders": [nvars], "weights": [[1]], "degree": 0},
        ):
            start = time.monotonic()
            resp = run(req)
            elapsed = time.monotonic() - start
            assert resp == {"status": "error", "diagnostics": [error]}, req["cmd"]
            assert elapsed < 1, f"{req['cmd']} took {elapsed:.1f} s"
    expand = {"cmd": "genfun.expand", "rational": dict(empty, nvars=3), "degree": 0}
    assert run(dict(expand, budget=3))["result"]["bound"] == [0, 0, 0]
    assert run(dict(expand, budget=2))["diagnostics"] == [
        "ValidationError: degree: a series exponent of 3 coordinates exceeds the budget 2"
    ]


def test_segre_product_with_nested_tuple_vertices_reads_back():
    """A cube built from a square that went through JSON has vertices
    ((a, b), c); read back, they must stay hashable tuples."""
    edge = {"vertices": [1, 2], "facets": [[1, 2]]}
    square = json.loads(dumps(run({"cmd": "segre.product", "x": edge, "y": edge})))["result"]
    cube = json.loads(dumps(run({"cmd": "segre.product", "x": square, "y": edge})))["result"]
    assert cube["vertices"][0] == [[1, 1], 1]
    assert run({"cmd": "segre.homology", "complex": cube}) == {"status": "ok", "result": {"ranks": {"0": 4, "1": 0}}}
    assert run({"cmd": "segre.product", "x": cube, "y": edge})["status"] == "ok"


def test_deeply_nested_payloads_are_answered():
    """Vertices, symbols and expressions are decoded on explicit stacks; a
    payload nested past the payload nesting limit is refused at its path."""
    vertex, expr = 1, {"kind": "epsilon"}
    for _ in range(3000):
        vertex, expr = [vertex], {"kind": "concat", "parts": [expr]}
    symbol = {"kind": "symbol", "symbol": vertex}
    for req, path in (
        ({"cmd": "segre.homology", "complex": {"vertices": [vertex], "facets": [[vertex]]}}, "complex.vertices[0]"),
        ({"cmd": "lang.compile", "expr": expr, "alphabet": ["a"]}, "expr.parts[0]"),
        ({"cmd": "lang.compile", "expr": symbol, "alphabet": ["a"]}, "expr.symbol[0]"),
        ({"cmd": "lang.member", "dfa": {"alphabet": [vertex]}, "word": []}, "dfa.alphabet[0][0]"),
    ):
        resp = run(req)
        assert resp["status"] == "error"
        (message,) = resp["diagnostics"]
        assert message.startswith("ValidationError: " + path), message
        assert message.endswith(f" nests deeper than {MAX_DEPTH} levels"), message
    # a value too deep to print is named by its type
    z2 = {"construct": "cyclic", "n": 2}
    assert run({"cmd": "wreath.classes", "group": z2, "n": vertex}) == {
        "status": "error", "diagnostics": ["ValidationError: n must be an integer, got list"]
    }
    # a vertex of a Segre power gains one level per product, far below the limit
    a, b = 1, 2
    for _ in range(MAX_DEPTH // 2):
        a, b = [a, 1], [b, 1]
    edge = {"vertices": [a, b], "facets": [[a, b]]}
    assert run({"cmd": "segre.homology", "complex": edge})["result"] == {"ranks": {"0": 1, "1": 0}}


def test_group_and_wreath_integers_are_not_coerced():
    z2 = {"construct": "cyclic", "n": 2}
    for req, expected in [
        ({"cmd": "wreath.classes", "group": z2, "n": 2.7}, "ValidationError: n must be an integer, got 2.7"),
        ({"cmd": "wreath.classes", "group": z2, "n": -1}, "ValidationError: n must be at least 0, got -1"),
        (
            {"cmd": "group.table", "group": {"construct": "cyclic", "n": "3"}},
            "ValidationError: group.n must be an integer, got '3'",
        ),
        (
            {"cmd": "group.table", "group": {"construct": "cyclic", "n": 0}},
            "ValidationError: group.n must be at least 1, got 0",
        ),
        (
            {"cmd": "group.table", "group": {"construct": "symmetric", "n": 3.0}},
            "ValidationError: group.n must be an integer, got 3.0",
        ),
        ({"cmd": "wreath.hilbert", "group": z2, "index": "0"}, "ValidationError: index must be an integer, got '0'"),
        ({"cmd": "wreath.hilbert", "group": z2, "index": 2}, "ValidationError: index must lie in range(2), got 2"),
        (
            {"cmd": "wreath.hilbert", "group": z2, "index": 0, "degree": 2.7},
            "ValidationError: degree must be an integer, got 2.7",
        ),
    ]:
        assert run(req) == {"status": "error", "diagnostics": [expected]}, req
    assert len(run({"cmd": "wreath.classes", "group": z2, "n": 0})["result"]) == 1
    assert run({"cmd": "group.table", "group": {"construct": "cyclic", "n": 1}})["result"]["order"] == 1
    assert run({"cmd": "wreath.hilbert", "group": z2, "index": 1, "degree": 0})["status"] == "ok"


def test_malformed_group_payloads_are_rejected():
    z2 = {"construct": "cyclic", "n": 2}
    trivial = {"construct": "cyclic", "n": 1}
    for req, expected in [
        (
            {"cmd": "group.table", "group": {"construct": "product", "factors": []}},
            "ValidationError: group.factors: a product needs at least one factor",
        ),
        ({"cmd": "group.table", "group": [[0]]}, "ValidationError: group must be a JSON object, got list"),
        (
            {"cmd": "group.restrict", "group": z2, "subgroup": trivial, "embedding": [5]},
            "ValidationError: embedding[0] must lie in range(2), got 5",
        ),
        (
            {"cmd": "group.restrict", "group": z2, "subgroup": trivial, "embedding": [-1]},
            "ValidationError: embedding[0] must lie in range(2), got -1",
        ),
        (
            {"cmd": "group.table", "group": {"construct": "symmetric", "n": -1}},
            "ValidationError: group.n must be at least 0, got -1",
        ),
    ]:
        assert run(req) == {"status": "error", "diagnostics": [expected]}, req
    # the smallest accepted payloads still answer
    product = {"construct": "product", "factors": [z2]}
    assert run({"cmd": "group.table", "group": product})["result"]["order"] == 2
    assert run({"cmd": "group.restrict", "group": z2, "subgroup": trivial, "embedding": [0]})["result"] == [[1], [1]]
    assert run({"cmd": "group.table", "group": {"construct": "symmetric", "n": 0}})["result"]["order"] == 1


def test_integer_fields_are_not_coerced():
    """Every integer read from a payload is checked, not passed to int()."""
    star = {"kind": "star", "symbols": ["a", "b"]}
    dfa = run({"cmd": "lang.compile", "expr": star, "alphabet": ["a", "b"]})["result"]
    rational = run({"cmd": "genfun.closed", "expr": star, "alphabet": ["a", "b"]})["result"]
    z2 = {"construct": "cyclic", "n": 2}
    trivial = {"construct": "cyclic", "n": 1}
    x = {"letters": ["a"], "weights": [[1]], "orders": [2]}
    y = {"letters": ["a", "a"], "weights": [[0], [1]], "orders": [2]}
    enum = {"cmd": "lang.enum", "dfa": dfa, "bound": 1}
    norm = {"pairs": [["a", 0], ["b", 1]], "size": 2}
    filt = {"cmd": "genfun.filter", "rational": rational, "orders": [2], "psi": [[1], [0]], "target": [[0]]}
    series = {"cmd": "poset.series", "orders": [2], "weights": [[1]], "degree": 1}
    stability = {
        "cmd": "wreath.stability", "group": z2, "lambda": [[], [1]], "mu": [[], [1]], "nu": [[], []], "n_range": [2, 3]
    }
    good = {"cmd": "group.good", "group": z2, "subgroups": [{"group": trivial, "embedding": [0]}]}
    restrict = {"cmd": "group.restrict", "group": z2, "subgroup": trivial, "embedding": [0]}
    expand = {"cmd": "genfun.expand", "rational": rational, "degree": 1}
    translate = {"cmd": "genfun.translate", "rational": rational, "exponents": [1, 0], "root_order": 2}
    cases = [
        (dict(series, orders=["2"]), "orders[0] must be an integer, got '2'"),
        (dict(series, orders=[0]), "orders[0] must be at least 1, got 0"),
        (dict(series, weights=[[1.7]]), "weights[0][0] must be an integer, got 1.7"),
        (dict(restrict, embedding=["0"]), "embedding[0] must be an integer, got '0'"),
        (dict(good, subgroups=[{"group": trivial, "embedding": [0.0]}]), "subgroups[0].embedding[0] must be an integer, got 0.0"),
        ({"cmd": "poset.leq", "x": dict(x, weights=[["1"]]), "y": y}, "x.weights[0][0] must be an integer, got '1'"),
        ({"cmd": "poset.leq", "x": x, "y": dict(y, orders=[True])}, "y.orders[0] must be an integer, got True"),
        (dict(enum, bound="2"), "bound must be an integer, got '2'"),
        (dict(enum, bound=[1, 1.0]), "bound[1] must be an integer, got 1.0"),
        (dict(enum, bound=-1), "bound must be at least 0, got -1"),
        (dict(enum, norm=dict(norm, pairs=[["a", "0"], ["b", 1]])), "norm.pairs[0][1] must be an integer, got '0'"),
        (dict(enum, norm=dict(norm, size=2.0)), "norm.size must be an integer, got 2.0"),
        ({"cmd": "lang.member", "dfa": dict(dfa, start="0"), "word": []}, "dfa.start must be an integer, got '0'"),
        (dict(stability, **{"lambda": [[], ["1"]]}), "lambda[1][0] must be an integer, got '1'"),
        (dict(stability, mu=[[], [0]]), "mu[1][0] must be at least 1, got 0"),
        (dict(stability, n_range=["2", 3.5]), "n_range[0] must be an integer, got '2'"),
        (dict(stability, n_range=[2, 3.5]), "n_range[1] must be an integer, got 3.5"),
        ({"cmd": "wreath.char", "group": z2, "lambda": [[1.0], []]}, "lambda[0][0] must be an integer, got 1.0"),
        ({"cmd": "wreath.char", "group": z2, "lambda": [[1, 3], []]},
         "lambda[0] must be a partition, its parts non-increasing, got [1, 3]"),
        (dict(stability, nu=[[], [2, 2, 3]]), "nu[1] must be a partition, its parts non-increasing, got [2, 2, 3]"),
        ({"cmd": "genfun.translate", "rational": rational, "exponents": [1.5, 0]}, "exponents[0] must be an integer, got 1.5"),
        (dict(filt, orders=[2.0]), "orders[0] must be an integer, got 2.0"),
        (dict(filt, psi=[["1"], [0]]), "psi[0][0] must be an integer, got '1'"),
        (dict(filt, target=[[False]]), "target[0][0] must be an integer, got False"),
        (dict(expand, rational=dict(rational, nvars="2")), "rational.nvars must be an integer, got '2'"),
        (dict(expand, rational=dict(rational, nvars=1.9)), "rational.nvars must be an integer, got 1.9"),
        (dict(expand, rational=dict(rational, order=True)), "rational.order must be an integer, got True"),
        (dict(expand, rational=dict(rational, numerator=[[e, [1.7, c[1]]] for e, c in rational["numerator"]])),
         "rational.numerator[0][1][0] must be an integer, got 1.7"),
        (dict(translate, root_order="2"), "root_order must be an integer, got '2'"),
        (dict(translate, root_order=0), "root_order must be at least 1, got 0"),
        (dict(translate, root_order=True), "root_order must be an integer, got True"),
    ]
    for req, expected in cases:
        assert run(req) == {"status": "error", "diagnostics": ["ValidationError: " + expected]}, req
    # the well-formed payloads still answer
    for req in (series, restrict, good, {"cmd": "poset.leq", "x": x, "y": y}, enum, dict(enum, bound=[1, 1]),
                dict(enum, norm=norm), {"cmd": "lang.member", "dfa": dfa, "word": []}, stability,
                {"cmd": "wreath.char", "group": z2, "lambda": [[1], []]}, filt, expand, translate,
                {"cmd": "genfun.translate", "rational": rational, "exponents": [1, 0]}):
        assert run(req)["status"] == "ok", req


def test_rational_entries_are_checked():
    """Factor variables lie in range(nvars) and numerator exponents are ints
    of at least 0; before, these escaped as IndexError or answered wrongly."""
    one = [1, ["1"]]
    expand = {"cmd": "genfun.expand", "degree": 3}

    def rational(nvars, numerator, factors):
        return dict(expand, rational={"nvars": nvars, "order": 1, "numerator": numerator, "factors": factors})

    cases = [
        (rational(2, [[[0, 0], one]], [[[2, one]]]), "rational.factors[0][0][0] must lie in range(2), got 2"),
        (rational(2, [[[0, 0], one]], [[[True, one]]]), "rational.factors[0][0][0] must be an integer, got True"),
        (rational(1, [[[0], one]], [[[-1, one]]]), "rational.factors[0][0][0] must lie in range(1), got -1"),
        (rational(1, [[[0.0], one]], [[[0, one]]]), "rational.numerator[0][0][0] must be an integer, got 0.0"),
        (rational(1, [[[-1], one]], [[[0, one]]]), "rational.numerator[0][0][0] must be at least 0, got -1"),
    ]
    for req, expected in cases:
        assert run(req) == {"status": "error", "diagnostics": ["ValidationError: " + expected]}, req
    # 1/(1 - t) to degree 3
    ok = run(rational(1, [[[0], one]], [[[0, one]]]))
    assert ok["status"] == "ok"
    assert ok["result"]["coefficients"] == [[[n], one] for n in range(4)]


def test_dfa_and_congruence_entries_are_checked():
    dfa = run({"cmd": "lang.compile", "expr": {"kind": "star", "symbols": ["a"]}, "alphabet": ["a", "b"]})["result"]
    spec = {"orders": [2], "alphabet": ["a", "b"], "phi": [["a", [1]], ["b", [0]]], "target": [[0]]}
    member = {"cmd": "lang.member", "dfa": dfa, "word": ["a"]}
    congruence = {"cmd": "lang.compile", "congruence": spec}
    cases = [
        (dict(member, dfa=dict(dfa, delta=[[0, True], [1, 1]])), "dfa.delta[0][1] must be an integer, got True"),
        (dict(member, dfa=dict(dfa, delta=[[0, 1], [1.0, 1]])), "dfa.delta[1][0] must be an integer, got 1.0"),
        (dict(member, dfa=dict(dfa, accepting=[1.0])), "dfa.accepting[0] must be an integer, got 1.0"),
        (dict(member, dfa=dict(dfa, accepting=[False])), "dfa.accepting[0] must be an integer, got False"),
        (dict(congruence, congruence=dict(spec, phi=[["a", [1.0]], ["b", [0]]])), "congruence.phi[0][1][0] must be an integer, got 1.0"),
        (dict(congruence, congruence=dict(spec, target=[[True]])), "congruence.target[0][0] must be an integer, got True"),
    ]
    for req, expected in cases:
        assert run(req) == {"status": "error", "diagnostics": ["ValidationError: " + expected]}, req
    assert run(member) == {"status": "ok", "result": True}
    assert run(congruence)["status"] == "ok"


def error(message):
    return {"status": "error", "diagnostics": ["ValidationError: " + message]}


def test_repeated_rational_entries_are_refused():
    """A repeated numerator exponent or factor variable used to keep only its
    last entry: the numerator below expanded to the constant 2, not 3, and
    the factor was read as 1/(1 - t), whose t^2 coefficient is 1, not 4."""
    one, two = [1, ["1"]], [1, ["2"]]

    def expand(numerator, factors):
        rational = {"nvars": 1, "order": 1, "numerator": numerator, "factors": factors}
        return run({"cmd": "genfun.expand", "rational": rational, "degree": 2})

    assert expand([[[0], one], [[0], two]], []) == error("rational.numerator[1][0]: exponent [0] is repeated")
    assert expand([[[0], one]], [[[0, one], [0, one]]]) == error("rational.factors[0][1][0]: variable 0 is repeated")
    # written once, the same values answer: 3, and 1/(1 - 2t)
    assert expand([[[0], [1, ["3"]]]], [])["result"]["coefficients"] == [[[0], [1, ["3"]]]]
    assert expand([[[0], one]], [[[0, two]]])["result"]["coefficients"][2] == [[2], [1, ["4"]]]


def test_repeated_ambient_letters_are_refused():
    """`letters` ["a", "a"] used to answer with a congruence of orders [2, 2]
    that listed every symbol twice."""
    x = {"letters": ["a"], "weights": [[1]], "orders": [2]}
    assert run({"cmd": "poset.ideal", "x": x, "letters": ["a", "a"]}) == error("letters[1]: letter 'a' is repeated")
    assert run({"cmd": "poset.ideal", "x": x, "letters": ["a", "b", "a"]}) == error("letters[2]: letter 'a' is repeated")
    assert run({"cmd": "poset.ideal", "x": x, "letters": ["a", "b"]})["status"] == "ok"


def test_repeated_symbols_are_refused():
    """A congruence `phi` or a norm's `pairs` used to keep the last value of
    a repeated symbol, so the `phi` below compiled as a -> 0."""
    dfa = run({"cmd": "lang.compile", "expr": {"kind": "star", "symbols": ["a", "b"]}, "alphabet": ["a", "b"]})["result"]
    spec = {"orders": [2], "alphabet": ["a", "b"], "phi": [["a", [1]], ["a", [0]], ["b", [0]]], "target": [[0]]}
    assert run({"cmd": "lang.compile", "congruence": spec}) == error("congruence.phi[1][0]: symbol 'a' is repeated")
    quasi = {"ordered": {"kind": "star", "symbols": ["a", "b"]}, "congruence": spec}
    assert run({"cmd": "genfun.closed", "quasi": quasi}) == error("quasi.congruence.phi[1][0]: symbol 'a' is repeated")
    norm = {"pairs": [["a", 0], ["b", 1], ["a", 1]], "size": 2}
    assert run({"cmd": "lang.enum", "dfa": dfa, "bound": [1, 1], "norm": norm}) == error("norm.pairs[2][0]: symbol 'a' is repeated")
    assert run({"cmd": "genfun.series", "dfa": dfa, "degree": 1, "norm": norm}) == error("norm.pairs[2][0]: symbol 'a' is repeated")
    weighted = {"pairs": [[["a", [0]], 0], [["a", [0]], 1]], "size": 2}
    assert run({"cmd": "genfun.series", "dfa": dfa, "degree": 1, "norm": weighted}) == error(
        "norm.pairs[1][0]: symbol ['a', [0]] is repeated"
    )
    spec["phi"] = [["a", [1]], ["b", [0]]]
    norm["pairs"] = [["a", 0], ["b", 1]]
    assert run({"cmd": "lang.compile", "congruence": spec})["status"] == "ok"
    assert run({"cmd": "lang.enum", "dfa": dfa, "bound": [1, 1], "norm": norm})["status"] == "ok"
    assert run({"cmd": "genfun.series", "dfa": dfa, "degree": 1, "norm": norm})["status"] == "ok"


def test_lists_sent_as_strings_are_rejected():
    """A string in a list field is not read as its characters."""
    star = {"kind": "star", "symbols": ["a", "b"]}
    dfa = run({"cmd": "lang.compile", "expr": star, "alphabet": ["a", "b"]})["result"]
    x = {"letters": ["a"], "weights": [[1]], "orders": [2]}
    y = {"letters": ["a", "a"], "weights": [[0], [1]], "orders": [2]}
    spec = {"orders": [2], "alphabet": ["a", "b"], "phi": [["a", [1]], ["b", [0]]], "target": [[0]]}
    cases = [
        ({"cmd": "lang.member", "dfa": dfa, "word": "aa"}, "word must be a list, got str"),
        ({"cmd": "poset.ideal", "x": x, "letters": "ab"}, "letters must be a list, got str"),
        ({"cmd": "poset.leq", "x": x, "y": dict(y, letters="aa")}, "y.letters must be a list, got str"),
        ({"cmd": "lang.compile", "expr": star, "alphabet": "ab"}, "alphabet must be a list, got str"),
        ({"cmd": "lang.compile", "expr": dict(star, symbols="ab"), "alphabet": ["a", "b"]},
         "expr.symbols must be a list, got str"),
        ({"cmd": "genfun.closed", "expr": star, "alphabet": "ab"}, "alphabet must be a list, got str"),
        ({"cmd": "lang.member", "dfa": dict(dfa, alphabet="ab"), "word": []}, "dfa.alphabet must be a list, got str"),
        ({"cmd": "lang.compile", "congruence": dict(spec, alphabet="ab")}, "congruence.alphabet must be a list, got str"),
    ]
    for req, expected in cases:
        assert run(req) == {"status": "error", "diagnostics": ["ValidationError: " + expected]}, req
    for req in ({"cmd": "lang.member", "dfa": dfa, "word": ["a", "a"]},
                {"cmd": "poset.ideal", "x": x, "letters": ["a", "b"]},
                {"cmd": "poset.leq", "x": x, "y": y},
                {"cmd": "genfun.closed", "expr": star, "alphabet": ["a", "b"]},
                {"cmd": "lang.compile", "congruence": spec}):
        assert run(req)["status"] == "ok", req


def test_wreath_hilbert_series_box_is_budgeted():
    # Z/12 has 12 irreducibles, so degree 2 spans 3^12 = 531,441 exponents
    start = time.monotonic()
    resp = run({"cmd": "wreath.hilbert", "group": {"construct": "cyclic", "n": 12}, "index": 0, "degree": 2})
    elapsed = time.monotonic() - start
    assert resp == {
        "status": "error",
        "diagnostics": ["ValidationError: degree: a series box of 531441 exponents exceeds the budget 200000"],
    }
    assert elapsed < 1, f"took {elapsed:.1f} s"
    z2 = {"cmd": "wreath.hilbert", "group": {"construct": "cyclic", "n": 2}, "index": 1, "degree": 2}
    assert run(dict(z2, budget=9))["status"] == "ok"
    assert run(dict(z2, budget=8))["diagnostics"] == [
        "ValidationError: degree: a series box of 9 exponents exceeds the budget 8"
    ]


def test_poset_leq_on_a_long_word_answers():
    # the recursive witness search ran out of recursion at this length
    x = {"letters": ["a", "b"], "weights": [[1], [0]], "orders": [2]}
    y = {"letters": ["a", "b"] * 1000, "weights": [[1], [0]] + [[0]] * 1998, "orders": [2]}
    resp = run({"cmd": "poset.leq", "x": x, "y": y})
    assert resp["status"] == "ok", resp
    f = OrderedSurjection(tuple(v - 1 for v in resp["result"]["map"]), resp["result"]["target_size"])
    assert validate_witness(f, WeightedWord.from_json(x), WeightedWord.from_json(y))


def test_lang_enum_of_a_long_word_answers():
    # a chain DFA that accepts only a^1200: the recursive enumeration ran out
    # of recursion along it
    n = 1200
    dfa = {"alphabet": ["a"], "delta": [[i + 1] for i in range(n + 1)] + [[n + 1]], "start": 0, "accepting": [n]}
    for bound in (n, [n]):
        assert run({"cmd": "lang.enum", "dfa": dfa, "bound": bound}) == {"status": "ok", "result": [["a"] * n]}
    assert run({"cmd": "lang.enum", "dfa": dfa, "bound": n - 1}) == {"status": "ok", "result": []}


def test_lang_enum_is_budgeted():
    """Over the star DFA on {a, b} the words grow about 4x per bound step;
    [12, 12] (10,400,599 words) is refused at once, by path and
    budget.  A DFA whose accepted words all lie past the bound is refused
    too: the budget counts the words the search visits."""
    star = run({"cmd": "lang.compile", "expr": {"kind": "star", "symbols": ["a", "b"]}, "alphabet": ["a", "b"]})
    enum = {"cmd": "lang.enum", "dfa": star["result"], "bound": [7, 7]}
    assert len(run(enum)["result"]) == 12869
    assert run(dict(enum, budget=12869))["status"] == "ok"
    (message,) = run(dict(enum, budget=12868))["diagnostics"]
    assert message == "ValidationError: bound: the search visits more than 12868 words, past the budget 12868"
    start = time.perf_counter()
    resp = run(dict(enum, bound=[12, 12]))
    assert time.perf_counter() - start < 1
    assert resp["diagnostics"] == ["ValidationError: bound: the search visits more than 200000 words, past the budget 200000"]
    # accepts the words with at least 13 a's
    past = {"alphabet": ["a", "b"], "delta": [[min(i + 1, 13), i] for i in range(14)], "start": 0, "accepting": [13]}
    start = time.perf_counter()
    assert run({"cmd": "lang.enum", "dfa": past, "bound": [12, 12]})["status"] == "error"
    assert time.perf_counter() - start < 1
    assert run({"cmd": "lang.enum", "dfa": past, "bound": [13, 0]})["result"] == [["a"] * 13]


def test_ideal_chained_through_its_text_compiles_the_same():
    """`poset.ideal` shares one JSON list among the occurrences of a symbol;
    compiling the response object and compiling its text agree."""
    x = {"letters": ["a", "b", "a"], "weights": [[1], [0], [1]], "orders": [2]}
    ideal = run({"cmd": "poset.ideal", "x": x})["result"]
    symbols = [p["symbol"] for branch in ideal["ordered"]["parts"] for p in branch["parts"] if p["kind"] == "symbol"]
    assert len({id(s) for s in symbols}) < len(symbols)
    parsed = json.loads(dumps(ideal))
    compiled = [
        run({"cmd": "lang.compile", "expr": q["ordered"], "alphabet": q["congruence"]["alphabet"]})
        for q in (ideal, parsed)
    ]
    assert compiled[0]["status"] == "ok" and compiled[0] == compiled[1]


def test_dumps_is_the_canonical_json_text():
    """On a response to every subcommand, to the automata chain and to an
    error, `dumps` (no cycle check) writes what plain `json.dumps` writes."""
    x = {"letters": ["a", "b", "a"], "weights": [[1], [0], [1]], "orders": [2]}
    ideal = run({"cmd": "poset.ideal", "x": x})
    dfa = run({"cmd": "lang.compile", "expr": ideal["result"]["ordered"], "alphabet": ideal["result"]["congruence"]["alphabet"]})
    series = run({"cmd": "genfun.series", "dfa": dfa["result"], "degree": 3})
    accented = run({"cmd": "lang.compile", "expr": {"kind": "star", "symbols": ["\u00e9"]}, "alphabet": ["\u00e9"]})
    responses = [run(json.loads(json.dumps(req))) for req in CORPUS] + [ideal, dfa, series, accented, run({"cmd": "nosuch"})]
    for resp in responses:
        assert dumps(resp) == json.dumps(resp, sort_keys=True, separators=(",", ":"))


def test_determinism_byte_identical():
    req = {"cmd": "group.table", "group": {"construct": "cyclic", "n": 3}}
    a = dumps(execute_request(dict(req)))
    b = dumps(execute_request(dict(req)))
    assert a == b


def test_round_trip_serialization():
    ideal = run({"cmd": "poset.ideal", "x": {"letters": ["a"], "weights": [[1]], "orders": [2]}})
    blob = dumps(ideal)
    again = dumps(json.loads(blob))
    assert json.loads(again) == json.loads(blob)


def test_cli_process_entry():
    payload = json.dumps(
        {"x": {"letters": ["a"], "weights": [[1]], "orders": [2]},
         "y": {"letters": ["a", "a"], "weights": [[0], [1]], "orders": [2]}}
    )
    proc = subprocess.run(
        [sys.executable, "-m", "quasilang", "poset.leq"],
        input=payload,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["status"] == "ok" and out["result"]["map"] == [1, 1]


def test_cli_exit_code_on_error():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from quasilang.cli import main; sys.exit(main(sys.argv[1:]))", "nosuch.op"],
        input="{}",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "error"


def test_filter_target_is_a_set_of_group_elements():
    """A repeated target element was counted twice: 1/(1 - t) over Z/3 with
    psi [[1]] and target [[1], [1]] expanded to 2t + 2t^4, not t + t^4.  An
    out-of-range target such as [[4]] was reduced mod 3, while psi refused it."""
    one = [1, ["1"]]
    rational = {"nvars": 1, "order": 1, "numerator": [[[0], one]], "factors": [[[0, one]]]}
    base = {"cmd": "genfun.filter", "rational": rational, "orders": [3], "psi": [[1]]}
    assert run(dict(base, target=[[1], [1]])) == error("target[1]: element [1] is repeated")
    assert run(dict(base, target=[[0], [2], [0]])) == error("target[2]: element [0] is repeated")
    assert run(dict(base, target=[[4]])) == error("target[0][0] must lie in range(3), got 4")
    assert run(dict(base, target=[[-2]])) == error("target[0][0] must lie in range(3), got -2")
    assert run(dict(base, target=[[1, 0]])) == error("target[0] must have 1 entries, got 2")
    assert run(dict(base, psi=[[4]])) == error("psi[0][0] must lie in range(3), got 4")
    filtered = run(dict(base, target=[[1]]))["result"]
    series = run({"cmd": "genfun.expand", "rational": filtered, "degree": 5})["result"]
    assert {e[0]: cyclotomic_from_json(c) for e, c in series["coefficients"]} == {1: 1, 4: 1}


def test_wreath_labels_have_one_partition_per_irreducible():
    # "mu": [] escaped execute_request as IndexError from pad_label
    z2 = {"construct": "cyclic", "n": 2}
    stability = {
        "cmd": "wreath.stability", "group": z2, "lambda": [[], [1]], "mu": [], "nu": [[], []], "n_range": [2, 3]
    }
    assert run(stability) == error("mu must have 2 entries, got 0")
    assert run(dict(stability, mu=[[], [1]], nu=[[]])) == error("nu must have 2 entries, got 1")
    assert run({"cmd": "wreath.char", "group": z2, "lambda": [[1], [], []]}) == error(
        "lambda must have 2 entries, got 3"
    )
    assert run(dict(stability, mu=[[], [1]]))["status"] == "ok"


def test_degree_zero_wreath_labels_are_answered():
    # the character of the empty label was keyed by () instead of by the
    # class label ((), ..., ()), so both requests answered a KeyError
    for group, slots in (({"construct": "cyclic", "n": 2}, 2), ({"construct": "symmetric", "n": 3}, 3)):
        empty = [[]] * slots
        value = {"label": empty, "size": 1, "value": [1, ["1"]]}
        assert run({"cmd": "wreath.char", "group": group, "lambda": empty}) == {
            "status": "ok", "result": {"dim": 1, "values": [value]}
        }
        stability = {"cmd": "wreath.stability", "group": group, "lambda": empty, "mu": empty, "nu": empty}
        assert run(dict(stability, n_range=[0, 2])) == {"status": "ok", "result": [1, 1, 1]}


def test_group_orders_are_budgeted_before_any_table_is_built():
    """S_(10^30) escaped as OverflowError, and S9 ran for minutes."""
    cyclic = {"construct": "cyclic", "n": 1000}
    for group, expected in [
        ({"construct": "symmetric", "n": 10**30}, "group: a group of more than 10^100 elements exceeds the budget 200000"),
        ({"construct": "symmetric", "n": 9}, "group: a group of 362880 elements exceeds the budget 200000"),
        ({"construct": "cyclic", "n": 10**9}, "group: a group of 1000000000 elements exceeds the budget 200000"),
        ({"construct": "product", "factors": [cyclic, cyclic]}, "group: a group of 1000000 elements exceeds the budget 200000"),
    ]:
        start = time.monotonic()
        resp = run({"cmd": "group.table", "group": group})
        assert time.monotonic() - start < 1, group
        assert resp == error(expected), group
    s4 = {"cmd": "group.table", "group": {"construct": "symmetric", "n": 4}}
    assert run(dict(s4, budget=23)) == error("group: a group of 24 elements exceeds the budget 23")
    assert sum(run(dict(s4, budget=24))["result"]["class_sizes"]) == 24
    huge = {"construct": "cyclic", "n": 10**9}
    for req in (
        {"cmd": "wreath.char", "group": huge, "lambda": [[1]]},
        {"cmd": "group.restrict", "group": huge, "subgroup": {"construct": "cyclic", "n": 1}, "embedding": [0]},
        {"cmd": "segre.series", "complex": {"vertices": [1], "facets": [[1]]}, "group": huge, "action": [], "i": 0},
    ):
        start = time.monotonic()
        assert run(req) == error("group: a group of 1000000000 elements exceeds the budget 200000"), req
        assert time.monotonic() - start < 1, req


# one request per rule that a reader checks, or names with its path, where a
# constructor or a library call used to answer without one; the budget rules
# raised inside a Segre computation are named at the field that sets the size
TRIANGLE = {"vertices": [1, 2, 3], "facets": [[1, 2, 3]]}
SWAP = [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]
RULES = [
    ({"cmd": "lang.member", "dfa": dict(DFA, alphabet=["a", "a"]), "word": []}, "dfa.alphabet[1]: symbol 'a' is repeated"),
    ({"cmd": "lang.member", "dfa": DFA, "word": ["a", "c"]}, "word[1] must be a symbol of dfa.alphabet, got 'c'"),
    ({"cmd": "lang.compile", "expr": STAR, "alphabet": ["a", "b", "a"]}, "alphabet[2]: symbol 'a' is repeated"),
    ({"cmd": "lang.compile", "expr": STAR, "alphabet": ["a"]}, "expr: expression uses symbols outside the alphabet: [\"'b'\"]"),
    ({"cmd": "lang.compile", "congruence": dict(CONGRUENCE, phi=[["a", [1]]])}, "congruence.phi: symbol 'b' has no image"),
    (
        {"cmd": "lang.compile", "congruence": dict(CONGRUENCE, alphabet=["a", "b", "b"])},
        "congruence.alphabet[2]: symbol 'b' is repeated",
    ),
    (
        {"cmd": "genfun.closed", "quasi": {"ordered": {"kind": "symbol", "symbol": "c"}, "congruence": CONGRUENCE}},
        "quasi.ordered: expression uses symbols outside the alphabet: [\"'c'\"]",
    ),
    (
        {"cmd": "genfun.closed", "expr": STAR, "alphabet": ["a", "b"], "norm": {"length": True}},
        "norm: ordered_genfun requires a universal norm",
    ),
    ({"cmd": "lang.enum", "dfa": DFA, "bound": [1, 1, 1]}, "bound must have 2 entries, got 3"),
    ({"cmd": "lang.enum", "dfa": DFA, "bound": 1, "norm": {"pairs": [["a", 0]], "size": 1}}, "norm.pairs: symbol 'b' has no index"),
    ({"cmd": "lang.intersect", "a": DFA, "b": dict(DFA, alphabet=["a", "c"])}, "b: cannot intersect automata over different alphabets"),
    (
        {"cmd": "genfun.expand", "rational": dict(RATIONAL2, numerator=[[[0], [1, ["1"]]]]), "degree": 1},
        "rational.numerator[0][0] must have 2 entries, got 1",
    ),
    (
        {"cmd": "genfun.expand", "rational": dict(RATIONAL, numerator=[[[0], [3, ["1"]]]]), "degree": 1},
        "rational.numerator[0][1][1]: need 2 coordinates for order 3, got 1",
    ),
    ({"cmd": "genfun.translate", "rational": RATIONAL2, "exponents": [1]}, "exponents must have 2 entries, got 1"),
    (
        {"cmd": "genfun.filter", "rational": RATIONAL, "orders": [3], "psi": [[1], [2]], "target": [[0]]},
        "psi must have 1 entries, got 2",
    ),
    ({"cmd": "poset.leq", "x": dict(X, weights=[[1]]), "y": Y}, "x.weights must have 2 entries, got 1"),
    ({"cmd": "poset.leq", "x": X, "y": dict(Y, orders=[3])}, "y.orders: operands live over different weight groups"),
    ({"cmd": "poset.ideal", "x": X, "letters": ["a"]}, "letters: the ambient alphabet must contain the word's letters"),
    ({"cmd": "group.table", "group": {"table": [[0, 1], [1, 1]]}}, "group.table: element 1 has no inverse"),
    ({"cmd": "group.restrict", "group": S3, "subgroup": Z2, "embedding": [0, 0]}, "embedding: embedding must be injective on H"),
    (
        {"cmd": "group.good", "group": Z2, "subgroups": [{"group": Z2, "embedding": [1, 0]}]},
        "subgroups[0].embedding: embedding is not a homomorphism",
    ),
    ({"cmd": "wreath.hilbert", "group": Z2, "index": 2}, "index must lie in range(2), got 2"),
    (
        {"cmd": "segre.series", "complex": EDGE, "group": Z2, "action": [[[1, 1], [2, 2]]], "i": 0},
        "action: need one vertex permutation per group element",
    ),
    (
        {"cmd": "segre.product", "x": TRIANGLE, "y": TRIANGLE, "budget": 5},
        "budget: simplex budget 5 exceeded at 33 simplices",
    ),
    (
        {"cmd": "segre.series", "complex": EDGE, "group": Z2, "action": SWAP, "i": 0, "nmax": 3, "budget": 3},
        "nmax: simplex budget 3 exceeded at 6 simplices",
    ),
]


def test_each_rule_is_refused_at_its_path():
    for req, message in RULES:
        assert run(req) == error(message), req


def test_cyclotomic_fields_are_budgeted_before_they_are_built():
    """The table of Q(zeta_5005) took 2.1 s and 598 MB to build, and a
    `root_order` of 10^6 did not answer in 110 s."""
    empty = {"nvars": 0, "order": 5005, "numerator": [], "factors": []}
    field = "a cyclotomic field of order {} and {} row entries exceeds the budget 200000"
    for req, expected in [
        ({"cmd": "genfun.expand", "rational": empty, "degree": 0}, "rational.order: " + field.format(5005, 14414400)),
        (
            {"cmd": "genfun.translate", "rational": dict(empty, order=1), "exponents": [], "root_order": 10**6},
            "root_order: a cyclotomic field of order 1000000 exceeds the budget 200000",
        ),
        (
            {"cmd": "genfun.filter", "rational": empty, "orders": [2], "psi": [], "target": [[0]]},
            "rational.order: " + field.format(5005, 14414400),
        ),
        (
            {"cmd": "genfun.filter", "rational": RATIONAL, "orders": [5005], "psi": [[1]], "target": [[0]]},
            "orders: " + field.format(15015, 86486400),
        ),
    ]:
        start = time.monotonic()
        assert run(req) == error(expected), req
        assert time.monotonic() - start < 1, req
    # Q(zeta_3) has a table of 3 * phi(3) = 6 row entries
    expand = {"cmd": "genfun.expand", "rational": RATIONAL, "degree": 1}
    assert run(dict(expand, budget=5)) == error("rational.order: a cyclotomic field of order 3 and 6 row entries exceeds the budget 5")
    assert run(dict(expand, budget=6))["status"] == "ok"
