import itertools
import time
from fractions import Fraction

import pytest

from quasilang.cli import execute_request
from quasilang.cyclotomic import CyclotomicNumber
from quasilang.errors import ValidationError
from quasilang.grouptheory import FiniteGroup
from quasilang.segre import (
    GroupAction,
    SimplicialComplex,
    boundary_matrix,
    check_boundary_squares_to_zero,
    equivariant_hilbert_data,
    equivariant_trace,
    homology_basis,
    homology_ranks,
    segre_product,
)


def edge() -> SimplicialComplex:
    return SimplicialComplex([1, 2], [[1, 2]])


def triangle_boundary() -> SimplicialComplex:
    return SimplicialComplex([1, 2, 3], [[1, 2], [2, 3], [1, 3]])


def test_closure_and_counts():
    filled = SimplicialComplex([1, 2, 3], [[1, 2, 3]])
    assert len(filled.simplices[0]) == 3
    assert len(filled.simplices[1]) == 3
    assert len(filled.simplices[2]) == 1
    assert filled.facets() == [(1, 2, 3)]


def test_segre_of_two_edges():
    prod = segre_product(edge(), edge())
    assert len(prod.vertices) == 4
    edges = prod.simplices.get(1, [])
    assert sorted(edges) == [((1, 1), (2, 2)), ((1, 2), (2, 1))]


def test_segre_with_point_is_zero_skeleton():
    point = SimplicialComplex([0], [[0]])
    prod = segre_product(edge(), point)
    assert len(prod.vertices) == 2
    assert 1 not in prod.simplices or not prod.simplices[1]


def test_segre_vertex_count():
    x = triangle_boundary()
    prod = segre_product(x, edge())
    assert len(prod.vertices) == 6
    with pytest.raises(ValidationError, match="at least one factor"):
        segre_product()


def test_boundary_squares_to_zero():
    for complex_ in [
        triangle_boundary(),
        SimplicialComplex([1, 2, 3, 4], [[1, 2, 3], [2, 3, 4]]),
        segre_product(*[edge()] * 3),
    ]:
        check_boundary_squares_to_zero(complex_)


def test_homology_circle():
    assert homology_ranks(triangle_boundary(), 1) == {0: 1, 1: 1}


def test_homology_two_disjoint_edges():
    x = SimplicialComplex([1, 2, 3, 4], [[1, 2], [3, 4]])
    assert homology_ranks(x, 1) == {0: 2, 1: 0}


def test_homology_filled_triangle():
    filled = SimplicialComplex([1, 2, 3], [[1, 2, 3]])
    assert homology_ranks(filled, 2) == {0: 1, 1: 0, 2: 0}


def test_edge_powers_components():
    for n in range(1, 5):
        power = segre_product(*[edge()] * n)
        assert homology_ranks(power, 0) == {0: 2 ** (n - 1)}


def union_find_components(x: SimplicialComplex) -> int:
    parent = {v: v for v in x.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in x.simplices.get(1, []):
        for a, b in itertools.combinations(e, 2):
            parent[find(a)] = find(b)
    return len({find(v) for v in x.vertices})


def test_h0_equals_component_count():
    for complex_ in [
        edge(),
        triangle_boundary(),
        segre_product(*[edge()] * 3),
        SimplicialComplex([1, 2, 3, 4, 5], [[1, 2], [3, 4], [5]]),
    ]:
        assert homology_ranks(complex_, 0) == {0: union_find_components(complex_)}


def z2_swap_action():
    g = FiniteGroup.cyclic(2)
    base = segre_product(edge())  # vertices (1,), (2,)
    maps = [
        {(1,): (1,), (2,): (2,)},
        {(1,): (2,), (2,): (1,)},
    ]
    return GroupAction(g, base, maps)


def test_group_action_validation():
    g = FiniteGroup.cyclic(2)
    base = segre_product(edge())
    with pytest.raises(ValidationError):
        GroupAction(g, base, [{(1,): (1,), (2,): (2,)}, {(1,): (1,), (2,): (1,)}])


def test_equivariant_traces_edge_square():
    action = z2_swap_action()
    power = segre_product(edge(), edge())
    hom = homology_basis(power, 0)
    # identity trace = rank, full swap preserves both components
    ident = {v: v for v in power.vertices}
    assert equivariant_trace(power, hom, 0, ident) == 2
    swap_both = {v: (3 - v[0], 3 - v[1]) for v in power.vertices}
    assert equivariant_trace(power, hom, 0, swap_both) == 2
    swap_first = {v: (3 - v[0], v[1]) for v in power.vertices}
    assert equivariant_trace(power, hom, 0, swap_first) == 0


def test_equivariant_hilbert_data_edge():
    action = z2_swap_action()
    data = equivariant_hilbert_data(action, 0, 2)
    assert data[0] == {(1, 0): 1}
    assert data[1] == {(2, 0): 1, (0, 2): 1}


def test_equivariant_identity_trace_is_rank():
    action = z2_swap_action()
    data = equivariant_hilbert_data(action, 0, 3)
    for n, poly in enumerate(data, start=1):
        total = 0
        for content, mult in poly.items():
            total += mult  # all irreducibles of an abelian group are linear
        assert total == 2 ** (n - 1)


def z4_rotating_square():
    """Z/4 has characters with values +-i, so conjugation is not the identity."""
    square = segre_product(SimplicialComplex([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4], [1, 4]]))
    maps = [{(v,): ((v - 1 + g) % 4 + 1,) for v in range(1, 5)} for g in range(4)]
    return GroupAction(FiniteGroup.cyclic(4), square, maps)


def s3_permuting_triangle():
    """S3 has classes of sizes 1, 2 and 3, so class weights matter."""
    g = FiniteGroup.symmetric(3)
    circle = segre_product(triangle_boundary())
    maps = [{(v,): (p[v - 1] + 1,) for v in range(1, 4)} for p in g.labels]
    return GroupAction(g, circle, maps)


def direct_multiplicities(action, i, n):
    """<trace, chi_j1 x ... x chi_jn> as a sum over every element of G^n,
    with chi(g^-1) in place of the conjugate of chi(g)."""
    table, group = action.table, action.group
    power = segre_product(*[action.complex] * n)
    hom = homology_basis(power, i)
    traces = {}
    for gs in itertools.product(range(group.order), repeat=n):
        vmap = {
            v: tuple(action.vertex_maps[g][v[k]] for k, g in enumerate(gs)) for v in power.vertices
        }
        traces[gs] = equivariant_trace(power, hom, i, vmap)
    poly = {}
    for js in itertools.product(range(len(table.rows)), repeat=n):
        total = CyclotomicNumber.zero()
        for gs, tr in traces.items():
            val = CyclotomicNumber.from_rational(tr)
            for j, g in zip(js, gs):
                val = val * table.value(j, group.inverse[g])
            total = total + val
        q = (total * Fraction(1, group.order**n)).rational_value()
        if q:
            content = tuple(js.count(j) for j in range(len(table.rows)))
            poly[content] = poly.get(content, 0) + q
    return poly


@pytest.mark.parametrize("make_action", [z4_rotating_square, s3_permuting_triangle])
@pytest.mark.parametrize("i", [0, 1])
def test_equivariant_hilbert_data_matches_element_sum(make_action, i):
    action = make_action()
    data = equivariant_hilbert_data(action, i, 3)
    assert data == [direct_multiplicities(action, i, n) for n in (1, 2, 3)]
    assert any(data)


def test_json_round_trip():
    x = triangle_boundary()
    blob = x.to_json()
    y = SimplicialComplex.from_json(blob)
    assert y.simplices == x.simplices


def test_circle_fourth_power_homology_within_bound():
    """circle^{*4} is a graph on 81 vertices with 648 edges."""
    start = time.monotonic()
    data = homology_ranks(segre_product(*[triangle_boundary()] * 4), 1)
    elapsed = time.monotonic() - start
    assert data == {0: 1, 1: 568}
    assert elapsed < 10, f"took {elapsed:.1f} s"


def test_circle_rotation_series_to_cube_within_bound():
    """H_1 of circle^{*n} under (Z/3)^n for n <= 3: Z/3 has only linear
    characters, so each row's multiplicities sum to rank H_1."""
    req = {
        "cmd": "segre.series",
        "complex": {"vertices": [1, 2, 3], "facets": [[1, 2], [2, 3], [1, 3]]},
        "group": {"construct": "cyclic", "n": 3},
        "action": [
            [[1, 1], [2, 2], [3, 3]],
            [[1, 2], [2, 3], [3, 1]],
            [[1, 3], [2, 1], [3, 2]],
        ],
        "i": 1,
        "nmax": 3,
    }
    start = time.monotonic()
    resp = execute_request(req)
    elapsed = time.monotonic() - start
    assert resp["status"] == "ok"
    assert [sum(mult for _, mult in row) for row in resp["result"]] == [1, 10, 82]
    assert elapsed < 10, f"took {elapsed:.1f} s"


def test_series_budget_refuses_a_power_before_building_it():
    """The cube of the 6-vertex 2-skeleton has 301,716 simplices, over the
    default budget; its square has 2,886."""
    req = {
        "cmd": "segre.series",
        "complex": {"vertices": list(range(1, 7)), "facets": [list(f) for f in itertools.combinations(range(1, 7), 3)]},
        "group": {"construct": "cyclic", "n": 1},
        "action": [[[v, v] for v in range(1, 7)]],
        "i": 1,
        "nmax": 3,
    }
    start = time.monotonic()
    resp = execute_request(req)
    elapsed = time.monotonic() - start
    assert resp == {
        "status": "error",
        "diagnostics": ["ValidationError: nmax: simplex budget 200000 exceeded at 301716 simplices"],
    }
    assert elapsed < 1, f"took {elapsed:.1f} s"
    assert execute_request(dict(req, nmax=2))["status"] == "ok"


def test_series_builds_no_power_table_it_does_not_need():
    """The table of (Z/100)^2 has 10^8 entries.  A zero H_1 (Z/100 fixing a
    point) needs none of it, and a square past the budget (Z/100 fixing 11
    isolated points, budget 100) is refused before it is built."""
    group = {"construct": "cyclic", "n": 100}
    point = {
        "cmd": "segre.series",
        "complex": {"vertices": [1], "facets": [[1]]},
        "group": group,
        "action": [[[1, 1]]] * 100,
        "i": 1,
        "nmax": 2,
    }
    points = {
        "cmd": "segre.series",
        "complex": {"vertices": list(range(11)), "facets": []},
        "group": group,
        "action": [[[v, v] for v in range(11)]] * 100,
        "i": 0,
        "nmax": 2,
        "budget": 100,
    }
    start = time.monotonic()
    assert execute_request(point) == {"status": "ok", "result": [[], []]}
    assert execute_request(points) == {
        "status": "error",
        "diagnostics": ["ValidationError: nmax: simplex budget 100 exceeded at 121 simplices"],
    }
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"took {elapsed:.1f} s"


def test_projective_plane_needs_a_non_unit_pivot():
    """The 6-vertex RP^2 has rational homology of a point; its boundary
    elimination meets a pivot that is not +-1, so entries become Fractions."""
    rp2 = SimplicialComplex(
        range(1, 7),
        [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
         [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]],
    )
    assert homology_ranks(rp2, 2) == {0: 1, 1: 0, 2: 0}
    forms = [homology_basis(rp2, i)[1] for i in range(3)]
    entries = [v for form in forms for vec, tags in form.rows.values() for v in [*vec.values(), *tags.values()]]
    assert any(isinstance(v, Fraction) for v in entries)


def test_unit_pivots_keep_integer_entries():
    square = segre_product(triangle_boundary(), triangle_boundary())
    bases, forms = zip(*(homology_basis(square, i) for i in range(2)))
    entries = [v for form in forms for vec, tags in form.rows.values() for v in [*vec.values(), *tags.values()]]
    entries += [v for basis in bases for z in basis for v in z.values()]
    assert entries and all(type(v) is int for v in entries)


def test_boundary_matrix_is_sparse_columns():
    filled = SimplicialComplex([1, 2, 3], [[1, 2, 3]])
    assert boundary_matrix(filled, 0) == [{}, {}, {}]
    # edges (1,2), (1,3), (2,3) over vertices 1, 2, 3
    assert boundary_matrix(filled, 1) == [{1: 1, 0: -1}, {2: 1, 0: -1}, {2: 1, 1: -1}]
    assert boundary_matrix(filled, 2) == [{2: 1, 1: -1, 0: 1}]
    assert boundary_matrix(filled, 3) == []
