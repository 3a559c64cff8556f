"""The k-ary Segre product against the pairwise product and relabel loop it
replaced, and the sparse Segre homology kernel against the dense Fraction
elimination it replaced, both kept here as references.

The pairwise reference emits every pair of equal-dimension simplices, in
every dimension, as a facet, and builds a power by re-closing each
intermediate power with its pair vertices flattened to tuples.

The reference stores boundary maps as dense matrices and runs a separate
Gauss-Jordan routine per job (rank, nullspace, solve, independence modulo
boundaries); equivariant traces rebuild the boundary matrix and solve a full
system per cycle.  Homology bases differ between the two, so the comparison
is on ranks and on basis-independent traces.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilang import segre
from quasilang.cli import execute_request
from quasilang.errors import ValidationError
from quasilang.grouptheory import FiniteGroup
from quasilang.segre import (
    GroupAction,
    SimplicialComplex,
    equivariant_hilbert_data,
    homology_basis,
    homology_ranks,
    segre_product,
)

# ---------------------------------------------------------------------------
# pairwise product reference


def pairwise_segre_product(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    facets = []
    for d in x.simplices:
        if d not in y.simplices:
            continue
        for sx in x.simplices[d]:
            for sy in y.simplices[d]:
                for perm in itertools.permutations(sy):
                    facets.append(tuple(zip(sx, perm)))
    vertices = [(a, b) for a in x.vertices for b in y.vertices]
    return SimplicialComplex(vertices, facets)


def _flatten_pair(v):
    """(tuple, w) -> tuple + (w,), keeping iterated product vertices flat."""
    a, b = v
    if isinstance(a, tuple):
        return a + (b,)
    return (a, b)


def relabeled_power(factors: list[SimplicialComplex]) -> SimplicialComplex:
    """X^1 * ... * X^k with vertices the k-tuples of factor vertices."""
    first = factors[0]
    acc = SimplicialComplex(
        [(v,) for v in first.vertices],
        [tuple((v,) for v in s) for group in first.simplices.values() for s in group],
    )
    for x in factors[1:]:
        prod = pairwise_segre_product(acc, x)
        relabeled = [
            tuple(_flatten_pair(v) for v in s)
            for group in prod.simplices.values()
            for s in group
        ]
        acc = SimplicialComplex([_flatten_pair(v) for v in prod.vertices], relabeled)
    return acc


# ---------------------------------------------------------------------------
# dense reference


def _rank(matrix: list[list[Fraction]]) -> int:
    if not matrix or not matrix[0]:
        return 0
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _nullspace(matrix: list[list[Fraction]], n_cols: int) -> list[list[Fraction]]:
    """Basis of the kernel (as column vectors) by reduced row echelon form."""
    m = [row[:] for row in matrix]
    rows = len(m)
    pivots = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


def _solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j a_j columns[j] = target exactly; None if inconsistent."""
    if not columns:
        return [] if all(v == 0 for v in target) else None
    rows = len(columns[0])
    aug = [[col[r] for col in columns] + [target[r]] for r in range(rows)]
    n = len(columns)
    rank = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(rank, rows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = Fraction(1) / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(rows):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, rows):
        if aug[r][n] != 0:
            return None
    out = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        out[p] = aug[r][n]
    return out


def _select_independent_mod(candidates, base_cols):
    """Greedily keep the candidates that are independent modulo span(base_cols)."""
    elim: list[tuple[int, list[Fraction]]] = []

    def reduce(vec):
        v = list(vec)
        for p, b in elim:
            if v[p] != 0:
                f = v[p] / b[p]
                v = [a - f * c for a, c in zip(v, b)]
        return v

    def insert(vec) -> bool:
        v = reduce(vec)
        p = next((k for k, val in enumerate(v) if val != 0), None)
        if p is None:
            return False
        elim.append((p, v))
        return True

    for col in base_cols:
        insert(col)
    return [z for z in candidates if insert(z)]


def dense_boundary_matrix(x: SimplicialComplex, i: int) -> list[list[Fraction]]:
    """The map C_i -> C_(i-1); rows indexed by (i-1)-simplices."""
    top = x.simplices.get(i, [])
    bottom = x.simplices.get(i - 1, [])
    index = {s: r for r, s in enumerate(bottom)}
    matrix = [[Fraction(0)] * len(top) for _ in bottom]
    for c, s in enumerate(top):
        for k in range(len(s)):
            face = s[:k] + s[k + 1 :]
            if face:
                matrix[index[face]][c] = Fraction((-1) ** k)
    return matrix


def _dense_columns(x: SimplicialComplex, i: int) -> list[list[Fraction]]:
    d = dense_boundary_matrix(x, i)
    if not d or not d[0]:
        return []
    return [[row[c] for row in d] for c in range(len(d[0]))]


class DenseHomology:
    def __init__(self, ranks: dict, cycle_bases: dict):
        self.ranks = ranks
        self.cycle_bases = cycle_bases

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)


def dense_homology_ranks(x: SimplicialComplex, i_max: int) -> DenseHomology:
    ranks = {}
    bases = {}
    for i in range(i_max + 1):
        chains = x.simplices.get(i, [])
        if not chains:
            ranks[i] = 0
            bases[i] = []
            continue
        if i == 0:
            cycles = [
                [Fraction(1) if r == k else Fraction(0) for r in range(len(chains))]
                for k in range(len(chains))
            ]
        else:
            cycles = _nullspace(dense_boundary_matrix(x, i), len(chains))
        d_up = dense_boundary_matrix(x, i + 1)
        boundary_rank = _rank(d_up) if d_up and d_up[0] else 0
        ranks[i] = len(cycles) - boundary_rank
        bases[i] = _select_independent_mod(cycles, _dense_columns(x, i + 1))
        assert len(bases[i]) == ranks[i]
    return DenseHomology(ranks, bases)


def _dense_chain_map(complex_: SimplicialComplex, i: int, vertex_map) -> dict:
    """Signed permutation action on C_i: column simplex -> (row, sign)."""
    simplices = complex_.simplices.get(i, [])
    index = {s: r for r, s in enumerate(simplices)}
    out = {}
    for c, s in enumerate(simplices):
        image = [vertex_map[v] for v in s]
        perm = sorted(range(len(image)), key=lambda k: image[k])
        sign = 1
        # parity of the sort permutation
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        out[c] = (index[tuple(sorted(image))], sign)
    return out


def dense_equivariant_trace(complex_, homology, i, vertex_map) -> Fraction:
    cycles = homology.cycle_bases.get(i, [])
    if homology.rank(i) == 0:
        return Fraction(0)
    n_chains = len(complex_.simplices.get(i, []))
    action = _dense_chain_map(complex_, i, vertex_map)
    columns = [list(z) for z in cycles] + _dense_columns(complex_, i + 1)
    trace = Fraction(0)
    for j, z in enumerate(cycles):
        image = [Fraction(0)] * n_chains
        for c, coeff in enumerate(z):
            if coeff:
                r, sign = action[c]
                image[r] += sign * coeff
        sol = _solve(columns, image)
        if sol is None:
            raise ValidationError("chain image is not a cycle modulo boundaries")
        trace += sol[j]
    return trace


def all_pairs_facets(x: SimplicialComplex) -> list[tuple]:
    all_simps = {s for group in x.simplices.values() for s in group}
    return sorted(s for s in all_simps if not any(s != t and set(s) <= set(t) for t in all_simps))


# ---------------------------------------------------------------------------
# comparisons


@st.composite
def small_complexes(draw) -> SimplicialComplex:
    """At most 5 vertices and 4 facets of at most 3 vertices each."""
    n = draw(st.integers(min_value=1, max_value=5))
    vertices = list(range(1, n + 1))
    facet = st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True)
    return SimplicialComplex(vertices, draw(st.lists(facet, max_size=4)))


def assert_same_homology(x: SimplicialComplex) -> None:
    """In every degree 0..dim+1, the rank-nullity rank, the size of the
    per-degree basis and the dense reference's rank agree."""
    i_max = x.dim + 1
    ranks = homology_ranks(x, i_max)
    assert ranks == dense_homology_ranks(x, i_max).ranks
    assert [len(homology_basis(x, i)[0]) for i in range(i_max + 1)] == list(ranks.values())


def assert_matches_relabeled_power(factors: list[SimplicialComplex]) -> None:
    """Same complex as the reference, and a budget one short of its simplex
    count is refused with that count."""
    expected = relabeled_power(factors)
    assert segre_product(*factors).to_json() == expected.to_json()
    count = expected.simplex_count()
    with pytest.raises(ValidationError, match=f"^simplex budget {count - 1} exceeded at {count} simplices$"):
        segre_product(*factors, budget=count - 1)


@given(small_complexes(), st.lists(small_complexes(), max_size=2))
@settings(max_examples=40, deadline=None)
def test_k_ary_product_matches_pairwise_reference(x, others):
    """k = 1, 2 and 3 factors, and the powers X^(*n) for n = 1, 2, 3."""
    assert_matches_relabeled_power([x, *others])
    for n in (1, 2, 3):
        assert_matches_relabeled_power([x] * n)


@given(small_complexes(), small_complexes(), small_complexes())
@settings(max_examples=40, deadline=None)
def test_product_with_tuple_vertices_matches_pairwise_reference(x, y, z):
    """A first factor with tuple vertices keeps them unflattened."""
    square = segre_product(x, y)
    assert square.to_json() == pairwise_segre_product(x, y).to_json()
    expected = pairwise_segre_product(pairwise_segre_product(x, y), z)
    assert segre_product(square, z).to_json() == expected.to_json()


@given(small_complexes())
@settings(max_examples=40, deadline=None)
def test_homology_ranks_match_dense_reference(x):
    assert_same_homology(x)
    assert_same_homology(segre_product(x, x))


@given(small_complexes())
@settings(max_examples=20, deadline=None)
def test_homology_request_builds_each_boundary_map_once(x):
    """One `segre.homology` request, of the complex or of its square, builds
    d_0 .. d_(dim+1) once each, whatever `i_max` asks for."""
    for complex_ in (x, segre_product(x, x)):
        for extra in ({}, {"i_max": 0}, {"i_max": complex_.dim + 5}):
            req = {"cmd": "segre.homology", "complex": complex_.to_json(), **extra}
            with mock.patch.object(segre, "boundary_matrix", wraps=segre.boundary_matrix) as spy:
                assert execute_request(req)["status"] == "ok"
            assert spy.call_count == complex_.dim + 2


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_facets_match_all_pairs_rule(x):
    assert x.facets() == all_pairs_facets(x)
    square = segre_product(x, x)
    assert square.facets() == all_pairs_facets(square)


@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3, unique=True), max_size=3),
    st.integers(min_value=0, max_value=1),
)
@settings(max_examples=25, deadline=None)
def test_equivariant_hilbert_data_matches_dense_reference(m, seeds, i):
    """Z/m rotating the vertices 1..m of a rotation-invariant complex."""

    def rotate(v, g):
        return (v - 1 + g) % m + 1

    facets = {
        tuple(sorted({rotate(v, g) for v in f}))
        for f in seeds
        for g in range(m)
    }
    base = segre_product(SimplicialComplex(range(1, m + 1), facets))
    maps = [{(v,): (rotate(v, g),) for v in range(1, m + 1)} for g in range(m)]
    action = GroupAction(FiniteGroup.cyclic(m), base, maps)
    sparse = equivariant_hilbert_data(action, i, 2)
    # the dense reference computes degrees 0..i, and its trace reads degree i
    with mock.patch.object(segre, "homology_basis", dense_homology_ranks), mock.patch.object(
        segre, "equivariant_trace", dense_equivariant_trace
    ):
        dense = equivariant_hilbert_data(action, i, 2)
    assert sparse == dense


def test_traces_match_dense_reference_on_every_rotation():
    """Trace by trace, not only through the multiplicities."""
    circle = SimplicialComplex([1, 2, 3], [[1, 2], [2, 3], [1, 3]])
    power = segre_product(circle, circle)
    dense = dense_homology_ranks(power, 1)
    for i in (0, 1):
        sparse = homology_basis(power, i)
        for g, h in itertools.product(range(3), repeat=2):
            vmap = {v: ((v[0] - 1 + g) % 3 + 1, (v[1] - 1 + h) % 3 + 1) for v in power.vertices}
            assert segre.equivariant_trace(power, sparse, i, vmap) == dense_equivariant_trace(
                power, dense, i, vmap
            )
