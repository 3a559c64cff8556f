"""Segre products of simplicial complexes, rational homology, and the
character data of product-group actions on iterated powers.

A subset S of X_0 x Y_0 is a simplex of the Segre product exactly when both
projections are simplices of the same cardinality as S.  Homology is over Q
by rank-nullity: the boundary maps d_0 .. d_(dim+1) are built once, checked
to square to zero and each reduced once by one sparse exact elimination, and
rank H_i = |C_i| - rank d_i - rank d_(i+1).  Equivariant traces need a basis
of one degree only: its cycles and the boundaries go into an echelon form
whose rows remember the basis cycles they came from, and the image of each
basis cycle under a group element reduces against that form.  The character
table of G^n is `grouptheory.product_table` folded over the table of G, and
each multiplicity in H_i(X^(*n)) is `grouptheory.multiplicity` of one of its
rows against the traces.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .errors import Payload, ValidationError
from .grouptheory import FiniteGroup, character_table, multiplicity, product_table

DEFAULT_SIMPLEX_BUDGET = 200_000


class SimplicialComplex:
    """Finite abstract simplicial complex; simplices stored by dimension as
    sorted vertex tuples (vertices must be sortable, and facets list only them)."""

    def __init__(self, vertices, facets):
        self.vertices = tuple(sorted(set(vertices)))
        simplices: set[tuple] = set()
        for facet in facets:
            fs = tuple(sorted(set(facet)))
            for k in range(1, len(fs) + 1):
                simplices.update(itertools.combinations(fs, k))
        for v in self.vertices:
            simplices.add((v,))
        by_dim: dict[int, list] = {}
        for s in simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.simplices = {d: sorted(by_dim[d]) for d in sorted(by_dim)}

    @property
    def dim(self) -> int:
        return max(self.simplices) if self.simplices else -1

    def simplex_count(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def facets(self) -> list[tuple]:
        """Simplices that are no face of another.  The complex is closed under
        faces, so it is enough to look one dimension up."""
        out = []
        for d, group in self.simplices.items():
            up = self.simplices.get(d + 1, ())
            covered = {t[:k] + t[k + 1 :] for t in up for k in range(len(t))}
            out.extend(s for s in group if s not in covered)
        return sorted(out)

    def to_json(self) -> dict:
        return {
            "vertices": [list(v) if isinstance(v, tuple) else v for v in self.vertices],
            "facets": [
                [list(x) if isinstance(x, tuple) else x for x in f] for f in self.facets()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "SimplicialComplex":
        """Vertices are strings, ints or lists of vertices (tuple vertices, as
        a Segre product has), mutually comparable; facets list vertices."""
        p = Payload.of(data, "complex")
        vertices = p["vertices"].symbols()
        try:
            vset = set(sorted(vertices))
        except TypeError:
            raise p["vertices"].error("vertices must be mutually comparable") from None
        facets = p["facets"].symbols()
        if not set(map(type, facets)) <= {tuple} or not vset.issuperset(itertools.chain.from_iterable(facets)):
            i = next(i for i, f in enumerate(facets) if type(f) is not tuple or not vset.issuperset(f))
            entries = p["facets"].list()[i].list()
            raise next(e for e in entries if e.symbol() not in vset).expected("a vertex of the complex")
        return cls(vertices, facets)


def segre_product(*factors: SimplicialComplex, budget: int = DEFAULT_SIMPLEX_BUDGET) -> SimplicialComplex:
    """The Segre product of k >= 1 complexes, X^(*n) being n copies of X.

    Vertices are the tuples (v_1, ..., v_k) of factor vertices, and a set S
    of them is a simplex when every projection is a simplex of the same
    cardinality as S.  S extends exactly when every projection extends, so
    the facets are zip(s_1, p_2 s_2, ..., p_k s_k) over equal-dimension
    simplices s_i, at least one of them a facet of its factor, and orderings
    p_i.  There are prod_i |X^i_d| * ((d+1)!)^(k-1) simplices of dimension
    d; their total is checked against the budget before anything is built."""
    if not factors:
        raise ValidationError("a Segre product needs at least one factor")
    dims = set.intersection(*[set(f.simplices) for f in factors])
    count = sum(
        math.prod(len(f.simplices[d]) for f in factors) * math.factorial(d + 1) ** (len(factors) - 1)
        for d in dims
    )
    if count > budget:
        raise ValidationError(f"simplex budget {budget} exceeded at {count} simplices")
    tops = [set(f.facets()) for f in factors]
    facets = []
    for d in dims:
        for simplices in itertools.product(*[f.simplices[d] for f in factors]):
            if any(map(operator.contains, tops, simplices)):
                first, *rest = simplices
                # product makes a tuple of each argument: from a list, at its exact size
                for perms in itertools.product(*[list(itertools.permutations(s)) for s in rest]):
                    facets.append(zip(first, *perms))
    return SimplicialComplex(itertools.product(*[f.vertices for f in factors]), facets)


# ---------------------------------------------------------------------------
# sparse exact elimination over Q
#
# A vector is a dict from index to nonzero value.  Entries stay ints while
# every pivot is +-1 and become Fractions only where a pivot is not.


def _axpy(target: dict, c, source: dict) -> None:
    """target += c * source, dropping the entries that cancel (c != 0)."""
    for k, v in source.items():
        value = target.get(k, 0) + c * v
        if value:
            target[k] = value
        else:
            del target[k]


class _Echelon:
    """Rows in echelon form, each keyed by its largest index, where it is 1.

    A vector inserted with tags {t: 1} is the tagged input u_t; one inserted
    with {} is untagged.  Each row is a combination of inputs and carries the
    coefficients of the tagged ones, so whatever reduces to zero is written
    in the tagged inputs modulo the untagged ones."""

    def __init__(self):
        self.rows: dict[int, tuple[dict, dict]] = {}

    def reduce(self, vec: dict, tags: dict) -> tuple[dict, dict]:
        """Subtract rows until the largest index of vec has none.  Returns
        (r, c) with r = vec + sum_t (c[t] - tags[t]) u_t modulo untagged inputs."""
        vec, tags = dict(vec), dict(tags)
        while vec:
            p = max(vec)
            row = self.rows.get(p)
            if row is None:
                break
            c = -vec[p]
            _axpy(vec, c, row[0])
            _axpy(tags, c, row[1])
        return vec, tags

    def insert(self, vec: dict, tags: dict) -> dict | None:
        """Reduce vec; if anything is left, store it as a row and return None.
        Otherwise return the tags c it reduced to: sum_t c[t] u_t = 0 modulo
        untagged inputs, with vec counted as sum_t tags[t] u_t."""
        vec, tags = self.reduce(vec, tags)
        if not vec:
            return tags
        p = max(vec)
        lead = vec[p]
        if lead != 1:
            inv = -1 if lead == -1 else 1 / Fraction(lead)
            vec = {k: v * inv for k, v in vec.items()}
            tags = {k: v * inv for k, v in tags.items()}
        self.rows[p] = (vec, tags)
        return None


# ---------------------------------------------------------------------------
# homology


def boundary_matrix(x: SimplicialComplex, i: int) -> list[dict]:
    """The map C_i -> C_(i-1) as sparse columns, one per i-simplex: the row
    index of each (i-1)-face -> its sign."""
    top = x.simplices.get(i, [])
    if i == 0:
        return [{} for _ in top]
    index = {s: r for r, s in enumerate(x.simplices.get(i - 1, []))}
    return [{index[s[:k] + s[k + 1 :]]: (-1) ** k for k in range(len(s))} for s in top]


def check_boundary_squares_to_zero(x: SimplicialComplex) -> list[list[dict]]:
    """The boundary maps d_0 .. d_(dim+1) of x, each built once, after
    checking that d_i d_(i+1) = 0 for i >= 1."""
    maps = [boundary_matrix(x, i) for i in range(x.dim + 2)]
    for lower, upper in zip(maps[1:], maps[2:]):
        for col in upper:
            out: dict = {}
            for r, c in col.items():
                _axpy(out, c, lower[r])
            if out:
                raise ValidationError("boundary composed with boundary is nonzero")
    return maps


def homology_ranks(x: SimplicialComplex, i_max: int) -> dict[int, int]:
    """Ranks of rational simplicial homology in degrees 0..i_max, by
    rank-nullity: rank H_i = |C_i| - rank d_i - rank d_(i+1), with each
    boundary map reduced once.  Degrees past dim have no chains and rank 0,
    and no map is built for them."""
    ranks = []
    for d in check_boundary_squares_to_zero(x):
        form = _Echelon()
        ranks.append(sum(form.insert(col, {}) is None for col in d))
    return {i: len(x.simplices[i]) - ranks[i] - ranks[i + 1] if i <= x.dim else 0 for i in range(i_max + 1)}


def homology_basis(x: SimplicialComplex, i: int) -> tuple[list[dict], _Echelon]:
    """A basis of H_i: cycles (sparse over the i-simplices) independent
    modulo boundaries, and the echelon form of the boundaries and that basis,
    whose row tags are positions in the basis.  Every boundary map of x is
    checked first, also when i is past dim and the basis is empty."""
    maps = check_boundary_squares_to_zero(x)
    if i > x.dim:
        return [], _Echelon()
    kernel = _Echelon()
    cycles = [kernel.insert(col, {j: 1}) for j, col in enumerate(maps[i])]
    cycles = [z for z in cycles if z is not None]
    form = _Echelon()
    boundary_rank = sum(form.insert(col, {}) is None for col in maps[i + 1])
    basis = []
    for z in cycles:
        if form.insert(z, {len(basis): 1}) is None:
            basis.append(z)
    if len(basis) != len(cycles) - boundary_rank:
        raise AssertionError("homology basis selection disagrees with the rank")
    return basis, form


# ---------------------------------------------------------------------------
# group actions and equivariant character data


class GroupAction:
    """An action of a group on a complex by vertex permutations, one
    permutation per element index.  The action refers to the group, to its
    `character_table` (which the group owns) and to the complex; none of
    them refers back to the action."""

    def __init__(self, group: FiniteGroup, complex_: SimplicialComplex, vertex_maps):
        self.group = group
        self.table = character_table(group)
        self.complex = complex_
        self.vertex_maps = [dict(m) for m in vertex_maps]
        if len(self.vertex_maps) != group.order:
            raise ValidationError("need one vertex permutation per group element")
        for g in range(group.order):
            m = self.vertex_maps[g]
            if sorted(m) != list(complex_.vertices) or sorted(m.values()) != list(
                complex_.vertices
            ):
                raise ValidationError(f"element {g} does not permute the vertices")
        for a in range(group.order):
            for b in range(group.order):
                c = group.table[a][b]
                for v in complex_.vertices:
                    if self.vertex_maps[c][v] != self.vertex_maps[a][self.vertex_maps[b][v]]:
                        raise ValidationError("vertex maps are not a group action")
        for d, simplices in complex_.simplices.items():
            simplex_set = set(simplices)
            for g in range(group.order):
                m = self.vertex_maps[g]
                for s in simplices:
                    if tuple(sorted(m[v] for v in s)) not in simplex_set:
                        raise ValidationError("the action does not preserve simplices")


def _signed_image(s: tuple, vertex_map) -> tuple[tuple, int]:
    """The image of an oriented simplex: its sorted vertices and the sign of
    the sorting permutation."""
    image = [vertex_map[v] for v in s]
    inversions = sum(a > b for a, b in itertools.combinations(image, 2))
    return tuple(sorted(image)), -1 if inversions % 2 else 1


def equivariant_trace(
    complex_: SimplicialComplex,
    homology: tuple[list[dict], _Echelon],
    i: int,
    vertex_map,
) -> Fraction:
    """Trace of the induced map on H_i, given the `homology_basis` of degree
    i: each g.z_j reduces to zero against its echelon form, and the tracked
    combination gives its coordinate."""
    basis, form = homology
    if not basis:
        return Fraction(0)
    simplices = complex_.simplices[i]
    index = {s: r for r, s in enumerate(simplices)}
    images = {c: _signed_image(simplices[c], vertex_map) for c in set().union(*basis)}
    trace = 0
    for j, z in enumerate(basis):
        image = {}
        for c, coeff in z.items():
            target, sign = images[c]
            image[index[target]] = sign * coeff
        rest, combo = form.reduce(image, {})
        if rest:
            raise ValidationError("chain image is not a cycle modulo boundaries")
        # g.z_j + sum_k combo[k] z_k is a boundary
        trace -= combo.get(j, 0)
    return Fraction(trace)


def equivariant_hilbert_data(
    action: GroupAction,
    i: int,
    n_max: int,
    budget: int = DEFAULT_SIMPLEX_BUDGET,
) -> list[dict]:
    """For each n <= n_max, the character of G^n on H_i(X^(*n)) pushed to the
    monomial image: a dict exponent-vector (over irr(G)) -> multiplicity.

    The table of G^n folds `product_table` n - 1 times, so its rows and
    classes run in `itertools.product` order over those of G, and each trace
    is read at a tuple of class representatives.  A row's multiplicity is
    `multiplicity` with the row first: the traces are rational, so the
    conjugated side is the cheap one.  The table has |G|^(2n) entries, so it
    is folded only once X^(*n) has passed the budget and a trace is nonzero;
    a zero H_i, all of whose traces are zero, gives {} without it."""
    table, x = action.table, action.complex
    reps = table.representatives()
    n_irr = len(table.rows)
    power_table, folded = table, 1
    results = []
    for n in range(1, n_max + 1):
        power = segre_product(*[x] * n, budget=budget)
        homology = homology_basis(power, i)
        traces = []
        for combo in itertools.product(reps, repeat=n):
            maps = [action.vertex_maps[g] for g in combo]
            vmap = {v: tuple([m[w] for m, w in zip(maps, v)]) for v in power.vertices}
            traces.append(CyclotomicNumber.from_rational(equivariant_trace(power, homology, i, vmap)))
        poly: dict = {}
        results.append(poly)
        if not any(traces):
            continue
        while folded < n:
            power_table, folded = product_table(power_table, table), folded + 1
        for js, row in zip(itertools.product(range(n_irr), repeat=n), power_table.rows):
            q = multiplicity(power_table.class_sizes, row, traces, "equivariant multiplicity")
            if q:
                key = tuple([js.count(j) for j in range(n_irr)])
                poly[key] = poly.get(key, 0) + q
    return results
