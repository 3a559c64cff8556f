"""Reference code for the group-theory kernels, kept here to compare them
against.

`restriction_matrix` used to sum over every element of the subgroup; it now
reads each character at one element per conjugacy class, weighted by the
class size.  Cyclic groups used to have a table of their own (rows
zeta_n^(jk)); they now go through the abelian construction.  The good-family
test used to build, for each subgroup H, the commutator subgroup, the
quotient group H/[H,H] and that quotient's linear characters, and multiplied
the restriction matrix by the resulting abelianization matrix; it now keeps
the columns of the restriction matrix at the degree-1 rows of H's table.
The element sums, `subgroup_closure`, `commutator_subgroup`, `quotient` and
`abelianization_matrix` below are the removed code, written out.

`FiniteGroup.symmetric` used to compose every pair of permutations, and
`validate_embedding` used to test every pair of elements of the subgroup;
both now work along generators.  The old code is in `oracles.py`.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from quasilang.cli import _table_to_json
from quasilang.cyclotomic import CyclotomicNumber
from quasilang.errors import ValidationError
from quasilang.grouptheory import (
    CharacterTable,
    FiniteGroup,
    abelian_characters,
    character_table,
    is_good_family,
    multiplicity,
    restriction_matrix,
    smith_normal_form,
    validate_embedding,
    young_subgroups,
)

from oracles import elementwise_symmetric_table, is_homomorphism_on_all_pairs

# ---------------------------------------------------------------------------
# element-sum reference


def _as_nonneg_int(q: Fraction) -> int:
    assert q.denominator == 1 and q >= 0, q
    return int(q)


def reference_restriction_matrix(G: FiniteGroup, H: FiniteGroup, emb) -> list[list[int]]:
    tG, tH = character_table(G), character_table(H)
    out = []
    for i in range(len(tG.rows)):
        row = []
        for j in range(len(tH.rows)):
            total = CyclotomicNumber.zero()
            for h in range(H.order):
                total = total + tG.value(i, emb[h]) * tH.value(j, H.inverse[h])
            row.append(_as_nonneg_int((total * Fraction(1, H.order)).rational_value()))
        out.append(row)
    return out


def subgroup_closure(G: FiniteGroup, generators) -> tuple[int, ...]:
    seen = {G.identity} | set(generators)
    queue = list(seen)
    while queue:
        g = queue.pop()
        for h in list(seen):
            for x in (G.table[g][h], G.table[h][g]):
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
    return tuple(sorted(seen))


def commutator_subgroup(G: FiniteGroup) -> tuple[int, ...]:
    comms = {
        G.table[G.table[g][h]][G.table[G.inverse[g]][G.inverse[h]]]
        for g in range(G.order)
        for h in range(G.order)
    }
    return subgroup_closure(G, comms)


def quotient(G: FiniteGroup, normal: tuple[int, ...]):
    """The quotient by a normal subgroup; returns (group, projection)."""
    nset = set(normal)
    for g in range(G.order):
        for h in nset:
            if G.table[G.table[g][h]][G.inverse[g]] not in nset:
                raise ValidationError("subgroup is not normal")
    cosets: list[tuple[int, ...]] = []
    proj = [None] * G.order
    for g in range(G.order):
        if proj[g] is not None:
            continue
        coset = tuple(sorted(G.table[g][h] for h in nset))
        idx = len(cosets)
        cosets.append(coset)
        for x in coset:
            proj[x] = idx
    table = [[proj[G.table[c1[0]][c2[0]]] for c2 in cosets] for c1 in cosets]
    q = FiniteGroup(table, labels=tuple(c[0] for c in cosets), name=f"{G.name}/N")
    return q, tuple(proj)


def reference_abelianization_matrix(H: FiniteGroup):
    """Multiplicities <chi_V, lambda o pi>_H for the linear characters lambda
    of H/[H,H]; returns (matrix, exponent of the abelianization)."""
    q, proj = quotient(H, commutator_subgroup(H))
    chars, M = abelian_characters(q)
    tH = character_table(H)
    out = []
    for i in range(len(tH.rows)):
        row = []
        for chi in chars:
            total = CyclotomicNumber.zero()
            for h in range(H.order):
                total = total + tH.value(i, h) * CyclotomicNumber.root(M, -chi[proj[h]])
            row.append(_as_nonneg_int((total * Fraction(1, H.order)).rational_value()))
        out.append(row)
    return out, M


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def reference_cyclic_table(n: int) -> CharacterTable:
    rows = [[CyclotomicNumber.root(n, j * k) for k in range(n)] for j in range(n)]
    return CharacterTable(
        order=n,
        class_sizes=[1] * n,
        rows=rows,
        identity_class=0,
        row_names=tuple(range(n)),
        class_names=tuple(range(n)),
        element_class=tuple(range(n)),
    )


# ---------------------------------------------------------------------------
# subgroup families


def _young_cases():
    for n in (3, 4, 5):
        G = FiniteGroup.symmetric(n)
        for lam, H, emb in young_subgroups(n, G):
            yield pytest.param(G, H, emb, id=f"S{n}>{lam}")


def _cyclic_cases():
    N = 12
    G = FiniteGroup.cyclic(N)
    for d in (1, 2, 3, 4, 6, 12):
        yield pytest.param(G, FiniteGroup.cyclic(d), tuple(k * (N // d) for k in range(d)), id=f"Z{N}>Z{d}")


def _product_cases():
    s3, z2 = FiniteGroup.symmetric(3), FiniteGroup.cyclic(2)
    G = FiniteGroup.direct_product(s3, z2)  # element (a, b) has index 2a + b
    yield pytest.param(G, s3, tuple(2 * a for a in range(6)), id="S3xZ2>S3")
    yield pytest.param(G, z2, (0, 1), id="S3xZ2>Z2")
    yield pytest.param(G, G, tuple(range(12)), id="S3xZ2>S3xZ2")
    # the diagonal Z/2 of Z/2 x Z/2
    v4 = FiniteGroup.direct_product(z2, FiniteGroup.cyclic(2))
    yield pytest.param(v4, z2, (0, 3), id="V4>diag")
    # S_4 to the rotations of a square, a subgroup with non-real characters
    s4 = FiniteGroup.symmetric(4)
    index = {p: i for i, p in enumerate(s4.labels)}
    powers = [(0, 1, 2, 3)]
    for _ in range(3):
        powers.append(tuple((x + 1) % 4 for x in powers[-1]))
    yield pytest.param(s4, FiniteGroup.cyclic(4), tuple(index[p] for p in powers), id="S4>Z4")


CASES = [*_young_cases(), *_cyclic_cases(), *_product_cases()]


@pytest.mark.parametrize("G,H,emb", CASES)
def test_restriction_matrix_matches_element_sum(G, H, emb):
    assert restriction_matrix(G, H, emb) == reference_restriction_matrix(G, H, emb)


@pytest.mark.parametrize("G,H,emb", CASES)
def test_abelianization_matrix_matches_element_sum(G, H, emb):
    """The abelianization matrix is a selection: its columns are the unit
    vectors at the degree-1 rows of H's table, one each."""
    mat, _ = reference_abelianization_matrix(H)
    dims = character_table(H).dims()
    linear = [[int(i == j) for i in range(len(dims))] for j, d in enumerate(dims) if d == 1]
    assert sorted(map(list, zip(*mat))) == sorted(linear)


@pytest.mark.parametrize("covering_only", [False, True])
@pytest.mark.parametrize("G,H,emb", CASES)
def test_good_family_matches_quotient_pipeline(G, H, emb, covering_only):
    R = reference_restriction_matrix(G, H, emb)
    if covering_only:
        block, exponent = R, 1
    else:
        Aab, exponent = reference_abelianization_matrix(H)
        block = _matmul(R, Aab)
    divisors = [d for d in smith_normal_form(block) if d]
    assert is_good_family(G, [(H, emb)], covering_only) == {
        "good": divisors == [1] * len(R),
        "elementary_divisors": divisors,
        "exponent_lcm": exponent,
    }


def test_commutator_and_quotient():
    s3 = FiniteGroup.symmetric(3)
    derived = commutator_subgroup(s3)
    assert len(derived) == 3  # A_3
    q, proj = quotient(s3, derived)
    assert q.order == 2
    assert len(set(proj)) == 2


def test_abelianization_s3():
    H = FiniteGroup.symmetric(3)
    mat, M = reference_abelianization_matrix(H)
    assert M == 2
    t = character_table(H)
    triv = t.row_names.index((3,))
    sgn = t.row_names.index((1, 1, 1))
    std = t.row_names.index((2, 1))
    # columns: two linear characters of S_3^ab = Z/2
    assert sorted(mat[triv]) == [0, 1]
    assert sorted(mat[sgn]) == [0, 1]
    assert mat[triv] != mat[sgn]
    assert mat[std] == [0, 0]


def test_abelianization_of_abelian_group_is_identity():
    H = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    mat, M = reference_abelianization_matrix(H)
    assert M == 2
    # a permutation matrix: each irreducible hits exactly one linear character
    assert sorted(sorted(row) for row in mat) == [[0, 0, 0, 1]] * 4
    assert all(sum(col) == 1 for col in zip(*mat))


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclic_groups_get_the_cyclic_table(n):
    G = FiniteGroup.cyclic(n)
    table = character_table(G)
    reference = reference_cyclic_table(n)
    assert _table_to_json(table) == _table_to_json(reference)
    assert table.element_class == reference.element_class


def test_multiplicity_rejects_what_is_not_a_multiplicity():
    z2 = character_table(FiniteGroup.cyclic(2))
    triv = z2.rows[z2.trivial_index()]
    one_point = [CyclotomicNumber.one(), CyclotomicNumber.zero()]
    assert multiplicity(z2.class_sizes, triv, triv, "test") == 1
    with pytest.raises(ValidationError, match="test: .* got 1/2"):
        multiplicity(z2.class_sizes, one_point, triv, "test")
    with pytest.raises(ValidationError, match="test: .* got -1"):
        multiplicity(z2.class_sizes, [-x for x in triv], triv, "test")
    # a total that is not rational is named at the lcm of the orders
    z4 = character_table(FiniteGroup.cyclic(4))
    with pytest.raises(ValidationError, match=re.escape("(1)*z4 is not rational")):
        multiplicity(z4.class_sizes, [CyclotomicNumber.root(4)] * 4, z4.rows[z4.trivial_index()], "test")
    a = [CyclotomicNumber.root(4), CyclotomicNumber.one(), CyclotomicNumber.zero(), CyclotomicNumber.root(3)]
    b = [CyclotomicNumber.one(), CyclotomicNumber.root(6), CyclotomicNumber.from_rational(Fraction(1, 3)), CyclotomicNumber.root(4, 3)]
    message = "1/4 + (-1/4)*z12 + (-1/4)*z12^2 + (1/4)*z12^3 is not rational"
    with pytest.raises(ValidationError, match=re.escape(message)):
        multiplicity(z4.class_sizes, a, b, "test")


# ---------------------------------------------------------------------------
# the partition (n) is S_n itself


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_young_subgroup_of_partition_n_is_the_group(n):
    G = FiniteGroup.symmetric(n)
    family = young_subgroups(n, G)
    lam, H, emb = family[0]
    assert lam == ((n,) if n else ())
    assert H is G and emb == tuple(range(G.order))
    assert all(H is not G for _, H, _ in family[1:])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("covering", [False, True])
def test_good_family_unchanged_by_reusing_the_group(n, covering):
    G = FiniteGroup.symmetric(n)
    family = [(H, emb) for _, H, emb in young_subgroups(n, G)]
    # the family as built before: S_n constructed again for the partition (n)
    rebuilt = [(FiniteGroup.symmetric(n), tuple(range(G.order)))] + family[1:]
    assert is_good_family(G, family, covering) == is_good_family(G, rebuilt, covering)


# ---------------------------------------------------------------------------
# S_n from two generators, and embeddings checked on generators


@pytest.mark.parametrize("n", range(7))
def test_symmetric_table_matches_elementwise_composition(n):
    table, labels = elementwise_symmetric_table(n)
    G = FiniteGroup.symmetric(n)
    assert G.table == tuple(map(tuple, table))
    assert G.labels == labels


def _accepts(G: FiniteGroup, H: FiniteGroup, emb) -> bool:
    try:
        validate_embedding(G, H, emb)
    except ValidationError as exc:
        assert str(exc) == "embedding is not a homomorphism"
        return False
    return True


V4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


@pytest.mark.parametrize(
    "H, n, homomorphisms",
    [
        # elements of order 2 and 3 of S3 and S4; the four Klein subgroups of
        # S4 with their 6 automorphisms each
        (FiniteGroup.cyclic(2), 3, 3),
        (FiniteGroup.cyclic(2), 4, 9),
        (FiniteGroup.cyclic(3), 3, 2),
        (FiniteGroup.cyclic(3), 4, 8),
        (V4, 3, 0),
        (V4, 4, 24),
    ],
    ids=["Z2>S3", "Z2>S4", "Z3>S3", "Z3>S4", "Z2xZ2>S3", "Z2xZ2>S4"],
)
def test_generator_embedding_check_agrees_with_all_pairs_on_every_injection(H, n, homomorphisms):
    G = FiniteGroup.symmetric(n)
    accepted = 0
    for emb in itertools.permutations(range(G.order), H.order):
        full = is_homomorphism_on_all_pairs(G, H, emb)
        assert _accepts(G, H, emb) == full, emb
        accepted += full
    assert accepted == homomorphisms


def test_generator_embedding_check_agrees_with_all_pairs_from_s3_into_s4():
    G, H = FiniteGroup.symmetric(4), FiniteGroup.symmetric(3)
    index = {p: i for i, p in enumerate(G.labels)}
    # S3 on the first three points, conjugated by every element of S4
    fixing = [index[p + (3,)] for p in H.labels]
    conjugates = {
        tuple(G.table[G.table[g][h]][G.inverse[g]] for h in fixing) for g in range(G.order)
    }
    rng = random.Random(16)
    maps = [tuple(rng.sample(range(G.order), H.order)) for _ in range(500)]
    for emb in sorted(conjugates):
        # two images swapped: no longer a homomorphism, or one only by chance
        i, j = rng.sample(range(H.order), 2)
        swapped = list(emb)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        maps += [emb, tuple(swapped)]
    verdicts = [is_homomorphism_on_all_pairs(G, H, emb) for emb in maps]
    assert [_accepts(G, H, emb) for emb in maps] == verdicts
    assert sum(verdicts) >= len(conjugates) == 4 * 6  # four point stabilizers, six automorphisms


def test_trivial_subgroup_must_go_to_the_identity():
    # with no generators, only the test at b = identity refuses these
    G, trivial = FiniteGroup.symmetric(3), FiniteGroup.cyclic(1)
    for k in range(G.order):
        assert _accepts(G, trivial, (k,)) == is_homomorphism_on_all_pairs(G, trivial, (k,)) == (k == G.identity)
