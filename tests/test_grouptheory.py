import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from quasilang.cyclotomic import CyclotomicNumber
from quasilang.errors import UnsupportedGroupError, ValidationError
from quasilang.grouptheory import (
    FiniteGroup,
    abelian_characters,
    centralizer_order,
    character_table,
    cycle_type,
    is_good_family,
    mn_character,
    partitions,
    restriction_matrix,
    smith_normal_form,
    symmetric_table,
    young_subgroups,
)

from oracles import conjugacy_classes


def test_partitions():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(6)) == 11
    assert partitions(0) == ((),)


def test_centralizer_order_and_class_sizes():
    # class sizes of S_4 sum to 24
    sizes = [24 // centralizer_order(mu) for mu in partitions(4)]
    assert sum(sizes) == 24


def test_mn_character_small():
    # S_3: chi_(2,1) has degree 2, value 0 at transpositions, -1 at 3-cycles
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (3,)) == -1
    # trivial and sign
    assert all(mn_character((4,), mu) == 1 for mu in partitions(4))
    assert mn_character((1, 1, 1, 1), (2, 1, 1)) == -1


def brute_force_sn_character(lam, mu):
    """Oracle for small n: trace of the permutation action on tabloids minus
    lower terms is hard; instead verify column orthogonality of MN values."""
    raise NotImplementedError


def test_mn_table_orthogonality():
    for n in range(1, 7):
        t = symmetric_table(n)
        t.validate()


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)


def test_finite_group_construction():
    z6 = FiniteGroup.cyclic(6)
    assert z6.order == 6 and z6.identity == 0
    assert z6.element_order(1) == 6 and z6.element_order(3) == 2
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6 and not s3.is_abelian()
    assert len(conjugacy_classes(s3)) == 3
    prod = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert prod.is_abelian() and prod.order == 4


def test_bad_table_rejected():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])


def reduced_latin_squares(n: int) -> list[list[list[int]]]:
    """Every n x n Latin square whose first row and column are 0..n-1: each
    is a loop with identity 0 in which every element has an inverse."""
    out = []
    rows = [list(range(n))]

    def fill(row: list[int]) -> None:
        if len(row) == n:
            rows.append(row)
            if len(rows) == n:
                out.append([r[:] for r in rows])
            else:
                fill([len(rows)])
            rows.pop()
            return
        j = len(row)
        for v in range(n):
            if v not in row and all(r[j] != v for r in rows):
                fill(row + [v])

    fill([1])
    return out


def cubic_associative(t) -> bool:
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))


@pytest.mark.parametrize("n, squares, groups", [(4, 4, 4), (5, 56, 6), (6, 9408, 80)])
def test_generator_associativity_check_agrees_with_cubic_check(n, squares, groups):
    # groups: Z/4 three ways and Z/2 x Z/2 once; Z/5 six ways; Z/6 sixty
    # ways and S3 twenty
    tables = reduced_latin_squares(n)
    assert len(tables) == squares
    accepted = 0
    for t in tables:
        if cubic_associative(t):
            FiniteGroup(t)
            accepted += 1
        else:
            with pytest.raises(ValidationError, match="not associative"):
                FiniteGroup(t)
    assert accepted == groups


def test_nonassociative_loop_rejected():
    # identity 0, every row and column a permutation (so inverses exist),
    # yet (1*1)*2 = 0*2 = 2 while 1*(1*2) = 1*3 = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError, match="not associative"):
        FiniteGroup(loop)


def test_symmetric_6_character_table_is_orthonormal():
    start = time.monotonic()
    s6 = FiniteGroup.symmetric(6)
    table = character_table(s6)
    table.validate()
    sizes = sorted(len(c) for c in conjugacy_classes(s6))
    assert sizes == sorted(table.class_sizes) and len(table.rows) == 11
    for cls in conjugacy_classes(s6):
        assert {table.element_class[g] for g in cls} == {table.element_class[cls[0]]}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"S6 and its character table took {elapsed:.1f}s"


def test_abelian_characters():
    z6 = FiniteGroup.cyclic(6)
    chars, M = abelian_characters(z6)
    assert M == 6 and len(chars) == 6
    # characters are homomorphisms, pairwise distinct
    assert len(set(chars)) == 6
    for chi in chars:
        for a in range(6):
            for b in range(6):
                assert (chi[a] + chi[b]) % 6 == chi[(a + b) % 6]

    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    chars4, M4 = abelian_characters(v4)
    assert M4 == 2 and len(set(chars4)) == 4


def test_character_table_cyclic():
    z3 = FiniteGroup.cyclic(3)
    t = character_table(z3)
    t.validate()
    for j in range(3):
        for k in range(3):
            assert t.rows[j][k] == CyclotomicNumber.root(3, j * k)


def test_character_table_s3():
    t = character_table(FiniteGroup.symmetric(3))
    t.validate()
    assert sorted(t.dims()) == [1, 1, 2]
    std = t.row_names.index((2, 1))
    assert t.rows[std][t.identity_class] == 2


def test_character_table_product():
    g = FiniteGroup.direct_product(FiniteGroup.symmetric(2), FiniteGroup.cyclic(2))
    t = character_table(g)
    t.validate()
    assert t.dims() == [1, 1, 1, 1]


def test_character_table_unsupported():
    # the quaternion-like non-abelian custom group: use S_3's table as custom input
    s3 = FiniteGroup.symmetric(3)
    custom = FiniteGroup(s3.table, name="custom-s3")
    with pytest.raises(UnsupportedGroupError):
        character_table(custom)


def test_restriction_s3_to_s2():
    G = FiniteGroup.symmetric(3)
    # S_2 embedded on the first two points
    lam, H, emb = next(x for x in young_subgroups(3, G) if x[0] == (2, 1))
    mat = restriction_matrix(G, H, emb)
    tG, tH = character_table(G), character_table(H)
    triv_g = tG.row_names.index((3,))
    sgn_g = tG.row_names.index((1, 1, 1))
    std_g = tG.row_names.index((2, 1))
    # columns of H = S_2 x S_1: ((2), (1)) is trivial, ((1,1), (1)) is sign
    triv_h = tH.row_names.index(((2,), (1,)))
    sgn_h = tH.row_names.index(((1, 1), (1,)))
    assert mat[triv_g][triv_h] == 1 and mat[triv_g][sgn_h] == 0
    assert mat[sgn_g][triv_h] == 0 and mat[sgn_g][sgn_h] == 1
    assert mat[std_g][triv_h] == 1 and mat[std_g][sgn_h] == 1


def test_restriction_identity_and_trivial_subgroup():
    G = FiniteGroup.symmetric(3)
    emb_id = tuple(range(G.order))
    assert restriction_matrix(G, G, emb_id) == [
        [1 if i == j else 0 for j in range(3)] for i in range(3)
    ]
    triv = FiniteGroup.cyclic(1)
    mat = restriction_matrix(G, triv, (G.identity,))
    assert [row[0] for row in mat] == character_table(G).dims()


def test_restriction_composes():
    G = FiniteGroup.symmetric(4)
    lam, H, emb = next(x for x in young_subgroups(4, G) if x[0] == (3, 1))
    # K = S_2 x S_1 x S_1 inside H = S_3 x S_1 via the Young chain of H's S_3 part
    res_gh = restriction_matrix(G, H, emb)
    # restrict H to its diagonal copy of S_2 x S_1 x S_1 through G directly
    lam2, K, emb_k = next(x for x in young_subgroups(4, G) if x[0] == (2, 1, 1))
    res_gk = restriction_matrix(G, K, emb_k)
    # composition check via dimensions: restriction preserves degrees
    dims_g = character_table(G).dims()
    dims_k = character_table(K).dims()
    for i, row in enumerate(res_gk):
        assert sum(m * d for m, d in zip(row, dims_k)) == dims_g[i]


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]


def _det(M):
    """Determinant by expansion along the first row."""
    if not M:
        return 1
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
    )


def _invariant_factors(M):
    """d_k / d_(k-1), with d_k the gcd of all k x k minors (d_0 = 1), and 0
    from the first k whose minors all vanish."""
    m, n = len(M), len(M[0])
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        d = gcd(
            *(
                _det([[M[i][j] for j in cols] for i in rows])
                for rows in itertools.combinations(range(m), k)
                for cols in itertools.combinations(range(n), k)
            )
        )
        out.append(d // prev if d else 0)
        prev = d
    return out


def test_smith_normal_form_transforms_random():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        div = smith_normal_form(M)
        assert div == _invariant_factors(M), M
        for i in range(len(div) - 1):
            if div[i]:
                assert div[i + 1] % div[i] == 0
            else:
                assert div[i + 1] == 0


def test_good_family_s3_young():
    G = FiniteGroup.symmetric(3)
    fam = [(H, emb) for _, H, emb in young_subgroups(3, G)]
    result = is_good_family(G, fam)
    assert result["good"] is True
    assert result["elementary_divisors"] == [1, 1, 1]
    assert result["exponent_lcm"] == 2


def test_good_family_abelian_self():
    G = FiniteGroup.cyclic(6)
    result = is_good_family(G, [(G, tuple(range(6)))])
    assert result["good"] is True
    assert result["exponent_lcm"] == 6


def test_good_family_trivial_subgroup_fails():
    G = FiniteGroup.symmetric(3)
    triv = FiniteGroup.cyclic(1)
    result = is_good_family(G, [(triv, (G.identity,))])
    assert result["good"] is False


def test_covering_flag():
    G = FiniteGroup.symmetric(3)
    result = is_good_family(G, [(G, tuple(range(G.order)))], covering_only=True)
    assert result["good"] is True and result["exponent_lcm"] == 1
