import itertools
from fractions import Fraction

import pytest

from quasilang.cyclotomic import CyclotomicNumber, cyclotomic_to_json
from quasilang.genfun import FactoredRational, LinearForm
from quasilang.grouptheory import FiniteGroup, character_table, symmetric_table
from quasilang.cli import dumps, execute_request
from quasilang.wreath import (
    diag_induced_series,
    label_size,
    pad_label,
    tensor_stability_table,
    wreath_classes,
    wreath_group_order,
    wreath_inner_product,
    wreath_irreducible_character,
    wreath_labels,
)

from oracles import conjugacy_classes, decompose_induced, induced_monomial_image, induced_wreath_character

Z2 = character_table(FiniteGroup.cyclic(2))
Z3 = character_table(FiniteGroup.cyclic(3))
S3 = symmetric_table(3)


def explicit_wreath_group(g: FiniteGroup, n: int) -> FiniteGroup:
    """Brute-force semidirect product S_n x G^n for validation."""
    perms = sorted(itertools.permutations(range(n)))
    elems = [
        (sigma, vec)
        for sigma in perms
        for vec in itertools.product(range(g.order), repeat=n)
    ]
    index = {e: i for i, e in enumerate(elems)}

    def mult(a, b):
        (sp, gv), (tp, hv) = a, b
        comp = tuple(sp[tp[i]] for i in range(n))
        mixed = tuple(g.table[gv[tp[i]]][hv[i]] for i in range(n))
        return (comp, mixed)

    table = [[index[mult(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, labels=tuple(elems), name=f"{g.name}wrS{n}")


def test_wreath_classes_counts_and_sizes():
    classes = wreath_classes(Z2, 2)
    assert len(classes) == 5
    assert sum(size for _, size in classes) == wreath_group_order(Z2, 2) == 8

    explicit = explicit_wreath_group(FiniteGroup.cyclic(2), 2)
    brute = conjugacy_classes(explicit)
    assert len(brute) == 5
    assert sorted(len(c) for c in brute) == sorted(size for _, size in classes)


def test_wreath_classes_z3_n2_against_brute_force():
    classes = wreath_classes(Z3, 2)
    assert sum(size for _, size in classes) == 18
    explicit = explicit_wreath_group(FiniteGroup.cyclic(3), 2)
    brute = conjugacy_classes(explicit)
    assert len(brute) == len(classes)
    assert sorted(len(c) for c in brute) == sorted(size for _, size in classes)


def test_wreath_classes_degenerate():
    assert wreath_classes(Z2, 0) == [(((), ()), 1)]
    one = wreath_classes(Z2, 1)
    assert len(one) == 2 and all(size == 1 for _, size in one)


def test_wreath_labels_enumeration():
    # pairs of partitions with total 2: (2|-), (11|-), (1|1), (-|2), (-|11)
    assert len(wreath_labels(2, 2)) == 5
    assert len(wreath_labels(1, 4)) == 5


def test_irreducible_dims_z2_n2():
    dims = []
    for lam in wreath_labels(2, 2):
        chi = wreath_irreducible_character(Z2, lam)
        dims.append(chi.dim(Z2))
    assert sorted(dims) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in dims) == 8


def test_mixed_label_dimension():
    lam = ((1,), (1,))  # one point in each of the two Z/2 slots
    chi = wreath_irreducible_character(Z2, lam)
    assert chi.dim(Z2) == 2


@pytest.mark.parametrize("table,n", [(Z2, 2), (Z2, 3), (Z3, 2), (S3, 2)])
def test_wreath_characters_orthonormal(table, n):
    labels = wreath_labels(len(table.rows), n)
    chars = [wreath_irreducible_character(table, lam) for lam in labels]
    assert sum(c.dim(table) ** 2 for c in chars) == wreath_group_order(table, n)
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert wreath_inner_product(table, a, b) == (1 if i == j else 0)


def test_trivial_group_degenerates_to_symmetric_characters():
    triv = character_table(FiniteGroup.cyclic(1))
    for n in range(1, 5):
        sn = symmetric_table(n)
        for lam in wreath_labels(1, n):
            chi = wreath_irreducible_character(triv, lam)
            for label, _ in wreath_classes(triv, n):
                mu = label[0]
                col = sn.class_names.index(mu)
                row = sn.row_names.index(lam[0])
                assert chi.values[label] == sn.rows[row][col]


def test_pad_label():
    triv_slot = Z2.trivial_index()
    lam = tuple(() if i != 1 - triv_slot else (1,) for i in range(2))
    padded = pad_label(Z2, lam, 3)
    assert padded is not None and padded[triv_slot] == (2,)
    lam2 = tuple((2,) if i == triv_slot else () for i in range(2))
    assert pad_label(Z2, lam2, 3) is None  # head 1 < first part 2
    assert pad_label(Z2, lam2, 4) is not None
    # n = |lam|: no room for a head part
    assert pad_label(Z2, lam2, 2) is None  # lam(triv) = (2,) is not empty
    assert pad_label(Z2, lam, 1) == lam  # lam(triv) is empty: lam as it is


def test_stability_trivial_group():
    triv = character_table(FiniteGroup.cyclic(1))
    lam = ((1,),)
    values = tensor_stability_table(triv, lam, lam, lam, range(3, 7))
    assert values == [1, 1, 1, 1]


def test_stability_orthonormality_case():
    # nu padded to the trivial representation: multiplicity 1 iff lam = mu
    sgn_slot = 1 - Z2.trivial_index()
    lam = tuple((1,) if i == sgn_slot else () for i in range(2))
    empty = ((), ())
    vals = tensor_stability_table(Z2, lam, lam, empty, range(2, 7))
    assert all(v == 1 for v in vals)
    other = tuple((1,) if i == Z2.trivial_index() else () for i in range(2))
    # lam[n] != other[n]: multiplicity of the trivial must vanish
    vals2 = tensor_stability_table(Z2, lam, other, empty, range(2, 7))
    assert all(v == 0 for v in vals2)


def test_stability_skip_marker():
    lam = ((), (2,))
    vals = tensor_stability_table(Z2, lam, lam, ((), ()), range(2, 5))
    assert vals[0] == 0 or vals[0] is not None  # n = 2 is valid for lam here
    big = ((3,), ())
    vals2 = tensor_stability_table(Z2, big, big, big, range(3, 6))
    assert vals2[0] is None and vals2[1] is None  # need n - 3 >= 3


def test_diag_induced_series_z2():
    F = diag_induced_series(Z2, Z2.trivial_index())
    one = CyclotomicNumber.one()
    minus = CyclotomicNumber.from_rational(-1)
    base = FactoredRational.geometric(2, LinearForm({0: one, 1: one}))
    flip = FactoredRational.geometric(2, LinearForm({0: one, 1: minus}))
    target = base.scale(Fraction(1, 2)) + flip.scale(Fraction(1, 2))
    assert F.expand((6, 6)) == target.expand((6, 6))


def test_diag_induced_dimension_counts():
    # total dimension at degree n is #G^(n-1) * dim V_i
    for table, i in [(Z2, 0), (Z2, 1), (Z3, 1), (S3, 2)]:
        dims = [int(r[table.identity_class].rational_value()) for r in table.rows]
        for n in range(1, 4):
            total = 0
            for combo, mult in decompose_induced(table, i, n).items():
                d = 1
                for j in combo:
                    d *= dims[j]
                total += mult * d
            assert total == table.group_order ** (n - 1) * dims[i]


def test_decompose_induced_examples():
    dec = decompose_induced(Z2, Z2.trivial_index(), 2)
    assert set(dec) == {(0, 0), (1, 1)} and all(v == 1 for v in dec.values())
    dec1 = decompose_induced(Z3, 1, 1)
    assert dec1 == {(1,): 1}


def test_series_matches_decomposition():
    for table, i in [(Z2, 0), (Z2, 1), (Z3, 0), (Z3, 1), (S3, 0), (S3, 2)]:
        F = diag_induced_series(table, i)
        nvars = len(table.rows)
        series = F.expand((4,) * nvars)
        for n in range(1, 4):
            image = induced_monomial_image(table, i, n)
            for e in itertools.product(range(5), repeat=nvars):
                if sum(e) == n:
                    assert series.coefficient(e) == image.get(e, 0), (table.order, i, e)


def test_degree_zero_convention():
    # constant term of the closed form: 1 for the trivial character, else 0
    for table in (Z2, Z3, S3):
        for i in range(len(table.rows)):
            F = diag_induced_series(table, i)
            nvars = len(table.rows)
            c = F.expand((1,) * nvars).coefficient((0,) * nvars)
            assert c == (1 if i == table.trivial_index() else 0)


def test_stability_z2_window_constant():
    sgn_slot = 1 - Z2.trivial_index()
    lam = tuple((1,) if i == sgn_slot else () for i in range(2))
    vals = tensor_stability_table(Z2, lam, lam, lam, range(2, 7))
    tail = [v for v in vals if v is not None][-4:]
    assert len(set(tail)) == 1


def test_wreath_memo_stays_with_its_table():
    """Z/2 and S2 have the same class sizes but not the same rows (S2 lists
    its identity class last), so what one table keeps must not answer for
    the other."""
    z2, s2 = character_table(FiniteGroup.cyclic(2)), character_table(FiniteGroup.symmetric(2))
    assert z2.class_sizes == s2.class_sizes and z2.rows != s2.rows
    labels = [lam for n in (1, 2, 3) for lam in wreath_labels(2, n)]
    sgn = ((), (1,))
    for table, build in ((z2, lambda: FiniteGroup.cyclic(2)), (s2, lambda: FiniteGroup.symmetric(2))):
        for lam in labels:
            fresh = character_table(build())
            n = label_size(lam)
            assert wreath_classes(table, n) == wreath_classes(fresh, n)
            assert wreath_irreducible_character(table, lam).values == wreath_irreducible_character(fresh, lam).values
        stability = tensor_stability_table(table, sgn, sgn, ((), ()), range(2, 6))
        assert stability == tensor_stability_table(character_table(build()), sgn, sgn, ((), ()), range(2, 6))
        # in degree 1 the wreath product is G and its irreducibles are G's
        for v in range(2):
            chi = wreath_irreducible_character(table, tuple((1,) if w == v else () for w in range(2)))
            for c in range(2):
                assert chi.values[tuple((1,) if d == c else () for d in range(2))] == table.rows[v][c]


def test_repeated_stability_requests_are_byte_identical():
    req = {
        "cmd": "wreath.stability",
        "group": {"construct": "symmetric", "n": 3},
        "lambda": [[], [1], []],
        "mu": [[], [1], []],
        "nu": [[], [], []],
        "n_range": [2, 4],
    }
    first = dumps(execute_request(dict(req)))
    assert '"status":"ok"' in first
    assert dumps(execute_request(dict(req))) == first


DIFFERENTIAL_GROUPS = {
    "Z1": (lambda: FiniteGroup.cyclic(1), 4),
    "Z2": (lambda: FiniteGroup.cyclic(2), 4),
    "Z4": (lambda: FiniteGroup.cyclic(4), 4),
    "S3": (lambda: FiniteGroup.symmetric(3), 4),
    "Z2xZ2": (lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)), 4),
    "Z2xS3": (lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.symmetric(3)), 3),
    "S4": (lambda: FiniteGroup.symmetric(4), 3),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GROUPS))
def test_murnaghan_nakayama_matches_induction(name):
    """Every label up to the group's top degree (680 labels in all), and the
    empty one: the same classes, and the same JSON for every value, so a
    zero keeps its order (Q(zeta_N) where the class's cycles fit the sizes
    |lam(v)|, the rationals elsewhere)."""
    build, top = DIFFERENTIAL_GROUPS[name]
    for n in range(top + 1):
        table, reference = character_table(build()), character_table(build())
        for lam in wreath_labels(len(table.rows), n):
            chi = wreath_irreducible_character(table, lam)
            expected = induced_wreath_character(reference, lam)
            assert list(chi.values) == list(expected), (name, lam)
            got = {k: cyclotomic_to_json(v) for k, v in chi.values.items()}
            assert got == {k: cyclotomic_to_json(v) for k, v in expected.items()}, (name, lam)


def test_zero_orders_follow_the_fit_of_the_cycles():
    chi = wreath_irreducible_character(Z3, ((2, 1), (), ()))
    assert cyclotomic_to_json(chi.values[((2, 1), (), ())]) == [3, ["0", "0"]]
    # one bin of size 3 takes every class of degree 3
    assert all(v.order == 3 for v in chi.values.values())
    # bins 2 and 1 miss the 3-cycles
    mixed = wreath_irreducible_character(Z3, ((1, 1), (1,), ()))
    assert cyclotomic_to_json(mixed.values[((3,), (), ())]) == [1, ["0"]]
    assert cyclotomic_to_json(mixed.values[((), (), (3,))]) == [1, ["0"]]
    assert cyclotomic_to_json(mixed.values[((2,), (1,), ())])[0] == 3

