"""Characters of wreath products S_n acting on G^n.

Conjugacy classes are labeled by maps from the classes of G to partitions
(cycle lengths by the class of the cycle product), irreducibles by maps from
the irreducibles of G to partitions.  Characters follow the wreath
Murnaghan-Nakayama rule (Macdonald, Symmetric Functions, 2nd ed., I, app. B):
with (k, c) the largest cycle of rho, chi^lam(rho) = sum_v chi_v(c) sum over
k-border strips xi of lam(v) of (-1)^ht(xi) chi^(lam - xi)(rho minus that
cycle), kept per table by (lam, rho).  No explicit group is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cyclotomic import CyclotomicNumber, from_coordinates, integer_coordinates, sum_of_products
from .errors import ValidationError
from .genfun import FactoredRational, LinearForm
from .grouptheory import CharacterTable, _border_strips, centralizer_order, multiplicity, partitions

# a wreath label is a tuple of partitions, one per class (or irreducible) of G
WreathLabel = tuple


def wreath_labels(slots: int, total: int) -> list[WreathLabel]:
    """All tuples of `slots` partitions with sizes summing to `total`, by the
    size of the first partition (descending), then the first partition, then
    the rest in the same order."""
    # tails[r]: the labels of the last j slots of total size r, for j = 0 .. slots
    tails = [[()] if r == 0 else [] for r in range(total + 1)]
    for _ in range(slots):
        tails = [
            [(p,) + rest for k in range(r, -1, -1) for p in partitions(k) for rest in tails[r - k]]
            for r in range(total + 1)
        ]
    return tails[total]


def label_size(label: WreathLabel) -> int:
    return sum(sum(p) for p in label)


def wreath_group_order(table: CharacterTable, n: int) -> int:
    return table.group_order**n * factorial(n)


def wreath_class_size(table: CharacterTable, n: int, label: WreathLabel) -> int:
    """Size via the centralizer: prod over the classes c of z_(label[c])
    (#G/#c)^(number of cycles of class c)."""
    order = table.group_order
    z = 1
    for c, part in enumerate(label):
        z *= centralizer_order(part) * (order // table.class_sizes[c]) ** len(part)
    return wreath_group_order(table, n) // z


def _classes(table: CharacterTable, n: int) -> tuple[tuple[WreathLabel, int], ...]:
    """`wreath_classes(table, n)`, built once per table and degree."""
    key = ("wreath.classes", n)
    out = table.memo.get(key)
    if out is None:
        out = tuple([(label, wreath_class_size(table, n, label)) for label in wreath_labels(table.n_classes, n)])
        table.memo[key] = out
    return out


def wreath_classes(table: CharacterTable, n: int) -> list[tuple[WreathLabel, int]]:
    """All conjugacy classes of the wreath product with their sizes."""
    return list(_classes(table, n))


def identity_label(table: CharacterTable, n: int) -> WreathLabel:
    return tuple([
        (1,) * n if c == table.identity_class else () for c in range(table.n_classes)
    ])


@dataclass
class ClassFunction:
    """A class function on the wreath product of degree n over G: its values
    by class label.  It holds no table (the table's memo may hold it), so
    whatever needs the classes of G takes the table as an argument."""

    n: int
    values: dict

    def dim(self, table: CharacterTable) -> int:
        """The degree: the value at the identity of the wreath product over `table`."""
        return int(self.values[identity_label(table, self.n)].rational_value())

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValidationError("class functions live on different degrees")
        return ClassFunction(self.n, {k: v * other.values[k] for k, v in self.values.items()})


def wreath_inner_product(table: CharacterTable, a: ClassFunction, b: ClassFunction) -> int:
    """The multiplicity <a, b> over the classes of the wreath product over `table`."""
    if a.n != b.n:
        raise ValidationError("class functions live on different degrees")
    classes = _classes(table, a.n)
    return multiplicity(
        [size for _, size in classes],
        [a.values[label] for label, _ in classes],
        [b.values[label] for label, _ in classes],
        "wreath multiplicity",
    )


def wreath_irreducible_character(table: CharacterTable, lam: WreathLabel) -> ClassFunction:
    """The irreducible labeled by the partition-valued function lam, by the
    wreath Murnaghan-Nakayama rule (see the module docstring).

    Each character is built once per table and kept in `table.memo`, so the
    class function returned is shared: do not mutate its values."""
    if len(lam) != len(table.rows):
        raise ValidationError("need one partition per irreducible of G")
    key = ("wreath.char", lam)
    chi = table.memo.get(key)
    if chi is None:
        chi = table.memo[key] = _mn_character(table, lam)
    return chi


def _mn_character(table: CharacterTable, lam: WreathLabel) -> ClassFunction:
    bins = tuple(sorted(sum(p) for p in lam if p))
    if not bins:  # degree zero: the empty character
        return ClassFunction(0, {((),) * table.n_classes: CyclotomicNumber.one()})
    order, coords, memo = _mn_state(table)
    values = {}
    for rho, _ in _classes(table, sum(bins)):
        if _fits(bins, tuple(sorted(itertools.chain(*rho), reverse=True))):
            values[rho] = from_coordinates(order, memo.get((lam, rho)) or _mn_value(memo, order, coords, lam, rho))
        else:
            values[rho] = CyclotomicNumber.zero()
    return ClassFunction(sum(bins), values)


def _mn_state(table: CharacterTable) -> tuple:
    """(N, coords[v][c] of table.rows[v][c] in Z[zeta_N], values found so far
    by (lam, rho)), N the lcm of the orders of the entries."""
    out = table.memo.get("wreath.mn")
    if out is None:
        order, nums, den = integer_coordinates([x for row in table.rows for x in row])
        assert den == 1, "character values lie in Z[zeta_N]"
        k = table.n_classes
        memo = {(((),) * len(table.rows), ((),) * k): (1,) + (0,) * (len(nums[0]) - 1)}  # degree zero
        out = table.memo["wreath.mn"] = (order, [nums[i : i + k] for i in range(0, len(nums), k)], memo)
    return out


def _mn_value(memo: dict, order: int, coords, lam: WreathLabel, rho: WreathLabel) -> tuple[int, ...]:
    """chi^lam(rho) for rho not empty, as integer coordinates (a non-empty
    tuple), by the rule of the module docstring; stored in `memo`."""
    c = rho.index(max(rho))
    rest = rho[:c] + (rho[c][1:],) + rho[c + 1 :]
    terms = []
    for v, part in enumerate(lam):
        for sign, smaller in _border_strips(part, rho[c][0]):
            key = (lam[:v] + (smaller,) + lam[v + 1 :], rest)
            terms.append((sign, coords[v][c], memo.get(key) or _mn_value(memo, order, coords, *key)))
    out = memo[lam, rho] = tuple(sum_of_products(terms, order))
    return out


@lru_cache(maxsize=None)
def _fits(bins: tuple[int, ...], cycles: tuple[int, ...]) -> bool:
    """Whether the cycle lengths (descending) split into groups summing to the
    bin sizes |lam(v)|.  Inducing the blocks V wr M_lam(v) up reaches just
    those classes, so they alone are written in Q(zeta_N), zeros included."""
    if not cycles:
        return True
    k, rest = cycles[0], cycles[1:]
    return any(
        _fits(tuple(sorted(bins[:i] + (b - k,) + bins[i + 1 :])), rest)
        for i, b in enumerate(bins)
        if b >= k and (i == 0 or bins[i - 1] != b)
    )


# ---------------------------------------------------------------------------
# padded labels and tensor stability


def pad_label(table: CharacterTable, lam: WreathLabel, n: int) -> WreathLabel | None:
    """lam[n]: grow the trivial slot to (n - |lam|, lam(triv)...); None when
    that is not a partition."""
    triv = table.trivial_index()
    head = n - label_size(lam)
    first = lam[triv][0] if lam[triv] else 0
    if head < first:
        return None
    padded = list(lam)
    padded[triv] = ((head,) + lam[triv]) if head > 0 else lam[triv]
    return tuple(padded)


def tensor_stability_table(
    table: CharacterTable,
    lam: WreathLabel,
    mu: WreathLabel,
    nu: WreathLabel,
    n_range,
) -> list:
    """Multiplicity of V(nu[n]) in V(lam[n]) (x) V(mu[n]) for each n; entries
    are None where some padded label is not a partition-valued function."""
    out = []
    for n in n_range:
        padded = [pad_label(table, x, n) for x in (lam, mu, nu)]
        if any(p is None for p in padded):
            out.append(None)
            continue
        chi_l = wreath_irreducible_character(table, padded[0])
        chi_m = wreath_irreducible_character(table, padded[1])
        chi_n = wreath_irreducible_character(table, padded[2])
        out.append(wreath_inner_product(table, chi_l * chi_m, chi_n))
    return out


# ---------------------------------------------------------------------------
# diagonal inductions and their Hilbert series


def diag_induced_series(table: CharacterTable, i: int) -> FactoredRational:
    """Closed form of the series of Ind along the diagonal G -> G^S of V_i:
    one factor 1 - sum_j chi_j(c) t_j per conjugacy class c, weighted by
    #c * conj(chi_i(c)) / #G.

    The conjugate on chi_i makes the degree-n coefficient the monomial image
    of the actual decomposition of the induced representation (Frobenius
    reciprocity); for real-valued tables it is the textbook formula.
    """
    nvars = len(table.rows)
    if not 0 <= i < nvars:
        raise ValidationError(f"index must lie in range({nvars}), got {i}")
    order = table.group_order
    terms = []
    for c in range(table.n_classes):
        form = LinearForm({j: table.rows[j][c] for j in range(nvars)})
        weight = table.rows[i][c].conjugate() * Fraction(table.class_sizes[c], order)
        terms.append((form, weight))
    return FactoredRational.geometric_sum(nvars, terms)
