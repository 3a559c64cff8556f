"""Characters of wreath products S_n acting on G^n.

Conjugacy classes are labeled by maps from the classes of G to partitions
(cycle lengths by the class of the cycle product), irreducibles by maps from
the irreducibles of G to partitions.  Characters are assembled from base
blocks V wr M_mu by induction of class functions, with class fusion computed
combinatorially on labels; the explicit group is never built except for
small-order validation in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cyclotomic import CyclotomicNumber
from .errors import ValidationError
from .genfun import FactoredRational, LinearForm
from .grouptheory import CharacterTable, mn_character, multiplicity, partitions

# a wreath label is a tuple of partitions, one per class (or irreducible) of G
WreathLabel = tuple


def wreath_labels(slots: int, total: int) -> list[WreathLabel]:
    """All tuples of `slots` partitions with sizes summing to `total`."""
    out: list[WreathLabel] = []

    def rec(slot: int, remaining: int, acc: list):
        if slot == slots - 1:
            for p in partitions(remaining):
                out.append(tuple(acc + [p]))
            return
        for k in range(remaining, -1, -1):
            for p in partitions(k):
                acc.append(p)
                rec(slot + 1, remaining - k, acc)
                acc.pop()

    if slots == 0:
        return [()] if total == 0 else []
    rec(0, total, [])
    return out


def label_size(label: WreathLabel) -> int:
    return sum(sum(p) for p in label)


def wreath_group_order(table: CharacterTable, n: int) -> int:
    return table.group_order**n * factorial(n)


def wreath_class_size(table: CharacterTable, n: int, label: WreathLabel) -> int:
    """Size via the centralizer: prod over (class c, length k) of
    k^m * m! * (#G/#c)^m with m the multiplicity of k in label[c]."""
    z = 1
    for c, part in enumerate(label):
        zc = table.group_order // table.class_sizes[c]
        for k in set(part):
            m = part.count(k)
            z *= (k * zc) ** m * factorial(m)
    return wreath_group_order(table, n) // z


def _classes(table: CharacterTable, n: int) -> tuple[tuple[WreathLabel, int], ...]:
    """`wreath_classes(table, n)`, built once per table and degree."""
    key = ("wreath.classes", n)
    out = table.memo.get(key)
    if out is None:
        out = tuple((label, wreath_class_size(table, n, label)) for label in wreath_labels(table.n_classes, n))
        table.memo[key] = out
    return out


def wreath_classes(table: CharacterTable, n: int) -> list[tuple[WreathLabel, int]]:
    """All conjugacy classes of the wreath product with their sizes."""
    return list(_classes(table, n))


def identity_label(table: CharacterTable, n: int) -> WreathLabel:
    return tuple(
        (1,) * n if c == table.identity_class else () for c in range(table.n_classes)
    )


@dataclass
class ClassFunction:
    """A class function on the wreath product of degree n over G."""

    table: CharacterTable
    n: int
    values: dict

    def value(self, label: WreathLabel) -> CyclotomicNumber:
        return self.values[label]

    def dim(self) -> int:
        v = self.value(identity_label(self.table, self.n))
        return int(v.rational_value())

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValidationError("class functions live on different degrees")
        return ClassFunction(
            self.table,
            self.n,
            {k: v * other.values[k] for k, v in self.values.items()},
        )


def wreath_inner_product(a: ClassFunction, b: ClassFunction) -> int:
    """The multiplicity <a, b> over the classes of the wreath product."""
    if a.n != b.n:
        raise ValidationError("class functions live on different degrees")
    classes = _classes(a.table, a.n)
    return multiplicity(
        [size for _, size in classes],
        [a.values[label] for label, _ in classes],
        [b.values[label] for label, _ in classes],
        "wreath multiplicity",
    )


def _merged_cycle_type(label: WreathLabel) -> tuple[int, ...]:
    parts = []
    for p in label:
        parts.extend(p)
    return tuple(sorted(parts, reverse=True))


def _block_character(table: CharacterTable, v: int, mu: tuple[int, ...]) -> ClassFunction:
    """Character of V wr M_mu on the wreath product of degree |mu|:
    chi(sigma; g) = chi_mu(cycle type) * prod over cycles of chi_V(class of
    the cycle product).  Built once per table, V and mu."""
    key = ("wreath.block", v, mu)
    block = table.memo.get(key)
    if block is not None:
        return block
    m = sum(mu)
    values = {}
    for label, _ in _classes(table, m):
        coeff = CyclotomicNumber.from_rational(
            mn_character(mu, _merged_cycle_type(label))
        )
        for c, part in enumerate(label):
            if part:
                coeff = coeff * table.rows[v][c] ** len(part)
        values[label] = coeff
    block = table.memo[key] = ClassFunction(table, m, values)
    return block


def _fuse(labels: tuple[WreathLabel, ...], n_classes: int) -> WreathLabel:
    merged = []
    for c in range(n_classes):
        parts = []
        for label in labels:
            parts.extend(label[c])
        merged.append(tuple(sorted(parts, reverse=True)))
    return tuple(merged)


def wreath_irreducible_character(table: CharacterTable, lam: WreathLabel) -> ClassFunction:
    """The irreducible labeled by the partition-valued function lam: blocks
    V wr M_(lam V) on the factors, induced up with combinatorial fusion.

    Each character is built once per table and kept in `table.memo`, so the
    class function returned is shared: do not mutate its values."""
    if len(lam) != len(table.rows):
        raise ValidationError("need one partition per irreducible of G")
    key = ("wreath.char", lam)
    chi = table.memo.get(key)
    if chi is None:
        chi = table.memo[key] = _induced_character(table, lam)
    return chi


def _induced_character(table: CharacterTable, lam: WreathLabel) -> ClassFunction:
    n = label_size(lam)
    slots = [v for v in range(len(lam)) if lam[v]]
    if not slots:
        # degree zero: the empty character
        return ClassFunction(table, 0, {(): CyclotomicNumber.one()} if n == 0 else {})
    blocks = [_block_character(table, v, lam[v]) for v in slots]
    sub_order = 1
    for b in blocks:
        sub_order *= wreath_group_order(table, b.n)
    big_order = wreath_group_order(table, n)
    sums: dict = {}
    block_classes = [_classes(table, b.n) for b in blocks]
    for combo in itertools.product(*block_classes):
        sub_size = 1
        value = CyclotomicNumber.one()
        for (label, size), block in zip(combo, blocks):
            sub_size *= size
            value = value * block.values[label]
        fused = _fuse(tuple(label for label, _ in combo), table.n_classes)
        prev = sums.get(fused)
        contrib = value * sub_size
        sums[fused] = contrib if prev is None else prev + contrib
    values = {}
    for label, size in _classes(table, n):
        acc = sums.get(label)
        if acc is None:
            values[label] = CyclotomicNumber.zero()
        else:
            values[label] = acc * Fraction(big_order, sub_order * size)
    return ClassFunction(table, n, values)


# ---------------------------------------------------------------------------
# padded labels and tensor stability


def pad_label(table: CharacterTable, lam: WreathLabel, n: int) -> WreathLabel | None:
    """lam[n]: grow the trivial slot to (n - |lam|, lam(triv)...); None when
    that is not a partition."""
    triv = table.trivial_index()
    head = n - label_size(lam)
    first = lam[triv][0] if lam[triv] else 0
    if head < first or head < 0:
        return None
    padded = list(lam)
    padded[triv] = ((head,) + lam[triv]) if head > 0 else lam[triv]
    if head == 0 and lam[triv]:
        return None
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
        out.append(wreath_inner_product(chi_l * chi_m, chi_n))
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
