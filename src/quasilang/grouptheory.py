"""Ordinary (characteristic-zero) character theory for finite groups given by
multiplication tables: built-in tables for symmetric and product groups and,
through their linear characters, for abelian groups (cyclic ones included),
the multiplicity of one class function in another, the restriction map on
representation rings, Smith normal form, and the split-injection test for
good families of subgroups, which reads each abelianization off the linear
characters (the degree-1 rows) of the subgroup's table and computes only
those columns of the restriction matrix.

Checks that would compare all pairs of elements work along a generating set
instead (`FiniteGroup._generators`): associativity of a table tests each
generator b against every a and c, and an embedding is a homomorphism once
emb(ab) = emb(a) emb(b) holds for every a and for b the identity or a
generator.  Both are exact, since the elements b that pass are closed under
the product; b = identity makes emb(identity) the identity, which nothing
else tests when H is trivial.  The table of S_n is built along generators
too, one column per element, from the transposition (0 1) and the n-cycle."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import itemgetter

from .cyclotomic import CyclotomicNumber, from_coordinates, integer_coordinates, sum_of_products
from .errors import UnsupportedGroupError, ValidationError

# ---------------------------------------------------------------------------
# partitions and symmetric-group characters


def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending lexicographic order."""
    return _partitions_at_most(n, n)


@lru_cache(maxsize=None)
def _partitions_at_most(n: int, largest: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of n with no part above `largest`, in descending
    lexicographic order."""
    if n == 0:
        return ((),)
    return tuple([(p,) + rest for p in range(min(n, largest), 0, -1) for rest in _partitions_at_most(n - p, p)])


def centralizer_order(cycle_type: tuple[int, ...]) -> int:
    """z_mu = prod_i i^(m_i) m_i! for the cycle type mu."""
    out = 1
    for k in set(cycle_type):
        m = cycle_type.count(k)
        out *= k**m * factorial(m)
    return out


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def _border_strips(lam: tuple[int, ...], k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The k-border strips of the partition lam as (sign, lam minus the strip):
    on beta numbers a strip moves some b to a free b - k, its height is the
    number of beta numbers jumped."""
    r = len(lam)
    betas = [p + r - 1 - i for i, p in enumerate(lam)]  # strictly decreasing
    out = []
    for b in betas:
        if b >= k and b - k not in betas:
            moved = sorted([c for c in betas if c != b] + [b - k], reverse=True)
            smaller = tuple([p for p in (c - (r - 1 - i) for i, c in enumerate(moved)) if p > 0])
            out.append(((-1) ** sum(b - k < c < b for c in betas), smaller))
    return tuple(out)


@lru_cache(maxsize=None)
def mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Symmetric-group character chi_lam at cycle type mu by the
    Murnaghan-Nakayama rule: sum over the mu[0]-border strips of lam of
    (-1)^height chi_(lam minus the strip)(mu[1:])."""
    if sum(lam) != sum(mu):
        raise ValidationError("partition and cycle type have different sizes")
    return sum(sign * mn_character(smaller, mu[1:]) for sign, smaller in _border_strips(lam, mu[0])) if mu else 1


# ---------------------------------------------------------------------------
# finite groups by multiplication table


class FiniteGroup:
    """A finite group as labels plus a multiplication table on indices.

    The table must be square with entries in range(n), as the reader reads
    it and the constructors build it; the identity, the inverses and
    associativity are verified on construction.  `kind` records how the
    group was built, which selects the character table construction.
    """

    def __init__(self, table, labels=None, name: str = "G", kind=("custom",)):
        self.table = tuple([tuple(row) for row in table])
        n = len(self.table)
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        self.name = name
        self.kind = kind
        # filled in by character_table(self)
        self._character_table: CharacterTable | None = None
        identity = None
        for e in range(n):
            if all(self.table[e][g] == g == self.table[g][e] for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("no identity element")
        self.identity = identity
        inverse = []
        for g, row in enumerate(self.table):
            if identity not in row:
                raise ValidationError(f"element {g} has no inverse")
            inverse.append(row.index(identity))
        self.inverse = tuple(inverse)
        self._check_associative()

    def _generators(self) -> list[int]:
        """A generating set picked greedily: each element not yet reached by
        products of the earlier picks, read left to right from the identity,
        becomes one.  For a group that is at most log2(n) generators."""
        t = self.table
        reached = {self.identity}
        gens: list[int] = []
        for g in range(len(t)):
            if g in reached:
                continue
            gens.append(g)
            frontier = list(reached)
            while frontier:
                row = t[frontier.pop()]
                for h in gens:
                    x = row[h]
                    if x not in reached:
                        reached.add(x)
                        frontier.append(x)
        return gens

    def _check_associative(self) -> None:
        """Light's test on a generating set.

        The elements b with (ab)c = a(bc) for all a, c are closed under the
        product (and include the identity), so it suffices to test b over
        `_generators()`; each test of b compares n rows."""
        t = self.table
        for b in self._generators():
            # row (ab) must equal row a read through row b: (ab)c = a(bc)
            through_b = itemgetter(*t[b])
            for ta in t:
                if t[ta[b]] != through_b(ta):
                    raise ValidationError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, labels=tuple(range(n)), name=f"Z/{n}", kind=("cyclic", n))

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """S_n on the sorted permutations of range(n), with (p * q)(i) =
        p[q[i]].  Column q of the table lists p * q for every p.  Only the
        columns of the generators are read off the permutations: column
        q * g is column g read through column q, one `map` per column."""
        if n < 0:
            raise ValidationError(f"n must be at least 0, got {n}")
        elems = sorted(itertools.permutations(range(n)))
        if n < 2:
            return cls([[0]], labels=tuple(elems), name=f"S{n}", kind=("symmetric", n))
        index = {p: i for i, p in enumerate(elems)}
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        # itemgetter(*g)(p) is p * g, a tuple since n >= 2
        gen_columns = [list(map(index.__getitem__, map(itemgetter(*g), elems))) for g in (swap, cycle)]
        columns: list = [None] * len(elems)
        columns[0] = list(range(len(elems)))  # the identity is the first permutation
        frontier = [0]
        while frontier:
            q = frontier.pop()
            for col_g in gen_columns:
                qg = col_g[q]
                if columns[qg] is None:
                    columns[qg] = list(map(col_g.__getitem__, columns[q]))
                    frontier.append(qg)
        return cls(list(zip(*columns)), labels=tuple(elems), name=f"S{n}", kind=("symmetric", n))

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
        index = {p: i for i, p in enumerate(pairs)}
        table = [
            [index[(g.table[a1][a2], h.table[b1][b2])] for (a2, b2) in pairs]
            for (a1, b1) in pairs
        ]
        labels = tuple([(g.labels[a], h.labels[b]) for a, b in pairs])
        return cls(table, labels=labels, name=f"{g.name}x{h.name}", kind=("product", g, h))

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        return cls(data["table"], name=data.get("name", "G"))


# ---------------------------------------------------------------------------
# linear characters of abelian groups (iterative extension along generators)


def abelian_characters(group: FiniteGroup):
    """All homomorphisms to the roots of unity, as exponent maps.

    Returns (chars, M): chars is a list of tuples assigning to each element an
    exponent e with chi(g) = zeta_M^e, and M is the group exponent.
    """
    if not group.is_abelian():
        raise ValidationError("abelian_characters needs an abelian group")
    n = group.order
    M = 1
    for g in range(n):
        M = lcm(M, group.element_order(g))
    subgroup = [group.identity]
    chars = [{group.identity: 0}]
    in_sub = {group.identity}
    while len(subgroup) < n:
        g = min(x for x in range(n) if x not in in_sub)
        # index of g over the current subgroup
        k, power = 1, g
        while power not in in_sub:
            power = group.table[power][g]
            k += 1
        # the elements s * g^i of the extended subgroup, with s and i
        walk = []
        for s in subgroup:
            elem = s
            for i in range(k):
                walk.append((s, i, elem))
                elem = group.table[elem][g]
        new_chars = []
        for chi in chars:
            t = chi[power]
            base = (t // k) % M  # k divides t since chi(g^k)^(M/k) = chi(g^M) = 1
            if (k * base) % M != t % M:
                raise AssertionError("character extension arithmetic failed")
            for j in range(k):
                x = (base + j * (M // k)) % M
                new_chars.append({elem: (chi[s] + i * x) % M for s, i, elem in walk})
        subgroup = [elem for _, _, elem in walk]
        in_sub = set(subgroup)
        chars = new_chars
    return [tuple([chi[g] for g in range(n)]) for chi in chars], M


# ---------------------------------------------------------------------------
# character tables


class CharacterTable:
    """Irreducible characters over Q(zeta_N), rows by irreducible, columns by
    conjugacy class; `element_class`, when the table was built from a group,
    maps each element index to its column.  The table is square and its
    identity class has size 1, as the table constructions build it.

    A table holds no reference to a group: a group owns its table (see
    `character_table`), and a table owns what others derive from it in
    `memo`, whose values refer to neither."""

    def __init__(
        self,
        order: int,
        class_sizes,
        rows,
        identity_class: int,
        row_names=None,
        class_names=None,
        element_class=None,
    ):
        self.order = order
        self.class_sizes = tuple(class_sizes)
        self.rows = tuple([tuple(row) for row in rows])
        self.identity_class = identity_class
        self.row_names = tuple(row_names) if row_names is not None else tuple(range(len(self.rows)))
        self.class_names = (
            tuple(class_names) if class_names is not None else tuple(range(len(self.class_sizes)))
        )
        self.element_class = tuple(element_class) if element_class is not None else None
        # what other modules derive from this table (the wreath module keeps
        # its classes and characters here): valid as long as the table is,
        # since tables are not mutated, and gone with it
        self.memo: dict = {}

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    def dims(self) -> list[int]:
        out = []
        for row in self.rows:
            v = row[self.identity_class]
            if not (v.is_rational() and v.rational_value().denominator == 1):
                raise ValidationError("character degree is not an integer")
            out.append(int(v.rational_value()))
        return out

    def trivial_index(self) -> int:
        for i, row in enumerate(self.rows):
            if all(v == 1 for v in row):
                return i
        raise ValidationError("no trivial character found")

    def value(self, irr: int, elem: int) -> CyclotomicNumber:
        if self.element_class is None:
            raise ValidationError("table has no element-to-class binding")
        return self.rows[irr][self.element_class[elem]]

    def representatives(self) -> list[int]:
        """One element of each class (its first), in column order."""
        first: dict[int, int] = {}
        for elem, k in enumerate(self.element_class):
            first.setdefault(k, elem)
        return [first[k] for k in range(self.n_classes)]

    def validate(self) -> None:
        dims = self.dims()
        if sum(d * d for d in dims) != self.group_order:
            raise ValidationError("sum of squared degrees does not match the group order")
        for i, a in enumerate(self.rows):
            for j, b in enumerate(self.rows):
                if multiplicity(self.class_sizes, a, b, f"rows {i}, {j}") != int(i == j):
                    raise ValidationError(f"rows {i}, {j} are not orthonormal")


def multiplicity(class_sizes, a, b, what: str) -> int:
    """<a, b> = (1/|G|) sum_c |c| a(c) conj(b(c)) for class functions given
    by their values on the classes c, with |G| = sum_c |c|.

    For characters a and b this is dim Hom(b, a), the multiplicity of b in a
    when b is irreducible, so anything but a non-negative integer raises a
    ValidationError naming `what`."""
    order, xs, den_a = integer_coordinates(a, lcm(*[y.order for y in b]))
    _, ys, den_b = integer_coordinates(b, order, conjugate=True)
    total = sum_of_products(zip(class_sizes, xs, ys), order)
    den = den_a * den_b * sum(class_sizes)
    if any(total[1:]):
        from_coordinates(order, total, den).rational_value()  # raises "... is not rational"
    q = Fraction(total[0], den)
    if q.denominator != 1 or q < 0:
        raise ValidationError(f"{what}: expected a non-negative integer multiplicity, got {q}")
    return int(q)


def symmetric_table(n: int, group: FiniteGroup | None = None) -> CharacterTable:
    """Character table of S_n: rows and columns indexed by partitions of n."""
    parts = partitions(n)
    sizes = [factorial(n) // centralizer_order(mu) for mu in parts]
    rows = [
        [CyclotomicNumber.from_rational(mn_character(lam, mu)) for mu in parts]
        for lam in parts
    ]
    identity_class = parts.index((1,) * n) if n > 0 else 0
    element_class = None
    if group is not None:
        part_index = {mu: i for i, mu in enumerate(parts)}
        element_class = tuple([part_index[cycle_type(p)] for p in group.labels])
    return CharacterTable(
        order=1,
        class_sizes=sizes,
        rows=rows,
        identity_class=identity_class,
        row_names=parts,
        class_names=parts,
        element_class=element_class,
    )


def product_table(ta: CharacterTable, tb: CharacterTable) -> CharacterTable:
    """The table of the direct product: rows, classes and elements in
    `itertools.product` order over those of ta and tb.  Elements are bound
    to classes when both factors bind theirs."""
    element_class = None
    if ta.element_class is not None and tb.element_class is not None:
        element_class = [a * tb.n_classes + b for a, b in itertools.product(ta.element_class, tb.element_class)]
    return CharacterTable(
        order=lcm(ta.order, tb.order),
        class_sizes=[sa * sb for sa, sb in itertools.product(ta.class_sizes, tb.class_sizes)],
        rows=[[a * b for a, b in itertools.product(ra, rb)] for ra, rb in itertools.product(ta.rows, tb.rows)],
        identity_class=ta.identity_class * tb.n_classes + tb.identity_class,
        row_names=list(itertools.product(ta.row_names, tb.row_names)),
        class_names=list(itertools.product(ta.class_names, tb.class_names)),
        element_class=element_class,
    )


def abelian_table(group: FiniteGroup) -> CharacterTable:
    chars, M = abelian_characters(group)
    roots = [CyclotomicNumber.root(M, e) for e in range(M)]
    rows = [[roots[e] for e in chi] for chi in chars]
    return CharacterTable(
        order=M,
        class_sizes=[1] * group.order,
        rows=rows,
        identity_class=group.identity,
        element_class=tuple(range(group.order)),
    )


def character_table(group: FiniteGroup) -> CharacterTable:
    """Dispatch on the group's construction: symmetric and product groups have
    their own constructions, and any other abelian group (cyclic groups
    included) gets the table of its linear characters.  Raises
    UnsupportedGroupError when none applies.  The table is built once per
    group and kept on it (groups and tables are not mutated): the group owns
    its table, and the table does not refer back to the group."""
    if group._character_table is not None:
        return group._character_table
    kind = group.kind[0]
    if kind == "symmetric":
        table = symmetric_table(group.kind[1], group)
    elif kind == "product":
        ta = character_table(group.kind[1])
        tb = character_table(group.kind[2])
        table = product_table(ta, tb)
    elif group.is_abelian():
        table = abelian_table(group)
    else:
        raise UnsupportedGroupError(
            f"no built-in character table for {group.name}; supply one explicitly"
        )
    group._character_table = table
    return table


# ---------------------------------------------------------------------------
# representation-ring maps


def validate_embedding(G: FiniteGroup, H: FiniteGroup, embedding) -> None:
    """Refuse an embedding that is not an injective homomorphism H -> G; the
    homomorphism test runs at b = identity and at the generators of H, which
    is exact (see the module docstring)."""
    emb = tuple(embedding)
    if any(not isinstance(e, int) or not 0 <= e < G.order for e in emb):
        raise ValidationError(f"embedding entries must lie in range({G.order})")
    if len(emb) != H.order or len(set(emb)) != H.order:
        raise ValidationError("embedding must be injective on H")
    for b in [H.identity] + H._generators():
        eb = emb[b]
        for a, row in enumerate(H.table):
            if emb[row[b]] != G.table[emb[a]][eb]:
                raise ValidationError("embedding is not a homomorphism")


def _restriction_columns(G: FiniteGroup, H: FiniteGroup, embedding, linear_only: bool) -> list[list[int]]:
    """The restriction matrix, or only its columns at the linear characters
    (the degree-1 rows) of H when `linear_only`."""
    emb = tuple(embedding)
    tG, tH = character_table(G), character_table(H)
    reps = tH.representatives()
    ws = [w for w, d in zip(tH.rows, tH.dims()) if d == 1] if linear_only else tH.rows
    out = []
    for i in range(len(tG.rows)):
        res = [tG.value(i, emb[h]) for h in reps]
        out.append([multiplicity(tH.class_sizes, res, w, "restriction multiplicity") for w in ws])
    return out


def restriction_matrix(G: FiniteGroup, H: FiniteGroup, embedding) -> list[list[int]]:
    """Multiplicities <Res V, W>_H: rows over irr(G), columns over irr(H).
    The embedding must be an injective homomorphism H -> G, as
    `validate_embedding` checks; it is not checked again here."""
    return _restriction_columns(G, H, embedding, False)


# ---------------------------------------------------------------------------
# Smith normal form over the integers


def smith_normal_form(matrix) -> list[int]:
    """The invariant factors d_1 | d_2 | ... of an integer matrix, one per
    diagonal entry of its Smith normal form (zeros last), found by
    elementary unimodular row and column operations."""
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for k in range(n):
            A[dst][k] += c * A[src][k]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]

    r = min(m, n)
    for t in range(r):
        # move a minimal nonzero entry of the trailing block to (t, t)
        while True:
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                A[t], A[pivot[0]] = A[pivot[0]], A[t]
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            done = True
            for i in range(t + 1, m):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        done = False
            for j in range(t + 1, n):
                if A[t][j]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        done = False
            if done and all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, n)
            ):
                # enforce divisibility of the remaining block by the pivot
                bad = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if A[i][j] % A[t][t]:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(bad, t, 1)
    return [abs(A[i][i]) for i in range(r)]


# ---------------------------------------------------------------------------
# good families


def _root_order(value: CyclotomicNumber, bound: int) -> int:
    """The least k >= 1 with value^k = 1, which must be at most `bound`."""
    power = value
    for k in range(1, bound + 1):
        if power == 1:
            return k
        power = power * value
    raise ValidationError(f"{value!r} is not a root of unity of order at most {bound}")


def is_good_family(G: FiniteGroup, subgroups, covering_only: bool = False) -> dict:
    """Test whether restriction (then abelianization) to the given subgroups
    is a split injection of representation rings.

    `subgroups` is a list of (H, embedding) pairs, each embedding an
    injective homomorphism H -> G (see `validate_embedding`; it is not
    checked again here).  The linear characters of
    H, the characters of H^ab, are the degree-1 rows of its character table,
    and <Res V, lambda>_H for linear lambda is the column of lambda in the
    restriction matrix, so each H contributes those columns (every column
    when `covering_only`).  The exponent of H^ab is the lcm of the orders of
    the roots of unity in those rows.  Returns goodness, the nonzero
    elementary divisors, and the lcm of the abelianization exponents (the
    certified root-of-unity order)."""
    blocks = []
    exponents = []
    for H, emb in subgroups:
        blocks.append(_restriction_columns(G, H, emb, not covering_only))
        if covering_only:
            continue
        tH = character_table(H)
        values = {v.key(): v for row, d in zip(tH.rows, tH.dims()) if d == 1 for v in row}
        exponents.append(lcm(*[_root_order(v, H.order) for v in values.values()]))
    n_irr = len(character_table(G).rows)
    stacked = [
        list(itertools.chain.from_iterable(block[i] for block in blocks))
        for i in range(n_irr)
    ]
    nonzero = [d for d in smith_normal_form(stacked) if d != 0]
    good = len(nonzero) == n_irr and all(d == 1 for d in nonzero)
    return {
        "good": good,
        "elementary_divisors": nonzero,
        "exponent_lcm": lcm(*exponents) if exponents else 1,
    }


def young_subgroups(n: int, group: FiniteGroup | None = None):
    """All Young subgroups S_lambda of S_n as (partition, subgroup, embedding).

    For the partition (n), or () when n = 0, that is S_n itself with the
    identity embedding.  Any other subgroup is built as a direct product of
    symmetric groups; the embedding sends a tuple of block permutations to
    the block-diagonal permutation of [n]."""
    G = group if group is not None else FiniteGroup.symmetric(n)
    perm_index = {p: i for i, p in enumerate(G.labels)}
    symmetric = {p: FiniteGroup.symmetric(p) for p in range(1, n)}  # every part p < n
    out = []
    for lam in partitions(n):
        if len(lam) <= 1:
            out.append((lam, G, tuple(range(G.order))))
            continue
        factors = [symmetric[p] for p in lam]
        H = factors[0]
        for f in factors[1:]:
            H = FiniteGroup.direct_product(H, f)
        offsets = []
        pos = 0
        for p in lam:
            offsets.append(pos)
            pos += p
        embedding = []
        for label in H.labels:
            blocks, rest = [], label  # labels nest to the left: ((b_1, b_2), b_3) ...
            for _ in lam[1:]:
                rest, block = rest
                blocks.append(block)
            blocks = [rest] + blocks[::-1]
            perm = list(range(n))
            for block, off, size in zip(blocks, offsets, lam):
                for i in range(size):
                    perm[off + i] = off + block[i]
            embedding.append(perm_index[tuple(perm)])
        out.append((lam, H, tuple(embedding)))
    return out
