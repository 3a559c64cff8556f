"""Reference implementations that tests compare the library against.

Not a test module (pytest does not collect it); test files import it by name.

- `IdealRecognizer` determinizes the principal-ideal language of a weighted
  word on demand, from the minimal words over it.  Criterion 3 sweeps it
  against `wordposet.UpsetRecognizer`, which runs the order test instead.
- `decompose_induced` and `induced_monomial_image` decompose the diagonal
  induction by Frobenius reciprocity, the oracle for
  `wreath.diag_induced_series`.
- `induced_wreath_character` induces the blocks V wr M_mu of an irreducible
  of a wreath product up from its Young-type subgroup, with class fusion
  on labels, the oracle for the Murnaghan-Nakayama kernel of
  `wreath.wreath_irreducible_character`.
- `surjection_series` counts weight-preserving surjections one exponent at a
  time, the oracle for `wordposet.fws_principal_series`.
- `elementwise_symmetric_table` composes every pair of permutations, the
  oracle for the generator-built table of `FiniteGroup.symmetric`.
- `is_homomorphism_on_all_pairs` tests emb(ab) = emb(a) emb(b) at all |H|^2
  pairs, the oracle for the generator check of
  `grouptheory.validate_embedding`.
- `conjugacy_classes` conjugates each element by every element of the
  group, the brute-force reference for the class columns of
  `grouptheory.character_table` and for `wreath.wreath_classes`.
- `moore_minimize` refines with one tuple signature per state and renumbers
  the blocks by its own breadth-first walk, the oracle for the column
  kernel of `langkit._minimize`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from operator import itemgetter

from quasilang.cyclotomic import CyclotomicNumber
from quasilang.errors import ValidationError
from quasilang.genfun import SeriesTruncation
from quasilang.grouptheory import CharacterTable, FiniteGroup, mn_character, multiplicity
from quasilang.langkit import Dfa
from quasilang.wordposet import WeightedWord, minimal_fiber_words, theta_vector
from quasilang.wreath import label_size, wreath_classes, wreath_group_order

# ---------------------------------------------------------------------------
# the ideal-side recognizer


class _Trie:
    def __init__(self, words):
        self.children: list[dict] = [{}]
        self.accepting: list[bool] = [False]
        for word in words:
            node = 0
            for w in word:
                nxt = self.children[node].get(w)
                if nxt is None:
                    nxt = len(self.children)
                    self.children.append({})
                    self.accepting.append(False)
                    self.children[node][w] = nxt
                node = nxt
            self.accepting[node] = True


class IdealRecognizer:
    """On-the-fly determinization of the principal-ideal language of x.

    Semantically identical to compiling principal_ideal_language(x): each
    accepting run spells some minimal word t over x with the input lying in
    the star-padded language of t, and the weight-invariant check cuts by the
    congruence class of x.  Configurations carry one trie node per opened
    fiber, ranging over the minimal weight words of that fiber.  A state is
    the frozenset of the configurations some run can be in after the input so
    far; it accepts when one of them does.  The successors of a configuration
    on a symbol are computed once and cached, since many states share a
    configuration.
    """

    def __init__(self, x: WeightedWord, letters=None):
        self.x = x
        self.alphabet = (
            tuple(letters) if letters is not None else tuple(sorted(set(x.letters), key=repr))
        )
        self.theta = theta_vector(x, self.alphabet)
        self.tries = [_Trie(minimal_fiber_words(x.group, w)) for w in x.weights]
        # the positions of each letter in x, ascending
        self.positions: dict = {}
        for i, a in enumerate(x.letters):
            self.positions.setdefault(a, []).append(i)
        self._successor_cache: dict[tuple, list[tuple]] = {}
        self._states: dict[frozenset, int] = {}
        self._configs: list[frozenset] = []
        self._accepting: list[bool] = []
        self._trans: dict[tuple[int, tuple], int] = {}
        self.start = self._intern(frozenset({()}))

    def _intern(self, configs: frozenset) -> int:
        sid = self._states.get(configs)
        if sid is None:
            sid = len(self._states)
            self._states[configs] = sid
            self._configs.append(configs)
            self._accepting.append(any(self._config_accepts(cfg) for cfg in configs))
        return sid

    def _config_accepts(self, cfg: tuple) -> bool:
        return len(cfg) == len(self.x) and all(
            self.tries[i].accepting[node] for i, node in enumerate(cfg)
        )

    def _successors(self, cfg: tuple, symbol) -> list[tuple]:
        key = (cfg, symbol)
        out = self._successor_cache.get(key)
        if out is not None:
            return out
        a, w = symbol
        out = []
        opened = len(cfg)
        positions = self.positions.get(a, ())
        for i in positions:
            if i < opened:
                # explicit position consumed by an open fiber
                child = self.tries[i].children[cfg[i]].get(w)
                if child is not None:
                    out.append(cfg[:i] + (child,) + cfg[i + 1 :])
            else:
                # open the next fiber
                if i == opened:
                    child = self.tries[opened].children[0].get(w)
                    if child is not None:
                        out.append(cfg + (child,))
                break
        # star filler: any symbol whose letter already appeared
        if positions and positions[0] < opened:
            out.append(cfg)
        self._successor_cache[key] = out
        return out

    def step(self, state: int, symbol) -> int:
        key = (state, symbol)
        nxt = self._trans.get(key)
        if nxt is None:
            new = set()
            for cfg in self._configs[state]:
                new.update(self._successors(cfg, symbol))
            nxt = self._trans[key] = self._intern(frozenset(new))
        return nxt

    def run(self, symbols) -> int:
        state = self.start
        for symbol in symbols:
            state = self.step(state, symbol)
        return state

    def accepts(self, y: WeightedWord) -> bool:
        if y.group != self.x.group:
            raise ValidationError("word over a different weight group")
        if not set(y.letters) <= set(self.alphabet):
            return False
        return self._accepting[self.run(y.symbols())] and theta_vector(y, self.alphabet) == self.theta


# ---------------------------------------------------------------------------
# the Frobenius-reciprocity oracle for diagonal inductions


def decompose_induced(table: CharacterTable, i: int, n: int) -> dict:
    """Multiplicities of the irreducibles of G^n in Ind along the diagonal of
    V_i, via Frobenius reciprocity: keys are index tuples (j_1, ..., j_n)."""
    if n < 1:
        raise ValidationError("decompose_induced needs n >= 1")
    nvars = len(table.rows)
    content_mult: dict = {}
    out = {}
    for combo in itertools.product(range(nvars), repeat=n):
        content = [0] * nvars
        for j in combo:
            content[j] += 1
        key = tuple(content)
        mult = content_mult.get(key)
        if mult is None:
            # the character of V_(j_1) x ... x V_(j_n) restricted to the diagonal
            tensor = []
            for c in range(table.n_classes):
                prod = CyclotomicNumber.one()
                for j, e in enumerate(key):
                    if e:
                        prod = prod * table.rows[j][c] ** e
                tensor.append(prod)
            mult = multiplicity(table.class_sizes, table.rows[i], tensor, "induction multiplicity")
            content_mult[key] = mult
        if mult:
            out[combo] = mult
    return out


def induced_monomial_image(table: CharacterTable, i: int, n: int) -> dict:
    """The degree-n coefficient of the Hilbert series as a polynomial in the
    irreducible variables: exponent vector -> integer coefficient."""
    poly: dict = {}
    for combo, mult in decompose_induced(table, i, n).items():
        content = [0] * len(table.rows)
        for j in combo:
            content[j] += 1
        key = tuple(content)
        poly[key] = poly.get(key, 0) + mult
    return poly


# ---------------------------------------------------------------------------
# the induction oracle for wreath characters


def _block_character(table: CharacterTable, v: int, mu: tuple[int, ...]) -> dict:
    """Character of V wr M_mu on the wreath product of degree |mu|:
    chi(sigma; g) = chi_mu(cycle type) * prod over cycles of chi_V(class of
    the cycle product)."""
    values = {}
    for label, _ in wreath_classes(table, sum(mu)):
        cycle_type = tuple(sorted(itertools.chain(*label), reverse=True))
        coeff = CyclotomicNumber.from_rational(mn_character(mu, cycle_type))
        for c, part in enumerate(label):
            if part:
                coeff = coeff * table.rows[v][c] ** len(part)
        values[label] = coeff
    return values


def _fuse(labels: tuple, n_classes: int) -> tuple:
    return tuple(
        tuple(sorted(itertools.chain(*(label[c] for label in labels)), reverse=True))
        for c in range(n_classes)
    )


def induced_wreath_character(table: CharacterTable, lam: tuple) -> dict:
    """The values {class label: CyclotomicNumber} of the irreducible labeled
    by lam: the blocks V wr M_(lam V) on the factors, induced up with
    combinatorial fusion.  A class no tuple of block classes fuses to gets
    the rational 0."""
    n = label_size(lam)
    slots = [v for v in range(len(lam)) if lam[v]]
    if not slots:
        return {((),) * table.n_classes: CyclotomicNumber.one()} if n == 0 else {}
    blocks = [_block_character(table, v, lam[v]) for v in slots]
    sizes = [sum(lam[v]) for v in slots]
    sub_order = 1
    for m in sizes:
        sub_order *= wreath_group_order(table, m)
    big_order = wreath_group_order(table, n)
    sums: dict = {}
    for combo in itertools.product(*(wreath_classes(table, m) for m in sizes)):
        sub_size = 1
        value = CyclotomicNumber.one()
        for (label, size), block in zip(combo, blocks):
            sub_size *= size
            value = value * block[label]
        fused = _fuse(tuple(label for label, _ in combo), table.n_classes)
        prev = sums.get(fused)
        contrib = value * sub_size
        sums[fused] = contrib if prev is None else prev + contrib
    values = {}
    for label, size in wreath_classes(table, n):
        acc = sums.get(label)
        if acc is None:
            values[label] = CyclotomicNumber.zero()
        else:
            values[label] = acc * Fraction(big_order, sub_order * size)
    return values


# ---------------------------------------------------------------------------
# the brute-force count of weighted surjections


def count_weighted_surjections(points, targets, group) -> int:
    """Functions from the weighted points onto the weighted targets whose
    fiber sums reproduce the target weights."""
    j = len(targets)
    if j == 0:
        return 1 if not points else 0
    if len(points) < j:
        return 0
    state = {(tuple([group.identity()] * j), 0): 1}
    for w in points:
        new: dict = {}
        for (sums, mask), cnt in state.items():
            for t in range(j):
                ns = sums[:t] + (group.add(sums[t], w),) + sums[t + 1 :]
                key = (ns, mask | (1 << t))
                new[key] = new.get(key, 0) + cnt
        state = new
    full = (1 << j) - 1
    return sum(cnt for (sums, mask), cnt in state.items() if mask == full and sums == tuple(targets))


def multinomial(exponents) -> int:
    out = factorial(sum(exponents))
    for e in exponents:
        out //= factorial(e)
    return out


def surjection_series(weights, group, bound: int) -> SeriesTruncation:
    """The series of `fws_principal_series` counted at every exponent n of the
    box: C_n times the surjections from the multiset [n] onto the weights."""
    elements = group.elements()
    bounds = (bound,) * len(elements)
    coeffs = {}
    for n in itertools.product(*(range(b + 1) for b in bounds)):
        points = [e for e, mult in zip(elements, n) for _ in range(mult)]
        count = count_weighted_surjections(points, tuple(weights), group)
        if count:
            coeffs[n] = multinomial(n) * count
    return SeriesTruncation(1, bounds, coeffs)


# ---------------------------------------------------------------------------
# symmetric groups and embeddings, element by element


def elementwise_symmetric_table(n: int) -> tuple[list, tuple]:
    """(table, labels) of S_n on the sorted permutations of range(n), with
    (p * q)(i) = p[q[i]]: column q lists p * q for every p, one composition
    and one lookup per entry."""
    elems = sorted(itertools.permutations(range(n)))
    if n < 2:
        return [(0,)], tuple(elems)
    index = {p: i for i, p in enumerate(elems)}
    # itemgetter(*q) returns a tuple only when n >= 2
    columns = [list(map(index.__getitem__, map(itemgetter(*q), elems))) for q in elems]
    return list(zip(*columns)), tuple(elems)


def is_homomorphism_on_all_pairs(G: FiniteGroup, H: FiniteGroup, emb) -> bool:
    return all(
        emb[H.table[a][b]] == G.table[emb[a]][emb[b]] for a in range(H.order) for b in range(H.order)
    )


def conjugacy_classes(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Classes as sorted index tuples, ordered by their minimal element: the
    orbit of each element under conjugation by every element of the group."""
    n = group.order
    assigned = [False] * n
    classes = []
    for x in range(n):
        if assigned[x]:
            continue
        orbit = {group.table[group.table[g][x]][group.inverse[g]] for g in range(n)}
        for y in orbit:
            assigned[y] = True
        classes.append(tuple(sorted(orbit)))
    return classes


# ---------------------------------------------------------------------------
# DFA minimization, state by state


def moore_minimize(dfa: Dfa) -> Dfa:
    """Moore refinement with one signature (block of q, blocks of q's
    successors) per state, blocks numbered by first occurrence, until a
    round changes nothing; then the reachable quotient renumbered by BFS
    from the start (alphabet order for ties)."""
    block = [1 if q in dfa.accepting else 0 for q in range(dfa.n_states)]
    while True:
        signature: dict = {}
        new_block = [
            signature.setdefault((block[q], *(block[t] for t in row)), len(signature))
            for q, row in enumerate(dfa.delta)
        ]
        if new_block == block:
            break
        block = new_block
    rows = dict(zip(block, dfa.delta))
    start = block[dfa.start]
    order, queue = {start: 0}, [start]
    for b in queue:
        for t in rows[b]:
            if block[t] not in order:
                order[block[t]] = len(order)
                queue.append(block[t])
    delta = [[order[block[t]] for t in rows[b]] for b in queue]
    accepting = {order[block[q]] for q in dfa.accepting if block[q] in order}
    return Dfa(dfa.alphabet, delta, 0, accepting)
