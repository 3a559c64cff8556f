"""The poset of weighted words over Sigma = L x Lambda.

A word s/sigma precedes t/tau when some ordered surjection f (fiber minima
increasing) pulls letters back (t = f*(s)) and pushes weights forward
(sigma = f_*(tau)).  This module implements the witness search, the
constructive refinement and deletion-lifting procedures, minimal words,
compilation of principal ideals to quasi-ordered languages, and Hilbert
series of principal projectives over weighted surjections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicNumber
from .errors import NoWitnessError, Payload, PreconditionError, ValidationError
from .genfun import FactoredRational, LinearForm, SeriesTruncation
from .langkit import (
    AbelianGroup,
    Concat,
    CongruenceSpec,
    Epsilon,
    QuasiOrderedExpr,
    Star,
    Sym,
    Union,
)


@dataclass(frozen=True)
class WeightedWord:
    """A word s/sigma: letters over L, a weight in Lambda at every position."""

    letters: tuple
    weights: tuple
    group: AbelianGroup

    def __len__(self) -> int:
        return len(self.letters)

    def symbols(self) -> tuple:
        return tuple([*zip(self.letters, self.weights)])

    def delete_from_right(self, positions) -> "WeightedWord":
        """Drop the letters at 1-based offsets from the right."""
        n = len(self)
        drop = {n - p for p in positions}
        keep = [i for i in range(n) if i not in drop]
        return WeightedWord(
            tuple([self.letters[i] for i in keep]),
            tuple([self.weights[i] for i in keep]),
            self.group,
        )

    def prefix(self, k: int) -> "WeightedWord":
        return WeightedWord(self.letters[:k], self.weights[:k], self.group)

    def to_json(self) -> dict:
        return {
            "letters": list(self.letters),
            "weights": [list(w) for w in self.weights],
            "orders": list(self.group.orders),
        }

    @classmethod
    def from_json(cls, data) -> "WeightedWord":
        p = Payload.of(data, "word")
        group, letters = AbelianGroup(p["orders"].ints(1)), p["letters"].strings()
        return cls(letters, p["weights"].rows(group.orders, len(letters)), group)


@dataclass(frozen=True)
class OrderedSurjection:
    """A surjection [m] -> [n] whose fiber minima increase with the target.

    `mapping[j]` is the 0-based image of position j; serialized forms use
    1-based conventions.
    """

    mapping: tuple
    target_size: int

    def __post_init__(self):
        m, n = len(self.mapping), self.target_size
        seen = [False] * n
        opened = 0
        for v in self.mapping:
            if not (0 <= v < n):
                raise ValidationError(f"target {v} out of range for [{n}]")
            if not seen[v]:
                if v != opened:
                    raise ValidationError("fiber minima are not increasing")
                seen[v] = True
                opened += 1
        if opened != n:
            raise ValidationError(f"map onto [{n}] is not surjective")

    @property
    def source_size(self) -> int:
        return len(self.mapping)

    def fiber(self, i: int) -> tuple:
        return tuple([j for j, v in enumerate(self.mapping) if v == i])

    def pull_letters(self, letters) -> tuple:
        return tuple([letters[v] for v in self.mapping])

    def push_weights(self, weights, group: AbelianGroup) -> tuple:
        sums = [group.identity()] * self.target_size
        for j, v in enumerate(self.mapping):
            sums[v] = group.add(sums[v], weights[j])
        return tuple(sums)

    def to_json(self) -> dict:
        return {"map": [v + 1 for v in self.mapping], "target_size": self.target_size}


def validate_witness(f: OrderedSurjection, x: WeightedWord, y: WeightedWord) -> bool:
    """Whether f witnesses x <= y: y = f*(x) on letters, x = f_*(y) on weights."""
    if f.source_size != len(y) or f.target_size != len(x):
        return False
    return (
        f.pull_letters(x.letters) == y.letters
        and f.push_weights(y.weights, x.group) == x.weights
    )


def weight_invariant(x: WeightedWord, letters=None) -> dict:
    """The per-letter sum of weights, zero on letters of L not used by x."""
    out = {a: x.group.identity() for a in (letters if letters is not None else set(x.letters))}
    for a, w in zip(x.letters, x.weights):
        if a not in out:
            raise ValidationError(f"letter {a!r} of the word is outside the given alphabet")
        out[a] = x.group.add(out[a], w)
    return out


def special_indices(x: WeightedWord) -> set[int]:
    """1-based first-occurrence positions of each letter."""
    seen = set()
    out = set()
    for i, a in enumerate(x.letters):
        if a not in seen:
            seen.add(a)
            out.add(i + 1)
    return out


def _is_special(letters, i: int) -> bool:
    """0-based variant used internally."""
    return letters[i] not in letters[:i]


# ---------------------------------------------------------------------------
# witness search


def _fiber_steps(x: WeightedWord, cfg: tuple, a, w):
    """The ways to map the next position of y, with letter a and weight w,
    onto x after a partial witness whose opened fibers have the running
    weight sums `cfg`: (fiber, new cfg) pairs, each opened fiber of letter a
    in ascending order, then the next fiber if its letter is a."""
    letters, add = x.letters, x.group.add
    for i, s in enumerate(cfg):
        if letters[i] == a:
            yield i, cfg[:i] + (add(s, w),) + cfg[i + 1 :]
    opened = len(cfg)
    if opened < len(letters) and letters[opened] == a:
        yield opened, cfg + (w,)


def leq(x: WeightedWord, y: WeightedWord):
    """Search for a witness of x <= y; None if there is none.

    Positions of y are mapped left to right by `_fiber_steps`, depth first,
    so the first complete map is the lexicographically least witness.  What
    a partial witness can still become depends only on the next position j
    and the fiber sums cfg, so each (j, cfg) that failed is kept in `dead`
    and never searched again: at most |y| times the number of fiber-sum
    tuples states, on an explicit stack.
    """
    if x.group != y.group:
        raise ValidationError("operands live over different weight groups")
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        return OrderedSurjection((), 0) if n == m else None
    if n > m:
        return None
    if weight_invariant(x, set(x.letters) | set(y.letters)) != weight_invariant(
        y, set(x.letters) | set(y.letters)
    ):
        return None
    dead = set()
    # entry k: the fiber of position k - 1, the sums after it, the steps of position k
    stack = [(None, (), _fiber_steps(x, (), y.letters[0], y.weights[0]))]
    while stack:
        j = len(stack)
        _, cfg, steps = stack[-1]
        for fiber, nxt in steps:
            if j == m:
                if nxt == x.weights:
                    return OrderedSurjection(tuple([e[0] for e in stack[1:]]) + (fiber,), n)
            elif (j, nxt) not in dead:
                stack.append((fiber, nxt, _fiber_steps(x, nxt, y.letters[j], y.weights[j])))
                break
        else:
            stack.pop()
            dead.add((j - 1, cfg))
    return None


# ---------------------------------------------------------------------------
# constructive refinement of witnesses


def _pin_last(x: WeightedWord, y: WeightedWord, g: OrderedSurjection) -> OrderedSurjection:
    """Rebuild a witness so the last fiber is the singleton {last position}.

    Requires equal final letters and matching specialness of the final index.
    """
    n, m = len(x), len(y)
    mapping = list(g.mapping)
    last_fiber = [j for j, v in enumerate(mapping) if v == n - 1]
    if last_fiber == [m - 1]:
        return g
    a = x.letters[n - 1]
    if mapping[m - 1] == n - 1:
        # move the extra elements (their weights sum to zero) onto an earlier a-fiber
        cands = [i for i in range(n - 1) if x.letters[i] == a]
        if not cands:
            raise PreconditionError("specialness mismatch at the final index")
        k = cands[0]
        for j in last_fiber:
            if j != m - 1:
                mapping[j] = k
    else:
        k = mapping[m - 1]
        extra = [j for j in range(m - 1) if mapping[j] == k]
        if not extra:
            raise PreconditionError("specialness mismatch at the final index")
        for j in last_fiber:
            mapping[j] = k
        mapping[m - 1] = n - 1
    f = OrderedSurjection(tuple(mapping), n)
    if not validate_witness(f, x, y):
        raise PreconditionError("cannot pin the final fiber; preconditions violated")
    return f


def _refine(x: WeightedWord, y: WeightedWord, r: int, g: OrderedSurjection) -> OrderedSurjection:
    """Rebuild g so the final r fibers are the pinned singletons."""
    if r == 0:
        return g
    h = _pin_last(x, y, g)
    x1, y1 = x.prefix(len(x) - 1), y.prefix(len(y) - 1)
    g1 = OrderedSurjection(h.mapping[:-1], len(x) - 1)
    f1 = _refine(x1, y1, r - 1, g1)
    return OrderedSurjection(f1.mapping + (len(x) - 1,), len(x))


def _check_suffix_conditions(x: WeightedWord, y: WeightedWord, r: int) -> None:
    n, m = len(x), len(y)
    if not (0 <= r <= n and r <= m):
        raise PreconditionError(f"suffix length r={r} out of range")
    if (x.letters[n - r :], x.weights[n - r :]) != (y.letters[m - r :], y.weights[m - r :]):
        raise PreconditionError("the final r letters of the two words differ")
    for i in range(r):
        if _is_special(x.letters, n - 1 - i) != _is_special(y.letters, m - 1 - i):
            raise PreconditionError(f"specialness differs at offset -{i + 1}")


def refine_witness(x: WeightedWord, y: WeightedWord, r: int) -> OrderedSurjection:
    """A witness of x <= y whose last r fibers are the singletons {m-i}.

    Preconditions: the final r letters coincide as weighted words and the
    specialness of each of those positions matches between x and y.
    """
    _check_suffix_conditions(x, y, r)
    g = leq(x, y)
    if g is None:
        raise NoWitnessError("the order relation x <= y does not hold")
    f = _refine(x, y, r, g)
    if not validate_witness(f, x, y):
        raise AssertionError("refinement produced an invalid witness")
    return f


def deletion_lift(
    x: WeightedWord,
    y: WeightedWord,
    r: int,
    betas,
    witness_sub: OrderedSurjection,
) -> OrderedSurjection:
    """Lift a witness of the deleted words x' <= y' to a witness of x <= y.

    x' and y' drop the same 1-based offsets-from-the-right `betas` (all <= r);
    the suffix conditions for window r must hold for (x, y).
    """
    betas = tuple(sorted(betas))
    _check_suffix_conditions(x, y, r)
    if any(not (1 <= b <= r) for b in betas):
        raise PreconditionError(f"deleted offsets {betas} not within the window 1..{r}")
    if len(set(betas)) != len(betas):
        raise PreconditionError("deleted offsets must be distinct")
    x_del = x.delete_from_right(betas)
    y_del = y.delete_from_right(betas)
    if not validate_witness(witness_sub, x_del, y_del):
        raise ValidationError("witness_sub does not witness the deleted relation")
    if not betas:
        return _refine(x, y, r, witness_sub)

    def lift_one(xc: WeightedWord, yc: WeightedWord, pos: int, w: OrderedSurjection) -> OrderedSurjection:
        # pos is the 1-based offset from the right of the reinserted letter
        refined = _refine(
            xc.delete_from_right((pos,)), yc.delete_from_right((pos,)), pos - 1, w
        )
        dx, dy = len(xc) - pos, len(yc) - pos
        mapping = []
        for j in range(len(yc)):
            if j < dy:
                mapping.append(refined.mapping[j])
            elif j == dy:
                mapping.append(dx)
            else:
                mapping.append(refined.mapping[j - 1] + 1)
        f = OrderedSurjection(tuple(mapping), len(xc))
        if not validate_witness(f, xc, yc):
            raise ValidationError("deletion lift failed to produce a witness")
        return f

    w = witness_sub
    for k in range(len(betas) - 1, -1, -1):
        prior = betas[:k]
        xc = x.delete_from_right(prior)
        yc = y.delete_from_right(prior)
        w = lift_one(xc, yc, betas[k] - k, w)
    return w


# ---------------------------------------------------------------------------
# zero-sum blocks and deletable suffix blocks


def zero_sum_block(sigma, group: AbelianGroup):
    """A contiguous 1-based block (i, j) of sigma with zero sum, or None.

    Scans partial sums (including the empty one) for the earliest repeat;
    guaranteed to succeed when len(sigma) > #Lambda.
    """
    seen = {group.identity(): 0}
    total = group.identity()
    for j, w in enumerate(sigma, start=1):
        total = group.add(total, w)
        if total in seen:
            return (seen[total] + 1, j)
        seen[total] = j
    return None


def find_deletable_block(x: WeightedWord, letters=None):
    """Offsets (betas, gamma) from the right with equal letters at all of them
    and zero total weight over the betas; requires len(x) >= #L * (#Lambda + 2)."""
    alphabet = tuple(letters) if letters is not None else tuple(sorted(set(x.letters), key=repr))
    k = x.group.size + 2
    r = len(alphabet) * k
    n = len(x)
    if n < r:
        raise PreconditionError(f"word of length {n} is shorter than the window {r}")
    counts: dict = {}
    occurrences = None
    for offset in range(1, r + 1):
        a = x.letters[n - offset]
        counts.setdefault(a, []).append(offset)
        if len(counts[a]) == k:
            occurrences = counts[a]
            break
    if occurrences is None:
        raise AssertionError("pigeonhole failed; window arithmetic is wrong")
    sub = [x.weights[n - off] for off in occurrences[: k - 1]]
    block = zero_sum_block(sub, x.group)
    i, j = block
    betas = tuple(occurrences[i - 1 : j])
    gamma = occurrences[j]
    return betas, gamma


# ---------------------------------------------------------------------------
# minimal words and principal ideals


@lru_cache(maxsize=None)
def minimal_fiber_words(group: AbelianGroup, total) -> tuple:
    """All weight words with the given sum whose tail (positions 2..) has no
    nonempty zero-sum subsequence; the head absorbs the rest of the sum."""
    results: list = []
    _fiber_words(group, total, (), frozenset(), results)
    return tuple(sorted(results))


def _fiber_words(group: AbelianGroup, total, tail: tuple, sums: frozenset, results: list) -> None:
    """Append to `results` the word (head,) + tail and every extension of
    `tail` whose nonempty subsequences still avoid the sum zero; `sums` holds
    the sums of the nonempty subsequences of `tail`."""
    head = group.add(total, group.neg(group.sum(tail)))
    results.append((head,) + tail)
    for w in group.elements():
        if w == group.identity() or group.neg(w) in sums:
            continue
        new_sums = frozenset({w}) | sums | frozenset(group.add(a, w) for a in sums)
        _fiber_words(group, total, tail + (w,), new_sums, results)


def _interleavings(remaining: list, opened: int, acc: list):
    """Sequences extending `acc` that place remaining[i] more copies of fiber
    i, first occurrences in order: fibers below `opened` have occurred."""
    if not any(remaining):
        yield tuple(acc)
        return
    for i in range(min(opened + 1, len(remaining))):
        if remaining[i]:
            remaining[i] -= 1
            acc.append(i)
            yield from _interleavings(remaining, max(opened, i + 1), acc)
            acc.pop()
            remaining[i] += 1


def minimal_words_over(x: WeightedWord) -> set[WeightedWord]:
    """The complete finite set of words minimal over x: each arises from an
    ordered surjection whose fibers carry minimal weight words."""
    n = len(x)
    if n == 0:
        return {x}
    choices = [minimal_fiber_words(x.group, w) for w in x.weights]
    out: set[WeightedWord] = set()
    for fiber_words in itertools.product(*choices):
        for pattern in _interleavings([len(w) for w in fiber_words], 0, []):
            counters = [0] * n
            letters = []
            weights = []
            for i in pattern:
                letters.append(x.letters[i])
                weights.append(fiber_words[i][counters[i]])
                counters[i] += 1
            out.add(WeightedWord(tuple(letters), tuple(weights), x.group))
    return out


def theta_vector(x: WeightedWord, alphabet) -> tuple:
    inv = weight_invariant(x, alphabet)
    flat = []
    for a in alphabet:
        flat.extend(inv[a])
    return tuple(flat)


def principal_ideal_language(
    x: WeightedWord, letters=None, reduced_stars: bool = False
) -> QuasiOrderedExpr:
    """The ideal {y : x <= y} as an ordered language cut by the congruence
    fixing the weight invariant of x.

    Each minimal word t contributes the branch (t_1) Pi_1* (t_2) Pi_2* ...
    with Pi_k all weighted letters seen so far.  With reduced_stars the k-th
    star excludes the symbol t_(k+1), which forces the leftmost parse: the
    language is unchanged but each branch becomes unambiguous, so that
    `genfun.closed` can certify a branch and count it.
    """
    alphabet = tuple(letters) if letters is not None else tuple(sorted(set(x.letters), key=repr))
    if len(set(alphabet)) < len(alphabet):
        a = next(a for i, a in enumerate(alphabet) if a in alphabet[:i])
        raise ValidationError(f"letter {a!r} is repeated")
    if not set(x.letters) <= set(alphabet):
        raise ValidationError("the ambient alphabet must contain the word's letters")
    group = x.group
    elements = group.elements()
    sigma = tuple([(a, w) for a in alphabet for w in elements])

    branches = []
    for t in sorted(minimal_words_over(x), key=lambda w: (w.letters, w.weights)):
        symbols = t.symbols()
        parts = []
        seen: list = []
        for k, (a, w) in enumerate(symbols):
            parts.append(Sym((a, w)))
            if a not in seen:
                seen.append(a)
            star = {(b, v) for b in seen for v in elements}
            if reduced_stars and k + 1 < len(symbols):
                star.discard(symbols[k + 1])
            parts.append(Star(tuple(star)))
        branches.append(Concat(tuple(parts)) if parts else Epsilon())
    ordered = Union(tuple(branches))

    big_group = AbelianGroup(group.orders * len(alphabet))
    rank = len(group.orders)
    phi = {}
    for a, w in sigma:
        slot = alphabet.index(a)
        vec = [0] * (rank * len(alphabet))
        vec[slot * rank : (slot + 1) * rank] = list(w)
        phi[(a, w)] = tuple(vec)
    target = {theta_vector(x, alphabet)}
    return QuasiOrderedExpr(ordered, CongruenceSpec(big_group, phi, target, sigma))


# ---------------------------------------------------------------------------
# the lazily determinized order test


class UpsetRecognizer:
    """On-the-fly determinization of the direct order test {y : x <= y}.

    A state is the frozenset of the fiber-sum tuples that partial ordered
    surjections onto x can reach after the input so far, stepped by
    `_fiber_steps` as in `leq`: the lazy DFA runs every witness search at
    once, with no reference to minimal words.  It accepts when one of them
    is the weight word of x.
    """

    def __init__(self, x: WeightedWord):
        self.x = x
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
            self._accepting.append(self.x.weights in configs)
        return sid

    def step(self, state: int, symbol) -> int:
        key = (state, symbol)
        nxt = self._trans.get(key)
        if nxt is None:
            a, w = symbol
            new = {cfg for prev in self._configs[state] for _, cfg in _fiber_steps(self.x, prev, a, w)}
            nxt = self._trans[key] = self._intern(frozenset(new))
        return nxt

    def run(self, symbols) -> int:
        state = self.start
        for symbol in symbols:
            state = self.step(state, symbol)
        return state

    def accepts(self, y: WeightedWord) -> bool:
        return self._accepting[self.run(y.symbols())]


# ---------------------------------------------------------------------------
# Hilbert series of principal projectives over weighted surjections


def fws_principal_series(weights, group: AbelianGroup, bound: int):
    """Hilbert series of the principal projective at a weighted set.

    The coefficient of t^n (n over the elements of Lambda) is C_n times the
    number of weight-preserving surjections from the multiset [n] onto the
    given weighted set, with C_n the multinomial coefficient.  Returns that
    series, truncated at `bound` with int coefficients, together with the
    closed form it is expanded from, which is never None: inclusion-exclusion
    over the image S of the surjection and character orthogonality on each
    fiber sum give

        sum_S (-1)^(k-|S|) [w_i = 0 off S] |Lambda|^-|S| sum_(chi in dual^S)
            prod_(i in S) chi_i(w_i)^-1 / (1 - sum_g (sum_(i in S) chi_i(g)) t_g).

    The multiset of the chi_i fixes the linear form, so the terms are summed
    per multiset and each form with a nonzero coefficient is added once.
    """
    weights = tuple(weights)
    elements = group.elements()
    nvars = len(elements)

    # chi_m(g) = zeta_N^char_exponent(m, g) for m in Lambda; None leaves point i
    # out of the image S, which only a zero weight allows
    N = group.exponent
    options = [elements + [None] if w == group.identity() else elements for w in weights]
    coefficient: dict = {}
    for choice in itertools.product(*options):
        chars = tuple(sorted(m for m in choice if m is not None))
        power = -sum(group.char_exponent(m, w) for m, w in zip(choice, weights) if m is not None)
        term = CyclotomicNumber.root(N, power) * (-1) ** (len(weights) - len(chars))
        coefficient[chars] = coefficient[chars] + term if chars in coefficient else term
    terms = []
    for chars in sorted(coefficient):
        c = coefficient[chars]
        if c.is_zero():
            continue
        form = {
            v: sum(
                (CyclotomicNumber.root(N, group.char_exponent(m, g)) for m in chars),
                CyclotomicNumber.zero(N),
            )
            for v, g in enumerate(elements)
        }
        terms.append((LinearForm(form), c * Fraction(1, group.size ** len(chars))))
    closed = FactoredRational.geometric_sum(nvars, terms)
    # each coefficient counts surjections: a natural number, kept as an int
    expanded = closed.expand((bound,) * nvars)
    counts = {}
    for e, c in expanded.coefficients.items():
        if type(c) is not int:
            assert c.is_rational() and c.is_integral(), f"coefficient {c!r} at {e} is not an integer"
            c = c.rational_value().numerator
        assert c > 0, f"coefficient {c} at {e} is negative"
        counts[e] = c
    return SeriesTruncation(1, expanded.bound, counts), closed
