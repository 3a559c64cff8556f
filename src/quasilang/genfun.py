"""Multivariate generating functions of languages.

Closed forms live in the class K_N: rational functions with coefficients in
Q(zeta_N) whose denominator is a product of factors (1 - lambda_k), each
lambda_k a Z[zeta_N]-integral linear form in the variables.  The factored
shape is maintained constructively end to end; no factorization of general
denominators is ever attempted.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add, gt, le, mul

from .cyclotomic import (
    CyclotomicNumber,
    _field,
    _make,
    cyclotomic_from_json,
    cyclotomic_to_json,
    integer_coordinates,
)
from .errors import AmbiguousExpressionError, Payload, ValidationError
from .langkit import (
    AbelianGroup,
    Concat,
    Dfa,
    Empty,
    Epsilon,
    Norm,
    QuasiOrderedExpr,
    Star,
    Sym,
    Union,
    compile_ordered,
    intersect_dfa,
)

# ---------------------------------------------------------------------------
# the integer polynomial kernel
#
# A numerator over Q(zeta_N) is a list of phi(N) dicts, one per power-basis
# coordinate, each mapping exponents to the integer numerators of that
# coordinate, over one positive common denominator kept beside it.
# Multiplication by a field element c is a tuple of entries (k, j, m):
# coordinate k of the product gains m times coordinate j of the other
# factor.  Products by linear factors pack each exponent e into the int
# sum_v e_v units[v], its digits in a radix above every coordinate that
# occurs, so that a shift by t_v is one addition.


def _entries(c: CyclotomicNumber, scale: int, rows) -> tuple:
    """The entries of multiplication by scale * c, an integral element; c
    is at the order of `rows` and its denominator divides scale."""
    a = [x * (scale // c._den) for x in c._num]
    d = len(a)
    out = []
    for j in range(d):
        col = [0] * d
        for i, x in enumerate(a):
            if x:
                for k, r in rows[i + j]:
                    col[k] += x * r
        out.extend((k, j, m) for k, m in enumerate(col) if m)
    return tuple(out)


def _form_steps(form: "LinearForm", order: int, rows, units) -> tuple[int, list]:
    """(L, steps) with L the lcm of the denominators of the form's
    coefficients c_v and steps the pairs (units[v], entries of L c_v)."""
    terms = [(v, c.lift(order)) for v, c in form.terms]
    scale = lcm(*[c._den for _, c in terms])
    return scale, [(units[v], _entries(c, scale, rows)) for v, c in terms]


def _nonzero(p: list[dict]) -> list[dict]:
    return [{e: x for e, x in col.items() if x} for col in p]


def _one(d: int, e) -> list[dict]:
    """The monomial t^e in d coordinates."""
    return [{e: 1}] + [{} for _ in range(d - 1)]


def _times(p: list[dict], entries, d: int) -> list[dict]:
    """p times the field element of `entries`, in d coordinates."""
    out = [{} for _ in range(d)]
    for k, j, m in entries:
        dst = out[k]
        for e, x in p[j].items():
            dst[e] = dst.get(e, 0) + m * x
    return out


def _lifted(p: list[dict], source: int, order: int, rows) -> list[dict]:
    """p, at order source, in the field of `rows`, of the multiple `order`."""
    if source == order:
        return p
    step = order // source
    entries = [(k, i, r) for i in range(len(p)) for k, r in rows[i * step]]
    return _times(p, entries, _field(order)[0])


def _times_factor(p: list[dict], scale: int, steps) -> list[dict]:
    """p * (scale - sum_v a_v t_v) on packed exponents, for the steps
    (packed t_v, entries of a_v) of `_form_steps`."""
    out = [{e: scale * x for e, x in col.items()} for col in p]
    for unit, entries in steps:
        for k, j, m in entries:
            dst = out[k]
            for e, x in p[j].items():
                e += unit
                dst[e] = dst.get(e, 0) - m * x
    return _nonzero(out)


def _sum(p: list[dict], p_den: int, q: list[dict], q_den: int) -> tuple[list[dict], int]:
    """p / p_den + q / q_den over the lcm of the two denominators."""
    den = lcm(p_den, q_den)
    a, b = den // p_den, den // q_den
    out = [{e: a * x for e, x in col.items()} for col in p]
    for dst, col in zip(out, q):
        for e, x in col.items():
            dst[e] = dst.get(e, 0) + b * x
    return _nonzero(out), den


def _units(radix: int, nvars: int) -> list[int]:
    return [radix ** (nvars - 1 - v) for v in range(nvars)]


def _strides(bound) -> list[int]:
    """The strides of the box of exponents <= bound: exponent e sits at index
    sum_i e_i * stride_i, the last coordinate varying fastest."""
    strides = [1] * len(bound)
    for i in range(len(bound) - 1, 0, -1):
        strides[i - 1] = strides[i] * (bound[i] + 1)
    return strides


def _pack(p: list[dict], units) -> list[dict]:
    return [{sum(map(mul, e, units)): x for e, x in col.items()} for col in p]


def _unpack(p: list[dict], units) -> list[dict]:
    exponents = {}
    for key in set().union(*p):
        e, rest = [], key
        for unit in units:
            x, rest = divmod(rest, unit)
            e.append(x)
        exponents[key] = tuple(e)
    return [{exponents[key]: x for key, x in col.items()} for col in p]


class LinearForm:
    """A finitely supported linear form sum_i c_i t_i with cyclotomic c_i."""

    __slots__ = ("terms",)

    def __init__(self, coeffs: dict):
        self.terms = tuple(
            sorted(((v, c) for v, c in coeffs.items() if not c.is_zero()), key=lambda t: t[0])
        )

    def lift(self, order: int) -> "LinearForm":
        return LinearForm({v: c.lift(order) for v, c in self.terms})

    def key(self, order: int):
        return tuple([(v, c.lift(order).coeffs) for v, c in self.terms])

    def is_integral(self) -> bool:
        return all(c.is_integral() for _, c in self.terms)

    def scaled_vars(self, scale: dict[int, CyclotomicNumber]) -> "LinearForm":
        return LinearForm({v: (c * scale[v] if v in scale else c) for v, c in self.terms})

    def __repr__(self) -> str:
        return " + ".join(f"({c!r})*t{v}" for v, c in self.terms) or "0"


class FactoredRational:
    """num / (den * prod_k (1 - lambda_k)) with everything over Q(zeta_order).

    `num` holds one dict per power-basis coordinate of Q(zeta_order), from
    exponent tuples to integer numerators over the one positive common
    denominator `den`; the pair is in lowest terms and stores no zero.  The
    "1 -" of each denominator factor is implicit: `factors` stores the
    linear forms lambda_k themselves, lifted to the order and sorted by their
    key, which never have a constant term.  CyclotomicNumbers appear only at
    the edges: the JSON forms and the coefficients that `expand` returns.
    """

    __slots__ = ("nvars", "order", "num", "den", "factors")

    def __init__(self, nvars: int, order: int, num: list[dict], den: int = 1, factors=()):
        num = _nonzero(num)
        if den != 1:
            g = gcd(den, *itertools.chain.from_iterable(col.values() for col in num))
            if g != 1:
                num = [{e: x // g for e, x in col.items()} for col in num]
                den //= g
        self.nvars = nvars
        self.order = order
        self.num = num
        self.den = den
        self.factors = tuple(
            sorted((f.lift(order) for f in factors), key=lambda f: f.key(order))
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "FactoredRational":
        return cls(nvars, 1, [{}])

    @classmethod
    def constant(cls, nvars: int, value) -> "FactoredRational":
        c = value if isinstance(value, CyclotomicNumber) else CyclotomicNumber.from_rational(value)
        return cls(nvars, c.order, [{(0,) * nvars: x} for x in c._num], c._den)

    @classmethod
    def one(cls, nvars: int) -> "FactoredRational":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, var: int) -> "FactoredRational":
        e = [0] * nvars
        e[var] = 1
        return cls(nvars, 1, [{tuple(e): 1}])

    @classmethod
    def geometric(cls, nvars: int, form: LinearForm) -> "FactoredRational":
        """1 / (1 - form)."""
        order = lcm(*[c.order for _, c in form.terms])
        return cls(nvars, order, _one(_field(order)[0], (0,) * nvars), 1, (form,))

    @classmethod
    def geometric_sum(cls, nvars: int, terms) -> "FactoredRational":
        """sum_j c_j / (1 - form_j) over (form_j, c_j) pairs.

        The denominator is prod_j (1 - form_j), with no factor for a zero
        form, so the forms should be distinct.  The numerator is built in one
        pass, N <- N (1 - form_j) + c_j P and P <- P (1 - form_j), which costs
        two products by a linear polynomial per term where pairwise `+`
        rebuilds P each time.  N and P never reach degree len(terms) + 1 in
        a variable, which is the radix of their packed exponents.
        """
        order = 1
        for form, c in terms:
            order = lcm(order, c.order, *[v.order for _, v in form.terms])
        d, rows = _field(order)
        units = _units(len(terms) + 1, nvars)
        num, num_den = [{} for _ in range(d)], 1
        den, den_den = _one(d, 0), 1
        factors = []
        for form, c in terms:
            c = c.lift(order)
            term, term_den = _times(den, _entries(c, c._den, rows), d), den_den * c._den
            if form.terms:
                scale, steps = _form_steps(form, order, rows, units)
                num, num_den = _times_factor(num, scale, steps), num_den * scale
                den, den_den = _times_factor(den, scale, steps), den_den * scale
                factors.append(form)
            num, num_den = _sum(num, num_den, term, term_den)
        return cls(nvars, order, _unpack(num, units), num_den, factors)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "FactoredRational") -> None:
        if self.nvars != other.nvars:
            raise ValidationError("operands have different variable counts")

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        order = lcm(self.order, other.order)
        rows = _field(order)[1]
        # multiset cancellation of syntactically identical linear factors; at
        # one order the integer coordinates identify a coefficient
        forms = {}

        def ident(f: LinearForm) -> tuple:
            f = f.lift(order)
            key = tuple([(v, c._num, c._den) for v, c in f.terms])
            forms.setdefault(key, f)
            return key

        ca = Counter(map(ident, self.factors))
        cb = Counter(map(ident, other.factors))
        common = ca & cb
        extra_a = ca - common
        extra_b = cb - common
        top = max(itertools.chain.from_iterable(set().union(*self.num, *other.num)), default=0)
        units = _units(top + max(extra_a.total(), extra_b.total()) + 1, self.nvars)

        def times_extra(F: "FactoredRational", extra: Counter) -> tuple[list[dict], int]:
            p, den = _pack(_lifted(F.num, F.order, order, rows), units), F.den
            for key, mult in extra.items():
                scale, steps = _form_steps(forms[key], order, rows, units)
                for _ in range(mult):
                    p, den = _times_factor(p, scale, steps), den * scale
            return p, den

        num, den = _sum(*times_extra(self, extra_b), *times_extra(other, extra_a))
        all_factors = list(common.elements()) + list(extra_a.elements()) + list(extra_b.elements())
        return FactoredRational(
            self.nvars, order, _unpack(num, units), den, tuple([forms[k] for k in all_factors])
        )

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        order = lcm(self.order, other.order)
        d, rows = _field(order)
        b = _lifted(other.num, other.order, order, rows)
        num = [{} for _ in range(d)]
        for i, a_col in enumerate(_lifted(self.num, self.order, order, rows)):
            for j, b_col in enumerate(b):
                for k, r in rows[i + j]:
                    dst = num[k]
                    for e1, x in a_col.items():
                        for e2, y in b_col.items():
                            e = tuple([*map(add, e1, e2)])
                            dst[e] = dst.get(e, 0) + r * x * y
        return FactoredRational(self.nvars, order, num, self.den * other.den, self.factors + other.factors)

    def scale(self, c) -> "FactoredRational":
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(c)
        order = lcm(self.order, c.order)
        d, rows = _field(order)
        c = c.lift(order)
        num = _times(_lifted(self.num, self.order, order, rows), _entries(c, c._den, rows), d)
        return FactoredRational(self.nvars, order, num, self.den * c._den, self.factors)

    def __neg__(self) -> "FactoredRational":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral_denominator(self) -> bool:
        """K_N shape check: all denominator linear forms lie in Z[zeta_N]."""
        return all(f.is_integral() for f in self.factors)

    # -- substitutions -------------------------------------------------------

    def translate(self, exponents, root_order: int | None = None) -> "FactoredRational":
        """Substitute t_i <- zeta^(k_i) t_i with zeta primitive of root_order:
        the coefficient of t^n picks up prod_i zeta^(k_i n_i)."""
        if len(exponents) != self.nvars:
            raise ValidationError("need one root-of-unity exponent per variable")
        ro = root_order or self.order
        order = lcm(self.order, ro)
        d, rows = _field(order)
        # coordinate i of the coefficient of t^e is x^(i step) times
        # zeta_ro^(k.e) = x^(unit k.e) in Q(zeta_order)
        step, unit = order // self.order, order // ro
        num = [{} for _ in range(d)]
        for i, col in enumerate(self.num):
            for e, x in col.items():
                for k, r in rows[(i * step + unit * sum(map(mul, exponents, e))) % order]:
                    num[k][e] = num[k].get(e, 0) + r * x
        scale = {i: CyclotomicNumber.root(ro, k).lift(order) for i, k in enumerate(exponents)}
        factors = tuple([f.lift(order).scaled_vars(scale) for f in self.factors])
        return FactoredRational(self.nvars, order, num, self.den, factors)

    # -- expansion ------------------------------------------------------------

    def expand(self, bound) -> "SeriesTruncation":
        """The coefficients of the exponents <= bound.

        An exponent e is kept as its index sum_v e_v * stride_v in the box,
        the last coordinate varying fastest, and each power-basis coordinate
        as one int list over the box.  Index i has e_v < bound_v exactly when
        i mod stride_v (bound_v + 1) < stride_v bound_v, and then e + t_v has
        index i + stride_v.  With L the lcm of the denominators
        of the factor coefficients, entry e holds L^|e| times the
        coefficient, so dividing by 1 - sum_v c_v t_v is the integer
        recursion U[e] += sum_v (L c_v) U[e - t_v] in index order.  Each
        coefficient is divided by den L^|e| once, at the end.
        """
        if isinstance(bound, int):
            bound = (bound,) * self.nvars
        bound = tuple(bound)
        if len(bound) != self.nvars:
            raise ValidationError("bound must have one coordinate per variable")
        if min(bound, default=0) < 0:
            return SeriesTruncation(self.order, bound, {})
        order = self.order
        rows = _field(order)[1]
        strides = _strides(bound)
        size = prod(b + 1 for b in bound)
        scale = lcm(*[c._den for f in self.factors for _, c in f.terms])
        powers = [scale**n for n in range(sum(bound) + 1)]
        cols = []
        for col in self.num:
            out = [0] * size
            for e, x in col.items():
                if all(map(le, e, bound)):
                    out[sum(map(mul, e, strides))] = powers[sum(e)] * x
            cols.append(out)
        boxes = [(s, s * (b + 1), s * b) for s, b in zip(strides, bound)]
        for f in self.factors:
            steps = [
                (*boxes[v], tuple([(cols[k], cols[j], m) for k, j, m in _entries(c, scale, rows)]))
                for v, c in f.terms
                if bound[v]
            ]
            for i in range(size):
                for stride, period, limit, entries in steps:
                    if i % period < limit:
                        t = i + stride
                        for dst, src, m in entries:
                            x = src[i]
                            if x:
                                dst[t] += m * x
        coeffs = {}
        for e, vec in zip(itertools.product(*[range(b + 1) for b in bound]), zip(*cols)):
            if any(vec):
                s = self.den * powers[sum(e)]
                if order == 1 and vec[0] % s == 0:
                    coeffs[e] = vec[0] // s
                else:
                    coeffs[e] = _make(order, vec, s)
        return SeriesTruncation(order, bound, coeffs)

    def __repr__(self) -> str:
        return (
            f"FactoredRational(order={self.order}, num={len(set().union(*self.num))} terms, "
            f"{len(self.factors)} factors)"
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        order, num, den = self.order, self.num, self.den
        return {
            "nvars": self.nvars,
            "order": order,
            "numerator": [
                [list(e), cyclotomic_to_json(_make(order, [col.get(e, 0) for col in num], den))]
                for e in sorted(set().union(*num))
            ],
            "factors": [
                [[v, cyclotomic_to_json(c)] for v, c in f.terms] for f in self.factors
            ],
        }

    @classmethod
    def from_json(cls, data) -> "FactoredRational":
        p = Payload.of(data, "rational")
        nvars = p["nvars"].int(0)
        numerator = p["numerator"].pairs(lambda e: e.ints(0, length=nvars), cyclotomic_from_json, "exponent")
        factors = [
            LinearForm(terms.pairs(lambda v: v.int(0, nvars), cyclotomic_from_json, "variable"))
            for terms in p["factors"].list()
        ]
        order = p["order"].int(1)
        numerator = {e: c.lift(order) for e, c in numerator.items() if not c.is_zero()}
        _, nums, den = integer_coordinates(numerator.values(), order)
        num = [{e: x[k] for e, x in zip(numerator, nums)} for k in range(_field(order)[0])]
        return cls(nvars, order, num, den, factors)


class SeriesTruncation:
    """Exact truncated power series: coefficients for exponents <= bound, each
    a nonzero `int` (the order-1 number it stands for) or `CyclotomicNumber`.

    `SeriesTruncation(...)` keeps what it is given: `from_json` reads the
    exponents in the box, and `expand` and the DFA word counter build them so."""

    __slots__ = ("order", "bound", "coefficients")

    def __init__(self, order: int, bound: tuple[int, ...], coefficients: dict):
        self.order, self.bound, self.coefficients = order, tuple(bound), coefficients

    def coefficient(self, exponent) -> CyclotomicNumber:
        c = self.coefficients.get(tuple(exponent))
        if c is None:
            return CyclotomicNumber.zero(self.order)
        return CyclotomicNumber.from_rational(c) if type(c) is int else c

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTruncation):
            return NotImplemented
        if self.bound != other.bound:
            return False
        a, b = self.coefficients, other.coefficients
        return all(a.get(e, 0) == b.get(e, 0) for e in a.keys() | b.keys())

    __hash__ = None

    def __repr__(self) -> str:
        return f"SeriesTruncation(bound={self.bound}, {len(self.coefficients)} nonzero)"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "bound": list(self.bound),
            "coefficients": [
                [list(e), cyclotomic_to_json(c)] for e, c in sorted(self.coefficients.items())
            ],
        }

    @classmethod
    def from_json(cls, data) -> "SeriesTruncation":
        """A series whose exponents have one coordinate per bound coordinate
        and lie within the bound; zero coefficients are dropped."""
        p = Payload.of(data, "series")
        order, bound = p["order"].int(1), p["bound"].ints(0)

        def exponent(e: Payload) -> tuple:
            x = e.ints(0, length=len(bound))
            if any(map(gt, x, bound)):
                raise e.expected(f"an exponent within the bound {list(bound)}")
            return x

        coeffs = p["coefficients"].pairs(exponent, cyclotomic_from_json, "exponent")
        return cls(order, bound, {e: c for e, c in coeffs.items() if c})


# ---------------------------------------------------------------------------
# series from automata: the DFA word counter


def series_from_dfa(dfa: Dfa, norm: Norm, bound) -> SeriesTruncation:
    """Count the accepted words of norm <= bound, one word length L at a time.

    Each symbol adds 1 to one coordinate, so a word of length L has |e| = L
    and its last coordinate is implied.  The coordinates before it split
    into leading ones and a trailing block, the longest run before the last
    whose box has at most 64 exponents (possibly none).  Each live state
    (one that reaches an accepting state) maps the box index of the leading
    coordinates, its key, to one int packing a count per exponent of the
    block, at its box index, in slots of whole 64-bit limbs wide enough for
    the number of words of the largest exponent in the box.  The transitions
    from p to q of norm index i are merged into one edge with a
    multiplicity.  A step along a leading coordinate moves the key by its
    stride unless the box test puts it at its bound; one along a block
    coordinate is a mask and a shift; one along the last masks off the
    slots whose last coordinate, L less the key's and the slot's sums, is at
    its bound.  The accepted counts of each (L, key) are unpacked once into
    the box, the last coordinate varying fastest.  A negative coordinate
    gives the empty series.  The counts stay ints: the series holds them as
    they are, in index order."""
    if isinstance(bound, int):
        bound = (bound,) * norm.size
    bound = tuple(bound)
    if len(bound) != norm.size:
        raise ValidationError("bound must have one coordinate per variable")
    live = dfa.live_states()
    # edges[p][i] = {q: number of symbols of norm index i taking p to q}, q live
    indices = [norm.index(s) for s in dfa.alphabet]
    edges: list[dict[int, Counter]] = [{} for _ in dfa.delta]
    for p, row in enumerate(dfa.delta):
        for i, q in zip(indices, row):
            if q in live:
                edges[p].setdefault(i, Counter())[q] += 1
    if min(bound, default=0) < 0 or dfa.start not in live:
        return SeriesTruncation(1, bound, {})
    if not bound:  # no symbols, so the live start accepts the empty word
        return SeriesTruncation(1, bound, {(): 1})
    *head, top = bound
    j, slots = len(head), 1
    while j and slots * (head[j - 1] + 1) <= 64:
        j -= 1
        slots *= head[j] + 1
    lead, block = head[:j], head[j:]
    cells = list(itertools.product(*[range(b + 1) for b in block]))
    # no count exceeds the words of exponent b, multinomial(sum(b); b) prod n_v^b_v,
    # with b_v = bound_v where n_v > 0 symbols step along v and b_v = 0 elsewhere
    most, total = 1, 0
    for v, b in enumerate(bound):
        if n := indices.count(v):
            total += b
            most *= comb(total, b) * n**b
    w = -(-max(1, most.bit_length()) // 64) * 8  # bytes per slot

    def packed(keep) -> int:
        return int.from_bytes(b"".join(b"\xff" * w if keep(c) else bytes(w) for c in cells), "little")

    # last[L - sum(key)]: the slots whose last coordinate L - sum(key) - sum(cell) is below top
    last = [packed(lambda c: True)] * top + [packed(lambda c: sum(c) > d) for d in range(sum(block))]
    last += [0] * (sum(bound) + 1 - len(last))
    # steps[p] = [(kind, arguments, ((q, multiplicity), ...)) per index i]: kind
    # 0 for a leading coordinate, at its bound when key mod (stride (bound + 1))
    # >= stride bound; 1 for a block coordinate, with its mask and shift; 2 for the last
    kinds = [(0, (s * (b + 1), s * b, s)) for s, b in zip(_strides(lead), lead)]
    for t, (s, b) in enumerate(zip(_strides(block), block)):
        kinds.append((1, (packed(lambda c: c[t] < b), 8 * w * s)))
    kinds.append((2, None))
    steps = [[(*kinds[i], tuple(targets.items())) for i, targets in row.items()] for row in edges]
    sums = list(map(sum, itertools.product(*[range(b + 1) for b in lead])))
    # the slot of cell c at length L and key k holds box index base[k] + L + offsets[c]
    base = [k * slots * (top + 1) - s for k, s in enumerate(sums)]
    offsets = [b * (top + 1) - sum(c) for b, c in enumerate(cells)]
    parts = [slice(a, a + w) for a in range(0, slots * w, w)]
    unpack = struct.Struct(f"<{slots}Q").unpack if w == 8 else (
        lambda data: list(map(int.from_bytes, map(data.__getitem__, parts), itertools.repeat("little")))
    )
    totals = [0] * prod(b + 1 for b in bound)
    layer, length = {dfa.start: {0: 1}}, 0
    while layer:
        # empty steps are skipped, so no dict of the next layer is empty; a
        # target's first contribution is stored as it is, except an unscaled
        # step, which may feed other targets and is copied
        nxt: dict[int, dict[int, int]] = {}
        accepted = []
        for p, counts in layer.items():
            if p in dfa.accepting:
                accepted.append(counts)
            for kind, arg, targets in steps[p]:
                if kind == 0:
                    period, limit, stride = arg
                    stepped = {k + stride: x for k, x in counts.items() if k % period < limit}
                elif kind == 1:
                    mask, shift = arg
                    stepped = {k: y for k, x in counts.items() if (y := (x & mask) << shift)}
                else:
                    stepped = {k: y for k, x in counts.items() if (y := x & last[length - sums[k]])}
                if not stepped:
                    continue
                for q, mult in targets:
                    scaled = stepped if mult == 1 else {f: c * mult for f, c in stepped.items()}
                    target = nxt.get(q)
                    if target is None:
                        nxt[q] = dict(scaled) if mult == 1 else scaled
                    else:
                        for f, c in scaled.items():
                            target[f] = target.get(f, 0) + c
        if accepted:  # the layer's dicts are done with, so the first absorbs the others
            acc = accepted[0]
            for counts in accepted[1:]:
                for k, x in counts.items():
                    acc[k] = acc.get(k, 0) + x
            if slots == 1:
                for k, x in acc.items():
                    totals[base[k] + length] = x
            else:
                for k, x in acc.items():
                    i, cs = base[k] + length, unpack(x.to_bytes(slots * w, "little"))
                    for c, o in itertools.compress(zip(cs, offsets), cs):
                        totals[i + o] = c
        layer, length = nxt, length + 1
    exponents = itertools.compress(itertools.product(*[range(b + 1) for b in bound]), totals)
    return SeriesTruncation(1, bound, dict(zip(exponents, filter(None, totals))))


# ---------------------------------------------------------------------------
# unambiguity certificate


def _concat_ambiguous(d1: Dfa, d2: Dfa) -> bool:
    """Whether some word of L(d1)L(d2) splits in two ways.

    Searches for u in L1, v != eps, x with uv in L1, vx in L2, x in L2 by
    reachability over three phases: reading u in d1; reading v in d1 and d2
    simultaneously; reading x in d2 from both the post-v state and the start.
    """
    alphabet = d1.alphabet
    k = len(alphabet)
    seen = set()
    stack: list[tuple] = [(1, d1.start)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        phase = state[0]
        if phase == 1:
            p = state[1]
            for i in range(k):
                stack.append((1, d1.delta[p][i]))
                if p in d1.accepting:  # u ends here; start reading v
                    stack.append((2, d1.delta[p][i], d2.delta[d2.start][i]))
        elif phase == 2:
            _, p, q = state
            if p in d1.accepting:  # uv complete; start reading x
                stack.append((3, q, d2.start))
            for i in range(k):
                stack.append((2, d1.delta[p][i], d2.delta[q][i]))
        else:
            _, q, q2 = state
            if q in d2.accepting and q2 in d2.accepting:
                return True
            for i in range(k):
                stack.append((3, d2.delta[q][i], d2.delta[q2][i]))
    return False


def certify_unambiguous(expr, alphabet) -> Dfa:
    """Check that the expression denotes every word exactly once.

    Unions must have pairwise disjoint branches; concatenations must admit a
    unique factorization for every word.  Returns the compiled automaton of
    the whole expression; raises AmbiguousExpressionError otherwise.
    """
    symbols = tuple(alphabet)
    if isinstance(expr, (Empty, Epsilon, Sym, Star)):
        return compile_ordered(expr, symbols)
    if isinstance(expr, Union):
        dfas = [certify_unambiguous(p, symbols) for p in expr.parts]
        for i in range(len(dfas)):
            for j in range(i + 1, len(dfas)):
                both = intersect_dfa(dfas[i], dfas[j])
                if both.start in both.live_states():
                    raise AmbiguousExpressionError(
                        f"union branches {i} and {j} overlap"
                    )
        return compile_ordered(expr, symbols)
    if isinstance(expr, Concat):
        dfas = [certify_unambiguous(p, symbols) for p in expr.parts]
        if not expr.parts:
            return compile_ordered(expr, symbols)
        acc = dfas[0]
        for j in range(1, len(dfas)):
            if _concat_ambiguous(acc, dfas[j]):
                raise AmbiguousExpressionError(
                    f"concatenation admits two factorizations at position {j}"
                )
            acc = compile_ordered(Concat(expr.parts[: j + 1]), symbols)
        return acc
    raise ValidationError(f"not a language expression: {expr!r}")


# ---------------------------------------------------------------------------
# closed forms


def ordered_genfun(expr, alphabet, norm: Norm | None = None) -> FactoredRational:
    """Closed K_1 form of a certified-unambiguous ordered expression.

    Singleton(x) becomes t_(nu x); Star(Pi) becomes 1/(1 - sum of its
    variables); concatenation multiplies and certified-disjoint union adds.
    """
    symbols = tuple(alphabet)
    if norm is None:
        norm = Norm.universal(symbols)
    if not norm.is_universal:
        raise ValidationError("ordered_genfun requires a universal norm")
    certify_unambiguous(expr, symbols)
    return _closed_form(expr, norm)


def _closed_form(e, norm: Norm) -> FactoredRational:
    """The K_1 form of the expression e, as `ordered_genfun` describes it."""
    nvars = norm.size
    if isinstance(e, Empty):
        return FactoredRational.zero(nvars)
    if isinstance(e, Epsilon):
        return FactoredRational.one(nvars)
    if isinstance(e, Sym):
        return FactoredRational.monomial(nvars, norm.index(e.symbol))
    if isinstance(e, Star):
        coeffs: dict = {}
        for s in e.symbols:
            v = norm.index(s)
            coeffs[v] = coeffs.get(v, CyclotomicNumber.zero()) + CyclotomicNumber.one()
        return FactoredRational.geometric(nvars, LinearForm(coeffs))
    if isinstance(e, Union):
        acc = FactoredRational.zero(nvars)
        for p in e.parts:
            acc = acc + _closed_form(p, norm)
        return acc
    if isinstance(e, Concat):
        acc = FactoredRational.one(nvars)
        for p in e.parts:
            acc = acc * _closed_form(p, norm)
        return acc
    raise ValidationError(f"not a language expression: {e!r}")


def congruence_filter(F: FactoredRational, psi, group: AbelianGroup, target) -> FactoredRational:
    """Keep exactly the coefficients a_n with psi(n) in the target subset.

    psi is given on basis vectors: one group element per variable, and the
    target lists distinct group elements, as the readers check.  The
    result is the character-sum combination of cyclotomic translates of F:
    sum over characters chi of c_chi * F(chi(psi(e_1)) t_1, ...), with
    c_chi = (1/#Lambda) * sum_{s in target} chi(s)^(-1).
    """
    n_mod = group.exponent
    size = group.size
    result = FactoredRational.zero(F.nvars)
    for chi in group.elements():
        weight = CyclotomicNumber.zero(n_mod)
        for s in target:
            weight = weight + CyclotomicNumber.root(n_mod, -group.char_exponent(chi, s, n_mod))
        coeff = weight * Fraction(1, size)
        if coeff.is_zero():
            continue
        exps = [group.char_exponent(chi, g, n_mod) for g in psi]
        result = result + F.translate(exps, n_mod).scale(coeff)
    return result


def quasi_ordered_genfun(q: QuasiOrderedExpr, norm: Norm | None = None) -> FactoredRational:
    """Closed K_N form of an (unambiguous) ordered language cut by a congruence.

    Requires the universal norm so the congruence map factors through it.
    """
    symbols = q.cong.alphabet
    if norm is None:
        norm = Norm.universal(symbols)
    if not norm.is_universal:
        raise ValidationError("quasi_ordered_genfun requires a universal norm")
    F = ordered_genfun(q.ordered, symbols, norm)
    group = q.cong.group
    psi = [group.identity()] * norm.size
    for s in symbols:
        psi[norm.index(s)] = q.cong.phi[s]
    return congruence_filter(F, psi, group, q.cong.target)
