"""Multivariate generating functions of languages.

Closed forms live in the class K_N: rational functions with coefficients in
Q(zeta_N) whose denominator is a product of factors (1 - lambda_k), each
lambda_k a Z[zeta_N]-integral linear form in the variables.  The factored
shape is maintained constructively end to end; no factorization of general
denominators is ever attempted.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm, prod

from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_from_json,
    cyclotomic_to_json,
)
from .errors import AmbiguousExpressionError, ValidationError, require_int, require_ints
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
# polynomial helpers: dicts exponent-tuple -> CyclotomicNumber


def _pstrip(p: dict) -> dict:
    return {e: c for e, c in p.items() if not c.is_zero()}


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out[e] + c if e in out else c
    return _pstrip(out)


def _pscale(p: dict, c) -> dict:
    return _pstrip({e: v * c for e, v in p.items()})


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _pstrip(out)


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
        return tuple((v, c.lift(order).coeffs) for v, c in self.terms)

    def is_integral(self) -> bool:
        return all(c.is_integral() for _, c in self.terms)

    def scaled_vars(self, scale: dict[int, CyclotomicNumber]) -> "LinearForm":
        return LinearForm({v: (c * scale[v] if v in scale else c) for v, c in self.terms})

    def as_poly(self, nvars: int) -> dict:
        def unit(v):
            e = [0] * nvars
            e[v] = 1
            return tuple(e)

        return {unit(v): c for v, c in self.terms}

    def __repr__(self) -> str:
        return " + ".join(f"({c!r})*t{v}" for v, c in self.terms) or "0"


class FactoredRational:
    """numerator / prod_k (1 - lambda_k) with everything over Q(zeta_order).

    The "1 -" of each denominator factor is implicit: `factors` stores the
    linear forms lambda_k themselves, which never have a constant term.
    """

    __slots__ = ("nvars", "order", "numerator", "factors")

    def __init__(self, nvars: int, order: int, numerator: dict, factors=()):
        self.nvars = nvars
        self.order = order
        self.numerator = {
            e: c.lift(order) for e, c in numerator.items() if not c.is_zero()
        }
        for e in self.numerator:
            if len(e) != nvars:
                raise ValidationError(f"exponent {e} does not have {nvars} coordinates")
        self.factors = tuple(
            sorted((f.lift(order) for f in factors), key=lambda f: f.key(order))
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "FactoredRational":
        return cls(nvars, 1, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "FactoredRational":
        c = value if isinstance(value, CyclotomicNumber) else CyclotomicNumber.from_rational(value)
        return cls(nvars, c.order, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "FactoredRational":
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, var: int) -> "FactoredRational":
        e = [0] * nvars
        e[var] = 1
        return cls(nvars, 1, {tuple(e): CyclotomicNumber.one()})

    @classmethod
    def geometric(cls, nvars: int, form: LinearForm) -> "FactoredRational":
        """1 / (1 - form)."""
        order = 1
        for _, c in form.terms:
            order = lcm(order, c.order)
        return cls(nvars, order, {(0,) * nvars: CyclotomicNumber.one(order)}, (form,))

    @classmethod
    def geometric_sum(cls, nvars: int, terms) -> "FactoredRational":
        """sum_j c_j / (1 - form_j) over (form_j, c_j) pairs.

        The denominator is prod_j (1 - form_j), with no factor for a zero
        form, so the forms should be distinct.  The numerator is built in one
        pass, N <- N (1 - form_j) + c_j P and P <- P (1 - form_j), which costs
        two products by a linear polynomial per term where pairwise `+`
        rebuilds P each time.
        """
        order = 1
        for form, c in terms:
            order = lcm(order, c.order, *(v.order for _, v in form.terms))
        one = {(0,) * nvars: CyclotomicNumber.one(order)}
        num: dict = {}
        den = one
        factors = []
        for form, c in terms:
            if not form.terms:
                num = _padd(num, _pscale(den, c))
                continue
            factor = _padd(one, _pscale(form.as_poly(nvars), -1))
            num = _padd(_pmul(num, factor), _pscale(den, c))
            den = _pmul(den, factor)
            factors.append(form)
        return cls(nvars, order, num, factors)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "FactoredRational") -> None:
        if self.nvars != other.nvars:
            raise ValidationError("operands have different variable counts")

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        order = lcm(self.order, other.order)
        # multiset cancellation of syntactically identical linear factors
        ca = Counter(f.key(order) for f in self.factors)
        cb = Counter(f.key(order) for f in other.factors)
        common = ca & cb
        extra_a = ca - common
        extra_b = cb - common
        forms = {}
        for f in itertools.chain(self.factors, other.factors):
            forms.setdefault(f.key(order), f.lift(order))

        def poly_of(counter) -> dict:
            p = {(0,) * self.nvars: CyclotomicNumber.one(order)}
            for key, mult in counter.items():
                factor_poly = _padd(
                    {(0,) * self.nvars: CyclotomicNumber.one(order)},
                    _pscale(forms[key].as_poly(self.nvars), -1),
                )
                for _ in range(mult):
                    p = _pmul(p, factor_poly)
            return p

        num = _padd(
            _pmul(self.numerator, poly_of(extra_b)),
            _pmul(other.numerator, poly_of(extra_a)),
        )
        all_factors = list(common.elements()) + list(extra_a.elements()) + list(extra_b.elements())
        return FactoredRational(self.nvars, order, num, tuple(forms[k] for k in all_factors))

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        order = lcm(self.order, other.order)
        return FactoredRational(
            self.nvars,
            order,
            _pmul(self.numerator, other.numerator),
            self.factors + other.factors,
        )

    def scale(self, c) -> "FactoredRational":
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(c)
        order = lcm(self.order, c.order)
        return FactoredRational(self.nvars, order, _pscale(self.numerator, c), self.factors)

    def __neg__(self) -> "FactoredRational":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.numerator

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
        scale = {i: CyclotomicNumber.root(ro, k).lift(order) for i, k in enumerate(exponents)}
        num = {}
        for e, c in self.numerator.items():
            mult = CyclotomicNumber.root(ro, sum(k * n for k, n in zip(exponents, e)))
            num[e] = c * mult
        factors = tuple(f.lift(order).scaled_vars(scale) for f in self.factors)
        return FactoredRational(self.nvars, order, num, factors)

    # -- expansion ------------------------------------------------------------

    def expand(self, bound) -> "SeriesTruncation":
        if isinstance(bound, int):
            bound = (bound,) * self.nvars
        bound = tuple(bound)
        if len(bound) != self.nvars:
            raise ValidationError("bound must have one coordinate per variable")
        poly = {e: c for e, c in self.numerator.items() if all(x <= b for x, b in zip(e, bound))}
        exponents = sorted(
            itertools.product(*(range(b + 1) for b in bound)), key=lambda e: (sum(e), e)
        )
        for f in self.factors:
            # U = poly / (1 - lam) via U[e] = poly[e] + sum_v c_v U[e - e_v],
            # filled in graded order
            terms = f.terms
            new: dict = {}
            for e in exponents:
                acc = poly.get(e)
                for v, c in terms:
                    if e[v]:
                        prev = new.get(e[:v] + (e[v] - 1,) + e[v + 1 :])
                        if prev is not None:
                            contrib = prev * c
                            acc = contrib if acc is None else acc + contrib
                if acc is not None and not acc.is_zero():
                    new[e] = acc
            poly = new
        return SeriesTruncation(self.order, bound, poly)

    def __repr__(self) -> str:
        return f"FactoredRational(order={self.order}, num={len(self.numerator)} terms, {len(self.factors)} factors)"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "order": self.order,
            "numerator": [
                [list(e), cyclotomic_to_json(c)]
                for e, c in sorted(self.numerator.items())
            ],
            "factors": [
                [[v, cyclotomic_to_json(c)] for v, c in f.terms] for f in self.factors
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FactoredRational":
        nvars = require_int(data["nvars"], "nvars", 0)
        num = {require_ints(e, "numerator", 0): cyclotomic_from_json(c) for e, c in data["numerator"]}
        factors = []
        for terms in data["factors"]:
            form = {}
            for v, c in terms:
                if require_int(v, "factors", 0) >= nvars:
                    raise ValidationError(f"factors: variable {v} is out of range for nvars {nvars}")
                form[v] = cyclotomic_from_json(c)
            factors.append(LinearForm(form))
        return cls(nvars, require_int(data["order"], "order", 1), num, factors)


class SeriesTruncation:
    """Exact truncated power series: coefficients for exponents <= bound, each
    an `int` (the order-1 number it stands for) or a `CyclotomicNumber`."""

    __slots__ = ("order", "bound", "coefficients")

    def __init__(self, order: int, bound: tuple[int, ...], coefficients: dict):
        self.order = order
        self.bound = tuple(bound)
        # one max per coordinate; only a failure looks for the exponent to name
        for top, b in zip(map(max, zip(*coefficients)), self.bound):
            if top > b:
                e = next(e for e in coefficients if any(x > y for x, y in zip(e, self.bound)))
                raise ValidationError(f"exponent {e} exceeds the bound {self.bound}")
        self.coefficients = {}
        for e, c in coefficients.items():
            if type(c) is not int and not isinstance(c, CyclotomicNumber):
                c = CyclotomicNumber.from_rational(c)
            if c:
                self.coefficients[e] = c

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
    def from_json(cls, data: dict) -> "SeriesTruncation":
        coeffs = {tuple(e): cyclotomic_from_json(c) for e, c in data["coefficients"]}
        return cls(require_int(data["order"], "order", 1), tuple(data["bound"]), coeffs)


# ---------------------------------------------------------------------------
# series from automata (the brute-force oracle)


def series_from_dfa(dfa: Dfa, norm: Norm, bound) -> SeriesTruncation:
    """Count the accepted words of norm <= bound, one word length at a time.

    An exponent e is kept as its index in the box, sum_i e_i * stride_i with
    the last coordinate varying fastest.  Each live state (one that reaches
    an accepting state) holds a sparse {index: count} dict of the words of
    the current length that reach it.  The transitions from p to q of norm
    index i are merged into one edge with a multiplicity, and a step along i
    from an exponent with e_i = bound_i leaves the box and is dropped.  A
    negative coordinate gives the empty series.  The counts stay ints: the
    series holds them as they are, in index order."""
    if isinstance(bound, int):
        bound = (bound,) * norm.size
    bound = tuple(bound)
    strides = [prod(b + 1 for b in bound[i + 1 :]) for i in range(len(bound))]
    preds: list[set[int]] = [set() for _ in dfa.delta]
    for p, row in enumerate(dfa.delta):
        for q in row:
            preds[q].add(p)
    live, stack = set(dfa.accepting), list(dfa.accepting)
    while stack:
        new = preds[stack.pop()] - live
        live |= new
        stack.extend(new)
    # edges[p][i] = {q: number of symbols of norm index i taking p to q}, q live
    indices = [norm.index(s) for s in dfa.alphabet]
    edges: list[dict[int, Counter]] = [{} for _ in dfa.delta]
    for p, row in enumerate(dfa.delta):
        for i, q in zip(indices, row):
            if q in live:
                edges[p].setdefault(i, Counter())[q] += 1
    # steps[p] = [(stride, period, limit, ((q, multiplicity), ...)) per index i];
    # e_i < bound_i exactly when e mod (stride_i (bound_i + 1)) < stride_i bound_i
    boxes = [(s, s * (b + 1), s * b) for s, b in zip(strides, bound)]
    steps = [[(*boxes[i], tuple(targets.items())) for i, targets in row.items()] for row in edges]
    totals = [0] * prod(b + 1 for b in bound)
    layer = {dfa.start: {0: 1}} if dfa.start in live and min(bound, default=0) >= 0 else {}
    while layer:
        nxt: dict[int, dict[int, int]] = {}
        for p, counts in layer.items():
            if p in dfa.accepting:
                for e, c in counts.items():
                    totals[e] += c
            for stride, period, limit, targets in steps[p]:
                stepped = [(e + stride, c) for e, c in counts.items() if e % period < limit]
                for q, mult in targets:
                    target = nxt.setdefault(q, {})
                    for f, c in stepped:
                        target[f] = target.get(f, 0) + c * mult
        layer = {q: counts for q, counts in nxt.items() if counts}
    exponents = itertools.compress(itertools.product(*(range(b + 1) for b in bound)), totals)
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
                if not intersect_dfa(dfas[i], dfas[j]).is_empty():
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
    nvars = norm.size

    def build(e) -> FactoredRational:
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
                acc = acc + build(p)
            return acc
        if isinstance(e, Concat):
            acc = FactoredRational.one(nvars)
            for p in e.parts:
                acc = acc * build(p)
            return acc
        raise ValidationError(f"not a language expression: {e!r}")

    return build(expr)


def congruence_filter(F: FactoredRational, psi, group: AbelianGroup, target) -> FactoredRational:
    """Keep exactly the coefficients a_n with psi(n) in the target subset.

    psi is given on basis vectors (one group element per variable).  The
    result is the character-sum combination of cyclotomic translates of F:
    sum over characters chi of c_chi * F(chi(psi(e_1)) t_1, ...), with
    c_chi = (1/#Lambda) * sum_{s in target} chi(s)^(-1).
    """
    psi = list(psi)
    if len(psi) != F.nvars:
        raise ValidationError("psi must assign a group element to every variable")
    for g in psi:
        if not group.contains(g):
            raise ValidationError(f"{g!r} is not an element of the group")
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
