"""Finite automata and the language classes driving the generating functions:
ordered languages (singletons and subset-stars under union/concatenation),
congruence languages (preimages of subsets of a finite abelian group), and
their intersections, the quasi-ordered languages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, inf, lcm, prod

from .errors import Payload, ValidationError


# ---------------------------------------------------------------------------
# finite abelian groups as products of cyclic groups


def _add_mod(x: int, y: int, n: int) -> int:
    return (x + y) % n


@dataclass(frozen=True)
class AbelianGroup:
    """Z/n_1 x ... x Z/n_r; elements are tuples of residues."""

    orders: tuple[int, ...]  # each at least 1

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[range(n) for n in self.orders]))

    def add(self, a, b) -> tuple[int, ...]:
        # mapped rather than a generator: the witness search adds at every step
        return tuple([*map(_add_mod, a, b, self.orders)])

    def neg(self, a) -> tuple[int, ...]:
        return tuple([(-x) % n for x, n in zip(a, self.orders)])

    def sum(self, elems) -> tuple[int, ...]:
        total = self.identity()
        for e in elems:
            total = self.add(total, e)
        return total

    def element_order(self, a) -> int:
        return lcm(*[n // gcd(x, n) for x, n in zip(a, self.orders)]) if self.orders else 1

    def char_exponent(self, m, g, modulus: int | None = None) -> int:
        """Exponent e with chi_m(g) = zeta_N^e, N the exponent (or a multiple)."""
        n_mod = modulus if modulus is not None else self.exponent
        total = 0
        for mi, gi, ni in zip(m, g, self.orders):
            total += mi * gi * (n_mod // ni)
        return total % n_mod


# ---------------------------------------------------------------------------
# norms


class Norm:
    """A monoid map Sigma* -> N^I induced by a function symbol -> index."""

    def __init__(self, mapping: dict, size: int):
        self.mapping, self.size = dict(mapping), size

    @classmethod
    def universal(cls, symbols) -> "Norm":
        symbols = list(symbols)
        return cls({s: i for i, s in enumerate(symbols)}, len(symbols))

    @classmethod
    def length(cls, symbols) -> "Norm":
        return cls({s: 0 for s in symbols}, 1)

    @property
    def is_universal(self) -> bool:
        vals = list(self.mapping.values())
        return len(vals) == len(set(vals))

    def index(self, symbol) -> int:
        try:
            return self.mapping[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} has no norm index") from None


# ---------------------------------------------------------------------------
# ordered-language expressions


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class Sym:
    symbol: object


@dataclass(frozen=True)
class Star:
    symbols: tuple  # the subset Pi of the alphabet

    def __init__(self, symbols):
        object.__setattr__(self, "symbols", tuple(sorted(set(symbols), key=repr)))


@dataclass(frozen=True)
class Union:
    parts: tuple

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], (list, tuple)):
            parts = tuple(parts[0])
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class Concat:
    parts: tuple

    def __init__(self, *parts):
        if len(parts) == 1 and isinstance(parts[0], (list, tuple)):
            parts = tuple(parts[0])
        object.__setattr__(self, "parts", tuple(parts))


def expr_symbols(expr) -> set:
    if isinstance(expr, (Empty, Epsilon)):
        return set()
    if isinstance(expr, Sym):
        return {expr.symbol}
    if isinstance(expr, Star):
        return set(expr.symbols)
    if isinstance(expr, (Union, Concat)):
        out: set = set()
        for p in expr.parts:
            out |= expr_symbols(p)
        return out
    raise ValidationError(f"not a language expression: {expr!r}")


def validate_expr(expr, symbols) -> None:
    extra = expr_symbols(expr) - set(symbols)
    if extra:
        raise ValidationError(f"expression uses symbols outside the alphabet: {sorted(map(repr, extra))}")


# ---------------------------------------------------------------------------
# DFAs


class Dfa:
    """Deterministic automaton with a total transition function.

    States are 0..n-1; `delta[state][symbol_index]` is the successor.  States
    are canonically numbered by BFS from the start state (symbols in alphabet
    order), so equal languages compiled the same way serialize identically.

    The alphabet must be distinct, the table total and in range, and the
    start and accepting states in range.  `Dfa(...)` does not scan for this:
    `dfa_from_json` reads it so, and the compiler (`_determinize`,
    `_product`, `_canonicalize`) builds it so, over the alphabet that
    `compile_ordered` checks on entry."""

    def __init__(self, alphabet, delta, start: int, accepting):
        self.alphabet = tuple(alphabet)
        self.delta = tuple([*map(tuple, delta)])
        self.start = start
        self.accepting = frozenset(accepting)
        self._sym_index = {s: i for i, s in enumerate(self.alphabet)}

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def symbol_index(self, symbol) -> int:
        try:
            return self._sym_index[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} not in the automaton alphabet") from None

    def step(self, state: int, symbol) -> int:
        return self.delta[state][self.symbol_index(symbol)]

    def accepts(self, word) -> bool:
        state = self.start
        for s in word:
            state = self.step(state, s)
        return state in self.accepting

    def live_states(self) -> set[int]:
        """The states from which an accepting state is reachable."""
        preds: list[set[int]] = [set() for _ in self.delta]
        for p, row in enumerate(self.delta):
            for q in row:
                preds[q].add(p)
        live, stack = set(self.accepting), list(self.accepting)
        while stack:
            new = preds[stack.pop()] - live
            live |= new
            stack.extend(new)
        return live


def _canonicalize(alphabet, delta, start, accepting) -> Dfa:
    """Renumber reachable states in BFS order (alphabet order for ties)."""
    order = {start: 0}
    queue = [start]
    for q in queue:
        for t in delta[q]:
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    new_delta = [tuple([*map(order.__getitem__, delta[q])]) for q in queue]
    new_acc = {order[q] for q in accepting if q in order}
    return Dfa(alphabet, new_delta, 0, new_acc)


def _minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement followed by canonical renumbering.

    The table is transposed once into one column per symbol.  A round's
    signature of q is (block of q, block of each successor of q), built for
    all states at once by zipping the columns read through the block list;
    the new blocks are numbered by first occurrence.  A round that splits no
    block ends the refinement (each round refines the last)."""
    columns = list(zip(*dfa.delta))
    block = [1 if q in dfa.accepting else 0 for q in range(dfa.n_states)]
    count = len(set(block))
    while True:
        signatures = list(zip(block, *[map(block.__getitem__, c) for c in columns]))
        ids = dict(zip(dict.fromkeys(signatures), itertools.count()))
        block = list(map(ids.__getitem__, signatures))
        if len(ids) == count:
            break
        count = len(ids)
    rows = dict(zip(block, dfa.delta))  # any state's row: a block's states step to the same blocks
    delta = [tuple([*map(block.__getitem__, rows[b])]) for b in range(count)]
    accepting = {block[q] for q in dfa.accepting}
    return _canonicalize(dfa.alphabet, delta, block[dfa.start], accepting)


def compile_ordered(expr, alphabet) -> Dfa:
    """Compile an ordered-language expression to a minimal canonical DFA.

    A union is compiled branch by branch and the branch automata are folded
    pairwise in a balanced tree, each step a minimized product accepting when
    either side accepts.  Any other expression, a union nested in a
    concatenation included, is determinized by one subset construction over
    its Glushkov automaton (`_determinize`) and then minimized.  A minimal
    DFA is unique up to renumbering and `_canonicalize` fixes the numbering,
    so the result depends only on the language, not on how the union is
    split.  The alphabet is checked to be distinct here, once: the automata
    of the fold are built over it unchecked."""
    symbols = tuple(alphabet)
    validate_expr(expr, symbols)
    if len(set(symbols)) != len(symbols):
        raise ValidationError("alphabet symbols must be distinct")
    dfa = _compile(expr, symbols)
    # a union of two or more parts comes out of a fold step, already minimal
    return dfa if isinstance(expr, Union) and len(expr.parts) > 1 else _minimize(dfa)


def _compile(expr, symbols) -> Dfa:
    if not isinstance(expr, Union) or not expr.parts:
        return _determinize(expr, symbols)
    dfas = [_compile(p, symbols) for p in expr.parts]
    while len(dfas) > 1:
        folded = [
            _minimize(_product(a, b, lambda p, q: p or q)) for a, b in zip(dfas[::2], dfas[1::2])
        ]
        dfas = folded + dfas[len(folded) * 2 :]
    return dfas[0]


def _positions(expr, labels: list, follow: list) -> tuple[bool, int, int]:
    """Glushkov positions of `expr`: (nullable, first, last) as bitmasks.

    Each `Sym` and each `Star` gets one position; `labels[p]` is the set of
    symbols that enter position p, and `follow[p]` the bitmask of positions
    that may come next.  A `Star` position follows itself."""
    if isinstance(expr, (Sym, Star)):
        bit, star = 1 << len(labels), isinstance(expr, Star)
        labels.append(expr.symbols if star else (expr.symbol,))
        follow.append(bit if star else 0)
        return star, bit, bit
    if isinstance(expr, (Empty, Epsilon)):
        return isinstance(expr, Epsilon), 0, 0
    if isinstance(expr, Union):
        nullable, first, last = False, 0, 0
        for part in expr.parts:
            n, f, l = _positions(part, labels, follow)
            nullable, first, last = nullable or n, first | f, last | l
        return nullable, first, last
    if isinstance(expr, Concat):
        nullable, first, last = True, 0, 0
        for part in expr.parts:
            n, f, l = _positions(part, labels, follow)
            for p in range(last.bit_length()):
                if last >> p & 1:
                    follow[p] |= f
            first = first | f if nullable else first
            last = last | l if n else l
            nullable = nullable and n
        return nullable, first, last
    raise ValidationError(f"not a language expression: {expr!r}")


def _determinize(expr, symbols) -> Dfa:
    """The subset construction over the Glushkov automaton of `expr`, not
    minimized.

    Position 0 is the start; a subset is a bitmask of positions.  Its
    successor on a symbol is the OR of its positions' follow sets, taken
    once per subset, ANDed with the mask of positions that symbol enters.
    The empty subset is the total sink."""
    labels, follow = [()], [0]
    nullable, follow[0], last = _positions(expr, labels, follow)
    last |= 1 if nullable else 0
    masks = [sum(1 << p for p, label in enumerate(labels) if s in label) for s in symbols]
    index = {1: 0}
    delta: list[list[int]] = []
    queue = [1]
    for cur in queue:
        reach = 0
        for p in range(cur.bit_length()):
            if cur >> p & 1:
                reach |= follow[p]
        row = []
        for m in masks:
            nxt = reach & m
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        delta.append(row)
    accepting = {i for sub, i in index.items() if sub & last}
    return Dfa(symbols, delta, 0, accepting)


@dataclass(frozen=True)
class CongruenceSpec:
    """phi: Sigma -> Lambda, total on the distinct alphabet, together with a
    target subset S of Lambda."""

    group: AbelianGroup
    phi: dict
    target: frozenset
    alphabet: tuple

    def __init__(self, group, phi, target, alphabet):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "phi", dict(phi))
        object.__setattr__(self, "target", frozenset(target))
        object.__setattr__(self, "alphabet", tuple(alphabet))

    def value(self, word):
        return self.group.sum(self.phi[s] for s in word)


@dataclass(frozen=True)
class QuasiOrderedExpr:
    """Intersection of an ordered language with a congruence language."""

    ordered: object
    cong: CongruenceSpec


def compile_congruence(spec: CongruenceSpec) -> Dfa:
    """The #Lambda-state automaton: states are group elements, start 0,
    transition g -> g + phi(a), accepting exactly the target subset."""
    elements = spec.group.elements()
    index = {g: i for i, g in enumerate(elements)}
    delta = [
        [index[spec.group.add(g, spec.phi[s])] for s in spec.alphabet]
        for g in elements
    ]
    accepting = {index[t] for t in spec.target}
    return Dfa(spec.alphabet, delta, index[spec.group.identity()], accepting)


def intersect_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Reachable product automaton recognizing L(a) n L(b)."""
    if a.alphabet != b.alphabet:
        raise ValidationError("cannot intersect automata over different alphabets")
    return _product(a, b, lambda p, q: p and q)


def _product(a: Dfa, b: Dfa, accept) -> Dfa:
    """Reachable product automaton, BFS-numbered; a pair of states accepts when
    accept(p accepts in a, q accepts in b) holds."""
    index = {(a.start, b.start): 0}
    delta: list[list[int]] = []
    queue = [(a.start, b.start)]
    for p, q in queue:
        row = []
        for t in zip(a.delta[p], b.delta[q]):
            if t not in index:
                index[t] = len(index)
                queue.append(t)
            row.append(index[t])
        delta.append(row)
    accepting = {i for (p, q), i in index.items() if accept(p in a.accepting, q in b.accepting)}
    return Dfa(a.alphabet, delta, 0, accepting)


def membership(dfa: Dfa, word) -> bool:
    return dfa.accepts(word)


def enumerate_by_norm(dfa: Dfa, norm: Norm, bound, budget: float = inf) -> list[tuple]:
    """All accepted words with norm coordinatewise <= bound, lexicographically
    by alphabet order (prefixes before their extensions).

    The search visits the words within the bound that end in a live state,
    each once; every accepted word is one of them.  A search that would
    visit more than `budget` words is refused before it does."""
    if isinstance(bound, int):
        bound = (bound,) * norm.size
    bound = tuple(bound)
    if len(bound) != norm.size:
        raise ValidationError(f"bound has {len(bound)} coordinates, norm has {norm.size}")
    out: list[tuple] = []
    live = dfa.live_states()
    # the extensions of a word go on the stack in reverse alphabet order, so
    # they come off in alphabet order, each after the words it extends
    backwards = [(s, norm.index(s)) for s in reversed(dfa.alphabet)]
    stack = [(dfa.start, (), bound)] if dfa.start in live else []
    visited = 0
    while stack:
        if visited == budget:
            raise ValidationError(f"bound: the search visits more than {budget} words, past the budget {budget}")
        visited += 1
        state, word, left = stack.pop()
        if state in dfa.accepting:
            out.append(word)
        for s, i in backwards:
            if left[i] > 0:
                nxt = dfa.step(state, s)
                if nxt in live:
                    stack.append((nxt, word + (s,), left[:i] + (left[i] - 1,) + left[i + 1 :]))
    return out


def compile_quasi_ordered(expr: QuasiOrderedExpr) -> Dfa:
    """Intersection of the compiled ordered and congruence automata."""
    return intersect_dfa(compile_ordered(expr.ordered, expr.cong.alphabet), compile_congruence(expr.cong))


# ---------------------------------------------------------------------------
# JSON codecs: symbols may be strings or (letter, weight-tuple) pairs


def symbol_to_json(sym):
    if isinstance(sym, tuple):
        return [symbol_to_json(x) for x in sym]
    return sym


def expr_to_json(expr) -> dict:
    """The JSON form of an expression.  Each distinct symbol is encoded once
    per call, and its occurrences share that one JSON value."""
    return _expr_to_json(expr, {})


def _expr_to_json(expr, encoded: dict) -> dict:
    if isinstance(expr, Sym):
        return {"kind": "symbol", "symbol": _encoded(expr.symbol, encoded)}
    if isinstance(expr, Star):
        return {"kind": "star", "symbols": [_encoded(s, encoded) for s in expr.symbols]}
    if isinstance(expr, Union):
        return {"kind": "union", "parts": [_expr_to_json(p, encoded) for p in expr.parts]}
    if isinstance(expr, Concat):
        return {"kind": "concat", "parts": [_expr_to_json(p, encoded) for p in expr.parts]}
    if isinstance(expr, Empty):
        return {"kind": "empty"}
    if isinstance(expr, Epsilon):
        return {"kind": "epsilon"}
    raise ValidationError(f"not a language expression: {expr!r}")


def _encoded(sym, encoded: dict):
    out = encoded.get(sym)
    if out is None:
        out = encoded[sym] = symbol_to_json(sym)
    return out


_LEAVES = {
    "empty": lambda node: Empty(),
    "epsilon": lambda node: Epsilon(),
    "symbol": lambda node: Sym(node["symbol"].symbol()),
    "star": lambda node: Star(node["symbols"].symbols()),
}


def expr_from_json(data):
    """An expression from its JSON form.  Union and concat nodes are read on
    an explicit stack of (node class, part readers, parts built so far)
    frames, so the payload's nesting limit bounds the depth."""
    stack = [(None, iter([Payload.of(data, "expr")]), [])]
    while True:
        cls, parts, built = stack[-1]
        for node in parts:
            kind = node["kind"]
            if kind.value == "union" or kind.value == "concat":
                stack.append((Union if kind.value == "union" else Concat, iter(node["parts"].list()), []))
                break
            if type(kind.value) is not str or kind.value not in _LEAVES:
                raise kind.expected('one of "empty", "epsilon", "symbol", "star", "union", "concat"')
            built.append(_LEAVES[kind.value](node))
        else:
            stack.pop()
            if cls is None:
                return built[0]
            stack[-1][2].append(cls(tuple(built)))


def dfa_to_json(dfa: Dfa) -> dict:
    return {
        "alphabet": [symbol_to_json(s) for s in dfa.alphabet],
        "delta": [list(row) for row in dfa.delta],
        "start": dfa.start,
        "accepting": sorted(dfa.accepting),
    }


def dfa_from_json(data) -> Dfa:
    p = Payload.of(data, "dfa")
    alphabet, delta = p["alphabet"].distinct(p["alphabet"].symbols(), "symbol"), p["delta"]
    n = len(delta)
    return Dfa(alphabet, delta.rows((n,) * len(alphabet)), p["start"].int(0, n), p["accepting"].ints(0, n))


def congruence_to_json(spec: CongruenceSpec) -> dict:
    return {
        "orders": list(spec.group.orders),
        "alphabet": [symbol_to_json(s) for s in spec.alphabet],
        "phi": [[symbol_to_json(s), list(spec.phi[s])] for s in spec.alphabet],
        "target": sorted(list(t) for t in spec.target),
    }


def congruence_from_json(data) -> CongruenceSpec:
    """A congruence whose alphabet is distinct and whose phi maps each of its
    symbols into the group."""
    p = Payload.of(data, "congruence")
    group = AbelianGroup(p["orders"].ints(1))
    alphabet = p["alphabet"].distinct(p["alphabet"].symbols(), "symbol")
    phi = p["phi"].pairs(Payload.symbol, lambda v: v.row(group.orders), "symbol")
    for s in alphabet:
        if s not in phi:
            raise p["phi"].error(f"symbol {symbol_to_json(s)!r} has no image")
    return CongruenceSpec(group, phi, p["target"].rows(group.orders), alphabet)


def quasi_to_json(q: QuasiOrderedExpr) -> dict:
    return {"ordered": expr_to_json(q.ordered), "congruence": congruence_to_json(q.cong)}


def quasi_from_json(data) -> QuasiOrderedExpr:
    """An ordered expression over the alphabet of the congruence."""
    p = Payload.of(data, "quasi")
    cong = congruence_from_json(p["congruence"])
    ordered = expr_from_json(p["ordered"])
    p["ordered"].check(validate_expr, ordered, cong.alphabet)
    return QuasiOrderedExpr(ordered, cong)
