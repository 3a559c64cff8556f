import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilang.cli import execute_request
from quasilang.errors import ValidationError
from quasilang.langkit import (
    AbelianGroup,
    Concat,
    CongruenceSpec,
    Dfa,
    Empty,
    Epsilon,
    Norm,
    QuasiOrderedExpr,
    Star,
    Sym,
    Union,
    compile_congruence,
    compile_ordered,
    compile_quasi_ordered,
    dfa_from_json,
    dfa_to_json,
    enumerate_by_norm,
    intersect_dfa,
    membership,
    _determinize,
    _minimize,
)
from quasilang.wordposet import WeightedWord, principal_ideal_language
from oracles import moore_minimize

AB = ("a", "b")


def naive_match(expr, word) -> bool:
    """Reference matcher by recursive descent, independent of the automata."""
    if isinstance(expr, Empty):
        return False
    if isinstance(expr, Epsilon):
        return word == ()
    if isinstance(expr, Sym):
        return word == (expr.symbol,)
    if isinstance(expr, Star):
        return all(s in expr.symbols for s in word)
    if isinstance(expr, Union):
        return any(naive_match(p, word) for p in expr.parts)
    if isinstance(expr, Concat):
        if not expr.parts:
            return word == ()
        head, rest = expr.parts[0], Concat(expr.parts[1:])
        return any(
            naive_match(head, word[:k]) and naive_match(rest, word[k:])
            for k in range(len(word) + 1)
        )
    raise TypeError(expr)


def words_up_to(symbols, n):
    for k in range(n + 1):
        yield from itertools.product(symbols, repeat=k)


def even_a_dfa():
    group = AbelianGroup((2,))
    spec = CongruenceSpec(group, {"a": (1,), "b": (0,)}, {(0,)}, AB)
    return compile_congruence(spec)


def test_compile_ordered_examples():
    d = compile_ordered(Concat(Sym("a"), Star(AB)), AB)
    assert d.accepts(("a",)) and d.accepts(("a", "b")) and d.accepts(("a", "b", "b"))
    assert not d.accepts(()) and not d.accepts(("b", "a"))

    full = compile_ordered(Star(AB), AB)
    assert all(full.accepts(w) for w in words_up_to(AB, 4))

    d2 = compile_ordered(Union(Epsilon(), Sym("a")), AB)
    accepted = {w for w in words_up_to(AB, 3) if d2.accepts(w)}
    assert accepted == {(), ("a",)}


def test_compile_ordered_agrees_with_naive_matching():
    exprs = [
        Empty(),
        Epsilon(),
        Sym("a"),
        Star(("a",)),
        Star(AB),
        Concat(Sym("a"), Star(AB)),
        Concat(Star(("a",)), Sym("b"), Star(("b",))),
        Union(Sym("a"), Concat(Sym("b"), Sym("b"))),
        Union(Epsilon(), Concat(Sym("a"), Star(("a", "b")))),
        Concat(Union(Sym("a"), Sym("b")), Star(("a",))),
        Union(),
        Union(Concat(Sym("a"), Star(("b",)))),
        Union(Star(("a",)), Concat(Sym("a"), Sym("a")), Concat(Star(AB), Sym("b"))),
        Union(Sym("a"), Concat(Sym("a"), Star(AB)), Star(("b",)), Concat(Star(("a",)), Sym("b")), Epsilon()),
        Concat(Sym("b"), Union(Sym("a"), Star(("b",)), Concat(Sym("a"), Sym("b"))), Sym("a")),
    ]
    for expr in exprs:
        d = compile_ordered(expr, AB)
        for w in words_up_to(AB, 8):
            assert d.accepts(w) == naive_match(expr, w), (expr, w)
        if isinstance(expr, Union):
            reverse = compile_ordered(Union(expr.parts[::-1]), AB)
            assert dfa_to_json(reverse) == dfa_to_json(d), expr


class _Nfa:
    """Reference epsilon-NFA: the Thompson construction that compile_ordered
    used before the Glushkov one."""

    def __init__(self):
        self.n = 0
        self.edges: dict[tuple[int, object], set[int]] = {}
        self.eps: dict[int, set[int]] = {}

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, a: int, symbol, b: int) -> None:
        self.edges.setdefault((a, symbol), set()).add(b)

    def epsilon(self, a: int, b: int) -> None:
        self.eps.setdefault(a, set()).add(b)

    def closure(self, states) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for t in self.eps.get(q, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


def _expr_to_nfa(expr, nfa: _Nfa) -> tuple[int, int]:
    """Thompson-style fragment (start, accept)."""
    start, out = nfa.state(), nfa.state()
    if isinstance(expr, Empty):
        pass
    elif isinstance(expr, Epsilon):
        nfa.epsilon(start, out)
    elif isinstance(expr, Sym):
        nfa.edge(start, expr.symbol, out)
    elif isinstance(expr, Star):
        nfa.epsilon(start, out)
        for s in expr.symbols:
            nfa.edge(start, s, start)
    elif isinstance(expr, Union):
        # an empty union denotes the empty language (no edges at all)
        for p in expr.parts:
            s, o = _expr_to_nfa(p, nfa)
            nfa.epsilon(start, s)
            nfa.epsilon(o, out)
    elif isinstance(expr, Concat):
        cur = start
        for p in expr.parts:
            s, o = _expr_to_nfa(p, nfa)
            nfa.epsilon(cur, s)
            cur = o
        nfa.epsilon(cur, out)
    else:
        raise TypeError(expr)
    return start, out


def subset_construction(expr, symbols) -> Dfa:
    """Reference compiler: one subset construction over the Thompson NFA of
    the whole expression, unions included, then minimization."""
    nfa = _Nfa()
    start, accept = _expr_to_nfa(expr, nfa)
    init = nfa.closure({start})
    index = {init: 0}
    delta = []
    queue = [init]
    while queue:
        cur = queue.pop(0)
        row = []
        for s in symbols:
            nxt = nfa.closure(set().union(*(nfa.edges.get((q, s), ()) for q in cur)))
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        delta.append(row)
    accepting = {i for sub, i in index.items() if accept in sub}
    return _minimize(Dfa(symbols, delta, 0, accepting))


def test_union_fold_matches_whole_union_subset_construction():
    cases = [(AbelianGroup((2,)), 2), (AbelianGroup((3,)), 1), (AbelianGroup((2, 2)), 1)]
    checked = 0
    for group, max_len in cases:
        sigma = [(a, w) for a in AB for w in group.elements()]
        for n in range(max_len + 1):
            for combo in itertools.product(sigma, repeat=n):
                x = WeightedWord(tuple(a for a, _ in combo), tuple(w for _, w in combo), group)
                q = principal_ideal_language(x, letters=AB)
                fast = compile_ordered(q.ordered, q.cong.alphabet)
                ref = subset_construction(q.ordered, q.cong.alphabet)
                assert dfa_to_json(fast) == dfa_to_json(ref), x
                checked += 1
    assert checked == 37


ABC = ("a", "b", "c")
leaves = st.one_of(
    st.just(Empty()),
    st.just(Epsilon()),
    st.sampled_from(ABC).map(Sym),
    st.sets(st.sampled_from(ABC)).map(Star),
)
expressions = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.lists(sub, max_size=4).map(Union),
        st.lists(sub, max_size=4).map(Concat),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_glushkov_determinization_matches_the_thompson_reference(expr):
    """Empty, Epsilon, Union(), Concat(), Star(()) and unions nested in
    concatenations all come up; the minimized automata serialize the same."""
    ref = dfa_to_json(subset_construction(expr, ABC))
    assert dfa_to_json(_minimize(_determinize(expr, ABC))) == ref
    assert dfa_to_json(compile_ordered(expr, ABC)) == ref


def random_dfa(rng: random.Random) -> Dfa:
    """A DFA of 1-60 states over 1-4 symbols with a random start, so some
    states may be unreachable.  Half of the DFAs copy the states of a
    smaller core, so many states are equivalent; one in five accepts nothing."""
    n, k = rng.randint(1, 60), rng.randint(1, 4)
    core = rng.randint(1, n) if rng.random() < 0.5 else n
    kind = [q % core for q in range(n)]
    copies = [[q for q in range(n) if kind[q] == c] for c in range(core)]
    core_delta = [[rng.randrange(core) for _ in range(k)] for _ in range(core)]
    delta = [[rng.choice(copies[t]) for t in core_delta[kind[q]]] for q in range(n)]
    core_accepting = set() if rng.random() < 0.2 else {c for c in range(core) if rng.random() < 0.4}
    return Dfa("abcd"[:k], delta, rng.randrange(n), {q for q in range(n) if kind[q] in core_accepting})


def test_minimize_matches_the_moore_reference():
    rng = random.Random(20141022)
    unreachable = without_accepting = merged = 0
    for _ in range(600):
        dfa = random_dfa(rng)
        fast = _minimize(dfa)
        assert dfa_to_json(fast) == dfa_to_json(moore_minimize(dfa))
        reached, queue = {dfa.start}, [dfa.start]
        for q in queue:
            for t in set(dfa.delta[q]) - reached:
                reached.add(t)
                queue.append(t)
        unreachable += len(reached) < dfa.n_states
        without_accepting += not dfa.accepting
        merged += fast.n_states < len(reached)
    assert unreachable > 100 and without_accepting > 50 and merged > 100


def test_fold_automata_pass_the_public_checks(monkeypatch):
    """`Dfa(...)` does not check its table; each automaton the fold builds,
    on the principal ideals of the words of length <= 3 over {a, b} x Z/2,
    goes through JSON and back through the checked reader unchanged."""
    built = []
    init = Dfa.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Dfa, "__init__", recorded)
    group = AbelianGroup((2,))
    sigma = [(a, w) for a in AB for w in group.elements()]
    for n in range(4):
        for combo in itertools.product(sigma, repeat=n):
            x = WeightedWord(tuple(a for a, _ in combo), tuple(w for _, w in combo), group)
            q = principal_ideal_language(x, letters=AB)
            compile_ordered(q.ordered, q.cong.alphabet)
    monkeypatch.undo()
    for dfa in built:
        checked = dfa_from_json(dfa_to_json(dfa))
        assert (checked.alphabet, checked.delta, checked.start, checked.accepting) == (
            dfa.alphabet, dfa.delta, dfa.start, dfa.accepting
        )
    assert len(built) > 1000


def test_compile_ordered_refuses_a_repeated_symbol():
    with pytest.raises(ValidationError, match="distinct"):
        compile_ordered(Union(Sym("a"), Sym("b")), ("a", "b", "a"))


def test_compile_ordered_rejects_foreign_symbols():
    with pytest.raises(ValidationError):
        compile_ordered(Sym("c"), AB)


def test_congruence_examples():
    d = even_a_dfa()
    assert d.accepts(("a", "b", "a", "b"))
    assert not d.accepts(("a",))
    assert d.n_states == 2

    g3 = AbelianGroup((3,))
    spec3 = CongruenceSpec(g3, {"a": (1,), "b": (0,)}, {(0,)}, AB)
    d3 = compile_congruence(spec3)
    assert d3.n_states == 3
    assert d3.accepts(("a", "a", "a")) and not d3.accepts(("a", "a"))


def test_congruence_by_enumeration():
    group = AbelianGroup((2, 2))
    phi = {"a": (1, 0), "b": (0, 1)}
    spec = CongruenceSpec(group, phi, {(0, 0), (1, 1)}, AB)
    d = compile_congruence(spec)
    assert d.n_states == group.size
    for w in words_up_to(AB, 8):
        assert d.accepts(w) == (spec.value(w) in spec.target)


def test_intersection():
    even = even_a_dfa()
    starts_a = compile_ordered(Concat(Sym("a"), Star(AB)), AB)
    both = intersect_dfa(even, starts_a)
    assert both.accepts(("a", "a", "b"))
    assert not both.accepts(("a", "b"))

    full = compile_ordered(Star(AB), AB)
    x = compile_ordered(Union(Sym("a"), Concat(Sym("b"), Sym("a"))), AB)
    merged = intersect_dfa(x, full)
    for w in words_up_to(AB, 6):
        assert merged.accepts(w) == x.accepts(w)

    empty = compile_ordered(Empty(), AB)
    dead = intersect_dfa(x, empty)
    assert dead.start not in dead.live_states()

    with pytest.raises(ValidationError):
        intersect_dfa(even, compile_ordered(Sym("c"), ("c",)))


def test_membership():
    d = even_a_dfa()
    assert membership(d, ())
    assert membership(d, ("a", "b", "a"))  # two a's
    assert not membership(d, ("a", "b", "b"))
    with pytest.raises(ValidationError):
        membership(d, ("z",))


def test_enumerate_by_norm():
    full = compile_ordered(Star(AB), AB)
    norm = Norm.universal(AB)
    words = enumerate_by_norm(full, norm, (2, 1))
    exact = [w for w in words if (w.count("a"), w.count("b")) == (2, 1)]
    assert sorted(exact) == [("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")]
    assert len(words) == 9

    even = even_a_dfa()
    length = Norm.length(AB)
    for n, expect in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 8)]:
        count = sum(1 for w in enumerate_by_norm(even, length, (n,)) if len(w) == n)
        assert count == expect

    assert enumerate_by_norm(compile_ordered(Empty(), AB), norm, (3, 3)) == []


def test_enumeration_is_lexicographic():
    full = compile_ordered(Star(AB), AB)
    words = enumerate_by_norm(full, Norm.length(AB), (2,))
    assert words == [(), ("a",), ("a", "a"), ("a", "b"), ("b",), ("b", "a"), ("b", "b")]


def test_minimization_preserves_language():
    # a union with redundant branches should still match the naive semantics
    expr = Union(Star(("a",)), Concat(Star(("a",)), Star(("a",))), Sym("b"))
    d = compile_ordered(expr, AB)
    for w in words_up_to(AB, 8):
        assert d.accepts(w) == naive_match(expr, w)


def test_quasi_ordered_compile():
    group = AbelianGroup((2,))
    spec = CongruenceSpec(group, {"a": (1,), "b": (0,)}, {(0,)}, AB)
    q = QuasiOrderedExpr(Star(AB), spec)
    d = compile_quasi_ordered(q)
    even = even_a_dfa()
    for w in words_up_to(AB, 6):
        assert d.accepts(w) == even.accepts(w)


def test_empty_alphabet_is_legal():
    d = compile_ordered(Star(()), ())
    assert d.accepts(())
    assert enumerate_by_norm(d, Norm({}, 1), (4,)) == [()]


def test_alphabet_validation():
    # the compiler and the readers refuse a repeated symbol
    with pytest.raises(ValidationError, match="alphabet symbols must be distinct"):
        compile_ordered(Star(()), ("a", "a"))
    payload = {"alphabet": ["a", "a"], "delta": [[0, 0]], "start": 0, "accepting": [0]}
    with pytest.raises(ValidationError, match=r"^dfa\.alphabet\[1\]: symbol 'a' is repeated$"):
        dfa_from_json(payload)
    # compiled over a repeated symbol, "a" alone was counted as 2 words of norm (0, 1)
    resp = execute_request({"cmd": "lang.compile", "expr": {"kind": "symbol", "symbol": "a"}, "alphabet": ["a", "a"]})
    assert resp == {"status": "error", "diagnostics": ["ValidationError: alphabet[1]: symbol 'a' is repeated"]}
    assert Norm.universal(AB).is_universal


def test_canonical_numbering_is_deterministic():
    expr = Concat(Star(("a",)), Sym("b"))
    d1 = compile_ordered(expr, AB)
    d2 = compile_ordered(expr, AB)
    assert d1.delta == d2.delta and d1.accepting == d2.accepting


def test_abelian_group_basics():
    g = AbelianGroup((2, 3))
    assert g.size == 6 and g.exponent == 6
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 2)
    assert len(g.elements()) == 6
    assert g.element_order((1, 1)) == 6
