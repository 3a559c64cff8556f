"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import itertools
import random
import time
from collections import deque
from fractions import Fraction

from quasilang.cyclotomic import CyclotomicNumber
from quasilang.genfun import (
    FactoredRational,
    LinearForm,
    congruence_filter,
    quasi_ordered_genfun,
    series_from_dfa,
)
from quasilang.grouptheory import (
    FiniteGroup,
    character_table,
    is_good_family,
    symmetric_table,
    young_subgroups,
)
from quasilang.langkit import (
    AbelianGroup,
    Concat,
    CongruenceSpec,
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
    intersect_dfa,
)
from quasilang.segre import (
    GroupAction,
    SimplicialComplex,
    check_boundary_squares_to_zero,
    equivariant_hilbert_data,
    homology_ranks,
    segre_product,
)
from quasilang.wordposet import (
    OrderedSurjection,
    UpsetRecognizer,
    WeightedWord,
    deletion_lift,
    fws_principal_series,
    leq,
    principal_ideal_language,
    refine_witness,
    validate_witness,
)
from quasilang import wreath

from oracles import IdealRecognizer, induced_monomial_image, surjection_series

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z2Z2 = AbelianGroup((2, 2))


def _spec(group, phi, target, alphabet):
    return CongruenceSpec(group, phi, target, alphabet)


def quasi_corpus():
    """>= 10 quasi-ordered languages over 2-3 letter alphabets."""
    ab = ("a", "b")
    abc = ("a", "b", "c")
    out = [
        QuasiOrderedExpr(Star(ab), _spec(Z2, {"a": (1,), "b": (0,)}, {(0,)}, ab)),
        QuasiOrderedExpr(Star(ab), _spec(Z2, {"a": (1,), "b": (1,)}, {(1,)}, ab)),
        QuasiOrderedExpr(
            Concat(Sym("a"), Star(ab)), _spec(Z3, {"a": (1,), "b": (0,)}, {(0,)}, ab)
        ),
        QuasiOrderedExpr(
            Union(Epsilon(), Concat(Sym("a"), Star(("a",)))),
            _spec(Z3, {"a": (1,), "b": (2,)}, {(0,), (1,)}, ab),
        ),
        QuasiOrderedExpr(
            Concat(Star(("a",)), Sym("b"), Star(ab)),
            _spec(Z2Z2, {"a": (1, 0), "b": (0, 1)}, {(0, 0), (1, 1)}, ab),
        ),
        QuasiOrderedExpr(
            Star(abc), _spec(Z2, {"a": (1,), "b": (0,), "c": (1,)}, {(0,)}, abc)
        ),
        QuasiOrderedExpr(
            Concat(Sym("c"), Star(abc)),
            _spec(Z3, {"a": (1,), "b": (2,), "c": (0,)}, {(0,)}, abc),
        ),
        QuasiOrderedExpr(
            Union(Concat(Sym("a"), Star(ab)), Concat(Sym("b"), Star(("b",)))),
            _spec(Z2Z2, {"a": (1, 0), "b": (1, 1)}, {(0, 0)}, ab),
        ),
        QuasiOrderedExpr(
            Star(("a", "c")), _spec(Z2, {"a": (1,), "b": (1,), "c": (0,)}, {(1,)}, abc)
        ),
        QuasiOrderedExpr(
            Concat(Star(("a",)), Star(("b",))),
            _spec(Z3, {"a": (1,), "b": (2,)}, {(0,)}, ab),
        ),
        QuasiOrderedExpr(
            Union(Epsilon(), Sym("a"), Sym("b")),
            _spec(Z2Z2, {"a": (1, 0), "b": (0, 1)}, {(0, 0), (1, 0)}, ab),
        ),
        QuasiOrderedExpr(Empty(), _spec(Z2, {"a": (1,), "b": (0,)}, {(0,)}, ab)),
    ]
    return out


def test_criterion_1_quasi_ordered_series():
    """Closed K_N forms match the automaton series to degree 8, exactly."""
    start = time.monotonic()
    corpus = quasi_corpus()
    assert len(corpus) >= 10
    for q in corpus:
        norm = Norm.universal(q.cong.alphabet)
        F = quasi_ordered_genfun(q, norm)
        assert F.is_integral_denominator()
        dfa = intersect_dfa(
            compile_ordered(q.ordered, q.cong.alphabet), compile_congruence(q.cong)
        )
        bound = (8,) * norm.size
        assert F.expand(bound) == series_from_dfa(dfa, norm, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: {len(corpus)} quasi-ordered languages, degree 8, {elapsed:.1f}s")


def test_criterion_2_congruence_filter():
    """Filtering keeps exactly the coefficients with psi(n) in the target."""

    def geom(*vars_):
        return FactoredRational.geometric(
            2, LinearForm({v: CyclotomicNumber.one() for v in vars_})
        )

    seeds = [
        geom(0, 1),
        FactoredRational.monomial(2, 0) * geom(0),
        (FactoredRational.one(2) + FactoredRational.monomial(2, 0)) * geom(1),
        geom(0) * geom(1),
        FactoredRational.constant(2, Fraction(1, 2)) * geom(0, 0),
        geom(0, 1).translate((1, 0), 2),
    ]
    configs = [
        (Z2, [(1,), (0,)], [(0,)]),
        (Z3, [(1,), (2,)], [(0,), (2,)]),
        (Z2Z2, [(1, 0), (0, 1)], [(0, 0), (1, 1)]),
    ]
    assert len(seeds) >= 5
    checked = 0
    for F in seeds:
        for group, psi, target in configs:
            G = congruence_filter(F, psi, group, target)
            sf, sg = F.expand((6, 6)), G.expand((6, 6))
            tset = set(target)
            for e in itertools.product(range(7), repeat=2):
                image = group.identity()
                for v, g in zip(e, psi):
                    for _ in range(v):
                        image = group.add(image, g)
                keep = image in tset
                assert sg.coefficient(e) == (sf.coefficient(e) if keep else 0)
                checked += 1
    print(f"\nPASS criterion 2: {len(seeds)} seeds x {len(configs)} filters, {checked} coefficients")


def _all_words(sigma, group, length):
    for combo in itertools.product(sigma, repeat=length):
        yield WeightedWord(
            tuple(a for a, _ in combo), tuple(w for _, w in combo), group
        )


def test_criterion_3_ideal_equivalence():
    """Membership in the compiled principal-ideal language coincides with the
    direct order test for every x (length <= 3) and y (length <= 6).

    Both sides are swept as lazily determinized automata: the ideal side
    determinizes exactly the minimal-words construction (validated against
    langkit's eager compilation below), the order side determinizes the
    witness search (validated against leq below).  The sweep runs over their
    product with the weight invariant, so each reachable product state is
    checked once, at the least length of a y reaching it.
    """
    start = time.monotonic()
    total_states, mismatches = _ideal_equivalence_sweep()
    spot_failures = _ideal_spot_validation()
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert spot_failures == 0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: {total_states} live product states, 0 mismatches, {elapsed:.1f}s")


def _ideal_equivalence_sweep():
    """Exhaustive comparison over every y with |y| <= 6.

    A product state (ideal state, upset state, invariant) decides membership
    of y and of every extension of y, so a breadth-first search that expands
    each state once, at its least depth, covers every y a full tree walk
    would; plain counters keep the hot loop unrewritten.
    """
    total_states = 0
    mismatches = 0
    for letters, group in [
        (("a",), Z2),
        (("a",), Z3),
        (("a", "b"), Z2),
        (("a", "b"), Z3),
    ]:
        elements = group.elements()
        sigma = [(a, w) for a in letters for w in elements]
        rank = len(group.orders)
        slot = {a: i for i, a in enumerate(letters)}
        orders = group.orders
        xs = []
        for k in range(4):
            xs.extend(_all_words(sigma, group, k))
        for x in xs:
            ideal = IdealRecognizer(x, letters)
            upset = UpsetRecognizer(x)
            theta = ideal.theta
            iacc, uacc = ideal._accepting, upset._accepting
            istep, ustep = ideal.step, upset.step
            iconf, uconf = ideal._configs, upset._configs
            root = (ideal.start, upset.start, (0,) * (len(letters) * rank))
            seen = {root}
            queue = deque([(*root, 0)])
            while queue:
                i_state, u_state, inv, depth = queue.popleft()
                if (iacc[i_state] and inv == theta) != uacc[u_state]:
                    mismatches += 1
                total_states += 1
                if depth == 6:
                    continue
                for sym in sigma:
                    ni = istep(i_state, sym)
                    nu = ustep(u_state, sym)
                    if not iconf[ni] and not uconf[nu]:
                        continue  # both dead: every extension agrees
                    a, w = sym
                    s = slot[a] * rank
                    ninv = (
                        inv[:s]
                        + tuple((inv[s + j] + w[j]) % orders[j] for j in range(rank))
                        + inv[s + rank :]
                    )
                    if (ni, nu, ninv) not in seen:
                        seen.add((ni, nu, ninv))
                        queue.append((ni, nu, ninv, depth + 1))
    return total_states, mismatches


def _ideal_spot_validation() -> int:
    """Validate both determinizations against the pairwise operations
    (eager langkit compilation and leq witness search) on sampled pairs."""
    rng = random.Random(2024)
    failures = 0
    for _ in range(40):
        group = rng.choice([Z2, Z3])
        letters = rng.choice([("a",), ("a", "b")])
        sigma = [(a, w) for a in letters for w in group.elements()]
        xlen = rng.randint(0, 2)
        combo = [rng.choice(sigma) for _ in range(xlen)]
        x = WeightedWord(tuple(a for a, _ in combo), tuple(w for _, w in combo), group)
        dfa = compile_quasi_ordered(principal_ideal_language(x, letters=letters))
        ideal = IdealRecognizer(x, letters)
        upset = UpsetRecognizer(x)
        for _ in range(20):
            ylen = rng.randint(0, 5)
            comb = [rng.choice(sigma) for _ in range(ylen)]
            y = WeightedWord(tuple(a for a, _ in comb), tuple(w for _, w in comb), group)
            member = dfa.accepts(y.symbols())
            if ideal.accepts(y) != member:
                failures += 1
            if upset.accepts(y) != member or (leq(x, y) is not None) != member:
                failures += 1
    return failures


def _random_word(rng, letters, group, n):
    return WeightedWord(
        tuple(rng.choice(letters) for _ in range(n)),
        tuple(rng.choice(group.elements()) for _ in range(n)),
        group,
    )


def _inflate_prefix(rng, x, keep_suffix):
    """Grow a word above x by padding fibers of the prefix, pinning the final
    keep_suffix letters; returns (y, witness mapping)."""
    group = x.group
    n = len(x)
    head = n - keep_suffix
    mapping = []
    for i in range(head):
        mapping.append(i)
        for _ in range(rng.randint(0, 2)):
            mapping.append(rng.randrange(i + 1))
    fibers: dict = {}
    weights = [None] * len(mapping)
    for j, v in enumerate(mapping):
        fibers.setdefault(v, []).append(j)
    for i, positions in fibers.items():
        rest = group.identity()
        for j in positions[:-1]:
            w = rng.choice(group.elements())
            weights[j] = w
            rest = group.add(rest, w)
        weights[positions[-1]] = group.add(x.weights[i], group.neg(rest))
    letters = [x.letters[v] for v in mapping]
    for i in range(head, n):
        mapping.append(i)
        letters.append(x.letters[i])
        weights.append(x.weights[i])
    y = WeightedWord(tuple(letters), tuple(weights), group)
    f = OrderedSurjection(tuple(mapping), n)
    assert validate_witness(f, x, y)
    return y, f


def test_criterion_4_witness_lemmas():
    """500 randomized refinement / deletion-lift instances, zero failures."""
    rng = random.Random(97)
    refine_count = 0
    while refine_count < 250:
        group = rng.choice([Z2, Z3, Z2Z2])
        letters = rng.choice([("a",), ("a", "b")])
        n = rng.randint(1, 5)
        x = _random_word(rng, letters, group, n)
        r = rng.randint(0, n)
        y, _ = _inflate_prefix(rng, x, r)
        f = refine_witness(x, y, r)
        assert validate_witness(f, x, y)
        m = len(y)
        for i in range(r):
            assert f.fiber(n - 1 - i) == (m - 1 - i,)
        refine_count += 1

    lift_count = 0
    while lift_count < 250:
        group = rng.choice([Z2, Z3])
        letters = rng.choice([("a",), ("a", "b")])
        n = rng.randint(2, 5)
        x = _random_word(rng, letters, group, n)
        r = rng.randint(1, n - 1)
        p = rng.randint(0, r)
        betas = tuple(sorted(rng.sample(range(1, r + 1), p)))
        y, f0 = _inflate_prefix(rng, x, r)
        x_del = x.delete_from_right(betas)
        y_del = y.delete_from_right(betas)
        # sub-witness: the inflation map restricted away from the deleted suffix slots
        m = len(y)
        drop_y = {m - b for b in betas}
        sub_map = []
        kept_targets = sorted(set(range(n)) - {n - b for b in betas})
        reindex = {old: new for new, old in enumerate(kept_targets)}
        for j, v in enumerate(f0.mapping):
            if j in drop_y:
                continue
            sub_map.append(reindex[v])
        sub = OrderedSurjection(tuple(sub_map), len(x_del))
        assert validate_witness(sub, x_del, y_del)
        f = deletion_lift(x, y, r, betas, sub)
        assert validate_witness(f, x, y)
        lift_count += 1
    print(f"\nPASS criterion 4: {refine_count} refinements + {lift_count} deletion lifts validated")


def test_criterion_5_fws_series():
    """Principal-projective series over weighted surjections match the closed
    forms built by hand and the brute-force surjection count to degree 5,
    coefficientwise."""
    one = CyclotomicNumber.one()

    # single point, trivial weights: t/(1-t)
    series, closed = fws_principal_series([()], AbelianGroup(()), 5)
    target = FactoredRational.monomial(1, 0) * FactoredRational.geometric(
        1, LinearForm({0: one})
    )
    assert series == target.expand((5,))
    assert closed is not None and series == surjection_series([()], AbelianGroup(()), 5)

    base = FactoredRational.geometric(2, LinearForm({0: one, 1: one}))
    flip = base.translate((0, 1), 2)

    series1, closed1 = fws_principal_series([(1,)], Z2, 5)
    target1 = base.scale(Fraction(1, 2)) + flip.scale(Fraction(-1, 2))
    assert series1 == target1.expand((5, 5))
    assert closed1 is not None and series1 == surjection_series([(1,)], Z2, 5)

    series0, closed0 = fws_principal_series([(0,)], Z2, 5)
    target0 = (
        base.scale(Fraction(1, 2))
        + flip.scale(Fraction(1, 2))
        + FactoredRational.constant(2, -1)
    )
    assert series0 == target0.expand((5, 5))
    assert closed0 is not None and series0 == surjection_series([(0,)], Z2, 5)
    print("\nPASS criterion 5: three weighted-surjection series match their closed forms to degree 5")


def test_criterion_6_diagonal_induction():
    """Closed diagonal-induction series reproduce the reciprocity oracle for
    Z/2, Z/3, S_3 at n <= 4; the Z/2 trivial series is the stated half-sum."""
    tables = [character_table(FiniteGroup.cyclic(2)), character_table(FiniteGroup.cyclic(3)), symmetric_table(3)]
    for table in tables:
        nvars = len(table.rows)
        for i in range(nvars):
            F = wreath.diag_induced_series(table, i)
            series = F.expand((4,) * nvars)
            for n in range(1, 5):
                image = induced_monomial_image(table, i, n)
                for e in itertools.product(range(5), repeat=nvars):
                    if sum(e) == n:
                        assert series.coefficient(e) == image.get(e, 0)

    z2 = tables[0]
    F = wreath.diag_induced_series(z2, z2.trivial_index())
    one = CyclotomicNumber.one()
    base = FactoredRational.geometric(2, LinearForm({0: one, 1: one}))
    flip = FactoredRational.geometric(
        2, LinearForm({0: one, 1: CyclotomicNumber.from_rational(-1)})
    )
    target = base.scale(Fraction(1, 2)) + flip.scale(Fraction(1, 2))
    assert F.expand((6, 6)) == target.expand((6, 6))
    print("\nPASS criterion 6: diagonal inductions match the oracle for Z/2, Z/3, S_3 (n <= 4)")


def test_criterion_7_fs_fws_cross_check():
    """The Z/2 diagonal induction of the trivial module and the weight-zero
    principal projective over weighted sets agree in degrees 1..5."""
    z2 = character_table(FiniteGroup.cyclic(2))
    F = wreath.diag_induced_series(z2, z2.trivial_index())
    wreath_series = F.expand((5, 5))
    fws_series, _ = fws_principal_series([(0,)], Z2, 5)
    for e in itertools.product(range(6), repeat=2):
        if 1 <= sum(e) <= 5:
            assert wreath_series.coefficient(e) == fws_series.coefficient(e), e
    print("\nPASS criterion 7: diagonal-induction and weighted-surjection series agree in degrees 1..5")


def test_criterion_8_wreath_stability():
    """Tensor multiplicities stabilize: constant tails over the test windows."""
    start = time.monotonic()
    triv = character_table(FiniteGroup.cyclic(1))
    lam = ((1,),)
    assert wreath.tensor_stability_table(triv, lam, lam, lam, range(3, 7)) == [1, 1, 1, 1]

    z2 = character_table(FiniteGroup.cyclic(2))
    sgn_slot = 1 - z2.trivial_index()
    sgn1 = tuple((1,) if i == sgn_slot else () for i in range(2))
    empty = ((), ())
    for nu in (empty, sgn1):
        values = wreath.tensor_stability_table(z2, sgn1, sgn1, nu, range(1, 8))
        tail = [v for v in values if v is not None][-4:]
        assert len(tail) == 4 and len(set(tail)) == 1, values
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"\nPASS criterion 8: stability tables constant on their 4-entry tails, {elapsed:.1f}s")


def test_criterion_9_symmetric_groups_are_2_good():
    """Young subgroups are a good family with unit divisors and N = 2."""
    for n in range(2, 6):
        G = FiniteGroup.symmetric(n)
        fam = [(H, emb) for _, H, emb in young_subgroups(n, G)]
        result = is_good_family(G, fam)
        n_irr = len(character_table(G).rows)
        assert result["good"] is True
        assert result["elementary_divisors"] == [1] * n_irr
        assert result["exponent_lcm"] == 2
    print("\nPASS criterion 9: Young families are good with unit divisors and N = 2 for n = 2..5")


def test_criterion_10_segre():
    """Edge powers have 2^(n-1) components; the swap action decomposes as
    t_0^2 + t_1^2 at n = 2; boundaries square to zero throughout."""
    edge = SimplicialComplex([1, 2], [[1, 2]])
    for n in range(1, 5):
        power = segre_product(*[edge] * n)
        check_boundary_squares_to_zero(power)
        assert homology_ranks(power, 0) == {0: 2 ** (n - 1)}

    base = segre_product(edge)
    action = GroupAction(
        FiniteGroup.cyclic(2),
        base,
        [{(1,): (1,), (2,): (2,)}, {(1,): (2,), (2,): (1,)}],
    )
    data = equivariant_hilbert_data(action, 0, 2)
    assert data[1] == {(2, 0): 1, (0, 2): 1}
    print("\nPASS criterion 10: Segre homology ranks, equivariant decomposition, and boundary checks")
