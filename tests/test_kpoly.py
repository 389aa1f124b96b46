"""K-polynomial recursion, its standard-monomial identity, Schur K of the G(2,6) cone."""

import gc
import itertools
import random
from collections import Counter
from operator import add, le, mul

import pytest

from hilb.groebner import Ideal, MonomialIdeal
from hilb.kpoly import HilbertSeries, hilbert_series, kpoly_monomial, reciprocity_check, schur_K_G26, series_equal
from hilb.localeq import jacobian_ideal, pyramid_potential, var_weight
from hilb.multipoly import PACK_LIMIT, LaurentPoly, PolyRing, RingError, Weight
from hilb.partitions import Partition, enumerate_partitions, ideal_of_partition, parse_chain
from test_localeq import mono_weight
from test_multipoly import fractions, weight_of


def weight_columns(weights):
    """(scale, columns): the largest scale of the weights and, for each
    torus coordinate, the numerators of all weights on it, so the weight
    of a monomial m is the vector of the sums of m times each column."""
    scale = max(w.scale for w in weights)
    return scale, list(zip(*(tuple(x * (scale // w.scale) for x in w.nums) for w in weights)))


def taylor_kpoly(J, weights):
    """Inclusion-exclusion over generator subsets: sum (-1)^|S| t^lcm(S).

    Independent oracle for the recursion; each generator in turn adds the
    lcm with it of every subset so far, with the opposite sign, to a
    `Counter` of lcms, where equal lcms merge. Exponential in the
    generator count in the worst case, so only for small inputs.
    """
    lcms = Counter({(0,) * J.nvars: 1})
    for g in J.gens:
        for m, c in list(lcms.items()):
            lcms[tuple(map(max, m, g))] -= c
    scale, columns = weight_columns(weights)
    total = Counter()
    for m, c in lcms.items():
        total[tuple(sum(map(mul, m, col)) for col in columns)] += c
    return LaurentPoly(weights[0].r, {Weight(nums, scale): c for nums, c in total.items()})


def tuple_kpoly(J, weights):
    """The colon recursion on exponent tuples, as an oracle:
    K(f_1..f_m) = K(f_1..f_{m-1}) - t^{w(f_m)} K((f_1..f_{m-1}) : f_m),
    memoized, at every generator count, where `kpoly_monomial` splits long
    generator tuples on a variable instead. The colon is the tuple
    lcm(g, f) / f, the minimalization the pairwise definition, and a weight
    an int vector on the largest scale, made a `Weight` only at the end."""
    r = weights[0].r
    scale, columns = weight_columns(weights)
    memo = {(): {(0,) * r: 1}}

    def minimal(monos):
        monos = set(monos)
        return tuple(sorted(g for g in monos if not any(h != g and all(map(le, h, g)) for h in monos)))

    def run(gens):
        if gens not in memo:
            f, rest = gens[-1], gens[:-1]
            out = dict(run(rest))
            shift = [sum(map(mul, f, col)) for col in columns]
            colon = (tuple(x - y if x > y else 0 for x, y in zip(g, f)) for g in rest)
            for w, c in run(minimal(colon)).items():
                w = tuple(map(add, w, shift))
                out[w] = out.get(w, 0) - c
            memo[gens] = {w: c for w, c in out.items() if c}
        return memo[gens]

    return LaurentPoly(r, {Weight(nums, scale): c for nums, c in run(J.gens).items()})


def random_monomial_ideal(rng, nvars, max_gens=5, max_exp=4, finite=False):
    gens = []
    if finite:
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randint(1, max_exp)
            gens.append(tuple(e))
    for _ in range(rng.randint(1, max_gens)):
        gens.append(tuple(rng.randint(0, max_exp) for _ in range(nvars)))
    gens = [g for g in gens if any(g)]
    if not gens:
        gens = [(1,) * nvars]
    return MonomialIdeal(nvars, gens)


E1 = Weight.of(1, 0, 0)
E2 = Weight.of(0, 1, 0)
E3 = Weight.of(0, 0, 1)


class TestKpolyMonomial:
    def test_principal_is_koszul(self):
        J = MonomialIdeal(1, [(1,)])
        K = kpoly_monomial(J, [Weight.of(1)])
        assert K == LaurentPoly.one(1) - LaurentPoly.char(Weight.of(1))

    def test_two_generators_small(self):
        # (x^2, xy) with w(x)=e1, w(y)=e2: 1 - t1^2 - t1 t2 + t1^2 t2
        J = MonomialIdeal(2, [(2, 0), (1, 1)])
        w = [Weight.of(1, 0), Weight.of(0, 1)]
        K = kpoly_monomial(J, w)
        expected = (
            LaurentPoly.one(2)
            - LaurentPoly.char(Weight.of(2, 0))
            - LaurentPoly.char(Weight.of(1, 1))
            + LaurentPoly.char(Weight.of(2, 1))
        )
        assert K == expected
        assert K == taylor_kpoly(J, w)

    def test_zero_and_unit_ideal(self):
        assert kpoly_monomial(MonomialIdeal(2, []), [Weight.of(1, 0), Weight.of(0, 1)]) == LaurentPoly.one(2)
        assert kpoly_monomial(MonomialIdeal(2, [(0, 0)]), [Weight.of(1, 0), Weight.of(0, 1)]) == LaurentPoly(2)

    def test_matches_taylor_oracle_on_random_ideals(self):
        # mixed scales: the recursion rescales every weight to the largest one
        rng = random.Random(7)
        for _ in range(40):
            nv = rng.randint(1, 3)
            J = random_monomial_ideal(rng, nv)
            weights = []
            for _ in range(nv):
                while True:
                    w = Weight(tuple(rng.randint(-2, 3) for _ in range(2)), rng.choice((1, 2, 4)))
                    if any(w.nums):
                        break
                weights.append(w)
            assert kpoly_monomial(J, weights) == taylor_kpoly(J, weights)

    def test_matches_the_tuple_recursion(self):
        # negative, mixed-scale and large weights and exponents near the
        # packed limit set the width of the packed numerator weights
        rng = random.Random(13)
        entries = [
            lambda: rng.randint(-3, 3),
            lambda: rng.randint(-(2**40), 2**40),
            lambda: rng.choice((-1, 1)) * (2**70 - rng.randint(0, 9)),
        ]
        for _ in range(60):
            nv = rng.randint(1, 5)
            big = rng.random() < 0.2
            gens = [
                tuple(rng.randint(0, (PACK_LIMIT - 1) // (2 * nv) if big else 4) for _ in range(nv))
                for _ in range(rng.randint(1, 7))
            ]
            J = MonomialIdeal(nv, gens)
            r = rng.randint(1, 3)
            entry = rng.choice(entries)
            weights = [Weight(tuple(entry() for _ in range(r)), rng.choice((1, 2, 8))) for _ in range(nv)]
            assert kpoly_monomial(J, weights) == tuple_kpoly(J, weights)

    def test_long_generator_tuples_split_on_a_variable(self):
        # more than 12 minimal generators and a variable that divides two
        # send the recursion into its pivot branch: quadrics and cubics,
        # some pure powers, some exponents near the packed limit, and
        # weights of both signs on scales 1, 2 and mixed. In a quarter of
        # the ideals every generator holds x_0 near the limit, so the pivot
        # exponent is large, and pivots on x_0^1 would recurse past
        # Python's depth limit
        rng = random.Random(29)
        for _ in range(32):
            nv = rng.randint(6, 18)
            big = (PACK_LIMIT - 1) // (2 * nv)
            target = rng.randint(13, 24)
            heavy = rng.random() < 0.25
            gens = []
            J = MonomialIdeal(nv, gens)
            while len(J.packed) < target:
                e = [0] * nv
                if rng.random() < 0.15:
                    e[rng.randrange(heavy, nv)] = rng.randint(2, 4)
                else:
                    for i in rng.choices(range(heavy, nv), k=rng.randint(2, 3)):
                        e[i] += 1
                if heavy or rng.random() < 0.15:
                    e[0 if heavy else rng.randrange(nv)] = big - rng.randint(0, 9)
                gens.append(tuple(e))
                J = MonomialIdeal(nv, gens)
            assert len(J.gens) > 12
            assert max(sum(e[i] > 0 for e in J.gens) for i in range(nv)) >= 2
            r = rng.randint(1, 3)
            scales = rng.choice([(1,), (2,), (1, 2)])
            weights = [Weight(tuple(rng.randint(-3, 3) for _ in range(r)), rng.choice(scales)) for _ in range(nv)]
            K = kpoly_monomial(J, weights)
            assert K == tuple_kpoly(J, weights)
            if len(J.gens) <= 14:
                assert K == taylor_kpoly(J, weights)

    def test_long_generator_tuples_with_no_shared_variable_take_the_colon_step(self):
        # pure powers x_i^{a_i}: more than 12 generators, but no variable
        # divides two, so no pivot applies and the colon step peels them
        # off; K is the product of the factors 1 - t^{a_i w_i}
        rng = random.Random(31)
        for _ in range(6):
            nv = rng.randint(13, 20)
            exps = [rng.randint(1, 3) for _ in range(nv)]
            J = MonomialIdeal(nv, [tuple(a if k == i else 0 for k in range(nv)) for i, a in enumerate(exps)])
            assert len(J.gens) == nv and max(sum(e[i] > 0 for e in J.gens) for i in range(nv)) == 1
            r = rng.randint(1, 3)
            scales = rng.choice([(1,), (2,), (1, 2)])
            weights = [Weight(tuple(rng.randint(-3, 3) for _ in range(r)), rng.choice(scales)) for _ in range(nv)]
            expected = LaurentPoly.one(r)
            for a, w in zip(exps, weights):
                expected = expected - expected.twist(Weight(tuple(a * x for x in w.nums), w.scale))
            K = kpoly_monomial(J, weights)
            assert K == expected
            assert K == tuple_kpoly(J, weights)

    def test_is_the_factors_times_the_standard_monomials(self):
        # for finite colength, K = prod_i (1 - t^{w_i}) * sum over m outside J
        # of t^{w(m)}; each exponent of such m is below the largest generator entry
        rng = random.Random(23)
        for _ in range(40):
            nv = rng.randint(1, 3)
            J = random_monomial_ideal(rng, nv, finite=True)
            weights = [Weight(tuple(rng.randint(-2, 3) for _ in range(2)), rng.choice((1, 2, 4))) for _ in range(nv)]
            box = itertools.product(*(range(k) for k in map(max, zip(*J.gens))))
            expected = LaurentPoly(2, Counter(weight_of(mono_weight(m, weights)) for m in box if not J.contains(m)))
            for w in weights:
                expected = expected - expected.twist(w)
            assert kpoly_monomial(J, weights) == expected

    def test_result_weights_are_canonical(self):
        # the view builds each key from the numerators on the polynomial's
        # one scale, so each must be the weight that `Weight(...)` reduces
        # its own fields to. On the Plucker
        # weights u/2 of ROADMAP item 3, every u has odd entries: a sum of
        # two is even and reduces to scale 1, a sum of three stays at scale 2
        plucker = [Weight(u, 2) for u in [(-1, -1, 3), (-1, 1, 1), (-1, 3, -1), (1, -1, 1), (1, 1, -1), (3, -1, -1)]]
        square = [tuple(map(pair.count, range(6))) for pair in itertools.combinations_with_replacement(range(6), 2)]
        cases = [
            (MonomialIdeal(6, square), plucker),
            (random_monomial_ideal(random.Random(3), 6, max_gens=8, max_exp=3, finite=True), plucker),
            (ideal_of_partition(parse_chain("(1) ⊂ (2,1)")), [E1, E2, E3]),
        ]
        scales = []
        for J, weights in cases:
            K = kpoly_monomial(J, weights)
            for w in K.terms:
                rebuilt = Weight(w.nums, w.scale)
                assert (rebuilt.nums, rebuilt.scale) == (w.nums, w.scale)
                assert rebuilt == w and hash(rebuilt) == hash(w)
            assert K == tuple_kpoly(J, weights)
            scales.append(Counter(w.scale for w in K.terms))
        assert all(scales[k][1] and scales[k][2] for k in (0, 1))
        assert set(scales[2]) == {1}

    def test_generator_order_is_immaterial(self):
        rng = random.Random(11)
        for _ in range(10):
            J = random_monomial_ideal(rng, 3)
            gens = list(J.gens)
            rng.shuffle(gens)
            J2 = MonomialIdeal(3, gens)
            w = [E1, E2, E3]
            assert kpoly_monomial(J, w) == kpoly_monomial(J2, w)

    def test_weight_count_must_cover_variables(self):
        with pytest.raises(RingError):
            kpoly_monomial(MonomialIdeal(2, [(1, 0)]), [Weight.of(1)])

    def test_weight_ranks_must_agree(self):
        J = MonomialIdeal(2, [(1, 0), (0, 1)])
        with pytest.raises(RingError, match="rank"):
            kpoly_monomial(J, [Weight.of(1, 0), Weight.of(1, 0, 0)])

    def test_no_variables_is_a_ring_error(self):
        with pytest.raises(RingError):
            kpoly_monomial(MonomialIdeal(0, []), [])


class TestHilbertSeries:
    def test_denominator_weights_must_be_nonzero(self):
        with pytest.raises(RingError):
            HilbertSeries(LaurentPoly.one(1), [Weight.of(0)])

    def test_zero_ideal_in_three_variables(self):
        ring = PolyRing(("x", "y", "z"))
        h = hilbert_series(Ideal(ring, []), [E1, E2, E3])
        # 1 / ((1 - t_1)(1 - t_2)(1 - t_3)): numerator 1, one factor per variable
        assert h.numerator == LaurentPoly.one(3)
        assert h.denom_weights == (E3, E2, E1)

    def test_denominator_weights_sort_across_scales(self):
        # scales 1, 2 and 4 in one denominator, sorted as the rational vectors
        w = [
            Weight((1, 3), 4), Weight.of(1, 0), Weight((1, 1), 2), Weight((-3, 1), 4),
            Weight.of(0, -1), Weight((1, -1), 2), Weight((2, 1), 4), Weight.of(1, 0),
        ]
        h = HilbertSeries(LaurentPoly.one(2), w)
        assert h.denom_weights == tuple(sorted(w, key=fractions))
        # -3/4 < 0 < 1/4 < 1/2 = 1/2 = 2/4 < 1, ties broken by the second entry
        assert h.denom_weights == (w[3], w[4], w[0], w[5], w[6], w[2], w[1], w[7])

    def test_lex_and_grevlex_routes_agree(self):
        # twisted cubic, multigraded by its monomial parametrization
        ring = PolyRing(("x0", "x1", "x2", "x3"))
        x0, x1, x2, x3 = ring.gens()
        I_gens = [x0 * x2 - x1 * x1, x1 * x3 - x2 * x2, x0 * x3 - x1 * x2]
        w = [Weight.of(3, 0), Weight.of(2, 1), Weight.of(1, 2), Weight.of(0, 3)]
        h1 = hilbert_series(Ideal(ring, I_gens), w, order="grevlex")
        h2 = hilbert_series(Ideal(ring, I_gens), w, order="lex")
        assert series_equal(h1, h2)

    def test_render_groups_factors(self):
        h = HilbertSeries(LaurentPoly.one(2), [Weight.of(1, 0), Weight.of(1, 0), Weight.of(0, 1)])
        assert h.render() == "(1) / (1 - t_2) (1 - t_1)^2"
        # half-integer, negative and two-digit exponents, and a repeated factor
        N = LaurentPoly.one(2) - LaurentPoly.char(Weight((3, -1), 2)) * 2 - LaurentPoly.char(Weight.of(12, 0))
        w = [Weight((1, 1), 2), Weight.of(0, -1), Weight.of(10, 1), Weight((1, 1), 2), Weight((3, 0), 4)]
        assert HilbertSeries(N, w).render() == (
            "(-t_1^{12} - 2 t_1^{3/2} t_2^{-1/2} + 1)"
            " / (1 - t_2^{-1}) (1 - t_1^{1/2} t_2^{1/2})^2 (1 - t_1^{3/4}) (1 - t_1^{10} t_2)"
        )
        ring = PolyRing(("x", "y"))
        x, y = ring.gens()
        h = hilbert_series(Ideal(ring, [x**2, x * y]), [Weight.of(1, 0), Weight.of(0, 1)])
        assert h.render() == repr(h) == "(t_1^2 t_2 - t_1 t_2 - t_1^2 + 1) / (1 - t_2) (1 - t_1)"

    def test_render_without_factors_is_the_numerator(self):
        # once "(1) / ", with a slash before no factor
        assert HilbertSeries(LaurentPoly.one(2), []).render() == "(1)"
        assert HilbertSeries(LaurentPoly.char(Weight((1, -1), 2)) * -3, []).render() == "(-3 t_1^{1/2} t_2^{-1/2})"


class TestSchurK:
    def test_constant_term_one(self):
        K = schur_K_G26()
        assert K.terms.get(Weight.of(0, 0, 0, 0, 0, 0)) == 1

    def test_vanishes_at_all_ones(self):
        # the value at t = (1, ..., 1) is the sum of the coefficients
        assert sum(schur_K_G26().terms.values()) == 0

    def test_spot_coefficients(self):
        # anchors read off the expanded form
        K = schur_K_G26()
        assert K.terms.get(Weight.of(3, 3, 3, 3, 3, 3)) == 1
        assert K.terms.get(Weight.of(2, 2, 2, 2, 2, 2)) == 5
        assert K.terms.get(Weight.of(1, 1, 1, 1, 1, 1)) == 5
        assert K.terms.get(Weight.of(1, 1, 1, 1, 0, 0)) == -1
        assert K.terms.get(Weight.of(2, 1, 1, 1, 1, 0)) == 1
        assert K.terms.get(Weight.of(3, 3, 2, 2, 2, 2)) == -1

    def test_no_quadratic_or_linear_terms(self):
        # resolution starts with the 15 quadrics in degree 4 of the u-grading
        K = schur_K_G26()
        degrees = {sum(w.nums) for w in K.terms}
        assert 0 in degrees
        assert not any(d in degrees for d in (1, 2, 3))


class TestReciprocity:
    def test_single_point_satisfies_the_law(self):
        lam = Partition(3, [(0, 0, 0)])
        h = HilbertSeries(LaurentPoly.one(3), [E1, E2, E3])
        assert reciprocity_check(h, lam)

    def test_corrupted_numerator_fails(self):
        lam = Partition(3, [(0, 0, 0)])
        K = LaurentPoly.one(3) + LaurentPoly.char(Weight.of(1, 1, 0))
        h = HilbertSeries(K, [E1, E2, E3])
        assert not reciprocity_check(h, lam)

    def test_answer_does_not_depend_on_rng(self):
        lam = Partition(3, [(0, 0, 0)])
        good = HilbertSeries(LaurentPoly.one(3), [E1, E2, E3])
        bad = HilbertSeries(LaurentPoly.one(3) + LaurentPoly.char(E1), [E1, E2, E3])
        for rng in (None, random.Random(2), random.Random(9)):
            assert reciprocity_check(good, lam, rng=rng)
            assert not reciprocity_check(bad, lam, rng=rng)

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_pyramid_jacobian_series(self, order):
        # the Jacobian ideal of the n=2 pyramid superpotential, whose
        # variables are the c_i^j of (1) < (2,1) with |i| = 1, |j| = 2
        F, variables = pyramid_potential(2)
        weights = [var_weight(v) for v in variables]
        h = hilbert_series(Ideal(F.ring, jacobian_ideal(F)), weights, order=order)
        lam = parse_chain("(1) < (2,1)")
        assert reciprocity_check(h, lam)
        assert not reciprocity_check(HilbertSeries(h.numerator + 1, weights), lam)


class TestSeriesEqual:
    def test_equal_series_agree(self):
        h1 = HilbertSeries(LaurentPoly.one(2), [Weight.of(1, 0), Weight.of(0, 1)])
        h2 = HilbertSeries(LaurentPoly.one(2), [Weight.of(0, 1), Weight.of(1, 0)])
        assert series_equal(h1, h2)

    def test_different_series_disagree(self):
        h1 = HilbertSeries(LaurentPoly.one(2), [Weight.of(1, 0), Weight.of(0, 1)])
        h2 = HilbertSeries(LaurentPoly.one(2), [Weight.of(1, 0), Weight.of(1, 1)])
        assert not series_equal(h1, h2)

    def test_different_denominators_same_function(self):
        # 1/(1 - t) == (1 + t)/(1 - t^2)
        t, t2 = Weight.of(1), Weight.of(2)
        h1 = HilbertSeries(LaurentPoly.one(1), [t])
        h2 = HilbertSeries(LaurentPoly.one(1) + LaurentPoly.char(t), [t2])
        assert series_equal(h1, h2)
        assert series_equal(h2, h1)
        h3 = HilbertSeries(LaurentPoly.one(1) - LaurentPoly.char(t), [t2])
        assert not series_equal(h1, h3)


# The Plucker weights u_0..u_5 of ROADMAP item 3, on scale 2
PLUCKER = [(-1, -1, 3), (-1, 1, 1), (-1, 3, -1), (1, -1, 1), (1, 1, -1), (3, -1, -1)]


def g26_model_series():
    """`schur_K_G26` at t_i = t^(u_i), over its 18 factors: the 15 sums
    u_i + u_j and e1, e2, e3. Each u_i is half of an odd vector, so the
    weights are summed on scale 2; every term of the model has even
    degree, and its weights reduce to scale 1."""
    model = Counter()
    for w, c in schur_K_G26().terms.items():
        model[Weight([sum(k * u[j] for k, u in zip(w.nums, PLUCKER)) for j in range(3)], 2)] += c
    sums = [Weight(tuple(map(add, u, v)), 2) for u, v in itertools.combinations(PLUCKER, 2)]
    return HilbertSeries(LaurentPoly(3, model), sums + [E1, E2, E3])


class TestG26Model:
    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_the_model_is_the_series_of_the_pyramid_jacobian(self, order):
        # the cone over G(2,6), at (1) < (2,1): the Jacobian ideal of the n=2
        # pyramid superpotential has the model's series, under either order
        F, variables = pyramid_potential(2)
        h = hilbert_series(Ideal(F.ring, jacobian_ideal(F)), [var_weight(v) for v in variables], order=order)
        model = g26_model_series()
        assert series_equal(model, h) and series_equal(h, model)
        assert not series_equal(HilbertSeries(model.numerator + 1, model.denom_weights), h)

    def test_the_model_is_self_reciprocal(self):
        model = g26_model_series()
        lam = parse_chain("(1) < (2,1)")
        assert reciprocity_check(model, lam)
        assert not reciprocity_check(HilbertSeries(model.numerator.twist(E1), model.denom_weights), lam)


def test_the_series_path_builds_no_weights(monkeypatch):
    # the colon recursion and the reciprocity check run on packed keys: no
    # Weight is made until a caller reads `terms`, which makes one per term
    made = []
    init = Weight.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    unit = {r: [Weight(tuple(int(i == b) for i in range(r))) for b in range(r)] for r in (3, 4)}
    lams = enumerate_partitions(3, 6)[::7] + enumerate_partitions(4, 4)[::9]
    ideals = [(ideal_of_partition(lam), unit[lam.r]) for lam in lams]
    F, variables = pyramid_potential(2)
    h = hilbert_series(Ideal(F.ring, jacobian_ideal(F)), [var_weight(v) for v in variables])
    lam = parse_chain("(1) < (2,1)")
    monkeypatch.setattr(Weight, "__init__", counting_init)
    Ks = [kpoly_monomial(J, weights) for J, weights in ideals]
    assert reciprocity_check(h, lam)
    assert made == []
    assert sum(len(K.terms) for K in Ks) == len(made) > 0


def test_recursions_leave_no_reference_cycles():
    # each recursion refers to itself through its closure cell; the call
    # breaks that cycle on return, so its memo is freed without the cyclic GC
    J = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
    w = [Weight.of(1, 0), Weight.of(0, 1)]
    # the 15 quartics in three variables: more than 12 generators take the pivot branch
    quartics = MonomialIdeal(3, [e for e in itertools.product(range(5), repeat=3) if sum(e) == 4])
    assert len(quartics.packed) == 15
    calls = [
        lambda: kpoly_monomial(J, w),
        lambda: kpoly_monomial(quartics, [E1, E2, E3]),
        lambda: enumerate_partitions(3, 5),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HilbertSeries(LaurentPoly.one(2), [Weight((1, 0, 0))]), "weight rank mismatch"),
        (
            lambda: series_equal(HilbertSeries(LaurentPoly.one(2), []), HilbertSeries(LaurentPoly.one(3), [])),
            "rank mismatch",
        ),
        (
            lambda: reciprocity_check(HilbertSeries(LaurentPoly.one(2), []), Partition(3, [(0, 0, 0)])),
            "rank mismatch",
        ),
    ],
    ids=["series-weight-rank", "series-equal-ranks", "reciprocity-rank"],
)
def test_boundary_checks_raise_ring_errors(call, message):
    with pytest.raises(RingError) as info:
        call()
    assert type(info.value) is RingError and str(info.value) == message
