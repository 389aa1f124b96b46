import random
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb.multipoly import (
    PACK_LIMIT,
    LaurentPoly,
    MultiPoly,
    PackedLayout,
    PolyRing,
    RingError,
    Weight,
    _mul_packed,
    order_key,
    poly_from_terms,
)

F = Fraction


# Tuple references for the packed product, lcm, colon and divisibility of PackedLayout


def _mono_mul(a, b):
    return tuple([x + y for x, y in zip(a, b)])


def _mono_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])


def _mono_colon(a, b):
    """The generator of (a) : b, that is lcm(a, b) / b."""
    return tuple([x - y if x > y else 0 for x, y in zip(a, b)])


def _mono_divides(a, b):
    return all(map(le, a, b))


def pack(lay, e):
    """One monomial packed by `PackedLayout.pack_all`."""
    return lay.pack_all([e])[0]


def test_lex_basic():
    # x^2 vs x y with x before y
    key = order_key("lex")
    assert key((2, 0)) > key((1, 1))


def test_grevlex_degree_first():
    key = order_key("grevlex")
    assert key((1, 1, 1)) < key((3, 0, 0))


def test_grevlex_tiebreak():
    # x^2 y beats x y^2: the last nonzero exponent of the difference is negative
    key = order_key("grevlex")
    assert key((2, 1)) > key((1, 2))


def test_order_multiplicative():
    rng = random.Random(5)
    for order in ("lex", "grevlex"):
        key = order_key(order)
        for _ in range(100):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert (key(ac) > key(bc), key(ac) == key(bc)) == (key(a) > key(b), key(a) == key(b))


@pytest.mark.parametrize("order", ["weighted", ("weighted", (1, 2)), ("grevlex",)])
def test_unknown_orders_rejected(order):
    with pytest.raises(RingError):
        order_key(order)


def test_substitute_square():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    p = x * x
    q = p.substitute([x + y, y])
    assert q == x * x + 2 * x * y + y * y


def test_substitute_identity():
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    p = 3 * x * y * z - z * z + 7
    assert p.substitute(list(R.gens())) == p


def test_substitute_needs_an_image_to_take_the_target_ring_from():
    with pytest.raises(RingError):
        PolyRing([]).const(3).substitute([])


def test_substitute_takes_its_target_ring_from_the_first_image():
    x, y, z = R3.gens()
    u, v = S2.gens()
    twin = PolyRing(S2.names)  # equal to S2, another object
    image = (x * y).substitute([u, twin.var(1), v])
    assert image == u * v and image.ring is S2
    for images in ([u, v, PolyRing(["a"]).var(0)], [u, v, R3.var(0)]):  # z has no term
        with pytest.raises(RingError):
            (x * y).substitute(images)


def test_substitute_is_homomorphism():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    rng = random.Random(9)

    def rand_poly():
        return poly_from_terms(
            R,
            [((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(-4, 4)) for _ in range(4)],
        )

    images = [x - 2 * y, x * y + 1]
    for _ in range(20):
        p, q = rand_poly(), rand_poly()
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


def polys(ring, max_exp=3, max_terms=5, coeffs=st.integers(-4, 4)):
    """Small polynomials over `ring`, with integer coefficients unless `coeffs` says otherwise."""
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.n)
    pairs = st.lists(st.tuples(exps, coeffs), max_size=max_terms)
    return pairs.map(lambda ps: poly_from_terms(ring, ps))


R3 = PolyRing(["x", "y", "z"])
S2 = PolyRing(["u", "v"])
seeded = settings(derandomize=True, max_examples=80, deadline=None)


@seeded
@given(polys(R3), polys(R3, max_exp=2, max_terms=3), st.integers(0, 2))
def test_substitute_one_variable_matches_term_expansion(p, q, x):
    # sending x to q and every other variable to itself replaces each term
    # c * x^k * m by c * m * q^k
    images = list(R3.gens())
    images[x] = q
    expected = R3.zero()
    for e, c in p.terms.items():
        m = tuple(0 if i == x else k for i, k in enumerate(e))
        expected = expected + R3.monomial(m, c) * q ** e[x]
    assert p.substitute(images) == expected


@seeded
@given(polys(R3), polys(R3), st.lists(polys(S2, max_exp=2, max_terms=3), min_size=3, max_size=3))
def test_substitute_into_another_ring_is_a_homomorphism(p, q, images):
    def phi(f):
        return f.substitute(images)

    assert phi(p * q) == phi(p) * phi(q)
    assert phi(p + q) == phi(p) + phi(q)
    assert phi(R3.const(F(5, 3))) == S2.const(F(5, 3))
    assert [phi(g) for g in R3.gens()] == images


rational_polys = polys(R3, coeffs=st.fractions(-4, 4, max_denominator=6))


@seeded
@given(rational_polys, rational_polys, rational_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert not p - p
    assert p - p == R3.zero()


# entries near 2^12 make packed subtraction borrow across fields; n = 8
# such entries stay below PACK_LIMIT, and two of them can reach it
packed_entries = st.one_of(st.integers(0, 3), st.integers(4000, 4095))
packed_cases = st.tuples(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(st.tuples(*[packed_entries] * n), min_size=2, max_size=6)
    ),
    st.sampled_from(["lex", "grevlex"]),
)


@seeded
@given(packed_cases)
def test_packed_layout_matches_the_tuple_operations(case):
    monos, order = case
    lay = PackedLayout(len(monos[0]), order)
    key = order_key(order)
    packed = [pack(lay, e) for e in monos]
    assert [lay.unpack(m) for m in packed] == monos
    for i in range(len(monos[0])):
        unit, mask, shift = lay.field(i)
        assert unit == pack(lay, tuple(int(k == i) for k in range(len(monos[0]))))
        assert [(m & mask) >> shift for m in packed] == [e[i] for e in monos]
    assert sorted(monos, key=lambda e: lay.key(pack(lay, e))) == sorted(monos, key=key)
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            assert ((pb - pa) & lay.guard == 0) == _mono_divides(a, b)
            assert (lay.key(pa) < lay.key(pb)) == (key(a) < key(b))
            product = pa + pb
            if sum(a) + sum(b) < PACK_LIMIT:
                assert product & lay.guard == 0
                assert product == pack(lay, _mono_mul(a, b))
            else:
                assert product & lay.guard


def packable_monomials(n):
    """Small entries with up to two spikes near 2^12 or 2^15: two spikes
    near 2^15 reach PACK_LIMIT, and one may with the small entries."""
    spike = st.one_of(st.integers(4000, 4095), st.integers(PACK_LIMIT - 64, PACK_LIMIT - 1))
    spikes = st.lists(st.tuples(st.integers(0, n - 1), spike), max_size=2)
    small = st.lists(st.integers(0, 3), min_size=n, max_size=n)

    def place(case):
        e, spikes = case
        for i, k in spikes:
            e[i] = k
        return tuple(e)

    return st.tuples(small, spikes).map(place)


packed_batches = st.tuples(
    st.integers(1, 20).flatmap(lambda n: st.lists(packable_monomials(n), max_size=8)),
    st.sampled_from(["lex", "grevlex"]),
)


@seeded
@given(packed_batches)
def test_pack_all_is_pack_of_each_monomial(case):
    monos, order = case
    n = len(monos[0]) if monos else 3
    lay = PackedLayout(n, order)
    if max(map(sum, monos), default=0) >= PACK_LIMIT:
        with pytest.raises(RingError):
            lay.pack_all(monos)
        return
    packed = lay.pack_all(monos)
    assert packed == [pack(lay, e) for e in monos]  # a batch packs as its monomials do one at a time
    assert lay.unpack_all(packed) == [lay.unpack(m) for m in packed] == monos
    assert lay.unpack_all(sorted(packed, key=lay.key)) == sorted(monos, key=order_key(order))


def full_range_monomials(n):
    """Entries up to 2^15 - 1, small ones often equal; a monomial whose
    degree reaches PACK_LIMIT is scaled down below it."""
    entries = st.one_of(st.integers(0, 2), st.integers(0, PACK_LIMIT - 1))

    def fit(e):
        total = sum(e)
        return tuple(x * (PACK_LIMIT - 1) // total for x in e) if total >= PACK_LIMIT else e

    return st.tuples(*[entries] * n).map(fit)


colon_cases = st.tuples(
    st.integers(1, 20).flatmap(lambda n: st.tuples(full_range_monomials(n), full_range_monomials(n))),
    st.sampled_from(["lex", "grevlex"]),
)


@seeded
@given(colon_cases)
def test_packed_colon_and_lcm_match_the_tuple_ones(case):
    (a, b), order = case
    lay = PackedLayout(len(a), order)
    pa, pb = pack(lay, a), pack(lay, b)
    colon = lay.colon(pa, pb)
    assert colon == pack(lay, _mono_colon(a, b))
    assert lay.unpack(colon) == _mono_colon(a, b)
    assert lay.degree(colon) == sum(_mono_colon(a, b))
    lcm = pb + colon
    if sum(_mono_lcm(a, b)) < PACK_LIMIT:
        assert lcm == pack(lay, _mono_lcm(a, b))
        assert lay.unpack(lcm) == _mono_lcm(a, b)
        assert lay.degree(lcm) == sum(_mono_lcm(a, b))
    else:
        assert lcm & lay.guard


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_packing_rejects_what_a_field_cannot_hold(order):
    lay = PackedLayout(3, order)
    assert lay.unpack(pack(lay, (PACK_LIMIT - 1, 0, 0))) == (PACK_LIMIT - 1, 0, 0)
    assert lay.pack_all([]) == [] and lay.unpack_all([]) == []
    bad = [(PACK_LIMIT, 0, 0), (0, 0, PACK_LIMIT), (PACK_LIMIT // 2, PACK_LIMIT // 2, 0), (1, -1, 0)]
    bad += [(1.5, 0, 0), (F(1, 2), F(1, 2), 0), (F(1), 0, 0), (1, 2), (1, 2, 3, 4)]
    for e in bad:
        with pytest.raises(RingError):
            pack(lay, e)
        with pytest.raises(RingError):
            lay.pack_all([(1, 2, 3), e])
    with pytest.raises(RingError):
        PackedLayout(3, ["lex"])


def packable_terms(n):
    """Up to four terms, a base monomial times small ones: each packs, small
    parts let product terms cancel, and two bases can reach PACK_LIMIT."""
    top = PACK_LIMIT // max(n, 1) - 4
    base = st.tuples(*[st.sampled_from([0, top // 2, top])] * n)
    small = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(-3, 3)), max_size=4)
    return st.tuples(base, small).map(lambda bs: [(_mono_mul(bs[0], e), c) for e, c in bs[1]])


packed_products = st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), packable_terms(n), packable_terms(n), st.sampled_from(["lex", "grevlex"]))
)


@seeded
@given(packed_products)
def test_packed_product_matches_the_tuple_product(case):
    n, terms_a, terms_b, order = case
    R = PolyRing([f"x{i}" for i in range(n)])
    a, b = poly_from_terms(R, terms_a), poly_from_terms(R, terms_b)
    lay = PackedLayout(n, order)
    # (a + b) * (a - b) cancels its cross terms
    for f, g in ((a, b), (a + b, a - b)):
        pf, pg = ({pack(lay, e): c for e, c in p.terms.items()} for p in (f, g))
        if f and g and f.total_degree() + g.total_degree() >= PACK_LIMIT:
            with pytest.raises(RingError):
                _mul_packed(pf, pg, lay.guard)
        else:
            expected = [(pack(lay, e), c) for e, c in (f * g).terms.items()]
            assert list(_mul_packed(pf, pg, lay.guard).items()) == expected


@seeded
@given(
    st.lists(polys(R3), min_size=1, max_size=4),
    st.lists(polys(S2, max_exp=2, max_terms=3), min_size=3, max_size=3),
)
def test_substitute_packs_each_image_once(ps, images):
    # images reused across calls give what fresh equal images give, term
    # order and coefficient types included; each is packed on first use only
    lay = PackedLayout(S2.n, "grevlex")
    packed = [None] * len(images)
    for p in ps:
        fresh = [MultiPoly(S2, q.terms) for q in images]
        got, expected = p.substitute(images), p.substitute(fresh)
        assert [(e, type(c), c) for e, c in got.terms.items()] == [
            (e, type(c), c) for e, c in expected.terms.items()
        ]
        for i, q in enumerate(images):
            if packed[i] is None:
                packed[i] = q._packed
            assert q._packed is packed[i]
            if any(e[i] for e in p.terms):
                assert packed[i] == dict(zip(lay.pack_all(q.terms), q.terms.values()))


@pytest.mark.parametrize("k", [2**14 - 1, 2**14])
def test_substitute_power_at_the_packed_limit(k):
    # x -> u^k + v sends x^2 to a polynomial of degree 2k
    (x,) = PolyRing(["x"]).gens()
    u, v = S2.gens()
    image = u**k + v
    if 2 * k < PACK_LIMIT:
        assert (x * x).substitute([image]) == image * image
    else:
        with pytest.raises(RingError):
            (x * x).substitute([image])


def test_substitute_tests_every_one_term_shift():
    # each image packs, but their product has degree 3 * (2^15 - 1): tested
    # only at the end, the degree field would carry out with its guard clear
    x, y, z = R3.gens()
    k = PACK_LIMIT - 1
    with pytest.raises(RingError):
        (x * y * z).substitute([x**k, y**k, z**k])


def test_integer_input_keeps_int_coefficients():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    integer = [
        (x + 2 * y) ** 3,
        R.const(3),
        R.monomial((1, 2), 2),
        poly_from_terms(R, [((1, 0), 2), ((0, 1), -1), ((1, 0), 3)]),
        R.const(F(3)),  # an integer-valued Fraction is stored as an int
    ]
    assert all(type(c) is int for p in integer for c in p.terms.values())
    assert integer[0] == x**3 + 6 * x * x * y + 12 * x * y * y + 8 * y**3
    rational = [R.monomial((1, 2), F(1, 2)), poly_from_terms(R, [((1, 0), 0.5)])]
    assert all(type(c) is Fraction for p in rational for c in p.terms.values())


def test_coefficients_are_read_exactly_and_must_be_rational():
    R = PolyRing(["x", "y"])
    # a float is its exact Fraction, so arithmetic on it stays exact
    p = MultiPoly(R, {(1, 0): 0.1}) * 3
    assert p.terms == {(1, 0): 3 * F(0.1)} and type(p.terms[(1, 0)]) is Fraction
    assert poly_from_terms(R, [((1, 0), 0.1), ((1, 0), 0.2)]).terms == {(1, 0): F(0.1) + F(0.2)}
    assert type(R.const(2.0).terms[(0, 0)]) is int
    for bad in ("1/2", "x", None, 1j, float("nan"), float("inf")):
        with pytest.raises(RingError):
            MultiPoly(R, {(1, 0): bad})
        with pytest.raises(RingError):
            R.const(bad)
        with pytest.raises(RingError):
            R.monomial((0, 1), bad)


def test_scalar_operators_read_every_rational():
    # a float once raised AttributeError here, and R.const(0.5) == 0.5 was False
    R = PolyRing(["x", "y"])
    x = R.var(0)
    half = F(1, 2)
    assert x * 0.5 == 0.5 * x == x * half == MultiPoly(R, {(1, 0): half})
    assert x + 0.5 == 0.5 + x == x + half
    assert x - 0.5 == x - half and 0.5 - x == half - x
    assert R.const(0.5) == 0.5 and R.const(0.5) == half and x != 0.5
    assert (x * 0.1).terms == {(1, 0): F(0.1)}  # exact, as the constructor reads 0.1
    assert type((x * 2.0).terms[(1, 0)]) is int and type((x + F(3)).terms[(0, 0)]) is int
    assert x * 0.0 == R.zero() == 0.0 and (x + 1.5) - 1.5 == x
    for bad in ("2", None, 1j, float("nan")):
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad, lambda: x - bad, lambda: bad - x):
            with pytest.raises(RingError):
                op()
        assert (x == bad) is False and x != bad


def test_derivative():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    p = x ** 3 * y + 2 * x * y - 5
    assert p.derivative(0) == 3 * x * x * y + 2 * y
    assert p.derivative(1) == x ** 3 + 2 * x


def test_variable_index_out_of_range_is_a_ring_error():
    # a list index would wrap -1 to the last variable and malform the terms
    R = PolyRing(["x", "y", "z"])
    p = R.monomial((1, 2, 1))
    # a float index once failed inside tuple slicing, and True once read as 1
    for i in (-1, 3, 1.0, True, "1", None):
        with pytest.raises(RingError):
            R.var(i)
        with pytest.raises(RingError):
            p.derivative(i)
    assert p.derivative(2) == R.monomial((1, 2, 0))


def test_poly_render():
    R = PolyRing(["x_1", "x_2"])
    x1, x2 = R.gens()
    p = x1 * x1 - F(3, 2) * x2
    assert p.render() == "x_1^2 - 3/2 x_2"


def test_weight_reduction():
    assert Weight((2, 4), 2) == Weight.of(1, 2)
    assert Weight((1, 3), 2).scale == 2
    w = Weight((1, 1), 2) + Weight((1, -1), 2)
    assert w == Weight.of(1, 0)


def test_weights_and_laurent_coefficients_must_be_integers():
    with pytest.raises(RingError):
        LaurentPoly(1, {Weight.of(1): F(1, 2)})
    with pytest.raises(RingError):
        Weight.of(1, 3) * F(1, 2)
    assert Weight.of(1, 3) * 2 == Weight.of(2, 6)
    for scale in (2.0, "2", 1.5, F(2)):
        with pytest.raises(RingError):
            Weight((1, 2), scale)
    # a float scalar once raised AttributeError, and a zero float coefficient was dropped
    L, one = LaurentPoly.char(Weight.of(1, 0)), LaurentPoly.one(2)
    assert L + 2 == 2 + L == L + 2 * one and L - 1 == L - one and 1 - L == one - L
    assert L * 3 == 3 * L == LaurentPoly.char(Weight.of(1, 0), 3) and L * 0 == LaurentPoly.zero(2)
    for bad in (0.5, 2.0, 0.0, F(1, 2), "2", None):
        ops = (lambda: L + bad, lambda: bad + L, lambda: L - bad, lambda: bad - L, lambda: L * bad, lambda: bad * L)
        for op in ops:
            with pytest.raises(RingError):
                op()
        with pytest.raises(RingError):
            LaurentPoly(2, {Weight.of(1, 0): bad})


def test_monomial_exponents_must_be_integers():
    # int() would truncate 1.5 to 1 and give x
    R = PolyRing(["x", "y"])
    with pytest.raises(RingError):
        R.monomial((1.5, 0))
    with pytest.raises(RingError):
        poly_from_terms(R, [((F(1, 2), 0), 1)])
    assert R.monomial((1, 0)) == poly_from_terms(R, [((1, 0), 1)]) == R.var(0)


def test_laurent_render():
    L = LaurentPoly.char(Weight.of(2, -1), 1)
    assert L.render() == "t_1^2 t_2^{-1}"


def test_a_constant_equals_and_hashes_like_its_scalar():
    # R.const(3) == 3 once held while {R.const(3), 3} had two elements, and
    # LaurentPoly.one(2) == 1 was False
    R = PolyRing(["x"])
    (x,) = R.gens()
    constants = [
        (R.const(3), 3),
        (MultiPoly(R, {(0,): 3}), 3),
        (x - x + 3, 3),
        (R.zero(), 0),
        (MultiPoly(R, {}), 0),
        (x - x, 0),
        (R.const(F(1, 2)), F(1, 2)),
        (MultiPoly(R, {(0,): 0.5}), 0.5),
    ]
    for p, c in constants:
        assert p == c and c == p and hash(p) == hash(c)
        assert len({p, c}) == 1 and {p: 1}[c] == 1
    assert x != 0 and x + 3 != 3 and R.const(3) != 4
    L0, L1 = LaurentPoly.zero(2), LaurentPoly.one(2)
    laurent = [(L1, 1), (L1 * 5, 5), (L0, 0), (L1 - L1, 0), (LaurentPoly.char(Weight((0, 0), 2), -2), -2)]
    for p, c in laurent:
        assert p == c and c == p and hash(p) == hash(c)
        assert len({p, c}) == 1
    t = LaurentPoly.char(Weight.of(1, 0))
    assert t != 1 and t + 1 != 1 and L1 != 2 and (L1 == 0.5) is False and (L1 == "1") is False


class _Index:
    """An integer type other than int, as numpy's integers are."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


def test_power_reads_its_exponent_as_an_index():
    # x ** True once returned x, and an index type such as numpy.int64 raised
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    assert (x + y) ** _Index(2) == (x + y) * (x + y) and x ** _Index(0) == 1
    for bad in (True, False, -1, _Index(-2), 2.0, F(2), "2", None):
        with pytest.raises(RingError):
            x**bad


def test_products_and_powers_raise_at_the_packed_limit():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    half = R.monomial((PACK_LIMIT // 2, 0))
    assert (half * R.monomial((PACK_LIMIT // 2 - 1, 0))).terms == {(PACK_LIMIT - 1, 0): 1}
    assert (x ** (PACK_LIMIT - 1)).terms == {(PACK_LIMIT - 1, 0): 1}
    assert ((x + y) ** 2 * x ** (PACK_LIMIT - 3)).total_degree() == PACK_LIMIT - 1
    assert (x ** (PACK_LIMIT // 4 - 1) + y) ** 4 == poly_from_terms(
        R, [((k * (PACK_LIMIT // 4 - 1), 4 - k), c) for k, c in enumerate((1, 4, 6, 4, 1))]
    )
    for op in (
        lambda: half * half,
        lambda: half * R.monomial((0, PACK_LIMIT // 2)),
        lambda: x**PACK_LIMIT,
        lambda: (x ** (PACK_LIMIT // 4) + y) ** 4,
        lambda: (x + y) ** 2 * x ** (PACK_LIMIT - 2),
    ):
        with pytest.raises(RingError):
            op()


def test_tuple_built_polynomials_that_do_not_pack_raise_on_first_use():
    # a degree of PACK_LIMIT, a negative entry, a non-integer entry and an
    # entry too many: packing checks them, on the first use whatever it is
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    uses = (
        lambda p: p.terms,
        lambda p: p.render(),
        lambda p: p == MultiPoly(R, {(1, 0): 1}),
        lambda p: p == 1,
        hash,
        bool,
        lambda p: -p,
        lambda p: p * 2,
        lambda p: 2 * p,
        lambda p: p.total_degree(),
        lambda p: p.substitute([x, y]),
        lambda p: p + 1,
        lambda p: x + p,
    )
    for terms in ({(PACK_LIMIT, 0): 1}, {(-1, 0): 1}, {(1.5, 0): 1}, {(1, 2, 3): 1}):
        for use in uses:
            p = MultiPoly(R, terms)
            for _ in range(2):  # and on every use after it
                with pytest.raises(RingError):
                    use(p)
