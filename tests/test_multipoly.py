import random
from collections import Counter
from fractions import Fraction
from operator import add, le

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
    _NarrowOverflow,
    poly_from_terms,
)
from tuple_orders import grevlex_key, order_key

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


def heap_key(order, e):
    """The heap key of e packed under `order`: the lead of a set of
    monomials has the least key."""
    lay = PackedLayout(len(e), order)
    return lay.heap_key(pack(lay, e))


def test_lex_basic():
    # x^2 vs x y with x before y
    assert heap_key("lex", (2, 0)) < heap_key("lex", (1, 1))


def test_grevlex_degree_first():
    assert heap_key("grevlex", (1, 1, 1)) > heap_key("grevlex", (3, 0, 0))


def test_grevlex_tiebreak():
    # x^2 y beats x y^2: the last nonzero exponent of the difference is negative
    assert heap_key("grevlex", (2, 1)) < heap_key("grevlex", (1, 2))


def test_order_multiplicative():
    rng = random.Random(5)
    for order in ("lex", "grevlex"):
        for _ in range(100):
            a, b, c = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
            ka, kb = heap_key(order, a), heap_key(order, b)
            kac, kbc = heap_key(order, _mono_mul(a, c)), heap_key(order, _mono_mul(b, c))
            assert (kac < kbc, kac == kbc) == (ka < kb, ka == kb)


@pytest.mark.parametrize("order", ["weighted", ("weighted", (1, 2)), ("grevlex",), ["lex"]])
def test_unknown_orders_rejected(order):
    for bits in WIDTHS:
        with pytest.raises(RingError):
            PackedLayout(2, order, bits)


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


# the packed-layout properties hold at both field widths: 16 bits, the
# width of every ring, and 8, the width of a Buchberger run
WIDTHS = (8, 16)


def limit_of(bits):
    """The bound of every exponent and degree in a layout of `bits` bits."""
    return 1 << bits - 1


def near_eighth(bits):
    """Entries just below limit / 8 (2^12 at 16 bits): they make packed
    subtraction borrow across fields, n = 8 of them stay below the limit,
    and two such monomials can reach it."""
    top = limit_of(bits) // 8
    return st.integers(top - min(96, top // 4), top - 1)


def packed_cases(bits):
    packed_entries = st.one_of(st.integers(0, 3), near_eighth(bits))
    return st.tuples(
        st.integers(0, 8).flatmap(
            lambda n: st.lists(st.tuples(*[packed_entries] * n), min_size=2, max_size=6)
        ),
        st.sampled_from(["lex", "grevlex"]),
    )


@seeded
@given(data=st.data())
def test_packed_layout_matches_the_tuple_operations(data):
    for bits in WIDTHS:
        monos, order = data.draw(packed_cases(bits))
        lay = PackedLayout(len(monos[0]), order, bits)
        assert (lay.bits, lay.limit) == (bits, limit_of(bits))
        key = order_key(order)
        packed = [pack(lay, e) for e in monos]
        assert [lay.unpack(m) for m in packed] == monos
        for i in range(len(monos[0])):
            unit, mask, shift = lay.field(i)
            assert unit == pack(lay, tuple(int(k == i) for k in range(len(monos[0]))))
            assert [(m & mask) >> shift for m in packed] == [e[i] for e in monos]
        assert sorted(monos, key=lambda e: -lay.heap_key(pack(lay, e))) == sorted(monos, key=key)
        for a, pa in zip(monos, packed):
            for b, pb in zip(monos, packed):
                assert ((pb - pa) & lay.guard == 0) == _mono_divides(a, b)
                assert (lay.heap_key(pa) > lay.heap_key(pb)) == (key(a) < key(b))
                product = pa + pb
                if sum(a) + sum(b) < lay.limit:
                    assert product & lay.guard == 0
                    assert product == pack(lay, _mono_mul(a, b))
                else:
                    assert product & lay.guard


@seeded
@given(data=st.data())
def test_recode_is_unpack_then_pack(data):
    for bits in WIDTHS:
        monos, order = data.draw(packed_cases(bits))
        n = len(monos[0])
        src = PackedLayout(n, order, bits)
        ms = src.pack_all(monos)
        for dst in (PackedLayout(n, o, b) for o in ("lex", "grevlex") for b in (8, 16)):
            if (dst.order, dst.bits) == (order, bits):
                continue
            if max(map(sum, monos)) >= dst.limit:
                # only a narrower layout can miss a degree; it checks before packing
                assert dst.bits < bits
                with pytest.raises(RingError):
                    dst.recode(ms, src)
                continue
            there = dst.recode(ms, src)
            assert there == dst.pack_all(src.unpack_all(ms))
            assert src.recode(there, dst) == ms
        assert src.recode(ms, src) is ms
        # an equal layout that is another object recodes to the same ints
        assert PackedLayout(n, order, bits).recode(ms, src) == ms
        with pytest.raises(RingError):
            PackedLayout(n + 1, order, bits).recode(ms, src)


@seeded
@given(data=st.data())
def test_projection_is_unpack_then_pack_of_the_kept_entries(data):
    for bits in WIDTHS:
        monos, order = data.draw(packed_cases(bits))
        n = len(monos[0])
        kept = data.draw(st.lists(st.integers(0, n - 1), unique=True).map(sorted)) if n else []
        # the caller's promise: every other exponent is 0
        monos = [tuple(k if i in kept else 0 for i, k in enumerate(e)) for e in monos]
        src, dst = PackedLayout(n, order, bits), PackedLayout(len(kept), order, bits)
        ms = src.pack_all(monos)
        assert dst.projection(src, kept)(ms) == dst.pack_all([tuple(e[i] for i in kept) for e in monos])
        other = "lex" if order == "grevlex" else "grevlex"
        for bad in (
            PackedLayout(len(kept) + 1, order, bits),
            PackedLayout(len(kept), order, 24 - bits),
            PackedLayout(len(kept), other, bits),
        ):
            with pytest.raises(RingError):
                bad.projection(src, kept)
        if len(kept) > 1:
            with pytest.raises(RingError):
                dst.projection(src, kept[::-1])
        with pytest.raises(RingError):
            PackedLayout(1, order, bits).projection(src, [n])


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_recode_into_8_bits_raises_the_narrow_error_at_its_limit(order):
    wide, narrow = PackedLayout(2, order), PackedLayout(2, order, 8)
    assert narrow.unpack_all(narrow.recode(wide.pack_all([(127, 0), (3, 124)]), wide)) == [(127, 0), (3, 124)]
    # 128 does not fit the 7 bits below the guard, 256 not even the 8 of the field
    for e in [(128, 0), (64, 64), (256, 0), (0, PACK_LIMIT - 1)]:
        with pytest.raises(_NarrowOverflow):
            narrow.recode(wide.pack_all([(1, 1), e]), wide)
    # a 16-bit layout raises the plain error that a caller sees
    assert type(wide.overflow()) is RingError
    assert isinstance(narrow.overflow(), RingError)


def packable_monomials(bits, n):
    """Small entries with up to two spikes near limit / 8 or the limit:
    two spikes near the limit reach it, and one may with the small entries."""
    limit = limit_of(bits)
    spike = st.one_of(near_eighth(bits), st.integers(limit - min(64, limit // 8), limit - 1))
    spikes = st.lists(st.tuples(st.integers(0, n - 1), spike), max_size=2)
    small = st.lists(st.integers(0, 3), min_size=n, max_size=n)

    def place(case):
        e, spikes = case
        for i, k in spikes:
            e[i] = k
        return tuple(e)

    return st.tuples(small, spikes).map(place)


def packed_batches(bits):
    return st.tuples(
        st.integers(1, 20).flatmap(lambda n: st.lists(packable_monomials(bits, n), max_size=8)),
        st.sampled_from(["lex", "grevlex"]),
    )


@seeded
@given(data=st.data())
def test_pack_all_is_pack_of_each_monomial(data):
    for bits in WIDTHS:
        monos, order = data.draw(packed_batches(bits))
        n = len(monos[0]) if monos else 3
        lay = PackedLayout(n, order, bits)
        if max(map(sum, monos), default=0) >= lay.limit:
            with pytest.raises(RingError):
                lay.pack_all(monos)
            continue
        packed = lay.pack_all(monos)
        assert packed == [pack(lay, e) for e in monos]  # a batch packs as its monomials do one at a time
        assert lay.unpack_all(packed) == [lay.unpack(m) for m in packed] == monos
        assert lay.unpack_all(sorted(packed, key=lay.heap_key, reverse=True)) == sorted(monos, key=order_key(order))


def full_range_monomials(bits, n):
    """Entries up to limit - 1, small ones often equal; a monomial whose
    degree reaches the limit is scaled down below it."""
    limit = limit_of(bits)
    entries = st.one_of(st.integers(0, 2), st.integers(0, limit - 1))

    def fit(e):
        total = sum(e)
        return tuple(x * (limit - 1) // total for x in e) if total >= limit else e

    return st.tuples(*[entries] * n).map(fit)


def colon_cases(bits):
    return st.tuples(
        st.integers(1, 20).flatmap(
            lambda n: st.tuples(full_range_monomials(bits, n), full_range_monomials(bits, n))
        ),
        st.sampled_from(["lex", "grevlex"]),
    )


@seeded
@given(data=st.data())
def test_packed_colon_and_lcm_match_the_tuple_ones(data):
    for bits in WIDTHS:
        (a, b), order = data.draw(colon_cases(bits))
        lay = PackedLayout(len(a), order, bits)
        pa, pb = pack(lay, a), pack(lay, b)
        colon = lay.colon(pa, pb)
        assert colon == pack(lay, _mono_colon(a, b))
        assert lay.unpack(colon) == _mono_colon(a, b)
        assert lay.degree(colon) == sum(_mono_colon(a, b))
        lcm = pb + colon
        if sum(_mono_lcm(a, b)) < lay.limit:
            assert lcm == pack(lay, _mono_lcm(a, b))
            assert lay.unpack(lcm) == _mono_lcm(a, b)
            assert lay.degree(lcm) == sum(_mono_lcm(a, b))
        else:
            assert lcm & lay.guard


def minimal_cases(bits):
    return st.tuples(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.one_of(st.tuples(*[st.integers(0, 2)] * n), full_range_monomials(bits, n)), max_size=10
            )
        ),
        st.sampled_from(["lex", "grevlex"]),
    )


@seeded
@given(data=st.data())
def test_minimal_keeps_the_monomials_no_other_divides(data):
    for bits in WIDTHS:
        monos, order = data.draw(minimal_cases(bits))
        lay = PackedLayout(len(monos[0]) if monos else 2, order, bits)
        kept = lay.minimal(lay.pack_all(monos) * 2)
        assert kept == sorted(kept)
        expected = {a for a in monos if not any(b != a and _mono_divides(b, a) for b in monos)}
        assert sorted(lay.unpack_all(kept)) == sorted(expected)


def support_cases(bits):
    return st.tuples(
        st.integers(1, 18).flatmap(
            lambda n: st.tuples(
                st.lists(full_range_monomials(bits, n), max_size=12), st.integers(0, n - 1), st.just(n)
            )
        ),
        st.sampled_from(["lex", "grevlex"]),
    )


@seeded
@given(data=st.data())
def test_support_counts_are_the_tuple_counts(data):
    for bits in WIDTHS:
        # a field at limit - 1 reaches its guard with the fill and must not carry
        (monos, top, n), order = data.draw(support_cases(bits))
        lay = PackedLayout(n, order, bits)
        monos = monos + [tuple(lay.limit - 1 if i == top else 0 for i in range(n))]
        assert lay.support_counts(lay.pack_all(monos)) == tuple(sum(e[i] > 0 for e in monos) for i in range(n))


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_support_counts_fill_a_field_and_no_more(order):
    for bits in WIDTHS:
        lay = PackedLayout(3, order, bits)
        unit, full = lay.field(1)[0], (1 << bits) - 1
        assert lay.support_counts([]) == (0, 0, 0)
        assert lay.support_counts([unit] * full) == (0, full, 0)
        with pytest.raises(RingError):
            lay.support_counts([unit] * (full + 1))


def heap_key_cases(bits):
    return st.tuples(
        st.integers(3, 12).flatmap(lambda n: st.lists(full_range_monomials(bits, n), min_size=1, max_size=6)),
        st.sampled_from(["lex", "grevlex"]),
    )


@seeded
@given(data=st.data())
def test_heap_keys_add_and_invert_and_put_the_lead_first(data):
    for bits in WIDTHS:
        # the facts Groebner division on heap-keyed term dicts rests on
        monos, order = data.draw(heap_key_cases(bits))
        lay = PackedLayout(len(monos[0]), order, bits)
        packed = [pack(lay, e) for e in monos]
        keys = [lay.heap_key(m) for m in packed]
        assert [lay.heap_key(k) for k in keys] == packed
        for a, pa, ka in zip(monos, packed, keys):
            for b, pb, kb in zip(monos, packed, keys):
                if sum(a) + sum(b) < lay.limit:
                    assert lay.heap_key(pa + pb) == ka + kb
        lead = max(monos, key=order_key(order))
        assert min(keys) == lay.heap_key(pack(lay, lead))
        assert lay.top_degree(keys) == max(map(sum, monos))


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_packing_rejects_what_a_field_cannot_hold(order):
    for bits in WIDTHS:
        lay = PackedLayout(3, order, bits)
        limit = lay.limit
        assert lay.unpack(pack(lay, (limit - 1, 0, 0))) == (limit - 1, 0, 0)
        assert lay.pack_all([]) == [] and lay.unpack_all([]) == []
        bad = [(limit, 0, 0), (0, 0, limit), (limit // 2, limit // 2, 0), (1, -1, 0), (2 * limit, 0, 0)]
        bad += [(1.5, 0, 0), (F(1, 2), F(1, 2), 0), (F(1), 0, 0), (1, 2), (1, 2, 3, 4)]
        for e in bad:
            with pytest.raises(RingError):
                pack(lay, e)
            with pytest.raises(RingError):
                lay.pack_all([(1, 2, 3), e])
        with pytest.raises(RingError):
            PackedLayout(3, ["lex"], bits)


@pytest.mark.parametrize("bits", [0, 7, 12, 32, "16"])
def test_a_field_has_8_or_16_bits(bits):
    with pytest.raises(RingError):
        PackedLayout(3, "lex", bits)


def packable_terms(bits, n):
    """Up to four terms, a base monomial times small ones: each packs, small
    parts let product terms cancel, and two bases can reach the limit."""
    top = limit_of(bits) // max(n, 1) - 4
    base = st.tuples(*[st.sampled_from([0, top // 2, top])] * n)
    small = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(-3, 3)), max_size=4)
    return st.tuples(base, small).map(lambda bs: [(_mono_mul(bs[0], e), c) for e, c in bs[1]])


def packed_products(bits):
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n), packable_terms(bits, n), packable_terms(bits, n), st.sampled_from(["lex", "grevlex"])
        )
    )


@seeded
@given(data=st.data())
def test_packed_product_matches_the_tuple_product(data):
    for bits in WIDTHS:
        n, terms_a, terms_b, order = data.draw(packed_products(bits))
        R = PolyRing([f"x{i}" for i in range(n)])
        a, b = poly_from_terms(R, terms_a), poly_from_terms(R, terms_b)
        lay = PackedLayout(n, order, bits)
        # (a + b) * (a - b) cancels its cross terms
        for f, g in ((a, b), (a + b, a - b)):
            pf, pg = ({pack(lay, e): c for e, c in p.terms.items()} for p in (f, g))
            if f and g and f.total_degree() + g.total_degree() >= lay.limit:
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


def test_substitute_tests_each_term_of_the_earlier_factors_shifted():
    # x, y and w go to two-term images, z to one term: the product of the
    # images of x and y has degree 2^15 - 2, shifted by z's image 2^16 - 3,
    # which sets the degree field's guard; tested only once the last
    # factor's terms are added, the degree 3 * 2^15 - 4 would carry out of
    # the top field with its guard clear
    x, y, z, w = PolyRing(["x", "y", "z", "w"]).gens()
    a, b, c, d, e, f, g = PolyRing(list("abcdefg")).gens()
    half, top = PACK_LIMIT // 2 - 1, PACK_LIMIT - 1
    images = [a**half + b**half, c**half + d**half, e**top, f**top + g**top]
    assert (images[0] * images[1]).total_degree() == PACK_LIMIT - 2
    with pytest.raises(RingError):
        (x * y * z * w).substitute(images)
    # below the limit, the fused step gives the product of the images
    images = [a ** (half - 1) + b ** (half - 1), c ** (half - 1) + d ** (half - 1), 2 * e, f - g]
    image = (x * y * z * w).substitute(images)
    assert image == images[0] * images[1] * images[2] * images[3]
    assert image.total_degree() == PACK_LIMIT - 2


def test_substitute_reads_and_builds_packed_terms_only(monkeypatch):
    # a source and images built packed, by arithmetic, are read packed: no
    # tuple is packed or unpacked, in a ring of 3 variables or of 41
    calls = Counter()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    u, v = S2.gens()
    wide = PolyRing([f"x{i}" for i in range(41)])
    x, y, z = R3.gens()
    x0, x7, top = wide.var(0), wide.var(7), wide.var(40)
    cases = [
        (3 * x**2 * y * z - x * z**3 + F(1, 2) * y - 7, [u + v, (u - 2 * v) ** 2, u * v]),
        (x0**3 * x7 * top**2 - 2 * top + 1, [u - v if i in (0, 7, 40) else u for i in range(41)]),
    ]
    for p, images in cases:
        for q in (p, *images):
            q._pk()
    for cls, name in ((PackedLayout, "pack_all"), (PackedLayout, "unpack_all")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    got = [p.substitute(images) for p, images in cases]
    assert calls == {}
    monkeypatch.undo()
    assert got[0] == 3 * (u + v) ** 2 * (u - 2 * v) ** 2 * u * v - (u + v) * (u * v) ** 3 + F(1, 2) * (u - 2 * v) ** 2 - 7
    assert got[1] == (u - v) ** 6 - 2 * (u - v) + 1


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


def ref_text(pieces):
    """(coefficient, monomial text) pairs joined as "a + b - c"; "0" for none."""
    text = ""
    for c, mono in pieces:
        piece = str(c) if not mono else mono if c == 1 else f"-{mono}" if c == -1 else f"{c} {mono}"
        if not text:
            text = piece
        else:
            text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text or "0"


def ref_render(ring, terms):
    """The text of the nonzero terms, listed by the tuple grevlex key, lead first."""
    return ref_text(
        (c, " ".join(n if k == 1 else f"{n}^{k}" if k < 10 else f"{n}^{{{k}}}" for n, k in zip(ring.names, e) if k))
        for e, c in sorted(terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
    )


@seeded
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 11)] * 3),
        st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-3, 3), st.integers(2, 3))),
        max_size=8,
    )
)
def test_render_lists_the_terms_by_the_tuple_grevlex_key(terms):
    # the packed heap key orders the text as the tuple reference does,
    # for a polynomial built from tuples and one built packed
    R = PolyRing(["x", "y", "z_1"])
    x = R.gens()
    packed = R.zero()
    for e, c in terms.items():
        packed = packed + c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
    expected = ref_render(R, {e: c for e, c in terms.items() if c})
    assert MultiPoly(R, terms).render() == packed.render() == expected


def test_weight_reduction():
    assert Weight((2, 4), 2) == Weight.of(1, 2)
    assert Weight((1, 3), 2).scale == 2
    assert Weight((2, 0), 2) == Weight.of(1, 0)


def test_weights_and_laurent_coefficients_must_be_integers():
    with pytest.raises(RingError):
        LaurentPoly(1, {Weight.of(1): F(1, 2)})
    for scale in (2.0, "2", 1.5, F(2)):
        with pytest.raises(RingError):
            Weight((1, 2), scale)
    # a float scalar once raised AttributeError, and a zero float coefficient was dropped
    L, one = LaurentPoly.char(Weight.of(1, 0)), LaurentPoly.one(2)
    assert L + 2 == 2 + L == L + 2 * one and L - 1 == L - one and 1 - L == one - L
    assert L * 3 == 3 * L == LaurentPoly.char(Weight.of(1, 0)) * 3 and L * 0 == LaurentPoly(2)
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
    L = LaurentPoly.char(Weight.of(2, -1))
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
    L0, L1 = LaurentPoly(2), LaurentPoly.one(2)
    laurent = [(L1, 1), (L1 * 5, 5), (L0, 0), (L1 - L1, 0), (LaurentPoly.char(Weight((0, 0), 2)) * -2, -2)]
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
    # a degree of PACK_LIMIT, a negative entry, a non-integer entry, an
    # entry too many and a bool: packing checks them, on the first use
    # whatever it is (MultiPoly(R, {(True, 0): 1}) packed to x, while its
    # `terms` view kept the key (True, 0))
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
    for terms in ({(PACK_LIMIT, 0): 1}, {(-1, 0): 1}, {(1.5, 0): 1}, {(1, 2, 3): 1}, {(True, 0): 1}):
        for use in uses:
            p = MultiPoly(R, terms)
            for _ in range(2):  # and on every use after it
                with pytest.raises(RingError):
                    use(p)


def test_monomial_exponents_reject_bools():
    # `operator.index` read True as 1: R.monomial((True, 0)) was x
    R = PolyRing(["x", "y"])
    for exps in [(True, 0), (1, False)]:
        with pytest.raises(RingError):
            R.monomial(exps)
        with pytest.raises(RingError):
            poly_from_terms(R, [(exps, 1)])
    assert R.monomial((1, 0)) == R.var(0)


def test_pack_all_rejects_bools():
    # the struct packed True as 1 and False as 0
    for order in ("lex", "grevlex"):
        for bits in WIDTHS:
            lay = PackedLayout(2, order, bits)
            for monos in [[(True, 0)], [(0, 1), (1, False)]]:
                with pytest.raises(RingError):
                    lay.pack_all(monos)
            assert lay.pack_all([(1, 0)]) == [lay.field(0)[0]]


def test_a_bool_is_not_a_coefficient():
    # R.var(0) * True was x, and R.const(1) == True held
    R = PolyRing(["x", "y"])
    x, one = R.var(0), R.const(1)
    for op in (lambda: x * True, lambda: False * x, lambda: x + True, lambda: True - x, lambda: R.const(True)):
        with pytest.raises(RingError):
            op()
    with pytest.raises(RingError):
        MultiPoly(R, {(1, 0): True}).terms
    assert (one == True) is False and (True == one) is False and one != True  # noqa: E712
    assert x * 1 == x and one == 1


def test_a_bool_is_not_a_laurent_coefficient():
    # LaurentPoly.one(2) * True was the polynomial 1, and so equal to True
    L, one = LaurentPoly.char(Weight.of(1, 0)), LaurentPoly.one(2)
    for op in (lambda: one * True, lambda: False * L, lambda: L + True, lambda: True - L):
        with pytest.raises(RingError):
            op()
    with pytest.raises(RingError):
        LaurentPoly(2, {Weight.of(1, 0): True})
    assert (one == True) is False and (True == one) is False and one != True  # noqa: E712
    assert one * 1 == one == 1


def test_weight_entries_and_scale_reject_bools():
    # `operator.index` read True as 1: Weight((True, 0)) was Weight.of(1, 0),
    # and a scale of True was accepted
    for nums, scale in [((True, 0), 1), ((1, False), 2), ((1, 0), True), ((1, 0), False)]:
        with pytest.raises(RingError):
            Weight(nums, scale)
    with pytest.raises(RingError):
        Weight(3)
    assert Weight((_Index(2), 4), _Index(2)) == Weight.of(1, 2)


# Weight-dict references for the packed LaurentPoly arithmetic, summing
# weights as tuples of `Fraction`s


def fractions(w):
    """The entries of the weight w as `Fraction`s."""
    return tuple(Fraction(x, w.scale) for x in w.nums)


def weight_of(entries):
    """The `Weight` of rational entries whose denominators are powers of two."""
    scale = max(Fraction(x).denominator for x in entries)
    return Weight([int(x * scale) for x in entries], scale)


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def _ref_product(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = weight_of(tuple(map(add, fractions(w1), fractions(w2))))
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def _ref_shifted(a, v, reflect=False):
    """t^v times a, at t^-1 when `reflect`."""
    sign = -1 if reflect else 1
    return {weight_of(tuple(x + sign * y for x, y in zip(fractions(v), fractions(w)))): c for w, c in a.items() if c}


# small entries, and entries at the edge of a 16-bit key field ([-2^14, 2^14)) and far past it
_ENTRIES = st.one_of(
    st.integers(-4, 4), st.sampled_from([2**14 - 1, 2**14, -(2**14), -(2**14) - 1, 2**40 + 1, -(2**40)])
)


@st.composite
def laurent_cases(draw):
    """(r, a, b, v): two Weight dicts and a weight of rank r, on scales 1, 2 and 4."""
    r = draw(st.integers(1, 3))
    weight = st.builds(Weight, st.lists(_ENTRIES, min_size=r, max_size=r), st.sampled_from([1, 2, 4]))
    poly = st.dictionaries(weight, st.integers(-3, 3), max_size=5)
    return r, draw(poly), draw(poly), draw(weight)


@seeded
@given(laurent_cases())
def test_packed_laurent_arithmetic_matches_weight_dicts(case):
    r, a, b, v = case
    A, B = LaurentPoly(r, a), LaurentPoly(r, b)
    cases = [
        (A + B, _ref_sum(a, b)),
        (A - B, _ref_sum(a, b, -1)),
        (A * B, _ref_product(a, b)),
        (-A, _ref_sum({}, a, -1)),
        (3 * A, _ref_sum({}, {w: 3 * c for w, c in a.items()})),
        (A.twist(v), _ref_shifted(a, v)),
        (A._reflected(v.nums, v.scale, -2), _ref_sum({}, _ref_shifted(a, v, reflect=True), -2)),
    ]
    for got, ref in cases:
        assert got.terms == ref
        want = LaurentPoly(r, ref)
        assert got == want and want == got and hash(got) == hash(want)
        # the one scale is the least: that of the view's finest weight
        assert got.scale == max((w.scale for w in ref), default=1)
        assert (got == A) == (ref == _ref_sum({}, a))


def ref_laurent_render(L):
    """The text of the terms of the `terms` view, sorted by `Fraction` keys:
    descending total weight, then the ascending vector of entries."""

    def mono(w):
        factors = []
        for i, e in enumerate(fractions(w), 1):
            if e == 1:
                factors.append(f"t_{i}")
            elif e.denominator == 1 and 0 < e < 10:
                factors.append(f"t_{i}^{e}")
            elif e:
                factors.append(f"t_{i}^{{{e}}}")
        return " ".join(factors)

    terms = sorted(L.terms.items(), key=lambda t: (-sum(fractions(t[0])), fractions(t[0])))
    return ref_text((c, mono(w)) for w, c in terms)


@st.composite
def rendered_laurent(draw):
    """A Laurent polynomial of rank 1 to 3 with weights on scales 1 to 8 and
    entries -25..25, sometimes times a character of half-integer entries."""
    r = draw(st.integers(1, 3))
    weight = st.builds(Weight, st.lists(st.integers(-25, 25), min_size=r, max_size=r), st.sampled_from([1, 2, 4, 8]))
    L = LaurentPoly(r, draw(st.dictionaries(weight, st.integers(-3, 3), max_size=6)))
    if draw(st.booleans()):
        odd = st.integers(-13, 12).map(lambda k: 2 * k + 1)
        L = L * LaurentPoly.char(Weight(draw(st.lists(odd, min_size=r, max_size=r)), 2))
    return L


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rendered_laurent())
def test_laurent_render_sorts_as_the_fraction_keys_do(L):
    # render sorts and formats integer numerators on the one scale; the
    # reference reads the Weight view through Fractions
    assert L.render() == repr(L) == ref_laurent_render(L)


def test_equal_laurent_polynomials_hash_alike_across_scales_and_widths():
    # t^(1/2, 1/2) squared is computed on scale 2 and lands on scale 1
    half = LaurentPoly.char(Weight((1, 1), 2))
    whole = LaurentPoly.char(Weight.of(1, 1))
    assert half.scale == 2 and (half * half).scale == 1
    assert half * half == whole and hash(half * half) == hash(whole) and len({half * half, whole}) == 1
    inverse = LaurentPoly.char(Weight((-1, -1), 2))
    assert half * inverse == 1 and hash(half * inverse) == hash(1)
    # a product through wide fields equals the same polynomial built narrow
    narrow = LaurentPoly.one(2) + LaurentPoly.char(Weight.of(1, 0))
    far, back = Weight.of(2**40, -(2**40)), Weight.of(-(2**40), 2**40)
    wide = narrow.twist(far) * LaurentPoly.char(back)
    assert wide._bits > narrow._bits
    assert wide == narrow and narrow == wide and hash(wide) == hash(narrow) and len({wide, narrow}) == 1
    assert wide != narrow.twist(Weight.of(1, 0)) and wide != narrow * 2


def test_a_numerator_at_the_field_limit_widens_and_never_wraps():
    # 2^14 - 1 and -2^14 are the ends of a 16-bit key field; one step past
    # either sets the field's guard, and the result is built in wider
    # fields, whichever field overflows and whatever its neighbour holds
    top, bottom = 2**14 - 1, -(2**14)
    steps = [
        ((top, 0), (1, 0)),
        ((0, top), (0, 1)),
        ((bottom, 5), (-1, 0)),
        ((3, bottom), (0, -1)),
        ((top, bottom), (1, -1)),
    ]
    for nums, step in steps:
        L = LaurentPoly.char(Weight.of(*nums)) * 7
        assert L._bits == 16
        moved = L.twist(Weight.of(*step))
        assert moved.terms == {Weight.of(*(x + y for x, y in zip(nums, step))): 7}
        assert moved._bits > 16
        assert moved.twist(Weight.of(*(-y for y in step))) == L
    # a reflection negates -2^14 to 2^14, and a product sums two entries that fit
    assert LaurentPoly.char(Weight.of(bottom, 1))._reflected((0, 0), 1, 1).terms == {Weight.of(-bottom, -1): 1}
    product = LaurentPoly.char(Weight.of(top, bottom)) * LaurentPoly.char(Weight.of(1, -1))
    assert product.terms == {Weight.of(top + 1, bottom - 1): 1}
    # on scale 2 the limit is on the numerators: 2^14 halves is 2^13
    assert LaurentPoly.char(Weight((top, 1), 2)).twist(Weight((1, 1), 2)).terms == {Weight.of(2**13, 1): 1}
    # moving to scale 4 multiplies every numerator by 4, which a field cannot hold
    quarter = LaurentPoly.char(Weight((1, 3), 4))
    for A, B in [(LaurentPoly.char(Weight.of(top, 1)), quarter), (quarter, LaurentPoly.char(Weight.of(1, bottom)))]:
        assert (A * B).terms == _ref_product(A.terms, B.terms)
        assert (A + B).terms == _ref_sum(A.terms, B.terms)


_XY = PolyRing(["x", "y"])
_XZ = PolyRing(["x", "z"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PolyRing(["x", "x"]), "duplicate variable names"),
        (lambda: _XY.monomial((1,)), "exponent length mismatch"),
        (lambda: _XY.var(0) + _XZ.var(0), "ring context mismatch"),
        (lambda: _XY.var(0).substitute([_XY.var(1)]), "every variable needs an image"),
        (lambda: Weight((1, 2), 3), "scale must be a power of two"),
        (lambda: LaurentPoly(2, {Weight((1, 0, 0)): 1}), "weight rank mismatch"),
        (lambda: LaurentPoly.one(2) + LaurentPoly.one(3), "rank mismatch"),
    ],
    ids=["duplicate-names", "exponent-length", "across-rings", "image-count", "scale", "laurent-weight-rank", "laurent-ranks"],
)
def test_boundary_checks_raise_ring_errors(call, message):
    with pytest.raises(RingError) as info:
        call()
    assert type(info.value) is RingError and str(info.value) == message


def test_laurent_polys_of_different_ranks_are_unequal():
    assert LaurentPoly.one(2) != LaurentPoly.one(3)
    assert not LaurentPoly.one(3) == LaurentPoly.one(2)


def test_reprs_of_rings_and_weights():
    assert repr(_XY) == "PolyRing(['x', 'y'])"
    assert repr(Weight((1, -2))) == "Weight(1, -2)"
    assert repr(Weight((1, -2), 2)) == "Weight((1, -2), scale=2)"
