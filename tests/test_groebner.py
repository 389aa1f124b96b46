import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import hilb.groebner
from hilb.groebner import (
    BudgetExceeded,
    _divide_int,
    _int_terms,
    _new_pairs,
    _reducer,
    _shortest_first,
    Ideal,
    MonomialIdeal,
    groebner_basis,
)
from hilb.localeq import jacobian_ideal, pyramid_potential
from hilb.multipoly import (
    PACK_LIMIT,
    MultiPoly,
    PackedLayout,
    PolyRing,
    RingError,
    _NarrowOverflow,
    poly_from_terms,
)
from tuple_orders import order_key


@pytest.mark.parametrize("order, size, reductions", [("grevlex", 20, 68), ("lex", 23, 83)])
def test_pair_criteria_skip_the_same_pairs(order, size, reductions):
    # the n=2 Jacobian ideal in 18 variables; a change to the pair criteria
    # or the selection strategy moves the number of S-pairs reduced
    F, _ = pyramid_potential(2)
    basis, used = groebner_basis(jacobian_ideal(F), order, want_stats=True)
    assert (len(basis), used) == (size, reductions)


@st.composite
def lcm_lists(draw):
    """Exponent vectors of the new pairs' lcms, with repeats, and a coprime
    flag for each: (n, vectors, flags)."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=10))
    vecs += draw(st.lists(st.sampled_from(vecs), max_size=6))
    vecs = draw(st.permutations(vecs))
    return n, vecs, draw(st.lists(st.booleans(), min_size=len(vecs), max_size=len(vecs)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lcm_lists(), st.sampled_from(["grevlex", "lex"]), st.sampled_from([8, 16]))
def test_new_pairs_keep_one_pair_per_minimal_lcm(case, order, bits):
    # criteria M and F: each minimal lcm value keeps one pair, with its
    # oldest element, unless some element with that lcm is coprime; and
    # the same pairs as a scan from the newest element down, which keeps
    # a pair when no older lcm and no kept newer one divides its lcm
    n, vecs, coprime = case

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    expected = [
        g
        for g, e in enumerate(vecs)
        if vecs.index(e) == g
        and not any(f != e and divides(f, e) for f in vecs)
        and not any(c for f, c in zip(vecs, coprime) if f == e)
    ]
    lay = PackedLayout(n, order, bits)  # 8 bits in a Buchberger run
    lcms = lay.pack_all(vecs)
    scanned, kept_lcms = [], []
    for g in reversed(range(len(lcms))):
        if coprime[g] or all((lcms[g] - x) & lay.guard for x in lcms[:g] + kept_lcms):
            kept_lcms.append(lcms[g])
            if not coprime[g]:
                scanned.append(g)
    got = _new_pairs(lcms, coprime, lay)
    assert sorted(got) == expected == sorted(scanned)
    assert [lcms[g] for g in got] == sorted(lcms[g] for g in got)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_normal_forms_divide_by_the_shortest_reducers_first(order):
    # the reducers of a basis are ordered by tail length, ties in list
    # order, and each lead keeps its first element in list order
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    basis = [x * y + y + z + 1, y * y + z, x * x + y - z, z * z * z + 2, y * y - z]
    I = Ideal(R, [])
    I.set_groebner(order, basis)
    lay, reducers = I._packed_basis(order)
    lengths = [len(g.terms) - 1 for g in basis[:4]]
    expected = sorted(range(4), key=lambda i: lengths[i])
    leads = [min(lay.recode(g._pk(), R.layout), key=lay.heap_key) for g in basis[:4]]
    assert list(reducers) == [leads[i] for i in expected]
    # y^2 + z, not the later y^2 - z
    assert list(reducers[leads[1]][2].values()) == [1]


def test_two_generator_lex_basis():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    basis = groebner_basis([x * x - y, y * y], order="lex")
    assert basis == [y * y, x * x - y]


def test_principal_ideal_monic():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    basis = groebner_basis([3 * x * y - 6 * y])
    assert basis == [x * y - 2 * y]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_generators_sharing_a_leading_monomial(order):
    # both generators lead with x^2, so the minimalization keeps one of them
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    basis = groebner_basis([x * x + y, x * x + z], order)
    assert basis == [y - z, x * x + z]


def test_new_element_found():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    basis = groebner_basis([x * x - y, x * y - 1])
    assert basis == [y * y - x, x * y - 1, x * x - y]


def test_normal_form_projection_and_additivity():
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x * x - z, y * y - z * z])
    rng = random.Random(17)

    def rand_poly():
        return poly_from_terms(
            R,
            [
                (
                    (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)),
                    rng.randint(-5, 5),
                )
                for _ in range(5)
            ],
        )

    for _ in range(15):
        p, q = rand_poly(), rand_poly()
        np_, nq = I.normal_form(p), I.normal_form(q)
        assert I.normal_form(np_) == np_
        assert I.normal_form(p + q) == np_ + nq


def test_monomial_membership_matches_divisibility():
    rng = random.Random(23)
    R = PolyRing(["x", "y", "z"])
    for _ in range(10):
        gens_e = [
            tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))
        ]
        gens_e = [g for g in gens_e if any(g)]
        if not gens_e:
            continue
        I = Ideal(R, [R.monomial(e) for e in gens_e])
        J = MonomialIdeal(3, gens_e)
        for _ in range(20):
            m = tuple(rng.randint(0, 4) for _ in range(3))
            assert (not I.normal_form(R.monomial(m))) == J.contains(m)


UNKNOWN_ORDERS = [["lex"], {"grevlex": 1}, "weighted", ("grevlex",)]


@pytest.mark.parametrize("order", UNKNOWN_ORDERS)
def test_ideal_rejects_an_unknown_order_before_the_cache(order):
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x - y])
    for call in (I.groebner, I.initial_ideal, lambda o: I.normal_form(x, o), lambda o: groebner_basis([x], o)):
        with pytest.raises(RingError):
            call(order)
    with pytest.raises(RingError):
        I.set_groebner(order, [x])


@pytest.mark.parametrize("want_stats", [False, True])
@pytest.mark.parametrize("order", ["foo", *UNKNOWN_ORDERS])
def test_the_zero_ideal_rejects_an_unknown_order(order, want_stats):
    R = PolyRing(["x", "y"])
    for gens in ([], [R.zero()]):
        with pytest.raises(RingError):
            groebner_basis(gens, order, want_stats=want_stats)


def _sympy_expr(terms, x):
    """The sympy expression of (exponent tuple, coefficient) pairs in the symbols x."""
    return sum(c * sympy.Mul(*[v ** k for v, k in zip(x, e)]) for e, c in terms)


def _sympy_normal_form(p, gens, order):
    """The remainder of p modulo sympy's own Groebner basis of gens, as a term dict.

    The remainder modulo a Groebner basis is unique, so it is the normal
    form whatever basis and division strategy produce it.
    """
    x = sympy.symbols(f"x0:{p.ring.n}")
    exprs = [_sympy_expr(g.terms.items(), x) for g in gens]
    basis = sympy.groebner(exprs, *x, order=order, domain="QQ").exprs
    _, r = sympy.reduced(_sympy_expr(p.terms.items(), x), basis, *x, order=order)
    return {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(r, *x, domain="QQ").terms() if c}


def test_ideal_normal_form_follows_set_groebner():
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x * x - z, y * y - z * z])
    rng = random.Random(29)

    def rand_poly(nterms, max_exp):
        return poly_from_terms(
            R, [(tuple(rng.randint(0, max_exp) for _ in range(3)), rng.randint(-5, 5)) for _ in range(nterms)]
        )

    ideals = [I] + [Ideal(R, [rand_poly(3, 2) for _ in range(rng.randint(2, 3))]) for _ in range(4)]
    for order in ("grevlex", "lex"):
        for J in ideals:
            for _ in range(5):
                p = rand_poly(4, 3)
                assert J.normal_form(p, order).terms == _sympy_normal_form(p, J.gens, order)
    # the packed basis of an order already queried is replaced with the basis
    assert I.normal_form(x * x * y, "grevlex") == y * z
    I.set_groebner("grevlex", [x - 2])
    assert I.normal_form(x * x * y, "grevlex") == 4 * y
    assert not I.normal_form(x - 2, "grevlex")
    assert I.normal_form(x * x * y, "lex") == y * z
    with pytest.raises(RingError):
        I.normal_form(PolyRing(["x", "y"]).var(0))


def test_set_groebner_rejects_a_basis_from_another_ring():
    a = PolyRing(["a", "b", "c"]).var(0)
    x = PolyRing(["x", "y"]).var(0)
    I = Ideal(a.ring, [a])
    with pytest.raises(RingError):
        I.set_groebner("grevlex", [x])
    assert not I.normal_form(a)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_int_terms_split_off_the_content(order):
    R = PolyRing(["x", "y", "z"])
    lay = PackedLayout(3, order)
    rng = random.Random(31)
    for _ in range(30):
        # int and Fraction coefficients mixed in one polynomial
        p = poly_from_terms(
            R,
            [
                (
                    tuple(rng.randint(0, 4) for _ in range(3)),
                    rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))]),
                )
                for _ in range(rng.randint(1, 5))
            ],
        )
        if not p:
            continue
        terms, num, den = _int_terms(p, lay)
        assert num > 0 and den > 0
        assert (den == 1) == all(type(c) is int for c in p.terms.values())
        assert gcd(*terms.values()) == 1
        content = Fraction(num, den)
        # the terms are keyed by heap keys, which the same map sends back
        monos = lay.unpack_all([lay.heap_key(k) for k in terms])
        assert MultiPoly(R, dict(zip(monos, [content * v for v in terms.values()]))) == p


def test_degree_beyond_the_packed_range_raises():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    half = PACK_LIMIT // 2
    # the pair lcm x^half y^half has degree PACK_LIMIT
    with pytest.raises(RingError):
        groebner_basis([R.monomial((half, 1)) - 1, R.monomial((1, half)) - 1])
    # dividing by x - y^3 under lex triples the degree of x^12000
    I = Ideal(R, [x - y ** 3])
    with pytest.raises(RingError):
        I.normal_form(R.monomial((12000, 0)), "lex")
    assert I.normal_form(R.monomial((10000, 0)), "lex") == R.monomial((0, 30000))
    with pytest.raises(RingError):
        Ideal(R, [y]).normal_form(R.monomial((PACK_LIMIT, 0)), "grevlex")
    # the pair lcm x y is valid; only the S-polynomial's shifted tail
    # y^PACK_LIMIT is not
    with pytest.raises(RingError):
        groebner_basis([x - R.monomial((0, PACK_LIMIT - 1)), x * y - 1], "lex")


def test_initial_ideal_simple():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x - y])
    assert I.initial_ideal("lex") == MonomialIdeal(2, [(2, 0)])


def test_initial_ideal_of_monomial_ideal_is_itself():
    R = PolyRing(["x", "y", "z"])
    gens = [(2, 0, 0), (1, 1, 0), (0, 0, 3)]
    I = Ideal(R, [R.monomial(e) for e in gens])
    assert I.initial_ideal() == MonomialIdeal(3, gens)


def test_initial_ideal_minimality():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x - y, x ** 3, y * y - y * x])
    J = I.initial_ideal()
    for a in J.gens:
        for b in J.gens:
            if a != b:
                assert not all(p <= q for p, q in zip(a, b))


def test_ideal_equal_permuted_and_redundant():
    # a reduced basis is unique, so equal ideals have equal bases
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x - y, x * y - 1])
    J = Ideal(R, [x * y - 1, x * x - y])
    assert I.groebner() == J.groebner()
    K = Ideal(R, [x])
    L = Ideal(R, [x, x * x])
    assert K.groebner() == L.groebner()
    assert K.groebner() != Ideal(R, [y]).groebner()


def test_ideal_equal_equivalence_on_corpus():
    # the reduced bases agree exactly on the two pairs that span one ideal
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    corpus = [
        Ideal(R, [x * x - y]),
        Ideal(R, [x * x - y, (x * x - y) * x]),
        Ideal(R, [x, y]),
        Ideal(R, [x + y, y]),
    ]
    bases = [A.groebner() for A in corpus]
    same = [[a == b for b in bases] for a in bases]
    assert same == [[True, True, False, False]] * 2 + [[False, False, True, True]] * 2


def test_budget_exceeded_is_loud(monkeypatch):
    # the budget is read when a run starts, so lowering it reaches the next call
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    gens = [x + y + z, x * y + y * z + z * x, x * y * z - 1]
    monkeypatch.setattr(hilb.groebner, "SPAIR_BUDGET", 1)
    with pytest.raises(BudgetExceeded) as raised:
        groebner_basis(gens)
    assert (raised.value.used, raised.value.budget) == (2, 1)


def test_monomial_ideal_rejects_a_monomial_of_the_wrong_length():
    J = MonomialIdeal(2, [(1, 1)])
    for mono in [(1,), (1, 0, 0), ()]:
        with pytest.raises(RingError):
            J.contains(mono)
        with pytest.raises(RingError):
            MonomialIdeal(2, [(1, 0), mono])


def test_monomial_ideal_rejects_non_integer_exponents():
    # int() would truncate 3/2 to 1 and 1.5 to 1
    with pytest.raises(RingError):
        MonomialIdeal(2, [(Fraction(3, 2), 0)])
    # x^1.5 is no monomial, though (1, 0) would divide it entrywise
    with pytest.raises(RingError):
        MonomialIdeal(2, [(1, 0)]).contains((1.5, 0))
    with pytest.raises(RingError):
        MonomialIdeal(2, [("1", 0)])
    # the packing read True as 1: MonomialIdeal(2, [(True, 0)]) was (x)
    for mono in [(True, 0), (1, False)]:
        with pytest.raises(RingError):
            MonomialIdeal(2, [mono])
        with pytest.raises(RingError):
            MonomialIdeal(2, [(1, 0)]).contains(mono)


def test_monomial_ideal_rejects_negative_exponents():
    # entrywise, x^-1 is not divisible by x
    J = MonomialIdeal(2, [(1, 0)])
    with pytest.raises(RingError):
        J.contains((-1, 0))
    with pytest.raises(RingError):
        MonomialIdeal(2, [(1, -1)])
    # a degree of 2^15 does not fit a packed field
    assert MonomialIdeal(2, [(PACK_LIMIT - 1, 0)]).gens == ((PACK_LIMIT - 1, 0),)
    with pytest.raises(RingError):
        MonomialIdeal(2, [(PACK_LIMIT - 1, 1)])
    with pytest.raises(RingError):
        J.contains((PACK_LIMIT // 2, PACK_LIMIT // 2))


def test_the_zero_ideal():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    p = 3 * x * y - Fraction(1, 2) * y
    assert groebner_basis([]) == []
    assert groebner_basis([R.zero()], want_stats=True) == ([], 0)
    for order in ("grevlex", "lex"):
        I = Ideal(R, [R.zero()])
        assert I.groebner(order) == []
        assert I.normal_form(p, order) == p
        assert I.normal_form(R.zero(), order) == R.zero()
        assert I.normal_form(x, order) == x
        assert I.initial_ideal(order) == MonomialIdeal(2, [])


def test_monomial_ideal_minimalizes():
    J = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1)])
    assert J.gens == ((1, 0),)


@st.composite
def exponent_lists(draw):
    """Exponent vectors of one length n, with repeats and the zero vector,
    and probe monomials of length n: (n, vectors, probes)."""
    n = draw(st.integers(1, 4))
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    vecs = draw(st.lists(monomials, max_size=12))
    if draw(st.booleans()):
        vecs.append((0,) * n)
    if vecs:
        vecs += draw(st.lists(st.sampled_from(vecs), max_size=4))
    return n, vecs, draw(st.lists(monomials, min_size=1, max_size=4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(exponent_lists())
def test_monomial_ideal_is_the_pairwise_definition(case):
    # the generators: keep g unless some other h divides it; f is in the
    # ideal iff some g divides it
    n, gens, probes = case

    def divides(h, g):
        return all(a <= b for a, b in zip(h, g))

    def minimal(monos):
        monos = set(monos)
        return sorted(g for g in monos if not any(h != g and divides(h, g) for h in monos))

    expected = minimal(gens)
    J = MonomialIdeal(n, gens)
    assert J.gens == tuple(expected)
    for f in probes:
        assert J.contains(f) == any(divides(g, f) for g in gens)
    lex = PackedLayout(n, "lex")
    assert lex.unpack_all(lex.minimal(lex.pack_all(gens))) == expected
    grevlex = PackedLayout(n, "grevlex")
    assert sorted(grevlex.unpack_all(grevlex.minimal(grevlex.pack_all(gens)))) == expected


def _sympy_reduced_basis(term_lists, nvars, order):
    """sympy's reduced basis, each element scaled to lead coefficient 1 in `order`.

    Poly.monic() would divide by the lex-leading coefficient, which is not
    the grevlex one; the lead term is taken with hilb's own order key.
    """
    x = sympy.symbols(f"x0:{nvars}")
    exprs = [_sympy_expr(t, x) for t in term_lists]
    key = order_key(order)
    out = []
    for p in sympy.groebner(exprs, *x, order=order, domain="QQ").polys:
        d = {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}
        lc = d[max(d, key=key)]
        out.append(sorted((m, c / lc) for m, c in d.items()))
    return sorted(out)


def _random_term_lists(rng):
    """Term lists of two or three random polynomials in three variables."""
    return [
        [(tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-3, 3)) for _ in range(rng.randint(2, 3))]
        for _ in range(rng.randint(2, 3))
    ]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy(order):
    R = PolyRing(["x", "y", "z"])
    rng = random.Random(3)
    for _ in range(20):
        term_lists = _random_term_lists(rng)
        gens = [p for p in (poly_from_terms(R, t) for t in term_lists) if p]
        ours = sorted(sorted(g.terms.items()) for g in groebner_basis(gens, order))
        assert ours == _sympy_reduced_basis(term_lists, 3, order)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_initial_ideal_is_the_ideal_of_the_basis_leads(order):
    # the tuple definition: the largest monomial of each basis element
    R = PolyRing(["x", "y", "z"])
    rng = random.Random(3)
    for _ in range(20):
        I = Ideal(R, [poly_from_terms(R, t) for t in _random_term_lists(rng)])
        leads = [max(g.terms, key=order_key(order)) for g in I.groebner(order)]
        assert I.initial_ideal(order) == MonomialIdeal(3, leads)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_normal_form_of_a_polynomial_in_an_equal_ring(order):
    # R and S are equal rings but not one object, so are their layouts
    R, S = PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    I = Ideal(R, [x * x - z, y * y - z * z, x * y * z - 1])
    rng = random.Random(37)
    for _ in range(10):
        t = [(tuple(rng.randint(0, 3) for _ in range(3)), rng.randint(-5, 5)) for _ in range(4)]
        got = I.normal_form(poly_from_terms(S, t), order)
        assert got.ring is S
        assert got.terms == I.normal_form(poly_from_terms(R, t), order).terms


def test_the_packed_path_crosses_no_tuple_view(monkeypatch):
    # a lex basis, lex normal forms of polynomials built packed and the
    # initial ideals under both orders neither pack nor unpack a tuple nor
    # call the tuple constructor nor read the `terms` view
    calls = Counter()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for cls, name in ((PackedLayout, "pack_all"), (PackedLayout, "unpack_all"), (MultiPoly, "__init__")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    monkeypatch.setattr(MultiPoly, "terms", property(counting("terms", MultiPoly.terms.fget)))
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    gens = [x * x - z, y * y - z * z, x * y * z - 1]
    I = Ideal(R, gens)
    I.set_groebner("lex", groebner_basis(gens, "lex"))
    queries = [x ** 3 * y - 2 * z, (x + y + z) ** 3, 3 * x * y * z - 3, R.const(5)]
    remainders = [I.normal_form(p, "lex") for p in queries]
    assert calls == {}
    leads = {order: I.initial_ideal(order) for order in ("lex", "grevlex")}
    assert calls == {}
    monkeypatch.undo()
    for order, J in leads.items():
        assert J == MonomialIdeal(3, [max(g.terms, key=order_key(order)) for g in I.groebner(order)])
    assert [I.normal_form(p - r, "lex") for p, r in zip(queries, remainders)] == [0] * 4
    assert remainders[2] == 0 and remainders[3] == 5


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy_with_equal_pair_lcms(order):
    # the leads are products of two or three of the first three or four
    # variables, so many pairs share one lcm and the pair criteria must
    # keep one pair of each such group; the tails, in the remaining
    # variables and of lower degree, sort below the lead in both orders
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(4, 6)
        k = rng.randint(3, min(4, n - 1))
        R = PolyRing([f"x{i}" for i in range(n)])

        def term(variables, degree):
            chosen = rng.sample(variables, degree)
            return tuple(int(i in chosen) for i in range(n))

        term_lists = []
        for _ in range(rng.randint(3, 5)):
            d = rng.randint(2, 3)
            tails = [term(range(k, n), rng.randint(0, min(d - 1, n - k))) for _ in range(2)]
            term_lists.append([(term(range(k), d), 1)] + [(e, rng.choice((-2, -1, 1, 3))) for e in tails])
        gens = [p for p in (poly_from_terms(R, t) for t in term_lists) if p]
        ours = sorted(sorted(g.terms.items()) for g in groebner_basis(gens, order))
        assert ours == _sympy_reduced_basis(term_lists, n, order)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy_in_many_variables(order):
    # six binomials in 6-10 variables: every divisibility test and order
    # comparison spans many packed fields, and most divisibility tests
    # fail by a borrow out of some field
    rng = random.Random(1)
    for _ in range(8):
        n = rng.randint(6, 10)
        R = PolyRing([f"x{i}" for i in range(n)])

        def monomial():
            e = [0] * n
            for _ in range(rng.randint(1, 2)):
                e[rng.randrange(n)] += rng.randint(1, 2)
            return tuple(e)

        term_lists = [[(monomial(), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(2)] for _ in range(6)]
        gens = [p for p in (poly_from_terms(R, t) for t in term_lists) if p]
        ours = sorted(sorted(g.terms.items()) for g in groebner_basis(gens, order))
        assert ours == _sympy_reduced_basis(term_lists, n, order)


@pytest.fixture
def run_widths(monkeypatch):
    """The field width of each Buchberger run that `groebner_basis` starts."""
    widths = []
    run = hilb.groebner._buchberger

    def recording(gens, ring, lay):
        widths.append(lay.bits)
        return run(gens, ring, lay)

    monkeypatch.setattr(hilb.groebner, "_buchberger", recording)
    return widths


@pytest.fixture
def checked_divisions(monkeypatch):
    """Check each `_divide_int` call: its reducers come in `_shortest_first`
    order, and every key it reads or returns is a valid monomial of its
    layout, so none has outgrown the layout's fields unnoticed."""
    divide = hilb.groebner._divide_int

    def checking(work, basis, lay):
        def valid(keys):
            return not any(lay.heap_key(k) & lay.guard for k in keys)

        assert list(basis) == list(_shortest_first(basis))
        assert valid(work) and all(valid([h, *tail]) for h, _, tail, _ in basis.values())
        out, mult = divide(work, basis, lay)
        assert valid(out) and 0 not in out.values()
        return out, mult

    monkeypatch.setattr(hilb.groebner, "_divide_int", checking)


# (term lists in x, y, order): inputs of degree below 2^7 whose run
# reaches 2^7 at each of its three degree tests, and inputs of degree
# 2^7 or more, which do not fit the 8-bit layout at all
WIDENING_CASES = [
    # the pair lcm x y^30 plus the degree gap 99 of x - y^100
    ([[((1, 0), 1), ((0, 100), -1)], [((1, 30), 1), ((0, 0), -1)]], "lex"),
    # the lcm x^70 y^70 of two coprime leads, before the pair is dropped
    ([[((70, 0), 1), ((0, 1), -1)], [((0, 70), 1), ((1, 0), -1)]], "grevlex"),
    # division of the S-polynomial's x y^100 by x - y^100
    ([[((1, 0), 1), ((0, 100), -1)], [((2, 0), 1), ((0, 1), -1)]], "lex"),
    # inputs past 2^7
    ([[((1, 0), 1), ((0, 150), -1)], [((1, 1), 1), ((0, 0), -1)]], "lex"),
    ([[((130, 0), 1), ((0, 2), -1)], [((1, 1), 1), ((0, 0), -1)]], "grevlex"),
]


@pytest.mark.parametrize("term_lists, order", WIDENING_CASES)
def test_a_run_past_2_to_the_7_reruns_at_16_bits(term_lists, order, run_widths, checked_divisions):
    R = PolyRing(["x", "y"])
    gens = [poly_from_terms(R, t) for t in term_lists]
    basis, used = groebner_basis(gens, order, want_stats=True)
    assert run_widths == [8, 16]
    assert sorted(sorted(g.terms.items()) for g in basis) == _sympy_reduced_basis(term_lists, 2, order)
    # the rerun's S-pair count is the count of the one run at 16 bits
    assert used == hilb.groebner._buchberger(gens, R, PackedLayout(2, order))[1]


def test_the_jacobian_ideal_runs_at_8_bits_only(run_widths, checked_divisions):
    F, _ = pyramid_potential(2)
    gens = jacobian_ideal(F)
    for order in ("grevlex", "lex"):
        groebner_basis(gens, order)
    assert run_widths == [8, 8]


def _reference_division(terms, reducers, key):
    """Fraction-free division of the tuple-keyed `terms` by `reducers`, a
    list of (lead, lead coefficient, tail) scanned in order, largest term
    first: (result, multiplier) with result = multiplier * remainder."""
    work, out, mult, steps = dict(terms), {}, 1, 0
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lead, lc, tail in reducers:
            if all(a <= b for a, b in zip(lead, m)):
                break
        else:
            out[m] = c
            continue
        q = tuple(b - a for a, b in zip(lead, m))
        d = gcd(c, lc)
        a, b = lc // d, c // d
        mult *= a
        work = {e: v * a for e, v in work.items()}
        out = {e: v * a for e, v in out.items()}
        for e, v in tail.items():
            k = tuple(x + y for x, y in zip(e, q))
            work[k] = work.get(k, 0) - b * v
            if not work[k]:
                del work[k]
        steps += 1
        if steps % 64 == 0 and mult.bit_length() > 64:
            g = gcd(mult, *work.values(), *out.values())
            mult //= g
            work = {e: v // g for e, v in work.items()}
            out = {e: v // g for e, v in out.items()}
    return out, mult


def _reference_reducers(term_lists, key):
    """Each polynomial primitive with a positive lead coefficient, the first
    of each lead, ordered by tail length, ties in list order."""
    seen, out = set(), []
    for t in term_lists:
        g = gcd(*t.values())
        lead = max(t, key=key)
        g = g if t[lead] > 0 else -g
        if lead not in seen:
            seen.add(lead)
            out.append((lead, t[lead] // g, {e: v // g for e, v in t.items() if e != lead}))
    return sorted(out, key=lambda r: len(r[2]))


def test_division_past_the_8_bit_limit_raises_the_narrow_error():
    # x y^30 by x - y^100 under lex makes y^130
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    for bits, expected in ((8, None), (16, {(0, 130): 1})):
        lay = PackedLayout(2, "lex", bits)
        reducers = dict([_reducer(_int_terms(x - y ** 100, lay)[0], lay)])
        work = _int_terms(x * y ** 30, lay)[0]
        if expected is None:
            with pytest.raises(_NarrowOverflow):
                _divide_int(work, reducers, lay)
        else:
            out, mult = _divide_int(work, reducers, lay)
            assert ({lay.unpack(lay.heap_key(h)): c for h, c in out.items()}, mult) == (expected, 1)


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_divide_int_matches_a_tuple_reference_division(order, bits):
    # lead coefficients 1 and not, terms that cancel and come back, and
    # long divisions whose multiplier passes 64 bits and loses its content
    rng = random.Random(28)
    R = PolyRing(["x", "y", "z"])
    lay = PackedLayout(3, order, bits)
    key = order_key(order)

    def term_list(size, top):
        t = {}
        for _ in range(size):
            e = tuple(rng.randint(0, top) for _ in range(3))
            t[e] = t.get(e, 0) + rng.choice((-6, -3, -2, -1, 1, 1, 1, 2, 5))
        return {e: c for e, c in t.items() if c} or {(0, 0, 1): 1}

    def linear_form():
        t = {(1, 0, 0): rng.randint(2, 7), (0, 1, 0): rng.randint(-7, 7), (0, 0, 1): rng.randint(-7, 7)}
        return {e: c for e, c in t.items() if c}

    for case in range(120):
        if not case:  # x^40 by 4x - y, then y by y - 2z: 2^24 divides every term at step 64
            basis = [{(1, 0, 0): 4, (0, 1, 0): -1}, {(0, 1, 0): 1, (0, 0, 1): -2}]
            dividend = {(40, 0, 0): 1, (0, 0, 50): 1}
        elif case % 4:
            basis = [term_list(rng.randint(1, 4), 2) for _ in range(rng.randint(1, 4))]
            dividend = term_list(rng.randint(1, 8), 3)
        else:  # hundreds of steps by linear forms, most with lead coefficient above 1
            basis = [linear_form(), term_list(3, 1)]
            dividend = term_list(20, 8)
        reducers = {}
        for t in basis:
            lead, red = _reducer(_int_terms(poly_from_terms(R, t.items()), lay)[0], lay)
            reducers.setdefault(lead, red)
        terms = _int_terms(poly_from_terms(R, dividend.items()), lay)[0]
        expected = {lay.heap_key(k): c for k, c in terms.items()}
        out, mult = _divide_int(terms, _shortest_first(reducers), lay)
        ref, ref_mult = _reference_division(
            {lay.unpack(m): c for m, c in expected.items()}, _reference_reducers(basis, key), key
        )
        assert mult == ref_mult
        assert {lay.unpack(lay.heap_key(h)): c for h, c in out.items()} == ref
        assert 0 not in out.values()
        assert list(out) == sorted(out)  # leading first


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: groebner_basis([PolyRing(["x"]).var(0), PolyRing(["y"]).var(0)]), "generators live in different rings"),
        (lambda: Ideal(PolyRing(["x"]), [PolyRing(["y"]).var(0)]), "generator outside the ring"),
    ],
    ids=["basis-across-rings", "ideal-outside-its-ring"],
)
def test_boundary_checks_raise_ring_errors(call, message):
    with pytest.raises(RingError) as info:
        call()
    assert type(info.value) is RingError and str(info.value) == message


def test_monomial_ideal_repr_and_hash():
    J = MonomialIdeal(2, [(0, 1), (2, 0)])
    assert repr(J) == "MonomialIdeal(2, [(0, 1), (2, 0)])"
    same = MonomialIdeal(2, [(2, 0), (0, 1), (2, 1)])  # a redundant generator, another order
    assert J == same and hash(J) == hash(same)
