"""Canonical coefficient types: an integer value is stored as an `int` and
any other rational as a `Fraction`, whatever type it arrives with and
whichever operation produced it. Each result is also checked against a
reference computed on term dicts in `Fraction` alone. The operations are
also checked on operands built in each of the two ways a polynomial can
be: from exponent tuples by the constructor, which packs them on first
use, or packed, by arithmetic."""

from fractions import Fraction
from operator import add, ge

from hypothesis import given, settings
from hypothesis import strategies as st

from hilb.groebner import Ideal, groebner_basis
from hilb.multipoly import MultiPoly, PolyRing
from tuple_orders import order_key

F = Fraction
R3 = PolyRing(["x", "y", "z"])
S2 = PolyRing(["u", "v"])
seeded = settings(derandomize=True, max_examples=80, deadline=None)

# the three kinds of input coefficient, mixed within one polynomial
mixed = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-4, 4), st.integers(2, 4)),
)


def raw_terms(ring, max_exp=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.n)
    return st.dictionaries(exps, mixed, max_size=max_terms)


def check(p, ref):
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (c.denominator == 1)
    assert p.terms == ref


# references on {exponent tuple: Fraction} dicts


def ref_of(terms):
    return {e: F(c) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_scale(a, mono, c):
    return {tuple(map(add, e, mono)): c * d for e, d in a.items()}


def ref_mul(a, b):
    out = {}
    for e, c in a.items():
        out = ref_add(out, ref_scale(b, e, c))
    return out


def ref_pow(a, k, n):
    out = {(0,) * n: F(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, images, n):
    out = {}
    for e, c in a.items():
        term = {(0,) * n: c}
        for img, k in zip(images, e):
            term = ref_mul(term, ref_pow(img, k, n))
        out = ref_add(out, term)
    return out


def ref_remainder(p, basis, key):
    """The remainder of full division of p by basis."""
    p, rem = dict(p), {}
    while p:
        e = max(p, key=key)
        for g in basis:
            lead = max(g, key=key)
            if all(map(ge, e, lead)):
                quot = tuple(x - y for x, y in zip(e, lead))
                p = ref_add(p, ref_scale(g, quot, -p[e] / g[lead]))
                break
        else:
            rem[e] = p.pop(e)
    return rem


def ref_groebner(gens, key):
    """The reduced Groebner basis by textbook Buchberger on every pair."""
    basis = [g for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lf, lg = max(f, key=key), max(g, key=key)
        lcm = tuple(map(max, lf, lg))
        s = ref_add(
            ref_scale(f, tuple(x - y for x, y in zip(lcm, lf)), 1 / f[lf]),
            ref_scale(g, tuple(x - y for x, y in zip(lcm, lg)), -1 / g[lg]),
        )
        r = ref_remainder(s, basis, key)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)
    leads = [max(g, key=key) for g in basis]
    minimal = []  # no other lead divides the lead, and of equal leads the first
    for k, (g, lead) in enumerate(zip(basis, leads)):
        divisors = [m for m, other in enumerate(leads) if m != k and all(map(ge, lead, other))]
        if all(leads[m] == lead and m > k for m in divisors):
            minimal.append(g)
    out = []
    for g in minimal:
        r = ref_remainder(g, [h for h in minimal if h is not g], key)
        lc = r[max(r, key=key)]
        out.append({e: c / lc for e, c in r.items()})
    return out


@seeded
@given(raw_terms(R3), raw_terms(R3), st.integers(0, 3))
def test_ring_operations_give_canonical_exact_coefficients(a, b, k):
    p, q = MultiPoly(R3, a), MultiPoly(R3, b)
    ra, rb = ref_of(a), ref_of(b)
    check(p, ra)
    check(q, rb)
    check(p + q, ref_add(ra, rb))
    check(p - q, ref_add(ra, {e: -c for e, c in rb.items()}))
    check(p * q, ref_mul(ra, rb))
    check(p**k, ref_pow(ra, k, R3.n))


@seeded
@given(raw_terms(R3), st.lists(raw_terms(S2, max_exp=1, max_terms=3), min_size=3, max_size=3))
def test_substitute_gives_canonical_exact_coefficients(a, images):
    check(
        MultiPoly(R3, a).substitute([MultiPoly(S2, img) for img in images]),
        ref_substitute(ref_of(a), [ref_of(img) for img in images], S2.n),
    )


@seeded
@given(
    st.lists(raw_terms(S2, max_terms=3), min_size=1, max_size=3),
    raw_terms(S2, max_exp=3),
    st.sampled_from(["grevlex", "lex"]),
)
def test_bases_and_normal_forms_give_canonical_exact_coefficients(gens, query, order):
    key = order_key(order)
    polys = [MultiPoly(S2, g) for g in gens]
    ref_basis = ref_groebner([ref_of(g) for g in gens], key)
    basis = groebner_basis(polys, order)
    assert len(basis) == len(ref_basis)
    ref_by_lead = {max(g, key=key): g for g in ref_basis}
    for g in basis:
        check(g, ref_by_lead[max(g.terms, key=key)])
    nf = Ideal(S2, polys).normal_form(MultiPoly(S2, query), order)
    check(nf, ref_remainder(ref_of(query), ref_basis, key))


# A polynomial is built from tuples by the constructor, or packed by an
# operation; each reference comparison takes operands of both kinds


FORMS = ("tuples", "arithmetic")
form = st.sampled_from(FORMS)


def in_form(ring, terms, which):
    """The polynomial of the raw terms, built the way `which` names."""
    if which == "tuples":
        return MultiPoly(ring, terms)
    p = ring.zero()
    for e, c in terms.items():
        m = ring.const(c)
        for x, k in zip(ring.gens(), e):
            m = m * x**k
        p = p + m
    return p


def agree(p, ref):
    """p reads back as ref, and equals and hashes like ref built either way."""
    for which in FORMS:
        q = in_form(p.ring, ref, which)
        assert p == q and q == p and hash(p) == hash(q)
    check(p, ref)


def ref_derivative(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


@seeded
@given(raw_terms(R3), raw_terms(R3), form, form, st.integers(0, 3), mixed, st.integers(0, 2))
def test_ring_operations_agree_on_every_form(a, b, fa, fb, k, c, i):
    p, q = in_form(R3, a, fa), in_form(R3, b, fb)
    ra, rb = ref_of(a), ref_of(b)
    # negation, scalar products and the degree first, before a sum uses p
    agree(-p, {e: -d for e, d in ra.items()})
    scaled = {e: d * c for e, d in ra.items() if d * c}
    agree(p * c, scaled)
    agree(c * p, scaled)
    assert p.total_degree() == max(map(sum, ra), default=0)
    agree(p + q, ref_add(ra, rb))
    agree(p - q, ref_add(ra, {e: -d for e, d in rb.items()}))
    agree(p * q, ref_mul(ra, rb))
    agree(p**k, ref_pow(ra, k, R3.n))
    agree(p + c, ref_add(ra, ref_of({(0,) * R3.n: c})))
    agree(p.derivative(i), ref_derivative(ra, i))


@seeded
@given(
    raw_terms(R3),
    form,
    st.lists(st.tuples(raw_terms(S2, max_exp=1, max_terms=3), form), min_size=3, max_size=3),
)
def test_substitute_agrees_on_every_form(a, fa, images):
    p = in_form(R3, a, fa)
    agree(
        p.substitute([in_form(S2, img, which) for img, which in images]),
        ref_substitute(ref_of(a), [ref_of(img) for img, _ in images], S2.n),
    )


# a source ring of 40 to 44 variables: the top variable's field sits just
# below the degree field, in the high limbs of a multi-digit int
WIDE = {n: PolyRing([f"x{i}" for i in range(n)]) for n in (40, 41, 44)}
T3 = PolyRing(["u", "v", "w"])


def multi_term(ring, max_exp=2):
    """Raw terms of two or three monomials, all with nonzero coefficients."""
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.n)
    return st.dictionaries(exps, mixed.filter(bool), min_size=2, max_size=3)


@st.composite
def wide_substitutions(draw):
    """(n, terms, images): raw terms in WIDE[n] that read three or four of
    its variables, the top one always among them and held by the first
    term, at exponents up to 3, and one raw image in T3 per variable. The
    images of the variables read have two or three terms, and one in four
    at most one, so that many terms have three or more multi-term factors;
    every other variable goes to a variable of T3."""
    n = draw(st.sampled_from(sorted(WIDE)))
    read = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=3, unique=True)) + [n - 1]
    images = [{tuple(int(j == i % T3.n) for j in range(T3.n)): 1} for i in range(n)]
    for i in read:
        few = draw(st.integers(0, 3)) == 0
        images[i] = draw(raw_terms(T3, max_terms=1) if few else multi_term(T3))
    powers = st.lists(st.integers(1, 3) | st.just(0), min_size=len(read), max_size=len(read))
    rows = draw(st.lists(st.tuples(powers, mixed), min_size=1, max_size=4))
    rows[0][0][-1] = draw(st.integers(1, 3))
    terms = {}
    for ks, c in rows:
        e = [0] * n
        for i, k in zip(read, ks):
            e[i] = k
        terms[tuple(e)] = c
    return n, terms, images


@seeded
@given(wide_substitutions(), form, form)
def test_substitute_from_a_wide_ring_agrees_with_the_reference(case, fa, fi):
    n, a, images = case
    p = in_form(WIDE[n], a, fa)
    agree(
        p.substitute([in_form(T3, img, fi) for img in images]),
        ref_substitute(ref_of(a), [ref_of(img) for img in images], T3.n),
    )


@seeded
@given(
    st.lists(st.tuples(raw_terms(S2, max_terms=3), form), min_size=1, max_size=3),
    raw_terms(S2, max_exp=3),
    form,
    st.sampled_from(["grevlex", "lex"]),
)
def test_normal_forms_agree_on_every_form(gens, query, fq, order):
    key = order_key(order)
    ideal = Ideal(S2, [in_form(S2, g, which) for g, which in gens])
    ref_basis = ref_groebner([ref_of(g) for g, _ in gens], key)
    nf = ideal.normal_form(in_form(S2, query, fq), order)
    agree(nf, ref_remainder(ref_of(query), ref_basis, key))
