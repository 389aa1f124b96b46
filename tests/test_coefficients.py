"""Canonical coefficient types: an integer value is stored as an `int` and
any other rational as a `Fraction`, whatever type it arrives with and
whichever operation produced it. Each result is also checked against a
reference computed on term dicts in `Fraction` alone. The operations are
also checked on operands in each form a polynomial can hold its terms
in: exponent tuples, packed ints, or both."""

from fractions import Fraction
from operator import add, ge

from hypothesis import given, settings
from hypothesis import strategies as st

from hilb.groebner import Ideal, groebner_basis
from hilb.multipoly import MultiPoly, PolyRing, order_key

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


# A polynomial holds tuples when built from them, packed ints when built
# by an operation, and both once the other form has been asked for


FORMS = ("packed", "tuples", "both")
form = st.sampled_from(FORMS)


def in_form(ring, terms, which):
    """The polynomial of the raw terms, holding them in form `which`."""
    if which == "tuples":
        p = MultiPoly(ring, terms)
        assert p._packed is None
        return p
    p = ring.zero()
    for e, c in terms.items():
        m = ring.const(c)
        for x, k in zip(ring.gens(), e):
            m = m * x**k
        p = p + m
    assert p._terms is None
    if which == "both":
        p.terms
    return p


def agree(p, ref, packed=True):
    """p reads back as ref, and equals and hashes like ref built in each
    form; an operation's result holds packed ints alone until then, and
    `packed=None` leaves the form of p unchecked."""
    if packed is not None:
        assert (p._terms is None) == packed
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
    # negation and scalar products make no monomial, so they keep the form
    # held, and the degree reads it; checked before a sum packs p
    packed = fa != "tuples"
    agree(-p, {e: -d for e, d in ra.items()}, packed)
    scaled = {e: d * c for e, d in ra.items() if d * c}
    agree(p * c, scaled, packed)
    agree(c * p, scaled, packed)
    assert p.total_degree() == max(map(sum, ra), default=0)
    assert (p._packed is None) == (fa == "tuples")
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
    ref = ref_remainder(ref_of(query), ref_basis, key)
    # a zero query comes back as it is; a grevlex remainder is built packed
    agree(nf, ref, packed=order == "grevlex" if ref_of(query) else None)
