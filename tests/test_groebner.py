import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb.groebner import (
    BudgetExceeded,
    Ideal,
    MonomialIdeal,
    groebner_basis,
    ideal_equal,
    minimal_monomials,
    normal_form,
)
from hilb.multipoly import PolyRing, order_key, poly_from_terms


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
    basis = groebner_basis([x * x - z, y * y - z * z])
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
        np_, nq = normal_form(p, basis), normal_form(q, basis)
        assert normal_form(np_, basis) == np_
        assert normal_form(p + q, basis) == np_ + nq


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
            assert I.contains(R.monomial(m)) == J.contains(m)


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
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    I = Ideal(R, [x * x - y, x * y - 1])
    J = Ideal(R, [x * y - 1, x * x - y])
    assert ideal_equal(I, J)
    K = Ideal(R, [x])
    L = Ideal(R, [x, x * x])
    assert ideal_equal(K, L)
    assert not ideal_equal(K, Ideal(R, [y]))


def test_ideal_equal_equivalence_on_corpus():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    corpus = [
        Ideal(R, [x * x - y]),
        Ideal(R, [x * x - y, (x * x - y) * x]),
        Ideal(R, [x, y]),
        Ideal(R, [x + y, y]),
    ]
    for A in corpus:
        assert ideal_equal(A, A)
    for A in corpus:
        for B in corpus:
            assert ideal_equal(A, B) == ideal_equal(B, A)
    # transitivity on the pair that is actually equal
    assert ideal_equal(corpus[0], corpus[1])
    assert ideal_equal(corpus[2], corpus[3])


def test_budget_exceeded_is_loud():
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    gens = [x + y + z, x * y + y * z + z * x, x * y * z - 1]
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, budget=1)


def test_colon_examples():
    assert MonomialIdeal(2, [(2, 0)]).colon((1, 1)) == MonomialIdeal(2, [(1, 0)])
    J = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
    assert J.colon((0, 0)) == J
    assert J.colon((0, 1)) == MonomialIdeal(2, [(1, 0), (0, 2)])


def test_monomial_ideal_minimalizes():
    J = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1)])
    assert J.gens == ((1, 0),)


@st.composite
def exponent_lists(draw):
    """Exponent vectors of one length, with repeats and the zero vector."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12))
    if draw(st.booleans()):
        vecs.append((0,) * n)
    if vecs:
        vecs += draw(st.lists(st.sampled_from(vecs), max_size=4))
    return vecs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(exponent_lists())
def test_minimal_monomials_is_the_pairwise_definition(gens):
    # keep g unless some other h divides it
    def divides(h, g):
        return all(a <= b for a, b in zip(h, g))

    expected = sorted({g for g in gens if not any(h != g and divides(h, g) for h in gens)})
    assert minimal_monomials(gens) == tuple(expected)


SYMPY_XYZ = sympy.symbols("x y z")


def _sympy_reduced_basis(term_lists, order):
    """sympy's reduced basis, each element scaled to lead coefficient 1 in `order`.

    Poly.monic() would divide by the lex-leading coefficient, which is not
    the grevlex one; the lead term is taken with hilb's own order key.
    """
    x = SYMPY_XYZ
    exprs = [sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for e, c in t) for t in term_lists]
    key = order_key(order)
    out = []
    for p in sympy.groebner(exprs, *x, order=order, domain="QQ").polys:
        d = {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}
        lc = d[max(d, key=key)]
        out.append(sorted((m, c / lc) for m, c in d.items()))
    return sorted(out)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy(order):
    R = PolyRing(["x", "y", "z"])
    rng = random.Random(3)
    for _ in range(20):
        term_lists = [
            [
                (tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-3, 3))
                for _ in range(rng.randint(2, 3))
            ]
            for _ in range(rng.randint(2, 3))
        ]
        gens = [p for p in (poly_from_terms(R, t) for t in term_lists) if p]
        ours = sorted(sorted(g.terms.items()) for g in groebner_basis(gens, order))
        assert ours == _sympy_reduced_basis(term_lists, order)
