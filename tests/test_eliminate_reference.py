"""simple_eliminate against the full-homomorphism elimination it replaced.

`reference_eliminate` applies each pivot x -> expr through a ring
homomorphism on exponent tuples, `tuple_substitute`, with every other
variable sent to itself, dividing by the pivot coefficient through
Fraction, and renumbers the survivors by substituting them into a smaller
ring with zero placeholders for the eliminated variables. It shares no
packed code with the library, which works on packed monomials, rewrites
only the terms that hold x, and divides only at a pivot other than +-1;
both must agree exactly. On the Haiman equations every pivot is a unit,
so every coefficient stays an int; hand-built presentations cover the
other pivots, and packed degrees of 2^15 raise RingError.
"""

from fractions import Fraction
from operator import add

import pytest

from hilb.localeq import HaimanPresentation, _var_name, haiman_equations, simple_eliminate, step0
from hilb.multipoly import MultiPoly, PolyRing, RingError
from hilb.partitions import Partition, enumerate_partitions, ideal_of_partition

CLASSES = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]


def linear_coefficient(eq, x):
    """a if eq == a*x + (terms without x), else None."""
    a = None
    for e, c in eq.terms.items():
        if e[x]:
            if e[x] != 1 or sum(e) != 1 or a is not None:
                return None
            a = c
    return a


def tuple_substitute(p, images):
    """The ring homomorphism sending variable i to images[i], on exponent
    tuples with `MultiPoly` products: powers of each image are cached, and
    a one-term factor scales and shifts the product of the others."""
    target = images[0].ring
    one = target.const(1)
    powers = [[one] for _ in images]
    out = {}
    for e, c in p.terms.items():
        term, shift = one, (0,) * target.n
        for i, k in enumerate(e):
            if not k:
                continue
            pw = powers[i]
            while len(pw) <= k:
                pw.append(pw[-1] * images[i])
            if len(pw[k].terms) == 1:
                ((m, d),) = pw[k].terms.items()
                shift = tuple(map(add, shift, m))
                c = c * d
            else:
                term = term * pw[k]
        for m, tc in term.terms.items():
            m = tuple(map(add, m, shift))
            out[m] = out.get(m, 0) + tc * c
    return MultiPoly(target, out)


def reference_eliminate(pres):
    ring, variables = pres.ring, pres.variables
    nvars = len(variables)
    min_glo = set(ideal_of_partition(pres.lam).gens)
    alive = [True] * nvars
    eqs = list(pres.equations)
    subs = {}

    def find_pivot(targets):
        for x in targets:
            if alive[x]:
                for qi, eq in enumerate(eqs):
                    a = linear_coefficient(eq, x)
                    if a is not None:
                        return x, qi, a
        return None

    def run_pass(targets):
        while (found := find_pivot(targets)) is not None:
            x, qi, a = found
            expr = (ring.var(x) * a - eqs[qi]) * Fraction(1, a)
            eqs[qi] = ring.zero()
            alive[x] = False
            subs[x] = expr
            images = list(ring.gens())
            images[x] = expr
            for k, eq in enumerate(eqs):
                if any(e[x] for e in eq.terms):
                    eqs[k] = tuple_substitute(eq, images)
            for v, p in subs.items():
                if any(e[x] for e in p.terms):
                    subs[v] = tuple_substitute(p, images)

    run_pass([k for k, (i, j) in enumerate(variables) if j not in min_glo])
    run_pass(list(range(nvars)))

    survivors = [k for k in range(nvars) if alive[k]]
    new_ring = PolyRing([_var_name(variables[k]) for k in survivors])
    pos = {k: idx for idx, k in enumerate(survivors)}
    images = [new_ring.var(pos[k]) if alive[k] else new_ring.zero() for k in range(nvars)]

    def project(p):
        assert not any(e[k] for e in p.terms for k in range(nvars) if not alive[k])
        return tuple_substitute(p, images)

    new_eqs, seen = [], set()
    for eq in eqs:
        q = project(eq)
        if q and frozenset(q.terms.items()) not in seen:
            seen.add(frozenset(q.terms.items()))
            new_eqs.append(q)
    eliminated = [(variables[k], project(expr)) for k, expr in subs.items()]
    return [variables[k] for k in survivors], new_eqs, eliminated


def _assert_matches_reference(pres, out):
    variables, equations, eliminated = reference_eliminate(pres)
    assert out.variables == variables
    assert out.equations == equations
    assert list(out.eliminated.items()) == eliminated


@pytest.mark.parametrize("r,n", CLASSES)
def test_simple_eliminate_matches_full_homomorphism_reference(r, n):
    for lam in enumerate_partitions(r, n):
        raw = haiman_equations(lam)
        _assert_matches_reference(raw, simple_eliminate(raw))


def _coefficients(pres):
    for eq in pres.equations:
        yield from eq.terms.values()
    for expr in pres.eliminated.values():
        yield from expr.terms.values()


@pytest.mark.parametrize("r,n", CLASSES)
def test_haiman_and_step0_coefficients_are_ints(r, n):
    """Every pivot of the Haiman equations is +-1, so no Fraction appears."""
    for lam in enumerate_partitions(r, n):
        for pres in (haiman_equations(lam), step0(lam)):
            assert all(type(c) is int for c in _coefficients(pres))


# A hand-built presentation on the one-cell partition of r=2: the
# variables are cell pairs whose superscripts are not minimal generators,
# so the first pass takes them in list order; each has weight (1, 0).
BOX = Partition(2, [(0, 0)])
C, CP, CPP = ((1, 0), (2, 0)), ((0, 1), (1, 1)), ((2, 0), (3, 0))


def _presentation(variables, make_equations):
    ring = PolyRing([_var_name(v) for v in variables])
    return HaimanPresentation(BOX, variables, make_equations(*ring.gens()))


def test_non_unit_pivot_divides_exactly():
    # 2c - c' pivots on c with coefficient 2: c = c'/2, then c^2 - c'^2 = -3/4 c'^2
    pres = _presentation([C, CP], lambda c, cp: [2 * c - cp, c * c - cp * cp])
    out = simple_eliminate(pres)
    ring = out.ring
    assert out.variables == [CP]
    assert out.equations == [MultiPoly(ring, {(2,): Fraction(-3, 4)})]
    assert out.eliminated == {C: MultiPoly(ring, {(1,): Fraction(1, 2)})}
    assert all(type(c) is Fraction for c in _coefficients(out))
    _assert_matches_reference(pres, out)


def test_fraction_pivot_after_a_non_unit_pivot():
    # c = c'/2 turns c - 3c'' into c'/2 - 3c'', a pivot on c' with coefficient 1/2
    pres = _presentation(
        [C, CP, CPP], lambda c, cp, cpp: [2 * c - cp, c - 3 * cpp, c * c - cp * cp]
    )
    out = simple_eliminate(pres)
    ring = out.ring
    assert out.variables == [CPP]
    assert out.equations == [MultiPoly(ring, {(2,): -27})]
    assert out.eliminated == {
        C: MultiPoly(ring, {(1,): 3}),
        CP: MultiPoly(ring, {(1,): 6}),
    }
    _assert_matches_reference(pres, out)


@pytest.mark.parametrize("degree", [2**15 - 1, 2**15])
def test_input_degree_at_the_packed_limit(degree):
    # built from tuples, which the presentation's weight check is the first
    # to pack, so a degree of 2^15 raises there
    def make_equations(c):
        return [c.ring.monomial((degree,))]

    if degree < 2**15:
        pres = _presentation([C], make_equations)
        assert pres.equations[0].terms == {(degree,): 1}
        out = simple_eliminate(pres)
        assert out.equations == [MultiPoly(out.ring, {(degree,): 1})]
        assert pres.ring.var(0) ** degree == pres.equations[0]
    else:
        with pytest.raises(RingError):
            _presentation([C], make_equations)
        # a power meets the same limit
        with pytest.raises(RingError):
            PolyRing([_var_name(C)]).var(0) ** degree


@pytest.mark.parametrize("k", [2**14 - 1, 2**14])
def test_substitution_reaching_the_packed_limit(k):
    # x = y^2 turns x^k into y^(2k): degree 2^15 at k = 2^14
    x, y = ((0, 0), (2, 0)), C  # weights (2, 0) and (1, 0); x comes first
    pres = _presentation([x, y], lambda x, y: [x - y * y, x**k])
    if 2 * k < 2**15:
        out = simple_eliminate(pres)
        assert out.variables == [y]
        assert out.equations == [MultiPoly(out.ring, {(2 * k,): 1})]
    else:
        with pytest.raises(RingError):
            simple_eliminate(pres)
