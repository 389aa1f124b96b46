"""simple_eliminate against the full-homomorphism elimination it replaced.

`reference_eliminate` applies each pivot x -> expr through the ring
homomorphism `MultiPoly.substitute`, with every other variable sent to
itself, and renumbers the survivors by substituting them into a smaller
ring with zero placeholders for the eliminated variables. The library
rewrites only the terms that hold x; both must agree exactly.
"""

import pytest

from hilb.localeq import _var_name, haiman_equations, simple_eliminate
from hilb.multipoly import ONE, PolyRing
from hilb.partitions import enumerate_partitions, min_generators

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


def reference_eliminate(pres):
    ring, variables = pres.ring, pres.variables
    nvars = len(variables)
    min_glo = set(min_generators(pres.lam))
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
            expr = (ring.var(x) * a - eqs[qi]) * (ONE / a)
            eqs[qi] = ring.zero()
            alive[x] = False
            subs[x] = expr
            images = list(ring.gens())
            images[x] = expr
            for k, eq in enumerate(eqs):
                if any(e[x] for e in eq.terms):
                    eqs[k] = eq.substitute(images)
            for v, p in subs.items():
                if any(e[x] for e in p.terms):
                    subs[v] = p.substitute(images)

    run_pass([k for k, (i, j) in enumerate(variables) if j not in min_glo])
    run_pass(list(range(nvars)))

    survivors = [k for k in range(nvars) if alive[k]]
    new_ring = PolyRing([_var_name(variables[k]) for k in survivors])
    pos = {k: idx for idx, k in enumerate(survivors)}
    images = [new_ring.var(pos[k]) if alive[k] else new_ring.zero() for k in range(nvars)]

    def project(p):
        assert not any(e[k] for e in p.terms for k in range(nvars) if not alive[k])
        return p.substitute(images)

    new_eqs, seen = [], set()
    for eq in eqs:
        q = project(eq)
        if q and frozenset(q.terms.items()) not in seen:
            seen.add(frozenset(q.terms.items()))
            new_eqs.append(q)
    eliminated = [(variables[k], project(expr)) for k, expr in subs.items()]
    return [variables[k] for k in survivors], new_eqs, eliminated


@pytest.mark.parametrize("r,n", CLASSES)
def test_simple_eliminate_matches_full_homomorphism_reference(r, n):
    for lam in enumerate_partitions(r, n):
        raw = haiman_equations(lam)
        pres = simple_eliminate(raw)
        variables, equations, eliminated = reference_eliminate(raw)
        assert pres.variables == variables
        assert pres.equations == equations
        assert list(pres.eliminated.items()) == eliminated
