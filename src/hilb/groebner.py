"""Buchberger Groebner bases over Q, normal forms, and monomial colon ideals.

Plain Buchberger with the sugar selection strategy and the two classical
pair-skipping criteria. Division runs fraction-free over Z on content-
stripped polynomials, so rational input costs one denominator clearing
up front and the hot loop is pure integer arithmetic. A hard S-pair
budget turns blowups into a structured failure instead of an endless
run.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from .multipoly import (
    Monomial,
    MultiPoly,
    PolyRing,
    RingError,
    _mono_colon,
    _mono_divides,
    _mono_lcm,
    _mono_mul,
    _mono_quot,
    heap_key,
    order_key,
)

DEFAULT_SPAIR_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a basis run exceeds its S-pair reduction budget."""

    def __init__(self, used: int, budget: int):
        super().__init__(f"S-pair budget exceeded: {used} reductions, budget {budget}")
        self.used = used
        self.budget = budget


IntTerms = Dict[Monomial, int]


def _primitive_int(d: IntTerms) -> IntTerms:
    g = 0
    for v in d.values():
        g = gcd(g, v)
        if g == 1:
            return d
    if g > 1:
        return {e: v // g for e, v in d.items()}
    return d


def _int_terms(p: MultiPoly) -> IntTerms:
    """Denominator-cleared, content-stripped copy of p's terms."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return _primitive_int(
        {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    )


def _divide_int(
    terms: IntTerms,
    basis_lead: Sequence[Tuple[Monomial, int]],
    basis_terms: Sequence[IntTerms],
    hkey,
) -> Tuple[IntTerms, int]:
    """Fraction-free full reduction; returns (result, multiplier).

    result = multiplier * (input reduced by the basis), multiplier a
    positive integer. Terms are visited leading first, by the order's
    `heap_key`. The divisor tried for each term is the first basis
    element in list order whose leading monomial divides it.
    """
    work = dict(terms)
    mult = 1
    heap = [(hkey(e), e) for e in work]
    heapq.heapify(heap)
    done = set()
    steps = 0
    while heap:
        _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c or e in done:
            continue
        for (ge, gc), gt in zip(basis_lead, basis_terms):
            if not _mono_divides(ge, e):
                continue
            d = gcd(c, gc)
            a = abs(gc // d)
            b = c // d if gc > 0 else -(c // d)
            if a != 1:
                for m in work:
                    work[m] *= a
                mult *= a
            shift = _mono_quot(e, ge)
            for f, fc in gt.items():
                m = _mono_mul(f, shift)
                prev = work.get(m)
                nv = (prev or 0) - b * fc
                if nv:
                    work[m] = nv
                    if prev is None and m != e:
                        heapq.heappush(heap, (hkey(m), m))
                elif prev is not None:
                    del work[m]
            steps += 1
            if steps % 64 == 0 and mult.bit_length() > 64:
                g0 = mult
                for v in work.values():
                    g0 = gcd(g0, v)
                    if g0 == 1:
                        break
                if g0 > 1:
                    mult //= g0
                    work = {m: v // g0 for m, v in work.items()}
            break
        else:
            done.add(e)
    return work, mult


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly], order="grevlex") -> MultiPoly:
    """Remainder of p under multivariate division by basis (full reduction).

    Deterministic: the first basis element (in list order) whose leading
    monomial divides the current leading monomial is used.
    """
    if not p.terms:
        return p
    key = order_key(order)
    basis_lead = []
    basis_terms = []
    for g in basis:
        gt = _int_terms(g)
        ge = max(gt, key=key)
        basis_lead.append((ge, gt[ge]))
        basis_terms.append(gt)
    cont = p.content()
    work, mult = _divide_int(_int_terms(p), basis_lead, basis_terms, heap_key(order))
    return MultiPoly(p.ring, {e: Fraction(v) * cont / mult for e, v in work.items()})


def groebner_basis(
    gens: Iterable[MultiPoly],
    order="grevlex",
    budget: int = DEFAULT_SPAIR_BUDGET,
    want_stats: bool = False,
):
    """Reduced Groebner basis of the given generators.

    Raises BudgetExceeded when more than `budget` S-pair reductions are
    attempted. With want_stats=True returns (basis, reductions_used).
    """
    gens = [g for g in gens if g]
    if not gens:
        raise RingError("need at least one nonzero generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingError("generators live in different rings")
    key = order_key(order)
    hkey = heap_key(order)

    basis_terms: List[IntTerms] = []
    basis_lead: List[Tuple[Monomial, int]] = []
    sugar: List[int] = []
    pending: Dict[Tuple[int, int], bool] = {}
    heap: List[Tuple[int, int, int, int]] = []
    counter = 0

    def add_int(t: IntTerms, s: int):
        nonlocal counter
        t = _primitive_int(t)
        lead = max(t, key=key)
        if t[lead] < 0:
            t = {e: -v for e, v in t.items()}
        i = len(basis_terms)
        basis_terms.append(t)
        basis_lead.append((lead, t[lead]))
        sugar.append(s)
        for j in range(i):
            lj = basis_lead[j][0]
            tt = _mono_lcm(lead, lj)
            pair_sugar = max(sugar[i] + sum(_mono_quot(tt, lead)), sugar[j] + sum(_mono_quot(tt, lj)))
            heapq.heappush(heap, (pair_sugar, counter, j, i))
            pending[(j, i)] = True
            counter += 1

    for g in sorted(gens, key=lambda p: key(p.leading(order)[0])):
        add_int(_int_terms(g), g.total_degree())

    used = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if not pending.pop((i, j), False):
            continue
        li, ci = basis_lead[i]
        lj, cj = basis_lead[j]
        t = _mono_lcm(li, lj)
        # criterion 1: coprime leading monomials
        if t == _mono_mul(li, lj):
            continue
        # criterion 2 (chain): some k divides the lcm and both cross pairs are done
        skip = False
        for k in range(len(basis_terms)):
            if k in (i, j) or not _mono_divides(basis_lead[k][0], t):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                skip = True
                break
        if skip:
            continue
        used += 1
        if used > budget:
            raise BudgetExceeded(used, budget)
        d = gcd(ci, cj)
        fi = _mono_quot(t, li)
        fj = _mono_quot(t, lj)
        s: IntTerms = {}
        for e, c in basis_terms[i].items():
            m = _mono_mul(e, fi)
            s[m] = s.get(m, 0) + (cj // d) * c
        for e, c in basis_terms[j].items():
            m = _mono_mul(e, fj)
            nv = s.get(m, 0) - (ci // d) * c
            if nv:
                s[m] = nv
            else:
                s.pop(m, None)
        s = {e: v for e, v in s.items() if v}
        if not s:
            continue
        r, _ = _divide_int(s, basis_lead, basis_terms, hkey)
        if r:
            add_int(r, max(sugar[i] + sum(fi), sugar[j] + sum(fj)))

    reduced = _reduce_int_basis(basis_terms, basis_lead, key, hkey, ring)
    if want_stats:
        return reduced, used
    return reduced


def _reduce_int_basis(
    basis_terms: List[IntTerms],
    basis_lead: List[Tuple[Monomial, int]],
    key,
    hkey,
    ring: PolyRing,
) -> List[MultiPoly]:
    # minimalize: keep the elements with minimal leading monomials, the
    # first in list order where several share one
    first: Dict[Monomial, int] = {}
    for i, (e, _) in enumerate(basis_lead):
        first.setdefault(e, i)
    keep = [first[e] for e in minimal_monomials(first)]
    keep.sort(key=lambda i: key(basis_lead[i][0]))
    # inter-reduce tails against the other minimal elements
    out: List[MultiPoly] = []
    for i in keep:
        others = [k for k in keep if k != i]
        r, _ = _divide_int(
            basis_terms[i],
            [basis_lead[k] for k in others],
            [basis_terms[k] for k in others],
            hkey,
        )
        if r:
            le = max(r, key=key)
            lc = r[le]
            out.append(MultiPoly(ring, {e: Fraction(v, lc) for e, v in r.items()}))
    out.sort(key=lambda g: key(max(g.terms, key=key)))
    return out


def minimal_monomials(gens: Iterable[Monomial]) -> Tuple[Monomial, ...]:
    """Sorted minimal elements under divisibility, duplicates dropped.

    A proper divisor of a nonnegative exponent vector has smaller total
    degree, so candidates are taken by degree and each is tested only
    against the generators already kept.
    """
    kept: List[Monomial] = []
    for g in sorted(set(gens), key=sum):
        if not any(_mono_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(sorted(kept))


class MonomialIdeal:
    """Monomial ideal held by its minimal generators (a divisibility antichain)."""

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens: Iterable[Monomial]):
        gens = {tuple(int(x) for x in g) for g in gens}
        for g in gens:
            if len(g) != nvars:
                raise RingError("generator length mismatch")
            if any(x < 0 for x in g):
                raise RingError("monomial ideal generators must have nonnegative exponents")
        self.nvars = nvars
        self.gens = minimal_monomials(gens)

    def contains(self, mono: Monomial) -> bool:
        return any(_mono_divides(g, mono) for g in self.gens)

    def colon(self, f: Monomial) -> "MonomialIdeal":
        f = tuple(int(x) for x in f)
        return MonomialIdeal(self.nvars, [_mono_colon(g, f) for g in self.gens])

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self.nvars}, {list(self.gens)})"


class Ideal:
    """Polynomial ideal with cached reduced Groebner bases per order."""

    def __init__(self, ring: PolyRing, gens: Iterable[MultiPoly]):
        gens = [g for g in gens if g]
        for g in gens:
            if g.ring != ring:
                raise RingError("generator outside the ring")
        self.ring = ring
        self.gens = list(gens)
        self._gb: Dict[object, List[MultiPoly]] = {}

    def groebner(self, order="grevlex", budget: int = DEFAULT_SPAIR_BUDGET) -> List[MultiPoly]:
        if order not in self._gb:
            self._gb[order] = groebner_basis(self.gens, order, budget)
        return self._gb[order]

    def set_groebner(self, order, basis: List[MultiPoly]):
        """Install a reduced basis computed elsewhere, such as by `groebner_basis`."""
        self._gb[order] = list(basis)

    def normal_form(self, p: MultiPoly, order="grevlex") -> MultiPoly:
        return normal_form(p, self.groebner(order), order)

    def contains(self, p: MultiPoly, order="grevlex") -> bool:
        return not self.normal_form(p, order)

    def initial_ideal(self, order="grevlex", budget: int = DEFAULT_SPAIR_BUDGET) -> MonomialIdeal:
        basis = self.groebner(order, budget)
        key = order_key(order)
        return MonomialIdeal(self.ring.n, [max(g.terms, key=key) for g in basis])


def ideal_equal(I: Ideal, J: Ideal, order="grevlex") -> bool:
    """Mutual reduction to zero of each side's generators."""
    if I.ring != J.ring:
        raise RingError("ideals live in different rings")
    return all(J.contains(g, order) for g in I.gens) and all(
        I.contains(g, order) for g in J.gens
    )
