"""Buchberger Groebner bases over Q, normal forms, and monomial ideals.

Buchberger with the sugar selection strategy. Pairs are pruned once, when
an element is added, by the Gebauer-Moller update (Gebauer & Moller, J.
Symb. Comp. 1988, in the form of Becker & Weispfenning's UPDATE):
criteria B, M and F on the packed lcm stored with each pair, then the
coprime test. Division runs fraction-free over Z on content-
stripped polynomials, so rational input costs one denominator clearing
up front, the hot loop is pure integer arithmetic, and a result builds a
`Fraction` only for a coefficient that is not an integer. Buchberger and
division also run on the packed term format of `multipoly`
(`PackedLayout`, `IntTerms`), the one working form of `MultiPoly`: terms
are dicts from packed ints to integer coefficients, products are int
additions, an S-polynomial is two `_add_shifted` calls, divisibility is
a guard-mask test, and the division heap holds plain int keys. Both
orders take one path with no exponent tuples: `_int_terms` recodes a
polynomial's packed terms into the order's layout (`PackedLayout.recode`),
and `_poly` recodes a result into the ring's layout and builds it packed.
An exponent or degree of 2^15 or more raises RingError. The zero ideal
has the empty basis, so
its normal forms are the input and its initial ideal is empty. Division
by a basis has one entry point, `Ideal.normal_form`, which packs the
basis of each order once and keeps it; `Ideal.initial_ideal` reads the
leads of the same packed basis. A hard S-pair budget turns
blowups into a structured failure instead of an endless run.
`MonomialIdeal`, such as an initial ideal, holds its minimal generators
as packed lex ints, so its membership test and minimalization are the
packed ones of `PackedLayout`.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .multipoly import (
    IntTerms,
    Monomial,
    MultiPoly,
    PackedLayout,
    PolyRing,
    RingError,
    _add_shifted,
    order_key,
    pack_overflow,
)

DEFAULT_SPAIR_BUDGET = 200_000


class BudgetExceeded(RuntimeError):
    """Raised when a basis run exceeds its S-pair reduction budget."""

    def __init__(self, used: int, budget: int):
        super().__init__(f"S-pair budget exceeded: {used} reductions, budget {budget}")
        self.used = used
        self.budget = budget


# a layout with the packed (lead, lead coefficient) and terms of each basis element
PackedBasis = Tuple[PackedLayout, List[Tuple[int, int]], List[IntTerms]]


def _primitive_int(d: IntTerms) -> Tuple[IntTerms, int]:
    """d divided by the gcd g of its coefficients, and g."""
    g = gcd(*d.values())
    return ({e: v // g for e, v in d.items()} if g > 1 else d), g


def _layout(ring: PolyRing, order: str) -> PackedLayout:
    """The ring's own layout under grevlex, a new one under lex; RingError
    for an unknown order."""
    return ring.layout if order == "grevlex" else PackedLayout(ring.n, order)


def _int_terms(p: MultiPoly, lay: PackedLayout) -> Tuple[IntTerms, int, int]:
    """The primitive integer terms of a nonzero p packed under `lay`, and
    the content of p = (num / den) * terms as (num, den).

    p's own packed terms are recoded from its ring's layout into `lay`,
    and taken without a copy when that layout is `lay`: a copy would
    hash every packed key again. The coefficients of p are canonical, so
    den is 1 exactly when all of them are `int`; they are then taken as
    they are, and only their `int.denominator` is read.
    """
    pk = p._pk()
    ms = lay.recode(pk, p.ring.layout)
    t = pk if ms is pk else dict(zip(ms, pk.values()))
    den = lcm(*[c.denominator for c in t.values()])
    if den != 1:
        t = {m: c.numerator * (den // c.denominator) for m, c in t.items()}
    t, g = _primitive_int(t)
    return t, g, den


def _poly(ring: PolyRing, lay: PackedLayout, terms: IntTerms, coeffs: Iterable) -> MultiPoly:
    """The polynomial of the monomials `terms`, packed under `lay`, with the
    coefficients `coeffs`, built packed under the ring's layout."""
    return MultiPoly._of_packed(ring, dict(zip(ring.layout.recode(terms, lay), coeffs)))


def _quotients(values: Iterable[int], num: int, den: int) -> List[object]:
    """Each v * num / den, exactly: an `int` where den divides it and a
    `Fraction` only where it does not; den is positive."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return [v * num for v in values]
    # num and den are coprime, so den divides v * num iff it divides v
    return [v // den * num if not v % den else Fraction(v * num, den) for v in values]


def _divide_int(
    terms: IntTerms,
    basis_lead: Sequence[Tuple[int, int]],
    basis_terms: Sequence[IntTerms],
    lay: PackedLayout,
) -> Tuple[IntTerms, int]:
    """Fraction-free full reduction; returns (result, multiplier).

    result = multiplier * (input reduced by the basis), multiplier a
    positive integer. Terms are visited leading first, from a heap of
    min-first int keys. The divisor tried for each term is the first
    basis element in list order whose leading monomial divides it.
    """
    guard, flip = lay.guard, lay.flip
    work = dict(terms)
    mult = 1
    heap = [((e & flip) << 1) - e for e in work]
    heapq.heapify(heap)
    done = set()
    steps = 0
    while heap:
        h = heapq.heappop(heap)
        e = ((h & flip) << 1) - h
        c = work.get(e)
        if not c or e in done:
            continue
        for (ge, gc), gt in zip(basis_lead, basis_terms):
            shift = e - ge
            if shift & guard:
                continue
            d = gcd(c, gc)
            a = abs(gc // d)
            b = c // d if gc > 0 else -(c // d)
            if a != 1:
                for m in work:
                    work[m] *= a
                mult *= a
            for f, fc in gt.items():
                m = f + shift
                if m & guard:
                    raise pack_overflow()
                prev = work.get(m)
                nv = (prev or 0) - b * fc
                if nv:
                    work[m] = nv
                    if prev is None and m != e:
                        heapq.heappush(heap, ((m & flip) << 1) - m)
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
    if not gens:  # the zero ideal
        return ([], 0) if want_stats else []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingError("generators live in different rings")
    lay = _layout(ring, order)
    key, guard, colon, degree = lay.key, lay.guard, lay.colon, lay.degree

    basis_terms: List[IntTerms] = []
    basis_lead: List[Tuple[int, int]] = []
    ecart: List[int] = []  # sugar minus lead degree, per element
    heap: List[Tuple[int, int, int, int]] = []  # (sugar, new, old, lcm): ties pop in creation order

    def add_int(t: IntTerms, s: int):
        t, _ = _primitive_int(t)
        lead = max(t, key=key)
        if t[lead] < 0:
            t = {e: -v for e, v in t.items()}
        h, ec = len(basis_terms), s - degree(lead)
        # Gebauer-Moller update (Becker & Weispfenning's UPDATE) on the lcms
        # of the new lead with each old one
        lcms = [lead + colon(g, lead) for g, _ in basis_lead]
        if any(m & guard for m in lcms):
            raise pack_overflow()
        # criterion B: drop an old pair whose lcm the new lead divides,
        # unless the new lead's lcm with one of its elements equals it
        kept = [p for p in heap if (p[3] - lead) & guard or lcms[p[1]] == p[3] or lcms[p[2]] == p[3]]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # criteria M and F: keep a new pair only if no other new pair's lcm
        # divides its lcm; of equal lcms this keeps a coprime pair if there
        # is one, which the coprime test then drops, and else the one with
        # the oldest element
        new_lcms: List[int] = []  # of the new pairs kept so far
        for g in reversed(range(h)):
            m = lcms[g]
            coprime = m == lead + basis_lead[g][0]
            if coprime or all((m - x) & guard for x in itertools.chain(lcms[:g], new_lcms)):
                new_lcms.append(m)
                if not coprime:
                    heapq.heappush(heap, (degree(m) + max(ec, ecart[g]), h, g, m))
        basis_terms.append(t)
        basis_lead.append((lead, t[lead]))
        ecart.append(ec)

    packed = [(_int_terms(g, lay)[0], g.total_degree()) for g in gens]
    for t, s in sorted(packed, key=lambda ts: key(max(ts[0], key=key))):
        add_int(t, s)

    used = 0
    while heap:
        pair_sugar, j, i, t = heapq.heappop(heap)
        used += 1
        if used > budget:
            raise BudgetExceeded(used, budget)
        li, ci = basis_lead[i]
        lj, cj = basis_lead[j]
        d = gcd(ci, cj)
        s: IntTerms = {}
        _add_shifted(s, basis_terms[i], t - li, cj // d, guard)
        _add_shifted(s, basis_terms[j], t - lj, -(ci // d), guard)
        if not s:
            continue
        r, _ = _divide_int(s, basis_lead, basis_terms, lay)
        if r:
            add_int(r, pair_sugar)

    reduced = _reduce_int_basis(basis_terms, basis_lead, lay, ring)
    if want_stats:
        return reduced, used
    return reduced


def _reduce_int_basis(
    basis_terms: List[IntTerms],
    basis_lead: List[Tuple[int, int]],
    lay: PackedLayout,
    ring: PolyRing,
) -> List[MultiPoly]:
    # minimalize: keep the elements with minimal leading monomials, the
    # first in list order where several share one
    first: Dict[int, int] = {}
    for i, (e, _) in enumerate(basis_lead):
        first.setdefault(e, i)
    keep = [first[e] for e in lay.minimal(first)]
    key = lay.key
    keep.sort(key=lambda i: key(basis_lead[i][0]))
    # inter-reduce tails against the other minimal elements; a tail term
    # sorts below its lead, which no other minimal lead divides, so the
    # output keeps the leads and their order
    out: List[MultiPoly] = []
    for i in keep:
        others = [k for k in keep if k != i]
        r, _ = _divide_int(
            basis_terms[i],
            [basis_lead[k] for k in others],
            [basis_terms[k] for k in others],
            lay,
        )
        lc = r[basis_lead[i][0]]
        out.append(_poly(ring, lay, r, _quotients(r.values(), 1, lc)))
    return out


class MonomialIdeal:
    """Monomial ideal held by its minimal generators (a divisibility antichain).

    The generators are `PackedLayout(nvars, "lex")` ints, minimalized by
    `PackedLayout.minimal` and kept ascending in `packed`, so their order
    is that of the exponent tuples; `gens` is the sorted tuple view. A
    monomial is packed once, and membership is a guard test against each
    generator. A monomial of the wrong length raises RingError, and so
    does a negative or non-integer entry or a degree of 2^15 or more,
    from the packing.
    """

    __slots__ = ("nvars", "layout", "packed")

    def __init__(self, nvars: int, gens: Iterable[Monomial]):
        self.nvars = nvars
        self.layout = PackedLayout(nvars, "lex")
        self.packed = tuple(self.layout.minimal(self._pack_all(list(gens))))

    def _pack_all(self, monos: Sequence[Monomial]) -> List[int]:
        if any(len(e) != self.nvars for e in monos):
            raise RingError("monomial length mismatch")
        return self.layout.pack_all(monos)

    @property
    def gens(self) -> Tuple[Monomial, ...]:
        return tuple(self.layout.unpack_all(self.packed))

    def contains(self, mono: Monomial) -> bool:
        [m] = self._pack_all([mono])
        guard = self.layout.guard
        return any(not (m - g) & guard for g in self.packed)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.nvars, self.packed))

    def __repr__(self):
        return f"MonomialIdeal({self.nvars}, {list(self.gens)})"


class Ideal:
    """Polynomial ideal with cached reduced Groebner bases per order.

    Next to each cached basis it keeps the basis packed under the order's
    layout (`PackedBasis`), built once by `_packed_basis`: normal forms
    divide by it, and the initial ideal is the ideal of its leads.
    """

    def __init__(self, ring: PolyRing, gens: Iterable[MultiPoly]):
        gens = [g for g in gens if g]
        for g in gens:
            if g.ring != ring:
                raise RingError("generator outside the ring")
        self.ring = ring
        self.gens = list(gens)
        self._gb: Dict[object, List[MultiPoly]] = {}
        self._packed: Dict[object, PackedBasis] = {}

    def groebner(self, order="grevlex") -> List[MultiPoly]:
        order_key(order)  # RingError for an unknown order, before the cache lookup
        if order not in self._gb:
            self._gb[order] = groebner_basis(self.gens, order)
        return self._gb[order]

    def set_groebner(self, order, basis: List[MultiPoly]):
        """Install a reduced basis computed elsewhere, such as by `groebner_basis`."""
        order_key(order)
        basis = list(basis)
        if any(g.ring != self.ring for g in basis):
            raise RingError("basis element outside the ring")
        self._gb[order] = basis
        self._packed.pop(order, None)

    def _packed_basis(self, order) -> PackedBasis:
        """The reduced basis of `order` packed under its layout, built on the
        first call for an order and kept."""
        order_key(order)  # RingError for an unknown order, before the cache lookup
        packed = self._packed.get(order)
        if packed is None:
            lay = _layout(self.ring, order)
            basis_lead = []
            basis_terms = []
            for g in self.groebner(order):
                gt, _, _ = _int_terms(g, lay)
                ge = max(gt, key=lay.key)
                basis_lead.append((ge, gt[ge]))
                basis_terms.append(gt)
            packed = self._packed[order] = (lay, basis_lead, basis_terms)
        return packed

    def normal_form(self, p: MultiPoly, order="grevlex") -> MultiPoly:
        """Remainder of p under full division by the reduced basis of `order`.

        Deterministic: each term is divided by the first basis element, in
        list order, whose leading monomial divides it. p is read and the
        result built on packed terms alone.
        """
        if p.ring != self.ring:
            raise RingError("polynomial outside the ring")
        lay, basis_lead, basis_terms = self._packed_basis(order)
        if not p:
            return p
        terms, num, den = _int_terms(p, lay)
        work, mult = _divide_int(terms, basis_lead, basis_terms, lay)
        return _poly(p.ring, lay, work, _quotients(work.values(), num, den * mult))

    def contains(self, p: MultiPoly, order="grevlex") -> bool:
        return not self.normal_form(p, order)

    def initial_ideal(self, order="grevlex") -> MonomialIdeal:
        lay, basis_lead, _ = self._packed_basis(order)
        return MonomialIdeal(self.ring.n, lay.unpack_all([e for e, _ in basis_lead]))

