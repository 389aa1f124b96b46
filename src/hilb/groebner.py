"""Buchberger Groebner bases over Q, normal forms, and monomial ideals.

Buchberger with the sugar selection strategy. Pairs are pruned once, when
an element is added, by the Gebauer-Moller update (Gebauer & Moller, J.
Symb. Comp. 1988, in the form of Becker & Weispfenning's UPDATE):
criterion B on the packed lcm stored with each pair, then criteria M and
F and the coprime test by one minimalization of the new pairs' lcms
(`_new_pairs`). Every basis divides by its shortest reducers first: a
term's divisor is the element with the fewest tail terms whose lead
divides it, ties in list order. A tail reduced during the run is divided
again at the end only when a lead that arrived later divides one of its
terms. Division runs fraction-free over Z on content-stripped
polynomials, so the hot loop is pure integer arithmetic, and a result
builds a `Fraction` only for a coefficient that is not an integer. Its
dict holds the live terms only: a term that cancels leaves it, an
irreducible one moves to the result when it pops, and the loop ends when
no live term is left (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007). Terms
are dicts in the packed format of `multipoly` (`PackedLayout`,
`IntTerms`), keyed by the order's min-first heap key (`heap_key`), which
is additive and its own inverse: a product is one int add, the division
heap holds the dict's keys, a lead is the least key, and a term's
monomial is recovered once, for the guard test against the flat list of
leads. Leads, lcms, pair criteria and initial ideals stay on monomials.
A shifted term reaches the layout's limit exactly when its degree does,
so each reduction step and S-pair makes one degree test, against the
degree gap each basis element stores (nonzero only under lex).

Width rule: a basis run packs its fields in 8 bits, which hold degrees
below 2^7 and halve the length of every packed int of the run.
A degree that reaches 2^7 raises a private `RingError` subclass
(`PackedLayout.overflow`), and `groebner_basis` reruns from its inputs
in the 16-bit layout, whose choices are the same. Normal forms and
initial ideals keep 16 bits. Both orders take one path without tuples:
`_int_terms` recodes a polynomial's packed terms into the layout of the
order and width (`PackedLayout.recode`, which checks the degree when it
narrows) and keys them, and `_poly` maps a result back and builds it
packed. An exponent or degree of 2^15 or more raises RingError. The zero
ideal has the empty basis.
`Ideal.normal_form` keys the basis of each order once and keeps it, and
`Ideal.initial_ideal` reads one lead per element. A hard S-pair budget, the
module constant `SPAIR_BUDGET`, turns blowups into a structured failure
(`BudgetExceeded`) instead of an endless run.
`MonomialIdeal` holds its minimal generators as packed lex ints.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

from .multipoly import (
    _INT,
    IntTerms,
    Monomial,
    MultiPoly,
    PackedLayout,
    PolyRing,
    RingError,
    _add_shifted,
    _check_order,
    _NarrowOverflow,
)

SPAIR_BUDGET = 200_000  # the most S-pair reductions of one basis run; read at each run


class BudgetExceeded(RuntimeError):
    """Raised when a basis run exceeds its S-pair reduction budget."""

    def __init__(self, used: int, budget: int):
        super().__init__(f"S-pair budget exceeded: {used} reductions, budget {budget}")
        self.used = used
        self.budget = budget


# a basis element as a divisor: its lead's heap key, its positive lead
# coefficient, its tail keyed by heap keys, and its degree gap, the
# amount by which the tail's top degree exceeds the lead's (0 when none does)
Reducer = Tuple[int, int, IntTerms, int]
# the reducers of a basis by lead monomial: the first element of each lead
# in list order, ordered by `_shortest_first`, so the first whose lead
# divides a term is its divisor
PackedBasis = Dict[int, Reducer]


def _shortest_first(reducers: PackedBasis) -> PackedBasis:
    """The reducers ordered by tail length, fewest terms first, ties in
    their order."""
    return dict(sorted(reducers.items(), key=lambda item: len(item[1][2])))


def _new_pairs(lcms: Sequence[int], coprime: Sequence[bool], lay: PackedLayout) -> List[int]:
    """The old elements that pair with a new one under criteria M and F.

    lcms[g] is the packed lcm of the new lead with old element g's, and
    coprime[g] tells whether the two leads are coprime. Each minimal lcm
    value gets one pair, with its oldest element, and none when any
    element with that lcm has a coprime lead: the coprime test would drop
    that pair. A pair whose lcm another lcm properly divides is dropped
    by criterion M. Returned in ascending lcm order.
    """
    oldest: Dict[int, int] = {}
    for g, m in enumerate(lcms):
        oldest.setdefault(m, g)
    drop = {m for m, c in zip(lcms, coprime) if c}
    return [oldest[m] for m in lay.minimal(oldest) if m not in drop]


def _reducer(t: IntTerms, lay: PackedLayout) -> Tuple[int, Reducer]:
    """The lead monomial of the nonzero terms t, keyed by heap keys under
    `lay`, and t divided by the gcd of its coefficients as a `Reducer`.
    The lead is taken out of t, or of its quotient when the gcd is above 1."""
    g = gcd(*t.values())
    if g > 1:
        t = {k: v // g for k, v in t.items()}
    h = min(t)
    c = t.pop(h)
    if c < 0:
        t, c = {k: -v for k, v in t.items()}, -c
    lead = lay.heap_key(h)
    return lead, (h, c, t, max(lay.top_degree(t) - lay.degree(lead), 0))


def _layout(ring: PolyRing, order: str) -> PackedLayout:
    """The ring's own layout under grevlex, a new one under lex; RingError
    for an unknown order."""
    return ring.layout if order == "grevlex" else PackedLayout(ring.n, order)


def _int_terms(p: MultiPoly, lay: PackedLayout) -> Tuple[IntTerms, int, int]:
    """The primitive integer terms of a nonzero p, keyed by their heap keys
    under `lay`, and the content of p = (num / den) * terms as (num, den).

    p's own packed terms are recoded from its ring's layout into `lay`,
    which raises `lay.overflow()` for a degree of `lay.limit` or more.
    The coefficients of p are canonical, so den is 1 exactly when all of
    them are `int`, which one C-level type scan finds, as in `_canonical`;
    they are then taken as they are.
    """
    pk = p._pk()
    ms = lay.recode(pk, p.ring.layout)
    cs = list(pk.values())
    den = 1
    if not {*map(type, cs)} <= _INT:
        den = lcm(*[c.denominator for c in cs])
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*cs)
    if g > 1:
        cs = [c // g for c in cs]
    flip = lay.flip
    return {((m & flip) << 1) - m: c for m, c in zip(ms, cs)}, g, den


def _poly(ring: PolyRing, lay: PackedLayout, terms: IntTerms, coeffs: Iterable) -> MultiPoly:
    """The polynomial of the terms keyed by heap keys under `lay`, with the
    coefficients `coeffs`, built packed under the ring's layout."""
    flip = lay.flip
    ms = ring.layout.recode([((h & flip) << 1) - h for h in terms], lay)
    return MultiPoly._of_packed(ring, dict(zip(ms, coeffs)))


def _quotients(values: Iterable[int], num: int, den: int) -> List[object]:
    """Each v * num / den, exactly: an `int` where den divides it and a
    `Fraction` only where it does not; den is positive."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return [v * num for v in values]
    # num and den are coprime, so den divides v * num iff it divides v
    return [v // den * num if not v % den else Fraction(v * num, den) for v in values]


def _divide_int(work: IntTerms, basis: PackedBasis, lay: PackedLayout) -> Tuple[IntTerms, int]:
    """Fraction-free full reduction of the terms `work`, keyed by heap keys,
    which it takes over; returns (result, multiplier), keyed alike, the
    result's terms leading first.

    result = multiplier * (input reduced by the basis), multiplier a
    positive integer. The dict's keys go onto a heap, so terms are
    visited leading first, and a product term's key is the sum of two
    keys. The divisor of each term is the first reducer of the basis whose
    lead monomial divides it, found by a guard test of the term's monomial
    against each lead: the one with the fewest tail terms, ties in list
    order (`_shortest_first`). A shifted tail term reaches the layout's
    `limit` exactly when its degree does, so one degree test per step
    guards a product, and only for a reducer whose tail out-degrees its
    lead. New terms sort below the term reduced, so no step touches a
    term already popped. `work` holds the live terms only: a term that
    cancels leaves it, an irreducible one moves to the result when it
    pops, and the loop ends when `work` is empty. A key created again
    after it cancelled is pushed again, and the stale copy is skipped
    when it pops. A reducer with lead coefficient 1 needs no gcd.
    """
    guard, flip, degree, limit = lay.guard, lay.flip, lay.degree, lay.limit
    out: IntTerms = {}
    mult = 1
    heap = list(work)
    heapq.heapify(heap)
    steps = 0
    while work:
        h = heapq.heappop(heap)
        c = work.pop(h, 0)
        if not c:  # a stale key: its term cancelled
            continue
        m = ((h & flip) << 1) - h
        for ge in basis:
            if not (m - ge) & guard:
                break
        else:
            out[h] = c
            continue
        gh, gc, tail, gap = basis[ge]
        if gap and degree(m) + gap >= limit:
            raise lay.overflow()
        shift = h - gh
        if gc == 1:
            b = c
        else:
            d = gcd(c, gc)
            a = gc // d
            b = c // d
            if a != 1:
                for k in work:
                    work[k] *= a
                for k in out:
                    out[k] *= a
                mult *= a
        for f, fc in tail.items():
            k = f + shift
            prev = work.get(k)
            if prev is None:
                work[k] = -b * fc
                heapq.heappush(heap, k)
            else:
                v = prev - b * fc
                if v:
                    work[k] = v
                else:
                    del work[k]
        steps += 1
        if steps % 64 == 0 and mult.bit_length() > 64:
            g0 = mult
            for v in chain(out.values(), work.values()):
                g0 = gcd(g0, v)
                if g0 == 1:
                    break
            if g0 > 1:
                mult //= g0
                work = {k: v // g0 for k, v in work.items()}
                out = {k: v // g0 for k, v in out.items()}
    return out, mult


def groebner_basis(
    gens: Iterable[MultiPoly],
    order="grevlex",
    want_stats: bool = False,
):
    """Reduced Groebner basis of the given generators.

    Runs in the 8-bit layout of `order`, and once more from the inputs in
    its 16-bit layout when a degree reaches 2^7; both runs make the same
    choices, so the rerun changes no output. Raises BudgetExceeded when a
    run attempts more than `SPAIR_BUDGET` S-pair reductions, the module
    constant as it stands when the run starts. With want_stats=True
    returns (basis, reductions_used).
    """
    _check_order(order)  # before the zero ideal returns, so its order is checked too
    gens = [g for g in gens if g]
    if not gens:  # the zero ideal
        return ([], 0) if want_stats else []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingError("generators live in different rings")
    try:
        reduced, used = _buchberger(gens, ring, PackedLayout(ring.n, order, 8))
    except _NarrowOverflow:
        reduced, used = _buchberger(gens, ring, _layout(ring, order))
    if want_stats:
        return reduced, used
    return reduced


def _buchberger(gens: List[MultiPoly], ring: PolyRing, lay: PackedLayout) -> Tuple[List[MultiPoly], int]:
    """The reduced basis of the nonzero `gens` of `ring`, computed in the
    layout `lay`, and the S-pair reductions used; `lay.overflow()` when a
    degree reaches `lay.limit`, and BudgetExceeded past `SPAIR_BUDGET`
    reductions."""
    guard, colon, degree, limit = lay.guard, lay.colon, lay.degree, lay.limit
    budget = SPAIR_BUDGET

    basis: List[Reducer] = []
    leads: List[int] = []  # the lead monomial of each element
    reducers: PackedBasis = {}
    # per lead, the basis size when it arrived and the one its tail was
    # last fully divided by
    history: Dict[int, Tuple[int, int]] = {}
    ecart: List[int] = []  # sugar minus lead degree, per element
    heap: List[Tuple[int, int, int, int]] = []  # (sugar, new, old, lcm): ties pop in creation order

    def add_int(t: IntTerms, s: int, size: int):
        nonlocal reducers
        lead, red = _reducer(t, lay)
        h, ec = len(basis), s - degree(lead)
        # Gebauer-Moller update (Becker & Weispfenning's UPDATE) on the lcms
        # of the new lead with each old one
        lcms = [lead + colon(g, lead) for g in leads]
        if any(m & guard for m in lcms):
            raise lay.overflow()
        # criterion B: drop an old pair whose lcm the new lead divides,
        # unless the new lead's lcm with one of its elements equals it
        kept = [p for p in heap if (p[3] - lead) & guard or lcms[p[1]] == p[3] or lcms[p[2]] == p[3]]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # criteria M and F and the coprime test: one pair per minimal lcm
        coprime = [m == lead + g for m, g in zip(lcms, leads)]
        for g in _new_pairs(lcms, coprime, lay):
            m = lcms[g]
            heapq.heappush(heap, (degree(m) + max(ec, ecart[g]), h, g, m))
        basis.append(red)
        leads.append(lead)
        ecart.append(ec)
        if lead not in reducers:
            reducers[lead] = red
            reducers = _shortest_first(reducers)
            history[lead] = h, size

    packed = [(_int_terms(g, lay)[0], g.total_degree()) for g in gens]
    # ascending leads; the least heap key is the lead's. An input generator
    # is added undivided, reduced by a basis of size 0
    for t, s in sorted(packed, key=lambda ts: -min(ts[0])):
        add_int(t, s, 0)

    used = 0
    while heap:
        pair_sugar, j, i, t = heapq.heappop(heap)
        used += 1
        if used > budget:
            raise BudgetExceeded(used, budget)
        hi, ci, tail_i, gap_i = basis[i]
        hj, cj, tail_j, gap_j = basis[j]
        # the leads cancel, and a shifted tail term reaches the limit
        # exactly when its degree does
        if degree(t) + max(gap_i, gap_j) >= limit:
            raise lay.overflow()
        ht = lay.heap_key(t)
        d = gcd(ci, cj)
        s: IntTerms = {}
        _add_shifted(s, tail_i, ht - hi, cj // d, 0)
        _add_shifted(s, tail_j, ht - hj, -(ci // d), 0)
        if not s:
            continue
        r, _ = _divide_int(s, reducers, lay)
        if r:
            add_int(r, pair_sugar, len(basis))

    return _reduce_int_basis(reducers, lay, ring, history), used


def _reduce_int_basis(
    reducers: PackedBasis, lay: PackedLayout, ring: PolyRing, history: Dict[int, Tuple[int, int]]
) -> List[MultiPoly]:
    """The reduced basis of a Groebner basis given by its reducers and, per
    lead, the basis size when it arrived and the one its tail was last
    fully divided by.

    Minimalizes to the elements with minimal leads, the first in list
    order where several share one, then reduces their tails in ascending
    lead order, each by the already reduced smaller elements only: a tail
    term sorts below its lead, and a lead that divides a monomial sorts
    at or below it, so no larger lead divides a tail term. A remainder is
    reduced by every lead present when it was divided, so a tail is
    divided only when a smaller minimal lead that arrived later divides
    one of its terms, and is otherwise taken as it is. The output keeps
    the leads, ascending.
    """
    guard, flip = lay.guard, lay.flip
    # the reduced elements in ascending lead order, put in `_shortest_first`
    # order only when a division is to read them
    done: PackedBasis = {}
    ordered = True
    out: List[MultiPoly] = []
    for lead in sorted(lay.minimal(reducers), key=lay.heap_key, reverse=True):
        red = h, c, tail, _ = reducers[lead]
        later = [g for g in done if history[g][0] >= history[lead][1]]
        monos = [((k & flip) << 1) - k for k in tail] if later else ()
        if any(not (m - g) & guard for g in later for m in monos):
            if not ordered:
                done, ordered = _shortest_first(done), True
            tail, mult = _divide_int(dict(tail), done, lay)
            c *= mult
            red = _reducer({h: c, **tail}, lay)[1]
        t = {h: c, **tail}
        out.append(_poly(ring, lay, t, _quotients(t.values(), 1, c)))
        done[lead] = red
        ordered = False
    return out


class MonomialIdeal:
    """Monomial ideal held by its minimal generators (a divisibility antichain).

    The generators are `PackedLayout(nvars, "lex")` ints, kept ascending
    in `packed`, so their order is that of the exponent tuples; `gens` is
    the sorted tuple view. The constructor and `_of_packed` (for leads of
    a basis) minimalize what they are given by `PackedLayout.minimal`;
    `_of_antichain` takes an ascending antichain as it is, which is how
    `partitions.ideal_of_partition` builds I_λ. A monomial is packed
    once, and membership is a guard test against each generator. A
    monomial of the wrong length, a negative, bool or non-integer entry or
    a degree of 2^15 or more raises RingError, from the packing
    (`PackedLayout.pack_all`).
    """

    __slots__ = ("nvars", "layout", "packed")

    def __init__(self, nvars: int, gens: Iterable[Monomial]):
        self.nvars = nvars
        self.layout = PackedLayout(nvars, "lex")
        self.packed = tuple(self.layout.minimal(self.layout.pack_all(list(gens))))

    @classmethod
    def _of_antichain(cls, nvars: int, layout: PackedLayout, packed: Iterable[int]) -> "MonomialIdeal":
        """The ideal whose minimal generators are `packed`, ascending ints of
        `layout`, the lex layout of nvars variables; neither is checked."""
        self = cls.__new__(cls)
        self.nvars = nvars
        self.layout = layout
        self.packed = tuple(packed)
        return self

    @classmethod
    def _of_packed(cls, nvars: int, ms: Collection[int], source: PackedLayout) -> "MonomialIdeal":
        """The ideal of the monomials `ms` packed under `source`, a layout of
        nvars variables, recoded into the lex layout without tuples (as
        they are, under lex)."""
        layout = PackedLayout(nvars, "lex")
        return cls._of_antichain(nvars, layout, layout.minimal(layout.recode(ms, source)))

    @property
    def gens(self) -> Tuple[Monomial, ...]:
        return tuple(self.layout.unpack_all(self.packed))

    def contains(self, mono: Monomial) -> bool:
        [m] = self.layout.pack_all([mono])
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

    Next to each cached basis it keeps the basis as the reducers of the
    order's layout (`PackedBasis`), built once by `_packed_basis` for
    normal forms to divide by. The initial ideal needs no reducers: it
    reads one lead from the packed terms of each basis element.
    """

    def __init__(self, ring: PolyRing, gens: Iterable[MultiPoly]):
        gens = [g for g in gens if g]
        for g in gens:
            if g.ring != ring:
                raise RingError("generator outside the ring")
        self.ring = ring
        self.gens = list(gens)
        self._gb: Dict[object, List[MultiPoly]] = {}
        self._packed: Dict[object, Tuple[PackedLayout, PackedBasis]] = {}

    def groebner(self, order="grevlex") -> List[MultiPoly]:
        _check_order(order)  # before the cache lookup, which would hash it
        if order not in self._gb:
            self._gb[order] = groebner_basis(self.gens, order)
        return self._gb[order]

    def set_groebner(self, order, basis: List[MultiPoly]):
        """Install a reduced basis computed elsewhere, such as by `groebner_basis`."""
        _check_order(order)  # before it keys the caches
        basis = list(basis)
        if any(g.ring != self.ring for g in basis):
            raise RingError("basis element outside the ring")
        self._gb[order] = basis
        self._packed.pop(order, None)

    def _packed_basis(self, order) -> Tuple[PackedLayout, PackedBasis]:
        """The reduced basis of `order` as reducers under its layout, built on
        the first call for an order and kept."""
        _check_order(order)  # before the cache lookup, which would hash it
        packed = self._packed.get(order)
        if packed is None:
            lay = _layout(self.ring, order)
            reducers: PackedBasis = {}
            for g in self.groebner(order):
                lead, red = _reducer(_int_terms(g, lay)[0], lay)
                reducers.setdefault(lead, red)
            packed = self._packed[order] = (lay, _shortest_first(reducers))
        return packed

    def normal_form(self, p: MultiPoly, order="grevlex") -> MultiPoly:
        """Remainder of p under full division by the reduced basis of `order`.

        Deterministic: each term is divided by the basis element with the
        fewest tail terms whose leading monomial divides it, ties in list
        order. p is read and the result built on packed terms alone.
        """
        if p.ring != self.ring:
            raise RingError("polynomial outside the ring")
        lay, reducers = self._packed_basis(order)
        if not p:
            return p
        terms, num, den = _int_terms(p, lay)
        work, mult = _divide_int(terms, reducers, lay)
        return _poly(p.ring, lay, work, _quotients(work.values(), num, den * mult))

    def initial_ideal(self, order="grevlex") -> MonomialIdeal:
        """The ideal of the leads of the reduced basis of `order`: the lead of
        each element is read from its packed terms, recoded into the
        order's layout, and the leads are recoded into the lex layout of
        `MonomialIdeal`, which under lex keeps them as they are."""
        lay = _layout(self.ring, order)
        source, key = self.ring.layout, lay.heap_key
        leads = [min(lay.recode(g._pk(), source), key=key) for g in self.groebner(order)]
        return MonomialIdeal._of_packed(self.ring.n, leads, lay)
