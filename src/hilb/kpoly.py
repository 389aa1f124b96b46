"""Multigraded K-polynomials and equivariant Hilbert series.

Numerators are integer Laurent polynomials in the torus characters;
denominators stay factored, one (1 - t^w) per ambient variable. The
K-polynomial recursion runs on integer numerator tuples over one
power-of-two scale and builds Weight keys only for its result.
Identities between series, such as equality and self-reciprocity, are
decided exactly as identities between Laurent polynomials, after
clearing the factored denominators.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .groebner import DEFAULT_SPAIR_BUDGET, MonomialIdeal, minimal_monomials
from .multipoly import (
    LaurentPoly,
    Monomial,
    RingError,
    Weight,
    _mono_colon,
    _mono_weight,
    weight_columns,
)
from .partitions import Partition, partition_of_ideal


def monomial_weight(e: Monomial, weights: Sequence[Weight]) -> Weight:
    if len(e) != len(weights):
        raise RingError("weight list does not cover the variables")
    scale, columns = weight_columns(weights)
    return Weight(_mono_weight(e, columns), scale)


def kpoly_monomial(J: MonomialIdeal, weights: Sequence[Weight]) -> LaurentPoly:
    """Alternating Tor character of S/J by the colon recursion.

    K(f_1..f_m) = K(f_1..f_{m-1}) - t^{w(f_m)} K((f_1..f_{m-1}) : f_m),
    memoized on the canonical minimal generator tuples encountered.
    The weights are first put on their largest power-of-two scale, so
    the recursion adds integer numerator tuples; Weight keys are built
    once, for the result.
    """
    if len(weights) != J.nvars:
        raise RingError("weight list does not cover the variables")
    if not weights:
        raise RingError("no weights: the torus rank is unknown")
    r = weights[0].r
    scale, columns = weight_columns(weights)
    one = {(0,) * r: 1}
    unit = ((0,) * J.nvars,)
    memo: Dict[Tuple[Monomial, ...], Dict[Tuple[int, ...], int]] = {}

    def run(gens: Tuple[Monomial, ...]) -> Dict[Tuple[int, ...], int]:
        if not gens:
            return one
        if gens == unit:
            return {}
        got = memo.get(gens)
        if got is not None:
            return got
        f = gens[-1]
        rest = gens[:-1]  # a slice of a sorted antichain is one
        out = dict(run(rest))
        colon = minimal_monomials(_mono_colon(g, f) for g in rest)
        shift = _mono_weight(f, columns)
        for w, c in run(colon).items():
            w = tuple(map(add, w, shift))
            c = out.get(w, 0) - c
            if c:
                out[w] = c
            else:
                del out[w]
        memo[gens] = out
        return out

    return LaurentPoly(r, {Weight(w, scale): c for w, c in run(J.gens).items()})


def monomial_colength(J: MonomialIdeal) -> int:
    """Number of standard monomials; RingError if the quotient is infinite."""
    return partition_of_ideal(J).n


def _weight_to_json(w: Weight) -> dict:
    return {"nums": list(w.nums), "scale": w.scale}


def _weight_from_json(d: dict) -> Weight:
    return Weight(tuple(int(x) for x in d["nums"]), int(d["scale"]))


class HilbertSeries:
    """K-polynomial numerator over a product of (1 - t^w) factors."""

    __slots__ = ("numerator", "denom_weights")

    def __init__(self, numerator: LaurentPoly, denom_weights: Sequence[Weight]):
        denom = tuple(denom_weights)
        for w in denom:
            if w.is_zero():
                raise RingError("denominator weights must be nonzero")
            if w.r != numerator.r:
                raise RingError("weight rank mismatch")
        self.numerator = numerator
        self.denom_weights = tuple(sorted(denom, key=lambda w: w.sort_key()))

    @property
    def r(self) -> int:
        return self.numerator.r

    def to_json(self) -> str:
        num = [
            {"w": _weight_to_json(w), "c": c}
            for w, c in sorted(self.numerator.terms.items(), key=lambda t: t[0].sort_key())
        ]
        return json.dumps(
            {
                "schema": "hilbert-series/1",
                "rank": self.r,
                "numerator": num,
                "denom_weights": [_weight_to_json(w) for w in self.denom_weights],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "HilbertSeries":
        data = json.loads(text)
        if data.get("schema") != "hilbert-series/1":
            raise RingError(f"unsupported series schema {data.get('schema')!r}")
        r = int(data["rank"])
        terms = {_weight_from_json(t["w"]): int(t["c"]) for t in data["numerator"]}
        denom = [_weight_from_json(d) for d in data["denom_weights"]]
        return cls(LaurentPoly(r, terms), denom)

    def render(self, var: str = "t") -> str:
        mult: Dict[Weight, int] = {}
        for w in self.denom_weights:
            mult[w] = mult.get(w, 0) + 1
        factors = []
        for w in sorted(mult, key=lambda w: w.sort_key()):
            base = f"(1 - {LaurentPoly.char(w).render(var)})"
            factors.append(base if mult[w] == 1 else f"{base}^{mult[w]}")
        return f"({self.numerator.render(var)}) / " + " ".join(factors)

    __repr__ = render


def hilbert_series(
    I,
    weights: Sequence[Weight],
    order: str = "grevlex",
    budget: int = DEFAULT_SPAIR_BUDGET,
) -> HilbertSeries:
    """Series of S/I: K of the initial ideal over the ambient factors."""
    if isinstance(I, MonomialIdeal):
        J = I
    elif I.gens:
        J = I.initial_ideal(order, budget)
    else:
        J = MonomialIdeal(I.ring.n, [])
    return HilbertSeries(kpoly_monomial(J, weights), weights)


def positive_functional(weights: Sequence[Weight], radius: int = 3) -> Optional[Tuple[int, ...]]:
    """Integer direction d with <d, w> > 0 for every weight, or None.

    Exhaustive search over boxes of growing radius; the all-ones
    direction is tried first since it covers every positively graded
    case.
    """
    r = weights[0].r
    ones = (1,) * r
    if all(w.dot(ones) > 0 for w in weights):
        return ones
    for rad in range(1, radius + 1):
        for d in itertools.product(range(-rad, rad + 1), repeat=r):
            if not any(d):
                continue
            if all(w.dot(d) > 0 for w in weights):
                return d
    return None


def graded_dim_oracle(
    J: MonomialIdeal,
    weights: Sequence[Weight],
    depth: int,
    direction: Optional[Sequence[int]] = None,
) -> Optional[Dict[Weight, int]]:
    """Standard-monomial count per multidegree, up to phi-degree `depth`.

    phi is a linear functional positive on every variable weight; when
    none exists in the search box the oracle is inapplicable and None
    is returned (the math is not wrong, just unverifiable this way).
    """
    if len(weights) != J.nvars:
        raise RingError("weight list does not cover the variables")
    if direction is None:
        direction = positive_functional(weights)
        if direction is None:
            return None
    phis = [w.dot(direction) for w in weights]
    if any(p <= 0 for p in phis):
        raise RingError("direction is not positive on the variable weights")
    counts: Dict[Weight, int] = {}

    def rec(i: int, mono: Tuple[int, ...], deg: Fraction):
        if i == J.nvars:
            if not J.contains(mono):
                w = monomial_weight(mono, weights)
                counts[w] = counts.get(w, 0) + 1
            return
        k = 0
        while deg + k * phis[i] <= depth:
            rec(i + 1, mono + (k,), deg + k * phis[i])
            k += 1

    rec(0, (), Fraction(0))
    return counts


def series_box_expansion(
    h: HilbertSeries, direction: Sequence[int], depth: int
) -> Dict[Weight, int]:
    """Multigraded coefficients of the series with phi-degree <= depth."""
    acc: Dict[Weight, int] = {}
    for w, c in h.numerator.terms.items():
        if w.dot(direction) <= depth:
            acc[w] = acc.get(w, 0) + c
    for wden in h.denom_weights:
        phi = wden.dot(direction)
        if phi <= 0:
            raise RingError("direction is not positive on the variable weights")
        out: Dict[Weight, int] = {}
        for w, c in acc.items():
            cur, d = w, w.dot(direction)
            while d <= depth:
                out[cur] = out.get(cur, 0) + c
                cur = cur + wden
                d += phi
        acc = out
    return {w: c for w, c in acc.items() if c}


def _esym_points(k: int, power: int = 1):
    for S in itertools.combinations(range(6), k):
        e = [0] * 6
        for i in S:
            e[i] = power
        yield tuple(e)


def _lp6(points) -> LaurentPoly:
    terms: Dict[Weight, int] = {}
    for e in points:
        w = Weight(e)
        terms[w] = terms.get(w, 0) + 1
    return LaurentPoly(6, terms)


def schur_K_G26() -> LaurentPoly:
    """Alternating character sum of the resolution of the G(2,6) cone ring.

    Each syzygy module is a Schur functor of the 6-dimensional space;
    the pieces below are their characters written through elementary
    symmetric sums of u_0..u_5.
    """
    e4 = _lp6(_esym_points(4))
    e6 = _lp6(_esym_points(6))

    def five_sets_weighted():
        # sum over |S|=5 of (prod_{i in S} u_i) * (sum_{i in S} u_i)
        for S in itertools.combinations(range(6), 5):
            for i in S:
                e = [0] * 6
                for j in S:
                    e[j] = 1
                e[i] += 1
                yield tuple(e)

    L51 = _lp6(five_sets_weighted()) + 5 * e6

    def h2_points():
        for i in range(6):
            for j in range(i, 6):
                e = [0] * 6
                e[i] += 1
                e[j] += 1
                yield tuple(e)

    L611 = e6 * _lp6(h2_points())

    def five_squares_plus_mixed():
        yield from _esym_points(5, power=2)
        for S in itertools.combinations(range(6), 4):
            yield tuple(2 if i in S else 1 for i in range(6))

    L55 = _lp6(five_squares_plus_mixed())
    L651 = e6 * _lp6(five_sets_weighted()) + 5 * (e6 * e6)
    L662 = e6 * e6 * _lp6(_esym_points(2))
    L666 = e6 * e6 * e6
    return LaurentPoly.one(6) - e4 + L51 - L611 - L55 + L651 - L662 + L666


def _times_factors(L: LaurentPoly, weights: Iterable[Weight]) -> LaurentPoly:
    """L times the product of (1 - t^w) over `weights`."""
    for w in weights:
        L = L - L.twist(w)
    return L


def series_equal(a: HilbertSeries, b: HilbertSeries) -> bool:
    """Whether two series are the same rational function.

    The denominator factors the two share, counted with multiplicity,
    cancel; a's numerator times b's remaining factors is then compared
    with b's numerator times a's remaining factors.
    """
    if a.r != b.r:
        raise RingError("rank mismatch")
    da, db = Counter(a.denom_weights), Counter(b.denom_weights)
    return _times_factors(a.numerator, (db - da).elements()) == _times_factors(
        b.numerator, (da - db).elements()
    )


def reciprocity_check(h: HilbertSeries, lam: Partition, rng=None) -> bool:
    """Self-reciprocity of an equivariant series of a length-|lam| quotient.

    The law H(t) = (-1)^n t^(sum_{c in lam} c - n*1) H(t^-1), n = |lam|,
    becomes an identity between numerators, since 1 - t^-w equals
    -t^-w (1 - t^w):

        N(t) = (-1)^(n+m) t^(sum_{c in lam} c - n*1 + sum_i w_i) N(t^-1),

    with w_1..w_m the denominator weights. It is decided exactly, so the
    answer is the same for every `rng`; the argument is accepted for
    callers that still pass one and is otherwise unused.
    """
    n = lam.n
    shift = Weight((-n,) * lam.r)
    for cell in lam.cells:
        shift = shift + Weight(cell)
    for w in h.denom_weights:
        shift = shift + w
    sign = (-1) ** (n + len(h.denom_weights))
    mirrored = LaurentPoly(h.r, {shift - w: sign * c for w, c in h.numerator.terms.items()})
    return h.numerator == mirrored
