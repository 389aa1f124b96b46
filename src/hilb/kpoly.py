"""Multigraded K-polynomials and equivariant Hilbert series.

Numerators are integer Laurent polynomials in the torus characters;
denominators stay factored, one (1 - t^w) per ambient variable. The
series of a monomial ideal is its K-polynomial (`kpoly_monomial`) over
those factors, and `hilbert_series` takes a polynomial `Ideal` to the
K-polynomial of its initial ideal. `kpoly_monomial` recurses on minimal
generator tuples by one exact-sequence step, K(J) = K(A) + s t^{w(m)}
K(B : m), with two instances: a short tuple drops its last generator
(the colon step), a long one splits on its most frequent variable
(Bigatti's pivot). Numerators stay in the packed form of `LaurentPoly`
from that recursion to the checks: the recursion adds packed weights to
Laurent keys and hands its memo entry over as the result, twists and
reflections in `series_equal` and `reciprocity_check` are one int
operation per term, and `Weight` objects are read as input and built
only when a caller reads `LaurentPoly.terms`. Identities between series,
such as equality and self-reciprocity, are decided exactly as identities
between Laurent polynomials, after clearing the factored denominators.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import mul
from typing import Dict, Iterable, Sequence, Tuple

from .groebner import Ideal, MonomialIdeal
from .multipoly import LaurentPoly, RingError, Weight, _add_shifted, _character, packed_weights
from .partitions import Partition

PIVOT_AT = 12  # the most generators that take the colon step; see `kpoly_monomial`


def kpoly_monomial(J: MonomialIdeal, weights: Sequence[Weight]) -> LaurentPoly:
    """Alternating Tor character of S/J by a memoized recursion on the
    canonical minimal generator tuples encountered.

    Each step is one short exact sequence for a monomial m,

        K(J) = K(A) + s t^{w(m)} K(B : m),

    with B : m minimalized from the colons lcm(g, m) / m, g in B, and
    either J = A + (m), B = A and s = -1, or A = J + (m), B = J and
    s = +1. Its two instances differ only in the choice of (m, A, B, s):

    - the colon step: m = f_k, the last of the generators f_1..f_k,
      A = B = (f_1..f_{k-1}) and s = -1, from
      0 -> S/(A : f_k)(-w(f_k)) -> S/A -> S/J -> 0;
    - the pivot step (A. M. Bigatti, "Computation of Hilbert-Poincare
      series", J. Pure Appl. Algebra 119, 1997): m = x^e, A = J + (x^e),
      B = J and s = +1, from 0 -> S/(J : x^e)(-e w(x)) -> S/J ->
      S/(J + x^e) -> 0.

    A tuple of at most `PIVOT_AT` generators takes the colon step. A
    longer one takes the pivot step on the variable x that divides the
    most generators, the first on a tie, when it divides at least two,
    with e the least positive exponent of x in a generator; otherwise it
    too takes the colon step. J + (x^e) is the generators that x does not
    divide plus x^e, already an antichain, and J : x^e takes x out of
    every generator of exponent e. So each step lowers the generator
    count or the number of (generator, variable) pairs of the support,
    and the recursion is at most about generators times variables deep; a
    pivot on x^1 would recurse once per unit of exponent. The colon step
    peels one generator per call, so a long tuple meets many colon ideals
    of nearly its own size, while a pivot halves the problem by a
    variable. On short tuples the colon step is the cheaper one.
    In-process on one pass of the benchmark's inputs, pivoting at every
    size made the census K-polynomials, of at most 10 generators, ~1.5x
    slower, and on the groebner initial ideals (up to 125 generators)
    thresholds 8 and 12 were the fastest and 16 and 20 slower; 12 is the
    larger, and keeps every census ideal on the colon step.

    Generators are the ascending `J.packed` ints of `J.layout`, whose
    order is that of the exponent tuples, so nothing is packed here; a
    colon is `PackedLayout.colon`, a minimalization
    `PackedLayout.minimal`, and the pivot variable is read from
    `PackedLayout.support_counts`. The numerator is a dict of
    `LaurentPoly` keys on the weights' largest scale, in fields that
    `packed_weights` makes wide enough for the weight of every monomial
    of degree at most the sum of the generator degrees. That sum bounds
    the degree of the lcm of the generators, and under both steps every
    numerator weight is the weight of a divisor of it: m times a divisor
    of the lcm of B : m divides the lcm, and so does the lcm of A. So no
    field leaves its range, and the one merge adds the packed weight of
    m to each key with no guard test. The dict of the whole ideal is the
    result, with no decoding. The unit ideal needs no special case: its
    one generator 1 gives K = 1 - t^0 = 0.
    """
    if len(weights) != J.nvars:
        raise RingError("weight list does not cover the variables")
    if not weights:
        raise RingError("no weights: the torus rank is unknown")
    r = weights[0].r
    lay = J.layout
    scale, bits, zero, var_weights = packed_weights(weights, sum(map(lay.degree, J.packed)))
    colon, minimal, unpack = lay.colon, lay.minimal, lay.unpack
    one = {zero: 1}
    memo: Dict[Tuple[int, ...], Dict[int, int]] = {}

    def run(gens: Tuple[int, ...]) -> Dict[int, int]:
        if not gens:
            return one
        got = memo.get(gens)
        if got is not None:
            return got
        if len(gens) > PIVOT_AT and (most := max(counts := lay.support_counts(gens))) > 1:
            unit, mask, fshift = lay.field(counts.index(most))
            m = (min([g & mask for g in gens if g & mask]) >> fshift) * unit
            A, B, s = tuple(sorted([g for g in gens if not g & mask] + [m])), gens, 1
        else:
            m, s = gens[-1], -1
            A = B = gens[:-1]  # a slice of a sorted antichain is one
        out = dict(run(A))
        shift = sum(map(mul, unpack(m), var_weights))
        _add_shifted(out, run(tuple(minimal([colon(g, m) for g in B]))), shift, s, 0)
        memo[gens] = out
        return out

    numerator = run(J.packed)
    del run  # run refers to itself through its cell; free it and memo without the cyclic GC
    return LaurentPoly._of(r, scale, bits, numerator)


class HilbertSeries:
    """K-polynomial numerator over a product of (1 - t^w) factors."""

    __slots__ = ("numerator", "denom_weights")

    def __init__(self, numerator: LaurentPoly, denom_weights: Sequence[Weight]):
        denom = tuple(denom_weights)
        for w in denom:
            if not any(w.nums):
                raise RingError("denominator weights must be nonzero")
            if w.r != numerator.r:
                raise RingError("weight rank mismatch")
        # the numerators on the largest scale sort as the weights do
        scale = max([w.scale for w in denom], default=1)
        self.numerator = numerator
        self.denom_weights = tuple(sorted(denom, key=lambda w: [x * (scale // w.scale) for x in w.nums]))

    @property
    def r(self) -> int:
        return self.numerator.r

    def render(self) -> str:
        """The text (N) / (1 - t^w)^k ..., with one factor per distinct
        weight in the order of `denom_weights`, each written as
        `LaurentPoly.render` writes a character; (N) alone when there is
        no factor."""
        mult: Dict[Weight, int] = {}
        for w in self.denom_weights:
            mult[w] = mult.get(w, 0) + 1
        factors = []
        for w, k in mult.items():  # sorted, as `denom_weights` is
            base = f"(1 - {_character(w.nums, w.scale)})"
            factors.append(base if k == 1 else f"{base}^{k}")
        text = f"({self.numerator.render()})"
        return f"{text} / {' '.join(factors)}" if factors else text

    __repr__ = render


def hilbert_series(I: Ideal, weights: Sequence[Weight], order: str = "grevlex") -> HilbertSeries:
    """Series of S/I: K of the initial ideal under `order` over one factor
    (1 - t^w) per ambient variable.

    For a monomial ideal J the series is
    `HilbertSeries(kpoly_monomial(J, weights), weights)`.
    """
    return HilbertSeries(kpoly_monomial(I.initial_ideal(order), weights), weights)


def _esym_points(k: int, power: int = 1):
    for S in itertools.combinations(range(6), k):
        e = [0] * 6
        for i in S:
            e[i] = power
        yield tuple(e)


def _lp6(points) -> LaurentPoly:
    return LaurentPoly._of_nums(6, 1, Counter(points).items())


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

    with w_1..w_m the denominator weights. The shift is summed as an int
    vector on the largest scale, and the right side is one reflection of
    N's keys. It is decided exactly, so the answer is the same for every
    `rng`; the argument is accepted for callers that still pass one and
    is otherwise unused.
    """
    if lam.r != h.r:
        raise RingError("rank mismatch")
    n, N = lam.n, h.numerator
    scale = max([N.scale, *(w.scale for w in h.denom_weights)])
    shift = [scale * (sum(col) - n) for col in zip(*lam.cells)] if lam.cells else [0] * lam.r
    for w in h.denom_weights:
        m = scale // w.scale
        shift = [s + x * m for s, x in zip(shift, w.nums)]
    return N == N._reflected(shift, scale, (-1) ** (n + len(h.denom_weights)))
