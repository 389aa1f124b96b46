"""Sparse multivariate polynomials over Q and integer Laurent polynomials.

Monomials are plain exponent tuples, one entry per ring variable, and
coefficients are Fractions. Each operation on monomials (product,
quotient, lcm, colon, divisibility, torus weight) has one definition,
among the `_mono_*` functions below, which every module calls. The
monomial orders are lex and grevlex. Laurent exponents live on a scaled
lattice (1/D)Z^r with D a power of two, so half-integer weights are
exact integer data.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from operator import add, le, mul, neg, sub
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

Monomial = Tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class RingError(ValueError):
    pass


class PolyRing:
    """A polynomial ring context: ordered variable names over Q."""

    __slots__ = ("names", "n")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        self.names = names
        self.n = len(names)

    @classmethod
    def make(cls, prefix: str, n: int) -> "PolyRing":
        def nm(i):
            return f"{prefix}_{i}" if i < 10 else f"{prefix}_{{{i}}}"

        return cls(tuple(nm(i + 1) for i in range(n)))

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({list(self.names)})"

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def const(self, c) -> "MultiPoly":
        return MultiPoly(self, {(0,) * self.n: Fraction(c)})

    def var(self, i: int) -> "MultiPoly":
        e = [0] * self.n
        e[i] = 1
        return MultiPoly(self, {tuple(e): ONE})

    def gens(self) -> Tuple["MultiPoly", ...]:
        return tuple(self.var(i) for i in range(self.n))

    def monomial(self, exps: Sequence[int], coeff=1) -> "MultiPoly":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.n:
            raise RingError("exponent length mismatch")
        return MultiPoly(self, {exps: Fraction(coeff)})


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _mono_quot(a: Monomial, b: Monomial) -> Monomial:
    """a / b, for b dividing a."""
    return tuple(map(sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    # a comprehension: map(max, ...) is twice as slow
    return tuple([x if x > y else y for x, y in zip(a, b)])


def _mono_colon(a: Monomial, b: Monomial) -> Monomial:
    """The generator of (a) : b, that is lcm(a, b) / b."""
    return tuple([x - y if x > y else 0 for x, y in zip(a, b)])


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_weight(e: Monomial, columns: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """Integer weight of e; columns[i] holds the i-th numerator of every variable's weight."""
    ks = tuple(compress(e, e))  # skips the zero exponents of a sparse monomial
    return tuple([sum(map(mul, ks, compress(col, e))) for col in columns])


def _mul_terms(a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction]) -> Dict[Monomial, Fraction]:
    """Product of two term dicts, as one new term dict."""
    out: Dict[Monomial, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _mono_mul(e1, e2)
            nc = out.get(e)
            if nc is None:
                out[e] = c1 * c2
            else:
                nc += c1 * c2
                if nc:
                    out[e] = nc
                else:
                    del out[e]
    return out


def grevlex_key(e: Monomial):
    return (sum(e), tuple(map(neg, e[::-1])))


def lex_key(e: Monomial):
    return e


def _grevlex_heap_key(e: Monomial):
    return (-sum(e), e[::-1])


def _lex_heap_key(e: Monomial):
    return tuple(map(neg, e))


def order_key(order: str) -> Callable[[Monomial], object]:
    """Sort key whose max is the leading monomial; "lex" and "grevlex" are the orders."""
    if order == "lex":
        return lex_key
    if order == "grevlex":
        return grevlex_key
    raise RingError(f"unknown monomial order {order!r}")


def heap_key(order: str) -> Callable[[Monomial], object]:
    """Sort key whose min is the leading monomial, for heapq's min-heaps."""
    if order == "lex":
        return _lex_heap_key
    if order == "grevlex":
        return _grevlex_heap_key
    raise RingError(f"unknown monomial order {order!r}")


def monomial_order_cmp(order: str, a: Monomial, b: Monomial) -> int:
    """-1, 0, or 1 as a is below, equal to, or above b in the order."""
    if len(a) != len(b):
        raise RingError("monomial length mismatch")
    key = order_key(order)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def _render_terms(terms: Iterable[Tuple[object, str]]) -> str:
    """Join (coefficient, monomial text) pairs as "a + b - c"; "0" when there are none."""
    out = ""
    for c, mono in terms:
        if not mono:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c} {mono}"
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out or "0"


class MultiPoly:
    """Polynomial as a map from exponent tuples to nonzero Fractions."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingError("ring context mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, MultiPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, ZERO) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return self.ring.zero()
            return MultiPoly(self.ring, {e: c * c0 for e, c in self.terms.items()})
        self._check(other)
        return MultiPoly(self.ring, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise RingError("only nonnegative integer powers")
        result = self.ring.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self, order: str = "grevlex"):
        key = order_key(order)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading(self, order: str = "grevlex") -> Tuple[Monomial, Fraction]:
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        key = order_key(order)
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def derivative(self, i: int) -> "MultiPoly":
        out: Dict[Monomial, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return MultiPoly(self.ring, out)

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for the zero poly."""
        if not self.terms:
            return ZERO
        from math import gcd

        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def substitute(self, images: Mapping[int, "MultiPoly"] | Sequence["MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending variable i to images[i]."""
        if not isinstance(images, Mapping):
            images = {i: p for i, p in enumerate(images)}
        if len(images) != self.ring.n:
            raise RingError("every variable needs an image")
        target = None
        for p in images.values():
            if target is None:
                target = p.ring
            elif p.ring != target:
                raise RingError("images live in different rings")
        assert target is not None
        zero = (0,) * target.n
        powers: Dict[int, list] = {i: [{zero: ONE}] for i in images}
        out: Dict[Monomial, Fraction] = {}
        for e, c in self.terms.items():
            # a factor with one term scales and shifts every monomial of the
            # product alike, so it is applied after the multi-term factors
            term, shift = None, zero
            for i, k in enumerate(e):
                if not k:
                    continue
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(_mul_terms(pw[-1], images[i].terms))
                if len(pw[k]) == 1:
                    (m, d), = pw[k].items()
                    shift = _mono_mul(shift, m)
                    c = c * d
                else:
                    term = pw[k] if term is None else _mul_terms(term, pw[k])
            for m, tc in (term if term is not None else {zero: ONE}).items():
                m = _mono_mul(m, shift)
                nc = out.get(m)
                if nc is None:
                    out[m] = tc * c
                else:
                    nc += tc * c
                    if nc:
                        out[m] = nc
                    else:
                        del out[m]
        return MultiPoly(target, out)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.ring.n:
            raise RingError("value vector length mismatch")
        vals = [Fraction(v) for v in values]
        total = ZERO
        for e, c in self.terms.items():
            acc = c
            for v, k in zip(vals, e):
                if k:
                    acc *= v ** k
            total += acc
        return total

    def render(self, order: str = "grevlex") -> str:
        def mono(e: Monomial) -> str:
            return " ".join(
                name if k == 1 else f"{name}^{k}" if k < 10 else f"{name}^{{{k}}}"
                for name, k in zip(self.ring.names, e)
                if k
            )

        return _render_terms((c, mono(e)) for e, c in self.sorted_terms(order))

    __repr__ = render

    def to_json(self) -> str:
        terms = [
            {"exp": list(e), "coeff": f"{c.numerator}/{c.denominator}"}
            for e, c in self.sorted_terms("grevlex")
        ]
        return json.dumps({"vars": list(self.ring.names), "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "MultiPoly":
        data = json.loads(text)
        ring = PolyRing(data["vars"])
        terms = {}
        for t in data["terms"]:
            e = tuple(int(x) for x in t["exp"])
            terms[e] = Fraction(t["coeff"])
        return cls(ring, terms)


def poly_from_terms(ring: PolyRing, pairs: Iterable[Tuple[Sequence[int], object]]) -> MultiPoly:
    terms: Dict[Monomial, Fraction] = {}
    for exps, c in pairs:
        e = tuple(int(x) for x in exps)
        terms[e] = terms.get(e, ZERO) + Fraction(c)
    return MultiPoly(ring, terms)


class Weight:
    """Vector in (1/D)Z^r: integer numerators over a power-of-two scale."""

    __slots__ = ("nums", "scale")

    def __init__(self, nums: Sequence[int], scale: int = 1):
        nums = tuple(int(x) for x in nums)
        if scale < 1 or scale & (scale - 1):
            raise RingError("scale must be a power of two")
        while scale > 1 and all(x % 2 == 0 for x in nums):
            nums = tuple(x // 2 for x in nums)
            scale //= 2
        self.nums = nums
        self.scale = scale

    @classmethod
    def of(cls, *nums: int) -> "Weight":
        return cls(nums, 1)

    @classmethod
    def halves(cls, *nums: int) -> "Weight":
        return cls(nums, 2)

    @property
    def r(self) -> int:
        return len(self.nums)

    def _align(self, other: "Weight") -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        if self.r != other.r:
            raise RingError("weight rank mismatch")
        scale = max(self.scale, other.scale)
        a = tuple(x * (scale // self.scale) for x in self.nums)
        b = tuple(x * (scale // other.scale) for x in other.nums)
        return scale, a, b

    def __add__(self, other):
        scale, a, b = self._align(other)
        return Weight(tuple(map(add, a, b)), scale)

    def __sub__(self, other):
        scale, a, b = self._align(other)
        return Weight(tuple(map(sub, a, b)), scale)

    def __mul__(self, k: int):
        return Weight(tuple(k * x for x in self.nums), self.scale)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.nums)

    def dot(self, direction: Sequence[int]) -> Fraction:
        return Fraction(sum(a * x for a, x in zip(direction, self.nums)), self.scale)

    def as_fractions(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.scale) for x in self.nums)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.nums == other.nums and self.scale == other.scale

    def __hash__(self):
        return hash((self.nums, self.scale))

    def sort_key(self):
        return tuple(Fraction(x, self.scale) for x in self.nums)

    def __repr__(self):
        if self.scale == 1:
            return f"Weight{self.nums}"
        return f"Weight({self.nums}, scale={self.scale})"


def weight_columns(weights: Sequence[Weight]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """The weights on their largest scale, as (scale, columns) for `_mono_weight`."""
    if len({w.r for w in weights}) > 1:
        raise RingError("weight rank mismatch")
    scale = max((w.scale for w in weights), default=1)
    return scale, tuple(zip(*(tuple(x * (scale // w.scale) for x in w.nums) for w in weights)))


class LaurentPoly:
    """Integer combination of torus characters t^w on a scaled lattice."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Mapping[Weight, int] | None = None):
        self.r = r
        out: Dict[Weight, int] = {}
        for w, c in (terms or {}).items():
            if w.r != r:
                raise RingError("weight rank mismatch")
            if c:
                out[w] = int(c)
        self.terms = out

    @classmethod
    def zero(cls, r: int) -> "LaurentPoly":
        return cls(r, {})

    @classmethod
    def one(cls, r: int) -> "LaurentPoly":
        return cls(r, {Weight((0,) * r): 1})

    @classmethod
    def char(cls, w: Weight, coeff: int = 1) -> "LaurentPoly":
        return cls(w.r, {w: coeff})

    def _check(self, other):
        if self.r != other.r:
            raise RingError("rank mismatch")

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(self.r, {Weight((0,) * self.r): other})
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            nc = out.get(w, 0) + c
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
        return LaurentPoly(self.r, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.r, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(self.r, {Weight((0,) * self.r): other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.r)
            return LaurentPoly(self.r, {w: c * other for w, c in self.terms.items()})
        self._check(other)
        out: Dict[Weight, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                nc = out.get(w, 0) + c1 * c2
                if nc:
                    out[w] = nc
                else:
                    out.pop(w, None)
        return LaurentPoly(self.r, out)

    __rmul__ = __mul__

    def twist(self, w: Weight) -> "LaurentPoly":
        """Multiply by the character t^w."""
        return LaurentPoly(self.r, {wt + w: c for wt, c in self.terms.items()})

    def render(self, var: str = "t") -> str:
        def mono(w: Weight) -> str:
            factors = []
            for i, x in enumerate(w.nums):
                if not x:
                    continue
                exp = Fraction(x, w.scale)
                if exp == 1:
                    factors.append(f"{var}_{i + 1}")
                elif exp.denominator == 1 and 0 < exp < 10:
                    factors.append(f"{var}_{i + 1}^{exp}")
                else:
                    factors.append(f"{var}_{i + 1}^{{{exp}}}")
            return " ".join(factors)

        terms = sorted(self.terms.items(), key=lambda t: (-sum(t[0].sort_key()), t[0].sort_key()))
        return _render_terms((c, mono(w)) for w, c in terms)

    __repr__ = render
