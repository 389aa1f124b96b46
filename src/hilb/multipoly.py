"""Sparse multivariate polynomials over Q and integer Laurent polynomials.

A `MultiPoly` has one working form, packed monomials: each `PolyRing`
owns one grevlex `PackedLayout`, and every method of a polynomial, from
`==` and the total degree to substitution, division and elimination,
reads the terms packed under it. Exponent tuples, one entry per ring
variable, are only input and view: a polynomial built from tuples is
packed, and so checked, on its first use, whatever the use, and one
built packed unpacks only when its `terms` are read. Coefficients are
exact rationals of one canonical type, decided by `_canonical` alone, which
both `MultiPoly` constructors call: an integer is an `int` whatever type
it arrives with, any other rational is a `Fraction` (whose denominator
is then above 1), a float is read as its exact `Fraction`, and a value
that is not a rational number raises RingError. So arithmetic on integer
data runs on ints. The two types compare and hash alike (`hash(2) ==
hash(Fraction(2))`), so equality and term sets do not see the type. The
cells of a partition are exponent tuples too; the tuple operations that
they and the Haiman variables need (quotient, shift) are the `_mono_*`
functions below. The monomial orders are lex and grevlex. Laurent
exponents live on a scaled lattice (1/D)Z^r with D a power of two, so
half-integer weights are exact integer data: a weight's numerators and
scale and a Laurent coefficient are integers, and anything else raises
RingError rather than being truncated. Monomial entries and variable
indices from outside go through `exponents`, `_var_index` or
`PackedLayout`, which raise RingError for a non-integer entry instead of
truncating it.

The packed term format is also what division and Buchberger
(`groebner`), monomial ideals (`groebner.MonomialIdeal`) and their
K-polynomial recursion (`kpoly`) and linear elimination
(`localeq.simple_eliminate`) work on: a `PackedLayout` stores an
exponent vector and its total degree as one int of 16-bit fields whose
top bits are guards (Bachmann & Schoenemann, "Monomial representations
for Groebner bases computations", ISSAC 1998), and `IntTerms` maps
packed monomials to coefficients. Product is `+`, quotient is `-`,
divisibility is one subtraction and a mask test, a colon or an lcm is a
few int operations (`PackedLayout.colon`), and the order compares one
int key. Every packed sum of shifted terms (sums, products,
S-polynomials, elimination and substitution) is one call of
`_add_shifted`, which raises RingError for a monomial of degree 2^15 or
more. Tuples and packed ints are converted by one `struct.Struct` per
layout, a whole polynomial in one pass of `PackedLayout.pack_all` or
`PackedLayout.unpack_all`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import add, index, neg, sub
from struct import Struct
from struct import error as StructError
from typing import Callable, Collection, Dict, Iterable, List, Mapping, Sequence, Tuple

Monomial = Tuple[int, ...]


class RingError(ValueError):
    pass


class PolyRing:
    """A polynomial ring context: ordered variable names over Q."""

    __slots__ = ("names", "n", "layout")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        self.names = names
        self.n = len(names)
        self.layout = PackedLayout(self.n, "grevlex")  # of every `MultiPoly._packed` here

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({list(self.names)})"

    def zero(self) -> "MultiPoly":
        return MultiPoly._of_packed(self, {})

    def const(self, c) -> "MultiPoly":
        return MultiPoly._of_packed(self, {0: c})

    def var(self, i: int) -> "MultiPoly":
        return MultiPoly._of_packed(self, {self.layout.field(_var_index(i, self.n))[0]: 1})

    def gens(self) -> Tuple["MultiPoly", ...]:
        return tuple(self.var(i) for i in range(self.n))

    def monomial(self, exps: Sequence[int], coeff=1) -> "MultiPoly":
        exps = exponents(exps)
        if len(exps) != self.n:
            raise RingError("exponent length mismatch")
        return MultiPoly(self, {exps: coeff})


def exponents(entries: Iterable[int]) -> Monomial:
    """The entries as a tuple of ints; RingError for a non-integer entry,
    which `int` would truncate."""
    try:
        return tuple(map(index, entries))
    except TypeError:
        raise RingError(f"exponents must be integers: {entries!r}") from None


def _integer(k, what: str) -> int:
    """k through `operator.index`; RingError, saying `what`, for a bool or
    a non-integer."""
    try:
        if isinstance(k, bool):  # `index` would read True as 1
            raise TypeError
        return index(k)
    except TypeError:
        raise RingError(f"{what}: {k!r}") from None


def _var_index(i, n: int) -> int:
    """i as the index of one of n variables; RingError for a bool, a
    non-integer or an index out of range, which a list index would wrap."""
    i = _integer(i, "a variable index is an integer")
    if not 0 <= i < n:
        raise RingError(f"no variable {i} among {n}")
    return i


def _coefficient(c):
    """The canonical coefficient of a value c, for `_canonical` and the
    scalar operators of `MultiPoly`: an `int` when c is an integer and a
    `Fraction` otherwise. A float is read exactly; RingError for a value
    that is not a rational number."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        try:
            if isinstance(c, str):  # `Fraction` would parse it
                raise TypeError
            c = Fraction(c)
        except (TypeError, ValueError, OverflowError):
            raise RingError(f"a coefficient is a rational number: {c!r}") from None
    return c.numerator if c.denominator == 1 else c


_INT = {int}


def _canonical(terms: dict) -> dict:
    """The terms with each coefficient read by `_coefficient` and the zero
    ones dropped: terms itself when every coefficient is a nonzero `int`,
    which two C-level scans find, and otherwise a new dict."""
    values = terms.values()
    if {*map(type, values)} <= _INT and 0 not in values:
        return terms
    return {e: v for e, c in terms.items() if (v := _coefficient(c))}


def _mono_quot(a: Monomial, b: Monomial) -> Monomial:
    """a - b entrywise: the quotient a / b when b divides a, and otherwise
    a difference of cells, such as the torus weight j - i of c_i^j."""
    return tuple(map(sub, a, b))


def _mono_shift(e: Monomial, i: int, delta: int = 1) -> Monomial:
    """e + delta * e_i, for a monomial or a cell alike."""
    return e[:i] + (e[i] + delta,) + e[i + 1 :]


def grevlex_key(e: Monomial):
    return (sum(e), tuple(map(neg, e[::-1])))


def lex_key(e: Monomial):
    return e


def order_key(order: str) -> Callable[[Monomial], object]:
    """Sort key whose max is the leading monomial; "lex" and "grevlex" are the orders."""
    if order == "lex":
        return lex_key
    if order == "grevlex":
        return grevlex_key
    raise RingError(f"unknown monomial order {order!r}")


PACK_LIMIT = 1 << 15  # every exponent and every total degree stays below this


def pack_overflow() -> RingError:
    return RingError(f"an exponent or degree reaches {PACK_LIMIT}, the packed field limit")


class PackedLayout:
    """Monomials of one (nvars, order) pair packed into ints.

    Each exponent and the total degree get one 16-bit field whose top
    bit is a guard, clear in every valid monomial. Under grevlex,
    variable i sits in field i and the degree field is on top; under lex,
    variable 0 is the most significant field and the degree field is at
    the bottom. Product is `+` and quotient is `-`; a divides b iff
    `(b - a) & guard == 0`, because a field that goes negative borrows
    and sets its guard. A product sets a guard iff its degree reaches
    PACK_LIMIT, so callers test each new monomial against `guard`.

    The conversion is one `struct.Struct` of nvars + 1 unsigned 16-bit
    fields, (e_0, ..., e_{n-1}, degree), read as a little-endian int
    under grevlex and as a big-endian int under lex. `pack_all` and
    `unpack_all` convert a whole polynomial in one pass; `unpack`
    converts one monomial. A negative or non-integer exponent, a
    monomial of the wrong length or a degree of PACK_LIMIT or more
    raises RingError.

    The max-first key is `m - ((m & flip) << 1)`, with `flip` the
    variable fields under grevlex (degree first, then the reversed
    exponents negated) and 0 under lex (the key is m itself). Its
    negation `((m & flip) << 1) - m` is the min-first heap key, and the
    same map sends a heap key back to m. Under both orders a proper
    divisor packs to a smaller int: its degree is smaller, and under lex
    its tuple is smaller too. Sorted lex ints are the sorted tuples.
    """

    __slots__ = (
        "order", "guard", "flip", "_struct", "_byteorder", "_nvars",
        "_varguard", "_degmask", "_degshift", "_ones", "_down",
    )

    def __init__(self, nvars: int, order: str):
        order_key(order)  # RingError for an unknown order
        self.order = order
        self.guard = int.from_bytes(b"\x00\x80" * (nvars + 1), "little")
        grevlex = order == "grevlex"
        self.flip = (1 << 16 * nvars) - 1 if grevlex else 0
        self._byteorder = "little" if grevlex else "big"
        self._struct = Struct(f"{'<' if grevlex else '>'}{nvars + 1}H")
        self._nvars = nvars
        self._degshift = 16 * nvars if grevlex else 0
        self._degmask = 0xFFFF << self._degshift
        self._varguard = self.guard & ~self._degmask
        # c * _ones holds the sum of the variable fields of c in field
        # nvars, and `>> _down` moves that field onto the degree field
        ones = int.from_bytes(b"\x01\x00" * nvars, "little")
        self._ones = ones << 16 if grevlex else ones
        self._down = 0 if grevlex else 16 * nvars

    def pack_all(self, monos: Collection[Monomial]) -> List[int]:
        """The packed int of each monomial, in order; `monos` is read twice,
        so a list or the keys of a term dict, not an iterator."""
        pack, byteorder, from_bytes = self._struct.pack, self._byteorder, int.from_bytes
        try:
            degs = [sum(e) for e in monos]
            if max(degs, default=0) >= PACK_LIMIT:
                raise pack_overflow()
            return [from_bytes(pack(*e, d), byteorder) for e, d in zip(monos, degs)]
        except (StructError, TypeError):
            raise RingError("a packed monomial has one nonnegative integer exponent per variable") from None

    def unpack(self, m: int) -> Monomial:
        return self._struct.unpack(m.to_bytes(self._struct.size, self._byteorder))[: self._nvars]

    def unpack_all(self, ms: Iterable[int]) -> List[Monomial]:
        """`unpack` of each packed monomial, in order."""
        unpack, size, byteorder, n = self._struct.unpack, self._struct.size, self._byteorder, self._nvars
        return [unpack(m.to_bytes(size, byteorder))[:n] for m in ms]

    def key(self, m: int) -> int:
        """Sort key whose max is the leading monomial, as `order_key` on the unpacked tuples."""
        return m - ((m & self.flip) << 1)

    def degree(self, m: int) -> int:
        """The total degree of a packed monomial, read from its degree field."""
        return (m & self._degmask) >> self._degshift

    def colon(self, a: int, b: int) -> int:
        """The packed lcm(a, b) / b, the generator of (a) : b; the packed
        lcm(a, b) is `b + colon(a, b)`.

        Each field of `(a | guard) - b` holds 2^15 + a_i - b_i, which neither
        borrows nor carries, and keeps its guard bit iff a_i >= b_i. Those
        variable fields keep a_i - b_i, the others become 0, and the degree
        field is set to the sum of the variable fields.
        """
        t = (a | self.guard) - b
        g = t & self._varguard
        c = t & (g - (g >> 15))
        return c | (c * self._ones) >> self._down & self._degmask

    def minimal(self, ms: Iterable[int]) -> List[int]:
        """The minimal packed monomials under divisibility, ascending, duplicates dropped.

        A proper divisor is a smaller int, so each candidate, taken in
        ascending order, is tested only against the ones already kept.
        """
        guard = self.guard
        kept: List[int] = []
        for m in sorted(set(ms)):
            for k in kept:
                if not (m - k) & guard:
                    break
            else:
                kept.append(m)
        return kept

    def field(self, i: int) -> Tuple[int, int, int]:
        """(unit, mask, shift) of variable i: unit is the packed e_i, and the
        exponent of variable i in a packed m is `(m & mask) >> shift`."""
        nvars = self._nvars
        if self.order == "grevlex":
            shift, degree = 16 * i, 1 << 16 * nvars
        else:
            shift, degree = 16 * (nvars - i), 1
        return (1 << shift) + degree, 0xFFFF << shift, shift


IntTerms = Dict[int, int]  # packed monomial -> coefficient; elimination also holds Fractions


def _add_shifted(out: IntTerms, terms: IntTerms, shift: int, c, guard: int) -> None:
    """out += c * x^shift * terms on packed terms, dropping the sums that cancel;
    RingError when a shifted monomial sets a `guard` bit."""
    for e, d in terms.items():
        m = e + shift
        if m & guard:
            raise pack_overflow()
        nc = out.get(m)
        if nc is None:
            out[m] = c * d
        else:
            nc += c * d
            if nc:
                out[m] = nc
            else:
                del out[m]


def _mul_packed(a: IntTerms, b: IntTerms, guard: int) -> IntTerms:
    """Product of two packed term dicts; RingError when a degree reaches PACK_LIMIT."""
    out: IntTerms = {}
    for e, c in a.items():
        _add_shifted(out, b, e, c, guard)
    return out


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
    """Polynomial over Q: nonzero coefficients on the monomials of a ring.

    Its one working form, `_pk()`, maps the monomials packed under the
    ring's grevlex layout (`PolyRing.layout`) to the coefficients, and
    every method reads it. `terms`, the view, maps exponent tuples to the
    same coefficients. A polynomial built from tuples by the constructor
    packs on its first use, whatever the use (`terms`, `render`, `==` and
    `hash` included), so a monomial that the packed format cannot hold,
    with an entry that is negative or not an integer, with the wrong
    number of entries, or of degree PACK_LIMIT or more, raises RingError
    there. One built packed (`_of_packed`) unpacks only when `terms` is
    read. Each form is kept once it is built, and neither is mutated
    after construction: every operation builds a new polynomial.

    Both constructors read each coefficient through `_canonical`: an
    `int` for an integer value (`Fraction(3)` is stored as 3), a
    `Fraction` for any other rational, the exact `Fraction` of a float,
    and RingError for anything else, so no other code decides the type.
    Arithmetic that would create a monomial of degree PACK_LIMIT or more
    raises RingError. A constant polynomial, zero included, equals and
    hashes like its scalar.
    """

    __slots__ = ("ring", "_terms", "_packed")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, object]):
        self.ring = ring
        self._terms = _canonical(dict(terms))
        self._packed = None

    @classmethod
    def _of_packed(cls, ring: PolyRing, packed: IntTerms) -> "MultiPoly":
        """The polynomial of terms packed under `ring.layout`; it takes
        `packed` over, so the caller must not keep it."""
        p = cls.__new__(cls)
        p.ring = ring
        p._terms = None
        p._packed = _canonical(packed)
        return p

    @property
    def terms(self) -> Dict[Monomial, object]:
        """The terms keyed by exponent tuples; read it, never mutate it."""
        pk = self._pk()
        t = self._terms
        if t is None:
            t = self._terms = dict(zip(self.ring.layout.unpack_all(pk), pk.values()))
        return t

    def _pk(self) -> IntTerms:
        """The terms packed under `ring.layout`, packed from the tuples of
        the constructor on the first call; RingError for a monomial that
        does not pack."""
        pk = self._packed
        if pk is None:
            t = self._terms
            pk = self._packed = dict(zip(self.ring.layout.pack_all(t), t.values()))
        return pk

    def _other(self, other) -> IntTerms:
        """The packed terms of a polynomial of this ring or of a scalar."""
        if not isinstance(other, MultiPoly):
            other = self.ring.const(other)
        self._check(other)
        return other._pk()

    def _scalar(self):
        """The value of a constant polynomial, 0 for zero, and None for any other."""
        pk = self._pk()
        if len(pk) > 1:
            return None
        return pk.get(0) if pk else 0

    def _check(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingError("ring context mismatch")

    def __bool__(self):
        return bool(self._pk())

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                c = _coefficient(other)
            except RingError:  # not a rational number, so not a constant
                return NotImplemented
            s = self._scalar()
            return s is not None and s == c
        return self._pk() == other._pk() and self.ring == other.ring

    def __hash__(self):
        s = self._scalar()
        if s is not None:
            return hash(s)
        return hash((self.ring, frozenset(self._pk().items())))

    def __add__(self, other):
        out = dict(self._pk())
        _add_shifted(out, self._other(other), 0, 1, self.ring.layout.guard)
        return MultiPoly._of_packed(self.ring, out)

    __radd__ = __add__

    def _scaled(self, c) -> "MultiPoly":
        """c times this polynomial, for a canonical scalar c."""
        return MultiPoly._of_packed(self.ring, {m: v * c for m, v in self._pk().items()})

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        out = dict(self._pk())
        _add_shifted(out, self._other(other), 0, -1, self.ring.layout.guard)
        return MultiPoly._of_packed(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scaled(_coefficient(other))
        product = _mul_packed(self._pk(), self._other(other), self.ring.layout.guard)
        return MultiPoly._of_packed(self.ring, product)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = _integer(k, "only nonnegative integer powers")
        if k < 0:
            raise RingError(f"only nonnegative integer powers: {k!r}")
        guard = self.ring.layout.guard
        result: IntTerms = {0: 1}
        base = self._pk()
        while k:
            if k & 1:
                result = _mul_packed(result, base, guard)
            k >>= 1
            if k:
                base = _mul_packed(base, base, guard)
        return MultiPoly._of_packed(self.ring, result)

    def total_degree(self) -> int:
        """The largest total degree of a term, 0 for zero."""
        return max(map(self.ring.layout.degree, self._pk()), default=0)

    def sorted_terms(self, order: str = "grevlex"):
        key = order_key(order)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def derivative(self, i: int) -> "MultiPoly":
        unit, mask, shift = self.ring.layout.field(_var_index(i, self.ring.n))
        return MultiPoly._of_packed(
            self.ring, {m - unit: c * k for m, c in self._pk().items() if (k := (m & mask) >> shift)}
        )

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending variable i to images[i].

        The images all live in one target ring, that of images[0], which
        may differ from this one; RingError when an image's ring is neither
        that object nor equal to it, or when there is no image to take the
        target from. Reads the packed terms of this polynomial, with its
        exponents unpacked once, and of the images, and builds its result
        packed in the target ring; a degree of PACK_LIMIT or more raises
        RingError. Each image keeps its packed form, so a list of images
        sent to many calls is packed once.
        """
        if len(images) != self.ring.n:
            raise RingError("every variable needs an image")
        if not images:
            raise RingError("no image to take the target ring from")
        target = images[0].ring
        if any(p.ring is not target and p.ring != target for p in images):
            raise RingError("images live in different rings")
        guard = target.layout.guard
        powers: Dict[int, List[IntTerms]] = {}  # i -> [1, images[i], images[i]^2, ...], packed
        out: IntTerms = {}
        pk = self._pk()
        for e, c in zip(self.ring.layout.unpack_all(pk), pk.values()):
            # a factor with one term scales and shifts every monomial of the
            # product alike, so it is applied after the multi-term factors
            term, shift = None, 0
            for i, k in compress(enumerate(e), e):
                pw = powers.get(i)
                if pw is None:
                    pw = powers[i] = [{0: 1}, images[i]._pk()]
                while len(pw) <= k:
                    pw.append(_mul_packed(pw[-1], pw[1], guard))
                if len(pw[k]) == 1:
                    (m, d), = pw[k].items()
                    # tested at each step: three valid shifts can carry out of the top field
                    shift += m
                    if shift & guard:
                        raise pack_overflow()
                    c = c * d
                else:
                    term = pw[k] if term is None else _mul_packed(term, pw[k], guard)
            _add_shifted(out, {0: 1} if term is None else term, shift, c, guard)
        return MultiPoly._of_packed(target, out)

    def render(self, order: str = "grevlex") -> str:
        def mono(e: Monomial) -> str:
            return " ".join(
                name if k == 1 else f"{name}^{k}" if k < 10 else f"{name}^{{{k}}}"
                for name, k in zip(self.ring.names, e)
                if k
            )

        return _render_terms((c, mono(e)) for e, c in self.sorted_terms(order))

    __repr__ = render


def poly_from_terms(ring: PolyRing, pairs: Iterable[Tuple[Sequence[int], object]]) -> MultiPoly:
    """The sum of the terms c * x^e; each c is read exactly, as one monomial, before the sum."""
    terms: Dict[Monomial, object] = {}
    for exps, c in pairs:
        for e, v in ring.monomial(exps, c).terms.items():
            terms[e] = terms.get(e, 0) + v
    return MultiPoly(ring, terms)


class Weight:
    """Vector in (1/D)Z^r: integer numerators over a power-of-two scale."""

    __slots__ = ("nums", "scale")

    def __init__(self, nums: Sequence[int], scale: int = 1):
        try:
            nums = tuple(map(index, nums))
            scale = index(scale)
        except TypeError:
            raise RingError(f"weight entries and scale must be integers: {nums!r}, {scale!r}") from None
        if scale < 1 or scale & (scale - 1):
            raise RingError("scale must be a power of two")
        self._reduce(nums, scale)

    @classmethod
    def _exact(cls, nums: Tuple[int, ...], scale: int) -> "Weight":
        """The Weight nums / scale, unchecked: for an int tuple and a power
        of two that the library has computed."""
        w = cls.__new__(cls)
        w._reduce(nums, scale)
        return w

    def _reduce(self, nums: Tuple[int, ...], scale: int) -> None:
        """Store nums / scale on its smallest scale, so that equal weights
        have equal fields."""
        while scale > 1 and all(x % 2 == 0 for x in nums):
            nums = tuple(x // 2 for x in nums)
            scale //= 2
        self.nums = nums
        self.scale = scale

    @classmethod
    def of(cls, *nums: int) -> "Weight":
        return cls(nums, 1)

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
    """The weights on their largest scale, as (scale, columns) for `packed_weights`."""
    if len({w.r for w in weights}) > 1:
        raise RingError("weight rank mismatch")
    scale = max((w.scale for w in weights), default=1)
    return scale, tuple(zip(*(tuple(x * (scale // w.scale) for x in w.nums) for w in weights)))


def packed_weights(columns: Sequence[Tuple[int, ...]], degree: int) -> Tuple[int, List[int]]:
    """(bits, packed): the weight of variable i as the int packed[i], its
    k-th numerator in the k-th signed field of `bits` bits.

    `columns` are as `weight_columns` returns them. The fields are wide
    enough for the weight of any monomial of total degree at most
    `degree`, so the packed weight of such a monomial is the sum of its
    variables' packed weights, and two of them are equal iff the weights are.
    """
    bits = (degree * max((abs(x) for col in columns for x in col), default=0)).bit_length() + 1
    return bits, [sum(x << bits * k for k, x in enumerate(w)) for w in zip(*columns)]


def _laurent_coeff(c) -> int:
    """c as a Laurent coefficient; RingError unless it is an integer."""
    try:
        return index(c)
    except TypeError:
        raise RingError(f"Laurent coefficients must be integers: {c!r}") from None


class LaurentPoly:
    """Integer combination of torus characters t^w on a scaled lattice."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Mapping[Weight, int] | None = None):
        self.r = r
        out: Dict[Weight, int] = {}
        for w, c in (terms or {}).items():
            if w.r != r:
                raise RingError("weight rank mismatch")
            if c := _laurent_coeff(c):
                out[w] = c
        self.terms = out

    @classmethod
    def _exact(cls, r: int, terms: Dict[Weight, int]) -> "LaurentPoly":
        """The polynomial of terms, kept as it is: for a dict of rank-r
        weights to nonzero ints that the library has computed."""
        p = cls.__new__(cls)
        p.r = r
        p.terms = terms
        return p

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

    def _lift(self, other) -> "LaurentPoly":
        """other as a Laurent polynomial of this rank: an integer c is the
        constant c; RingError for any other scalar."""
        if isinstance(other, LaurentPoly):
            self._check(other)
            return other
        return LaurentPoly(self.r, {Weight((0,) * self.r): other})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            try:
                other = self._lift(other)
            except RingError:  # not an integer, so not a constant
                return NotImplemented
        return self.r == other.r and self.terms == other.terms

    def __hash__(self):
        """A constant, zero included, hashes like its integer."""
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1:
            (w, c), = t.items()
            if w.is_zero():
                return hash(c)
        return hash((self.r, frozenset(t.items())))

    def __add__(self, other):
        other = self._lift(other)
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
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not (other := _laurent_coeff(other)):
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
