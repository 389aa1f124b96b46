"""Sparse multivariate polynomials over Q and integer Laurent polynomials.

Both work on packed ints, with tuples only at the boundary. A `MultiPoly`
has one working form, packed monomials: each `PolyRing` owns one grevlex
`PackedLayout`, and every method of a polynomial, from `==` and the
total degree to substitution, division and elimination, reads the terms
packed under it. Exponent tuples, one entry per ring variable, are only
input and view: a polynomial built from tuples is packed, and so
checked, on its first use, whatever the use, and one built packed
unpacks only when its `terms` are read. Coefficients are exact rationals
of one canonical type, decided by `_canonical` alone, which both
`MultiPoly` constructors call: an integer is an `int` whatever type it
arrives with, any other rational is a `Fraction` (whose denominator is
then above 1), a float is read as its exact `Fraction`, and a bool or
a value that is not a rational number raises RingError. The two types
compare and hash alike, so equality and term sets do not see the type.
The monomial orders are lex and grevlex, and `PackedLayout` is
their one implementation: `_check_order` checks an order's name, and a
polynomial renders, as division sorts, by the layout's heap key.
Monomial entries, variable indices, weight entries and Laurent
coefficients from outside go through `exponents`, `_integer` or
`PackedLayout`, which raise RingError for a bool or a non-integer entry
instead of reading it as a number or truncating it.

The packed term format is also what division and Buchberger
(`groebner`), monomial ideals (`groebner.MonomialIdeal`) and their
K-polynomial recursion (`kpoly`) and linear elimination
(`localeq.simple_eliminate`) work on: a `PackedLayout` stores an
exponent vector and its total degree as one int of 16-bit fields (8-bit
inside a Buchberger run, which reruns at 16 when a degree outgrows them)
whose top bits are guards (Bachmann & Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998; Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007), and `IntTerms` maps
packed monomials to coefficients. Product is `+`, quotient is `-`,
divisibility is one subtraction and a mask test, a colon or an lcm is a
few int operations (`PackedLayout.colon`), the number of monomials each
variable divides is one sum (`PackedLayout.support_counts`), and the
order compares one int key. Every packed sum of shifted terms (sums,
products, S-polynomials, elimination and substitution) is one call of
`_add_shifted`, which raises RingError for a monomial of degree 2^15 or
more. Tuples and packed ints are converted by one `struct.Struct` per
layout, a whole polynomial in one pass of `PackedLayout.pack_all` or
`PackedLayout.unpack_all`.

A `LaurentPoly` has exponents on a scaled lattice (1/D)Z^r, D a power of
two, so half-integer weights are exact integer data. Its one working
form is `IntTerms` too: one D per polynomial, and each term's numerator
vector as one int of signed, guarded fields, so a twist or a product is
an int add per term, and the `kpoly` recursion builds its result in this
form directly, and it renders from its numerators on its scale. A
`Weight`, numerators over a scale, is a plain value read at the
boundary: the input type of torus weights and the key type of the
`LaurentPoly.terms` view, with no arithmetic of its own; sums and
multiples of weights are `LaurentPoly` products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import index, lshift, or_
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


_INT = {int}


def exponents(entries: Iterable[int]) -> Tuple[int, ...]:
    """The entries, such as exponents or weight numerators, as a tuple of
    ints, each read by `_integer` unless a C-level type scan finds only
    ints; RingError for a bool or a non-integer entry, and for entries
    that do not come as a sequence."""
    try:
        e = tuple(entries)
    except TypeError:
        raise RingError(f"integer entries come as a sequence: {entries!r}") from None
    return e if {*map(type, e)} <= _INT else tuple([_integer(x, "an entry is an integer") for x in e])


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
    `Fraction` otherwise. A float is read exactly; RingError for a bool
    or a value that is not a rational number."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        try:
            if isinstance(c, (str, bool)):  # `Fraction` would parse a str and read a bool as 0 or 1
                raise TypeError
            c = Fraction(c)
        except (TypeError, ValueError, OverflowError):
            raise RingError(f"a coefficient is a rational number: {c!r}") from None
    return c.numerator if c.denominator == 1 else c


def _canonical(terms: dict) -> dict:
    """The terms with each coefficient read by `_coefficient` and the zero
    ones dropped: terms itself when every coefficient is a nonzero `int`,
    which two C-level scans find, and otherwise a new dict."""
    values = terms.values()
    if {*map(type, values)} <= _INT and 0 not in values:
        return terms
    return {e: v for e, c in terms.items() if (v := _coefficient(c))}


def _check_order(order) -> None:
    """RingError unless `order` names a monomial order, "lex" or "grevlex";
    an unhashable value is compared, not hashed, so it raises RingError too."""
    if order != "lex" and order != "grevlex":
        raise RingError(f"unknown monomial order {order!r}")


PACK_LIMIT = 1 << 15  # every exponent and every total degree stays below this


def pack_overflow() -> RingError:
    return RingError(f"an exponent or degree reaches {PACK_LIMIT}, the packed field limit")


class _NarrowOverflow(RingError):
    """A degree reached the limit of a layout narrower than 16 bits; its
    user reruns in the 16-bit layout, so this never reaches a caller."""


_FORMATS = {8: "B", 16: "H"}  # the struct code of each field width


class PackedLayout:
    """Monomials of one (nvars, order) pair packed into ints.

    Each exponent and the total degree get one field of `bits` bits, 16
    unless the constructor is given 8, whose top bit is a guard, clear in
    every valid monomial: so every exponent and degree stays below
    `limit`, 2^(bits - 1), which is PACK_LIMIT at 16 bits. Every ring and
    every normal form packs at 16 bits; Buchberger runs at 8 and reruns
    at 16 when a degree reaches 2^7 (`groebner.groebner_basis`). Under
    grevlex, variable i sits in field i and the degree field is on top;
    under lex, variable 0 is the most significant field and the degree
    field is at the bottom. Product is `+` and quotient is `-`; a
    divides b iff `(b - a) & guard == 0`, because a field that goes
    negative borrows and sets its guard. A product sets a guard iff its
    degree reaches `limit`, so callers test each new monomial against
    `guard`, and raise `overflow()`.

    The conversion is one `struct.Struct` of nvars + 1 unsigned fields,
    (e_0, ..., e_{n-1}, degree), read as a little-endian int under
    grevlex and as a big-endian int under lex. `pack_all` and
    `unpack_all` convert a whole polynomial in one pass, `unpack`
    converts one monomial, `recode` moves packed monomials from one
    layout to another without tuples, and `projection` drops the fields
    of variables that are absent. A negative, bool or non-integer
    exponent, a monomial of the wrong length or a degree of `limit` or
    more raises RingError, and so does an order other than "lex" and
    "grevlex" (`_check_order`).

    The one order key of the library is the min-first heap key
    `heap_key(m) = ((m & flip) << 1) - m`, with `flip` the variable
    fields under grevlex and 0 under lex. Its negation is the degree,
    then the reversed exponents negated, under grevlex, and m itself
    under lex, so it sorts the unpacked tuples as the definitions of the
    two orders do (the tests keep those tuple keys as the reference): the
    lead of a set of monomials has the least heap key, and
    `MultiPoly.render` lists the terms by it. The same map sends a heap
    key back to m. The heap key is additive, heap_key(a + b) =
    heap_key(a) + heap_key(b) whenever a + b is a valid monomial, because
    a valid sum carries out of no field: so a product of terms keyed by
    heap keys is one int add as well, and the least key of a term dict
    is the key of its lead.
    The degree field of a heap key holds minus the degree, under both
    orders. Under both orders a proper divisor packs to a smaller int:
    its degree is smaller, and under lex its tuple is smaller too.
    Sorted lex ints are the sorted tuples, and two layouts of one order
    sort valid monomials alike, whatever their widths.
    """

    __slots__ = (
        "order", "bits", "limit", "guard", "flip", "_struct", "_byteorder", "_nvars",
        "_varguard", "_mask", "_degmask", "_degshift", "_ones", "_down", "_fill",
    )

    def __init__(self, nvars: int, order: str, bits: int = 16):
        _check_order(order)
        if bits not in _FORMATS:
            raise RingError(f"a packed field has 8 or 16 bits, not {bits!r}")
        self.order = order
        self.bits = bits
        self.limit = 1 << bits - 1
        self._mask = mask = (1 << bits) - 1
        # one 1 at the foot of each of the nvars + 1 fields
        feet = ((1 << bits * (nvars + 1)) - 1) // mask
        self.guard = feet << bits - 1
        grevlex = order == "grevlex"
        self.flip = (1 << bits * nvars) - 1 if grevlex else 0
        self._byteorder = "little" if grevlex else "big"
        self._struct = Struct(f"{'<' if grevlex else '>'}{nvars + 1}{_FORMATS[bits]}")
        self._nvars = nvars
        self._degshift = bits * nvars if grevlex else 0
        self._degmask = mask << self._degshift
        self._varguard = self.guard & ~self._degmask
        self._fill = (self._varguard >> bits - 1) * (self.limit - 1)  # limit - 1 in each variable field
        # c * _ones holds the sum of the variable fields of c in field
        # nvars, and `>> _down` moves that field onto the degree field
        ones = ((1 << bits * nvars) - 1) // mask
        self._ones = ones << bits if grevlex else ones
        self._down = 0 if grevlex else bits * nvars

    def overflow(self) -> RingError:
        """The error for a degree that reaches `limit`: RingError at 16
        bits, and at 8 the private subclass that its user catches."""
        if self.limit == PACK_LIMIT:
            return pack_overflow()
        return _NarrowOverflow(f"a degree reaches {self.limit}, the {self.bits}-bit field limit")

    def pack_all(self, monos: Collection[Monomial]) -> List[int]:
        """The packed int of each monomial, in order; `monos` is read three
        times, so a list or the keys of a term dict, not an iterator. One
        C-level type scan finds a bool, which the struct would pack."""
        pack, byteorder, from_bytes = self._struct.pack, self._byteorder, int.from_bytes
        try:
            if bool in {*map(type, chain.from_iterable(monos))}:
                raise TypeError
            degs = [sum(e) for e in monos]
            if max(degs, default=0) >= self.limit:
                raise self.overflow()
            return [from_bytes(pack(*e, d), byteorder) for e, d in zip(monos, degs)]
        except (StructError, TypeError):
            raise RingError("a packed monomial has one nonnegative integer exponent per variable") from None

    def unpack(self, m: int) -> Monomial:
        return self._struct.unpack(m.to_bytes(self._struct.size, self._byteorder))[: self._nvars]

    def unpack_all(self, ms: Iterable[int]) -> List[Monomial]:
        """`unpack` of each packed monomial, in order."""
        unpack, size, byteorder, n = self._struct.unpack, self._struct.size, self._byteorder, self._nvars
        return [unpack(m.to_bytes(size, byteorder))[:n] for m in ms]

    def recode(self, ms: Collection[int], source: "PackedLayout") -> Collection[int]:
        """The monomials `ms`, packed under `source`, packed under this layout,
        in order: `ms` itself when `source` packs as this layout does (the
        same order and width), and RingError when the variable counts
        differ. Both layouts hold the fields (e_0, ..., e_{n-1}, degree),
        so each monomial is one struct unpack and pack. Into a narrower
        layout, a degree of this layout's `limit` or more raises
        `overflow()`, read from the degree fields before any packing."""
        if source._nvars != self._nvars:
            raise RingError("recoding between layouts of different variable counts")
        if source.order == self.order and source.bits == self.bits:
            return ms
        if self.bits < source.bits:
            degmask, top = source._degmask, self.limit << source._degshift
            if any((m & degmask) >= top for m in ms):
                raise self.overflow()
        pack, byteorder, from_bytes = self._struct.pack, self._byteorder, int.from_bytes
        unpack, size, source_order = source._struct.unpack, source._struct.size, source._byteorder
        return [from_bytes(pack(*unpack(m.to_bytes(size, source_order))), byteorder) for m in ms]

    def projection(self, source: "PackedLayout", kept: Sequence[int]) -> Callable[[Iterable[int]], List[int]]:
        """The map that sends monomials packed under `source` in the
        variables `kept` of `source` (ascending indices) to the same
        monomials packed under this layout, in order; RingError unless
        `kept` ascends through indices of `source` and this layout has
        len(kept) variables and the order and width of `source`. Each
        monomial is one unpack, by a struct that skips the fields of the
        other variables, and one pack. The degree field is copied, so the
        caller must know that every other exponent is 0."""
        keep = set(kept)
        if (
            (source.order, source.bits, len(kept)) != (self.order, self.bits, self._nvars)
            or list(kept) != sorted(keep)
            or not keep <= set(range(source._nvars))
        ):
            raise RingError("projecting onto variables that this layout does not hold")
        code, skip = _FORMATS[self.bits], f"{self.bits // 8}x"
        fields = "".join(code if i in keep else skip for i in range(source._nvars))
        pack, byteorder, from_bytes = self._struct.pack, self._byteorder, int.from_bytes
        unpack, size = Struct(f"{'<' if byteorder == 'little' else '>'}{fields}{code}").unpack, source._struct.size

        def project(ms: Iterable[int]) -> List[int]:
            return [from_bytes(pack(*unpack(m.to_bytes(size, byteorder))), byteorder) for m in ms]

        return project

    def heap_key(self, m: int) -> int:
        """The min-first heap key of a packed monomial, and the monomial of a
        heap key: the map is its own inverse."""
        return ((m & self.flip) << 1) - m

    def degree(self, m: int) -> int:
        """The total degree of a packed monomial, read from its degree field."""
        return (m & self._degmask) >> self._degshift

    def top_degree(self, keys: Iterable[int]) -> int:
        """The largest total degree among the monomials of the heap keys
        `keys`, read from the negated degree field of each key; 0 for none."""
        shift, mask = self._degshift, self._mask
        return max((-(k >> shift) & mask for k in keys), default=0)

    def colon(self, a: int, b: int) -> int:
        """The packed lcm(a, b) / b, the generator of (a) : b; the packed
        lcm(a, b) is `b + colon(a, b)`.

        Each field of `(a | guard) - b` holds limit + a_i - b_i, which neither
        borrows nor carries, and keeps its guard bit iff a_i >= b_i. Those
        variable fields keep a_i - b_i, the others become 0, and the degree
        field is set to the sum of the variable fields.
        """
        t = (a | self.guard) - b
        g = t & self._varguard
        c = t & (g - (g >> self.bits - 1))
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

    def support_counts(self, ms: Collection[int]) -> Monomial:
        """For each variable, the number of the packed monomials `ms` that it
        divides; RingError for 2^bits monomials or more.

        A variable field of `m + fill` reaches its guard bit iff its exponent
        is at least 1, and carries out of no field, since an exponent is at
        most limit - 1. Shifted down by bits - 1, the guard bits are one bit
        at the foot of each variable field, so the sum of the shifted ints
        holds each count in its variable's field, unpacked as a monomial.
        """
        bits = self.bits
        if len(ms) >= 1 << bits:
            raise RingError(f"support counts of 2^{bits} monomials or more overflow a field")
        fill, varguard = self._fill, self._varguard
        return self.unpack(sum([((m + fill) & varguard) >> bits - 1 for m in ms]))

    def field(self, i: int) -> Tuple[int, int, int]:
        """(unit, mask, shift) of variable i: unit is the packed e_i, and the
        exponent of variable i in a packed m is `(m & mask) >> shift`."""
        nvars, bits = self._nvars, self.bits
        if self.order == "grevlex":
            shift, degree = bits * i, 1 << bits * nvars
        else:
            shift, degree = bits * (nvars - i), 1
        return (1 << shift) + degree, self._mask << shift, shift


IntTerms = Dict[int, int]  # packed monomial -> coefficient; elimination also holds Fractions
_ONE: IntTerms = {0: 1}  # the polynomial 1, packed; read, never mutated


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
        elif self.ring != other.ring:
            raise RingError("ring context mismatch")
        return other._pk()

    def _scalar(self):
        """The value of a constant polynomial, 0 for zero, and None for any other."""
        pk = self._pk()
        if len(pk) > 1:
            return None
        return pk.get(0) if pk else 0

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
        """The largest total degree of a term, 0 for zero: the degree field is
        the top field of the ring's grevlex layout, so the largest packed
        int has it."""
        pk = self._pk()
        return self.ring.layout.degree(max(pk)) if pk else 0

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
        target from. Reads the packed terms of this polynomial and of the
        images, and builds its result packed in the target ring; a degree
        of PACK_LIMIT or more raises RingError. Each image keeps its packed
        form, so a list of images sent to many calls is packed once.

        A term's variables are its nonzero fields, read one at a time from
        the lowest set bit of its packed monomial with the degree field
        masked off. A factor of exponent 1 is the image's packed terms as
        they are; its powers are built and kept, per call, only for an
        exponent of 2 or more. The last factor with more than one term is
        multiplied straight into the result, once per term of the product
        of the earlier ones.
        """
        if len(images) != self.ring.n:
            raise RingError("every variable needs an image")
        if not images:
            raise RingError("no image to take the target ring from")
        target = images[0].ring
        for p in images:
            if p.ring is not target and p.ring != target:
                raise RingError("images live in different rings")
        guard = target.layout.guard
        bits = self.ring.layout.bits
        fmask, vmask = (1 << bits) - 1, (1 << bits * self.ring.n) - 1
        powers: Dict[int, List[IntTerms]] = {}  # i -> [1, images[i], images[i]^2, ...], packed
        out: IntTerms = {}
        for m, c in self._pk().items():
            # a factor with one term scales and shifts every monomial of the
            # product alike, so it is applied to the shift and the scalar c
            m &= vmask
            pre, last, shift = None, _ONE, 0
            while m:
                i = ((m & -m).bit_length() - 1) // bits
                s = i * bits
                k = (m >> s) & fmask
                m -= k << s
                if k == 1:
                    f = images[i]._pk()
                else:
                    pw = powers.get(i)
                    if pw is None:
                        pw = powers[i] = [_ONE, images[i]._pk()]
                    while len(pw) <= k:
                        pw.append(_mul_packed(pw[-1], pw[1], guard))
                    f = pw[k]
                if len(f) == 1:
                    (u, d), = f.items()
                    # tested at each step: three valid shifts can carry out of the top field
                    shift += u
                    if shift & guard:
                        raise pack_overflow()
                    c = c * d
                elif last is _ONE:
                    last = f
                else:
                    pre = last if pre is None else _mul_packed(pre, last, guard)
                    last = f
            if pre is None:
                _add_shifted(out, last, shift, c, guard)
            else:
                for e, d in pre.items():
                    e += shift
                    if e & guard:  # e + shift + a monomial of last could carry out with its guard clear
                        raise pack_overflow()
                    _add_shifted(out, last, e, c * d, guard)
        return MultiPoly._of_packed(target, out)

    def render(self) -> str:
        """The terms lead first, by the heap key of the ring's grevlex layout."""
        names, lay, pk = self.ring.names, self.ring.layout, self._pk()

        def mono(e: Monomial) -> str:
            return " ".join(
                name if k == 1 else f"{name}^{k}" if k < 10 else f"{name}^{{{k}}}"
                for name, k in zip(names, e)
                if k
            )

        ms = sorted(pk, key=lay.heap_key)
        return _render_terms((pk[m], mono(e)) for m, e in zip(ms, lay.unpack_all(ms)))

    __repr__ = render


def poly_from_terms(ring: PolyRing, pairs: Iterable[Tuple[Sequence[int], object]]) -> MultiPoly:
    """The sum of the terms c * x^e; each c is read exactly, as one monomial, before the sum."""
    terms: Dict[Monomial, object] = {}
    for exps, c in pairs:
        for e, v in ring.monomial(exps, c).terms.items():
            terms[e] = terms.get(e, 0) + v
    return MultiPoly(ring, terms)


class Weight:
    """Vector in (1/D)Z^r: integer numerators over a power-of-two scale.

    A plain value, read at the boundary: the input type of torus weights,
    which `LaurentPoly` and `kpoly` read from `nums` and `scale` and
    return only through `LaurentPoly.terms`. It has no arithmetic; the
    weight of a monomial, a sum of weights, is the exponent of a
    `LaurentPoly` product of characters. Entries and scale are read by
    `exponents` and `_integer`, so a bool or a non-integer raises
    RingError, and the weight is kept on its least scale, so equal
    weights have equal fields.
    """

    __slots__ = ("nums", "scale")

    def __init__(self, nums: Iterable[int], scale: int = 1):
        nums = exponents(nums)
        if type(scale) is not int:
            scale = _integer(scale, "a weight scale is an integer")
        if scale < 1 or scale & (scale - 1):
            raise RingError("scale must be a power of two")
        while scale > 1 and not any(x & 1 for x in nums):
            nums = tuple([x >> 1 for x in nums])
            scale >>= 1
        self.nums = nums
        self.scale = scale

    @classmethod
    def of(cls, *nums: int) -> "Weight":
        return cls(nums, 1)

    @property
    def r(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.nums == other.nums and self.scale == other.scale

    def __hash__(self):
        return hash((self.nums, self.scale))

    def __repr__(self):
        if self.scale == 1:
            return f"Weight{self.nums}"
        return f"Weight({self.nums}, scale={self.scale})"


def _width(reach: int) -> int:
    """Bits per Laurent key field for the numerators x in [-reach - 1, reach]:
    at least 3, so that the field of 0, 2^(b-2), is even."""
    return max(reach.bit_length(), 1) + 2


def _ones(r: int, bits: int) -> int:
    """The int with a 1 at the bottom of each of r fields of `bits` bits."""
    return ((1 << bits * r) - 1) // ((1 << bits) - 1)


def _key(nums: Iterable[int], bits: int) -> int:
    """The Laurent key of a numerator vector, each entry fitting its field."""
    half = 1 << bits - 2
    return sum((x + half) << bits * k for k, x in enumerate(nums))


def _nums(key: int, r: int, bits: int) -> Tuple[int, ...]:
    """The numerator vector of a Laurent key."""
    mask, half = (1 << bits) - 1, 1 << bits - 2
    return tuple([((key >> bits * k) & mask) - half for k in range(r)])


def packed_weights(weights: Sequence[Weight], degree: int) -> Tuple[int, int, int, List[int]]:
    """(scale, bits, zero, packed): the weights on their largest scale, the
    numerators of weight i packed as the plain sum of x_k << bits*k, and
    `zero`, the `LaurentPoly` key of 0 in fields of `bits` bits.

    The fields are wide enough for the weight of any monomial of total
    degree at most `degree`, so the weight of such a monomial packs to
    the sum of its variables' packed weights, two of them are equal iff
    the weights are, and its Laurent key is that sum plus `zero`.
    RingError when the ranks differ.
    """
    r = weights[0].r if weights else 0
    scale = max([w.scale for w in weights], default=1)
    cols = [w.nums if w.scale == scale else [x * (scale // w.scale) for x in w.nums] for w in weights]
    if any(len(v) != r for v in cols):
        raise RingError("weight rank mismatch")
    bits = _width(degree * max(map(abs, chain.from_iterable(cols)), default=0))
    fields = range(0, bits * r, bits)
    return scale, bits, _ones(r, bits) << bits - 2, [sum(map(lshift, v, fields)) for v in cols]


def _pack_terms(scale: int, terms: Sequence[Tuple[Sequence[int], int]]) -> Tuple[int, int, IntTerms]:
    """(scale, bits, keys) of (numerator vector over `scale`, nonzero int)
    pairs with distinct vectors: on the least scale, in the narrowest fields."""
    acc = reduce(or_, (x for v, _ in terms for x in v), 0)
    halve = scale.bit_length() - 1  # as often as every numerator stays an integer
    if acc:
        halve = min(halve, (acc & -acc).bit_length() - 1)
    if halve:
        terms = [([x >> halve for x in v], c) for v, c in terms]
        scale >>= halve
    bits = _width(reduce(or_, (x if x >= 0 else ~x for v, _ in terms for x in v), 0))
    return scale, bits, {_key(v, bits): c for v, c in terms}


class LaurentPoly:
    """Integer combination of torus characters t^w, w in (1/D)Z^r.

    The working form is packed. `scale` is the polynomial's one power of
    two D, the least that makes every D*w integral, and `_keys` maps the
    numerator vector D*w of each term, as one int, to its nonzero int
    coefficient: entry x_k sits in field k of `_bits` bits as
    x_k + 2^(b-2), so a field holds [-2^(b-2), 2^(b-2)) and its top bit
    is a guard, clear in every key. A product adds keys less the key of
    0 (a twist is a product by one term), and a reflection subtracts a
    key from a constant; an entry that leaves its field leaves its guard
    set, and the result is built again in fields twice as wide. So a
    field never wraps and entries have no bound. Operands are first
    recast to the larger scale and width, entry by entry. The width is
    not canonical: `==` tests that the difference is zero, and `hash`
    reads the rank, scale and coefficients. `Weight` is the boundary:
    the constructor and `char` read Weights, and `terms`, the view keyed
    by them, is built on its first read.
    """

    __slots__ = ("r", "scale", "_bits", "_keys", "_terms")

    def __init__(self, r: int, terms: Mapping[Weight, int] | None = None):
        view: Dict[Weight, int] = {}
        for w, c in (terms or {}).items():
            if w.r != r:
                raise RingError("weight rank mismatch")
            if c := _integer(c, "a Laurent coefficient is an integer"):
                view[w] = c
        scale = max((w.scale for w in view), default=1)
        vectors = [([x * (scale // w.scale) for x in w.nums], c) for w, c in view.items()]
        self.r = r
        self.scale, self._bits, self._keys = _pack_terms(scale, vectors)
        self._terms = view

    @classmethod
    def _of(cls, r: int, scale: int, bits: int, keys: IntTerms) -> "LaurentPoly":
        """The polynomial of `keys` (taken over) in `bits`-bit fields on
        `scale`, which is lowered when every numerator is even."""
        if scale > 1 and not reduce(or_, keys, 0) & _ones(r, bits):  # the zero field is even
            scale, bits, keys = _pack_terms(scale, [(_nums(k, r, bits), c) for k, c in keys.items()])
        p = cls.__new__(cls)
        p.r, p.scale, p._bits, p._keys, p._terms = r, scale, bits, keys, None
        return p

    @classmethod
    def _of_nums(cls, r: int, scale: int, terms: Iterable[Tuple[Sequence[int], int]]) -> "LaurentPoly":
        """The polynomial of (numerator vector over `scale`, nonzero int)
        pairs with distinct vectors."""
        return cls._of(r, *_pack_terms(scale, list(terms)))

    @classmethod
    def one(cls, r: int) -> "LaurentPoly":
        return cls._of_nums(r, 1, [((0,) * r, 1)])

    @classmethod
    def char(cls, w: Weight) -> "LaurentPoly":
        return cls(w.r, {w: 1})

    @property
    def terms(self) -> Dict[Weight, int]:
        """The terms keyed by `Weight`; read it, never mutate it."""
        t = self._terms
        if t is None:
            r, bits, scale = self.r, self._bits, self.scale
            t = self._terms = {Weight(_nums(k, r, bits), scale): c for k, c in self._keys.items()}
        return t

    def _lift(self, other) -> "LaurentPoly":
        """other as a Laurent polynomial of this rank: an integer c is the
        constant c; RingError for any other scalar."""
        if not isinstance(other, LaurentPoly):
            return LaurentPoly.one(self.r)._scaled(_integer(other, "a Laurent coefficient is an integer"))
        if self.r != other.r:
            raise RingError("rank mismatch")
        return other

    def _recast(self, scale: int, bits: int) -> IntTerms | None:
        """The keys on `scale`, a multiple of this polynomial's, in fields of
        `bits` bits; None when an entry leaves them."""
        if scale == self.scale and bits == self._bits:
            return self._keys
        m, r, old, half = scale // self.scale, self.r, self._bits, 1 << bits - 2
        out: IntTerms = {}
        for k, c in self._keys.items():
            v = [x * m for x in _nums(k, r, old)]
            if not all(-half <= x < half for x in v):
                return None
            out[_key(v, bits)] = c
        return out

    def _pair(self, other, combine: Callable[[IntTerms, IntTerms, int], IntTerms]) -> "LaurentPoly":
        """`combine(keys, other's keys, key of 0)` on one scale and width,
        the fields doubled until the operands fit and the result sets no guard."""
        other = self._lift(other)
        scale, bits = max(self.scale, other.scale), max(self._bits, other._bits)
        while True:
            a, b = self._recast(scale, bits), other._recast(scale, bits)
            if a is not None and b is not None:
                ones = _ones(self.r, bits)
                out = combine(a, b, ones << bits - 2)
                if not reduce(or_, out, 0) & ones << bits - 1:
                    return LaurentPoly._of(self.r, scale, bits, out)
            bits *= 2

    def __eq__(self, other):
        if isinstance(other, LaurentPoly) and other.r != self.r:
            return False
        try:
            return not (self - other)._keys
        except RingError:  # not an integer, so not a constant
            return NotImplemented

    def __hash__(self):
        """A constant, zero included, hashes like its integer."""
        keys = self._keys
        if not keys:
            return hash(0)
        if len(keys) == 1:
            (k, c), = keys.items()
            if k == _ones(self.r, self._bits) << self._bits - 2:
                return hash(c)
        return hash((self.r, self.scale, tuple(sorted(keys.values()))))

    def __add__(self, other):
        return self._pair(other, _plus)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c: int) -> "LaurentPoly":
        keys = {k: v * c for k, v in self._keys.items()} if c else {}
        return LaurentPoly._of(self.r, self.scale, self._bits, keys)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self._scaled(_integer(other, "a Laurent coefficient is an integer"))

        def times(a: IntTerms, b: IntTerms, zero: int) -> IntTerms:
            """The shorter operand's keys, less the key of 0, shift the longer one."""
            if len(a) > len(b):
                a, b = b, a
            return _mul_packed({k - zero: c for k, c in a.items()}, b, 0)

        return self._pair(other, times)

    __rmul__ = __mul__

    def twist(self, w: Weight) -> "LaurentPoly":
        """Multiply by the character t^w: one int add per term."""
        return self * LaurentPoly.char(w)

    def _reflected(self, nums: Sequence[int], scale: int, c: int) -> "LaurentPoly":
        """c t^(nums/scale), c a nonzero int, times this polynomial at t^-1:
        one int subtraction per term."""
        return self._pair(LaurentPoly._of_nums(self.r, scale, [(nums, c)]), _mirrored)

    def render(self) -> str:
        """The terms by descending total weight, then ascending weight
        vector, sorted on their numerators over the one `scale`."""
        r, bits, scale = self.r, self._bits, self.scale
        terms = sorted(((_nums(k, r, bits), c) for k, c in self._keys.items()), key=lambda t: (-sum(t[0]), t[0]))
        return _render_terms((c, _character(v, scale)) for v, c in terms)

    __repr__ = render


def _character(nums: Sequence[int], scale: int) -> str:
    """The text of the character t^w, w = nums / scale, "" for w = 0: each
    nonzero entry as t_i, t_i^e for an integer 1 < e < 10, and otherwise
    t_i^{e}, with e in lowest terms, as in "t_1^{-1} t_2^{3/2}"."""
    factors = []
    for i, x in enumerate(nums, 1):
        if not x:
            continue
        g = min(x & -x, scale)  # gcd(x, scale): x & -x is the largest power of two dividing x
        x, d = x // g, scale // g
        if d > 1:
            factors.append(f"t_{i}^{{{x}/{d}}}")
        elif x == 1:
            factors.append(f"t_{i}")
        elif 0 < x < 10:
            factors.append(f"t_{i}^{x}")
        else:
            factors.append(f"t_{i}^{{{x}}}")
    return " ".join(factors)


# The `combine` arguments of `LaurentPoly._pair`, beside the product in
# `LaurentPoly.__mul__`. Each passes guard 0 to `_add_shifted` or
# `_mul_packed`: `_pair` tests the guards of the result.


def _plus(a: IntTerms, b: IntTerms, zero: int) -> IntTerms:
    out = dict(a)
    _add_shifted(out, b, 0, 1, 0)
    return out


def _mirrored(a: IntTerms, b: IntTerms, zero: int) -> IntTerms:
    """b, one term c t^v, times a at t^-1: each key k goes to key(v) + zero - k."""
    (s, d), = b.items()
    s += zero
    return {s - k: c * d for k, c in a.items()}
