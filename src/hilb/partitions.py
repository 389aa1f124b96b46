"""r-dimensional partitions and their monomial ideals.

A partition is a finite downward-closed set of lattice points in
Z_{>=0}^r. For r=3 these are plane partitions; layers along the last
axis give the ascending-chain notation (1) < (2,1) used for display.
Cells are int tuples, and this module owns the two operations on them
that it and `localeq` use: the step `_mono_shift` and the difference
`_mono_quot`.

A partition holds its monomial ideal I_λ once it is asked for:
`ideal_of_partition` builds it on first use and returns the same
`MonomialIdeal` after that, so the tangent space and the K-polynomial of
one point share one ideal. It packs the cells once, as lex ints of the
ideal's layout, and keeps them on the partition beside the ideal for
`localeq.cotangent_weights`. The minimal generators come straight from
the packed cells by the down-step rule: a point g = c + e_b outside λ,
c a cell, generates I_λ minimally iff g - e_b' is a cell for every axis
b' with g_b' > 0. So the ideal needs no glove and no minimalization.

The constructor, `enumerate_partitions` and `pyramid` read r and n by
`multipoly._integer`, and raise PartitionError for a bool or a
non-integer. The constructor checks cells from outside the library; the
cell sets that the enumeration, `canonicalize_S3` and
`Partition.permuted` build are partitions by construction and skip the
check.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import sub
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .groebner import MonomialIdeal
from .multipoly import PackedLayout, RingError, _integer, exponents

Cell = Tuple[int, ...]
AdjacentPair = Tuple[Cell, Cell, int, Optional[int]]  # (p, q, a, b), see adjacent_pairs


def _mono_quot(a: Cell, b: Cell) -> Cell:
    """a - b entrywise: a difference of cells, such as the torus weight
    j - i of the Haiman variable c_i^j or g - c of a cotangent node."""
    return tuple(map(sub, a, b))


def _mono_shift(c: Cell, i: int, delta: int = 1) -> Cell:
    """c + delta * e_i."""
    return c[:i] + (c[i] + delta,) + c[i + 1 :]


class PartitionError(RingError):
    pass


def _int_arg(k, what: str) -> int:
    """k as an int by `multipoly._integer`; PartitionError, saying `what`,
    for a bool or a non-integer."""
    try:
        return _integer(k, what)
    except RingError as e:
        raise PartitionError(*e.args) from None


class Partition:
    """Finite downward-closed subset of Z_{>=0}^r."""

    __slots__ = ("r", "cells", "_ideal", "_packed")

    def __init__(self, r: int, cells: Iterable[Cell]):
        r = _int_arg(r, "r is an integer")
        if r < 0:
            raise PartitionError("r must be >= 0")
        cells_set: FrozenSet[Cell] = frozenset(map(exponents, cells))
        for c in cells_set:
            if len(c) != r:
                raise PartitionError(f"cell {c} has wrong dimension")
            if any(x < 0 for x in c):
                raise PartitionError(f"cell {c} has a negative coordinate")
            for b in range(r):
                if c[b] > 0 and _mono_shift(c, b, -1) not in cells_set:
                    raise PartitionError(f"not downward closed at {c}")
        self.r = r
        self.cells = cells_set
        self._ideal = self._packed = None

    @classmethod
    def _valid(cls, r: int, cells: FrozenSet[Cell]) -> "Partition":
        """The partition of a downward-closed set of int r-tuples, unchecked:
        for cell sets the library has just built."""
        lam = cls.__new__(cls)
        lam.r = r
        lam.cells = cells
        lam._ideal = lam._packed = None
        return lam

    @property
    def n(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> List[Cell]:
        return sorted(self.cells)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.r == other.r and self.cells == other.cells

    def __hash__(self):
        return hash((self.r, self.cells))

    def __repr__(self):
        if self.r == 3:
            return f"Partition3({chain_notation(self)!r})"
        return f"Partition(r={self.r}, n={self.n})"

    def permuted(self, perm: Sequence[int]) -> "Partition":
        """Coordinate permutation: new cell k-th entry is old entry perm[k].

        PartitionError unless perm lists 0..r-1 in some order as integers;
        a bool, which `index` would read as 0 or 1, is not one."""
        try:
            perm = exponents(perm)
        except RingError:
            raise PartitionError(f"{perm!r} is not a permutation of range({self.r})") from None
        if sorted(perm) != list(range(self.r)):
            raise PartitionError(f"{perm} is not a permutation of range({self.r})")
        return Partition._valid(self.r, frozenset(tuple(map(c.__getitem__, perm)) for c in self.cells))


def glove(lam: Partition) -> FrozenSet[Cell]:
    """Points just outside the partition: i not in λ with some i - e_b in λ."""
    out = set()
    for c in lam.cells:
        for b in range(lam.r):
            up = _mono_shift(c, b)
            if up not in lam.cells:
                out.add(up)
    return frozenset(out)


@cache
def _lex_layout(r: int) -> Tuple[PackedLayout, Tuple[int, ...]]:
    """The lex layout of r variables and its packed units e_b. A layout
    never changes, so the ideals of all partitions of one rank share one."""
    lay = PackedLayout(r, "lex")
    return lay, tuple(lay.field(b)[0] for b in range(r))


def ideal_of_partition(lam: Partition) -> MonomialIdeal:
    """I_λ, spanned by the monomials outside λ; the empty partition gives
    the unit ideal.

    A monomial g outside λ is a minimal generator iff each g - e_b with
    g_b > 0 lies in λ, so every minimal generator is some cell plus a
    unit step. The cells are packed once under the lex layout of the
    ideal (one per rank, shared by the ideals of that rank) and kept on
    λ in `_packed`, in the order of `list(lam.cells)`. Each c + e_b that
    is not a cell is tested by its down-steps: a field that is 0 borrows
    and sets a guard bit, and every other down-step must land on a cell.
    The generators, sorted, are an antichain, so the ideal takes them as
    they are.

    Built on the first call for λ and kept on it: later calls return the
    same object."""
    J = lam._ideal
    if J is None:
        lay, units = _lex_layout(lam.r)
        cells = lay.pack_all(list(lam.cells))
        have, guard = set(cells), lay.guard
        gens = []
        for g in {c + e for c in cells for e in units}.difference(have):
            for e in units:
                d = g - e
                if not d & guard and d not in have:
                    break
            else:
                gens.append(g)
        gens.sort()
        lam._packed = cells
        J = lam._ideal = MonomialIdeal._of_antichain(lam.r, lay, gens if cells else [0])
    return J


def adjacent_pairs(points: Iterable[Cell]) -> List[AdjacentPair]:
    """Pairs of points that differ by e_a (axis pairs) or e_a - e_b (exchange pairs).

    Each pair comes oriented as (p, q, a, b): p = q + e_a - e_b for an
    exchange pair, and p = q + e_a with b = None for an axis pair. Pairs
    are listed by their lex-smaller point, then by the larger one; the
    smaller point is q for an axis pair and p for an exchange pair.
    """
    pts = sorted(set(points))
    have = set(pts)
    r = len(pts[0]) if pts else 0
    out: List[AdjacentPair] = []
    for p in pts:
        # the neighbours above p in lex order, listed in that order: the
        # first coordinate that grows runs downwards, and under it each
        # exchange p + e_i - e_a comes before the axis neighbour p + e_i
        for i in reversed(range(r)):
            up = _mono_shift(p, i)
            for a in range(i + 1, r):
                if (q := _mono_shift(up, a, -1)) in have:
                    out.append((p, q, a, i))
            if up in have:
                out.append((up, p, i, None))
    return out


def enumerate_partitions(r: int, n: int) -> List[Partition]:
    """All r-dimensional partitions of size exactly n, deterministically ordered.

    Built as chains of (r-1)-dimensional partitions along the last axis,
    each layer contained in the one below.
    """
    r, n = _int_arg(r, "r is an integer"), _int_arg(n, "n is an integer")
    if r < 1:
        raise PartitionError("r must be >= 1")
    if n < 0:
        raise PartitionError("n must be >= 0")
    if n == 0:
        return [Partition(r, [])]
    if r == 1:
        return [Partition(1, [(i,) for i in range(n)])]

    lower_cache: Dict[int, List[Partition]] = {}

    def lower(m: int) -> List[Partition]:
        if m not in lower_cache:
            lower_cache[m] = enumerate_partitions(r - 1, m)
        return lower_cache[m]

    results = []

    def extend(chain: List[Partition], remaining: int):
        if remaining == 0:
            cells = frozenset(
                c + (z,) for z, layer in enumerate(chain) for c in layer.cells
            )
            results.append(Partition._valid(r, cells))
            return
        prev = chain[-1]
        top = min(remaining, prev.n)
        for m in range(top, 0, -1):
            for lam in lower(m):
                if lam.cells <= prev.cells:
                    extend(chain + [lam], remaining - m)

    for m in range(n, 0, -1):
        for base in lower(m):
            extend([base], n - m)
    del extend  # extend refers to itself through its cell; free it without the cyclic GC

    results.sort(key=lambda p: p.sorted_cells())
    return results


def canonicalize_S3(lam: Partition) -> Tuple[Partition, Tuple[int, ...]]:
    """Lex-smallest cell set among the 6 coordinate permutations (r=3),
    with the first permutation in lex order that gives it."""
    if lam.r != 3:
        raise PartitionError("canonicalize_S3 needs r=3")
    cells, perm = min(
        (sorted([(c[i], c[j], c[k]) for c in lam.cells]), (i, j, k))
        for i, j, k in itertools.permutations(range(3))
    )
    return Partition._valid(3, frozenset(cells)), perm


def pyramid(r: int, n: int) -> Partition:
    """Cells with coordinate sum at most n-1."""
    r, n = _int_arg(r, "r is an integer"), _int_arg(n, "n is an integer")
    cells = [
        c
        for c in itertools.product(*(range(n) for _ in range(r)))
        if sum(c) <= n - 1
    ]
    return Partition(r, cells)


def layers_of(lam: Partition) -> List[Tuple[int, ...]]:
    """2D layers of an r=3 partition, bottom (last coord 0) first, as row tuples."""
    if lam.r != 3:
        raise PartitionError("layers need r=3")
    if not lam.cells:
        return []
    depth = max(c[2] for c in lam.cells) + 1
    out = []
    for z in range(depth):
        level = [(c[0], c[1]) for c in lam.cells if c[2] == z]
        rows = {}
        for x, y in level:
            rows[y] = rows.get(y, 0) + 1
        out.append(tuple(rows[y] for y in sorted(rows)))
    return out


def chain_notation(lam: Partition) -> str:
    """Ascending chain of layer shapes, e.g. '(1) < (2,1)' rendered with ⊂."""
    lays = layers_of(lam)
    if not lays:
        return "()"
    parts = ["(" + ",".join(str(x) for x in rows) + ")" for rows in lays]
    return " ⊂ ".join(reversed(parts))


def parse_chain(text: str) -> Partition:
    """Inverse of chain_notation for r=3 input like '(1) ⊂ (2,1)'."""
    pieces = [p.strip() for p in text.replace("<", "⊂").split("⊂")]
    shapes = []
    for p in pieces:
        if not (p.startswith("(") and p.endswith(")")):
            raise PartitionError(f"bad layer {p!r}")
        body = p[1:-1].strip()
        try:
            rows = tuple(int(x) for x in body.split(",")) if body else ()
        except ValueError:
            raise PartitionError(f"bad layer {p!r}") from None
        if any(x < 1 for x in rows):
            raise PartitionError(f"bad layer {p!r}: row lengths are positive")
        shapes.append(rows)
    shapes.reverse()  # text lists the top layer first
    cells = []
    for z, rows in enumerate(shapes):
        for y, length in enumerate(rows):
            for x in range(length):
                cells.append((x, y, z))
    return Partition(3, cells)
