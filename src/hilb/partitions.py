"""r-dimensional partitions and their monomial ideals.

A partition is a finite downward-closed set of lattice points in
Z_{>=0}^r. For r=3 these are plane partitions; layers along the last
axis give the ascending-chain notation (1) < (2,1) used for display.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .groebner import MonomialIdeal
from .multipoly import RingError

Cell = Tuple[int, ...]


class PartitionError(RingError):
    pass


def shift_cell(c: Cell, b: int, delta: int = 1) -> Cell:
    """c + delta * e_b."""
    return c[:b] + (c[b] + delta,) + c[b + 1 :]


class Partition:
    """Finite downward-closed subset of Z_{>=0}^r."""

    __slots__ = ("r", "cells")

    def __init__(self, r: int, cells: Iterable[Cell]):
        cells_set: FrozenSet[Cell] = frozenset(tuple(int(x) for x in c) for c in cells)
        for c in cells_set:
            if len(c) != r:
                raise PartitionError(f"cell {c} has wrong dimension")
            if any(x < 0 for x in c):
                raise PartitionError(f"cell {c} has a negative coordinate")
            for b in range(r):
                if c[b] > 0 and shift_cell(c, b, -1) not in cells_set:
                    raise PartitionError(f"not downward closed at {c}")
        self.r = r
        self.cells = cells_set

    @property
    def n(self) -> int:
        return len(self.cells)

    def sorted_cells(self) -> List[Cell]:
        return sorted(self.cells)

    def __contains__(self, c: Cell) -> bool:
        return tuple(c) in self.cells

    def __eq__(self, other):
        return isinstance(other, Partition) and self.r == other.r and self.cells == other.cells

    def __hash__(self):
        return hash((self.r, self.cells))

    def __repr__(self):
        if self.r == 3:
            return f"Partition3({chain_notation(self)!r})"
        return f"Partition(r={self.r}, n={self.n})"

    def permuted(self, perm: Sequence[int]) -> "Partition":
        """Coordinate permutation: new cell k-th entry is old entry perm[k]."""
        return Partition(self.r, [tuple(c[p] for p in perm) for c in self.cells])

    def to_json(self) -> str:
        return json.dumps({"dim": self.r, "cells": [list(c) for c in self.sorted_cells()]})

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        data = json.loads(text)
        return cls(int(data["dim"]), [tuple(c) for c in data["cells"]])


def glove(lam: Partition) -> FrozenSet[Cell]:
    """Points just outside the partition: i not in λ with some i - e_b in λ."""
    out = set()
    for c in lam.cells:
        for b in range(lam.r):
            up = shift_cell(c, b)
            if up not in lam.cells:
                out.add(up)
    return frozenset(out)


def min_generators(lam: Partition) -> List[Cell]:
    """Minimal monomial generators of I_λ: minimal points outside λ."""
    if not lam.cells:
        return [(0,) * lam.r]
    gens = []
    for g in glove(lam):
        ok = True
        for b in range(lam.r):
            if g[b] > 0 and shift_cell(g, b, -1) not in lam.cells:
                ok = False
                break
        if ok:
            gens.append(g)
    return sorted(gens)


def ideal_of_partition(lam: Partition) -> MonomialIdeal:
    return MonomialIdeal(lam.r, min_generators(lam))


def partition_of_ideal(I: MonomialIdeal) -> Partition:
    """Inverse of ideal_of_partition; errors on infinite colength."""
    r = I.nvars
    bounds = []
    for b in range(r):
        pure = [g[b] for g in I.gens if all(x == 0 for i, x in enumerate(g) if i != b)]
        if not pure:
            raise PartitionError(f"infinite colength: no pure power of variable {b + 1}")
        bounds.append(min(pure))
    cells = []
    for c in itertools.product(*(range(k) for k in bounds)):
        if not I.contains(c):
            cells.append(c)
    return Partition(r, cells)


def adjacent_pairs(points: Iterable[Cell]) -> List[Tuple[Cell, Cell]]:
    """Unordered pairs with difference e_b or e_a - e_b."""
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            d = [x - y for x, y in zip(p, q)]
            nz = [x for x in d if x]
            if not all(abs(x) == 1 for x in nz):
                continue
            if len(nz) == 1 or (len(nz) == 2 and sum(nz) == 0):
                out.append((p, q))
    return out


def _partitions_1d(n: int) -> List[Partition]:
    return [Partition(1, [(i,) for i in range(n)])]


def enumerate_partitions(r: int, n: int) -> List[Partition]:
    """All r-dimensional partitions of size exactly n, deterministically ordered.

    Built as chains of (r-1)-dimensional partitions along the last axis,
    each layer contained in the one below.
    """
    if r < 1:
        raise PartitionError("r must be >= 1")
    if n < 0:
        raise PartitionError("n must be >= 0")
    if n == 0:
        return [Partition(r, [])]
    if r == 1:
        return _partitions_1d(n)

    lower_cache: Dict[int, List[Partition]] = {}

    def lower(m: int) -> List[Partition]:
        if m not in lower_cache:
            lower_cache[m] = enumerate_partitions(r - 1, m)
        return lower_cache[m]

    results = []

    def extend(chain: List[Partition], remaining: int):
        if remaining == 0:
            cells = [
                c + (z,) for z, layer in enumerate(chain) for c in layer.cells
            ]
            results.append(Partition(r, cells))
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

    results.sort(key=lambda p: p.sorted_cells())
    return results


def is_borel(
    lam: Partition,
    orders: Optional[Iterable[Tuple[int, ...]]] = None,
) -> Tuple[bool, Tuple[int, ...] | None]:
    """Borel test over variable orders; returns a witness order.

    By default all r! orders are tried. The witness (i_1, ..., i_r)
    lists 0-based variable indices from smallest to largest; moving a
    factor to a smaller variable must stay in the ideal. Exchanges are
    checked on all monomials of I_λ up to the maximal generator degree.
    """
    r = lam.r
    gens = min_generators(lam)
    maxdeg = max((sum(g) for g in gens), default=0)
    monomials = [
        m
        for m in itertools.product(*(range(maxdeg + 1) for _ in range(r)))
        if sum(m) <= maxdeg and m not in lam.cells
    ]
    if orders is None:
        orders = itertools.permutations(range(r))
    for order in orders:
        rank = {v: k for k, v in enumerate(order)}
        ok = True
        for m in monomials:
            for j in range(r):
                if not m[j]:
                    continue
                for i in range(r):
                    if rank[i] < rank[j] and shift_cell(shift_cell(m, j, -1), i) in lam.cells:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True, order
    return False, None


def canonicalize_S3(lam: Partition) -> Tuple[Partition, Tuple[int, ...]]:
    """Lex-smallest cell set among the 6 coordinate permutations (r=3)."""
    if lam.r != 3:
        raise PartitionError("canonicalize_S3 needs r=3")
    best = None
    best_perm = None
    for perm in itertools.permutations(range(3)):
        cand = lam.permuted(perm)
        key = cand.sorted_cells()
        if best is None or key < best.sorted_cells():
            best = cand
            best_perm = perm
    return best, best_perm


def pyramid(r: int, n: int) -> Partition:
    """Cells with coordinate sum at most n-1."""
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
        rows = tuple(int(x) for x in body.split(",")) if body else ()
        shapes.append(rows)
    shapes.reverse()  # text lists the top layer first
    cells = []
    for z, rows in enumerate(shapes):
        for y, length in enumerate(rows):
            for x in range(length):
                cells.append((x, y, z))
    return Partition(3, cells)
