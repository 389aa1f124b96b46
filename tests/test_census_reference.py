"""The census functions against independent references.

`reference_cotangent` is an independent algorithm for what
`cotangent_weights` computes: a tuple union-find on the Haiman
coordinates, (cell, glove point) pairs in a dict of parents, whose
linear relations are built as tuples of such pairs from the oriented
glove pairs of `adjacent_pairs`, the linear parts of the Haiman
equations. The library works on Hom(I, S/I) instead, with one node per
minimal generator and cell and the relations of the pair syzygies; both
must give the same weights, in order, and the same extra dimension.
`reference_canonical` is a plain lex-min over the six coordinate
permutations of r=3. Random partitions come from a
`hypothesis` strategy that grows downward-closed sets cell by cell, past
the sizes the census enumerates.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hilb.localeq import cotangent_weights
from hilb.partitions import Partition, adjacent_pairs, canonicalize_S3, enumerate_partitions, glove, pyramid


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def down(cell, a):
    return tuple(x - (i == a) for i, x in enumerate(cell))


def reference_relations(lam, glo):
    """Merge edges and kills as tuples of (cell, glove point) coordinates."""
    edges = []
    kills = []
    for p, q, a, b in adjacent_pairs(glo):
        for l in lam.cells:
            terms = [(l, p)] if b is None else []
            if l[a] > 0:
                terms.append((down(l, a), q))
            if b is not None and l[b] > 0:
                terms.append((down(l, b), p))
            if terms:
                target = edges if len(terms) == 2 else kills
                target.append(tuple(terms))
    return edges, kills


def reference_cotangent(lam):
    """(sorted weight tuples, extra dimension) by a union-find on coordinate pairs."""
    if not lam.cells:
        return [], 0
    glo = glove(lam)
    pairs = [(i, j) for i in sorted(lam.cells) for j in sorted(glo)]
    uf = _UnionFind(pairs)
    edges, kills = reference_relations(lam, glo)
    for u, v in edges:
        uf.union(u, v)
    killed = {uf.find(t[0]) for t in kills}
    classes = {}
    for i, j in pairs:
        root = uf.find((i, j))
        if root in killed:
            continue
        w = tuple(y - x for x, y in zip(i, j))
        if classes.setdefault(root, w) != w:
            raise AssertionError("weight not constant on an equivalence class")
    weights = sorted(classes.values())
    return weights, len(weights) - lam.r * lam.n


def reference_canonical(lam):
    """The lex-smallest sorted cell list over all coordinate permutations,
    with the first permutation that reaches it."""
    perms = list(itertools.permutations(range(lam.r)))
    keys = [sorted(tuple(c[p] for p in perm) for c in lam.cells) for perm in perms]
    best = min(keys)
    return best, perms[keys.index(best)]


@st.composite
def partitions(draw, dims=(2, 3, 4), max_cells=12):
    """A partition grown from the empty set by adding one addable cell at a time."""
    r = draw(st.sampled_from(dims))
    n = draw(st.integers(1, max_cells))
    cells = set()
    for _ in range(n):
        candidates = {(0,) * r} | {
            tuple(x + (i == b) for i, x in enumerate(c)) for c in cells for b in range(r)
        }
        addable = sorted(
            c
            for c in candidates - cells
            if all(c[b] == 0 or down(c, b) in cells for b in range(r))
        )
        cells.add(draw(st.sampled_from(addable)))
    return Partition(r, cells)


seeded = settings(derandomize=True, max_examples=60, deadline=None)


def test_cotangent_weights_match_the_tuple_union_find():
    # every census class (r=3 n<=10, r=4 n<=6), with r=2 n<=8 and r=5 n<=4
    classes = [(2, n) for n in range(9)] + [(3, n) for n in range(11)] + [(4, n) for n in range(7)]
    classes += [(5, n) for n in range(5)]
    lams = [lam for r, n in classes for lam in enumerate_partitions(r, n)]
    # 15, 45 and 56 generators: many more generator pairs than any census item
    lams += [pyramid(2, 14), pyramid(3, 8), pyramid(4, 5)]
    for lam in lams:
        ws, extra = cotangent_weights(lam)
        ref, ref_extra = reference_cotangent(lam)
        assert ws == ref
        assert extra == ref_extra
    assert len(lams) == 67 + 1124 + 241 + 67 + 3


@seeded
@given(partitions())
def test_cotangent_weights_are_S_r_equivariant(lam):
    ws, extra = cotangent_weights(lam)
    assert all(type(x) is int for w in ws for x in w)
    assert (ws, extra) == reference_cotangent(lam)
    for perm in itertools.permutations(range(lam.r)):
        pws, pextra = cotangent_weights(lam.permuted(perm))
        assert pextra == extra
        assert pws == sorted(tuple(w[p] for p in perm) for w in ws)


@seeded
@given(partitions(dims=(3,)))
def test_canonicalize_S3_is_the_lex_min_over_the_six_permutations(lam):
    canon, perm = canonicalize_S3(lam)
    cells, ref_perm = reference_canonical(lam)
    assert canon.sorted_cells() == cells
    assert perm == ref_perm
    assert lam.permuted(perm) == canon
