"""Local equations of Hilbert schemes at monomial ideals.

Haiman coordinates c_i^j (i a partition cell, j a glove point), the
quadratic equations attached to adjacent glove pairs, linear-pivot
elimination, cotangent-space weights with the extra dimension, and the
pyramid superpotentials.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .multipoly import (
    ONE,
    ZERO,
    MultiPoly,
    PolyRing,
    RingError,
    Weight,
    _mono_mul,
    _mono_weight,
    weight_columns,
)
from .partitions import Cell, Partition, adjacent_pairs, glove, min_generators, pyramid, shift_cell

HaimanVar = Tuple[Cell, Cell]  # (sub, sup): i in lambda, j in glove


def _var_name(v: HaimanVar) -> str:
    i, j = v
    return "c_{%s}^{%s}" % ("".join(map(str, i)), "".join(map(str, j)))


def var_weight(v: HaimanVar) -> Weight:
    i, j = v
    return Weight.of(*(a - b for a, b in zip(j, i)))


class HaimanPresentation:
    """Variables, their torus weights, and weight-homogeneous equations."""

    def __init__(
        self,
        lam: Partition,
        variables: Sequence[HaimanVar],
        equations: Sequence[MultiPoly],
        eliminated: Dict[HaimanVar, MultiPoly] | None = None,
    ):
        self.lam = lam
        self.variables = list(variables)
        self.ring = PolyRing([_var_name(v) for v in self.variables])
        self.equations = list(equations)
        self.eliminated = dict(eliminated or {})
        _, columns = weight_columns(self.weights)
        for eq in self.equations:
            if eq.ring != self.ring:
                raise RingError("equation outside the presentation ring")
            _assert_weight_homogeneous(eq, columns)

    @property
    def weights(self) -> List[Weight]:
        return [var_weight(v) for v in self.variables]

    def var_index(self, v: HaimanVar) -> int:
        return self.variables.index(v)


def _assert_weight_homogeneous(p: MultiPoly, columns: Sequence[Tuple[int, ...]]):
    """`columns` are the variable weights in the form `weight_columns` returns."""
    if len({_mono_weight(e, columns) for e in p.terms}) > 1:
        raise AssertionError(f"equation not weight-homogeneous: {p.render()}")


def haiman_equations(lam: Partition) -> HaimanPresentation:
    """The finite quadratic presentation attached to adjacent glove pairs.

    For k in the partition, k+e_b always lands in the partition or its
    glove, so superscripts either hit the Kronecker-delta convention or
    stay inside the variable set; anything else is a hard error.
    """
    if not lam.cells:
        raise RingError("need a nonempty partition")
    r = lam.r
    cells = sorted(lam.cells)
    glo = sorted(glove(lam))
    glo_set = set(glo)
    variables: List[HaimanVar] = [(i, j) for i in cells for j in glo]
    index = {v: k for k, v in enumerate(variables)}
    ring = PolyRing([_var_name(v) for v in variables])
    nvars = len(variables)

    def unit(k: int) -> Tuple[int, ...]:
        e = [0] * nvars
        e[k] = 1
        return tuple(e)

    def pair_product_terms(terms: Dict, sup1: Cell, direction: int, l: Cell, sign: int):
        """Accumulate sign * sum_k c_k^{sup1} c_l^{k+e_direction}."""
        for k in cells:
            m = shift_cell(k, direction)
            if m in lam.cells:
                if m == l:
                    e = unit(index[(k, sup1)])
                    terms[e] = terms.get(e, ZERO) + sign
            elif m in glo_set:
                e1 = unit(index[(k, sup1)])
                e2 = unit(index[(l, m)])
                e = _mono_mul(e1, e2)
                terms[e] = terms.get(e, ZERO) + sign
            else:
                raise AssertionError(f"superscript {m} escapes the glove")

    equations: List[MultiPoly] = []
    for p, q in adjacent_pairs(glo):
        d = tuple(x - y for x, y in zip(p, q))
        pos = [k for k, x in enumerate(d) if x > 0]
        neg = [k for k, x in enumerate(d) if x < 0]
        if len(pos) == 1 and not neg:
            # p = q + e_b: c_l^p = sum_k c_k^q c_l^{k+e_b}
            b = pos[0]
            for l in cells:
                terms: Dict = {}
                e = unit(index[(l, p)])
                terms[e] = terms.get(e, ZERO) + 1
                pair_product_terms(terms, q, b, l, -1)
                eq = MultiPoly(ring, {k: v for k, v in terms.items() if v})
                if eq:
                    equations.append(eq)
        elif len(neg) == 1 and not pos:
            b = neg[0]
            for l in cells:
                terms = {}
                e = unit(index[(l, q)])
                terms[e] = terms.get(e, ZERO) + 1
                pair_product_terms(terms, p, b, l, -1)
                eq = MultiPoly(ring, {k: v for k, v in terms.items() if v})
                if eq:
                    equations.append(eq)
        else:
            # p - q = e_a - e_b: both expansions of c_l^{q+e_a} = c_l^{p+e_b} agree
            a, b = pos[0], neg[0]
            for l in cells:
                terms = {}
                pair_product_terms(terms, q, a, l, 1)
                pair_product_terms(terms, p, b, l, -1)
                eq = MultiPoly(ring, {k: v for k, v in terms.items() if v})
                if eq:
                    equations.append(eq)

    return HaimanPresentation(lam, variables, equations)


def _linear_pivot(eq: MultiPoly, var_idx: int):
    """Coefficient a if eq == a*x + (terms without x), else None."""
    a = None
    nvars = eq.ring.n
    for e, c in eq.terms.items():
        if e[var_idx]:
            only_x = e[var_idx] == 1 and all(
                x == 0 for k, x in enumerate(e) if k != var_idx
            )
            if not only_x or a is not None:
                return None
            a = c
    return a


def simple_eliminate(pres: HaimanPresentation) -> HaimanPresentation:
    """Two elimination passes: deep superscripts first, then everything.

    A variable x is eliminated when some equation reads a*x - f with f
    free of x; pivots are chosen by smallest variable index, then
    smallest equation index. The pivot x -> f/a is applied by rewriting
    only the terms that hold x: a term c*x^k*m becomes c*m*(f/a)^k, with
    the powers of f/a computed once per pivot, and every other term is
    copied unchanged. The survivors are then renumbered by re-indexing
    each exponent tuple. Purely polynomial: no fractions appear.
    """
    lam = pres.lam
    ring = pres.ring
    variables = pres.variables
    nvars = len(variables)
    min_glo = set(min_generators(lam))
    alive = [True] * nvars
    eqs: List[MultiPoly] = list(pres.equations)
    subs: Dict[int, MultiPoly] = {}  # eliminated var index -> expression (full ring)

    def substitute_everywhere(x: int, expr: MultiPoly):
        powers = [ring.const(1)]

        def rewrite(p: MultiPoly) -> MultiPoly:
            out = {}
            for e, c in p.terms.items():
                k = e[x]
                if not k:
                    image = ((e, c),)
                else:
                    while len(powers) <= k:
                        powers.append(powers[-1] * expr)
                    m = e[:x] + (0,) + e[x + 1:]
                    image = ((_mono_mul(m, f), c * d) for f, d in powers[k].terms.items())
                for f, d in image:
                    nc = out.get(f)
                    if nc is None:
                        out[f] = d
                    else:
                        nc += d
                        if nc:
                            out[f] = nc
                        else:
                            del out[f]
            return MultiPoly(ring, out)

        for k in range(len(eqs)):
            if any(e[x] for e in eqs[k].terms):
                eqs[k] = rewrite(eqs[k])
        for v in subs:
            if any(e[x] for e in subs[v].terms):
                subs[v] = rewrite(subs[v])

    def run_pass(targets: List[int]):
        while True:
            found = None
            for x in targets:
                if not alive[x]:
                    continue
                for qi, eq in enumerate(eqs):
                    if not eq:
                        continue
                    a = _linear_pivot(eq, x)
                    if a is not None:
                        found = (x, qi, a)
                        break
                if found:
                    break
            if not found:
                return
            x, qi, a = found
            eq = eqs[qi]
            expr = (ring.monomial(tuple(1 if k == x else 0 for k in range(nvars))) * a - eq) * (
                ONE / a
            )
            eqs[qi] = ring.zero()
            alive[x] = False
            subs[x] = expr
            substitute_everywhere(x, expr)

    deep = [k for k, (i, j) in enumerate(variables) if j not in min_glo]
    run_pass(deep)
    run_pass(list(range(nvars)))

    survivors = [k for k in range(nvars) if alive[k]]
    new_vars = [variables[k] for k in survivors]
    new_ring = PolyRing([_var_name(v) for v in new_vars])

    def project(p: MultiPoly) -> MultiPoly:
        out = {}
        for e, c in p.terms.items():
            f = tuple([e[k] for k in survivors])
            if sum(f) != sum(e):
                raise AssertionError("eliminated variable reappeared")
            out[f] = c
        return MultiPoly(new_ring, out)

    new_eqs = []
    seen = set()
    for eq in eqs:
        if not eq:
            continue
        q = project(eq)
        if q and frozenset(q.terms.items()) not in seen:
            seen.add(frozenset(q.terms.items()))
            new_eqs.append(q)
    eliminated = {variables[k]: project(expr) for k, expr in subs.items()}
    return HaimanPresentation(lam, new_vars, new_eqs, eliminated)


def step0(lam: Partition) -> HaimanPresentation:
    """Raw equations followed by simple elimination."""
    return simple_eliminate(haiman_equations(lam))


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


def _linear_part_relations(lam: Partition):
    """Linear parts of the adjacency equations, as merge edges and kills.

    Each equation contributes at most two linear monomials (the delta
    hits of its quadratic sums, plus the head variable for an axis
    pair).  Two surviving terms identify a pair of coordinates, a single
    surviving term kills one; a term whose subscript leaves the positive
    orthant is absent.  Works directly on cell data, without building
    the polynomial ring.
    """
    cells = set(lam.cells)
    glo = set(glove(lam))
    edges = []
    kills = []
    for p, q in adjacent_pairs(sorted(glo)):
        diff = tuple(x - y for x, y in zip(p, q))
        if sum(abs(x) for x in diff) == 1:
            if sum(diff) < 0:
                p, q, diff = q, p, tuple(-x for x in diff)
            b = diff.index(1)
            for l in cells:
                terms = [(l, p)]
                if l[b] > 0:
                    terms.append((shift_cell(l, b, -1), q))
                target = edges if len(terms) == 2 else kills
                target.append(tuple(terms))
        else:
            a = diff.index(1)
            b = diff.index(-1)
            for l in cells:
                terms = []
                if l[a] > 0:
                    terms.append((shift_cell(l, a, -1), q))
                if l[b] > 0:
                    terms.append((shift_cell(l, b, -1), p))
                if terms:
                    target = edges if len(terms) == 2 else kills
                    target.append(tuple(terms))
    return edges, kills


def cotangent_weights(lam: Partition) -> Tuple[List[Weight], int]:
    """Weights of a cotangent basis at the monomial ideal, plus extra dimension.

    Coordinates c_i^j are identified along two-term linear parts of the
    adjacency equations and whole classes containing a one-term linear
    part are deleted; each surviving class contributes its common weight
    j - i. Extra dimension is the count minus r * |lambda|.
    """
    if not lam.cells:
        return [], 0
    r = lam.r
    glo = glove(lam)
    pairs = [(i, j) for i in sorted(lam.cells) for j in sorted(glo)]
    uf = _UnionFind(pairs)
    edges, kills = _linear_part_relations(lam)
    for u, v in edges:
        uf.union(u, v)
    killed = {uf.find(t[0]) for t in kills}
    classes = {}
    for (i, j) in pairs:
        root = uf.find((i, j))
        if root in killed:
            continue
        w = var_weight((i, j))
        if root in classes:
            if classes[root] != w:
                raise AssertionError("weight not constant on an equivalence class")
        else:
            classes[root] = w
    weights = sorted(classes.values(), key=lambda w: w.sort_key())
    return weights, len(weights) - r * lam.n


def extra_dimension(lam: Partition) -> int:
    return cotangent_weights(lam)[1]


def pyramid_layer_vars(r: int, n: int) -> List[HaimanVar]:
    top = sorted(c for c in pyramid(r, n).cells if sum(c) == n - 1)
    glo = sorted(glove(pyramid(r, n)))
    return [(i, j) for i in top for j in glo]


def pyramid_potential(n: int) -> Tuple[MultiPoly, List[HaimanVar]]:
    """The cubic superpotential for the r=3 pyramid of height n.

    Variables are c_i^j with |i| = n-1 and |j| = n. Each cyclic product
    walks the three axis directions in one of the two orientations; the
    orientations enter with opposite signs.
    """
    if n < 2:
        raise RingError("pyramid potential needs n >= 2")
    variables = pyramid_layer_vars(3, n)
    index = {v: k for k, v in enumerate(variables)}
    ring = PolyRing([_var_name(v) for v in variables])
    tops = sorted({i for i, _ in variables})

    def add(t: Dict, i: Cell, j: Cell, k: Cell, d1: int, d2: int, d3: int, sign: int):
        v1 = (j, shift_cell(i, d1))
        v2 = (k, shift_cell(j, d2))
        v3 = (i, shift_cell(k, d3))
        e = [0] * len(variables)
        for v in (v1, v2, v3):
            e[index[v]] += 1
        e = tuple(e)
        t[e] = t.get(e, ZERO) + sign

    terms: Dict = {}
    for i in tops:
        for j in tops:
            for k in tops:
                add(terms, i, j, k, 2, 0, 1, -1)
                add(terms, i, j, k, 2, 1, 0, 1)
    F = MultiPoly(ring, {e: c for e, c in terms.items() if c})
    return F, variables


def jacobian_ideal(F: MultiPoly) -> List[MultiPoly]:
    """All nonzero partial derivatives."""
    out = []
    for k in range(F.ring.n):
        d = F.derivative(k)
        if d:
            out.append(d)
    return out
