"""Local equations of Hilbert schemes at monomial ideals.

Haiman coordinates c_i^j (i a partition cell, j a glove point), the
quadratic equations attached to adjacent glove pairs, linear-pivot
elimination, the pyramid superpotentials, and the cotangent weights with
the extra dimension, from Hom(I, S/I) on the minimal generators of I.

Every polynomial here is built packed under its ring's grevlex
`PackedLayout`, a monomial as the sum of its variables' packed units,
and read packed: the weight check, and elimination, which keeps the
coefficients as they are. The Haiman equations have `int`
coefficients, and the elimination pivots on them are all units, so the
local equations and the eliminated expressions stay integer. A non-unit
pivot divides exactly through `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import mul, or_
from typing import Dict, List, Sequence, Tuple

from .multipoly import (
    IntTerms,
    Monomial,
    MultiPoly,
    PolyRing,
    RingError,
    Weight,
    _add_shifted,
    _mono_quot,
    _mono_shift,
    _mul_packed,
    packed_weights,
    weight_columns,
)
from .partitions import Cell, Partition, adjacent_pairs, glove, ideal_of_partition, pyramid

HaimanVar = Tuple[Cell, Cell]  # (sub, sup): i in lambda, j in glove


def _var_name(v: HaimanVar) -> str:
    i, j = v
    return "c_{%s}^{%s}" % ("".join(map(str, i)), "".join(map(str, j)))


def var_weight(v: HaimanVar) -> Weight:
    i, j = v
    return Weight(_mono_quot(j, i))


class HaimanPresentation:
    """Variables, their torus weights, and weight-homogeneous equations.

    The ring is that of the first equation, or else of the first
    eliminated expression, when its names are the variables', so that the
    presentation and its polynomials share one ring object; otherwise it
    is a new ring. Construction raises RingError for an equation outside
    the ring of the variables or one that is not weight-homogeneous. For
    the weight check each variable weight is one int of signed fields
    (`packed_weights`, wide enough for the largest term degree), so the
    weight of a term is one exact sum over the nonzero exponents that its
    packed monomial unpacks to.
    """

    def __init__(
        self,
        lam: Partition,
        variables: Sequence[HaimanVar],
        equations: Sequence[MultiPoly],
        eliminated: Dict[HaimanVar, MultiPoly] | None = None,
    ):
        self.lam = lam
        self.variables = list(variables)
        self.equations = list(equations)
        self.eliminated = dict(eliminated or {})
        names = tuple(map(_var_name, self.variables))
        polys = [*self.equations, *self.eliminated.values()]
        # the polynomials' own ring object when it has these names, so that
        # ring checks on them and on `ring.var(k)` are identity tests
        self.ring = polys[0].ring if polys and polys[0].ring.names == names else PolyRing(names)
        for eq in self.equations:
            if eq.ring != self.ring:
                raise RingError("equation outside the presentation ring")
        _check_weight_homogeneous(self.equations, self.weights)

    @property
    def weights(self) -> List[Weight]:
        return [var_weight(v) for v in self.variables]


def _check_weight_homogeneous(equations: Sequence[MultiPoly], weights: Sequence[Weight]):
    """RingError unless every term of each equation has one torus weight."""
    _, columns = weight_columns(weights)
    _, packed = packed_weights(columns, max((eq.total_degree() for eq in equations), default=0))
    for eq in equations:
        exps = eq.ring.layout.unpack_all(eq._pk())
        if len({sum(map(mul, compress(packed, e), compress(e, e))) for e in exps}) > 1:
            raise RingError(f"equation not weight-homogeneous: {eq.render()}")


def haiman_equations(lam: Partition) -> HaimanPresentation:
    """The finite quadratic presentation attached to adjacent glove pairs.

    For k in the partition, k+e_b always lands in the partition or its
    glove, so superscripts either hit the Kronecker-delta convention or
    stay inside the variable set; anything else is a hard error. Each
    term is keyed by its packed monomial, the sum of its variables'
    packed units, so c_u c_v and c_v c_u meet on one key.
    """
    if not lam.cells:
        raise RingError("need a nonempty partition")
    cells = sorted(lam.cells)
    glo = sorted(glove(lam))
    glo_set = set(glo)
    variables: List[HaimanVar] = [(i, j) for i in cells for j in glo]
    ring = PolyRing([_var_name(v) for v in variables])
    unit = {v: ring.layout.field(k)[0] for k, v in enumerate(variables)}  # the packed variable
    shifted: Dict[int, List[Tuple[Cell, Cell, bool]]] = {}  # b -> (k, k + e_b, in lam) per cell

    def pair_product_terms(terms: IntTerms, sup1: Cell, direction: int, l: Cell, sign: int):
        """Accumulate sign * sum_k c_k^{sup1} c_l^{k+e_direction}."""
        steps = shifted.get(direction)
        if steps is None:
            ups = [_mono_shift(k, direction) for k in cells]
            steps = shifted[direction] = [(k, m, m in lam.cells) for k, m in zip(cells, ups)]
        for k, m, inside in steps:
            if inside:
                if m == l:
                    key = unit[(k, sup1)]
                    terms[key] = terms.get(key, 0) + sign
            elif m in glo_set:
                key = unit[(k, sup1)] + unit[(l, m)]
                terms[key] = terms.get(key, 0) + sign
            else:
                raise RingError(f"superscript {m} escapes the glove")

    equations: List[MultiPoly] = []
    for p, q, a, b in adjacent_pairs(glo):
        for l in cells:
            if b is None:
                # p = q + e_a: c_l^p = sum_k c_k^q c_l^{k+e_a}
                terms: IntTerms = {unit[(l, p)]: 1}
                pair_product_terms(terms, q, a, l, -1)
            else:
                # p = q + e_a - e_b: both expansions of c_l^{q+e_a} = c_l^{p+e_b} agree
                terms = {}
                pair_product_terms(terms, q, a, l, 1)
                pair_product_terms(terms, p, b, l, -1)
            eq = MultiPoly._of_packed(ring, {m: c for m, c in terms.items() if c})
            if eq:
                equations.append(eq)

    return HaimanPresentation(lam, variables, equations)


def simple_eliminate(pres: HaimanPresentation) -> HaimanPresentation:
    """Two elimination passes: deep superscripts first, then everything.

    A variable x is eliminated when some equation reads a*x - f with f
    free of x; pivots are chosen by smallest variable index, then
    smallest equation index. It works on each equation's packed terms,
    under the ring's layout, `PackedLayout(nvars, "grevlex")`. So x's
    exponent is a shift and a mask, the pivot test is a lookup of the
    packed x, and a product is an int add with a guard test: a degree of
    2^15 or more raises RingError. A unit pivot a = +-1 sends x to a*f
    with no division, so integer equations stay integer; any other pivot
    divides exactly through Fraction. Each equation and each eliminated
    expression keeps its support mask, the bitwise or of its packed
    monomials, so whether it holds x is one mask test. The pivot is
    applied by rewriting only the entries that hold x, and in them only
    the terms that hold x: a term c*x^k*m becomes c*m*(f/a)^k, with the
    powers of f/a computed once per pivot, and every other term is copied
    unchanged. At the end, equal equations are dropped on their packed
    terms, whether an eliminated variable is left is one mask test per
    monomial, and the survivors are renumbered and packed under the new
    ring's layout.

    The pivot rule reads the variable order, so the survivors depend on
    the orientation of the partition, not only on its S_r-class: the
    2x2 square at r=3, n=4 keeps 13 variables and 23 equations in the
    (x, y) plane, 13 and 21 in (x, z), and 14 and 27 in (y, z). A
    tabulation per class must not read these counts as invariants.
    """
    lam = pres.lam
    variables = pres.variables
    nvars = len(variables)
    min_glo = set(ideal_of_partition(lam).gens)
    lay = pres.ring.layout
    guard = lay.guard
    alive = [True] * nvars
    eqs: List[IntTerms] = [eq._pk() for eq in pres.equations]  # replaced, never mutated
    masks = [reduce(or_, eq, 0) for eq in eqs]  # support mask of each equation
    subs: Dict[int, IntTerms] = {}  # eliminated var index -> expression (full ring)
    sub_masks: Dict[int, int] = {}

    def substitute_everywhere(x: int, expr: IntTerms):
        unit_x, xmask, shift = lay.field(x)
        powers: List[IntTerms] = [{0: 1}]  # powers[k] is expr^k; the packed monomial 1 is 0

        def rewrite(p: IntTerms) -> IntTerms:
            out: IntTerms = {}
            for e, c in p.items():
                k = (e & xmask) >> shift
                if not k:  # copied as it is; a sum can only vanish on a term already there
                    c += out.get(e, 0)
                    if c:
                        out[e] = c
                    else:
                        del out[e]
                    continue
                while len(powers) <= k:
                    powers.append(_mul_packed(powers[-1], expr, guard))
                _add_shifted(out, powers[k], e - k * unit_x, c, guard)
            return out

        for k, mask in enumerate(masks):
            if mask & xmask:
                eqs[k] = rewrite(eqs[k])
                masks[k] = reduce(or_, eqs[k], 0)
        for v, mask in sub_masks.items():
            if mask & xmask:
                subs[v] = rewrite(subs[v])
                sub_masks[v] = reduce(or_, subs[v], 0)

    def run_pass(targets: List[int]):
        while True:
            found = None
            for x in targets:
                if not alive[x]:
                    continue
                unit_x, xmask, _ = lay.field(x)
                for qi, eq in enumerate(eqs):
                    a = eq.get(unit_x)
                    if a is not None and not any(e & xmask for e in eq if e != unit_x):
                        found = (x, unit_x, qi, a)
                        break
                if found:
                    break
            if not found:
                return
            x, unit_x, qi, a = found
            # x = f/a with f = a*x - eq; 1/a = a for a unit
            inv = a if a == 1 or a == -1 else Fraction(1, a)
            expr = {e: -c * inv for e, c in eqs[qi].items() if e != unit_x}
            eqs[qi] = {}
            masks[qi] = 0
            alive[x] = False
            subs[x] = expr
            sub_masks[x] = reduce(or_, expr, 0)
            substitute_everywhere(x, expr)

    deep = [k for k, (i, j) in enumerate(variables) if j not in min_glo]
    run_pass(deep)
    run_pass(list(range(nvars)))

    survivors = [k for k in range(nvars) if alive[k]]
    new_vars = [variables[k] for k in survivors]
    new_ring = PolyRing([_var_name(v) for v in new_vars])
    new_lay = new_ring.layout
    gone = reduce(or_, (lay.field(k)[1] for k in range(nvars) if not alive[k]), 0)

    def project(p: IntTerms) -> MultiPoly:
        if any(m & gone for m in p):
            raise RingError("eliminated variable reappeared")
        monos = [tuple([e[k] for k in survivors]) for e in lay.unpack_all(p)]
        return MultiPoly._of_packed(new_ring, dict(zip(new_lay.pack_all(monos), p.values())))

    # the projection is injective on terms free of `gone`, so equal
    # equations are equal before it
    new_eqs = []
    seen = set()
    for eq in eqs:
        key = frozenset(eq.items())
        if eq and key not in seen:
            seen.add(key)
            new_eqs.append(project(eq))
    eliminated = {variables[k]: project(expr) for k, expr in subs.items()}
    return HaimanPresentation(lam, new_vars, new_eqs, eliminated)


def step0(lam: Partition) -> HaimanPresentation:
    """Raw equations followed by simple elimination."""
    return simple_eliminate(haiman_equations(lam))


def cotangent_weights(lam: Partition) -> Tuple[List[Monomial], int]:
    """Weights of a cotangent basis at the monomial ideal, plus extra dimension.

    The weights are integral, so they come as sorted tuples of ints, one
    per basis vector; `Weight(w)` is the torus weight of the tuple w.

    The tangent space at I = I_lambda is Hom_S(I, S/I). A homomorphism phi
    is fixed by phi(g) = sum_c a_{g,c} x^c on the minimal generators g, so
    its coordinates are the nodes (g, c), c a cell, of cotangent weight
    g - c. The pair syzygies (L/g) g = (L/h) h, L = lcm(g, h), generate all
    syzygies, and each cell c' relates the coefficients of x^c' on both
    sides: with u = c' - L/g and v = c' - L/h, a_{g,u} = a_{h,v} when both
    are cells, and the one that is a cell is 0 otherwise. Both nodes have
    weight L - c'. On the packed lex ints of `ideal_of_partition(lam)`
    (the I_λ kept on lam, which later callers share), L/g is `colon(h, g)`
    and u is a cell iff it sets no `guard` bit; a coprime pair relates
    nothing, as L/g = h. A pair is skipped when a generator k divides L
    and lcm(g, k), lcm(h, k) are proper divisors of L: its syzygy is a
    monomial combination of theirs (the chain criterion). Each class of the union-find (a parent list with path
    halving) that holds no killed node gives its weight; extra dimension
    is the count minus r * |lambda|. The criterion costs (generators)^3
    int tests, and spares the cell scan of most pairs of a large partition
    (it keeps 273 of the 5,460 pairs of the r=3 pyramid of 455 cells).
    """
    if not lam.cells:
        return [], 0
    J = ideal_of_partition(lam)
    lay, gens = J.layout, J.packed
    colon, guard = lay.colon, lay.guard
    cell_tuples = list(lam.cells)
    cells = lay.pack_all(cell_tuples)
    size = len(cells)
    row = {c: k for k, c in enumerate(cells)}  # node (gens[a], c) is a * size + row[c]
    parent = list(range(len(gens) * size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    quot = [[0] * len(gens) for _ in gens]  # quot[a][b] = lcm(g_a, g_b) / g_a
    for a, g in enumerate(gens):
        for b in range(a + 1, len(gens)):
            quot[a][b] = dg = colon(gens[b], g)
            quot[b][a] = g + dg - gens[b]
    kills = []
    for a, qa in enumerate(quot):
        for b in range(a + 1, len(gens)):
            qb, dg = quot[b], qa[b]  # L/g, where L = lcm(g, h) = g + dg
            dh = qb[a]  # L/h
            if dg == gens[b]:  # coprime: L/g = h and L/h = g divide no cell
                continue
            # k | L iff qa[k] | dg; lcm(g, k) != L iff qa[k] != dg; k = a, b fail
            if any(not (dg - p) & guard and p != dg and q != dh for p, q in zip(qa, qb)):
                continue
            for c in cells:
                u, v = c - dg, c - dh
                if u & guard:
                    if not v & guard:
                        kills.append(b * size + row[v])
                elif v & guard:
                    kills.append(a * size + row[u])
                else:
                    x, y = find(a * size + row[u]), find(b * size + row[v])
                    if x != y:
                        parent[x] = y
    killed = {find(x) for x in kills}
    gen_tuples = lay.unpack_all(gens)
    weights = sorted(
        _mono_quot(gen_tuples[x // size], cell_tuples[x % size])
        for x, p in enumerate(parent)
        if p == x and x not in killed  # one root per class
    )
    return weights, len(weights) - lam.r * lam.n


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
    ring = PolyRing([_var_name(v) for v in variables])
    unit = {v: ring.layout.field(k)[0] for k, v in enumerate(variables)}  # the packed variable
    tops = sorted({i for i, _ in variables})

    def add(t: IntTerms, i: Cell, j: Cell, k: Cell, d1: int, d2: int, d3: int, sign: int):
        m = unit[(j, _mono_shift(i, d1))] + unit[(k, _mono_shift(j, d2))] + unit[(i, _mono_shift(k, d3))]
        t[m] = t.get(m, 0) + sign

    terms: IntTerms = {}
    for i in tops:
        for j in tops:
            for k in tops:
                add(terms, i, j, k, 2, 0, 1, -1)
                add(terms, i, j, k, 2, 1, 0, 1)
    F = MultiPoly._of_packed(ring, {m: c for m, c in terms.items() if c})
    return F, variables


def jacobian_ideal(F: MultiPoly) -> List[MultiPoly]:
    """All nonzero partial derivatives."""
    out = []
    for k in range(F.ring.n):
        d = F.derivative(k)
        if d:
            out.append(d)
    return out
