"""The four workloads: census, eliminate, groebner and membership.

Each workload builds its inputs from the seed in `setup`, returns the
items of one pass from `begin_pass` (timed), runs one item through the
library in `run_item` (timed), and checks outputs exactly in
`check_item` and `check_pass` (untimed). Every library call is wrapped
in a span named after the module it enters.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# OEIS A000219 (plane partitions) and A000293 (solid partitions), n = 1, 2, ...
PARTITION_COUNTS = {
    3: (1, 3, 6, 13, 24, 48, 86, 160, 282, 500),
    4: (1, 4, 10, 26, 59, 140),
}

# (1) < (2,1) and (1) < (3,1) as cell lists; the layer (1) sits at z = 1.
CELLS_121 = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
CELLS_131 = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1))


def load_hilb() -> SimpleNamespace:
    """Import hilb afresh, so that each repeated set-up pays for the import."""
    for name in [m for m in sys.modules if m == "hilb" or m.startswith("hilb.")]:
        del sys.modules[name]
    mods = ("partitions", "localeq", "multipoly", "groebner", "kpoly")
    return SimpleNamespace(**{m: importlib.import_module("hilb." + m) for m in mods})


def canonical_cells(cells) -> Tuple[Tuple[int, ...], ...]:
    """Lex-smallest sorted cell tuple over the six axis permutations."""
    return min(
        tuple(sorted(tuple(c[p] for p in perm) for c in cells))
        for perm in itertools.permutations(range(3))
    )


def monomial_kpoly(cells, r: int) -> Dict[Tuple[int, ...], int]:
    """prod_i (1 - t_i) * sum_{c in cells} t^c, as exponent -> coefficient."""
    terms: Dict[Tuple[int, ...], int] = {}
    for shift in itertools.product((0, 1), repeat=r):
        sign = -1 if sum(shift) % 2 else 1
        for c in cells:
            e = tuple(a + b for a, b in zip(c, shift))
            terms[e] = terms.get(e, 0) + sign
    return {e: c for e, c in terms.items() if c}


def laurent_terms(K) -> Dict[Tuple[int, ...], int] | None:
    """Integer-lattice terms of a LaurentPoly, or None if any exponent is fractional."""
    if any(w.scale != 1 for w in K.terms):
        return None
    return {w.nums: c for w, c in K.terms.items()}


def permuted_gens(h, ring, gens, perm: Sequence[int]):
    """The generators in the ring whose k-th variable is the old variable perm[k]."""
    new_ring = h.multipoly.PolyRing([ring.names[p] for p in perm])
    new_gens = [
        h.multipoly.MultiPoly(new_ring, {tuple(e[p] for p in perm): c for e, c in g.terms.items()})
        for g in gens
    ]
    return new_ring, new_gens


def enumerate_classes(h, classes, tr) -> List[Tuple[int, int, object]]:
    """(r, n, partition) for every partition of the given (r, n) classes."""
    items = []
    for r, n in classes:
        with tr.span("partitions.enumerate") as s:
            lams = h.partitions.enumerate_partitions(r, n)
        s.add(items=len(lams))
        items += [(r, n, lam) for lam in lams]
    return items


class Census:
    """Singular-locus survey over all r=3, n<=10 and r=4, n<=6 partitions."""

    name = "census"
    classes = [(3, n) for n in range(1, 11)] + [(4, n) for n in range(1, 7)]

    def setup(self, h, seed: int, tr):
        W = h.multipoly.Weight
        unit = {r: [W.of(*(1 if i == b else 0 for i in range(r))) for b in range(r)] for r in (3, 4)}
        return SimpleNamespace(h=h, seed=seed, unit=unit)

    def begin_pass(self, st, tr):
        items = enumerate_classes(st.h, self.classes, tr)
        random.Random(st.seed).shuffle(items)
        return items

    def run_item(self, st, item, tr):
        r, n, lam = item
        P = st.h.partitions
        canon = None
        if r == 3:
            with tr.span("partitions.canonicalize"):
                canon = P.canonicalize_S3(lam)[0]
        with tr.span("localeq.cotangent"):
            _, extra = st.h.localeq.cotangent_weights(lam)
        with tr.span("partitions.ideal"):
            J = P.ideal_of_partition(lam)
        with tr.span("kpoly.kpoly_monomial") as s:
            K = st.h.kpoly.kpoly_monomial(J, st.unit[r])
        if tr.enabled:
            s.add(generators_in=len(J.gens), numerator_terms=len(K.terms))
        return canon, extra, K

    def check_item(self, st, item, out) -> bool:
        r, n, lam = item
        canon, extra, K = out
        if laurent_terms(K) != monomial_kpoly(lam.cells, r):
            return False
        if r == 3 and tuple(canon.sorted_cells()) != canonical_cells(lam.cells):
            return False
        if lam.cells == frozenset(CELLS_121) and extra != 6:
            return False
        return extra >= 0

    def check_pass(self, st, items, outputs) -> List[int]:
        failed = []
        by_class: Dict[Tuple[int, int], List[int]] = {}
        for k, (r, n, _) in enumerate(items):
            by_class.setdefault((r, n), []).append(k)
        for (r, n), ks in by_class.items():
            if len(ks) != PARTITION_COUNTS[r][n - 1]:
                failed += ks
        if len(by_class) != len(self.classes):
            failed += range(len(items))
        small = [k for k, (r, n, _) in enumerate(items) if r == 3 and n <= 5]
        singular = set()
        for k in small:
            out = outputs[k]
            if isinstance(out, tuple) and out[1] > 0:
                singular.add(canonical_cells(items[k][2].cells))
        if singular != {canonical_cells(CELLS_121), canonical_cells(CELLS_131)}:
            failed += small
        return failed


class Eliminate:
    """Haiman equations, linear elimination and back-substitution per partition."""

    name = "eliminate"
    # Whole (r, n) classes; (2,6), (3,5) and (4,4) hold items of 12-19 s each.
    classes = (
        [(2, n) for n in range(1, 6)]
        + [(3, n) for n in range(1, 5)]
        + [(4, n) for n in range(1, 4)]
        + [(5, n) for n in range(1, 4)]
        + [(r, n) for r in (6, 7, 8) for n in (1, 2)]
    )

    def setup(self, h, seed: int, tr):
        items = enumerate_classes(h, self.classes, tr)
        random.Random(seed).shuffle(items)
        return SimpleNamespace(h=h, items=items)

    def begin_pass(self, st, tr):
        return st.items

    def run_item(self, st, item, tr):
        lam = item[2]
        L = st.h.localeq
        with tr.span("localeq.haiman") as s:
            raw = L.haiman_equations(lam)
        if tr.enabled:
            s.add(
                raw_vars=len(raw.variables),
                raw_equations=len(raw.equations),
                raw_terms=sum(len(e.terms) for e in raw.equations),
            )
        with tr.span("localeq.eliminate") as s:
            pres = L.simple_eliminate(raw)
        if tr.enabled:
            s.add(
                vars_out=len(pres.variables),
                equations_out=len(pres.equations),
                terms_out=sum(len(e.terms) for e in pres.equations),
            )
        index = {v: k for k, v in enumerate(pres.variables)}
        images = [
            pres.eliminated[v] if v in pres.eliminated else pres.ring.var(index[v])
            for v in raw.variables
        ]
        back = []
        for eq in raw.equations:
            with tr.span("multipoly.substitute") as s:
                b = eq.substitute(images)
            if tr.enabled:
                s.add(terms_out=len(b.terms))
            back.append(b)
        return raw, pres, back

    def check_item(self, st, item, out) -> bool:
        lam = item[2]
        raw, pres, back = out
        if len(pres.variables) + len(pres.eliminated) != len(raw.variables):
            return False
        # Each raw equation, with the eliminated variables substituted,
        # vanishes (it was a pivot) or is one of the surviving equations.
        kept = {frozenset(e.terms.items()) for e in pres.equations}
        if any(b and frozenset(b.terms.items()) not in kept for b in back):
            return False
        if lam.cells == frozenset(CELLS_121):
            return len(pres.variables) == 18 and len(pres.equations) == 30
        return True

    def check_pass(self, st, items, outputs) -> List[int]:
        return []


@dataclass
class GroebnerItem:
    ring: object
    gens: list
    weights: list
    order: str
    rec_seed: int


class Groebner:
    """Groebner basis, initial ideal and Hilbert series of the n=2 Jacobian ideal."""

    name = "groebner"
    pool_size = 100
    # The orderings come from a fixed pool, so every seed does the same
    # S-pair work: per-ordering times spread so widely (grevlex: standard
    # deviation 1.4x the mean) that 100 seeded draws would move a pass's
    # time by ~15% from seed to seed. The seed sets the processing order
    # and the reciprocity test points.
    pool_seed = 2101_05236

    def setup(self, h, seed: int, tr):
        L = h.localeq
        F, variables = L.pyramid_potential(2)
        jac = L.jacobian_ideal(F)
        weights = [L.var_weight(v) for v in variables]
        pool = random.Random(self.pool_seed)
        rng = random.Random(seed)
        items = []
        for k in range(self.pool_size):
            perm = list(range(F.ring.n))
            pool.shuffle(perm)
            ring, gens = permuted_gens(h, F.ring, jac, perm)
            order = "lex" if k % 10 == 9 else "grevlex"
            items.append(GroebnerItem(ring, gens, [weights[p] for p in perm], order, 0))
        rng.shuffle(items)
        for it in items:
            it.rec_seed = rng.randrange(2**32)
        with open(REFERENCE_DIR / "pyramid2_numerator.json") as f:
            ref = {tuple(t[:-1]): t[-1] for t in json.load(f)["numerator"]}
        lam = h.partitions.Partition(3, CELLS_121)
        return SimpleNamespace(h=h, items=items, reference=ref, lam=lam)

    def begin_pass(self, st, tr):
        return st.items

    def run_item(self, st, it: GroebnerItem, tr):
        G, Kp = st.h.groebner, st.h.kpoly
        with tr.span("groebner.basis") as s:
            basis, used = G.groebner_basis(it.gens, it.order, want_stats=True)
        if tr.enabled:
            s.add(spair_reductions=used, size=len(basis))
        ideal = G.Ideal(it.ring, it.gens)
        ideal.set_groebner(it.order, basis)
        with tr.span("groebner.initial_ideal"):
            J = ideal.initial_ideal(it.order)
        with tr.span("kpoly.kpoly_monomial") as s:
            K = Kp.kpoly_monomial(J, it.weights)
        if tr.enabled:
            s.add(generators_in=len(J.gens), numerator_terms=len(K.terms))
        with tr.span("kpoly.reciprocity"):
            ok = Kp.reciprocity_check(
                Kp.HilbertSeries(K, it.weights), st.lam, rng=random.Random(it.rec_seed)
            )
        return K, ok

    def check_item(self, st, it, out) -> bool:
        K, ok = out
        return ok is True and laurent_terms(K) == st.reference

    def check_pass(self, st, items, outputs) -> List[int]:
        return []


@dataclass
class Query:
    ideal: int
    poly: object
    expected: Dict  # exact normal form: {} for a member, {m: c} otherwise


class Membership:
    """Normal-form queries against seven bases built at set-up.

    The ideals are the n=2 Jacobian ideal in three orderings and the
    step0 equations of the four r=3, n=4 partitions that keep equations,
    read from reference/step0_n4.json (see make_reference.py).
    """

    name = "membership"
    queries = 1500

    def setup(self, h, seed: int, tr):
        L, G, M = h.localeq, h.groebner, h.multipoly
        F, _ = L.pyramid_potential(2)
        jac = L.jacobian_ideal(F)
        rev_ring, rev_jac = permuted_gens(h, F.ring, jac, list(reversed(range(F.ring.n))))
        specs = [(F.ring, jac, "grevlex"), (F.ring, jac, "lex"), (rev_ring, rev_jac, "grevlex")]
        with open(REFERENCE_DIR / "step0_n4.json") as f:
            stored = json.load(f)["ideals"]
        for entry in stored:
            ring = M.PolyRing(entry["vars"])
            gens = []
            for eq in entry["equations"]:
                terms = {}
                for coeff, factors in eq:
                    e = [0] * ring.n
                    for k in factors:
                        e[k] += 1
                    terms[tuple(e)] = Fraction(coeff)
                gens.append(M.MultiPoly(ring, terms))
            specs.append((ring, gens, "grevlex"))
        ideals = []
        for ring, gens, order in specs:
            with tr.span("groebner.basis") as s:
                basis, used = G.groebner_basis(gens, order, want_stats=True)
            s.add(spair_reductions=used, size=len(basis))
            ideal = G.Ideal(ring, gens)
            ideal.set_groebner(order, basis)
            with tr.span("groebner.initial_ideal"):
                lead = ideal.initial_ideal(order)
            ideals.append((ideal, order, lead))
        rng = random.Random(seed)
        members = [k < self.queries // 2 for k in range(self.queries)]
        rng.shuffle(members)
        queries = [self._query(rng, ideals, member) for member in members]
        return SimpleNamespace(h=h, ideals=ideals, queries=queries)

    @staticmethod
    def _query(rng, ideals, member: bool) -> Query:
        k = rng.randrange(len(ideals))
        ideal, _, lead = ideals[k]
        ring = ideal.ring
        n = ring.n
        poly = ring.zero()
        for _ in range(rng.randint(1, 3)):
            mult = ring.zero()
            for _ in range(rng.randint(1, 2)):
                e = [0] * n
                if rng.random() < 0.7:
                    e[rng.randrange(n)] = 1
                mult = mult + ring.monomial(e, rng.choice((-3, -2, -1, 1, 2, 3)))
            poly = poly + mult * rng.choice(ideal.gens)
        if member:
            return Query(k, poly, {})
        while True:
            e = [0] * n
            for _ in range(rng.randint(1, 2)):
                e[rng.randrange(n)] += 1
            if not lead.contains(tuple(e)):
                break
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        return Query(k, poly + ring.monomial(e, c), {tuple(e): c})

    def begin_pass(self, st, tr):
        return st.queries

    def run_item(self, st, q: Query, tr):
        ideal, order, _ = st.ideals[q.ideal]
        with tr.span("groebner.normal_form") as s:
            nf = ideal.normal_form(q.poly, order)
        if tr.enabled:
            s.add(nonzero=1 if nf else 0)
        return nf

    def check_item(self, st, q: Query, nf) -> bool:
        return nf.terms == q.expected

    def check_pass(self, st, items, outputs) -> List[int]:
        return []


WORKLOADS = {w.name: w for w in (Census, Eliminate, Groebner, Membership)}
