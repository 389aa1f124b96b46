"""Self-tests of the benchmark's output checks: corrupted outputs must fail."""

import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import workloads  # noqa: E402
from hilb import groebner, kpoly, localeq, multipoly, partitions  # noqa: E402

HILB = SimpleNamespace(
    partitions=partitions, localeq=localeq, multipoly=multipoly, groebner=groebner, kpoly=kpoly
)
Weight, LaurentPoly = multipoly.Weight, multipoly.LaurentPoly


def groebner_state():
    st = workloads.Groebner().setup(HILB, seed=3, tr=harness.NullTracer())
    K = LaurentPoly(3, {Weight(w): c for w, c in st.reference.items()})
    return st, K


def test_reference_numerator_has_the_seed_size():
    st, K = groebner_state()
    assert len(st.reference) == 94
    assert workloads.Groebner().check_item(st, st.items[0], (K, True))


def test_groebner_numerator_with_one_coefficient_changed_fails():
    st, K = groebner_state()
    w = next(iter(K.terms))
    bad = K + LaurentPoly.char(w)
    wl = workloads.Groebner()
    assert not wl.check_item(st, st.items[0], (bad, True))
    assert not wl.check_item(st, st.items[0], (K, False))


def test_census_kpoly_reference_and_corruption():
    lam = partitions.Partition(3, workloads.CELLS_121)
    wl = workloads.Census()
    st = wl.setup(HILB, seed=1, tr=harness.NullTracer())
    item = (3, 4, lam)
    out = wl.run_item(st, item, harness.NullTracer())
    assert out[1] == 6
    assert wl.check_item(st, item, out)
    canon, extra, K = out
    assert not wl.check_item(st, item, (canon, extra, K + LaurentPoly.one(3)))
    assert not wl.check_item(st, item, (canon, 5, K))


def test_eliminate_check_rejects_a_dropped_equation():
    lam = partitions.Partition(3, workloads.CELLS_121)
    wl = workloads.Eliminate()
    item = (3, 4, lam)
    out = wl.run_item(SimpleNamespace(h=HILB), item, harness.Tracer())
    raw, pres, back = out
    assert wl.check_item(None, item, out)
    short = localeq.HaimanPresentation(lam, pres.variables, pres.equations[1:], pres.eliminated)
    assert not wl.check_item(None, item, (raw, short, back))


class FlippingMembership:
    """Membership with the answer of every third item flipped and item 4 raising."""

    def __init__(self):
        self.wl = workloads.Membership()

    def begin_pass(self, st, tr):
        return st.queries

    def run_item(self, st, q, tr):
        k = int(tr.item)
        if k == 4:
            raise groebner.BudgetExceeded(1, 0)
        nf = self.wl.run_item(st, q, tr)
        if k % 3 == 0:
            ring = st.ideals[q.ideal][0].ring
            return ring.zero() if nf else ring.const(1)
        return nf

    def check_item(self, st, q, out):
        return self.wl.check_item(st, q, out)

    def check_pass(self, st, items, outputs):
        return []


def small_membership_state():
    R = multipoly.PolyRing(["x", "y"])
    x, y = R.gens()
    ideal = groebner.Ideal(R, [x * x - y, y * y])
    lead = ideal.initial_ideal("grevlex")
    queries = [
        workloads.Query(0, (x + 2) * (x * x - y), {}),
        workloads.Query(0, y * (x * x - y) + 3 * x * y, {(1, 1): Fraction(3)}),
        workloads.Query(0, x * x - y + Fraction(1, 2) * x, {(1, 0): Fraction(1, 2)}),
        workloads.Query(0, x * y * y, {}),
        workloads.Query(0, x * x - y, {}),
        workloads.Query(0, y * y + y, {(0, 1): Fraction(1)}),
    ]
    return SimpleNamespace(h=HILB, ideals=[(ideal, "grevlex", lead)], queries=queries)


def test_flipped_membership_answers_and_raises_count_in_fail_ratio():
    st = small_membership_state()
    clean = harness.run_pass(workloads.Membership(), st, harness.NullTracer())
    assert (clean.items, clean.failed) == (6, 0)
    tr = harness.Tracer()
    result = harness.run_pass(FlippingMembership(), st, tr)
    # items 0 and 3 are flipped, item 4 raises
    assert (result.items, result.failed) == (6, 3)
    assert len(result.item_times()) == 6
    totals = harness.layer_totals(tr.spans)
    assert totals["groebner.normal_form.calls"] == 5
    assert totals["groebner.normal_form.nonzero"] == 3
    assert totals["bench.glue.calls"] == 6


@pytest.mark.parametrize("name", ["census", "eliminate", "groebner"])
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    a = wl.begin_pass(wl.setup(HILB, 5, harness.NullTracer()), harness.NullTracer())
    b = wl.begin_pass(wl.setup(HILB, 5, harness.NullTracer()), harness.NullTracer())
    assert [input_key(x) for x in a] == [input_key(x) for x in b]


def test_same_seed_same_membership_queries():
    ideals = small_membership_state().ideals
    a = [workloads.Membership._query(random.Random(5), ideals, m) for m in (True, False)]
    b = [workloads.Membership._query(random.Random(5), ideals, m) for m in (True, False)]
    assert a == b
    assert a[1].expected and not a[0].expected


def input_key(x):
    if isinstance(x, tuple):  # (r, n, partition)
        return x[:2] + (sorted(x[2].cells),)
    return repr(x)
