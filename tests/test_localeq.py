import string
from collections import Counter
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilb.localeq
from hilb.groebner import Ideal
from hilb.multipoly import MultiPoly, PolyRing, RingError, Weight
from hilb.partitions import Partition, adjacent_pairs, canonicalize_S3, enumerate_partitions, glove, parse_chain
from hilb.localeq import (
    HaimanPresentation,
    _check_weight_homogeneous,
    _var_name,
    cotangent_weights,
    haiman_equations,
    jacobian_ideal,
    pyramid_layer_vars,
    pyramid_potential,
    simple_eliminate,
    step0,
    var_weight,
)
from test_census_reference import reference_relations
from test_multipoly import fractions, weight_of

LAM_121 = parse_chain("(1) < (2,1)")
LAM_131 = parse_chain("(1) < (3,1)")
LAM_132 = parse_chain("(1) < (3,2)")
LAM_1321 = parse_chain("(1) < (3,2,1)")
seeded = settings(derandomize=True, max_examples=200, deadline=None)


def test_single_box_presentation():
    box = Partition(3, [(0, 0, 0)])
    pres = haiman_equations(box)
    assert len(pres.variables) == 3
    # the only adjacency equations cancel identically
    assert pres.equations == []
    ws, extra = cotangent_weights(box)
    assert extra == 0
    assert ws == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_raw_presentation_sizes():
    pres = haiman_equations(LAM_121)
    assert len(pres.variables) == 24
    assert len(pres.equations) == 36
    pres = haiman_equations(LAM_131)
    assert len(pres.variables) == 40


def test_equations_weight_homogeneous_on_construction():
    # construction already asserts this; spot-check a weight directly
    pres = haiman_equations(LAM_121)
    v = ((1, 0, 0), (0, 0, 2))
    assert var_weight(v) == Weight.of(-1, 0, 2)
    assert pres.weights[pres.variables.index(v)] == Weight.of(-1, 0, 2)


def test_inhomogeneous_equation_is_rejected():
    pres = haiman_equations(LAM_121)
    x = pres.ring.gens()
    assert pres.weights[0] != pres.weights[1]
    with pytest.raises(RingError):
        HaimanPresentation(LAM_121, pres.variables, [x[0] + x[1]])
    with pytest.raises(RingError):
        HaimanPresentation(LAM_121, pres.variables, [x[0] + 1])


def test_step0_on_a_line_of_six_points():
    # 78 raw variables: more than a ring capped at 64 could hold
    lam = Partition(3, [(i, 0, 0) for i in range(6)])
    assert len(haiman_equations(lam).variables) == 78
    pres = step0(lam)
    assert len(pres.variables) == 18 == 3 * lam.n + cotangent_weights(lam)[1]
    assert pres.equations == []


def test_haiman_equations_build_for_seven_points():
    partitions = enumerate_partitions(3, 7)
    assert len(partitions) == 86
    for lam in partitions:
        pres = haiman_equations(lam)
        assert len(pres.variables) == lam.n * len(glove(lam))


def test_step0_121_drops_exactly_the_origin_row():
    pres = step0(LAM_121)
    assert len(pres.variables) == 18
    assert len(pres.equations) == 30
    assert all(i != (0, 0, 0) for i, _ in pres.variables)
    assert set(pres.eliminated) == {((0, 0, 0), j) for j in sorted_glove(LAM_121)}


def sorted_glove(lam):
    from hilb.partitions import glove

    return sorted(glove(lam))


def test_step0_131_measures_against_known_survivor_table():
    pres = step0(LAM_131)
    assert len(pres.variables) == 21
    survivors = set(pres.variables)
    sups_full = [(1, 1, 0), (1, 0, 1), (3, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    expected = {((1, 0, 0), j) for j in [(1, 1, 0), (1, 0, 1), (3, 0, 0)]}
    for i in [(2, 0, 0), (0, 1, 0), (0, 0, 1)]:
        expected |= {(i, j) for j in sups_full}
    assert survivors == expected


def test_step0_132_count():
    pres = step0(LAM_132)
    assert len(pres.variables) == 24


def test_a_presentation_shares_its_ring_object_with_its_polynomials():
    # so the ring checks of a back-substitution are identity tests
    for lam in (LAM_121, LAM_131, Partition(2, [(0, 0), (1, 0), (0, 1)])):  # the last keeps no equation
        for pres in (haiman_equations(lam), step0(lam)):
            polys = [*pres.equations, *pres.eliminated.values()]
            assert polys and all(p.ring is pres.ring for p in polys)


def test_each_haiman_variable_is_named_once_per_item(monkeypatch):
    # the raw ring formats each variable's name once, and the survivors'
    # ring and both presentations' checks reuse those names
    calls = Counter()

    def counting(v):
        calls[v] += 1
        return _var_name(v)

    monkeypatch.setattr(hilb.localeq, "_var_name", counting)
    for lam in (LAM_121, LAM_131, Partition(2, [(0, 0), (1, 0), (0, 1)])):
        calls.clear()
        raw = haiman_equations(lam)
        pres = simple_eliminate(raw)
        assert calls == Counter(raw.variables)
        for p in (raw, pres):
            assert p.ring.names == tuple(map(_var_name, p.variables))


def test_an_equation_outside_the_variables_ring_is_rejected():
    # a ring of other names, or of the same names in another order
    pres = haiman_equations(LAM_121)
    eq = pres.equations[0]
    for names in (["x%d" % k for k in range(pres.ring.n)], pres.ring.names[::-1]):
        other = MultiPoly._of_packed(PolyRing(names), dict(eq._pk()))
        with pytest.raises(RingError):
            HaimanPresentation(LAM_121, pres.variables, [other])
        with pytest.raises(RingError):
            HaimanPresentation(LAM_121, pres.variables, [eq, other])


def test_a_ring_of_another_variable_count_is_rejected():
    pres = haiman_equations(LAM_121)
    for names in (pres.ring.names[:-1], (*pres.ring.names, "x")):
        with pytest.raises(RingError, match="variables"):
            HaimanPresentation(LAM_121, pres.variables, [], ring=PolyRing(names))
    # without a ring, the presentation names one by its variables
    assert HaimanPresentation(LAM_121, pres.variables, pres.equations).ring == pres.ring


def test_step0_back_substitution_consistent():
    # eliminated expressions must turn raw generators into members of the
    # eliminated ideal
    raw = haiman_equations(LAM_121)
    pres = step0(LAM_121)
    J = Ideal(pres.ring, pres.equations)
    images = []
    for v in raw.variables:
        if v in pres.eliminated:
            images.append(pres.eliminated[v])
        else:
            images.append(pres.ring.var(pres.variables.index(v)))
    for eq in raw.equations:
        assert not J.normal_form(eq.substitute(images))


def test_step0_131_back_substitution_is_exact():
    # each raw equation, with the eliminated variables substituted, was a
    # pivot (and vanishes) or is one of the surviving equations
    raw = haiman_equations(LAM_131)
    pres = step0(LAM_131)
    assert len(pres.variables) + len(pres.eliminated) == len(raw.variables)
    images = [
        pres.eliminated[v] if v in pres.eliminated else pres.ring.var(pres.variables.index(v))
        for v in raw.variables
    ]
    for eq in raw.equations:
        b = eq.substitute(images)
        assert not b or b in pres.equations


def test_cotangent_121():
    ws, extra = cotangent_weights(LAM_121)
    assert len(ws) == 18
    assert extra == 6


def test_cotangent_131_132():
    # at colength 5 the eliminated presentation is already minimal, so its
    # coordinate weights are the cotangent weights
    ws, extra = cotangent_weights(LAM_131)
    assert extra == 6
    assert [Weight(w) for w in ws] == sorted(
        [var_weight(v) for v in step0(LAM_131).variables],
        key=fractions,
    )
    assert cotangent_weights(LAM_132)[1] == 6


def test_cotangent_1321_without_a_ring():
    # the cotangent count is combinatorial: it builds no ring for the 70
    # raw variables
    ws, extra = cotangent_weights(LAM_1321)
    assert len(ws) == 29
    assert extra == 8


def test_cotangent_r2_arm_leg_weights():
    lam = Partition(2, [(0, 0), (1, 0)])
    ws, extra = cotangent_weights(lam)
    assert extra == 0
    assert ws == sorted([(2, 0), (1, 0), (0, 1), (-1, 1)])


def test_cotangent_r2_always_smooth():
    # Hilb^n(A^2) is smooth
    for n in range(1, 10):
        for lam in enumerate_partitions(2, n):
            assert cotangent_weights(lam)[1] == 0


def test_cotangent_embedded_2d_partition_smooth():
    # a flat r=3 partition is a product with affine space: no extra directions
    flat = Partition(3, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)])
    assert cotangent_weights(flat)[1] == 0


PRINTED_F121 = """
-cdg +beg +bch -aeh +ehh -bbi +adi -dhi -egj +bij +dgk -bhk
-cem +bfm -ekm +dlm +ccn -afn +fhn -kkn -bln +jln -bco
+aeo -dio +bko +fno -eoo -fgp +cip +ikp -hlp +lop +egq -chq
-ijq +hkq -fmq -lnq +coq -koq +iqq +emr -cnr +knr -ipr
"""


def test_pyramid_potential_matches_printed_form():
    F, variables = pyramid_potential(2)
    subs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sups = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    letter = {}
    k = 0
    for i in subs:
        for j in sups:
            letter[(i, j)] = string.ascii_lowercase[k]
            k += 1
    expected = {}
    for tok in PRINTED_F121.split():
        sign = 1 if tok[0] == "+" else -1
        expected["".join(sorted(tok[1:]))] = sign
    got = {}
    for mono, coeff in F.terms.items():
        letters = []
        for vi, e in enumerate(mono):
            letters.extend(letter[variables[vi]] * e)
        got["".join(sorted(letters))] = coeff
    assert len(got) == 46
    assert got == expected


def test_pyramid_potential_homogeneity():
    for n in (2, 3):
        F, variables = pyramid_potential(n)
        ws = [var_weight(v) for v in variables]
        for e in F.terms:
            assert sum(e) == 3
            assert mono_weight(e, ws) == (1, 1, 1)


def test_pyramid_layer_vars_count():
    assert len(pyramid_layer_vars(3, 2)) == 18
    assert len(pyramid_layer_vars(3, 3)) == 60


def test_jacobian_matches_step0_at_n2():
    F, _ = pyramid_potential(2)
    jac = jacobian_ideal(F)
    assert len(jac) == 18
    assert all(g.total_degree() == 2 for g in jac)
    assert all(type(c) is int for g in jac for c in g.terms.values())
    pres = step0(LAM_121)
    assert tuple(F.ring.names) == tuple(pres.ring.names)
    # a reduced basis is unique, so equal ideals have equal bases
    assert Ideal(F.ring, jac).groebner() == Ideal(pres.ring, pres.equations).groebner()


def test_singular_census_colength_5():
    # the singular points of Hilb^n(A^3), and their S3-classes, by extra dimension
    points, classes, singular = {}, {}, set()
    for n in range(1, 8):
        extras = {lam: cotangent_weights(lam)[1] for lam in enumerate_partitions(3, n)}
        by_class = {canonicalize_S3(lam)[0].cells: e for lam, e in extras.items() if e}
        points[n] = Counter(e for e in extras.values() if e)
        classes[n] = Counter(by_class.values())
        if n <= 5:
            singular |= by_class.keys()
    assert singular == {
        canonicalize_S3(LAM_121)[0].cells,
        canonicalize_S3(LAM_131)[0].cells,
    }
    assert points == {1: {}, 2: {}, 3: {}, 4: {6: 1}, 5: {6: 3}, 6: {6: 12}, 7: {6: 25, 8: 3}}
    assert classes == {1: {}, 2: {}, 3: {}, 4: {6: 1}, 5: {6: 1}, 6: {6: 3}, 7: {6: 6, 8: 1}}


def test_haiman_linear_parts_are_the_cotangent_relations():
    """Census and eliminate read one glove-pair rule: the degree-1 parts of
    the Haiman equations are the edges and kills of the tuple union-find
    that `cotangent_weights` is checked against."""
    for r, top in ((3, 5), (4, 3)):
        for n in range(1, top + 1):
            for lam in enumerate_partitions(r, n):
                pres = haiman_equations(lam)
                linear = Counter()
                for eq in pres.equations:
                    vs = frozenset(pres.variables[e.index(1)] for e in eq.terms if sum(e) == 1)
                    if vs:
                        linear[vs] += 1
                edges, kills = reference_relations(lam, glove(lam))
                relations = [frozenset(t) for t in edges + kills]
                assert all(len(t) == 2 for t in relations[: len(edges)])
                assert linear == Counter(relations)


def mono_weight(e, weights):
    """Reference torus weight of the monomial e, summed as a tuple of
    `Fraction`s: sum_k e_k w_k."""
    total = (Fraction(0),) * weights[0].r
    for k, w in zip(e, weights):
        total = tuple(t + k * x for t, x in zip(total, fractions(w)))
    return total


def weights_of_rank(r):
    nums = st.tuples(*[st.integers(-5, 5)] * r)
    return st.builds(Weight, nums, st.sampled_from([1, 2, 4]))


@st.composite
def weighted_monomials(draw):
    """(weights, monomials): mixed-scale weights with negative entries and
    exponents up to 4; sometimes a last variable whose weight differs from
    the first one's only in the last field, with one power of each."""
    r = draw(st.integers(1, 3))
    weights = draw(st.lists(weights_of_rank(r), min_size=1, max_size=4))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 4)] * len(weights)), min_size=1, max_size=6))
    if draw(st.booleans()):
        bump = (0,) * (r - 1) + (Fraction(draw(st.sampled_from([-1, 1])), draw(st.sampled_from([1, 2, 4]))),)
        weights.append(weight_of(tuple(map(add, fractions(weights[0]), bump))))
        k = draw(st.integers(1, 4))
        monos = [e + (0,) for e in monos]
        monos += [(k,) + (0,) * (len(weights) - 1), (0,) * (len(weights) - 1) + (k,)]
    return weights, monos


@st.composite
def wide_weighted_monomials(draw):
    """(weights, monomials) in 40 to 44 variables: each monomial has one to
    three nonzero exponents, some of 256 or more (both bytes of a field),
    and one monomial holds the top variable, whose packed unit is a
    multi-digit int. Sometimes the top variable's weight is the first
    one's, bumped in the last field, with one power of each."""
    nvars = draw(st.integers(40, 44))
    r = draw(st.integers(1, 3))
    weights = draw(st.lists(weights_of_rank(r), min_size=nvars, max_size=nvars))
    exps = st.sampled_from([1, 2, 3, 255, 256, 300, 1000])
    supports = st.dictionaries(st.integers(0, nvars - 1), exps, min_size=1, max_size=3)
    tops = draw(st.lists(supports, min_size=1, max_size=5))
    tops[0][nvars - 1] = draw(exps)
    monos = [tuple(d.get(i, 0) for i in range(nvars)) for d in tops]
    if draw(st.booleans()):
        bump = (0,) * (r - 1) + (Fraction(draw(st.sampled_from([-1, 1])), draw(st.sampled_from([1, 2, 4]))),)
        weights[-1] = weight_of(tuple(map(add, fractions(weights[0]), bump)))
        k = draw(exps)
        monos += [(k,) + (0,) * (nvars - 1), (0,) * (nvars - 1) + (k,)]
    return weights, monos


@seeded
@given(st.one_of(weighted_monomials(), wide_weighted_monomials()))
def test_packed_weight_check_agrees_with_dense_weights(case):
    weights, monos = case
    ring = PolyRing([f"x{i}" for i in range(len(weights))])
    ref = [mono_weight(e, weights) for e in monos]
    eq = MultiPoly(ring, {e: 1 for e in monos})
    if len(set(ref)) > 1:
        with pytest.raises(RingError):
            _check_weight_homogeneous([eq], weights)
    else:
        _check_weight_homogeneous([eq], weights)
    # the terms of one reference weight pass, alone or beside other equations
    same = MultiPoly(ring, {e: 1 for e, w in zip(monos, ref) if w == ref[0]})
    _check_weight_homogeneous([same, ring.const(1)], weights)


def test_packed_weight_check_sees_the_last_field():
    # x^2 has weight (-6, 10) and y^2 has (-6, 11): equal but for the last field
    weights = [Weight.of(-3, 5), Weight((-6, 11), 2)]
    x, y = PolyRing(["x", "y"]).gens()
    with pytest.raises(RingError):
        _check_weight_homogeneous([x**2 + y**2], weights)
    _check_weight_homogeneous([x**2, 3 * y**3], weights)


@pytest.mark.parametrize("k", [1, 255, 256, 300])
def test_packed_weight_check_on_the_top_field_of_a_wide_ring(k):
    # 41 variables, x0 and the top one x40 of one weight w: x0^(2k) x1,
    # x40^(2k) x1 and x0^k x40^k x1 are of one weight; with x40 bumped in
    # its last field, the three weights differ
    n = 41
    ring = PolyRing([f"x{i}" for i in range(n)])
    x0, x1, top = ring.var(0), ring.var(1), ring.var(n - 1)
    w = Weight.of(-3, 5)
    middle = [Weight.of(i, -i) for i in range(1, n - 1)]
    eq = x0 ** (2 * k) * x1 + top ** (2 * k) * x1 + x0**k * top**k * x1
    assert max(ring.layout.unpack(m)[n - 1] for m in eq._pk()) == 2 * k
    for weights, homogeneous in ([w, *middle, w], True), ([w, *middle, Weight.of(-3, 6)], False):
        assert len({mono_weight(e, weights) for e in eq.terms}) == (1 if homogeneous else 3)
        if homogeneous:
            _check_weight_homogeneous([eq], weights)
        else:
            with pytest.raises(RingError):
                _check_weight_homogeneous([eq], weights)


def test_packed_weight_fields_hold_a_difference_of_weights():
    # weights (4, 0) and (-4, 1) differ by (8, -1); in 3-bit fields, narrower
    # than what `packed_weights` gives, both would pack to 4
    x, y = PolyRing(["x", "y"]).gens()
    with pytest.raises(RingError):
        _check_weight_homogeneous([x + y], [Weight.of(4, 0), Weight.of(-4, 1)])


def dense_haiman_equations(lam):
    """The Haiman equations built term by term on dense exponent tuples."""
    cells = sorted(lam.cells)
    glo = sorted(glove(lam))
    variables = [(i, j) for i in cells for j in glo]
    index = {v: k for k, v in enumerate(variables)}
    ring = PolyRing([_var_name(v) for v in variables])

    def unit(k):
        e = [0] * len(variables)
        e[k] = 1
        return tuple(e)

    def pair_product_terms(terms, sup1, direction, l, sign):
        for k in cells:
            m = tuple(x + (b == direction) for b, x in enumerate(k))
            if m in lam.cells:
                if m == l:
                    e = unit(index[(k, sup1)])
                    terms[e] = terms.get(e, 0) + sign
            else:
                e = tuple(map(add, unit(index[(k, sup1)]), unit(index[(l, m)])))
                terms[e] = terms.get(e, 0) + sign

    equations = []
    for p, q, a, b in adjacent_pairs(glo):
        for l in cells:
            if b is None:
                terms = {unit(index[(l, p)]): 1}
                pair_product_terms(terms, q, a, l, -1)
            else:
                terms = {}
                pair_product_terms(terms, q, a, l, 1)
                pair_product_terms(terms, p, b, l, -1)
            eq = MultiPoly(ring, terms)
            if eq:
                equations.append(eq)
    return variables, equations


@pytest.mark.parametrize("r, top", [(2, 5), (3, 5), (4, 4)])
def test_sparse_haiman_terms_match_the_dense_builder(r, top):
    for n in range(1, top + 1):
        for lam in enumerate_partitions(r, n):
            pres = haiman_equations(lam)
            variables, equations = dense_haiman_equations(lam)
            assert pres.variables == variables
            # term order and coefficient types pinned, not only the term sets
            got = [[(e, type(c), c) for e, c in eq.terms.items()] for eq in pres.equations]
            assert got == [[(e, type(c), c) for e, c in eq.terms.items()] for eq in equations]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: haiman_equations(Partition(3, [])), "need a nonempty partition"),
        (lambda: pyramid_potential(1), "pyramid potential needs n >= 2"),
    ],
    ids=["empty-partition", "pyramid-potential-1"],
)
def test_boundary_checks_raise_ring_errors(call, message):
    with pytest.raises(RingError) as info:
        call()
    assert type(info.value) is RingError and str(info.value) == message
