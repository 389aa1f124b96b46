import itertools

import pytest

from hilb.groebner import MonomialIdeal
from hilb.multipoly import RingError
from hilb.partitions import (
    Partition,
    PartitionError,
    adjacent_pairs,
    canonicalize_S3,
    chain_notation,
    enumerate_partitions,
    glove,
    ideal_of_partition,
    layers_of,
    parse_chain,
    pyramid,
)


def oracle_partitions(r, n):
    """Independent add-a-cell enumeration: grow every partition of n-1 by
    every addable cell, deduplicate."""
    if n == 0:
        return {frozenset()}
    out = set()
    for cells in oracle_partitions(r, n - 1):
        candidates = set()
        for c in cells:
            for b in range(r):
                up = tuple(x + (1 if i == b else 0) for i, x in enumerate(c))
                candidates.add(up)
        if not cells:
            candidates.add((0,) * r)
        for cand in candidates:
            if cand in cells:
                continue
            ok = True
            for b in range(r):
                if cand[b] > 0:
                    below = tuple(x - (1 if i == b else 0) for i, x in enumerate(cand))
                    if below not in cells:
                        ok = False
                        break
            if ok:
                out.add(cells | {cand})
    return out


def classical_p(n):
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def test_counts_r3_against_oracle():
    expected = [1, 3, 6, 13, 24, 48]
    for n, count in zip(range(1, 7), expected):
        lams = enumerate_partitions(3, n)
        assert len(lams) == count
        assert {lam.cells for lam in lams} == oracle_partitions(3, n)


def test_counts_r2_classical():
    assert len(enumerate_partitions(2, 4)) == 5
    for n in range(0, 21):
        assert len(enumerate_partitions(2, n)) == classical_p(n)


def test_r1_and_size_zero():
    assert enumerate_partitions(1, 5) == [Partition(1, [(i,) for i in range(5)])]
    assert enumerate_partitions(3, 0) == [Partition(3, [])]


def test_enumeration_deterministic():
    a = enumerate_partitions(3, 5)
    b = enumerate_partitions(3, 5)
    assert [p.sorted_cells() for p in a] == [p.sorted_cells() for p in b]


def test_downward_closure_enforced():
    with pytest.raises(PartitionError):
        Partition(3, [(1, 0, 0)])


def test_cells_must_have_integer_coordinates():
    # int() would truncate (0.5, 0) to the origin
    with pytest.raises(RingError):
        Partition(2, [(0.5, 0)])
    assert Partition(2, [(0, 0), (1, 0)]).n == 2


def test_cells_reject_bool_coordinates():
    # `operator.index` read True as 1: Partition(2, [(0, 0), (True, 0)])
    # was {(0, 0), (1, 0)}
    for cells in [[(0, 0), (True, 0)], [(False, 0)]]:
        with pytest.raises(RingError):
            Partition(2, cells)


def test_glove_origin():
    lam = Partition(3, [(0, 0, 0)])
    assert glove(lam) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_glove_pyramid():
    for n in (1, 2, 3):
        lam = pyramid(3, n)
        assert glove(lam) == {
            c for c in itertools.product(range(n + 1), repeat=3) if sum(c) == n
        }


def test_glove_size_at_least_r():
    for n in range(1, 5):
        for lam in enumerate_partitions(3, n):
            assert len(glove(lam)) >= 3


def test_lambda132_minimal_generators():
    lam = parse_chain("(1) ⊂ (3,2)")
    assert set(ideal_of_partition(lam).gens) == {
        (3, 0, 0),
        (2, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    }
    assert set(ideal_of_partition(lam).gens) <= glove(lam)


def test_adjacent_pairs_examples():
    assert len(adjacent_pairs([(1, 0, 0), (0, 1, 0)])) == 1
    assert adjacent_pairs([(2, 0, 0), (0, 0, 2)]) == []
    lam = Partition(3, [(0, 0, 0)])
    assert len(adjacent_pairs(glove(lam))) == 3


def all_pairs_reference(points):
    """The all-pairs definition: pairs p < q of points whose difference is
    e_b or e_a - e_b up to sign, listed in lex order of (p, q)."""
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            nz = [x - y for x, y in zip(p, q) if x != y]
            if all(abs(x) == 1 for x in nz) and (len(nz) == 1 or (len(nz) == 2 and sum(nz) == 0)):
                out.append((p, q))
    return out


def test_adjacent_pairs_match_the_all_pairs_definition_and_are_oriented():
    for r, top in ((3, 5), (4, 3)):
        for n in range(1, top + 1):
            for lam in enumerate_partitions(r, n):
                points = glove(lam)
                pairs = adjacent_pairs(points)
                assert [tuple(sorted((p, q))) for p, q, _, _ in pairs] == all_pairs_reference(points)
                for p, q, a, b in pairs:
                    step = [0] * r
                    step[a] += 1
                    if b is not None:
                        step[b] -= 1
                    assert a != b and p == tuple(x + y for x, y in zip(q, step))


def test_ideal_of_partition_examples():
    assert ideal_of_partition(Partition(3, [(0, 0, 0)])) == MonomialIdeal(
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )
    lam = parse_chain("(1) ⊂ (3,2)")
    assert ideal_of_partition(lam) == MonomialIdeal(
        3, [(3, 0, 0), (2, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    )


def test_ideal_partition_roundtrip():
    # the monomials outside I_lambda are the cells; each lies in [0, n]^3
    for n in range(0, 7):
        for lam in enumerate_partitions(3, n):
            I = ideal_of_partition(lam)
            box = itertools.product(range(n + 1), repeat=3)
            assert {c for c in box if not I.contains(c)} == lam.cells


def test_canonicalize_pyramid_fixed():
    lam = pyramid(3, 2)
    canon, perm = canonicalize_S3(lam)
    assert canon == lam and perm == (0, 1, 2)


def test_canonicalize_swap():
    lam = parse_chain("(1) ⊂ (3,1)")
    swapped = lam.permuted((1, 0, 2))
    c1, _ = canonicalize_S3(lam)
    c2, _ = canonicalize_S3(swapped)
    assert c1 == c2


def test_permuted_rejects_what_is_not_a_permutation():
    lam = Partition(3, [(0, 0, 0)])
    # (0.0, 1, 2) once failed with a TypeError, and (True, 0, 2) was read as (1, 0, 2)
    for bad in [(2, 2, 2), (0, 1, 5), (0, 1), (0, 1, 2, 3), (0.0, 1, 2), (True, 0, 2), ("0", 1, 2), (None, 1, 2), 3]:
        with pytest.raises(PartitionError):
            lam.permuted(bad)
    assert lam.permuted([2, 0, 1]) == lam
    line = Partition(3, [(0, 0, 0), (1, 0, 0)])
    assert line.permuted(range(3)) == line
    assert line.permuted((1, 0, 2)) == Partition(3, [(0, 0, 0), (0, 1, 0)])


CENSUS_CLASSES = [(3, n) for n in range(11)] + [(4, n) for n in range(7)]


def test_library_built_partitions_are_what_the_checking_constructor_builds():
    # enumerate_partitions, canonicalize_S3 and permuted skip the cell checks
    for r, n in CENSUS_CLASSES:
        for lam in enumerate_partitions(r, n):
            made = [lam, *(lam.permuted(perm) for perm in itertools.permutations(range(r)))]
            if r == 3:
                made.append(canonicalize_S3(lam)[0])
            for mu in made:
                checked = Partition(r, mu.cells)
                assert mu == checked and hash(mu) == hash(checked)
                assert mu.r == r and all(type(c) is tuple and len(c) == r for c in mu.cells)


# beyond the census ranks: lines, plane partitions and r=5
IDEAL_CLASSES = CENSUS_CLASSES + [(1, n) for n in range(6)] + [(2, n) for n in range(12)] + [(5, n) for n in range(5)]


def test_the_ideal_is_built_once_per_partition():
    # the down-step rule against the glove, minimalized by MonomialIdeal, on
    # the enumerated classes, r=0, the pyramids of the census reference test
    # and a partition built by the checking constructor
    lams = [lam for r, n in IDEAL_CLASSES for lam in enumerate_partitions(r, n)] + [
        Partition(0, [()]),
        Partition(0, []),
        pyramid(2, 14),
        pyramid(3, 8),
        pyramid(4, 5),
        Partition(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 0, 2)]),
    ]
    for lam in lams:
        r = lam.r
        J = ideal_of_partition(lam)
        assert ideal_of_partition(lam) is J
        assert J == (MonomialIdeal(r, glove(lam)) if lam.cells else MonomialIdeal(r, [(0,) * r]))
        # the kept packed cells are the cells, in the order of the frozenset
        assert J.layout.unpack_all(lam._packed) == list(lam.cells)
    # one lex layout per rank, shared by the ideals of that rank
    assert len({id(ideal_of_partition(lam).layout) for lam in lams if lam.r == 3}) == 1
    assert ideal_of_partition(Partition(3, [])).gens == ((0, 0, 0),)
    # r=0: the one point's ideal is the zero ideal, the empty set's the unit ideal
    assert ideal_of_partition(Partition(0, [()])).gens == ()
    assert ideal_of_partition(Partition(0, [])).gens == ((),)
    # an equal partition built apart has its own ideal, equal to the first
    lam = parse_chain("(1) ⊂ (2,1)")
    twin = Partition(3, lam.cells)
    assert ideal_of_partition(twin) is not ideal_of_partition(lam)
    assert ideal_of_partition(twin) == ideal_of_partition(lam)


def test_canonicalize_permutation_is_witness():
    for lam in enumerate_partitions(3, 5):
        canon, perm = canonicalize_S3(lam)
        assert lam.permuted(perm) == canon


def test_orbit_sizes_sum_n5():
    lams = enumerate_partitions(3, 5)
    assert len(lams) == 24
    orbits = {}
    for lam in lams:
        canon, _ = canonicalize_S3(lam)
        orbits.setdefault(canon.cells, set()).add(lam.cells)
    assert sum(len(v) for v in orbits.values()) == 24


def test_chain_notation_roundtrip():
    for text in ["(1) ⊂ (2,1)", "(1) ⊂ (3,1)", "(2) ⊂ (3,2)", "(1) ⊂ (1) ⊂ (3,1,1)", "()"]:
        lam = parse_chain(text)
        assert chain_notation(lam) == text
        assert parse_chain(chain_notation(lam)) == lam
    # a row length is a positive integer
    for text in ["(1,x)", "(-1)", "(0)", "(2,0)", "(1) ⊂ (2,-1)", "(1,)", "(1.5)"]:
        with pytest.raises(PartitionError):
            parse_chain(text)


_PLANE = Partition(2, [(0, 0), (1, 0)])


class _Two:
    """An integer that is not an int, read through `__index__`."""

    def __index__(self):
        return 2


def test_builders_read_r_and_n_as_integers():
    # a bool was once read as 0 or 1, and a float or a str raised TypeError
    table = [
        (lambda: Partition(True, [(0,)]), "r is an integer: True"),
        (lambda: Partition(1.0, [(0,)]), "r is an integer: 1.0"),
        (lambda: Partition("1", [(0,)]), "r is an integer: '1'"),
        (lambda: Partition(-1, []), "r must be >= 0"),
        (lambda: pyramid(True, 3), "r is an integer: True"),
        (lambda: pyramid(3, 2.0), "n is an integer: 2.0"),
        (lambda: pyramid(3, False), "n is an integer: False"),
        (lambda: enumerate_partitions(2.0, 2), "r is an integer: 2.0"),
        (lambda: enumerate_partitions("3", 2), "r is an integer: '3'"),
        (lambda: enumerate_partitions(3, True), "n is an integer: True"),
        (lambda: enumerate_partitions(3, None), "n is an integer: None"),
    ]
    for call, message in table:
        with pytest.raises(PartitionError) as info:
            call()
        assert type(info.value) is PartitionError and str(info.value) == message
    # an integer that is not an int is read as one
    for lam in [Partition(_Two(), [(0, 0)]), pyramid(_Two(), _Two()), *enumerate_partitions(_Two(), _Two())]:
        assert type(lam.r) is int and lam.r == 2
    assert len(pyramid(3, _Two()).cells) == 4 and len(enumerate_partitions(3, _Two())) == 3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Partition(2, [(0,)]), "cell (0,) has wrong dimension"),
        (lambda: Partition(2, [(0, -1)]), "cell (0, -1) has a negative coordinate"),
        (lambda: enumerate_partitions(0, 1), "r must be >= 1"),
        (lambda: enumerate_partitions(2, -1), "n must be >= 0"),
        (lambda: canonicalize_S3(_PLANE), "canonicalize_S3 needs r=3"),
        (lambda: layers_of(_PLANE), "layers need r=3"),
        (lambda: parse_chain("(1) ⊂ 2,1"), "bad layer '2,1'"),
    ],
    ids=["cell-dimension", "negative-cell", "rank", "size", "canonicalize-rank", "layers-rank", "bad-layer"],
)
def test_boundary_checks_raise_partition_errors(call, message):
    with pytest.raises(PartitionError) as info:
        call()
    assert type(info.value) is PartitionError and str(info.value) == message


def test_partition_reprs():
    assert repr(parse_chain("(1) ⊂ (2,1)")) == "Partition3('(1) ⊂ (2,1)')"
    assert repr(_PLANE) == "Partition(r=2, n=2)"
