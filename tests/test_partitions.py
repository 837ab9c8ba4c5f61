"""Set partitions, arcs, shadow sets, nesting, and coloured labels.

Oracle: an independent enumerator (grow partitions of [k-1] by inserting k
into every block or as a new singleton) checks counts and membership, and
the bit-mask statistics of partition_stats are compared with their
set-builder definitions in oracles (compute_SR, r_of, nest).  The torus
logs of a label are checked against oracles.torus_label, and the label
order against the per-label position ranking it replaced.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import partition_from_arcs
from superchar.gf import field_construct
from superchar.nilpotent import position_rank
from superchar.partitions import (
    ColouredPartition,
    SetPartition,
    build_e,
    count_labels,
    enumerate_labels,
    enumerate_partitions,
    format_coloured,
    format_partition,
    nest,
    parse_coloured,
    parse_partition,
    partition_stats,
    torus_logs,
)


# ---------------------------------------------------------------- oracles

def _partitions_by_insertion(n):
    parts = [[]]
    for k in range(1, n + 1):
        grown = []
        for blocks in parts:
            for idx in range(len(blocks)):
                copy = [list(b) for b in blocks]
                copy[idx].append(k)
                grown.append(copy)
            grown.append([list(b) for b in blocks] + [[k]])
        parts = grown
    return {frozenset(frozenset(b) for b in blocks) for blocks in parts}


def _rgs_of(pi):
    index = {}
    word = []
    for x in range(1, pi.n + 1):
        for b, block in enumerate(pi.blocks):
            if x in block:
                index.setdefault(b, len(index))
                word.append(index[b])
                break
    return tuple(word)


def _all_pairs(n):
    return {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def _positions(mask, n):
    """The positions whose bits are set in mask."""
    return {pos for pos, k in position_rank(n).items() if mask >> k & 1}


BELL = [1, 1, 2, 5, 15, 52, 203, 877]


# ------------------------------------------------------------ enumeration

def test_counts_match_bell_numbers():
    for n in range(1, 8):
        assert len(enumerate_partitions(n)) == BELL[n]


def test_enumeration_matches_insertion_oracle():
    for n in range(1, 7):
        got = {frozenset(frozenset(b) for b in pi.blocks)
               for pi in enumerate_partitions(n)}
        assert got == _partitions_by_insertion(n)


def test_enumeration_order_is_ascending_rgs():
    for n in range(1, 7):
        words = [_rgs_of(pi) for pi in enumerate_partitions(n)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_enumeration_order_n3_frozen():
    assert [format_partition(pi) for pi in enumerate_partitions(3)] == [
        "1,2,3", "1,2/3", "1,3/2", "1/2,3", "1/2/3"]


def test_bell_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(13)


def test_blocks_are_normalized():
    pi = SetPartition(5, [[5, 3], [4, 1], [2]])
    assert pi.blocks == ((1, 4), (2,), (3, 5))
    assert format_partition(pi) == "1,4/2/3,5"
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])  # 3 uncovered
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])  # overlap


def test_parse_partition_round_trip():
    for n in range(1, 6):
        for pi in enumerate_partitions(n):
            assert parse_partition(format_partition(pi), n) == pi
    with pytest.raises(ValueError):
        parse_partition("1,2/2,3", 3)
    with pytest.raises(ValueError):
        parse_partition("1/2", 3)


# -------------------------------------------------------------- arc logic

def test_arcs_worked_examples():
    assert parse_partition("1/2/3", 3).arcs() == frozenset()
    assert parse_partition("1,3/2", 3).arcs() == {(1, 3)}
    assert parse_partition("1,2,3", 3).arcs() == {(1, 2), (2, 3)}
    assert parse_partition("1,3,4/2", 4).arcs() == {(1, 3), (3, 4)}


def test_partition_from_arcs_inverts_arcs():
    for n in range(1, 7):
        for pi in enumerate_partitions(n):
            assert partition_from_arcs(n, pi.arcs()) == pi
    with pytest.raises(ValueError):
        partition_from_arcs(3, {(1, 2), (1, 3)})  # 1 has two successors


def test_shadow_worked_examples():
    for pi, shadow, reach in [
        (parse_partition("1/2/3", 3), set(), _all_pairs(3)),
        (parse_partition("1,2/3", 3), {(1, 3)}, {(1, 2), (2, 3)}),
        (partition_from_arcs(4, {(2, 3)}), {(2, 4), (1, 3)},
         {(1, 2), (1, 4), (2, 3), (3, 4)}),
    ]:
        assert oracles.compute_SR(pi) == (shadow, reach)
        stats = partition_stats(pi)
        assert stats.shadow == len(shadow)
        assert _positions(stats.reach, pi.n) == reach


def test_nest_worked_examples():
    singles = parse_partition("1/2/3/4", 4)
    for pi in enumerate_partitions(4):
        assert nest(pi, singles) == oracles.nest(pi, singles) == 0
    for pi, other, depth in [
        (partition_from_arcs(4, {(1, 4)}), partition_from_arcs(4, {(2, 3)}), 1),
        (parse_partition("1,3/2", 3), parse_partition("1,2/3", 3), 0),
        (partition_from_arcs(4, {(1, 4)}), partition_from_arcs(4, {(1, 2), (3, 4)}), 0),
    ]:
        assert nest(pi, other) == oracles.nest(pi, other) == depth
    for reading in (nest, oracles.nest):
        with pytest.raises(ValueError):
            reading(parse_partition("1,2", 2), parse_partition("1,2,3", 3))


def test_r_worked_examples():
    for pi, r in [
        (parse_partition("1/2/3", 3), 0),
        (parse_partition("1,3/2", 3), 2),
        (parse_partition("1,2,3", 3), 0),
        (partition_from_arcs(4, {(1, 4)}), 4),
    ]:
        assert partition_stats(pi).r == oracles.r_of(pi) == r


def test_shadow_matches_definition_and_partitions_pairs():
    # |S| and R of the record against the set-builder shadow on every
    # partition of [n], n <= 7; S and R partition the pairs
    for n in range(1, 8):
        for pi in enumerate_partitions(n):
            shadow, reach = oracles.compute_SR(pi)
            assert shadow | reach == _all_pairs(n) and not shadow & reach
            assert pi.arcs() <= reach  # arcs never shadow themselves
            stats = partition_stats(pi)
            assert (stats.shadow, _positions(stats.reach, n)) == (
                len(shadow), reach), pi
            assert _positions(stats.arcs, n) == pi.arcs()


def test_r_matches_oracle():
    for n in range(1, 8):
        for pi in enumerate_partitions(n):
            assert partition_stats(pi).r == oracles.r_of(pi), pi


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_stats_match_the_set_oracles(n):
    # the nest count on every pair for n <= 6, pairs outside the reach
    # included (test_packed compares the shape on the same pairs)
    parts = enumerate_partitions(n)
    for pi in parts:
        for pip in parts:
            assert nest(pi, pip) == oracles.nest(pi, pip), (pi, pip)


# ----------------------------------------------------------- label counts

def test_count_labels_worked_examples():
    assert count_labels(1, 2) == 1
    assert count_labels(3, 2) == 5
    assert count_labels(3, 3) == 11
    assert count_labels(4, 2) == 15
    assert count_labels(4, 3) == 49


def test_count_labels_matches_enumeration():
    for n, (p, m) in itertools.product((1, 2, 3, 4), ((2, 1), (3, 1), (2, 2))):
        f = field_construct(p, m)
        labels = enumerate_labels(n, f)
        assert len(labels) == count_labels(n, f.order)
        assert len(set(labels)) == len(labels)
        duals = enumerate_labels(n, f, dual=True)
        assert len(duals) == count_labels(n, f.order)
        assert all(lab.dual for lab in duals)


# --------------------------------------------------------- coloured labels

def test_coloured_partition_validation():
    f = field_construct(3, 1)
    pi = parse_partition("1,2/3", 3)
    ColouredPartition(pi, {(1, 2): f.from_int(2)})
    with pytest.raises(ValueError):
        ColouredPartition(pi, {(1, 2): f.zero})
    with pytest.raises(ValueError):
        ColouredPartition(pi, {(1, 3): f.one})
    with pytest.raises(ValueError):
        ColouredPartition(pi, {})


def test_dual_flag_distinguishes_labels():
    f = field_construct(2, 1)
    pi = parse_partition("1,2/3", 3)
    a = ColouredPartition(pi, {(1, 2): f.one})
    b = ColouredPartition(pi, {(1, 2): f.one}, dual=True)
    assert a != b
    assert a == ColouredPartition(pi, {(1, 2): f.one})


def test_canonical_label_order_n3_q2_frozen():
    f = field_construct(2, 1)
    texts = [format_coloured(lab) for lab in enumerate_labels(3, f)]
    assert texts == [
        "1/2/3",
        "1,2/3 | 1,2=1",
        "1/2,3 | 2,3=1",
        "1,2,3 | 1,2=1;2,3=1",
        "1,3/2 | 1,3=1",
    ]


def test_canonical_label_order_is_strict_on_sort_key():
    for f, n in [(field_construct(2, 1), 4), (field_construct(3, 1), 3),
                 (field_construct(2, 2), 3)]:
        keys = [lab.sort_key() for lab in enumerate_labels(n, f)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert enumerate_labels(n, f)[0].arcs() == frozenset()


def test_format_parse_coloured_round_trip():
    f9 = field_construct(3, 2)
    f3 = field_construct(3, 1)
    for f in (f3, f9):
        for lab in enumerate_labels(3, f):
            text = format_coloured(lab)
            assert parse_coloured(text, 3, f) == lab
        for lab in enumerate_labels(3, f, dual=True):
            text = format_coloured(lab)
            assert parse_coloured(text, 3, f, dual=True) == lab


def test_parse_coloured_rejects_mismatched_colours():
    f = field_construct(2, 1)
    with pytest.raises(ValueError):
        parse_coloured("1,2/3 | 1,3=1", 3, f)
    with pytest.raises(ValueError):
        parse_coloured("1,2/3", 3, f)  # missing colour for the arc
    with pytest.raises(ValueError):
        parse_coloured("1,2/3 | 1,2=0", 3, f)


def test_json_round_trip():
    f4 = field_construct(2, 2)
    for dual in (False, True):
        for lab in enumerate_labels(3, f4, dual=dual):
            blob = lab.to_json()
            back = ColouredPartition.from_json(blob, 3, f4)
            assert back == lab and back.dual == dual


def test_build_e_places_colours():
    f = field_construct(3, 1)
    lab = parse_coloured("1,3/2 | 1,3=2", 3, f)
    e = build_e(lab, f)
    assert e.entries == {(1, 3): f.from_int(2)}
    with pytest.raises(ValueError):
        build_e(lab, field_construct(2, 1))


def test_labels_distinct_verges():
    # distinct labels give distinct matrices: entries at distinct positions
    f = field_construct(3, 1)
    mats = [build_e(lab, f) for lab in enumerate_labels(4, f)]
    assert len(set(mats)) == len(mats)
    for lab, mat in zip(enumerate_labels(4, f), mats):
        rows = [i for (i, j) in mat.entries]
        cols = [j for (i, j) in mat.entries]
        assert len(set(rows)) == len(rows)  # one entry per row
        assert len(set(cols)) == len(cols)  # one entry per column
        assert set(mat.entries) == set(lab.arcs())


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
@pytest.mark.parametrize("dual", [False, True])
def test_label_order_is_the_per_label_ranking(p, m, dual):
    # sort_key reads one digit order per n; the oracle ranks the positions
    # again for every label
    f = field_construct(p, m)
    for n in range(1, 7):
        labels = enumerate_labels(n, f, dual=dual)
        assert labels == sorted(labels, key=oracles.sort_key_by_ranking)
        assert [lab.sort_key() for lab in labels] == list(
            map(oracles.sort_key_by_ranking, labels))


# -- the diagonal torus on labels ------------------------------------------------

TORUS_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]  # q = 3, 4, 5, 7, 8


def _all_ones(pi, f, dual):
    return ColouredPartition(pi, dict.fromkeys(pi.arcs(), f.one), dual)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TORUS_FIELDS), st.integers(1, 6), st.booleans(), st.data())
def test_torus_logs_rebuild_the_label(pm, n, dual, data):
    f = field_construct(*pm)
    pi = data.draw(st.sampled_from(enumerate_partitions(n)))
    colours = data.draw(st.lists(st.sampled_from(f.nonzero()), min_size=len(pi.arcs()),
                                 max_size=len(pi.arcs())))
    label = ColouredPartition(pi, dict(zip(sorted(pi.arcs()), colours)), dual)
    lambda0, t = torus_logs(label, f)
    assert lambda0 == _all_ones(pi, f, dual)
    assert len(t) == n and all(0 <= x < f.order - 1 for x in t)
    assert all(t[block[0] - 1] == 0 for block in pi.blocks)
    assert oracles.torus_label(lambda0, t, f) == label


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TORUS_FIELDS), st.integers(1, 4), st.booleans(), st.data())
def test_torus_reaches_every_colouring(pm, n, dual, data):
    f = field_construct(*pm)
    pi = data.draw(st.sampled_from(enumerate_partitions(n)))
    lambda0 = _all_ones(pi, f, dual)
    reached = {oracles.torus_label(lambda0, t, f)
               for t in itertools.product(range(f.order - 1), repeat=n)}
    arcs = sorted(pi.arcs())
    assert reached == {ColouredPartition(pi, dict(zip(arcs, c)), dual)
                       for c in itertools.product(f.nonzero(), repeat=len(arcs))}
    assert {torus_logs(label, f)[0] for label in reached} == {lambda0}


@pytest.mark.parametrize("dual", [False, True])
def test_at_q_2_every_label_is_its_own_representative(dual):
    f = field_construct(2, 1)
    for n in range(1, 7):
        for label in enumerate_labels(n, f, dual=dual):
            assert torus_logs(label, f) == (label, (0,) * n)
