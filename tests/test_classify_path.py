"""The classify path's one-pass matrix parse and its verge label.

Oracles (tests/oracles.py): the parser that split the text with a
bracket-depth character loop and derived the dense key in the NilMatrix
constructor, and the label read through the arc set, partition_from_arcs
and the checking constructors.  Both sides must give equal dense keys,
entries and labels, or the same ValueError (AssertionError for a state
that is not a verge) with the same text.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    parse_matrix_by_chars,
    split_assignments_by_chars,
    verge_label_by_arcs,
)
from superchar.gf import field_construct
from superchar.nilpotent import _assignments, format_matrix, parse_matrix, positions
from superchar.partitions import build_e, enumerate_labels, format_coloured
from superchar.orbits import _verge_label

# the classify stream's three groups
CONFIGS = [(6, 2, 1), (5, 3, 1), (4, 2, 2)]


def _outcome(parse, text, n, field):
    """(dense key, entries) of the parse, or the ValueError text."""
    try:
        a = parse(text, n, field)
    except ValueError as exc:
        return "ValueError", str(exc)
    return a.dense(), a.entries


def _label_outcome(n, field, state, dual):
    """Everything a label shows, order included, or the AssertionError text."""
    readers = (_verge_label, verge_label_by_arcs)
    out = []
    for read in readers:
        try:
            label = read(n, field, state, dual)
        except AssertionError as exc:
            out.append(("AssertionError", str(exc)))
            continue
        out.append((
            label, format_coloured(label), label.to_json(),
            list(label.colours), label.partition.blocks, label.arcs(), label.dual,
        ))
    return out


@pytest.mark.parametrize("n,p,m", CONFIGS)
@pytest.mark.parametrize("dual", [False, True])
def test_every_label_parses_and_reads_back_as_before(n, p, m, dual):
    field = field_construct(p, m)
    labels = enumerate_labels(n, field, dual=dual)
    for label in labels:
        e = build_e(label, field)
        text = format_matrix(e)
        assert _outcome(parse_matrix, text, n, field) == _outcome(
            parse_matrix_by_chars, text, n, field
        ), text
        assert parse_matrix(text, n, field).dense() == e.dense()
        new, old = _label_outcome(n, field, e.dense(), dual)
        assert new == old, text
        assert new[0] == label
    assert len(labels) > 50


@pytest.mark.parametrize("n,p,m", CONFIGS)
def test_states_that_are_not_verges_fail_alike(n, p, m):
    # two entries in one row or in one column, with every nonzero value
    field = field_construct(p, m)
    pos = positions(n)
    for (a, b) in itertools.combinations(range(len(pos)), 2):
        (i, j), (k, l) = pos[a], pos[b]
        if i != k and j != l:
            continue
        for v in range(1, field.order):
            state = [0] * len(pos)
            state[a] = state[b] = v
            for dual in (False, True):
                new, old = _label_outcome(n, field, state, dual)
                assert new == old == ("AssertionError",
                                      "elimination left a matrix that is not a verge")


_PIECES = st.sampled_from([
    "a12=1", "a13=2", "a34=[1,1]", "a12=[0,1]", "a23=[1]", "a14=[1,0,1]",
    "a24=3", "a12=0", "a45=-1", "a21=1", "a1=1", "a12", "a12=", "=1",
    "b12=1", "a12=x", "a12=1]", "a12=[1", "a12=[1,x]", "a19=1", "a00=1",
    "a1²=1", "a12 = 1", " a13=1 ", "",
])
_NOISE = st.sampled_from(["", " ", ",", "[", "]", ",,", "\t", "]]", "[["])


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(CONFIGS + [(10, 2, 1)]),
    st.lists(st.tuples(_PIECES, _NOISE), max_size=6),
)
def test_parse_matches_the_character_loop(config, pieces):
    n, p, m = config
    field = field_construct(p, m)
    text = ",".join(piece + noise for piece, noise in pieces)
    assert _assignments(text) == split_assignments_by_chars(text)
    assert _outcome(parse_matrix, text, n, field) == _outcome(
        parse_matrix_by_chars, text, n, field
    )


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="a0123=[], \t", max_size=24))
def test_split_matches_the_character_loop_on_any_text(text):
    assert _assignments(text) == split_assignments_by_chars(text)
    field = field_construct(2, 2)
    assert _outcome(parse_matrix, text, 4, field) == _outcome(
        parse_matrix_by_chars, text, 4, field
    )
