import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatsem import seq


def test_select_orientation():
    # keys fill columns, queries fill rows
    sel = seq.select([10, 20, 30], [20, 99, 10], operator.eq)
    assert sel.tolist() == [
        [False, True, False],
        [False, False, False],
        [True, False, False],
    ]


def test_select_broadcasts_scalars():
    sel = seq.select([1, 0, 1], 1, operator.eq)
    assert sel.tolist() == [[True, False, True]] * 3


def test_combine_and():
    a = seq.select(seq.indices(4), seq.indices(4), operator.le)
    b = seq.select(seq.indices(4), seq.indices(4), operator.ge)
    diag = seq.combine(operator.and_, a, b)
    assert diag.tolist() == [[q == k for k in range(4)] for q in range(4)]


def test_selector_width_counts_rows():
    sel = seq.select(seq.indices(5), seq.indices(5), operator.lt)
    assert seq.selector_width(sel) == [0, 1, 2, 3, 4]


def test_aggregate_numeric_mean_and_default():
    sel = [[True, True, False], [False, False, False], [False, True, True]]
    assert seq.aggregate(sel, [2, 4, 100]) == [3, 0, 52]
    assert seq.aggregate(sel, [2, 4, 100], default=-1)[1] == -1


def test_aggregate_whole_means_stay_int():
    out = seq.aggregate([[True, True]] * 2, [1, 3])
    assert out == [2, 2]
    assert all(isinstance(v, int) for v in out)


def test_aggregate_symbolic_unique_selection():
    sel = [[False, True, False]] * 3
    assert seq.aggregate(sel, ["a", "b", "c"]) == ["b", "b", "b"]
    empty = [[False] * 3] * 3
    assert seq.aggregate(empty, ["a", "b", "c"]) == ["", "", ""]


def test_aggregate_symbolic_distinct_rejected():
    with pytest.raises(ValueError):
        seq.aggregate([[True, True]] * 2, ["a", "b"])


def test_elementwise_broadcast():
    assert seq.elementwise(operator.mul, [1, 2, 3], 2) == [2, 4, 6]
    assert seq.elementwise(operator.add, [1, 2], [10, 20]) == [11, 22]


def test_shifts():
    assert seq.shift_right([5, 6, 7]) == [0, 5, 6]
    assert seq.shift_left([5, 6, 7]) == [6, 7, 0]
    assert seq.shift_right(["a", "b"], default="") == ["", "a"]


def test_running_count_gives_ordinals_at_hits():
    mask = [0, 1, 0, 1, 1, 0]
    counts = seq.running_count(mask)
    assert counts == [0, 1, 1, 2, 3, 3]
    assert seq.elementwise(operator.mul, counts, mask) == [0, 1, 0, 2, 3, 0]


def test_length_cap_enforced():
    with pytest.raises(seq.SequenceTooLongError):
        seq.indices(seq.MAX_SEQ_LEN + 1)
    assert len(seq.indices(seq.MAX_SEQ_LEN)) == seq.MAX_SEQ_LEN


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_running_count_is_monotone_and_totals(mask):
    counts = seq.running_count(mask)
    assert counts == sorted(counts)
    assert counts[-1] == sum(mask)
    hits = [c for c, m in zip(counts, mask) if m]
    assert hits == list(range(1, sum(mask) + 1))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), st.randoms())
def test_aggregate_matches_plain_mean(values, rng):
    n = len(values)
    sel = [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
    out = seq.aggregate(sel, values)
    for q in range(n):
        picked = [values[k] for k in range(n) if sel[q][k]]
        expected = sum(picked) / len(picked) if picked else 0
        assert out[q] == pytest.approx(expected)


@given(st.lists(st.integers(-3, 3) | st.sampled_from(["the", "boy"]), min_size=1, max_size=64),
       st.integers(-9, 9) | st.just(""))
def test_shifts_and_running_count_match_plain_lists(values, default):
    assert seq.shift_right(values, default=default) == [default] + values[:-1]
    assert seq.shift_left(values, default=default) == values[1:] + [default]
    mask = [int(v == "the") for v in values]
    assert seq.running_count(mask) == [sum(mask[:i + 1]) for i in range(len(mask))]
