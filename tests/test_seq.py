import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatsem import seq


def test_select_orientation():
    # keys fill columns, queries fill rows
    sel = seq.select(np.array([10, 20, 30]), np.array([20, 99, 10]), operator.eq)
    assert sel.tolist() == [
        [False, True, False],
        [False, False, False],
        [True, False, False],
    ]


def test_combine_and():
    a = seq.select(seq.indices(4), seq.indices(4), operator.le)
    b = seq.select(seq.indices(4), seq.indices(4), operator.ge)
    diag = seq.combine(operator.and_, a, b)
    assert diag.tolist() == [[q == k for k in range(4)] for q in range(4)]


def test_combine_folds_three_operands_and_writes_to_none():
    rng = np.random.default_rng(0)
    idx = seq.indices(6)
    dense = tuple(rng.random((6, 6)) < 0.5 for _ in range(3))
    declared = (seq.select(idx, idx, seq.Prefix),
                seq.select(np.array([1, 0, 1, 1, 0, 1]), np.ones(6, dtype=np.int64), seq.Equal),
                seq.select(np.array([1, 1, 0, 1, 0, 0]), np.ones(6, dtype=np.int64), seq.Equal))
    for operands in (dense, declared, (dense[0], declared[1], dense[2])):
        before = [np.asarray(x).copy() for x in operands]
        out = seq.combine(np.logical_and, *operands)
        assert np.array_equal(np.asarray(out), (before[0] & before[1]) & before[2])
        assert all(np.array_equal(np.asarray(x), b) for x, b in zip(operands, before))
        assert all(out is not x for x in operands)


def test_selector_width_counts_rows():
    sel = seq.select(seq.indices(5), seq.indices(5), operator.lt)
    assert seq.selector_width(sel).tolist() == [0, 1, 2, 3, 4]


def test_aggregate_numeric_mean_and_default():
    sel = np.array([[True, True, False], [False, False, False], [False, True, True]])
    assert seq.aggregate(sel, np.array([2, 4, 100])).tolist() == [3, 0, 52]
    assert seq.aggregate(sel, np.array([2, 4, 100]), default=-1)[1] == -1


def test_aggregate_whole_means_stay_int():
    out = seq.aggregate(np.array([[True, True]] * 2), np.array([1, 3])).tolist()
    assert out == [2, 2]
    assert all(isinstance(v, int) for v in out)


def test_aggregate_symbolic_unique_selection():
    # bools are the categorical kind: a unique selection passes its value on
    sel = np.array([[False, True, False]] * 3)
    assert seq.aggregate(sel, np.array([False, True, False])).tolist() == [True, True, True]
    empty = np.zeros((3, 3), dtype=bool)
    assert seq.aggregate(empty, np.array([True, True, True])).tolist() == [False, False, False]


def test_aggregate_symbolic_distinct_rejected():
    with pytest.raises(ValueError, match="distinct bools"):
        seq.aggregate(np.array([[True, True]] * 2), np.array([True, False]))


def test_elementwise_broadcast():
    batch = np.array([[1, 2, 3], [4, 5, 6]])
    assert seq.elementwise(operator.mul, batch, np.array([2, 2, 1])).tolist() == [
        [2, 4, 3], [8, 10, 6]]
    assert seq.elementwise(operator.add, np.array([1, 2]), np.array([10, 20])).tolist() == [11, 22]


def test_shifts():
    assert seq.shift_right(np.array([5, 6, 7])).tolist() == [0, 5, 6]
    assert seq.shift_left(np.array([5, 6, 7])).tolist() == [6, 7, 0]
    assert seq.shift_right(np.array([True, False]), default=False).tolist() == [False, True]


def test_running_count_gives_ordinals_at_hits():
    mask = np.array([0, 1, 0, 1, 1, 0])
    counts = seq.running_count(mask)
    assert counts.tolist() == [0, 1, 1, 2, 3, 3]
    assert seq.elementwise(operator.mul, counts, mask).tolist() == [0, 1, 0, 2, 3, 0]


def test_length_cap_enforced():
    with pytest.raises(seq.SequenceTooLongError):
        seq.indices(seq.MAX_SEQ_LEN + 1)
    assert len(seq.indices(seq.MAX_SEQ_LEN)) == seq.MAX_SEQ_LEN


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_running_count_is_monotone_and_totals(mask):
    counts = seq.running_count(np.array(mask)).tolist()
    assert counts == sorted(counts)
    assert counts[-1] == sum(mask)
    hits = [c for c, m in zip(counts, mask) if m]
    assert hits == list(range(1, sum(mask) + 1))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), st.randoms())
def test_aggregate_matches_plain_mean(values, rng):
    n = len(values)
    sel = [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
    out = seq.aggregate(np.array(sel), np.array(values))
    for q in range(n):
        picked = [values[k] for k in range(n) if sel[q][k]]
        expected = sum(picked) / len(picked) if picked else 0
        assert out[q] == pytest.approx(expected)


# Each sequence holds one kind of value: ints, floats whose sums are exact,
# or bools.  A default of the sequence's kind is a number beside numbers and
# a bool beside bools.

_HALVES = st.integers(-6, 6).map(lambda i: i / 2)
_KINDS = {
    "int": (st.integers(-3, 3), np.int64),
    "float": (_HALVES, np.float64),
    "bool": (st.booleans(), bool),
}
_ONE_KIND = st.sampled_from(sorted(_KINDS)).flatmap(
    lambda kind: st.lists(_KINDS[kind][0], min_size=1, max_size=64).map(
        lambda values: np.array(values, dtype=_KINDS[kind][1])))
_NUMBER_DEFAULTS = st.none() | st.integers(-2, 2) | _HALVES
_BOOL_DEFAULTS = st.none() | st.booleans()
_DEFAULTS = _NUMBER_DEFAULTS | _BOOL_DEFAULTS


def _defaults_of(dtype):
    """The defaults of the kind of a sequence of ``dtype``."""
    return _BOOL_DEFAULTS if dtype == bool else _NUMBER_DEFAULTS


@given(_ONE_KIND, _DEFAULTS)
def test_shifts_and_running_count_match_plain_lists(values, default):
    plain = values.tolist()
    try:
        fill = _ref_fill(default, "bool" if values.dtype == bool else "number")
    except ValueError:
        for shift in (seq.shift_right, seq.shift_left):
            with pytest.raises(ValueError, match="is not of the kind"):
                shift(values, default=default)
    else:
        assert seq.shift_right(values, default=default).tolist() == [fill] + plain[:-1]
        assert seq.shift_left(values, default=default).tolist() == plain[1:] + [fill]
    mask = [int(bool(v)) for v in plain]
    assert seq.running_count(np.array(mask)).tolist() == [sum(mask[:i + 1])
                                                         for i in range(len(mask))]


def test_the_errors_a_call_can_raise():
    with pytest.raises(ValueError, match="length mismatch"):
        seq.elementwise(operator.add, np.array([1, 2, 3]), np.array([1, 2]))
    with pytest.raises(ValueError, match="length mismatch"):
        seq.aggregate(np.eye(3, dtype=bool), np.array([1, 2]))
    with pytest.raises(ValueError, match="elementwise needs at least one sequence"):
        seq.elementwise(operator.add)
    with pytest.raises(ValueError, match="combine needs at least one selector"):
        seq.combine(np.logical_and)
    with pytest.raises(ValueError, match="selector size mismatch"):
        seq.combine(np.logical_and, np.eye(3, dtype=bool), np.eye(4, dtype=bool))
    # a default of the other kind raises, whether or not a row selects nothing
    for sel in (np.eye(3, dtype=bool), np.zeros((3, 3), dtype=bool)):
        for values, default in ((np.array([1, 2, 3]), True), (np.array([1.5, 2, 3]), False),
                                (np.array([True, False, True]), 0),
                                (np.array([True, False, True]), 0.5),
                                (np.array([1, 2, 3]), "")):
            with pytest.raises(ValueError, match="is not of the kind"):
                seq.aggregate(sel, values, default)
            for shift in (seq.shift_right, seq.shift_left):
                with pytest.raises(ValueError, match="is not of the kind"):
                    shift(values, default=default)
    # with no default a shift takes the sequence's zero, False beside bools
    assert seq.shift_right(np.array([True, False])).tolist() == [False, True]


def test_every_primitive_rejects_what_is_not_an_array_of_numbers_or_bools():
    """Sequences and selectors are numpy arrays of numbers or bools: a list, a
    tuple, a scalar or an array of strings or objects raises ``TypeError``,
    as does an array with too few axes (a 0-d sequence, a 1-d selector)."""
    row, sel = np.arange(3), np.eye(3, dtype=bool)
    table = seq.Table(lambda a, b: a == b, 3)
    bad = [
        ([0, 1, 2], sel.tolist()),
        ((0, 1, 2), tuple(map(tuple, sel.tolist()))),
        (1, True),
        (np.array(["a", "b", "c"]), sel.astype(str)),
        (np.array([0, "b", None], dtype=object), sel.astype(object)),
        (np.array(1), row > 0),
    ]
    for bad_row, bad_sel in bad:
        calls = {
            "select of keys": lambda: seq.select(bad_row, row, operator.eq),
            "select of queries": lambda: seq.select(row, bad_row, operator.eq),
            "aggregate of values": lambda: seq.aggregate(sel, bad_row),
            "aggregate through a selector": lambda: seq.aggregate(bad_sel, row),
            "selector_width": lambda: seq.selector_width(bad_sel),
            "combine": lambda: seq.combine(np.logical_and, sel, bad_sel),
            "elementwise": lambda: seq.elementwise(operator.add, row, bad_row),
            "elementwise of a table": lambda: seq.elementwise(table, bad_row, row),
            "shift_right": lambda: seq.shift_right(bad_row),
            "shift_left": lambda: seq.shift_left(bad_row),
            "running_count": lambda: seq.running_count(bad_row),
        }
        for name, call in calls.items():
            with pytest.raises(TypeError, match="expected a numpy array of numbers or bools"):
                call()
                pytest.fail(f"{name} of {bad_row!r}")


def test_a_predicate_or_function_that_ignores_an_argument_broadcasts():
    every = seq.select(np.array([1, 0, 1]), np.ones(3, dtype=np.int64), lambda k, q: True)
    assert every.dtype == bool and every.tolist() == [[True] * 3] * 3
    assert seq.select(np.array([1, 2, 3]), np.array([4, 5, 6]),
                      lambda k, q: True).tolist() == [[True] * 3] * 3
    assert seq.select(np.array([1, 2, 3]), np.array([4, 5, 6]), lambda k, q: q > 4).tolist() == [
        [False] * 3, [True] * 3, [True] * 3]
    assert seq.elementwise(lambda a: 7, np.array([1, 2, 3])).tolist() == [7, 7, 7]
    out = seq.elementwise(lambda a, b: b, np.zeros((2, 3), dtype=np.int64), np.array([1, 2, 3]))
    assert out.tolist() == [[1, 2, 3]] * 2
    out[0, 0] = 9  # a copy, not a read-only broadcast view
    assert out.tolist() == [[9, 2, 3], [1, 2, 3]]


def test_every_primitive_accepts_length_zero():
    empty, nothing = seq.indices(0), np.array([], dtype=bool)
    sel = seq.select(empty, empty, operator.eq)
    assert sel.shape == (0, 0)
    assert seq.combine(operator.and_, sel, sel).shape == (0, 0)
    assert seq.selector_width(sel).tolist() == []
    assert seq.aggregate(sel, empty).tolist() == []
    assert seq.aggregate(sel, nothing, default=False).tolist() == []
    assert seq.elementwise(operator.mul, empty, empty).tolist() == []
    assert seq.shift_right(empty).tolist() == []
    assert seq.shift_left(nothing, default=False).tolist() == []
    assert seq.running_count(empty).tolist() == []


# Plain-Python definitions of the primitives, position by position.  A result
# holds its values as one sequence of them would: ``_one_kind``.

def _typed(xs):
    return [(type(v), v) for v in xs]


def _one_kind(xs, kind):
    """``xs`` as a result from a sequence of ``kind`` holds them: all floats
    when that kind or one of them is float, else as they are."""
    if kind == "float" or float in map(type, xs):
        return [float(v) for v in xs]
    return xs


def _ref_fill(default, kind):
    """The value a row that selects nothing takes: the sequence's zero for
    None; a default of the other kind raises ValueError."""
    if default is None:
        return False if kind == "bool" else 0
    if (type(default) is bool) != (kind == "bool"):
        raise ValueError("a default of the other kind")
    return default


def _ref_aggregate(sel, values, kind, default=None):
    """Each row's first selected value when the selected values agree, else
    their mean when they are numbers (an int only when every mean of the
    call is whole); an empty row takes the default."""
    default = _ref_fill(default, kind)
    picks = []
    for row in sel:
        picked = [v for v, hit in zip(values, row) if hit]
        if not picked or all(v == picked[0] for v in picked):
            picks.append(picked[:1])
        elif kind == "bool":
            raise ValueError("distinct bools")
        else:
            mean = sum(picked) / len(picked)
            picks.append([int(mean) if kind == "int" and mean.is_integer() else mean])
    gathered = iter(_one_kind([pick[0] for pick in picks if pick], kind))
    return _one_kind([next(gathered) if pick else default for pick in picks], kind)


def _ref_running_count(mask):
    total, out = 0, []
    for m in mask:
        total += m
        out.append(total)
    return out


@st.composite
def _selectors(draw, n):
    """An n x n selector: a relative offset (at most one key per row, some rows
    empty) or random cells at a drawn density (0 gives only empty rows)."""
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["offset", 0.0, 0.05, 0.3, 1.0]))
    if shape == "offset":
        d = draw(st.integers(-3, 3))
        cells = [[k == q + d for k in range(n)] for q in range(n)]
    else:
        cells = [[rng.random() < shape for _ in range(n)] for _ in range(n)]
    return np.array(cells, dtype=bool).reshape(n, n)


@given(st.data())
def test_primitives_match_plain_python(data):
    kind = data.draw(st.sampled_from(sorted(_KINDS)), label="kind")
    elements, dtype = _KINDS[kind]
    values = data.draw(st.lists(elements, max_size=64), label="values")
    array = np.array(values, dtype=dtype)
    n = len(values)
    sel = data.draw(_selectors(n), label="selector")
    default = data.draw(_DEFAULTS, label="default")

    try:
        expected = _ref_aggregate(sel.tolist(), values, kind, default)
    except ValueError:
        with pytest.raises(ValueError):
            seq.aggregate(sel, array, default)
    else:
        assert _typed(seq.aggregate(sel, array, default).tolist()) == _typed(expected)

    assert seq.selector_width(sel).tolist() == [sum(row) for row in sel.tolist()]

    other = values[::-1]
    assert _typed(seq.elementwise(operator.eq, array, array[::-1]).tolist()) == _typed(
        [a == b for a, b in zip(values, other)])
    assert _typed(seq.elementwise(lambda v: v * 2, array).tolist()) == _typed(
        [v * 2 for v in values])

    try:
        fill = _ref_fill(default, kind)
    except ValueError:
        for shift in (seq.shift_right, seq.shift_left):
            with pytest.raises(ValueError):
                shift(array, default=default)
    else:
        assert _typed(seq.shift_right(array, default=default).tolist()) == _typed(
            _one_kind(([fill] + values)[:n], kind))
        assert _typed(seq.shift_left(array, default=default).tolist()) == _typed(
            _one_kind((values + [fill])[1:], kind))

    mask = [int(bool(v)) for v in values]
    assert seq.running_count(np.array(mask, dtype=np.int64)).tolist() == _ref_running_count(mask)


# Batches: a (B, n) stack of rows must give the values of the stack of the
# per-row calls, in that stack's dtype, under a selector shared by every row
# (n x n) or one selector per row.

@st.composite
def _batches(draw):
    """B rows of length n, all of one kind of value, as a (B, n) array."""
    elements, dtype = _KINDS[draw(st.sampled_from(sorted(_KINDS)), label="kind")]
    n = draw(st.integers(0, 64), label="n")
    b = draw(st.integers(0, 4), label="B")
    values = draw(st.lists(elements, min_size=b * n, max_size=b * n), label="values")
    return np.array(values, dtype=dtype).reshape(b, n)


def _rows(fn, *columns):
    """``fn`` on each row's arguments, one column of arguments per parameter,
    or ValueError when a row raises it."""
    try:
        return [np.asarray(fn(*args)) for args in zip(*columns)]
    except ValueError:
        return ValueError


def _stacks(out, outs, row_ndim=1):
    """``out`` holds the values of the stack of the row results ``outs``, in
    the dtype numpy gives that stack; an unbatched ``out`` stands for every
    row."""
    out = np.broadcast_to(out, (len(outs), *out.shape[out.ndim - row_ndim:]))
    if outs:
        assert out.dtype == np.stack(outs).dtype
    assert [row.tolist() for row in out] == [row.tolist() for row in outs]


@given(_batches(), st.data())
def test_batched_primitives_equal_the_stack_of_row_calls(stacked, data):
    b, n = stacked.shape
    rows = list(stacked)
    shared = data.draw(_selectors(n), label="shared selector")
    own = np.array([data.draw(_selectors(n), label="row selector") for _ in rows],
                   dtype=bool).reshape(b, n, n)
    default = data.draw(_defaults_of(stacked.dtype), label="default")

    for sel, sels in ((shared, [shared] * b), (own, list(own))):
        expected = _rows(lambda s, v: seq.aggregate(s, v, default), sels, rows)
        if expected is ValueError:
            with pytest.raises(ValueError):
                seq.aggregate(sel, stacked, default)
        else:
            _stacks(seq.aggregate(sel, stacked, default), expected)
        _stacks(seq.selector_width(sel), _rows(seq.selector_width, sels))
        _stacks(seq.combine(operator.and_, sel, shared),
                _rows(lambda s: seq.combine(operator.and_, s, shared), sels), 2)

    reverse = stacked[:, ::-1]
    _stacks(seq.elementwise(operator.eq, stacked, reverse),
            _rows(lambda x, y: seq.elementwise(operator.eq, x, y), rows, reverse))
    _stacks(seq.elementwise(lambda v: v * 2, stacked),
            _rows(lambda x: seq.elementwise(lambda v: v * 2, x), rows))

    for shift in (seq.shift_right, seq.shift_left):
        _stacks(shift(stacked, default=default), _rows(lambda x: shift(x, default=default), rows))

    masks = stacked.astype(bool).astype(np.int64)
    _stacks(seq.running_count(masks), _rows(seq.running_count, masks))

    # the declared predicates' cells, over indices and over a batch of them,
    # and over each mask as keys against a row of ones
    idx, ones = seq.indices(n), np.ones(n, dtype=np.int64)
    d = data.draw(st.integers(-n - 1, n + 1), label="offset")
    q, k = np.indices((n, n))
    for positions in (idx, np.broadcast_to(idx, (b, n))):
        for pred, cells in ((seq.Offset(d), k == q + d), (seq.Prefix, k <= q)):
            sel = seq.select(positions, positions, pred)
            assert sel.dtype == bool
            assert sel.tolist() == np.broadcast_to(cells, (*positions.shape[:-1], n, n)).tolist()
    hits = seq.select(masks, ones, seq.Equal)
    assert hits.dtype == bool and hits.shape == (b, n, n)
    for mask, rows_hit in zip(masks, hits):
        assert rows_hit.tolist() == [mask.astype(bool).tolist()] * n
        assert seq.select(mask, ones, seq.Equal).tolist() == rows_hit.tolist()

    # batched keys or queries against unbatched ones
    for keys, queries, fn in ((stacked, idx, lambda x, y: seq.select(x, idx, operator.eq)),
                              (ones, stacked, lambda x, y: seq.select(ones, x, operator.eq)),
                              (stacked, reverse, lambda x, y: seq.select(x, y, operator.eq))):
        _stacks(seq.select(keys, queries, operator.eq), _rows(fn, rows, reverse), 2)


def _same(out, dense):
    """Equal dtype, shape and values, each value with its Python type."""
    assert out.dtype == dense.dtype and out.shape == dense.shape
    assert _typed(out.ravel().tolist()) == _typed(dense.ravel().tolist())


@given(_batches(), st.data())
def test_shifts_are_the_aggregates_of_an_offset(stacked, data):
    """``shift_right`` and ``shift_left`` are the aggregates of ``Offset(-1)``
    and ``Offset(+1)`` over ``indices(n)``, and of the dense selectors of the
    same relations: on a batch and on one row of it, with every default of
    the sequence's kind, and as bools with no default."""
    n = stacked.shape[-1]
    default = data.draw(_defaults_of(stacked.dtype), label="default")
    idx, plain = seq.indices(n), np.arange(n)
    for shift, d in ((seq.shift_right, -1), (seq.shift_left, 1)):
        offset = seq.select(idx, idx, seq.Offset(d))
        dense = seq.select(plain, plain, lambda k, q: k == q + d)
        for values in (stacked, *stacked[:1]):
            out = shift(values, default=default)
            _same(out, seq.aggregate(offset, values, default))
            _same(out, seq.aggregate(dense, values, default))
            flags = values != 0  # bools, shifted with no default
            _same(shift(flags), seq.aggregate(offset, flags))


# The length cap holds on every call of every primitive: on a row, on a
# batch of rows, and on a batch beside a row.

def _too_long(shape_of_rows):
    n = seq.MAX_SEQ_LEN + 1
    values = np.ones((*shape_of_rows, n), dtype=np.int64)
    return values, np.broadcast_to(np.eye(n, dtype=bool), (*shape_of_rows, n, n))


@pytest.mark.parametrize("form", ["array row", "array batch"])
def test_every_primitive_caps_the_length(form):
    values, selector = _too_long((2,) if "batch" in form else ())
    row = values.reshape(-1, values.shape[-1])[0]
    calls = {
        "select": lambda: seq.select(values, values, operator.eq),
        "select with a declared predicate": lambda: seq.select(values, values, seq.Offset(1)),
        "select of a row of queries": lambda: seq.select(values, row, seq.Equal),
        "aggregate": lambda: seq.aggregate(selector, values),
        "selector_width": lambda: seq.selector_width(selector),
        "combine": lambda: seq.combine(np.logical_and, selector, selector),
        "elementwise": lambda: seq.elementwise(operator.add, values, values),
        "elementwise beside a row": lambda: seq.elementwise(operator.add, values, row),
        "shift_right": lambda: seq.shift_right(values),
        "shift_left": lambda: seq.shift_left(values),
        "running_count": lambda: seq.running_count(values),
    }
    for name, call in calls.items():
        with pytest.raises(seq.SequenceTooLongError):
            call()
            pytest.fail(name)


def test_the_longest_sequences_pass_the_cap():
    n = seq.MAX_SEQ_LEN
    values = np.arange(n)
    assert seq.shift_right(values)[-1] == n - 2
    assert seq.running_count(values > 0)[-1] == n - 1
    assert seq.selector_width(np.eye(n, dtype=bool)).sum() == n


# A Table is its rule, evaluated once over the grid of codes.

def test_table_gathers_what_its_rule_computes():
    rule = lambda a, b: (a == 2) | ((a + b) % 3 == 0)  # noqa: E731
    table = seq.Table(rule, 5)
    assert table.values.shape == (5, 5) and table.values.dtype == bool
    assert not table.values.flags.writeable
    rng = np.random.default_rng(0)
    for shape in ((0,), (7,), (3, 7), (0, 7)):
        a, b = rng.integers(0, 5, shape), rng.integers(0, 5, shape)
        _same(seq.elementwise(table, a, b), seq.elementwise(rule, a, b))
    a, b = rng.integers(0, 5, (3, 7)), rng.integers(0, 5, 7)  # a batch beside a row
    _same(seq.elementwise(table, a, b), seq.elementwise(rule, a, b))
    one = seq.Table(lambda a: a * 2, 4)
    assert one.values.tolist() == [0, 2, 4, 6]
    assert seq.Table(lambda a, b: True, 2).values.tolist() == [[True, True]] * 2  # broadcast
    assert seq.elementwise(one, np.array([[3, 0], [1, 1]])).tolist() == [[6, 0], [2, 2]]
