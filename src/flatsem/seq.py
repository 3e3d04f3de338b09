"""Sequence-to-sequence primitives the flat parser is written in.

These are RASP's operations over aligned sequences:

* ``select``        builds an attention-style boolean selector matrix
* ``aggregate``     gathers each row's selected value, or the mean of numbers
* ``selector_width``counts selected positions per row
* ``elementwise``   position-wise map over aligned sequences
* ``combine``       position-wise map over selectors

and one declared map, ``Table``, a position-wise map over categorical codes
held as its lookup table.  The encoder's analysis is phrased in two kinds of
them: the shifts, and ``elementwise`` of a ``Table``.

As in RASP, a selector stands for an attention matrix: n x n ``bool`` cells,
``sel[q, k]`` meaning query position ``q`` attends to key position ``k``; it
is always that dense numpy array.  A sequence is a numpy array whose last
axis is the position; any axes before it are a batch of same-length rows,
each row an independent input, as a Transformer layer runs a batch of inputs
at once.  A selector built from batched sequences is ``(..., n, n)``; one
that does not depend on the data, such as ``Offset(-1)`` over
``indices(n)``, stays ``(n, n)`` and broadcasts over the batch.  Every
primitive on a batch gives the values of the stack of its calls on the
rows, in the dtype numpy gives that stack.

``Offset(d)`` (``k == q + d``), ``Prefix`` (``k <= q``) and ``Equal``
(``k == q``) name RASP's offset, prefix and equality predicates; each is a
plain elementwise comparison.  The shifts are the aggregates of
``Offset(-1)`` and ``Offset(+1)`` over ``indices(n)``, each read as one
slice with no selector built.

Each primitive makes one numpy call over the whole of its input, never a
Python loop over positions or rows.  ``select`` calls its predicate once, on
the key rows and the query columns broadcast against each other;
``elementwise`` calls its function once, on the whole aligned arrays;
``combine`` calls its op once, on whole matrices.  Predicates, functions and
ops must therefore be elementwise -- ``operator.le``,
``lambda k, q: k == q - 1``, ``lambda p, q: (p == 1) & (q == 2)`` -- and not
``and`` / ``or`` / ``in`` / ``int()``, which need a single value.
Each primitive converts and checks its arguments once, and passes an array
that needs no conversion on as it is; the length cap, ``MAX_SEQ_LEN``,
holds on every path.

A ``Table(rule, size)`` declares a position-wise map over categorical codes,
such as the lexicon's categories.  Its domain is every combination of the
codes ``0 .. size - 1``, one per argument of ``rule``: ``size ** k`` cells
for ``k`` sequences.  ``rule`` is evaluated once, on that whole grid, when
the table is made -- at import for a module-level table -- and
``elementwise(table, *codes)`` is then one gather from its values.  That is
Tracr's categorical MLP: a map over finite categorical inputs compiles to a
lookup table of its input space.  The table is a constant, not a cache: it
holds every cell of its domain before the first call, and no call changes
it.  A code outside the domain is the caller's error (numpy would wrap a
negative one round), so a table is only fed codes known to lie in it.

A sequence holds one kind of value: numbers (int or float), bools, or other
objects such as tokens, in an object array.  The primitives accept Python
lists and scalars too; a list is one row, and a scalar broadcasts to a full
sequence.  Each becomes the array numpy makes of it when that holds numbers
or bools, and an object array of the same values otherwise.  Every primitive
accepts length 0 and an empty batch.
"""

from __future__ import annotations

import functools
import inspect
import operator
from typing import Any, Callable

import numpy as np

MAX_SEQ_LEN = 512


class SequenceTooLongError(ValueError):
    """Raised when an input exceeds MAX_SEQ_LEN positions."""


def check_length(n: int) -> None:
    if n > MAX_SEQ_LEN:
        raise SequenceTooLongError(f"sequence length {n} exceeds maximum {MAX_SEQ_LEN}")


_ALL_POSITIONS = np.arange(MAX_SEQ_LEN)
_ALL_POSITIONS.flags.writeable = False


def indices(n: int) -> np.ndarray:
    """The positional sequence [0, 1, ..., n-1], read-only."""
    check_length(n)
    return _ALL_POSITIONS[:max(n, 0)]


def Offset(d: int) -> Callable[[Any, Any], Any]:
    """``k == q + d``: each query selects the key ``d`` positions after it."""
    return lambda k, q: k == q + d


Prefix = operator.le  # k <= q: each query selects itself and every key before it
Equal = operator.eq  # k == q


def _array(x: Any, n: int) -> np.ndarray:
    """``x`` as an array whose last axis has length ``n``; a scalar broadcasts.
    A list or scalar becomes numpy's array of it when that holds numbers or
    bools, and an object array of the same values otherwise."""
    if not isinstance(x, np.ndarray):
        arr = np.asarray(x) if isinstance(x, (list, tuple)) else np.full(n, x)
        if arr.dtype.kind not in "biuf":  # tokens, strings, anything else
            arr = np.empty(arr.shape, dtype=object)
            arr[...] = x
        x = arr
    if x.shape[-1] != n:
        raise ValueError(f"length mismatch: {x.shape[-1]} vs {n}")
    return x


def _common_length(*xs: Any) -> int:
    for x in xs:
        if isinstance(x, np.ndarray):
            return x.shape[-1]
        if isinstance(x, (list, tuple)):
            return len(x)
    raise ValueError("at least one argument must be a sequence")


def _matrix(selector: Any) -> np.ndarray:
    """The dense cells of a selector, at most ``MAX_SEQ_LEN`` keys wide."""
    sel = np.asarray(selector, dtype=bool)
    if sel.ndim < 2:
        return sel.reshape(0, 0)  # [] is the empty selector
    check_length(sel.shape[-1])
    return sel


def select(keys: Any, queries: Any, predicate: Callable[[Any, Any], Any]) -> np.ndarray:
    """Boolean selector with ``sel[..., q, k] = predicate(keys[..., k], queries[..., q])``.

    The first argument supplies the key (column) values, the second the query
    (row) values; either may be a scalar, which broadcasts.  For example
    ``select(indices(n), indices(n), le)`` selects, at each position, every
    position at or before it -- the building block of running counts.
    """
    n = _common_length(keys, queries)
    check_length(n)
    ks = _array(keys, n)
    qs = _array(queries, n)
    cols, rows = ks[..., np.newaxis, :], qs[..., np.newaxis]
    sel = np.asarray(predicate(cols, rows), dtype=bool)
    shape = (n, n) if ks.ndim == qs.ndim == 1 else np.broadcast(cols, rows).shape
    if sel.shape != shape:  # a predicate that ignores some of its arguments
        sel = np.broadcast_to(sel, shape).copy()
    return sel


def combine(op: Callable[..., Any], *selectors: Any) -> np.ndarray:
    """Position-wise combination of selectors, e.g. ``combine(and_, a, b)``;
    more than two fold pairwise from the left, and no operand is written to.
    An ``(n, n)`` selector broadcasts over a batch."""
    if not selectors:
        raise ValueError("combine needs at least one selector")
    if len(selectors) > 2:
        return functools.reduce(lambda a, b: combine(op, a, b), selectors)
    mats = [np.asarray(s, dtype=bool) for s in selectors]
    check_length(mats[0].shape[-1] if mats[0].ndim else 0)
    for m in mats:
        if m.shape[-2:] != mats[0].shape[-2:]:
            raise ValueError("selector size mismatch")
    return np.asarray(op(*mats), dtype=bool)


def selector_width(selector: Any) -> np.ndarray:
    """Number of selected key positions for each query position."""
    return _matrix(selector).sum(axis=-1)


def _fill(vals: np.ndarray, default: Any) -> tuple[Any, np.dtype]:
    """The value an empty row of ``vals`` takes, and the dtype that holds it
    beside them.  The value is ``default``, or when that is None 0 for a
    numeric sequence and "" for any other.  A number beside numbers, or a
    bool beside bools, gives numpy's common dtype of the two; any other pair
    gives object.  A bool beside bools, or an int that fits beside int64,
    keeps the sequence's dtype: that is the common dtype already."""
    dtype = vals.dtype
    kind = dtype.kind
    if default is None:
        default = 0 if kind in "iuf" else ""
    if kind not in "biuf":
        return default, _OBJECT
    if ((type(default) is bool and kind == "b")
            or (type(default) is int and dtype is _INT64 and _INT64_MIN <= default <= _INT64_MAX)):
        return default, dtype
    fill = np.asarray(default).dtype
    if fill.kind == kind == "b" or (kind != "b" and fill.kind in "iuf"):
        return default, np.promote_types(dtype, fill)
    return default, _OBJECT


_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def aggregate(selector: Any, values: Any, default: Any = None) -> np.ndarray:
    """RASP's aggregate: each query row gathers the value at its selected key.

    A row that selects several keys holding one value passes that value on.
    Where they differ, numbers take their mean (the two cases are Tracr's
    categorical and numerical aggregates) -- an int sequence stays int
    when every mean of the call is whole, and becomes float otherwise -- and
    any other values raise ``ValueError``.  A row that selects nothing takes
    ``default``, or 0 for a numeric sequence and "" for any other; the result
    keeps its dtype when the default is a number beside numbers or a bool
    beside bools, and is an object array otherwise.

    An ``(n, n)`` selector gathers the same positions from every row of a
    batch.
    """
    sel = _matrix(selector)
    n = sel.shape[-1]
    vals = _array(values, n)
    if sel.ndim > 2:  # a selector per row: each row gathers its own positions
        shape = np.broadcast_shapes(sel.shape[:-1], vals.shape)
        sel = np.broadcast_to(sel, (*shape, n))
        vals = np.broadcast_to(vals, shape)
    first = sel.argmax(axis=-1) if n else np.zeros(sel.shape[:-1], dtype=np.intp)
    out = vals.take(first, -1) if sel.ndim == 2 else np.take_along_axis(vals, first, -1)
    differ = (sel & (vals[..., np.newaxis, :] != out[..., np.newaxis])).any(axis=-1)
    if differ.any():
        if vals.dtype.kind not in "iuf":
            raise ValueError("aggregate over distinct non-numeric values is undefined")
        sums = np.matmul(sel, vals[..., np.newaxis].astype(np.float64))[..., 0]
        mean = sums[differ] / np.broadcast_to(np.count_nonzero(sel, axis=-1), differ.shape)[differ]
        if (mean != np.trunc(mean)).any():
            out = out.astype(np.float64, copy=False)
        out[differ] = mean
    hit = sel.any(axis=-1)
    if hit.all():
        return out
    default, dtype = _fill(out, default)
    return np.where(hit, out.astype(dtype, copy=False), default)


def _slide(vals: np.ndarray, d: int, default: Any) -> np.ndarray:
    """``aggregate`` through ``Offset(d)``: query q takes the value at q + d,
    and the queries whose q + d is off the edge take the default."""
    n = vals.shape[-1]
    if d == 0 or n == 0:  # every query has its key
        return vals.copy()
    default, dtype = _fill(vals, default)
    out = np.empty(vals.shape, dtype=dtype)
    if d < 0:  # the first -d queries have no key
        k = min(-d, n)
        out[..., :k] = default
        out[..., k:] = vals[..., :n - k]
    else:  # nor have the last d
        k = max(n - d, 0)
        out[..., k:] = default
        out[..., :k] = vals[..., d:]
    return out


class Table:
    """A position-wise map over the codes ``0 .. size - 1`` held as its
    values: ``values[c1, ..., ck] == rule(c1, ..., ck)``, read-only.
    Called on code sequences, it gathers their cells (see the module
    docstring)."""

    __slots__ = ("size", "values")

    def __init__(self, rule: Callable[..., Any], size: int):
        grid = np.indices((size,) * len(inspect.signature(rule).parameters))
        self.size = size
        self.values = np.broadcast_to(rule(*grid), grid.shape[1:])  # a read-only view

    def __call__(self, *codes: Any) -> Any:
        return self.values[codes]


def elementwise(fn: Callable[..., Any], *seqs: Any) -> np.ndarray:
    """``fn`` called once on the whole aligned sequences (scalars broadcast).
    Arrays of one shape go to ``fn`` as they are; a ``Table`` as ``fn`` is
    one gather."""
    shape = seqs[0].shape if seqs and isinstance(seqs[0], np.ndarray) else ()
    for s in seqs:
        if not isinstance(s, np.ndarray) or s.shape != shape:
            shape = ()
            break
    if shape:  # arrays of one shape are aligned already
        check_length(shape[-1])
        arrays = seqs
    else:
        n = _common_length(*seqs)
        check_length(n)
        arrays = [_array(s, n) for s in seqs]
        shape = (n,)
        for a in arrays:
            if a.ndim > 1:  # a batch: the shape the sequences broadcast to
                shape = np.broadcast(*arrays).shape
                break
    out = np.asarray(fn(*arrays))
    if out.shape != shape:  # a function that ignores some of its arguments
        out = np.broadcast_to(out, shape).copy()
    return out


def shift_right(values: Any, default: Any = 0) -> np.ndarray:
    """values[i-1] at each position: the aggregate of ``Offset(-1)``, as one slice."""
    check_length(n := _common_length(values))
    return _slide(_array(values, n), -1, default)


def shift_left(values: Any, default: Any = 0) -> np.ndarray:
    """values[i+1] at each position: the aggregate of ``Offset(+1)``, as one slice."""
    check_length(n := _common_length(values))
    return _slide(_array(values, n), 1, default)


def running_count(mask: Any) -> np.ndarray:
    """1-based count of mask hits up to and including each position: the
    width of each query's prefix of hits, n x n cells per row."""
    idx = indices(_common_length(mask))
    hits = select(mask, 1, Equal)
    upto = select(idx, idx, Prefix)
    return selector_width(combine(np.logical_and, hits, upto))
