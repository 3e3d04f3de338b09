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
Each primitive checks its arguments once and passes them on as they are;
the length cap, ``MAX_SEQ_LEN``, holds on every call.

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

A sequence holds one kind of value, as in Tracr: numbers (int or float),
its numerical kind, or bools, its categorical kind; categorical codes such
as the lexicon's are ints, read through a ``Table``.  Every primitive takes
sequences and selectors only as numpy arrays of numbers or bools, and raises
``TypeError`` on anything else: a list, a tuple, a scalar, an array of
strings or objects.  A default must be of its sequence's kind -- a number
beside numbers, a bool beside bools -- and any other raises ``ValueError``.
Every primitive accepts length 0 and an empty batch.
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


def _check(x: Any, axes: int = 1) -> np.ndarray:
    """``x`` if it is a numpy array of numbers or bools with at least
    ``axes`` axes (1 for a sequence, 2 for a selector); raises ``TypeError``
    if not."""
    if not isinstance(x, np.ndarray) or x.dtype.kind not in "biuf" or x.ndim < axes:
        what = f"a {x.ndim}-d {x.dtype} array" if isinstance(x, np.ndarray) else type(x).__name__
        raise TypeError(f"expected a numpy array of numbers or bools with {axes} or more axes, "
                        f"got {what}")
    return x


def _shape(seqs: tuple) -> tuple[int, ...]:
    """The shape aligned sequences broadcast to: they share the length of
    their last axis, and their batch axes broadcast against each other."""
    shape = _check(seqs[0]).shape
    for s in seqs[1:]:
        if _check(s).shape != shape:  # a batch beside a row, or rows of other lengths
            shapes = [_check(other).shape for other in seqs]
            if any(other[-1] != shape[-1] for other in shapes):
                raise ValueError(f"length mismatch: {[other[-1] for other in shapes]}")
            shape = np.broadcast_shapes(*shapes)
            break
    check_length(shape[-1])
    return shape


def _matrix(selector: Any) -> np.ndarray:
    """The cells of a selector as bools, at most ``MAX_SEQ_LEN`` keys wide."""
    sel = np.asarray(_check(selector, 2), dtype=bool)
    check_length(sel.shape[-1])
    return sel


def select(keys: Any, queries: Any, predicate: Callable[[Any, Any], Any]) -> np.ndarray:
    """Boolean selector with ``sel[..., q, k] = predicate(keys[..., k], queries[..., q])``.

    The first argument supplies the key (column) values, the second the query
    (row) values.  For example ``select(indices(n), indices(n), le)`` selects,
    at each position, every position at or before it -- the building block of
    running counts.
    """
    *batch, n = _shape((keys, queries))
    sel = np.asarray(predicate(keys[..., np.newaxis, :], queries[..., np.newaxis]), dtype=bool)
    if sel.shape != (*batch, n, n):  # a predicate that ignores some of its arguments
        sel = np.broadcast_to(sel, (*batch, n, n)).copy()
    return sel


def combine(op: Callable[..., Any], *selectors: Any) -> np.ndarray:
    """Position-wise combination of selectors, e.g. ``combine(and_, a, b)``;
    more than two fold pairwise from the left, and no operand is written to.
    An ``(n, n)`` selector broadcasts over a batch."""
    if not selectors:
        raise ValueError("combine needs at least one selector")
    if len(selectors) > 2:
        return functools.reduce(lambda a, b: combine(op, a, b), selectors)
    mats = [_matrix(s) for s in selectors]
    for m in mats:
        if m.shape[-2:] != mats[0].shape[-2:]:
            raise ValueError("selector size mismatch")
    return np.asarray(op(*mats), dtype=bool)


def selector_width(selector: Any) -> np.ndarray:
    """Number of selected key positions for each query position."""
    return _matrix(selector).sum(axis=-1)


def _fill(vals: np.ndarray, default: Any) -> tuple[Any, np.dtype]:
    """The value an empty row of ``vals`` takes, and the dtype that holds it
    beside them.  The value is ``default``, or when that is None the
    sequence's zero: 0 beside numbers, False beside bools.  A number beside
    numbers, or a bool beside bools, gives numpy's common dtype of the two;
    any other default raises ``ValueError``.  A bool beside bools, or an int
    that fits beside int64, keeps the sequence's dtype: that is the common
    dtype already."""
    dtype = vals.dtype
    kind = dtype.kind
    if default is None:
        default = False if kind == "b" else 0
    if ((type(default) is bool and kind == "b")
            or (type(default) is int and dtype is _INT64 and _INT64_MIN <= default <= _INT64_MAX)):
        return default, dtype
    fill = np.asarray(default).dtype
    if fill.kind == kind == "b" or (kind != "b" and fill.kind in "iuf"):
        return default, np.promote_types(dtype, fill)
    raise ValueError(f"default {default!r} is not of the kind of the sequence's {dtype} values")


_INT64 = np.dtype(np.int64)
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def aggregate(selector: Any, values: Any, default: Any = None) -> np.ndarray:
    """RASP's aggregate: each query row gathers the value at its selected key.

    A row that selects several keys holding one value passes that value on.
    Where they differ, numbers take their mean (the two cases are Tracr's
    categorical and numerical aggregates) -- an int sequence stays int
    when every mean of the call is whole, and becomes float otherwise -- and
    bools raise ``ValueError``.  A row that selects nothing takes
    ``default``, or the sequence's zero (0, or False beside bools), and the
    result then has numpy's common dtype of the values and the default.  A
    default of another kind than the sequence's -- a bool beside numbers, a
    number beside bools, anything else -- raises ``ValueError``, whether or
    not a row selects nothing.

    An ``(n, n)`` selector gathers the same positions from every row of a
    batch.
    """
    sel = _matrix(selector)
    n = sel.shape[-1]
    vals = _check(values)
    if vals.shape[-1] != n:
        raise ValueError(f"length mismatch: {vals.shape[-1]} vs {n}")
    if sel.ndim > 2:  # a selector per row: each row gathers its own positions
        shape = np.broadcast_shapes(sel.shape[:-1], vals.shape)
        sel = np.broadcast_to(sel, (*shape, n))
        vals = np.broadcast_to(vals, shape)
    first = sel.argmax(axis=-1) if n else np.zeros(sel.shape[:-1], dtype=np.intp)
    out = vals.take(first, -1) if sel.ndim == 2 else np.take_along_axis(vals, first, -1)
    differ = (sel & (vals[..., np.newaxis, :] != out[..., np.newaxis])).any(axis=-1)
    if differ.any():
        if vals.dtype.kind == "b":
            raise ValueError("aggregate over distinct bools is undefined")
        sums = np.matmul(sel, vals[..., np.newaxis].astype(np.float64))[..., 0]
        mean = sums[differ] / np.broadcast_to(np.count_nonzero(sel, axis=-1), differ.shape)[differ]
        if (mean != np.trunc(mean)).any():
            out = out.astype(np.float64, copy=False)
        out[differ] = mean
    default, dtype = _fill(out, default)
    hit = sel.any(axis=-1)
    if hit.all():
        return out
    return np.where(hit, out.astype(dtype, copy=False), default)


def _slide(vals: Any, d: int, default: Any) -> np.ndarray:
    """``aggregate`` through ``Offset(d)``: query q takes the value at q + d,
    and the queries whose q + d is off the edge take the default."""
    check_length(_check(vals).shape[-1])
    default, dtype = _fill(vals, default)
    n = vals.shape[-1]
    if n == 0:  # no query lacks its key, so none takes the default
        return vals.copy()
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
    """``fn`` called once on the whole aligned sequences, passed as they are;
    their batch axes broadcast.  A ``Table`` as ``fn`` is one gather."""
    if not seqs:
        raise ValueError("elementwise needs at least one sequence")
    shape = _shape(seqs)
    out = np.asarray(fn(*seqs))
    if out.shape != shape:  # a function that ignores some of its arguments
        out = np.broadcast_to(out, shape).copy()
    return out


def shift_right(values: Any, default: Any = None) -> np.ndarray:
    """values[i-1] at each position: the aggregate of ``Offset(-1)``, as one
    slice; the first position takes ``default``, or the sequence's zero."""
    return _slide(values, -1, default)


def shift_left(values: Any, default: Any = None) -> np.ndarray:
    """values[i+1] at each position: the aggregate of ``Offset(+1)``, as one
    slice; the last position takes ``default``, or the sequence's zero."""
    return _slide(values, 1, default)


def running_count(mask: Any) -> np.ndarray:
    """1-based count of mask hits (positions holding 1) up to and including
    each position: the width of each query's prefix of hits, n x n cells per
    row."""
    hits = select(mask, mask, lambda k, q: k == 1)
    idx = indices(mask.shape[-1])
    upto = select(idx, idx, Prefix)
    return selector_width(combine(np.logical_and, hits, upto))
