"""Sequence-to-sequence primitives the flat parser is written in.

Everything downstream (masks, running counts, template matching) is phrased in
terms of a handful of operations over aligned sequences:

* ``select``        builds an attention-style boolean selector matrix
* ``aggregate``     pools values through a selector (mean pooling)
* ``selector_width``counts selected positions per row
* ``elementwise``   position-wise map over aligned sequences
* ``combine``       position-wise map over selectors

As in RASP, a selector *is* an attention matrix: an n x n numpy ``bool``
array, ``sel[q, k]`` meaning query position ``q`` attends to key position
``k``.  A sequence is a numpy array whose last axis is the position; any axes
before it are a batch of same-length rows, each row an independent input, as
a Transformer layer runs a batch of inputs at once.  A selector built from
batched sequences is ``(..., n, n)``; one that does not depend on the data,
such as a shift's ``k == q - 1`` over ``indices(n)``, stays ``(n, n)`` and
broadcasts over the batch.  Every primitive on a batch equals the stack of its
calls on the rows.

Each primitive makes one numpy call over the whole of its input, never a
Python loop over positions or rows.  ``select`` calls its predicate once, on
the key rows and the query columns broadcast against each other;
``elementwise`` calls its function once, on the whole aligned arrays;
``combine`` calls its op once, on whole matrices.  Predicates, functions and
ops must therefore be elementwise -- ``operator.le``,
``lambda k, q: k == q - 1``, ``lambda p, q: (p == 1) & (q == 2)`` -- and not
``and`` / ``or`` / ``in`` / ``int()``, which need a single value.

The primitives accept Python lists and scalars too; a list is one row, and a
scalar broadcasts to a full sequence.  A list of only ints or only floats
becomes a numeric array; any other list (mixed types, bools, strings) an
object array, so every value keeps its Python type.  Every primitive accepts
length 0 and an empty batch.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

MAX_SEQ_LEN = 512

Selector = np.ndarray  # (..., n, n), dtype bool


class SequenceTooLongError(ValueError):
    """Raised when an input exceeds MAX_SEQ_LEN positions."""


def check_length(n: int) -> None:
    if n > MAX_SEQ_LEN:
        raise SequenceTooLongError(f"sequence length {n} exceeds maximum {MAX_SEQ_LEN}")


def indices(n: int) -> np.ndarray:
    """The positional sequence [0, 1, ..., n-1]."""
    check_length(n)
    return np.arange(n)


def _array(x: Any, n: int) -> np.ndarray:
    """``x`` as an array whose last axis has length ``n``; a scalar broadcasts."""
    if not isinstance(x, np.ndarray):
        if not isinstance(x, (list, tuple)):
            return np.full(n, x, dtype=None if type(x) in (int, float) else object)
        kinds = set(map(type, x))
        if kinds == {int}:
            x = np.array(x, dtype=np.int64)
        elif kinds == {float}:
            x = np.array(x, dtype=np.float64)
        else:
            x = np.fromiter(x, dtype=object, count=len(x))
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


def _matrix(selector: Any) -> Selector:
    sel = np.asarray(selector, dtype=bool)
    return sel if sel.ndim > 1 else sel.reshape(0, 0)  # [] is the empty selector


def select(keys: Any, queries: Any, predicate: Callable[[Any, Any], Any]) -> Selector:
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


def combine(op: Callable[..., Any], *selectors: Selector) -> Selector:
    """Position-wise combination of selectors, e.g. ``combine(and_, a, b)``;
    an ``(n, n)`` selector broadcasts over a batch."""
    if not selectors:
        raise ValueError("combine needs at least one selector")
    mats = [np.asarray(s, dtype=bool) for s in selectors]
    for m in mats:
        if m.shape[-2:] != mats[0].shape[-2:]:
            raise ValueError("selector size mismatch")
    return np.asarray(op(*mats), dtype=bool)


def selector_width(selector: Selector) -> np.ndarray:
    """Number of selected key positions for each query position."""
    return _matrix(selector).sum(axis=-1)


def _numeric(vals: np.ndarray) -> bool:
    """Every value is an int or a float, and none is a bool."""
    if vals.dtype != object:
        return vals.dtype.kind in "iuf"
    return all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, vals.ravel())))


def _codes(vals: np.ndarray) -> np.ndarray:
    """One integer code per distinct value; 1, 1.0 and True are one value."""
    codes: dict[Any, int] = {}
    flat = vals.ravel()
    return np.fromiter((codes.setdefault(v, len(codes)) for v in flat),
                       dtype=np.intp, count=len(flat)).reshape(vals.shape)


def _gather(vals: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The value at each row's ``first`` position: the same positions for
    every row of a batch when ``first`` is 1-D, each row its own otherwise."""
    return vals.take(first, -1) if first.ndim == 1 else np.take_along_axis(vals, first, -1)


def _pool(sel: Selector, vals: np.ndarray, first: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` with each row whose selected values differ set to their mean."""
    code = vals if vals.dtype.kind in "biuf" else _codes(vals)
    mixed = (sel & (code[..., np.newaxis, :] != _gather(code, first)[..., np.newaxis])).any(axis=-1)
    if not mixed.any():
        return out
    seqs = mixed.any(axis=-1)  # the sequences of the batch that hold a mixed row
    pooled = vals[seqs]
    if not _numeric(pooled):
        raise ValueError("aggregate over distinct symbolic values is undefined")
    sums = np.matmul(sel if sel.ndim == 2 else sel[seqs],
                     pooled.astype(np.float64)[..., np.newaxis])[..., 0]
    mean = sums[mixed[seqs]] / np.broadcast_to(np.count_nonzero(sel, axis=-1), mixed.shape)[mixed]
    whole = np.isfinite(mean) & (mean == np.trunc(mean))
    if out.dtype.kind == "i" and whole.all():
        out[mixed] = mean
        return out
    means = mean.astype(object)
    means[whole] = mean[whole].astype(np.int64).astype(object)
    out = out.astype(object)
    out[mixed] = means
    return out


def _defaults(vals: np.ndarray) -> Any:
    """The empty-row value of each row: 0 for a row of numbers, else ""."""
    if vals.ndim == 1 or vals.dtype != object:
        return 0 if _numeric(vals) else ""
    rows = vals.reshape(-1, vals.shape[-1])
    return np.array([0 if _numeric(row) else "" for row in rows],
                    dtype=object).reshape(*vals.shape[:-1], 1)


def _holds(out: np.ndarray, value: Any) -> bool:
    """``out``'s dtype keeps ``value`` with its Python type."""
    kind = {int: "i", float: "f"}.get(type(value))
    return out.dtype == object or out.dtype.kind == kind


def aggregate(selector: Selector, values: Any, default: Any = None) -> np.ndarray:
    """Mean-pool ``values`` through ``selector``.

    Numeric values average; a query row that selects nothing yields 0 (or
    ``default`` when given).  Non-numeric values only support the
    unique-selection pattern: every selected value must be identical, and an
    empty row yields "" (or ``default``).  A row whose selected values are all
    equal passes the first of them through unchanged; averages that come out
    whole are returned as ints so masks stay integer-typed.

    Each row first gathers the value at its first selected position; only
    when some row selects several positions are the rows compared, through
    integer codes of the values.  An ``(n, n)`` selector gathers the same
    positions from every row of a batch.
    """
    sel = _matrix(selector)
    n = sel.shape[-1]
    vals = _array(values, n)
    first = sel.argmax(axis=-1) if n else np.zeros(sel.shape[:-1], dtype=np.intp)
    if sel.ndim == 2:
        hit = sel[np.arange(n), first]  # argmax lands on a selected cell unless the row is empty
    else:  # a selector per row: each row gathers its own positions
        shape = np.broadcast_shapes(sel.shape[:-1], vals.shape)
        sel = np.broadcast_to(sel, (*shape, n))
        vals = np.broadcast_to(vals, shape)
        first = np.broadcast_to(first, shape)
        hit = np.take_along_axis(sel, first[..., np.newaxis], -1)[..., 0]
    out = _gather(vals, first)
    hits = np.count_nonzero(hit)
    if np.count_nonzero(sel) > hits:  # some row selects several positions
        out = _pool(sel, vals, first, out)
    if hits == hit.size:
        return out
    if default is None:
        default = _defaults(vals)
    if not _holds(out, default):
        out = out.astype(object)
    return np.where(hit, out, default)


def elementwise(fn: Callable[..., Any], *seqs: Any) -> np.ndarray:
    """``fn`` called once on the whole aligned sequences (scalars broadcast)."""
    n = _common_length(*seqs)
    check_length(n)
    arrays = [_array(s, n) for s in seqs]
    out = np.asarray(fn(*arrays))
    shape = (n,)
    for a in arrays:
        if a.ndim > 1:  # a batch: the shape the sequences broadcast to
            shape = np.broadcast(*arrays).shape
            break
    if out.shape != shape:  # a function that ignores some of its arguments
        out = np.broadcast_to(out, shape).copy()
    return out


def shift_right(values: Any, default: Any = 0) -> np.ndarray:
    """values[i-1] at each position, via a relative-offset selector."""
    idx = indices(_common_length(values))
    sel = select(idx, idx, lambda k, q: k == q - 1)
    return aggregate(sel, values, default=default)


def shift_left(values: Any, default: Any = 0) -> np.ndarray:
    """values[i+1] at each position."""
    idx = indices(_common_length(values))
    sel = select(idx, idx, lambda k, q: k == q + 1)
    return aggregate(sel, values, default=default)


def running_count(mask: Any) -> np.ndarray:
    """1-based count of mask hits up to and including each position."""
    idx = indices(_common_length(mask))
    hits = select(mask, 1, lambda k, q: k == q)
    upto = select(idx, idx, lambda k, q: k <= q)
    return selector_width(combine(np.logical_and, hits, upto))
