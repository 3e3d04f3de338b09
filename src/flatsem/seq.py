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
``k``.  A sequence is a 1-D numpy array, and each primitive makes one numpy
call over the whole of it, never a Python loop over positions.  ``select``
calls its predicate once, on the key row and the query column broadcast
against each other; ``elementwise`` calls its function once, on the whole
aligned arrays; ``combine`` calls its op once, on whole matrices.  Predicates,
functions and ops must therefore be elementwise -- ``operator.le``,
``lambda k, q: k == q - 1``, ``lambda p, q: (p == 1) & (q == 2)`` -- and not
``and`` / ``or`` / ``in`` / ``int()``, which need a single value.

The primitives accept Python lists and scalars too; a scalar broadcasts to a
full sequence.  A list of only ints or only floats becomes a numeric array;
any other list (mixed types, bools, strings) an object array, so every value
keeps its Python type.  Every primitive accepts length 0.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

MAX_SEQ_LEN = 512

Selector = np.ndarray  # n x n, dtype bool


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
    """``x`` as a 1-D array of length ``n``; a scalar broadcasts."""
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
    if len(x) != n:
        raise ValueError(f"length mismatch: {len(x)} vs {n}")
    return x


def _common_length(*xs: Any) -> int:
    for x in xs:
        if isinstance(x, (np.ndarray, list, tuple)):
            return len(x)
    raise ValueError("at least one argument must be a sequence")


def _matrix(selector: Any) -> Selector:
    sel = np.asarray(selector, dtype=bool)
    return sel.reshape(len(sel), len(sel))


def select(keys: Any, queries: Any, predicate: Callable[[Any, Any], Any]) -> Selector:
    """Boolean selector with ``sel[q, k] = predicate(keys[k], queries[q])``.

    The first argument supplies the key (column) values, the second the query
    (row) values; either may be a scalar, which broadcasts.  For example
    ``select(indices(n), indices(n), le)`` selects, at each position, every
    position at or before it -- the building block of running counts.
    """
    n = _common_length(keys, queries)
    check_length(n)
    ks = _array(keys, n)
    qs = _array(queries, n)
    sel = np.asarray(predicate(ks[np.newaxis, :], qs[:, np.newaxis]), dtype=bool)
    if sel.shape != (n, n):  # a predicate that ignores its arguments
        sel = np.broadcast_to(sel, (n, n)).copy()
    return sel


def combine(op: Callable[..., Any], *selectors: Selector) -> Selector:
    """Position-wise combination of selectors, e.g. ``combine(and_, a, b)``."""
    if not selectors:
        raise ValueError("combine needs at least one selector")
    mats = [np.asarray(s, dtype=bool) for s in selectors]
    for m in mats:
        if m.shape != mats[0].shape:
            raise ValueError("selector size mismatch")
    return np.asarray(op(*mats), dtype=bool)


def selector_width(selector: Selector) -> np.ndarray:
    """Number of selected key positions for each query position."""
    return np.count_nonzero(_matrix(selector), axis=1)


def _numeric(vals: np.ndarray) -> bool:
    """Every value is an int or a float, and none is a bool."""
    if vals.dtype != object:
        return vals.dtype.kind in "iuf"
    return all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, vals)))


def _codes(vals: np.ndarray) -> np.ndarray:
    """One integer code per distinct value; 1, 1.0 and True are one value."""
    codes: dict[Any, int] = {}
    return np.fromiter((codes.setdefault(v, len(codes)) for v in vals),
                       dtype=np.intp, count=len(vals))


def _pool(sel: Selector, vals: np.ndarray, first: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` with each row whose selected values differ set to their mean."""
    code = vals if vals.dtype.kind in "biuf" else _codes(vals)
    mixed = (sel & (code != code[first][:, np.newaxis])).any(axis=1)
    if not mixed.any():
        return out
    if not _numeric(vals):
        raise ValueError("aggregate over distinct symbolic values is undefined")
    rows = sel[mixed]
    mean = (rows @ vals.astype(np.float64)) / np.count_nonzero(rows, axis=1)
    whole = np.isfinite(mean) & (mean == np.trunc(mean))
    if out.dtype.kind == "i" and whole.all():
        out[mixed] = mean
        return out
    means = mean.astype(object)
    means[whole] = mean[whole].astype(np.int64).astype(object)
    out = out.astype(object)
    out[mixed] = means
    return out


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
    integer codes of the values.
    """
    sel = _matrix(selector)
    n = len(sel)
    vals = _array(values, n)
    first = sel.argmax(axis=1) if n else np.zeros(0, dtype=np.intp)
    hit = sel[np.arange(n), first]  # argmax lands on a selected cell unless the row is empty
    out = vals[first]
    hits = np.count_nonzero(hit)
    if np.count_nonzero(sel) > hits:  # some row selects several positions
        out = _pool(sel, vals, first, out)
    if hits == n:
        return out
    if default is None:
        default = 0 if _numeric(vals) else ""
    if not _holds(out, default):
        out = out.astype(object)
    return np.where(hit, out, default)


def elementwise(fn: Callable[..., Any], *seqs: Any) -> np.ndarray:
    """``fn`` called once on the whole aligned sequences (scalars broadcast)."""
    n = _common_length(*seqs)
    check_length(n)
    out = np.asarray(fn(*[_array(s, n) for s in seqs]))
    if out.shape != (n,):  # a function that ignores its arguments
        out = np.broadcast_to(out, (n,)).copy()
    return out


def shift_right(values: Any, default: Any = 0) -> np.ndarray:
    """values[i-1] at each position, via a relative-offset selector."""
    idx = indices(len(values))
    sel = select(idx, idx, lambda k, q: k == q - 1)
    return aggregate(sel, values, default=default)


def shift_left(values: Any, default: Any = 0) -> np.ndarray:
    """values[i+1] at each position."""
    idx = indices(len(values))
    sel = select(idx, idx, lambda k, q: k == q + 1)
    return aggregate(sel, values, default=default)


def running_count(mask: Any) -> np.ndarray:
    """1-based count of mask hits up to and including each position."""
    idx = indices(len(mask))
    hits = select(mask, 1, lambda k, q: k == q)
    upto = select(idx, idx, lambda k, q: k <= q)
    return selector_width(combine(np.logical_and, hits, upto))
