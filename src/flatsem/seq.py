"""Sequence-to-sequence primitives the flat parser is written in.

Everything downstream (masks, running counts, template matching) is phrased in
terms of a handful of operations over aligned sequences:

* ``select``        builds an attention-style boolean selector matrix
* ``aggregate``     gathers each row's selected value, or the mean of numbers
* ``selector_width``counts selected positions per row
* ``elementwise``   position-wise map over aligned sequences
* ``combine``       position-wise map over selectors

and one declared map, ``Table``, a position-wise map over categorical codes
held as its lookup table.

As in RASP, a selector stands for an attention matrix: n x n ``bool`` cells,
``sel[q, k]`` meaning query position ``q`` attends to key position ``k``.  A
sequence is a numpy array whose last axis is the position; any axes before it
are a batch of same-length rows, each row an independent input, as a
Transformer layer runs a batch of inputs at once.  A selector built from
batched sequences is ``(..., n, n)``; one that does not depend on the data,
such as ``Offset(-1)`` over ``indices(n)``, stays ``(n, n)`` and broadcasts
over the batch.  Every primitive on a batch gives the values of
the stack of its calls on the rows, in the dtype numpy gives that stack.

Most selectors are numpy ``bool`` arrays.  A few patterns are held by their
structure instead, as a ``Structured`` selector, so that they cost O(n), not
n x n cells: a declared predicate (``Offset(d)`` for ``k == q + d``,
``Prefix`` for ``k <= q``) over ``indices(n)`` as both keys and queries; a
declared predicate against one query value, such as
``select(mask, 1, Equal)``, which is a mask over the keys; and the
``combine(np.logical_and, ...)`` of such selectors.  ``aggregate`` reads an
offset selector as a slice, and ``selector_width`` of a prefix and a key mask
is a cumulative sum.  A structured selector has the ``shape`` and ``len`` of
its dense array, ``np.asarray`` gives that array, and every other use of it
goes through that array, so each primitive returns what it would on the dense
selector.  The shifts are the aggregates of ``Offset(-1)`` and ``Offset(+1)``
over ``indices(n)``, each read as that slice with no selector built.

Each primitive makes one numpy call over the whole of its input, never a
Python loop over positions or rows.  ``select`` calls its predicate once, on
the key rows and the query columns broadcast against each other;
``elementwise`` calls its function once, on the whole aligned arrays;
``combine`` calls its op once, on whole matrices.  Predicates, functions and
ops must therefore be elementwise -- ``operator.le``,
``lambda k, q: k == q - 1``, ``lambda p, q: (p == 1) & (q == 2)`` -- and not
``and`` / ``or`` / ``in`` / ``int()``, which need a single value.  A lambda
always gives a dense selector, even where a declared predicate would not.
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
from typing import Any, Callable, Optional, Union

import numpy as np

MAX_SEQ_LEN = 512


class SequenceTooLongError(ValueError):
    """Raised when an input exceeds MAX_SEQ_LEN positions."""


def check_length(n: int) -> None:
    if n > MAX_SEQ_LEN:
        raise SequenceTooLongError(f"sequence length {n} exceeds maximum {MAX_SEQ_LEN}")


class _Positions(np.ndarray):
    """The array ``indices(n)`` returns: a read-only view of 0..n-1.  Only
    that view carries ``positions``; the views and results numpy derives from
    it are plain sequences to ``select``."""

    positions: int


_ALL_POSITIONS = np.arange(MAX_SEQ_LEN).view(_Positions)
_ALL_POSITIONS.flags.writeable = False


def indices(n: int) -> np.ndarray:
    """The positional sequence [0, 1, ..., n-1], read-only."""
    check_length(n)
    idx = _ALL_POSITIONS[:max(n, 0)]
    idx.positions = len(idx)
    return idx


class Predicate:
    """A predicate whose structure ``select`` knows.  Called on arrays it is
    the elementwise comparison it wraps, like any other predicate."""

    def __init__(self, fn: Callable[[Any, Any], Any]):
        self._fn = fn

    def __call__(self, k: Any, q: Any) -> Any:
        return self._fn(k, q)


class Offset(Predicate):
    """``k == q + d``: each query selects the key ``d`` positions after it."""

    def __init__(self, d: int):
        self.d = d

    def __call__(self, k: Any, q: Any) -> Any:
        return k == q + self.d


Prefix = Predicate(operator.le)  # k <= q: each query selects itself and every key before it
Equal = Predicate(operator.eq)  # k == q


class Structured:
    """A selector held as its structure, not as its n x n cells.

    Query ``q`` selects key ``k`` when ``rel(k, q)`` holds (every key when
    ``rel`` is None) and ``keys[..., k]`` is set (every key when ``keys`` is
    None).  ``keys`` is a ``(..., n)`` bool mask, the same for every query;
    its leading axes are the selector's batch.  ``shape`` and ``len`` are the
    dense array's, and ``np.asarray`` builds that array.
    """

    __slots__ = ("n", "rel", "keys")

    def __init__(self, n: int, rel: Optional[Predicate] = None,
                 keys: Optional[np.ndarray] = None):
        self.n, self.rel, self.keys = n, rel, keys

    @property
    def shape(self) -> tuple[int, ...]:
        batch = () if self.keys is None else self.keys.shape[:-1]
        return (*batch, self.n, self.n)

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        idx = np.arange(self.n)
        if self.rel is None:
            sel = np.ones((self.n, self.n), dtype=bool)
        else:
            sel = np.asarray(self.rel(idx, idx[:, np.newaxis]), dtype=bool)
        if self.keys is not None:
            sel = sel & self.keys[..., np.newaxis, :]
        return sel if dtype is None else sel.astype(dtype, copy=False)


Selector = Union[np.ndarray, Structured]  # (..., n, n) bool cells


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


def select(keys: Any, queries: Any, predicate: Callable[[Any, Any], Any]) -> Selector:
    """Boolean selector with ``sel[..., q, k] = predicate(keys[..., k], queries[..., q])``.

    The first argument supplies the key (column) values, the second the query
    (row) values; either may be a scalar, which broadcasts.  For example
    ``select(indices(n), indices(n), le)`` selects, at each position, every
    position at or before it -- the building block of running counts.

    A declared ``Predicate`` gives a ``Structured`` selector when keys and
    queries are both ``indices(n)``, and a key mask when the query is one
    value, compared with the keys as it is; any other call gives the dense
    array.
    """
    if isinstance(predicate, Predicate):
        n = getattr(keys, "positions", None)
        if n is not None and getattr(queries, "positions", None) == n:  # checked by indices
            return Structured(n, predicate)
        if not isinstance(queries, (np.ndarray, list, tuple)):  # one value for every query
            n = _common_length(keys)
            check_length(n)
            ks = _array(keys, n)
            mask = np.asarray(predicate(ks, queries), dtype=bool)
            if mask.shape != ks.shape:  # a predicate that ignores its keys
                mask = np.broadcast_to(mask, ks.shape).copy()
            return Structured(n, keys=mask)
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
    more than two fold pairwise from the left, and no operand is written to.
    An ``(n, n)`` selector broadcasts over a batch.  ``np.logical_and`` of two
    structured selectors with at most one relation between them stays
    structured: that relation, and the key masks ANDed."""
    if not selectors:
        raise ValueError("combine needs at least one selector")
    if len(selectors) > 2:
        return functools.reduce(lambda a, b: combine(op, a, b), selectors)
    if op is np.logical_and and len(selectors) == 2:
        a, b = selectors
        if (isinstance(a, Structured) and isinstance(b, Structured) and a.n == b.n
                and (a.rel is None or b.rel is None or a.rel is b.rel)):
            keys = b.keys if a.keys is None else a.keys if b.keys is None else a.keys & b.keys
            return Structured(a.n, a.rel or b.rel, keys)
    mats = [np.asarray(s, dtype=bool) for s in selectors]
    check_length(mats[0].shape[-1] if mats[0].ndim else 0)
    for m in mats:
        if m.shape[-2:] != mats[0].shape[-2:]:
            raise ValueError("selector size mismatch")
    return np.asarray(op(*mats), dtype=bool)


def selector_width(selector: Selector) -> np.ndarray:
    """Number of selected key positions for each query position; over a
    prefix and a key mask, the running count of the mask."""
    if isinstance(selector, Structured) and selector.rel is Prefix and selector.keys is not None:
        return selector.keys.cumsum(axis=-1)
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


def aggregate(selector: Selector, values: Any, default: Any = None) -> np.ndarray:
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
    batch.  An ``Offset`` selector is read as a slice, with the same values,
    defaults and dtype.
    """
    if (isinstance(selector, Structured) and isinstance(selector.rel, Offset)
            and selector.keys is None):
        return _slide(_array(values, selector.n), selector.rel.d, default)
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
    """1-based count of mask hits up to and including each position."""
    idx = indices(_common_length(mask))
    hits = select(mask, 1, Equal)
    upto = select(idx, idx, Prefix)
    return selector_width(combine(np.logical_and, hits, upto))
