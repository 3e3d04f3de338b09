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
``k``.  ``select`` calls its predicate once, on the key row and the query
column broadcast against each other, and ``combine`` calls its op once, on
whole matrices.  Predicates and ops must therefore be elementwise --
``operator.le``, ``lambda k, q: k == q - 1``, ``np.logical_and`` -- and not
``and`` / ``or``, which need a single truth value.

Sequences, in and out, are plain Python lists.  Scalars broadcast to full
sequences wherever a sequence is expected.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

MAX_SEQ_LEN = 512

Selector = np.ndarray  # n x n, dtype bool


class SequenceTooLongError(ValueError):
    """Raised when an input exceeds MAX_SEQ_LEN positions."""


def check_length(n: int) -> None:
    if n > MAX_SEQ_LEN:
        raise SequenceTooLongError(f"sequence length {n} exceeds maximum {MAX_SEQ_LEN}")


def indices(n: int) -> list[int]:
    """The positional sequence [0, 1, ..., n-1]."""
    check_length(n)
    return list(range(n))


def _broadcast(x: Any, n: int) -> Sequence:
    if isinstance(x, (list, tuple)):
        if len(x) != n:
            raise ValueError(f"length mismatch: {len(x)} vs {n}")
        return x
    return [x] * n


def _common_length(*xs: Any) -> int:
    for x in xs:
        if isinstance(x, (list, tuple)):
            return len(x)
    raise ValueError("at least one argument must be a sequence")


def select(keys: Any, queries: Any, predicate: Callable[[Any, Any], Any]) -> Selector:
    """Boolean selector with ``sel[q, k] = predicate(keys[k], queries[q])``.

    The first argument supplies the key (column) values, the second the query
    (row) values; either may be a scalar, which broadcasts.  For example
    ``select(indices(n), indices(n), le)`` selects, at each position, every
    position at or before it -- the building block of running counts.
    """
    n = _common_length(keys, queries)
    check_length(n)
    ks = np.asarray(_broadcast(keys, n))
    qs = np.asarray(_broadcast(queries, n))
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


def selector_width(selector: Selector) -> list[int]:
    """Number of selected key positions for each query position."""
    return np.count_nonzero(selector, axis=1).tolist()


def aggregate(selector: Selector, values: Any, default: Any = None) -> list:
    """Mean-pool ``values`` through ``selector``.

    Numeric values average; a query row that selects nothing yields 0 (or
    ``default`` when given).  Non-numeric values only support the
    unique-selection pattern: every selected value must be identical, and an
    empty row yields "" (or ``default``).  A row whose selected values are all
    equal passes the first of them through unchanged; averages that come out
    whole are returned as ints so masks stay integer-typed.
    """
    n = len(selector)
    sel = np.asarray(selector, dtype=bool).reshape(n, n)
    vals = _broadcast(values, n)
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals)
    if default is None:
        default = 0 if numeric else ""
    # equal values share a code, so a row is mixed when some selected code
    # differs from the code of its first selected position
    codes: dict[Any, int] = {}
    code = np.array([codes.setdefault(v, len(codes)) for v in vals], dtype=np.intp)
    first = sel.argmax(axis=1)
    mixed = (sel & (code[np.newaxis, :] != code[first][:, np.newaxis])).any(axis=1)
    mean: list[float] = []
    if mixed.any():
        if not numeric:
            raise ValueError("aggregate over distinct symbolic values is undefined")
        width = np.count_nonzero(sel, axis=1)
        mean = ((sel @ np.asarray(vals, dtype=np.float64)) / np.maximum(width, 1)).tolist()
    out = []
    for q, (hit, f, mix) in enumerate(zip(sel.any(axis=1).tolist(), first.tolist(),
                                          mixed.tolist())):
        if not hit:
            out.append(default)
        elif not mix:
            out.append(vals[f])
        else:
            out.append(int(mean[q]) if mean[q].is_integer() else mean[q])
    return out


def elementwise(fn: Callable[..., Any], *seqs: Any) -> list:
    """Apply ``fn`` position-wise across aligned sequences (scalars broadcast)."""
    n = _common_length(*seqs)
    check_length(n)
    cols = [_broadcast(s, n) for s in seqs]
    return [fn(*(c[i] for c in cols)) for i in range(n)]


def shift_right(values: list, default: Any = 0) -> list:
    """values[i-1] at each position, via a relative-offset selector."""
    idx = indices(len(values))
    sel = select(idx, idx, lambda k, q: k == q - 1)
    return aggregate(sel, values, default=default)


def shift_left(values: list, default: Any = 0) -> list:
    """values[i+1] at each position."""
    idx = indices(len(values))
    sel = select(idx, idx, lambda k, q: k == q + 1)
    return aggregate(sel, values, default=default)


def running_count(mask: list[int]) -> list[int]:
    """1-based count of mask hits up to and including each position."""
    idx = indices(len(mask))
    hits = select(mask, 1, lambda k, q: k == q)
    upto = select(idx, idx, lambda k, q: k <= q)
    return selector_width(combine(np.logical_and, hits, upto))
