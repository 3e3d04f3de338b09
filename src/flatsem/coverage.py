"""Grammar-expansion coverage of sentence collections.

An "expansion" is one grammar production, keyed "<lhs> -> <rhs...>"; leaf
categories expand to nothing and are not counted.  Coverage of a corpus is
the fraction of all such keys exercised by the corpus's parse trees.  The
curve/shuffle machinery asks how quickly a row stream covers everything --
each consumed row advances the example counter whether or not it parses, so
"full coverage at example k" has one fixed meaning.

All three reports are folds over one pass, ``row_expansions``, which gives
every row its set of expansion keys.  The parser reads a word only through
its leaf classes (``grammar.leaf_classes``), so rows with one word-class
sequence share a key set, and the pass walks the parser's automaton once per
such sequence, reading the keys off the run without building a tree:
"the boy saw emma ." and "a cat ate liam ." are one walk.
``CoverageResult.from_rows`` unions the key sets, ``CurveResult.from_rows``
counts the union row by row, and ``ShuffleResult.from_rows`` finds where
that count first reaches the universe over random row orders -- in numpy,
as the latest first occurrence over keys, without replaying the unions.
``coverage``, ``coverage_curve`` and ``shuffle_experiment`` run the pass and
then their fold; ``flatsem coverage`` runs the pass once and hands it to
every report it prints.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Optional, Sequence

import numpy as np

from . import lexicon as lx
from .grammar import all_expansion_keys, class_expansions, leaf_classes


def row_expansions(sentences: Iterable[str | list[str]],
                   lexicon: lx.Lexicon | None = None) -> list[frozenset[str]]:
    """The expansion keys of each row's parse, empty for a row that does not
    parse or holds a word outside the lexicon.  The parser walks once per
    distinct word-class sequence, as rows that differ only in words of the
    same leaf classes have one parse shape; a row outside the lexicon is not
    walked.  A lone string is no list of sentences, and raises ``TypeError``."""
    if isinstance(sentences, str):
        raise TypeError("row_expansions takes a list of sentences, not one string")
    if lexicon is None:
        lexicon = lx.default_lexicon()
    by_shape: dict[tuple[frozenset[str], ...], frozenset[str]] = {}
    out = []
    for s in sentences:
        tokens = s.split() if isinstance(s, str) else list(s)
        if tokens[-1:] == ["."]:
            tokens.pop()  # parse_sentence skips a final "." too
        try:
            shape = tuple(leaf_classes(t, lexicon) for t in tokens)
        except lx.LexiconError:
            out.append(frozenset())
            continue
        if shape not in by_shape:
            by_shape[shape] = class_expansions(shape)
        out.append(by_shape[shape])
    return out


@dataclass
class CoverageResult:
    covered: set[str]
    universe: frozenset[str]

    @classmethod
    def from_rows(cls, rows: Iterable[frozenset[str]]) -> "CoverageResult":
        return cls(set().union(*rows), all_expansion_keys())

    @property
    def fraction(self) -> float:
        return len(self.covered) / len(self.universe)

    @property
    def missing(self) -> set[str]:
        return set(self.universe) - self.covered


def coverage(sentences: Iterable[str | list[str]],
             lexicon: lx.Lexicon | None = None) -> CoverageResult:
    return CoverageResult.from_rows(row_expansions(sentences, lexicon))


@dataclass
class CurveResult:
    sizes: list[int]  # covered-key count after each example
    first_full: Optional[int]  # 1-based example index reaching full coverage

    @classmethod
    def from_rows(cls, rows: Iterable[frozenset[str]]) -> "CurveResult":
        universe = all_expansion_keys()
        covered: set[str] = set()
        sizes: list[int] = []
        first_full = None
        for k, exps in enumerate(rows, start=1):
            covered |= exps
            sizes.append(len(covered))
            if first_full is None and len(covered) == len(universe):
                first_full = k
        return cls(sizes, first_full)

    @property
    def final(self) -> int:
        return self.sizes[-1] if self.sizes else 0


def coverage_curve(sentences: Iterable[str | list[str]],
                   lexicon: lx.Lexicon | None = None) -> CurveResult:
    return CurveResult.from_rows(row_expansions(sentences, lexicon))


@dataclass
class ShuffleResult:
    first_full: list[int]  # full-coverage index, one entry per shuffle
    median: float
    lo: float  # 2.5th percentile
    hi: float  # 97.5th percentile

    @classmethod
    def from_rows(cls, rows: Sequence[frozenset[str]], n_shuffles: int = 1000,
                  seed: int = 0) -> "ShuffleResult":
        """Distribution of the full-coverage index over row-order shuffles.
        The rows are read once, to list those holding each key; no shuffle
        replays the set unions.

        Each shuffle draws one 64-bit key per row from ``random.Random(seed)``
        and orders the rows by it (stably, so ties keep row order).  Full
        coverage arrives with the last key of the universe to appear, and a
        key appears with the earliest of its rows: the index is one more
        than the max over keys of the min rank of their rows."""
        if n_shuffles < 1:
            raise ValueError(f"n_shuffles must be at least 1, got {n_shuffles}")
        members: dict[str, list[int]] = {key: [] for key in all_expansion_keys()}
        for r, exps in enumerate(rows):
            for key in exps:
                members[key].append(r)
        if not all(members.values()):
            raise ValueError("corpus does not reach full coverage")
        flat = np.fromiter((r for rs in members.values() for r in rs), dtype=np.intp)
        starts = np.cumsum([0, *(len(rs) for rs in members.values())][:-1])
        n = len(rows)
        rng = random.Random(seed)
        positions = np.arange(n)
        rank = np.empty(n, dtype=np.intp)
        firsts: list[int] = []
        for _ in range(n_shuffles):
            keys = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")
            rank[np.argsort(keys, kind="stable")] = positions
            firsts.append(1 + int(np.minimum.reduceat(rank[flat], starts).max()))
        s = sorted(firsts)
        return cls(firsts, float(median(s)), float(_percentile(s, 0.025)),
                   float(_percentile(s, 0.975)))


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    # nearest-rank
    k = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[k - 1]


def shuffle_experiment(sentences: Sequence[str],
                       lexicon: lx.Lexicon | None = None,
                       n_shuffles: int = 1000,
                       seed: int = 0) -> ShuffleResult:
    """Distribution of the full-coverage index over row-order shuffles."""
    return ShuffleResult.from_rows(row_expansions(sentences, lexicon), n_shuffles, seed)
