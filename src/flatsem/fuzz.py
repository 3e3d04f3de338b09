"""Grammar fuzzer: random in-grammar sentences with their parse trees.

Expansion is uniform over the alternatives still allowed by two separate
recursion budgets -- pp chains and clause embeddings -- so sentences are
always finite.  Words come uniformly from the lexicon's category pools.  The
"coverage" mode biases choices toward not-yet-exercised productions, which
reaches full grammar coverage in a handful of sentences.

Trees come back with leaf positions already assigned, identical to what
``parse_sentence`` would return for the emitted tokens.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from . import lexicon as lx
from .grammar import (
    COGS_INPUT_GRAMMAR_NO_TERMINALS as GRAMMAR,
    LEAF_CODE,
    START,
    Tree,
    expansion_key,
)


class _Gen:
    def __init__(self, rng: random.Random, lexicon: lx.Lexicon, covered: Optional[set] = None):
        self.rng = rng
        self.lexicon = lexicon
        self.covered = covered  # None = uniform mode
        self.words: list[str] = []

    def expand(self, symbol: str, pp_budget: int, cp_budget: int) -> Tree:
        alts = GRAMMAR[symbol]
        if not alts:
            category = lx.CODE_CATEGORIES[LEAF_CODE[symbol]]
            words = self.lexicon.words_for(category)
            if not words:
                raise ValueError(f"the lexicon has no word of category {category!r}")
            word = self.rng.choice(words)
            pos = len(self.words)
            self.words.append(word)
            return Tree(symbol, word=word, pos=pos)
        allowed = [rhs for rhs in alts
                   if not (pp_budget <= 0 and "<np_pp>" in rhs)
                   and not (cp_budget <= 0 and "<vp_external5>" in rhs)]
        if self.covered is not None:
            fresh = [rhs for rhs in allowed
                     if expansion_key(symbol, rhs) not in self.covered]
            if fresh:
                allowed = fresh
        rhs = self.rng.choice(allowed)
        if self.covered is not None:
            self.covered.add(expansion_key(symbol, rhs))
        children = []
        for child in rhs:
            child_pp = pp_budget - 1 if symbol == "<np_pp>" and child == "<np>" else pp_budget
            child_cp = cp_budget - 1 if symbol == "<vp_external5>" and child == "<start>" else cp_budget
            children.append(self.expand(child, child_pp, child_cp))
        return Tree(symbol, children=tuple(children))


def fuzz_generate(n: int,
                  lexicon: lx.Lexicon | None = None,
                  seed: int = 0,
                  pp_depth: int = 2,
                  cp_depth: int = 2,
                  mode: str = "uniform",
                  require: Optional[Callable[[Tree], bool]] = None) -> list[tuple[list[str], Tree]]:
    """n random sentences as (tokens-with-period, tree) pairs.

    ``require`` keeps only trees satisfying a predicate (rejection sampling);
    a budget of ``max(1000, 500 * n)`` tries guards against predicates the
    grammar can barely satisfy.  A draw from a category the lexicon has no
    word of raises ``ValueError``.
    """
    if lexicon is None:
        lexicon = lx.default_lexicon()
    if mode not in ("uniform", "coverage"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    covered: Optional[set] = set() if mode == "coverage" else None
    out: list[tuple[list[str], Tree]] = []
    tries = 0
    budget = max(1000, 500 * n)
    while len(out) < n:
        tries += 1
        if tries > budget:
            raise RuntimeError(f"fuzzer predicate too strict: {len(out)}/{n} after {tries} tries")
        gen = _Gen(rng, lexicon, covered)
        tree = gen.expand(START, pp_depth, cp_depth)
        if require is not None and not require(tree):
            continue
        out.append((gen.words + ["."], tree))
    return out


def pp_chain_sentence(depth: int) -> list[str]:
    """Transitive sentence whose object carries a pp chain of exactly
    ``depth`` links, cycling the three prepositions."""
    tokens = ["a", "girl", "painted", "the", "cake"]
    preps = ["on", "in", "beside"]
    nouns = ["table", "house", "bed"]
    for d in range(depth):
        tokens += [preps[d % 3], "the", nouns[d % 3]]
    return tokens + ["."]


def cp_chain_sentence(depth: int) -> list[str]:
    """``depth`` nested clause embeddings around a one-clause core."""
    tokens: list[str] = []
    for _ in range(depth):
        tokens += ["emma", "noticed", "that"]
    return tokens + ["a", "cake", "rolled", "."]
