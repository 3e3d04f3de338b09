"""Flat semantic parser for positional-index logical forms.

The package decodes English sentences of the COGS fragment into ReCOGS-style
logical forms without building a tree: a fixed stack of sequence primitives
(shifts, and lookup tables over lexicon codes) computes a flat analysis, and
the decoder reads the whole form off it in one pass.  A conventional
tree-based oracle, a grammar-coverage toolkit, a grammar fuzzer, and
error/augmentation analyses ride along for evaluation.
"""

from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon
from .grammar import (
    COGS_INPUT_GRAMMAR_NO_TERMINALS,
    Tree,
    all_expansion_keys,
    parse_sentence,
    tree_expansions,
)
from .encoder import InputAnalysis, analyze, analyze_all, get_agent_side
from .decoder import decode, decode_all
from .oracle import augment_v_dat_p2, lf_oracle, predict_attraction_error
from .logical_form import (
    Lf,
    classify_error,
    clopper_pearson,
    parse_lf,
    semantic_exact_match,
    string_exact_match,
)
from .coverage import coverage, coverage_curve, shuffle_experiment
from .fuzz import fuzz_generate, pp_chain_sentence, cp_chain_sentence

__version__ = "0.1.0"

__all__ = [
    "COGS_INPUT_GRAMMAR_NO_TERMINALS",
    "InputAnalysis",
    "Lexicon",
    "LexiconError",
    "Lf",
    "Tree",
    "all_expansion_keys",
    "analyze",
    "analyze_all",
    "augment_v_dat_p2",
    "classify_error",
    "clopper_pearson",
    "coverage",
    "coverage_curve",
    "cp_chain_sentence",
    "decode",
    "decode_all",
    "default_lexicon",
    "fuzz_generate",
    "get_agent_side",
    "lf_oracle",
    "load_lexicon",
    "parse_lf",
    "parse_sentence",
    "pp_chain_sentence",
    "predict_attraction_error",
    "semantic_exact_match",
    "shuffle_experiment",
    "string_exact_match",
    "tree_expansions",
]
