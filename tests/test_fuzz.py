import pytest

from flatsem import grammar as gr
from flatsem import lexicon as lx
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence
from flatsem.oracle import lf_oracle


def max_path_count(tree: gr.Tree, symbol: str) -> int:
    """Deepest nesting of ``symbol`` along any root-to-leaf path."""
    own = int(tree.symbol == symbol)
    return own + max((max_path_count(c, symbol) for c in tree.children), default=0)


def test_seed_reproducibility(lexicon):
    a = fuzz_generate(25, lexicon, seed=42)
    b = fuzz_generate(25, lexicon, seed=42)
    c = fuzz_generate(25, lexicon, seed=43)
    assert [t for t, _ in a] == [t for t, _ in b]
    assert [t for t, _ in a] != [t for t, _ in c]


def test_no_lexicon_means_the_default_one(lexicon):
    assert fuzz_generate(25, seed=42) == fuzz_generate(25, lexicon, seed=42)


def test_generated_sentences_parse_and_match_tree(lexicon):
    for tokens, tree in fuzz_generate(60, lexicon, seed=1):
        assert tokens[-1] == "."
        leaves = list(tree.leaves())
        assert [l.word for l in leaves] == tokens[:-1]
        assert [l.pos for l in leaves] == list(range(len(tokens) - 1))
        reparsed = gr.parse_sentence(tokens, lexicon)
        assert reparsed is not None
        assert gr.tree_expansions(reparsed) == gr.tree_expansions(tree)
        assert lf_oracle(tree, lexicon) is not None


def test_budgets_cap_recursion(lexicon):
    for tokens, tree in fuzz_generate(80, lexicon, seed=2, pp_depth=0, cp_depth=0):
        assert max_path_count(tree, "<np_pp>") == 0
        assert max_path_count(tree, "<vp_external5>") == 0
    for tokens, tree in fuzz_generate(80, lexicon, seed=2, pp_depth=1, cp_depth=2):
        assert max_path_count(tree, "<np_pp>") <= 1
        assert max_path_count(tree, "<vp_external5>") <= 2


def test_coverage_mode_reaches_every_expansion_fast(lexicon):
    pairs = fuzz_generate(60, lexicon, seed=3, mode="coverage")
    seen = set()
    for _, tree in pairs:
        seen |= gr.tree_expansions(tree)
    assert seen == set(gr.all_expansion_keys())


def test_unknown_mode_rejected(lexicon):
    with pytest.raises(ValueError):
        fuzz_generate(1, lexicon, mode="surprise")


def test_require_filters_trees(lexicon):
    pairs = fuzz_generate(
        10, lexicon, seed=6,
        require=lambda t: any(True for _ in t.find_all("<vp_passive>")),
    )
    assert len(pairs) == 10
    for _, tree in pairs:
        assert list(tree.find_all("<vp_passive>"))


def test_impossible_require_exhausts_budget(lexicon):
    with pytest.raises(RuntimeError):
        fuzz_generate(1, lexicon, seed=0, require=lambda t: False)


@pytest.mark.parametrize("category", ["det", "proper_noun", "v_unerg"])
def test_a_category_with_no_word_is_named(category, lexicon):
    code = lx.CATEGORY_CODES[category]
    lacking = lx.Lexicon({word: entry for word, entry in lexicon.entries.items()
                          if code not in entry.codes})
    with pytest.raises(ValueError, match=f"^the lexicon has no word of category '{category}'$"):
        fuzz_generate(200, lacking, seed=0)


@pytest.mark.parametrize("depth", [1, 4, 9])
def test_pp_chain_sentence(depth, lexicon):
    tokens = pp_chain_sentence(depth)
    tree = gr.parse_sentence(tokens, lexicon)
    assert tree is not None
    assert max_path_count(tree, "<np_pp>") == depth
    assert lf_oracle(tree, lexicon).count("nmod") == depth


@pytest.mark.parametrize("depth", [1, 4, 9])
def test_cp_chain_sentence(depth, lexicon):
    tokens = cp_chain_sentence(depth)
    tree = gr.parse_sentence(tokens, lexicon)
    assert tree is not None
    assert max_path_count(tree, "<vp_external5>") == depth
    assert lf_oracle(tree, lexicon).count("ccomp") == depth
