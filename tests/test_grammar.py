import random
import sys

import pytest

from flatsem import grammar as gr
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence
from flatsem.oracle import lf_oracle


def test_expansion_universe_size():
    keys = gr.all_expansion_keys()
    assert len(keys) == 52
    assert "<start> -> <s1>" in keys
    assert "<np_pp> -> <np_det> <pp> <np>" in keys
    assert "<vp_passive8> -> <v_dat_pp_p2> <pp_iobj> <by> <np>" in keys
    # leaf categories have no expansions of their own
    assert not any(k.startswith("<det>") for k in keys)
    assert not any(k.startswith("<common_noun>") for k in keys)


def test_every_lexicon_entry_fills_a_grammar_leaf(lexicon):
    """No lexicon row is embedded by the encoder yet used by no grammar leaf."""
    idle = [word for word in lexicon.entries if not gr.leaf_classes(word, lexicon)]
    assert idle == []
    assert len(lexicon.entries) == 682


def test_simple_transitive_structure():
    tree = gr.parse_sentence("a boy painted the girl")
    assert tree is not None
    assert gr.tree_expansions(tree) == {
        "<start> -> <s1>",
        "<s1> -> <np> <vp_external>",
        "<np> -> <np_det>",
        "<np_det> -> <det> <common_noun>",
        "<vp_external> -> <vp_external2>",
        "<vp_external2> -> <v_trans_omissible_p2> <np>",
    }
    leaves = list(tree.leaves())
    assert [l.word for l in leaves] == ["a", "boy", "painted", "the", "girl"]
    assert [l.pos for l in leaves] == [0, 1, 2, 3, 4]


def test_trailing_period_skipped_positions_kept():
    tree = gr.parse_sentence("a cake rolled .")
    assert tree is not None
    leaves = list(tree.leaves())
    assert [l.word for l in leaves] == ["a", "cake", "rolled"]
    assert [l.pos for l in leaves] == [0, 1, 2]
    assert gr.parse_sentence("a cake rolled") is not None


def test_out_of_grammar_is_none():
    assert gr.parse_sentence("shark .") is None
    assert gr.parse_sentence("the was by") is None
    assert gr.parse_sentence("painted the girl .") is None
    assert gr.parse_sentence(".") is None


def test_pp_allowed_in_every_np_position():
    # pp-modified passive subject: never seen in training, always grammatical
    assert gr.parse_sentence("the cake on the plate was eaten .") is not None
    # pp-modified indirect object inside a to-phrase
    assert gr.parse_sentence("emma gave the cake to a mouse on the table .") is not None
    # pp chains right-branch
    tree = gr.parse_sentence("the cake on the table beside the bed burned .")
    assert tree is not None
    pps = list(tree.find_all("<np_pp>"))
    assert len(pps) == 2
    assert pps[1] in pps[0].children[2].find_all("<np_pp>")


def test_clause_embedding_recurses():
    tree = gr.parse_sentence("emma noticed that emma noticed that a cake rolled .")
    assert tree is not None
    exp = gr.tree_expansions(tree)
    assert "<vp_external5> -> <v_cp_taking> <that> <start>" in exp
    assert len(list(tree.find_all("<vp_external5>"))) == 2
    assert len(list(tree.find_all("<start>"))) == 3


def test_dative_variants_pick_distinct_leaves():
    def leaf_symbols(sentence):
        return {l.symbol for l in gr.parse_sentence(sentence).leaves()}

    assert "<v_dat_p1>" in leaf_symbols("a horse gave the cake to the mouse .")
    assert "<v_dat_p2>" in leaf_symbols("eleanor sold evelyn the cake .")
    assert "<v_dat_pp_p1>" in leaf_symbols("the cookie was passed to emma .")
    assert "<v_dat_pp_p2>" in leaf_symbols("a cake was forwarded to levi by charlotte .")
    assert "<v_dat_pp_p3>" in leaf_symbols("emma was given a strawberry .")
    assert "<v_dat_pp_p4>" in leaf_symbols("the customer was sold a car by ella .")


def test_ambiguous_verb_form_settles_by_context():
    # "ate" is omissible: with an object it is p2, without one p1
    with_obj = gr.parse_sentence("the captain ate the cake .")
    without = gr.parse_sentence("the captain ate .")
    assert "<v_trans_omissible_p2>" in {l.symbol for l in with_obj.leaves()}
    assert "<v_trans_omissible_p1>" in {l.symbol for l in without.leaves()}


def test_unaccusative_subject_position():
    # v_unacc surfaces verb-finally (<vp_internal>) or transitively (<s1>)
    froze = gr.parse_sentence("the cake froze .")
    grew = gr.parse_sentence("the boy grew the flower .")
    assert "<vp_internal> -> <np> <v_unacc_p2>" in gr.tree_expansions(froze)
    assert "<vp_external1> -> <v_unacc_p1> <np>" in gr.tree_expansions(grew)


def test_infinitive_frame():
    tree = gr.parse_sentence("the scientist wanted to read .")
    exp = gr.tree_expansions(tree)
    assert "<s4> -> <np> <vp_external4>" in exp
    assert "<vp_external4> -> <v_inf_taking> <to> <v_inf>" in exp


@pytest.mark.parametrize("sentence", ["emma . smiled", "emma smiled . .", ". emma smiled ."])
def test_period_inside_a_sentence_is_out_of_grammar(sentence, lexicon):
    assert gr.parse_sentence(sentence, lexicon) is None
    assert lf_oracle(sentence, lexicon) is None


# Seeded fuzz corpora at pp/cp depths 1-12 in both fuzz modes.
FUZZ_CORPORA = [(depth, mode) for depth in range(1, 13) for mode in ("uniform", "coverage")]


def _fuzz_corpus(depth, mode, lexicon):
    return fuzz_generate(20, lexicon, seed=100 + depth, pp_depth=depth, cp_depth=depth, mode=mode)


@pytest.mark.parametrize("depth,mode", FUZZ_CORPORA)
def test_parse_equals_fuzzer_tree(depth, mode, lexicon):
    for tokens, tree in _fuzz_corpus(depth, mode, lexicon):
        assert gr.parse_sentence(tokens, lexicon) == tree


def _mutant(tokens, rng, words):
    """tokens with one token deleted, two swapped, or a lexicon word (or a
    ".") inserted."""
    out = list(tokens)
    k = rng.randrange(len(out))
    op = rng.choice(["delete", "swap", "insert"])
    if op == "delete":
        del out[k]
    elif op == "swap":
        j = rng.randrange(len(out))
        out[k], out[j] = out[j], out[k]
    else:
        out.insert(k, rng.choice(words))
    return out


@pytest.mark.parametrize("depth,mode", FUZZ_CORPORA)
def test_mutant_parses_are_well_formed(depth, mode, lexicon):
    """Whatever a mutant parses to covers its tokens in order with leaves
    and uses only productions of the grammar."""
    rng = random.Random(f"mutants:{depth}:{mode}")
    words = [*sorted(lexicon.entries), "."]
    universe = gr.all_expansion_keys()
    parsed = 0
    for tokens, _tree in _fuzz_corpus(depth, mode, lexicon):
        for _ in range(4):
            mutant = _mutant(tokens, rng, words)
            tree = gr.parse_sentence(mutant, lexicon)
            if tree is None:
                continue
            parsed += 1
            n = len(mutant) - (mutant[-1] == ".")
            leaves = list(tree.leaves())
            assert [leaf.pos for leaf in leaves] == list(range(n)), mutant
            assert [leaf.word for leaf in leaves] == mutant[:n], mutant
            assert gr.tree_expansions(tree) <= universe, mutant
    assert parsed > 0


def test_deep_trees_compare_hash_and_print(lexicon):
    """Equality, hashing and repr walk a 510-token tree without recursing."""
    sentence = pp_chain_sentence(168)
    tree = gr.parse_sentence(sentence, lexicon)
    same = gr.parse_sentence(sentence, lexicon)
    assert tree is not same
    assert tree == same and hash(tree) == hash(same)
    assert tree != gr.parse_sentence(pp_chain_sentence(167), lexicon)
    other_word = gr.parse_sentence(sentence[:-2] + ["table", "."], lexicon)
    assert tree != other_word  # equal shape, one leaf word differs
    text = repr(tree)
    assert text.startswith("Tree(symbol='<start>', children=(Tree(symbol='<s1>', children=(")
    assert text.count("Tree(") == 1021
    assert text.count("word='on'") == 56
    assert [leaf.pos for leaf in tree.leaves()] == list(range(509))
    assert len(list(tree.find_all("<np_pp>"))) == 168


def test_tree_repr_and_equality_match_the_dataclass_form():
    leaf = gr.Tree("<proper_noun>", word="emma", pos=0)
    node = gr.Tree("<np_prop>", (leaf,))
    assert repr(node) == ("Tree(symbol='<np_prop>', children=(Tree(symbol='<proper_noun>', "
                          "children=(), word='emma', pos=0),), word=None, pos=None)")
    pair = gr.Tree("<np_det>", (gr.Tree("<det>", word="a", pos=0),
                                gr.Tree("<common_noun>", word="boy", pos=1)))
    assert repr(pair) == ("Tree(symbol='<np_det>', children=(Tree(symbol='<det>', children=(), "
                          "word='a', pos=0), Tree(symbol='<common_noun>', children=(), "
                          "word='boy', pos=1)), word=None, pos=None)")
    assert node == gr.Tree("<np_prop>", (gr.Tree("<proper_noun>", word="emma", pos=0),))
    assert node != gr.Tree("<np_prop>", (gr.Tree("<proper_noun>", word="emma", pos=1),))
    assert node != leaf and node != "<np_prop>"
    assert len({node, gr.Tree("<np_prop>", (leaf,))}) == 1
    for field, value in [("symbol", "<np>"), ("children", ()), ("word", "ava"), ("pos", 1)]:
        with pytest.raises(AttributeError):
            setattr(node, field, value)
        with pytest.raises(AttributeError):
            delattr(leaf, field)
    assert node == gr.Tree("<np_prop>", (gr.Tree("<proper_noun>", word="emma", pos=0),))


def _reference_chart(token_classes):
    """Completed spans of a textbook Earley recognizer over the grammar
    dict: every item waiting on a nonterminal predicts all of its rules, with
    no look at the next word.  A leaf span is recorded when an item waits on
    that leaf and the word fills it, as ``_earley_chart`` records it."""
    grammar = gr.COGS_INPUT_GRAMMAR_NO_TERMINALS
    n = len(token_classes)
    columns = [set() for _ in range(n + 1)]
    columns[0] = {(gr.START, tuple(rhs), 0, 0) for rhs in grammar[gr.START]}
    completed = {}
    for i in range(n + 1):
        agenda = list(columns[i])

        def add(item):
            if item not in columns[i]:
                columns[i].add(item)
                agenda.append(item)

        while agenda:
            lhs, rhs, dot, origin = agenda.pop()
            if dot == len(rhs):
                completed.setdefault((lhs, origin), set()).add(i)
                for l2, r2, d2, o2 in list(columns[origin]):
                    if d2 < len(r2) and r2[d2] == lhs:
                        add((l2, r2, d2 + 1, o2))
            elif grammar[rhs[dot]]:
                for alt in grammar[rhs[dot]]:
                    add((rhs[dot], tuple(alt), 0, i))
            elif i < n and rhs[dot] in token_classes[i]:
                completed[(rhs[dot], i)] = {i + 1}
                columns[i + 1].add((lhs, rhs, dot + 1, origin))
    return completed


def _reference_parse(tokens, lexicon):
    """First parse by textbook top-down extraction from ``_reference_chart``:
    a node takes the first listed rule whose children split its span, and
    each child takes its shortest span that lets the rest match.  It
    recurses once per tree level (or more), so deep trees need a raised
    recursion limit."""
    grammar = gr.COGS_INPUT_GRAMMAR_NO_TERMINALS
    if tokens and tokens[-1] == ".":
        tokens = tokens[:-1]
    if not tokens:
        return None
    token_classes = [gr.leaf_classes(t, lexicon) for t in tokens]
    completed = _reference_chart(token_classes)

    def ends(sym, i):
        if grammar[sym]:
            return completed.get((sym, i), set())
        return {i + 1} if i < len(tokens) and sym in token_classes[i] else set()

    def split(rhs, i, j):
        if not rhs:
            return [] if i == j else None
        for end in sorted(ends(rhs[0], i)):
            rest = split(rhs[1:], end, j) if end <= j else None
            if rest is not None:
                return [(rhs[0], i, end), *rest]
        return None

    def build(sym, i, j):
        if not grammar[sym]:
            return gr.Tree(sym, word=tokens[i], pos=i)
        for rhs in grammar[sym]:
            kids = split(rhs, i, j)
            if kids is not None:
                return gr.Tree(sym, tuple(build(*kid) for kid in kids))
        raise AssertionError(f"no rule of {sym} splits [{i}, {j})")

    if len(tokens) not in completed.get((gr.START, 0), ()):
        return None
    return build(gr.START, 0, len(tokens))


def _chart_inputs(lexicon):
    """Every sequence of up to two tokens over one word of each lexicon row
    class ("the" apart) and "."; seeded fuzzed sentences in both modes, each
    with and without its period, and one-token mutants of them; and the
    longest pp and cp chains."""
    words = {}
    for word in sorted(lexicon.entries):
        words.setdefault("the" if word == "the" else lexicon._rows[word], word)
    classes = [*words.values(), "."]
    assert len(classes) == 31
    yield []
    for a in classes:
        yield [a]
        for b in classes:
            yield [a, b]
    rng = random.Random("charts")
    vocabulary = [*sorted(lexicon.entries), "."]
    for mode in ("uniform", "coverage"):
        for tokens, _tree in fuzz_generate(150, lexicon, seed=17, pp_depth=3, cp_depth=3,
                                           mode=mode):
            yield tokens
            yield tokens[:-1]
            for _ in range(3):
                yield _mutant(tokens, rng, vocabulary)
    yield pp_chain_sentence(168)
    yield cp_chain_sentence(169)


def test_first_set_predictor_keeps_the_unfiltered_chart(lexicon):
    """A rule is predicted only where its FIRST set meets the word's leaf
    categories; the rules this drops could never scan, so the completed spans
    equal those of a chart that predicts every rule."""
    count = 0
    for tokens in _chart_inputs(lexicon):
        token_classes = [gr.leaf_classes(t, lexicon) for t in tokens]
        assert gr._earley_chart(token_classes) == _reference_chart(token_classes), tokens
        count += 1
    assert count == 1 + 31 + 31 * 31 + 2 * 150 * 5 + 2


def test_parse_equals_the_textbook_extraction(lexicon):
    """``parse_sentence`` gives the tree (or the None) of a textbook
    recognizer and top-down extraction on every chart input, the 509- and
    511-token chains included."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        parsed = 0
        for tokens in _chart_inputs(lexicon):
            tree = gr.parse_sentence(tokens, lexicon)
            assert tree == _reference_parse(tokens, lexicon), tokens
            parsed += tree is not None
    finally:
        sys.setrecursionlimit(limit)
    assert parsed == 728
