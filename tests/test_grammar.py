import hashlib
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
    """Parsing, equality, hashing and repr walk the 509- and 511-token trees
    without recursing: they run with the recursion limit far below its
    default."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
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

        sentence = cp_chain_sentence(169)
        tree = gr.parse_sentence(sentence, lexicon)
        same = gr.parse_sentence(sentence, lexicon)
        assert tree is not same
        assert tree == same and hash(tree) == hash(same)
        assert tree != gr.parse_sentence(cp_chain_sentence(168), lexicon)
        text = repr(tree)
        assert text.startswith("Tree(symbol='<start>', children=(Tree(symbol='<s1>', children=(")
        assert text.count("Tree(") == 1528
        assert text.count("word='that'") == 169
        assert [leaf.pos for leaf in tree.leaves()] == list(range(510))
        assert len(list(tree.find_all("<start>"))) == 170
    finally:
        sys.setrecursionlimit(limit)


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
    that leaf and the word fills it."""
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


def _derivations(max_len):
    """The leaf string of every leftmost derivation of START with at most
    max_len leaves, read off the grammar dict: each pending symbol yields at
    least one leaf, so a form longer than max_len is dropped."""
    grammar = gr.COGS_INPUT_GRAMMAR_NO_TERMINALS
    forms = [((), (gr.START,))]
    while forms:
        leaves, pending = forms.pop()
        if not pending:
            yield leaves
            continue
        sym, rest = pending[0], pending[1:]
        if not grammar[sym]:
            forms.append(((*leaves, sym), rest))
            continue
        for rhs in grammar[sym]:
            if len(leaves) + len(rhs) + len(rest) <= max_len:
                forms.append((leaves, (*rhs, *rest)))


def _row_class_words(lexicon):
    """One word of each lexicon row class, "the" apart from "a"."""
    words = {}
    for word in sorted(lexicon.entries):
        words.setdefault("the" if word == "the" else lexicon._rows[word], word)
    return list(words.values())


def _chart_inputs(lexicon):
    """Every sequence of up to two tokens over one word of each lexicon row
    class ("the" apart) and "."; seeded fuzzed sentences in both modes, each
    with and without its period, and one-token mutants of them; every
    derivation of up to 12 tokens, with one word for each leaf; and the
    longest pp and cp chains."""
    classes = [*_row_class_words(lexicon), "."]
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
    yield from _derivation_sentences(lexicon)
    yield pp_chain_sentence(168)
    yield cp_chain_sentence(169)


def _derivation_sentences(lexicon):
    """Every derivation of up to 12 tokens, with one word for each leaf."""
    word_of = {}
    for word in sorted(lexicon.entries):
        for leaf in gr.leaf_classes(word, lexicon):
            word_of.setdefault(leaf, word)
    for leaves in _derivations(12):
        yield [word_of[leaf] for leaf in leaves]


def test_parse_equals_the_textbook_extraction(lexicon):
    """``parse_sentence`` gives the tree (or the None) of a textbook
    recognizer and top-down extraction on every chart input, the 509- and
    511-token chains included."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        count = parsed = 0
        for tokens in _chart_inputs(lexicon):
            tree = gr.parse_sentence(tokens, lexicon)
            assert tree == _reference_parse(tokens, lexicon), tokens
            count += 1
            parsed += tree is not None
    finally:
        sys.setrecursionlimit(limit)
    assert count == 1 + 31 + 31 * 31 + 2 * 150 * 5 + 1_141 + 2
    assert parsed == 728 + 1_141


def _chains():
    """pp and cp chains of every seventh depth, up to 511 tokens."""
    yield from (pp_chain_sentence(depth) for depth in range(0, 169, 7))
    yield from (cp_chain_sentence(depth) for depth in range(0, 170, 7))


def _run_keys(tokens, lexicon):
    body = tokens[:-1] if tokens[-1:] == ["."] else tokens
    return gr.class_expansions([gr.leaf_classes(t, lexicon) for t in body])


def test_keys_read_off_the_run_equal_the_tree_expansions(lexicon):
    """The expansion keys read off the accepting run are those of the tree
    built from it, on every chart input (out-of-grammar mutants among them)
    and on the chains; a sequence that does not parse has none."""
    count = parsed = 0
    for tokens in [*_chart_inputs(lexicon), *_chains()]:
        tree = gr.parse_sentence(tokens, lexicon)
        want = gr.tree_expansions(tree) if tree is not None else set()
        assert _run_keys(tokens, lexicon) == want, tokens
        count += 1
        parsed += tree is not None
    assert (count, parsed) == (3_686, 1_919)
    for text in ("", "."):
        assert _run_keys(text.split(), lexicon) == frozenset()


def test_trees_print_as_pinned(lexicon):
    """The trees of every derivation of up to 12 tokens and of the chains
    print byte for byte as pinned here."""
    digest = hashlib.sha256()
    for tokens in [*_derivation_sentences(lexicon), *_chains()]:
        digest.update(repr(gr.parse_sentence(tokens, lexicon)).encode() + b"\n")
    assert digest.hexdigest() == (
        "2e8f6863f9b3f5a0cc90aefc5e8f14e82dce17425ebbabb43da5b118d3f91ac5")


def _subset_dfa(alphabet):
    """Subset construction over the stack automaton ``gr._MOVES``, reading
    symbols that each stand for a set of leaves (``alphabet``: symbol ->
    leaves).  Returns each state's moves (symbol -> state; the empty subset,
    a dead state, is left out) and which states accept.  State 0 is the
    start."""
    start = frozenset([gr._START_STACK])
    index, subsets, delta = {start: 0}, [start], []
    for subset in subsets:  # grows while it is walked
        row = {}
        for symbol, leaves in alphabet.items():
            target = frozenset(nxt for stack in subset for leaf in leaves
                               for nxt, _rules in gr._MOVES[stack].get(leaf, ()))
            if target:
                if target not in index:
                    index[target] = len(subsets)
                    subsets.append(target)
                row[symbol] = index[target]
        delta.append(row)
    return delta, [gr._EMPTY_STACK in subset for subset in subsets]


def _path_counts(edges, accepting, max_len, start=0):
    """Accepting paths from start of length 0..max_len, where edges[q] lists
    q's successors, one entry per edge."""
    counts, ways = [], {start: 1}
    for _ in range(max_len + 1):
        counts.append(sum(n for q, n in ways.items() if accepting[q]))
        nxt = {}
        for q, n in ways.items():
            for r in edges[q]:
                nxt[r] = nxt.get(r, 0) + n
        ways = nxt
    return counts


def test_grammar_is_unambiguous_and_counts_its_derivations(lexicon):
    """Each side of each comparison counts the paths of a finite automaton,
    so its counts obey a linear recurrence as long as its state count; two
    such sequences that agree at every length up to the sum of the two
    counts agree at every length.

    - Derivations (accepting paths through the moves) equal distinct leaf
      strings (the subset automaton over leaves): every leaf string has one
      tree.
    - Pairs of an accepted row-class string and a leaf reading of it equal
      accepted row-class strings: every sentence has one leaf reading, so
      the parser never chooses between parses.
    """
    stack_edges = [[nxt for options in moves.values() for nxt, _rules in options]
                   for moves in gr._MOVES]
    leaves = {leaf for moves in gr._MOVES for leaf in moves}
    leaf_delta, leaf_accepting = _subset_dfa({leaf: {leaf} for leaf in leaves})
    max_len = len(gr._MOVES) + len(leaf_delta)
    derivations = _path_counts(stack_edges, [s == gr._EMPTY_STACK for s in range(len(gr._MOVES))],
                               max_len, start=gr._START_STACK)
    strings = _path_counts([list(row.values()) for row in leaf_delta], leaf_accepting, max_len)
    assert derivations == strings
    assert [sum(derivations[:n + 1]) for n in (12, 16, 20, 24, 28)] == [
        1_141, 4_910, 19_408, 74_815, 285_936]

    classes = {word: gr.leaf_classes(word, lexicon) for word in _row_class_words(lexicon)}
    assert len(classes) == 30
    row_delta, row_accepting = _subset_dfa(classes)
    max_len = len(leaf_delta) + len(row_delta)
    readings = _path_counts(
        [[row[leaf] for word_leaves in classes.values() for leaf in word_leaves if leaf in row]
         for row in leaf_delta], leaf_accepting, max_len)
    sentences = _path_counts([list(row.values()) for row in row_delta], row_accepting, max_len)
    assert readings == sentences


@pytest.mark.parametrize("rhs", [
    ["<np_det>", "<np>", "<pp>"],  # <np> recurs in a middle position
    ["<np>", "<pp>", "<np_det>"],  # left recursion
])
def test_compile_refuses_recursion_before_the_last_position(rhs):
    grammar = {**gr.COGS_INPUT_GRAMMAR_NO_TERMINALS, "<np_pp>": [rhs]}
    with pytest.raises(ValueError, match="<np_pp> recurs before the end of"):
        gr._compile_moves(grammar)
