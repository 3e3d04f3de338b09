import random

import pytest

from flatsem import decoder as dec
from flatsem.encoder import analyze
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence
from flatsem.grammar import parse_sentence
from flatsem.logical_form import parse_lf
from flatsem.oracle import lf_oracle, sentence_facts

from corpora import ATTRACTION_CASES, GOLDEN


@pytest.mark.parametrize("sentence,expected", sorted(GOLDEN.items()))
def test_golden_decodes(sentence, expected, lexicon):
    assert dec.decode(sentence, lexicon) == expected


@pytest.mark.parametrize("sentence,clean,ablated,_", ATTRACTION_CASES)
def test_ablated_decodes(sentence, clean, ablated, _, lexicon):
    assert dec.decode(sentence, lexicon) == clean
    assert dec.decode_ablated(sentence, lexicon) == ablated


@pytest.mark.parametrize("sentence", ["", [], ".", "  "])
def test_empty_input_gives_the_empty_form(sentence, lexicon):
    assert dec.decode(sentence, lexicon) == ""
    assert dec.decode_ablated(sentence, lexicon) == ""


def test_empty_input_analyzes_to_empty_sequences(lexicon):
    a = analyze([], lexicon)
    assert a.n_eff == 0 and a.tokens == [] and a.clauses == [] and a.pps == []
    for field in (a.noun_mask, a.np_head, a.np_start, a.no_pp_np, a.eligible, a.ordinals,
                  a.star, a.emb.pos, a.emb.vmap1, a.emb.vmap4):
        assert field == []


def test_ablation_changes_nothing_without_pp_subject(lexicon):
    s = "a boy painted the girl"
    assert dec.decode(s, lexicon) == dec.decode_ablated(s, lexicon)


def test_next_token_is_a_pure_function_of_prefix(lexicon):
    """Replaying any output prefix into a fresh state continues identically."""
    rng = random.Random(0)
    for sentence in GOLDEN:
        full = dec.decode(sentence, lexicon).split()
        for cut in sorted(rng.sample(range(len(full)), k=min(5, len(full)))):
            state = dec.start_state(sentence, lexicon)
            state.out = full[:cut]
            assert dec.next_token(state) == full[cut]
        done = dec.start_state(sentence, lexicon)
        done.out = list(full)
        assert dec.next_token(done) is None


def test_two_decodes_interleave_without_interference(lexicon):
    a = dec.start_state("a boy painted the girl", lexicon)
    b = dec.start_state("the captain ate .", lexicon)
    states = [a, b]
    while states:
        for s in list(states):
            tok = dec.next_token(s)
            if tok is None:
                states.remove(s)
            else:
                s.out.append(tok)
    assert " ".join(a.out) == GOLDEN["a boy painted the girl"]
    assert " ".join(b.out) == GOLDEN["the captain ate ."]


def test_out_of_grammar_input_degrades_to_intros(lexicon):
    # no template matches, so only the noun preamble comes out
    assert dec.decode("shark .", lexicon) == "shark ( 0 )"


def test_decode_agrees_with_oracle_on_goldens(lexicon):
    for sentence in GOLDEN:
        assert dec.decode(sentence, lexicon) == lf_oracle(sentence, lexicon)


def test_case_and_token_list_inputs(lexicon):
    want = GOLDEN["a boy painted the girl"]
    assert dec.decode("A boy Painted THE girl", lexicon) == want
    assert dec.decode(["a", "boy", "painted", "the", "girl"], lexicon) == want


def test_repeated_decodes_keep_ablation_variants_apart(lexicon):
    s = ATTRACTION_CASES[0][0]
    clean_1 = dec.decode(s, lexicon)
    ablated = dec.decode_ablated(s, lexicon)
    clean_2 = dec.decode(s, lexicon)
    assert clean_1 == clean_2 != ablated


def test_flat_facts_equal_tree_facts(lexicon):
    """The flat analysis and the tree walk assert the same facts."""
    def by_position(facts):
        return (sorted(facts.intros, key=lambda i: i.pos),
                sorted(facts.nmods, key=lambda m: m.head_pos),
                sorted(facts.groups, key=lambda g: g.pos))

    for tokens, _tree in fuzz_generate(300, lexicon, seed=8, pp_depth=3, cp_depth=3):
        flat = dec.build_plan(analyze(tokens, lexicon), lexicon)
        tree = sentence_facts(parse_sentence(tokens, lexicon), lexicon)
        assert by_position(flat) == by_position(tree), tokens


@pytest.mark.parametrize("ablate", [False, True])
def test_next_token_replays_decode_on_fuzzed_sentences(ablate, lexicon):
    """Every prefix of decode()'s output continues with its next token."""
    for tokens, _tree in fuzz_generate(60, lexicon, seed=5, pp_depth=3, cp_depth=3):
        full = dec.decode(tokens, lexicon, ablate=ablate).split()
        state = dec.start_state(tokens, lexicon, ablate=ablate)
        for cut in range(len(full) + 1):
            state.out = full[:cut]
            assert dec.next_token(state) == (full[cut] if cut < len(full) else None)


# Chains up to MAX_SEQ_LEN tokens (pp depth 168, clause depth 169), sampled.
# pp depths 163/164 and clause depths 89/90 straddle the point where a tree
# extraction that recurses once per tree level runs out of Python's stack.
@pytest.mark.parametrize("chain,depth", [
    *((pp_chain_sentence, d) for d in [*range(13, 163, 15), 163, 164, 168]),
    *((cp_chain_sentence, d) for d in [*range(13, 89, 15), 89, 90, *range(103, 169, 15), 169]),
])
def test_decode_matches_oracle_on_deep_chains(chain, depth, lexicon):
    tokens = chain(depth)
    assert dec.decode(tokens, lexicon) == lf_oracle(tokens, lexicon)


@pytest.mark.parametrize("tokens,length,nouns,verbs", [
    (pp_chain_sentence(168), 510, [1, 4, *range(7, 4 + 3 * 168 + 1, 3)], [2]),
    (cp_chain_sentence(169), 511, [*range(0, 3 * 169, 3), 3 * 169 + 1],
     [*range(1, 3 * 169, 3), 3 * 169 + 2]),
])
def test_decode_reaches_max_seq_len(tokens, length, nouns, verbs, lexicon):
    assert len(tokens) == length
    lf = parse_lf(dec.decode(tokens, lexicon))
    assert sorted(u.idx for u in lf.unary) == sorted(nouns + verbs)
