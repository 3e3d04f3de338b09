import numpy as np
import pytest

from flatsem import decoder as dec
from flatsem import seq
from flatsem.encoder import analyze, analyze_all
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence
from flatsem.grammar import parse_sentence
from flatsem.lexicon import LexiconError
from flatsem.logical_form import parse_lf
from flatsem.oracle import lf_oracle, sentence_facts

from corpora import ATTRACTION_CASES, GOLDEN


@pytest.mark.parametrize("sentence,expected", sorted(GOLDEN.items()))
def test_golden_decodes(sentence, expected, lexicon):
    assert dec.decode(sentence, lexicon) == expected


@pytest.mark.parametrize("sentence,clean,ablated,_", ATTRACTION_CASES)
def test_ablated_decodes(sentence, clean, ablated, _, lexicon):
    assert dec.decode(sentence, lexicon) == clean
    assert dec.decode(sentence, lexicon, ablate=True) == ablated


@pytest.mark.parametrize("sentence", ["", [], ".", "  "])
def test_empty_input_gives_the_empty_form(sentence, lexicon):
    assert dec.decode(sentence, lexicon) == ""
    assert dec.decode(sentence, lexicon, ablate=True) == ""


def test_empty_input_analyzes_to_empty_sequences(lexicon):
    a = analyze([], lexicon)
    assert a.n_eff == 0 and a.tokens == [] and a.clauses == [] and a.pps == []
    for field in (a.noun_mask, a.np_head, a.np_start, a.no_pp_np, a.emb.pos, a.emb.vmap1,
                  a.emb.vmap4):
        assert field == []


def test_ablation_changes_nothing_without_pp_subject(lexicon):
    s = "a boy painted the girl"
    assert dec.decode(s, lexicon) == dec.decode(s, lexicon, ablate=True)


def test_out_of_grammar_input_degrades_to_intros(lexicon):
    # no template matches, so only the noun preamble comes out
    assert dec.decode("shark .", lexicon) == "shark ( 0 )"


def test_output_only_stem_is_out_of_lexicon(lexicon):
    # "sell" is only ever an output label ("sold" -> "sell"), never an input word
    with pytest.raises(LexiconError, match="'sell'"):
        dec.decode("emma sell the cake .", lexicon)
    assert isinstance(dec.decode_all(["emma sell the cake ."], lexicon)[0], LexiconError)


def test_decode_agrees_with_oracle_on_goldens(lexicon):
    for sentence in GOLDEN:
        assert dec.decode(sentence, lexicon) == lf_oracle(sentence, lexicon)


@pytest.mark.parametrize("ablate", [False, True])
def test_slots_bind_only_nouns_inside_the_clause(ablate, lexicon):
    """A clause's noun slots stay inside its span, even where a noun of the
    clause before or after is the nearest one the verb could reach."""
    # "rolled" heads a clause of its own with no subject; "emma" sits before it
    assert dec.decode("emma noticed that rolled .", lexicon, ablate=ablate) == (
        "emma ( 0 ) ; notice ( 1 ) AND agent ( 1 , 0 ) AND ccomp ( 1 , 3 ) AND roll ( 3 )")
    # "ate" goes on inside its clause, but its object would be the next clause's subject
    assert dec.decode("emma ate noticed that emma smiled .", lexicon, ablate=ablate) == (
        "emma ( 0 ) ; emma ( 4 ) ; eat ( 1 ) AND agent ( 1 , 0 ) AND smile ( 5 ) "
        "AND agent ( 5 , 4 )")

def test_no_lexicon_means_the_default_one(lexicon):
    """``decode``, ``analyze`` and ``analyze_all`` read the bundled lexicon
    when given none, as a one-sentence caller does."""
    sentence = pp_chain_sentence(3)
    assert dec.decode(sentence) == dec.decode(sentence, lexicon) == lf_oracle(sentence, lexicon)
    assert dec.decode(sentence, ablate=True) == dec.decode(sentence, lexicon, ablate=True)
    assert repr(analyze(sentence)) == repr(analyze(sentence, lexicon))
    assert repr(analyze_all([sentence])) == repr(analyze_all([sentence], lexicon))


def test_case_and_token_list_inputs(lexicon):
    want = GOLDEN["a boy painted the girl"]
    assert dec.decode("A boy Painted THE girl", lexicon) == want
    assert dec.decode(["a", "boy", "painted", "the", "girl"], lexicon) == want


def test_repeated_decodes_keep_ablation_variants_apart(lexicon):
    s = ATTRACTION_CASES[0][0]
    clean_1 = dec.decode(s, lexicon)
    ablated = dec.decode(s, lexicon, ablate=True)
    clean_2 = dec.decode(s, lexicon)
    assert clean_1 == clean_2 != ablated


def test_flat_facts_equal_tree_facts(lexicon):
    """The flat analysis and the tree walk assert the same facts."""
    def by_position(facts):
        # a verb's relations keep their emission order under the stable sort
        return (sorted(facts.nouns, key=lambda i: i.idx),
                sorted(facts.verbs, key=lambda v: v.idx),
                sorted(facts.rels, key=lambda r: r.left))

    for tokens, _tree in fuzz_generate(300, lexicon, seed=8, pp_depth=3, cp_depth=3):
        flat = dec.build_plan(analyze(tokens, lexicon), lexicon)
        tree = sentence_facts(parse_sentence(tokens, lexicon), lexicon)
        assert by_position(flat) == by_position(tree), tokens


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


def _decode_or_error(sentence, lexicon, ablate):
    """decode(), with an unreadable row's error as (type, message)."""
    try:
        return dec.decode(sentence, lexicon, ablate=ablate)
    except (LexiconError, seq.SequenceTooLongError) as err:
        return type(err), str(err)


def _entries(results):
    return [r if isinstance(r, str) else (type(r), str(r)) for r in results]


def _bucketed_corpus(lexicon):
    """Fuzzed sentences at pp/cp depths 1-6 in both modes, chains up to 511
    tokens, empty and mixed-case input, and an unknown-word row and a
    516-token row between two rows of one length bucket."""
    corpus = [tokens for mode in ("uniform", "coverage") for depth in range(1, 7)
              for tokens, _tree in fuzz_generate(12, lexicon, seed=depth, pp_depth=depth,
                                                 cp_depth=depth, mode=mode)]
    corpus += [chain(depth) for chain in (pp_chain_sentence, cp_chain_sentence)
               for depth in (1, 2, 7, 40, 100, 168)]
    corpus += [cp_chain_sentence(169), "", ".", [], "A Boy PAINTED the Girl", "EMMA smiled ."]
    eight = [tokens for tokens in corpus if len(tokens) == 8]
    unknown = [*eight[0][:-2], "zorblax", eight[0][-1]]
    return [*corpus, eight[0], unknown, pp_chain_sentence(170), eight[1]]


@pytest.mark.parametrize("ablate", [False, True])
def test_decode_all_equals_decode_row_by_row(ablate, lexicon):
    corpus = _bucketed_corpus(lexicon)
    assert len(corpus[-3]) == 8 and len(corpus[-2]) == 516
    expected = [_decode_or_error(s, lexicon, ablate) for s in corpus]
    assert [e[0] for e in expected if not isinstance(e, str)] == [LexiconError,
                                                                    seq.SequenceTooLongError]
    assert _entries(dec.decode_all(corpus, lexicon, ablate)) == expected
    assert _entries(dec.decode_all([], lexicon, ablate)) == []


def test_analyze_all_equals_analyze_row_by_row(lexicon):
    corpus = [s for s in _bucketed_corpus(lexicon) if len(s) <= 40]
    for sentence, analysis in zip(corpus, analyze_all(corpus, lexicon)):
        if isinstance(analysis, LexiconError):
            with pytest.raises(LexiconError):
                analyze(sentence, lexicon)
        else:
            assert repr(analysis) == repr(analyze(sentence, lexicon))


def test_a_bucket_is_cut_to_the_selector_cell_cap(lexicon, monkeypatch):
    """Each batch's left shift, the aggregate of an (rows, n, n) offset
    selector, would stand for at most the cap's cells."""
    shapes = []
    real_shift = seq.shift_left

    def recording_shift(values, *args, **kwargs):
        shapes.append((*np.shape(values), np.shape(values)[-1]))
        return real_shift(values, *args, **kwargs)

    monkeypatch.setattr(seq, "shift_left", recording_shift)
    sentence = cp_chain_sentence(12)
    assert len(sentence) == 40
    forms = dec.decode_all([sentence] * 600, lexicon)
    cap = seq.MAX_SEQ_LEN ** 2
    assert max(int(np.prod(shape)) for shape in shapes) <= cap
    batched = [shape[0] for shape in shapes if len(shape) == 3]
    assert sum(batched) == 600 and max(batched) == cap // (40 * 40)
    monkeypatch.setattr(seq, "shift_left", real_shift)
    assert forms == [dec.decode(sentence, lexicon)] * 600
