import importlib.util
import re
from pathlib import Path

import pytest

from flatsem import lexicon as lx

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "src" / "flatsem" / "data" / "lexicon.tsv"


def test_codes_for_function_words(lexicon):
    assert lexicon.codes("the") == (lx.DET,)
    assert lexicon.codes("a") == (lx.DET,)
    assert lexicon.codes("beside") == (lx.PP,)
    assert lexicon.codes("was") == (lx.WAS,)
    assert lexicon.codes("by") == (lx.BY,)
    assert lexicon.codes("to") == (lx.TO,)
    assert lexicon.codes("that") == (lx.THAT,)


def test_verb_ambiguity_spreads_across_slots(lexicon):
    # "liked" works as plain transitive, passive participle, clause-embedder
    # and infinitive-taker; embed must expose all four uses at once.
    emb = lexicon.embed(["liked"])
    assert emb.vmap1[0] == lx.V_TRANS_NOT_OMISSIBLE
    assert emb.vmap2[0] == lx.V_TRANS_NOT_OMISSIBLE_PP
    assert emb.vmap3[0] == lx.V_CP_TAKING
    assert emb.vmap4[0] == lx.V_INF_TAKING
    assert emb.pos[0] == lx.V_TRANS_NOT_OMISSIBLE  # first occupied slot wins


def test_passive_only_form_lands_in_slot2(lexicon):
    emb = lexicon.embed(["given"])
    assert emb.vmap1[0] == 0
    assert emb.vmap2[0] == lx.V_DAT_PP
    assert emb.pos[0] == lx.V_DAT_PP


def test_stems(lexicon):
    assert lexicon.stem("painted") == "paint"
    assert lexicon.stem("ate") == "eat"
    assert lexicon.stem("gave") == "give"
    assert lexicon.stem("cake") == "cake"
    # "sold" normalizes to "sell", which never occurs as an input word
    assert lexicon.stem("sold") == "sell"


def test_output_only_stem_has_no_row(lexicon):
    # "sell" is only ever an output label, so it is no lexicon word
    assert "sell" not in lexicon
    with pytest.raises(lx.LexiconError):
        lexicon.codes("sell")
    with pytest.raises(lx.LexiconError):
        lexicon.embed(["emma", "sell", "the", "cake", "."])
    # ...while "paint" is an input verb (an infinitive) as well as a stem
    assert lexicon.codes("paint") == (lx.V_INF,)


def test_embed_period_is_filler(lexicon):
    emb = lexicon.embed(["a", "cake", "rolled", "."])
    assert emb.pos == [lx.DET, lx.COMMON_NOUN, lx.V_UNACC, lx.FILLER]
    assert emb.vmap1 == [0, 0, lx.V_UNACC, 0]
    assert len(emb) == 4


def test_unknown_word_raises(lexicon):
    with pytest.raises(lx.LexiconError):
        lexicon.embed(["the", "blorple"])
    assert "cake" in lexicon
    assert "." in lexicon
    assert "blorple" not in lexicon


def test_stem_of_an_unknown_word_raises(lexicon):
    with pytest.raises(lx.LexiconError):
        lexicon.stem("blorple")


def test_case_insensitive(lexicon):
    assert lexicon.codes("Emma") == lexicon.codes("emma") == (lx.PROPER_NOUN,)


def test_words_for(lexicon):
    assert "girl" in lexicon.words_for("common_noun")
    assert "emma" in lexicon.words_for("proper_noun")
    assert "on" in lexicon.words_for("pp")
    assert lexicon.words_for("no_such_category") == ()


def test_generalization_only_words_present(lexicon):
    # these only surface in the generalization splits, never in training
    assert lexicon.codes("monastery") == (lx.COMMON_NOUN,)
    assert lexicon.codes("gardner") == (lx.COMMON_NOUN,)


def test_category_sizes(lexicon):
    assert len(lexicon.words_for("common_noun")) == 408
    assert len(lexicon.words_for("proper_noun")) == 103


def test_shipped_tsv_matches_builder():
    spec = importlib.util.spec_from_file_location(
        "build_lexicon", REPO / "scripts" / "build_lexicon.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.build_rows() == DATA.read_text().splitlines()


def test_malformed_tsv_rejected(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("cake\tcommon_noun\textra\ttoofar\n")
    with pytest.raises(ValueError):
        lx.load_lexicon(bad)
    bad.write_text("cake\tnot_a_category\n")
    with pytest.raises(ValueError):
        lx.load_lexicon(bad)


@pytest.mark.parametrize("word,categories", [
    ("sue", "proper_noun,common_noun"),  # two non-verb categories
    ("bake", "v_trans_not_omissible,v_unerg"),  # two verb categories of slot 1
    ("the", "det,v_unerg"),  # a verb category takes the primary code
])
def test_a_word_its_embedding_row_cannot_hold_is_rejected(word, categories, tmp_path):
    """The encoder reads a word only through its row, so an entry whose
    categories do not all fit that row is refused, not read partly."""
    table = tmp_path / "lexicon.tsv"
    table.write_text(f"cake\tcommon_noun\n{word}\t{categories}\n")
    message = f"word '{word}': its categories {categories} do not fit one embedding row"
    with pytest.raises(ValueError, match=f"^{re.escape(str(table))}:2: {message}"):
        lx.load_lexicon(table)
    codes = tuple(lx.CATEGORY_CODES[c] for c in categories.split(","))
    with pytest.raises(ValueError, match=f"^{message}"):
        lx.Lexicon({word: lx.Entry(codes, word)})
    # one category per verb slot, and one repeated, still fit
    table.write_text(f"{word}\tcommon_noun,common_noun\n"
                     "liked\tv_trans_omissible,v_trans_omissible_pp,v_cp_taking,v_inf_taking\n")
    assert sorted(lx.load_lexicon(table).entries) == sorted(["liked", word])


@pytest.mark.parametrize("word", ["", " ", "ice cream", " cake", "cake\u00a0"])
def test_a_word_no_token_can_be_is_rejected(word, tmp_path):
    """A sentence is split on whitespace, so an empty word, or one holding
    whitespace, would be an entry no token reads and a word the fuzzer could
    draw but ``str.split`` would lose."""
    table = tmp_path / "lexicon.tsv"
    table.write_text(f"emma\tproper_noun\n{word}\tcommon_noun\n")
    message = f"word {word.lower()!r} is empty or holds whitespace"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{table}:2: {message}')}$"):
        lx.load_lexicon(table)


def test_a_word_listed_twice_is_rejected(tmp_path):
    table = tmp_path / "lexicon.tsv"
    table.write_text("cake\tcommon_noun\nemma\tproper_noun\nCake\tproper_noun\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(table))}:3: word 'cake' listed twice$"):
        lx.load_lexicon(table)


def test_blank_lines_are_skipped(tmp_path):
    table = tmp_path / "lexicon.tsv"
    table.write_text("\ncake\tcommon_noun\n   \nate\tv_unerg\teat\n\n")
    lexicon = lx.load_lexicon(table)
    assert sorted(lexicon.entries) == ["ate", "cake"]
    assert lexicon.stem("ate") == "eat"
