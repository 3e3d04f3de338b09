import ast
from pathlib import Path

import pytest

from flatsem import grammar as gr
from flatsem import oracle as orc
from flatsem.encoder import get_agent_side
from flatsem.logical_form import Intro, Rel, classify_error

from corpora import (
    ATTRACTION_CASES,
    AUGMENT_AFTER,
    AUGMENT_BEFORE,
    GOLDEN,
)


@pytest.mark.parametrize("sentence,expected", sorted(GOLDEN.items()))
def test_golden_logical_forms(sentence, expected):
    assert orc.lf_oracle(sentence) == expected


def test_unparseable_gives_none():
    assert orc.lf_oracle("shark .") is None
    assert orc.lf_oracle("the was by .") is None


def test_accepts_tokens_or_tree(lexicon):
    sentence = "a boy painted the girl"
    tree = gr.parse_sentence(sentence, lexicon)
    assert orc.lf_oracle(sentence.split()) == GOLDEN[sentence]
    assert orc.lf_oracle(tree) == GOLDEN[sentence]


def test_sentence_facts_shapes(lexicon):
    tree = gr.parse_sentence("a boy beside the tree painted the cake", lexicon)
    facts = orc.sentence_facts(tree, lexicon)
    assert facts.nouns == [Intro("boy", 1), Intro("tree", 4, True), Intro("cake", 7, True)]
    assert facts.verbs == [Intro("paint", 5)]
    assert facts.rels == [Rel("nmod . beside", 1, 4), Rel("agent", 5, 1), Rel("theme", 5, 7)]


def test_body_sorted_by_head_position(lexicon):
    # nmod of the theme (head 4) sorts after the verb group (head 2)
    tree = gr.parse_sentence("a horse gave the cake beside a table to the mouse", lexicon)
    lf = orc.serialize_facts(orc.sentence_facts(tree, lexicon))
    body = lf.split(" ; ")[-1]
    assert body.index("give ( 2 )") < body.index("nmod . beside ( 4 , 7 )")


def test_no_trailing_separator_when_body_empty():
    # a bare unergative still has a verb group; only broken inputs could have
    # an empty body, so check the serialized form never ends with a separator
    for sentence in GOLDEN:
        lf = orc.lf_oracle(sentence)
        assert not lf.endswith(";") and not lf.endswith("AND")


def test_agent_side_classification():
    assert get_agent_side("v_trans_omissible_p2") == "left"
    assert get_agent_side("v_unerg") == "left"
    assert get_agent_side("v_inf_taking") == "left"
    assert get_agent_side("v_trans_omissible_pp_p2") == "right"
    assert get_agent_side("v_dat_pp_p4") == "right"
    assert get_agent_side("v_trans_omissible_pp_p1") is None  # no agent at all
    assert get_agent_side("v_unacc_p2") is None


AGENT_SIDES = {
    "v_trans_omissible_p1": "left", "v_trans_omissible_p2": "left",
    "v_trans_omissible_pp_p1": None, "v_trans_omissible_pp_p2": "right",
    "v_trans_not_omissible": "left",
    "v_trans_not_omissible_pp_p1": None, "v_trans_not_omissible_pp_p2": "right",
    "v_cp_taking": "left", "v_inf_taking": "left", "v_inf": "left",
    "v_unacc_p1": "left", "v_unacc_p2": None,
    "v_unacc_pp_p1": None, "v_unacc_pp_p2": "right",
    "v_unerg": "left",
    "v_dat_p1": "left", "v_dat_p2": "left",
    "v_dat_pp_p1": None, "v_dat_pp_p2": "right", "v_dat_pp_p3": None, "v_dat_pp_p4": "right",
}


@pytest.mark.parametrize("template,side", sorted(AGENT_SIDES.items()))
def test_agent_side_of_every_frame(template, side):
    assert get_agent_side(template) == side


def test_agent_side_of_unknown_frame():
    assert get_agent_side("v_nonsense") is None


def test_matrix_template_and_subject_modification(lexicon):
    tree = gr.parse_sentence("the baby beside the valve smiled .", lexicon)
    assert orc.matrix_template(tree) == "v_unerg"
    assert orc.subject_is_pp_modified(tree)
    plain = gr.parse_sentence("the baby smiled .", lexicon)
    assert not orc.subject_is_pp_modified(plain)


def test_predict_attraction_error():
    assert orc.predict_attraction_error("the baby beside the valve smiled .") == 4
    assert (
        orc.predict_attraction_error(
            "the girl beside the stool beside the table smiled ."
        )
        == 7
    )
    # without pp modification the prediction is just the subject head
    assert orc.predict_attraction_error("the baby smiled .") == 1
    assert orc.predict_attraction_error("shark .") is None


@pytest.mark.parametrize("sentence,clean,ablated,wrong_idx", ATTRACTION_CASES)
def test_classify_attraction(sentence, clean, ablated, wrong_idx):
    report = classify_error(clean, ablated)
    assert report.kind == "attraction"
    gold_atom, bad_atom = report.detail.split(" became ")
    assert gold_atom.startswith("agent")
    assert bad_atom.endswith(f", {wrong_idx} )")


def test_classify_exact_and_equivalent():
    lf = GOLDEN["a boy painted the girl"]
    assert classify_error(lf, lf).kind == "exact"
    renamed = lf.replace("( 1 )", "( 9 )").replace(", 1 )", ", 9 )")
    assert classify_error(lf, renamed).kind == "equivalent"


def test_classify_other():
    lf = GOLDEN["a boy painted the girl"]
    dropped = lf.replace(" AND theme ( 2 , 4 )", "")
    assert classify_error(lf, dropped).kind == "other"
    assert classify_error(lf, "gibberish ( (").kind == "other"
    # two substitutions are not a single attraction
    two = lf.replace("agent ( 2 , 1 )", "agent ( 2 , 4 )").replace(
        "theme ( 2 , 4 )", "theme ( 2 , 1 )"
    )
    assert classify_error(lf, two).kind == "other"


def test_augment_moves_pp_to_recipient():
    rows = [(AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "in_distribution")]
    out = orc.augment_v_dat_p2(rows)
    assert out == [(AUGMENT_AFTER[0], AUGMENT_AFTER[1], orc.AUGMENTED_CATEGORY)]


def test_augment_skips_ineligible_rows():
    ineligible = [
        # pp already on the recipient
        ("liam gave the monkey in the container a chalk .", "", "x"),
        # prepositional dative, not double-object
        ("liam gave a chalk in the container to the monkey .", "", "x"),
        # no pp at all
        ("liam gave the monkey a chalk .", "", "x"),
        # two pps: one on each object
        ("liam gave the monkey on the bed a chalk in the container .", "", "x"),
        # out of grammar entirely
        ("shark .", "", "x"),
        # the recipient is a name, and the grammar has no pp on a name
        ("the counter gave wyatt a cage beside a tool .", "", "x"),
        ("joshua offered liam the throne beside ava .", "", "x"),
    ]
    assert orc.augment_v_dat_p2(ineligible) == []


def test_augment_raises_when_its_sentence_does_not_reparse(monkeypatch):
    """A checked error, not an assert, which ``python -O`` would strip."""
    monkeypatch.setattr(orc, "lf_oracle", lambda *args: None)
    with pytest.raises(ValueError, match="failed to reparse: liam gave the monkey in"):
        orc.augment_v_dat_p2([(AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "x")])


def test_augment_output_reparses_to_own_lf():
    rows = [(AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "in_distribution")]
    ((sentence, lf, _category),) = orc.augment_v_dat_p2(rows)
    assert orc.lf_oracle(sentence) == lf


def test_the_reference_imports_nothing_of_the_flat_program():
    """The oracle is the ground truth the flat decoder is checked against, so
    it must not share the decoder's code."""
    source = Path(orc.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    flat = {"encoder", "decoder", "seq"}
    assert not {part for name in imported for part in name.split(".")} & flat, sorted(imported)
    assert {"grammar", "logical_form"} <= imported  # the walk above saw the real imports
