import inspect
import itertools
import random
from typing import NamedTuple, Optional

import numpy as np
import pytest

from flatsem import encoder as enc
from flatsem import grammar as gr
from flatsem import lexicon as lx
from flatsem import oracle as orc
from flatsem.decoder import decode, decode_all
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence
from flatsem.seq import SequenceTooLongError


def test_mask_golden_vectors(lexicon):
    a = enc.analyze("the cake on the plate burned .", lexicon)
    #                 the cake on the plate burned .
    assert a.n_eff == 6
    assert a.noun_mask == [0, 1, 0, 0, 1, 0, 0]
    assert a.np_head == [0, 1, 0, 0, 1, 0, 0]
    assert a.np_start == [1, 0, 0, 1, 0, 0, 0]
    assert a.no_pp_np == [1, 1, 1, 1, 0, 1, 1]  # "plate" sits inside the pp
    assert a.noun_positions == [1, 4]


def test_proper_noun_directly_after_preposition(lexicon):
    a = enc.analyze("a boy beside emma smiled .", lexicon)
    assert a.no_pp_np == [1, 1, 1, 0, 1, 1]
    assert a.pps == [(2, 1, 3)]


def test_pp_attachment_with_determiner(lexicon):
    a = enc.analyze("a boy beside the tree painted the cake", lexicon)
    assert a.pps == [(2, 1, 4)]


def test_clause_spans_exclude_that_and_period(lexicon):
    a = enc.analyze("emma liked that the cake was eaten .", lexicon)
    assert [(c.start, c.end) for c in a.clauses] == [(0, 2), (3, 7)]
    b = enc.analyze("emma noticed that emma noticed that a cake rolled .", lexicon)
    assert [(c.start, c.end) for c in b.clauses] == [(0, 2), (3, 5), (6, 9)]


def test_single_clause_span(lexicon):
    a = enc.analyze("a boy painted the girl", lexicon)
    (clause,) = a.clauses
    assert (clause.start, clause.end) == (0, 5)
    assert clause.verb_pos == 2


TEMPLATE_SENTENCES = [
    ("the baby smiled .", "v_unerg"),
    ("the captain ate .", "v_trans_omissible_p1"),
    ("a boy painted the girl", "v_trans_omissible_p2"),
    ("a boy respected the girl", "v_trans_not_omissible"),
    ("the boy grew the flower", "v_unacc_p1"),
    ("a cake rolled", "v_unacc_p2"),
    ("emma liked that the cake was eaten .", "v_cp_taking"),
    ("the scientist wanted to read", "v_inf_taking"),
    ("a horse gave the cake to the mouse .", "v_dat_p1"),
    ("eleanor sold evelyn the cake", "v_dat_p2"),
    ("the girl was painted", "v_trans_omissible_pp_p1"),
    ("the girl was painted by a boy", "v_trans_omissible_pp_p2"),
    ("the girl was respected", "v_trans_not_omissible_pp_p1"),
    ("the girl was respected by a boy", "v_trans_not_omissible_pp_p2"),
    ("the flower was grown", "v_unacc_pp_p1"),
    ("the flower was grown by a boy", "v_unacc_pp_p2"),
    ("the cookie was passed to emma .", "v_dat_pp_p1"),
    ("a cake was forwarded to levi by charlotte", "v_dat_pp_p2"),
    ("emma was given a strawberry .", "v_dat_pp_p3"),
    ("the customer was sold a car by ella", "v_dat_pp_p4"),
]


@pytest.mark.parametrize("sentence,template", TEMPLATE_SENTENCES)
def test_template_assignment(sentence, template, lexicon):
    a = enc.analyze(sentence, lexicon)
    assert a.clauses[0].template == template


def test_all_twenty_templates_covered():
    assert len({t for _, t in TEMPLATE_SENTENCES}) == 20


def test_infinitive_records_second_verb(lexicon):
    a = enc.analyze("the scientist wanted to read", lexicon)
    (clause,) = a.clauses
    assert clause.verb_pos == 2
    assert clause.second_verb_pos == 4


def test_templates_agree_with_tree_oracle(lexicon):
    # flat discriminators must pick, clause by clause, the frame the parse
    # tree proves; "v_inf" is no clause of its own.  Fuzzed sentences seldom
    # embed a clause, so half the corpus is drawn with one at least.
    frames = set(_frame_leaves()) - {"v_inf"}

    def embeds(tree):
        return next(tree.find_all("<vp_external5>"), None) is not None

    embedded, deepest = set(), 0
    for mode in ("uniform", "coverage"):
        corpus = [pair for require in (None, embeds) for pair in fuzz_generate(
            150, lexicon, seed=5, pp_depth=3, cp_depth=3, mode=mode, require=require)]
        for (tokens, tree), a in zip(corpus, enc.analyze_all([t for t, _ in corpus], lexicon)):
            leaves = sorted((node.pos, node.symbol.strip("<>")) for node in tree.walk()
                            if node.is_leaf and node.symbol.strip("<>") in frames)
            assert [c.template for c in a.clauses] == [name for _, name in leaves], tokens
            assert a.clauses[0].template == orc.matrix_template(tree), tokens
            embedded.update(c.template for c in a.clauses[1:])
            deepest = max(deepest, len(a.clauses))
    assert embedded == frames
    assert deepest >= 3


def test_embedded_clause_templates_also_match(lexicon):
    a = enc.analyze("emma noticed that the girl was painted by a boy .", lexicon)
    assert [c.template for c in a.clauses] == ["v_cp_taking", "v_trans_omissible_pp_p2"]
    tree = gr.parse_sentence("emma noticed that the girl was painted by a boy .", lexicon)
    inner = next(tree.find_all("<vp_external5>")).children[2]
    assert orc.matrix_template(inner) == "v_trans_omissible_pp_p2"


def test_analyze_accepts_string_or_tokens(lexicon):
    by_str = enc.analyze("A boy PAINTED the girl", lexicon)
    by_tok = enc.analyze(["a", "boy", "painted", "the", "girl"], lexicon)
    assert by_str.tokens == by_tok.tokens
    assert by_str.clauses[0].template == by_tok.clauses[0].template


def test_analyze_all_rejects_a_lone_string(lexicon):
    # a string is iterable, so it would otherwise be read one character a row
    with pytest.raises(TypeError, match="list of sentences"):
        enc.analyze_all("emma smiled .", lexicon)
    with pytest.raises(TypeError, match="list of sentences"):
        decode_all("emma smiled .", lexicon)
    assert [a.tokens for a in enc.analyze_all(["emma smiled ."], lexicon)] == [
        ["emma", "smiled", "."]]


def test_length_cap(lexicon):
    with pytest.raises(SequenceTooLongError):
        enc.analyze(["the"] * 513, lexicon)


def _frame_leaves():
    """The grammar's verb-frame leaves, without brackets, with their codes."""
    return {leaf.strip("<>"): code for leaf, code in gr.LEAF_CODE.items()
            if leaf.startswith("<v_")}


def test_frame_table_names_the_grammar_verb_frames():
    assert set(enc.FRAMES) == set(_frame_leaves())
    assert len(enc.FRAMES) == 21


BINDER_SLOTS = {"SUBJ", "OBJ1", "OBJ2", "V2", "NEXT_V"}  # what build_plan binds per clause


def test_frame_rows_have_a_licence_and_name_binder_slots():
    # a row holds only its relations; its licence is its leaf's code in
    # LEAF_CODE, a verb code whose lexicon slot gives the frame's voice, and
    # that licence's one decision in DECISIONS picks among its frames
    assert set(enc.DECISIONS) == set(lx.SLOT)
    leaves = _frame_leaves()
    for name, relations in enc.FRAMES.items():
        assert name in leaves and leaves[name] in lx.SLOT, name
        assert (lx.SLOT[leaves[name]] == 2) == ("_pp" in name), name
        assert {slot for _, slot in relations} <= BINDER_SLOTS, name
    assert {slot for relations in enc.FRAMES.values() for _, slot in relations} == BINDER_SLOTS


@pytest.mark.parametrize("sentence,slots", [
    ("emma gave .", (lx.V_DAT, 0, 0, 0)),  # neither a to-NP nor two noun phrases
    ("the cake was given .", (0, lx.V_DAT_PP, 0, 0)),  # neither "to" nor a noun phrase at +1
    ("emma was smiled .", (lx.V_UNERG, 0, 0, 0)),  # no passive participle after "was"
    ("emma wanted .", (0, 0, 0, lx.V_INF_TAKING)),  # no "to" and infinitive
    ("emma believed .", (0, 0, lx.V_CP_TAKING, 0)),  # no "that"
])
def test_a_licence_decision_can_pick_no_frame(sentence, slots, lexicon):
    """Clauses outside the grammar whose verb's one licence decides None, or
    that have no passive participle to decide after "was"."""
    a = enc.analyze(sentence, lexicon)
    (clause,) = a.clauses
    v = clause.verb_pos
    assert (a.emb.vmap1[v], a.emb.vmap2[v], a.emb.vmap3[v], a.emb.vmap4[v]) == slots
    assert clause.template is None and orc.lf_oracle(sentence, lexicon) is None


def test_infinitive_frame_never_matches_a_clause(lexicon):
    # "v_inf" is the relation list of the infinitive under "v_inf_taking"
    assert [c.template for c in enc.analyze("emma wanted to call", lexicon).clauses] == [
        "v_inf_taking"]
    (clause,) = enc.analyze("emma call", lexicon).clauses  # "call" is only an infinitive
    assert clause.verb_pos == 1 and clause.template is None


def test_analyze_shifts_each_sequence_once(lexicon, monkeypatch):
    calls = []
    for name in ("shift_left", "shift_right"):
        real = getattr(enc.seq, name)
        monkeypatch.setattr(enc.seq, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    enc.analyze("a boy beside the tree painted the cake .", lexicon)
    assert sorted(calls) == ["shift_left", "shift_right", "shift_right"]


def test_the_encoder_builds_no_dense_selector(lexicon, monkeypatch):
    """The encoder builds no selector at all: on the longest sentence, and
    on a 600-row bucket analysed as one batch."""
    made = []
    real_select = enc.seq.select

    def recording_select(*args, **kwargs):
        made.append(real_select(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(enc.seq, "select", recording_select)
    enc.analyze(cp_chain_sentence(169), lexicon)
    sentence = "a boy beside the tree painted the cake .".split()
    assert len(enc.analyze_all([sentence] * 600, lexicon)) == 600
    assert made == []


def test_the_encoder_sends_seq_one_kind_per_sequence(lexicon, monkeypatch):
    """``seq`` holds one kind of value per sequence.  Every sequence argument
    of a primitive call, the calls inside ``seq`` included, is an int64 array
    of codes: on fuzzed corpora of both modes and the longest chains through
    ``analyze_all``, and on one row through ``analyze``."""
    sent = []
    for name in ("select", "aggregate", "elementwise", "shift_right", "shift_left",
                 "running_count"):
        real = getattr(enc.seq, name)

        def spy(*args, _real=real, _signature=inspect.signature(real), **kwargs):
            for param, arg in _signature.bind(*args, **kwargs).arguments.items():
                if param == "seqs":
                    sent.extend(arg)
                elif param in ("keys", "queries", "values", "mask"):
                    sent.append(arg)
            return _real(*args, **kwargs)

        monkeypatch.setattr(enc.seq, name, spy)
    corpus = [tokens for mode in ("uniform", "coverage")
              for tokens, _tree in fuzz_generate(200, lexicon, seed=5, mode=mode)]
    corpus += [pp_chain_sentence(168), cp_chain_sentence(169)]
    assert all(isinstance(a, enc.InputAnalysis) for a in enc.analyze_all(corpus, lexicon))
    enc.analyze("a boy beside the tree painted the cake .", lexicon)
    assert sent and all(isinstance(arg, np.ndarray) and arg.dtype == np.int64 for arg in sent)


def test_rows_are_the_only_reading_of_a_word(lexicon):
    """Rows and code sets are one-to-one, and a sentence whose words are each
    swapped for a word of the same row analyses the same, every field but the
    tokens: a row stands for all of its words, "the" and "a" too.  The words
    themselves are read only at output."""
    code_sets = {}
    for word, entry in lexicon.entries.items():
        code_sets.setdefault(lexicon._rows[word], set()).add(frozenset(entry.codes))
    assert len(code_sets) == 29
    assert all(len(sets) == 1 for sets in code_sets.values())
    assert len({frozenset(entry.codes) for entry in lexicon.entries.values()}) == 29
    # the words the encoder cannot tell apart: one class per row
    classes = {}
    for word in [*lexicon.entries, "."]:
        classes.setdefault(lexicon._rows[word], []).append(word)
    assert len(classes) == 30

    def structure(a):
        return dict(vars(a), tokens=None, emb=dict(vars(a.emb), tokens=None))

    rng = random.Random(11)
    swapped = 0
    for tokens, _tree in fuzz_generate(300, lexicon, seed=11, pp_depth=3, cp_depth=3):
        other = [rng.choice(classes[lexicon._rows[t]]) for t in tokens]
        swapped += other != tokens
        assert structure(enc.analyze(other, lexicon)) == structure(enc.analyze(tokens, lexicon))
    assert swapped == 300
    # the decoder reads "the" by identity: "a" in its place drops the star
    assert decode("the cake burned .", lexicon) == "* cake ( 1 ) ; burn ( 2 ) AND theme ( 2 , 1 )"
    assert decode("a cake burned .", lexicon) == "cake ( 1 ) ; burn ( 2 ) AND theme ( 2 , 1 )"


def test_v2_binds_only_an_infinitive_inside_the_clause(lexicon, monkeypatch):
    """``V2`` is bound from the clause, not left to the licence decision:
    with the "v_inf_taking" decision picking its frame everywhere, a clause
    with no infinitive two after the verb still decodes, and its form has no
    xcomp."""
    monkeypatch.setitem(enc.DECISIONS, lx.V_INF_TAKING, lambda s: 0)
    for sentence in ("emma wanted .", "emma wanted the cake ."):
        (clause,) = enc.analyze(sentence, lexicon).clauses
        assert (clause.template, clause.second_verb_pos) == ("v_inf_taking", None), sentence
        for ablate in (False, True):
            form = decode(sentence, lexicon, ablate=ablate)
            assert "xcomp" not in form and "agent ( 1 , 0 )" in form, sentence
            assert decode_all([sentence], lexicon, ablate=ablate) == [form]
    assert enc.analyze("emma wanted to call .", lexicon).clauses[0].second_verb_pos == 3


# Each mask table stated again in plain Python, one code per argument.
PLAIN_MASKS = {
    "NOUN": lambda p: p == lx.COMMON_NOUN or p == lx.PROPER_NOUN,
    "NP_HEAD": lambda p, pr: (p == lx.COMMON_NOUN and pr == lx.DET) or p == lx.PROPER_NOUN,
    "NP_START": lambda p, nx: (p == lx.DET and nx == lx.COMMON_NOUN) or p == lx.PROPER_NOUN,
    "NO_PP_NP": lambda p, p1, p2: not ((p == lx.PROPER_NOUN and p1 == lx.PP)
                                       or (p == lx.COMMON_NOUN and p2 == lx.PP)),
    "CLAUSE_BOUNDARY": lambda v3, nx: v3 == lx.V_CP_TAKING and nx == lx.THAT,
}


@pytest.mark.parametrize("name", sorted(PLAIN_MASKS))
def test_mask_tables_are_exact_over_their_domain(name, lexicon):
    """Every cell of the table is its plain rule, and every code an
    embedding can hold -- any lexicon's rows, and the filler the shifts bring
    in at the edges -- lies in the table's domain, so no gather reads off
    it or wraps round."""
    table, plain = getattr(enc, name), PLAIN_MASKS[name]
    arity = len(inspect.signature(plain).parameters)
    assert table.size == lx.N_CODES
    assert table.values.shape == (lx.N_CODES,) * arity and table.values.dtype == bool
    cells = list(itertools.product(range(lx.N_CODES), repeat=arity))
    assert len(cells) == lx.N_CODES ** arity
    assert [bool(table.values[codes]) for codes in cells] == [plain(*codes) for codes in cells]
    domain = set(range(table.size))
    assert {lx.FILLER, *lx.CATEGORY_CODES.values()} <= domain  # what a lexicon row can hold
    assert {code for row in lexicon._rows.values() for code in row} <= domain


def test_the_mask_tables_hold_about_ten_kilobytes():
    tables = [getattr(enc, name) for name in PLAIN_MASKS]
    assert sum(table.values.nbytes for table in tables) == 21 + 3 * 21 ** 2 + 21 ** 3


# The calls into seq that one analysis makes: one 9-token sentence, and a
# 600-row bucket of it, which runs through each primitive once as a batch.
CALL_BUDGET = {
    "indices": 0,
    "select": 0,  # each shift is read as its slice, with no selector built
    "aggregate": 0,
    "combine": 0,
    "selector_width": 0,
    "elementwise": 5,  # the five mask tables
    "shift_right": 2,
    "shift_left": 1,
    "running_count": 0,
}


def test_one_analysis_makes_a_fixed_number_of_primitive_calls(lexicon, monkeypatch):
    calls = dict.fromkeys(CALL_BUDGET, 0)
    maps = []  # the function of each elementwise call
    for name in CALL_BUDGET:
        real = getattr(enc.seq, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "elementwise":
                maps.append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(enc.seq, name, counting)
    sentence = "a boy beside the tree painted the cake .".split()
    enc.analyze(sentence, lexicon)
    assert calls == CALL_BUDGET
    calls.update(dict.fromkeys(calls, 0))
    assert len(enc.analyze_all([sentence] * 600, lexicon)) == 600
    assert calls == CALL_BUDGET
    assert len(maps) == 2 * CALL_BUDGET["elementwise"]
    assert all(isinstance(table, enc.seq.Table) for table in maps)


# The first-fit frame table that DECISIONS replaced, kept as the reference:
# a clause took the first row whose licence its verb carries, whose voice
# fits and whose test passes.  The site and the 21 tests are verbatim.
class _FirstFitSite(NamedTuple):
    emb: lx.Embedded
    np_start: list[int]
    np_head: list[int]
    verb: int
    end: int  # clause end, exclusive

    def at(self, offset: int, code: int) -> bool:
        return self.verb + offset < self.end and self.emb.pos[self.verb + offset] == code

    def infinitive(self) -> Optional[int]:
        j = self.verb + 2
        return j if j < self.end and self.emb.vmap1[j] == lx.V_INF else None

    def np_after(self, code: int) -> bool:
        return any(self.emb.pos[j] == code and j + 1 < self.end and self.np_start[j + 1]
                   for j in range(self.verb + 1, self.end))


FIRST_FIT = (
    ("v_cp_taking",  # "that" lies just past the clause
     lambda s: s.verb + 1 < len(s.emb) and s.emb.pos[s.verb + 1] == lx.THAT),
    ("v_inf_taking",
     lambda s: s.at(1, lx.TO) and s.infinitive() is not None),
    ("v_inf", lambda s: False),
    ("v_unerg", lambda s: True),
    ("v_trans_omissible_p1", lambda s: s.verb + 1 == s.end),
    ("v_trans_omissible_p2", lambda s: s.verb + 1 < s.end),
    ("v_trans_not_omissible", lambda s: True),
    ("v_unacc_p1", lambda s: s.verb + 1 < s.end),  # causative
    ("v_unacc_p2", lambda s: s.verb + 1 == s.end),  # inchoative
    ("v_dat_p1", lambda s: s.np_after(lx.TO)),
    ("v_dat_p2",  # two noun phrases back to back after the verb
     lambda s: any(s.np_head[j] and s.np_start[j + 1] for j in range(s.verb + 1, s.end - 1))),
    ("v_trans_omissible_pp_p1", lambda s: not s.at(1, lx.BY)),
    ("v_trans_omissible_pp_p2", lambda s: s.at(1, lx.BY)),
    ("v_trans_not_omissible_pp_p1", lambda s: not s.at(1, lx.BY)),
    ("v_trans_not_omissible_pp_p2", lambda s: s.at(1, lx.BY)),
    ("v_unacc_pp_p1", lambda s: not s.at(1, lx.BY)),
    ("v_unacc_pp_p2", lambda s: s.at(1, lx.BY)),
    ("v_dat_pp_p1", lambda s: s.at(1, lx.TO) and not s.np_after(lx.BY)),
    ("v_dat_pp_p2", lambda s: s.at(1, lx.TO) and s.np_after(lx.BY)),
    ("v_dat_pp_p3",
     lambda s: s.verb + 1 < s.end and s.np_start[s.verb + 1] and not s.np_after(lx.BY)),
    ("v_dat_pp_p4",
     lambda s: s.verb + 1 < s.end and s.np_start[s.verb + 1] and s.np_after(lx.BY)),
)


def _first_fit(emb, span, np_start, np_head):
    start, end = span
    for V in range(start, end):
        if emb.pos[V] in lx.SLOT:
            break
    else:
        return enc.ClauseInfo(start, end, -1, None)
    slots = (emb.vmap1[V], emb.vmap2[V], emb.vmap3[V], emb.vmap4[V])
    was = V > start and emb.pos[V - 1] == lx.WAS
    site = _FirstFitSite(emb, np_start, np_head, V, end)
    for name, test in FIRST_FIT:
        code = gr.LEAF_CODE[f"<{name}>"]
        if (lx.SLOT[code] == 2) == was and code in slots and test(site):
            second = site.infinitive() if ("xcomp", "V2") in enc.FRAMES[name] else None
            return enc.ClauseInfo(start, end, V, name, second)
    return enc.ClauseInfo(start, end, V, None)


def _reference_inputs(lexicon):
    """Every sequence of up to 3 row classes ("the" apart, "." one more);
    fuzzed sentences of both modes, with and without their period, and
    one-token mutants of them; pp and cp chains, the longest of 510 and 511
    tokens."""
    words = {}
    for word in sorted(lexicon.entries):
        words.setdefault("the" if word == "the" else lexicon._rows[word], word)
    classes = [*words.values(), "."]
    for n in (1, 2, 3):
        yield from map(list, itertools.product(classes, repeat=n))
    rng = random.Random("first fit")
    vocabulary = [*sorted(lexicon.entries), "."]
    for mode in ("uniform", "coverage"):
        for tokens, _tree in fuzz_generate(300, lexicon, seed=23, pp_depth=4, cp_depth=4,
                                           mode=mode):
            yield tokens
            yield tokens[:-1]
            for _ in range(4):
                mutant, k = list(tokens), rng.randrange(len(tokens))
                op = rng.choice(["delete", "swap", "insert", "replace"])
                if op == "delete":
                    del mutant[k]
                elif op == "swap":
                    j = rng.randrange(len(mutant))
                    mutant[k], mutant[j] = mutant[j], mutant[k]
                else:
                    mutant[k:k + (op == "replace")] = [rng.choice(vocabulary)]
                yield mutant
    yield from (pp_chain_sentence(depth) for depth in range(0, 169, 7))
    yield from (cp_chain_sentence(depth) for depth in (*range(0, 170, 7), 169))


def test_decisions_pick_the_frames_of_the_first_fit_table(lexicon):
    """Each clause's ``ClauseInfo`` equals the one the first-fit table gives,
    in and out of the grammar."""
    inputs = list(_reference_inputs(lexicon))
    count = clauses = templates = 0
    for tokens, a in zip(inputs, enc.analyze_all(inputs, lexicon)):
        if isinstance(a, enc.Failure):
            continue
        count += 1
        assert a.clauses == [_first_fit(a.emb, (c.start, c.end), a.np_start, a.np_head)
                             for c in a.clauses], tokens
        clauses += len(a.clauses)
        templates += sum(c.template is not None for c in a.clauses)
    assert count == 31 + 31 ** 2 + 31 ** 3 + 2 * 300 * 6 + 25 + 26
    assert templates > 0 and clauses > templates
