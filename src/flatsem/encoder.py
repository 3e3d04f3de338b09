"""Flat input analysis: everything the decoder needs, no trees involved.

All per-position evidence is computed with the sequence primitives --
selectors, aggregations, widths -- over the five code sequences.  The
structural summary (clause spans, one template per clause, pp attachments) is
then read off those flat vectors.

The load-bearing vector is ``no_pp_np_mask``: it knocks out any noun that is
the object of a preposition (proper noun one position after the "pp" word,
common noun two positions after, behind its determiner).  Role binding only
considers nouns that survive this mask, which is what keeps "a boy beside the
tree painted ..." from binding the agent to "tree".  The ablation switch
exists precisely to turn that mask off and watch the attraction error appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import lexicon as lx
from . import seq


@dataclass
class ClauseInfo:
    start: int  # token span, end exclusive; "that" and the final "." excluded
    end: int
    verb_pos: int
    template: Optional[str]
    second_verb_pos: Optional[int] = None  # infinitive position for v_inf_taking


@dataclass
class InputAnalysis:
    tokens: list[str]
    emb: lx.Embedded
    n_eff: int  # length without the trailing period
    noun_mask: list[int]
    np_head: list[int]
    np_start: list[int]
    no_pp_np: list[int]
    eligible: list[int]  # noun_mask * no_pp_np
    ordinals: list[int]  # 1-based rank among eligible nouns, 0 elsewhere
    star: list[int]  # noun preceded by "the"
    pps: list[tuple[int, int, int]]  # (prep_pos, head_pos, obj_pos)
    clauses: list[ClauseInfo] = field(default_factory=list)

    @property
    def noun_positions(self) -> list[int]:
        return [i for i in range(self.n_eff) if self.noun_mask[i]]


def noun_mask(emb: lx.Embedded) -> list[int]:
    return seq.elementwise(lambda p: int(p in (lx.COMMON_NOUN, lx.PROPER_NOUN)), emb.pos)


def np_head_mask(emb: lx.Embedded) -> list[int]:
    """Last token of a noun phrase core: determined common noun, or name."""
    prev = seq.shift_right(emb.pos)
    return seq.elementwise(
        lambda p, pr: int((p == lx.COMMON_NOUN and pr == lx.DET) or p == lx.PROPER_NOUN),
        emb.pos, prev)


def np_start_mask(emb: lx.Embedded) -> list[int]:
    """First token of a noun phrase: determiner before a common noun, or name."""
    nxt = seq.shift_left(emb.pos)
    return seq.elementwise(
        lambda p, nx: int((p == lx.DET and nx == lx.COMMON_NOUN) or p == lx.PROPER_NOUN),
        emb.pos, nxt)


def no_pp_np_mask(emb: lx.Embedded) -> list[int]:
    """0 at nouns sitting inside a prepositional phrase, 1 everywhere else."""
    prev = seq.shift_right(emb.pos)
    prev2 = seq.shift_right(prev)
    return seq.elementwise(
        lambda p, p1, p2: 0 if ((p == lx.PROPER_NOUN and p1 == lx.PP)
                                or (p == lx.COMMON_NOUN and p2 == lx.PP)) else 1,
        emb.pos, prev, prev2)


def star_mask(emb: lx.Embedded) -> list[int]:
    prev_word = seq.shift_right(emb.tokens, default="")
    return seq.elementwise(
        lambda p, w: int(p in (lx.COMMON_NOUN, lx.PROPER_NOUN) and w == "the"),
        emb.pos, prev_word)


def pp_attachments(emb: lx.Embedded) -> list[tuple[int, int, int]]:
    """(prep_pos, modified_head_pos, object_head_pos) per preposition.

    The modified noun always immediately precedes its preposition; the object
    head is the name right after it, or the noun behind the determiner.
    """
    out = []
    n = len(emb)
    for i in range(n):
        if emb.pos[i] != lx.PP:
            continue
        head = i - 1
        obj = i + 1 if i + 1 < n and emb.pos[i + 1] == lx.PROPER_NOUN else i + 2
        out.append((i, head, obj))
    return out


def clause_spans(emb: lx.Embedded, n_eff: int) -> list[tuple[int, int]]:
    """Token spans of the clauses, splitting after each "<cp-verb> that".

    The complementizer belongs to neither span; the matrix clause ends at its
    verb.  A sentence without clause embedding is one span.
    """
    nxt = seq.shift_left(emb.pos)
    boundary = seq.elementwise(
        lambda v3, nx: int(v3 == lx.V_CP_TAKING and nx == lx.THAT), emb.vmap3, nxt)
    spans = []
    start = 0
    for i in range(n_eff):
        if boundary[i]:
            spans.append((start, i + 1))
            start = i + 2
    spans.append((start, n_eff))
    return spans


def main_verb(emb: lx.Embedded, span: tuple[int, int]) -> Optional[int]:
    for i in range(*span):
        if emb.vmap1[i] or emb.vmap2[i] or emb.vmap3[i] or emb.vmap4[i]:
            return i
    return None


def match_template(emb: lx.Embedded, span: tuple[int, int],
                   np_start: list[int], np_head: list[int]) -> Optional[ClauseInfo]:
    """Pick the clause's verb frame from flat surface evidence.

    Discriminators are exact, so at most one frame fits an in-grammar clause:
    the participle code decides the passive family, "to"/"by"/adjacent-np
    patterns decide the positional variant, clause-final position separates
    the object-dropping forms.
    """
    start, end = span
    V = main_verb(emb, span)
    if V is None:
        return ClauseInfo(start, end, -1, None)
    n = len(emb)
    pos = emb.pos
    final = V == end - 1

    def to_np_after() -> bool:
        return any(pos[j] == lx.TO and j + 1 < end and np_start[j + 1]
                   for j in range(V + 1, end))

    def by_np_after() -> bool:
        return any(pos[j] == lx.BY and j + 1 < end and np_start[j + 1]
                   for j in range(V + 1, end))

    def np_np_pair_after() -> bool:
        return any(np_head[j] and np_start[j + 1] for j in range(V + 1, end - 1))

    was_before = V > start and pos[V - 1] == lx.WAS
    template = None
    second = None
    if not was_before:
        if emb.vmap3[V] == lx.V_CP_TAKING and V + 1 < n and pos[V + 1] == lx.THAT:
            template = "v_cp_taking"
        elif (emb.vmap4[V] == lx.V_INF_TAKING and V + 2 < end
              and pos[V + 1] == lx.TO and emb.vmap1[V + 2] == lx.V_INF):
            template = "v_inf_taking"
            second = V + 2
        elif emb.vmap1[V] == lx.V_UNERG:
            template = "v_unerg"
        elif emb.vmap1[V] == lx.V_TRANS_OMISSIBLE:
            template = "v_trans_omissible_p1" if final else "v_trans_omissible_p2"
        elif emb.vmap1[V] == lx.V_TRANS_NOT_OMISSIBLE:
            template = "v_trans_not_omissible"
        elif emb.vmap1[V] == lx.V_UNACC:
            # object after the verb = causative; clause-final = inchoative
            template = "v_unacc_p2" if final else "v_unacc_p1"
        elif emb.vmap1[V] == lx.V_DAT:
            if to_np_after():
                template = "v_dat_p1"
            elif np_np_pair_after():
                template = "v_dat_p2"
    else:
        by_next = V + 1 < end and pos[V + 1] == lx.BY
        if emb.vmap2[V] == lx.V_TRANS_OMISSIBLE_PP:
            template = "v_trans_omissible_pp_p2" if by_next else "v_trans_omissible_pp_p1"
        elif emb.vmap2[V] == lx.V_TRANS_NOT_OMISSIBLE_PP:
            template = "v_trans_not_omissible_pp_p2" if by_next else "v_trans_not_omissible_pp_p1"
        elif emb.vmap2[V] == lx.V_UNACC_PP:
            template = "v_unacc_pp_p2" if by_next else "v_unacc_pp_p1"
        elif emb.vmap2[V] == lx.V_DAT_PP:
            if V + 1 < end and pos[V + 1] == lx.TO:
                template = "v_dat_pp_p2" if by_np_after() else "v_dat_pp_p1"
            elif V + 1 < end and np_start[V + 1]:
                template = "v_dat_pp_p4" if by_np_after() else "v_dat_pp_p3"
    return ClauseInfo(start, end, V, template, second)


def analyze(tokens: list[str] | str, lexicon: lx.Lexicon | None = None) -> InputAnalysis:
    """Full flat analysis of one sentence."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    if lexicon is None:
        lexicon = lx.default_lexicon()
    tokens = [t.lower() for t in tokens]
    seq.check_length(len(tokens))
    emb = lexicon.embed(tokens)
    n_eff = len(tokens)
    while n_eff and emb.pos[n_eff - 1] == lx.FILLER:
        n_eff -= 1

    nm = noun_mask(emb)
    heads = np_head_mask(emb)
    starts = np_start_mask(emb)
    nopp = no_pp_np_mask(emb)
    eligible = seq.elementwise(lambda a, b: a * b, nm, nopp)
    ordinals = seq.elementwise(lambda c, e: c * e, seq.running_count(eligible), eligible)

    analysis = InputAnalysis(
        tokens=tokens, emb=emb, n_eff=n_eff,
        noun_mask=nm, np_head=heads, np_start=starts,
        no_pp_np=nopp, eligible=eligible, ordinals=ordinals,
        star=star_mask(emb), pps=pp_attachments(emb),
    )
    for span in clause_spans(emb, n_eff):
        if span[0] >= span[1]:
            continue
        analysis.clauses.append(match_template(emb, span, starts, heads))
    return analysis
