"""Flat input analysis: everything the decoder needs, no trees involved.

All per-position evidence is computed with the sequence primitives --
selectors, aggregations, widths -- over the five code sequences and their
shifted copies, each shift made once per batch.  ``analyze_all`` groups its
sentences by length and runs each group through the primitives at once, as
a (sentences, positions) batch; ``analyze`` is its one-sentence case.
Between primitives the sequences are numpy arrays; each field of
``InputAnalysis`` becomes a plain list once, at the end.  The structural
summary of each sentence (clause spans, one verb frame per clause, pp
attachments) is then read off its row of those flat vectors.  ``FRAMES`` is
the one table of verb frames; a row holds only its name, the test that picks
it and its relations, and ``get_agent_side`` reads off it which side of the
verb a frame's agent binds.  What licenses a frame is its leaf's lexicon code
in ``grammar.LEAF_CODE``, the inverse of the table the parser reads, and its
voice is that code's slot in ``lexicon.SLOT``: slot 2, the passive
participle, wants "was" right before the verb.

The load-bearing vector is ``no_pp_np_mask``: it knocks out any noun that is
the object of a preposition (proper noun one position after the "pp" word,
common noun two positions after, behind its determiner).  Role binding only
considers nouns that survive this mask, which is what keeps "a boy beside the
tree painted ..." from binding the agent to "tree".  The ablation switch
exists precisely to turn that mask off and watch the attraction error appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import lexicon as lx
from . import seq
from .grammar import LEAF_CODE


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


def noun_mask(pos: np.ndarray) -> np.ndarray:
    return seq.elementwise(lambda p: (p == lx.COMMON_NOUN) | (p == lx.PROPER_NOUN), pos)


def np_head_mask(pos: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Last token of a noun phrase core: determined common noun, or name."""
    return seq.elementwise(
        lambda p, pr: ((p == lx.COMMON_NOUN) & (pr == lx.DET)) | (p == lx.PROPER_NOUN),
        pos, prev)


def np_start_mask(pos: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """First token of a noun phrase: determiner before a common noun, or name."""
    return seq.elementwise(
        lambda p, nx: ((p == lx.DET) & (nx == lx.COMMON_NOUN)) | (p == lx.PROPER_NOUN),
        pos, nxt)


def no_pp_np_mask(pos: np.ndarray, prev: np.ndarray, prev2: np.ndarray) -> np.ndarray:
    """False at nouns sitting inside a prepositional phrase, True everywhere else."""
    return seq.elementwise(
        lambda p, p1, p2: ~(((p == lx.PROPER_NOUN) & (p1 == lx.PP))
                            | ((p == lx.COMMON_NOUN) & (p2 == lx.PP))),
        pos, prev, prev2)


def star_mask(pos: np.ndarray, prev_word: np.ndarray) -> np.ndarray:
    return seq.elementwise(
        lambda p, w: ((p == lx.COMMON_NOUN) | (p == lx.PROPER_NOUN)) & (w == "the"),
        pos, prev_word)


def pp_attachments(pos: np.ndarray, nxt: np.ndarray,
                   rows: int) -> list[list[tuple[int, int, int]]]:
    """(prep_pos, modified_head_pos, object_head_pos) per preposition, for
    each of ``rows`` sentences (a lone one 1-D).

    The modified noun always immediately precedes its preposition; the object
    head is the name right after it, or the noun behind the determiner.
    """
    n = pos.shape[-1]
    hits = np.flatnonzero(pos == lx.PP)
    names = nxt.ravel()[hits] == lx.PROPER_NOUN
    pps: list[list[tuple[int, int, int]]] = [[] for _ in range(rows)]
    for hit, name in zip(hits.tolist(), names.tolist()):
        row, i = divmod(hit, n)
        pps[row].append((i, i - 1, i + 1 if name else i + 2))
    return pps


def clause_spans(vmap3: np.ndarray, nxt: np.ndarray,
                 n_eff: list[int]) -> list[list[tuple[int, int]]]:
    """Token spans of the clauses of each sentence (a lone one 1-D), split
    after each "<cp-verb> that".

    The complementizer belongs to neither span; the matrix clause ends at its
    verb.  A sentence without clause embedding is one span.
    """
    boundary = seq.elementwise(
        lambda v3, nx: (v3 == lx.V_CP_TAKING) & (nx == lx.THAT), vmap3, nxt)
    n = boundary.shape[-1]
    spans: list[list[tuple[int, int]]] = [[] for _ in n_eff]
    starts = [0] * len(n_eff)
    for hit in np.flatnonzero(boundary).tolist():
        row, i = divmod(hit, n)
        if i < n_eff[row]:
            spans[row].append((starts[row], i + 1))
            starts[row] = i + 2
    for row_spans, start, end in zip(spans, starts, n_eff):
        row_spans.append((start, end))
    return spans


class _Site(NamedTuple):
    """A clause's verb and the flat vectors the frame tests read."""

    emb: lx.Embedded
    np_start: list[int]
    np_head: list[int]
    verb: int
    end: int  # clause end, exclusive

    def at(self, offset: int, code: int) -> bool:
        """The token ``offset`` after the verb is in the clause and has this code."""
        return self.verb + offset < self.end and self.emb.pos[self.verb + offset] == code

    def np_after(self, code: int) -> bool:
        """Some token after the verb has this code and a noun phrase right behind it."""
        return any(self.emb.pos[j] == code and j + 1 < self.end and self.np_start[j + 1]
                   for j in range(self.verb + 1, self.end))


@dataclass(frozen=True)
class Frame:
    name: str  # the grammar's leaf category, without brackets
    test: Callable[[_Site], bool]  # positional test that picks this variant
    # (role, slot) in emission order; SUBJ binds left of the verb, OBJ1/OBJ2
    # right of it, V2 is the infinitive at +2, NEXT_V the embedded clause's verb
    relations: tuple[tuple[str, str], ...]


# Every verb frame; a clause takes the first row that fits.  "v_inf" only
# holds the relations of the infinitive under "v_inf_taking".
FRAMES: dict[str, Frame] = {frame.name: frame for frame in (
    Frame("v_cp_taking",  # "that" lies just past the clause
          lambda s: s.verb + 1 < len(s.emb) and s.emb.pos[s.verb + 1] == lx.THAT,
          (("agent", "SUBJ"), ("ccomp", "NEXT_V"))),
    Frame("v_inf_taking",
          lambda s: s.at(1, lx.TO) and s.verb + 2 < s.end and s.emb.vmap1[s.verb + 2] == lx.V_INF,
          (("agent", "SUBJ"), ("xcomp", "V2"))),
    Frame("v_inf", lambda s: False, (("agent", "SUBJ"),)),
    Frame("v_unerg", lambda s: True, (("agent", "SUBJ"),)),
    Frame("v_trans_omissible_p1", lambda s: s.verb + 1 == s.end, (("agent", "SUBJ"),)),
    Frame("v_trans_omissible_p2", lambda s: s.verb + 1 < s.end,
          (("agent", "SUBJ"), ("theme", "OBJ1"))),
    Frame("v_trans_not_omissible", lambda s: True, (("agent", "SUBJ"), ("theme", "OBJ1"))),
    Frame("v_unacc_p1", lambda s: s.verb + 1 < s.end,  # causative
          (("agent", "SUBJ"), ("theme", "OBJ1"))),
    Frame("v_unacc_p2", lambda s: s.verb + 1 == s.end, (("theme", "SUBJ"),)),  # inchoative
    Frame("v_dat_p1", lambda s: s.np_after(lx.TO),
          (("agent", "SUBJ"), ("theme", "OBJ1"), ("recipient", "OBJ2"))),
    Frame("v_dat_p2",  # two noun phrases back to back after the verb
          lambda s: any(s.np_head[j] and s.np_start[j + 1] for j in range(s.verb + 1, s.end - 1)),
          (("agent", "SUBJ"), ("recipient", "OBJ1"), ("theme", "OBJ2"))),
    Frame("v_trans_omissible_pp_p1", lambda s: not s.at(1, lx.BY), (("theme", "SUBJ"),)),
    Frame("v_trans_omissible_pp_p2", lambda s: s.at(1, lx.BY),
          (("theme", "SUBJ"), ("agent", "OBJ1"))),
    Frame("v_trans_not_omissible_pp_p1", lambda s: not s.at(1, lx.BY), (("theme", "SUBJ"),)),
    Frame("v_trans_not_omissible_pp_p2", lambda s: s.at(1, lx.BY),
          (("theme", "SUBJ"), ("agent", "OBJ1"))),
    Frame("v_unacc_pp_p1", lambda s: not s.at(1, lx.BY), (("theme", "SUBJ"),)),
    Frame("v_unacc_pp_p2", lambda s: s.at(1, lx.BY), (("theme", "SUBJ"), ("agent", "OBJ1"))),
    Frame("v_dat_pp_p1", lambda s: s.at(1, lx.TO) and not s.np_after(lx.BY),
          (("theme", "SUBJ"), ("recipient", "OBJ1"))),
    Frame("v_dat_pp_p2", lambda s: s.at(1, lx.TO) and s.np_after(lx.BY),
          (("theme", "SUBJ"), ("recipient", "OBJ1"), ("agent", "OBJ2"))),
    Frame("v_dat_pp_p3",
          lambda s: s.verb + 1 < s.end and s.np_start[s.verb + 1] and not s.np_after(lx.BY),
          (("recipient", "SUBJ"), ("theme", "OBJ1"))),
    Frame("v_dat_pp_p4",
          lambda s: s.verb + 1 < s.end and s.np_start[s.verb + 1] and s.np_after(lx.BY),
          (("recipient", "SUBJ"), ("theme", "OBJ1"), ("agent", "OBJ2"))),
)}


def get_agent_side(template: str) -> Optional[str]:
    """'left' when the template's agent binds the subject, 'right' when it
    sits after the verb (a by-phrase or a later object slot); None when the
    frame has no agent at all."""
    frame = FRAMES.get(template)
    slot = dict(frame.relations).get("agent") if frame else None
    return None if slot is None else "left" if slot == "SUBJ" else "right"


def match_template(emb: lx.Embedded, span: tuple[int, int],
                   np_start: list[int], np_head: list[int]) -> ClauseInfo:
    """The clause with its verb, the first token carrying a verb code, and
    its frame: the first row of ``FRAMES`` whose licence the verb carries,
    whose voice fits and whose test passes.  A row whose licence sits in
    slot 2 of ``lexicon.SLOT``, the passive participle's, fits only when "was"
    stands right before the verb, and any other row only when it does not.
    At most one row fits an in-grammar clause."""
    start, end = span
    for V in range(start, end):
        if emb.vmap1[V] or emb.vmap2[V] or emb.vmap3[V] or emb.vmap4[V]:
            break
    else:
        return ClauseInfo(start, end, -1, None)
    slots = (emb.vmap1[V], emb.vmap2[V], emb.vmap3[V], emb.vmap4[V])
    was = V > start and emb.pos[V - 1] == lx.WAS
    site = _Site(emb, np_start, np_head, V, end)
    for frame in FRAMES.values():  # a row's test runs only if the verb carries its licence
        code = LEAF_CODE[f"<{frame.name}>"]
        if code in slots and (lx.SLOT[code] == 2) == was and frame.test(site):
            second = V + 2 if ("xcomp", "V2") in frame.relations else None
            return ClauseInfo(start, end, V, frame.name, second)
    return ClauseInfo(start, end, V, None)


Failure = (lx.LexiconError, seq.SequenceTooLongError)  # a sentence analyze_all cannot read


def _embed(tokens: list[str] | str, lexicon: lx.Lexicon) -> lx.Embedded:
    """The five code sequences of a sentence, lowercased; raises ``Failure``."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    tokens = [t.lower() for t in tokens]
    seq.check_length(len(tokens))
    return lexicon.embed(tokens)


def analyze(tokens: list[str] | str, lexicon: lx.Lexicon | None = None) -> InputAnalysis:
    """Full flat analysis of one sentence: ``analyze_all``'s path for one row,
    raising the error it would leave in the row's place."""
    if lexicon is None:
        lexicon = lx.default_lexicon()
    (analysis,) = _analyze_batch([_embed(tokens, lexicon)])
    return analysis


def analyze_all(token_lists: Sequence[list[str] | str], lexicon: lx.Lexicon | None = None,
                ) -> list[InputAnalysis | lx.LexiconError | seq.SequenceTooLongError]:
    """Flat analysis of many sentences, one entry per sentence, in order.

    Sentences of one length form a bucket, which runs through the sequence
    primitives at once as a batch: no row is padded.  A bucket is cut so that
    no selector holds more than ``MAX_SEQ_LEN ** 2`` cells, what one sentence
    of the longest length needs alone.  A sentence longer than ``MAX_SEQ_LEN``
    or holding a word the lexicon lacks gets its ``SequenceTooLongError`` or
    ``LexiconError`` as its entry; the other sentences are still analysed.
    A lone string is no list of sentences, and raises ``TypeError``.
    """
    if isinstance(token_lists, str):
        raise TypeError("analyze_all takes a list of sentences, not one string")
    if lexicon is None:
        lexicon = lx.default_lexicon()
    out: list = []
    buckets: dict[int, list[int]] = {}
    for row, tokens in enumerate(token_lists):
        try:
            out.append(_embed(tokens, lexicon))
        except Failure as err:
            out.append(err)
            continue
        buckets.setdefault(len(out[row]), []).append(row)
    for n, rows in buckets.items():
        size = seq.MAX_SEQ_LEN ** 2 // max(n * n, 1)
        for lo in range(0, len(rows), size):
            batch = rows[lo:lo + size]
            for row, analysis in zip(batch, _analyze_batch([out[row] for row in batch])):
                out[row] = analysis
    return out


def _stack(rows: list[list], dtype: type) -> np.ndarray:
    """Same-length rows as a (rows, positions) batch; a lone row stays 1-D,
    since numpy's cost per call is lower on it than on a batch of one row."""
    return np.array(rows if len(rows) > 1 else rows[0], dtype=dtype)


def _analyze_batch(embs: list[lx.Embedded]) -> list[InputAnalysis]:
    """The analyses of same-length sentences: each primitive runs once on the
    (rows, positions) batch, then each row's structure is read off its slice."""
    n_eff = []
    for emb in embs:
        end = len(emb)
        while end and emb.pos[end - 1] == lx.FILLER:
            end -= 1
        n_eff.append(end)

    pos = _stack([emb.pos for emb in embs], np.int64)
    # each shifted sequence once; the masks and the clause splitter share them
    prev = seq.shift_right(pos)
    prev2 = seq.shift_right(prev)
    nxt = seq.shift_left(pos)
    prev_word = seq.shift_right(_stack([emb.tokens for emb in embs], object), default="")

    nm = noun_mask(pos)
    nopp = no_pp_np_mask(pos, prev, prev2)
    eligible = seq.elementwise(lambda a, b: a * b, nm, nopp)
    ordinals = seq.elementwise(lambda c, e: c * e, seq.running_count(eligible), eligible)
    # the InputAnalysis fields from noun_mask to star, one row of lists per sentence
    masks = [nm, np_head_mask(pos, prev), np_start_mask(pos, nxt), nopp, eligible, ordinals,
             star_mask(pos, prev_word)]
    fields = np.array(masks, dtype=np.int64).reshape(
        len(masks), len(embs), pos.shape[-1]).swapaxes(0, 1).tolist()
    spans = clause_spans(_stack([emb.vmap3 for emb in embs], np.int64), nxt, n_eff)
    pps = pp_attachments(pos, nxt, len(embs))

    analyses = []
    for emb, end, row, row_spans, row_pps in zip(embs, n_eff, fields, spans, pps):
        analysis = InputAnalysis(emb.tokens, emb, end, *row, row_pps)
        analysis.clauses = [match_template(emb, span, analysis.np_start, analysis.np_head)
                            for span in row_spans if span[0] < span[1]]
        analyses.append(analysis)
    return analyses
