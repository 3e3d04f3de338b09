"""Flat input analysis: everything the decoder needs, no trees involved.

All per-position evidence is computed with the sequence primitives over
lexicon codes alone -- five lookup tables over the codes and their three
shifted copies, each shift made once per batch and read as one slice; the
words themselves are read only at output.  There are no widths or counts;
the encoder builds no selector.
``analyze_all`` runs each group of same-length sentences through the
primitives at once, as a (sentences, positions) batch; ``analyze`` is its
one-sentence case.  Each field of ``InputAnalysis`` becomes a plain list once,
at the end, and each sentence's structure (clause spans, one verb frame per
clause, pp attachments) is read off its row.  A clause's frame is one
decision of its verb's licence (``DECISIONS``) among that licence's leaves
in ``grammar.CODE_LEAVES``; the passive participle's licence, slot 2 of
``lexicon.SLOT``, decides only right after "was".  ``FRAMES`` maps each
frame's name to its (role, slot) relations, and ``get_agent_side`` reads off
it which side of the verb a frame's agent binds.

The position-wise masks over lexicon codes are ``seq.Table`` lookup tables,
Tracr's categorical MLPs: ``NOUN`` over a token's code, ``NP_HEAD`` and
``NP_START`` over it and its left or right neighbour's, ``NO_PP_NP`` over
it and the two codes before it, and ``CLAUSE_BOUNDARY`` over a token's
slot-3 code and the next token's code.  Each rule is written once, as the
table's lambda, and evaluated over every code in ``range(lexicon.N_CODES)``
at import; ``seq.elementwise`` of a table is one gather.

The load-bearing vector is ``NO_PP_NP``: it knocks out any noun that is
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
from .grammar import CODE_LEAVES


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
    pps: list[tuple[int, int, int]]  # (prep_pos, head_pos, obj_pos)
    clauses: list[ClauseInfo] = field(default_factory=list)

    @property
    def noun_positions(self) -> list[int]:
        return [i for i in range(self.n_eff) if self.noun_mask[i]]


# The position-wise masks, each a lookup table over every lexicon code, pair
# or triple of codes.
NOUN = seq.Table(lambda p: (p == lx.COMMON_NOUN) | (p == lx.PROPER_NOUN), lx.N_CODES)

# Last token of a noun phrase core: determined common noun, or name.
NP_HEAD = seq.Table(
    lambda p, pr: ((p == lx.COMMON_NOUN) & (pr == lx.DET)) | (p == lx.PROPER_NOUN), lx.N_CODES)

# First token of a noun phrase: determiner before a common noun, or name.
NP_START = seq.Table(
    lambda p, nx: ((p == lx.DET) & (nx == lx.COMMON_NOUN)) | (p == lx.PROPER_NOUN), lx.N_CODES)

# False at nouns sitting inside a prepositional phrase, True everywhere else.
NO_PP_NP = seq.Table(
    lambda p, p1, p2: ~(((p == lx.PROPER_NOUN) & (p1 == lx.PP))
                        | ((p == lx.COMMON_NOUN) & (p2 == lx.PP))), lx.N_CODES)

# A clause ends at a clause-taking verb right before "that".
CLAUSE_BOUNDARY = seq.Table(lambda v3, nx: (v3 == lx.V_CP_TAKING) & (nx == lx.THAT), lx.N_CODES)


def _hits(mask: np.ndarray) -> tuple[list[int], list[int]]:
    """The rows and positions of a mask's set cells, in order; a lone row is 1-D."""
    if mask.ndim == 1:
        (cols,) = mask.nonzero()
        return [0] * len(cols), cols.tolist()
    rows, cols = mask.nonzero()
    return rows.tolist(), cols.tolist()


def pp_attachments(pos: np.ndarray, nxt: np.ndarray,
                   rows: int) -> list[list[tuple[int, int, int]]]:
    """(prep_pos, modified_head_pos, object_head_pos) per preposition, for
    each of ``rows`` sentences (a lone one 1-D).

    The modified noun always immediately precedes its preposition; the object
    head is the name right after it, or the noun behind the determiner.
    """
    prep = pos == lx.PP
    hit_rows, hits = _hits(prep)
    pps: list[list[tuple[int, int, int]]] = [[] for _ in range(rows)]
    if hits:
        names = (nxt[prep] == lx.PROPER_NOUN).tolist()
        for row, i, name in zip(hit_rows, hits, names):
            pps[row].append((i, i - 1, i + 1 if name else i + 2))
    return pps


def clause_spans(vmap3: np.ndarray, nxt: np.ndarray,
                 n_eff: list[int]) -> list[list[tuple[int, int]]]:
    """Token spans of the clauses of each sentence (a lone one 1-D), split
    after each "<cp-verb> that".

    The complementizer belongs to neither span; the matrix clause ends at its
    verb.  A sentence without clause embedding is one span.
    """
    spans: list[list[tuple[int, int]]] = [[] for _ in n_eff]
    starts = [0] * len(n_eff)
    for row, i in zip(*_hits(seq.elementwise(CLAUSE_BOUNDARY, vmap3, nxt))):
        spans[row].append((starts[row], i + 1))
        starts[row] = i + 2
    for row_spans, start, end in zip(spans, starts, n_eff):
        row_spans.append((start, end))
    return spans


class _Site(NamedTuple):
    """A clause's verb and the flat vectors the licence decisions read."""

    emb: lx.Embedded
    np_start: list[int]
    np_head: list[int]
    verb: int
    end: int  # clause end, exclusive

    def at(self, offset: int, code: int) -> bool:
        """The token ``offset`` after the verb is in the clause and has this code."""
        return self.verb + offset < self.end and self.emb.pos[self.verb + offset] == code

    def infinitive(self) -> Optional[int]:
        """The position two after the verb, when it is in the clause and
        carries the infinitive's code in slot 1."""
        j = self.verb + 2
        return j if j < self.end and self.emb.vmap1[j] == lx.V_INF else None

    def np_after(self, code: int) -> bool:
        """Some token after the verb has this code and a noun phrase right behind it."""
        return any(self.emb.pos[j] == code and j + 1 < self.end and self.np_start[j + 1]
                   for j in range(self.verb + 1, self.end))


# Every verb frame's (role, slot) relations in emission order, under the
# grammar's leaf category without brackets; "v_inf" holds the relations of the
# infinitive under "v_inf_taking".  SUBJ binds left of the verb, OBJ1/OBJ2
# right of it, V2 is the infinitive at +2 (``_Site.infinitive``), NEXT_V the
# embedded clause's verb.
FRAMES: dict[str, tuple[tuple[str, str], ...]] = {
    "v_cp_taking": (("agent", "SUBJ"), ("ccomp", "NEXT_V")),
    "v_inf_taking": (("agent", "SUBJ"), ("xcomp", "V2")),
    "v_inf": (("agent", "SUBJ"),),
    "v_unerg": (("agent", "SUBJ"),),
    "v_trans_omissible_p1": (("agent", "SUBJ"),),
    "v_trans_omissible_p2": (("agent", "SUBJ"), ("theme", "OBJ1")),
    "v_trans_not_omissible": (("agent", "SUBJ"), ("theme", "OBJ1")),
    "v_unacc_p1": (("agent", "SUBJ"), ("theme", "OBJ1")),  # causative
    "v_unacc_p2": (("theme", "SUBJ"),),  # inchoative
    "v_dat_p1": (("agent", "SUBJ"), ("theme", "OBJ1"), ("recipient", "OBJ2")),
    "v_dat_p2": (("agent", "SUBJ"), ("recipient", "OBJ1"), ("theme", "OBJ2")),
    "v_trans_omissible_pp_p1": (("theme", "SUBJ"),),
    "v_trans_omissible_pp_p2": (("theme", "SUBJ"), ("agent", "OBJ1")),
    "v_trans_not_omissible_pp_p1": (("theme", "SUBJ"),),
    "v_trans_not_omissible_pp_p2": (("theme", "SUBJ"), ("agent", "OBJ1")),
    "v_unacc_pp_p1": (("theme", "SUBJ"),),
    "v_unacc_pp_p2": (("theme", "SUBJ"), ("agent", "OBJ1")),
    "v_dat_pp_p1": (("theme", "SUBJ"), ("recipient", "OBJ1")),
    "v_dat_pp_p2": (("theme", "SUBJ"), ("recipient", "OBJ1"), ("agent", "OBJ2")),
    "v_dat_pp_p3": (("recipient", "SUBJ"), ("theme", "OBJ1")),
    "v_dat_pp_p4": (("recipient", "SUBJ"), ("theme", "OBJ1"), ("agent", "OBJ2")),
}


def get_agent_side(template: str) -> Optional[str]:
    """'left' when the template's agent binds the subject, 'right' when it
    sits after the verb (a by-phrase or a later object slot); None when the
    frame has no agent at all."""
    slot = dict(FRAMES.get(template, ())).get("agent")
    return None if slot is None else "left" if slot == "SUBJ" else "right"


# Each verb licence's one decision: the index of the clause's frame among the
# licence's leaves in ``grammar.CODE_LEAVES``, or None when none fits.
DECISIONS: dict[int, Callable[[_Site], Optional[int]]] = {
    **dict.fromkeys((lx.V_UNERG, lx.V_TRANS_NOT_OMISSIBLE), lambda s: 0),
    lx.V_INF: lambda s: None,  # an infinitive heads no clause of its own
    lx.V_CP_TAKING: lambda s: (0 if s.verb + 1 < len(s.emb.pos) and CLAUSE_BOUNDARY.values[
        s.emb.vmap3[s.verb], s.emb.pos[s.verb + 1]] else None),
    lx.V_INF_TAKING: lambda s: 0 if s.at(1, lx.TO) and s.infinitive() is not None else None,
    lx.V_TRANS_OMISSIBLE: lambda s: int(s.verb + 1 < s.end),  # the clause goes on: an object
    lx.V_UNACC: lambda s: int(s.verb + 1 == s.end),  # the clause ends: inchoative
    lx.V_DAT: lambda s: 0 if s.np_after(lx.TO) else 1 if any(  # a to-NP, else two NPs in a row
        s.np_head[j] and s.np_start[j + 1] for j in range(s.verb + 1, s.end - 1)) else None,
    **dict.fromkeys((lx.V_TRANS_OMISSIBLE_PP, lx.V_TRANS_NOT_OMISSIBLE_PP, lx.V_UNACC_PP),
                    lambda s: int(s.at(1, lx.BY))),
    lx.V_DAT_PP: lambda s: (  # "to" at +1, else the theme there; then a by-agent bit
        (0 if s.at(1, lx.TO) else 2) + s.np_after(lx.BY)
        if s.at(1, lx.TO) or s.verb + 1 < s.end and s.np_start[s.verb + 1] else None),
}


def match_template(emb: lx.Embedded, span: tuple[int, int],
                   np_start: list[int], np_head: list[int]) -> ClauseInfo:
    """The clause with its verb, the first token carrying a verb code, and
    its frame.  After "was" the verb's slot-2 licence decides; otherwise its
    slot-3, slot-4 and slot-1 licences decide in turn, until one picks a
    frame.  ``V2`` binds only to an infinitive inside the clause."""
    start, end = span
    for V in range(start, end):
        if emb.pos[V] in lx.SLOT:  # a word's primary code is a verb code when it has one
            break
    else:
        return ClauseInfo(start, end, -1, None)
    was = V > start and emb.pos[V - 1] == lx.WAS
    site = _Site(emb, np_start, np_head, V, end)
    for code in (emb.vmap2[V],) if was else (emb.vmap3[V], emb.vmap4[V], emb.vmap1[V]):
        variant = DECISIONS[code](site) if code else None
        if variant is not None:
            name = CODE_LEAVES[code][variant][1:-1]
            second = site.infinitive() if ("xcomp", "V2") in FRAMES[name] else None
            return ClauseInfo(start, end, V, name, second)
    return ClauseInfo(start, end, V, None)


Failure = (lx.LexiconError, seq.SequenceTooLongError)  # a sentence analyze_all cannot read


def _embed(tokens: list[str] | str, lexicon: lx.Lexicon) -> lx.Embedded:
    """The five code sequences of a sentence, lowercased; raises ``Failure``."""
    if isinstance(tokens, str):
        tokens = tokens.split()
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
    primitives at once as a batch: no row is padded.  A bucket of n-token
    rows is cut into batches of ``MAX_SEQ_LEN ** 2 // n ** 2`` rows, which
    bounds a batch's transient arrays, so peak memory stops growing with the
    bucket (uncut, a bucket of 20,000 nine-token rows peaks about 12% higher).
    A sentence longer than ``MAX_SEQ_LEN`` or holding a word the lexicon lacks
    gets its ``SequenceTooLongError`` or ``LexiconError`` as its entry; the
    other sentences are still analysed.
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


def _stack(rows: list[list[int]]) -> np.ndarray:
    """Same-length code rows as a (rows, positions) batch; a lone row stays
    1-D, since numpy's cost per call is lower on it than on a batch of one row."""
    return np.array(rows if len(rows) > 1 else rows[0], dtype=np.int64)


def _analyze_batch(embs: list[lx.Embedded]) -> list[InputAnalysis]:
    """The analyses of same-length sentences: each primitive runs once on the
    (rows, positions) batch, then each row's structure is read off its slice."""
    n_eff = []
    for emb in embs:
        end = len(emb)
        while end and emb.pos[end - 1] == lx.FILLER:
            end -= 1
        n_eff.append(end)

    pos = _stack([emb.pos for emb in embs])
    # each shifted sequence once; the masks and the clause splitter share them
    prev = seq.shift_right(pos)
    prev2 = seq.shift_right(prev)
    nxt = seq.shift_left(pos)

    # the InputAnalysis fields from noun_mask to no_pp_np, one row of lists per sentence
    masks = [seq.elementwise(NOUN, pos), seq.elementwise(NP_HEAD, pos, prev),
             seq.elementwise(NP_START, pos, nxt), seq.elementwise(NO_PP_NP, pos, prev, prev2)]
    fields = np.array(masks, dtype=np.int64).reshape(
        len(masks), len(embs), pos.shape[-1]).swapaxes(0, 1).tolist()
    spans = clause_spans(_stack([emb.vmap3 for emb in embs]), nxt, n_eff)
    pps = pp_attachments(pos, nxt, len(embs))

    analyses = []
    for emb, end, row, row_spans, row_pps in zip(embs, n_eff, fields, spans, pps):
        analysis = InputAnalysis(emb.tokens, emb, end, *row, row_pps)
        analysis.clauses = [match_template(emb, span, analysis.np_start, analysis.np_head)
                            for span in row_spans if span[0] < span[1]]
        analyses.append(analysis)
    return analyses
