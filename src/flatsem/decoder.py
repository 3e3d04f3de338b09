"""Decoding: the logical form read off the flat analysis.

``build_plan`` reads one sentence's ``SentenceFacts`` off its flat analysis:
the noun introductions, the pp attachments as nmod links, and one verb group
per matched clause frame, with the relations its row of ``encoder.FRAMES``
lists.  These are the same facts the tree oracle collects, and ``decode``
serialises them through the same layout (``logical_form.serialize_facts``),
the whole form in one pass; there is no per-token decoder step.
``decode_all`` does the same for many sentences, analysed in length buckets
by ``encoder.analyze_all``; ``decode`` takes the same path with one sentence
and raises the error that ``decode_all`` leaves in an unreadable row's place.
Nothing is cached between calls; each call analyses its sentences afresh.

Role binding is positional: a frame's subject argument resolves to the
nearest surviving noun left of the verb inside the clause, its k-th object
argument to the k-th surviving noun right of the verb.  "Surviving" normally
means pp-prefixed nouns are filtered out; ``ablate=True`` lifts that filter
and nothing else, which makes the subject slot latch onto the noun the pp
chain left nearest to the verb.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import lexicon as lx
from .encoder import FRAMES, Failure, InputAnalysis, analyze, analyze_all
from .logical_form import Nmod, NounIntro, SentenceFacts, VerbGroup, serialize_facts
from .seq import SequenceTooLongError


def _bind(kind: str, analysis: InputAnalysis, clause_idx: int, mask: list[int]) -> Optional[int]:
    clause = analysis.clauses[clause_idx]
    if kind == "SUBJ":
        left = [i for i in range(clause.start, clause.verb_pos) if mask[i]]
        return left[-1] if left else None
    if kind in ("OBJ1", "OBJ2"):
        k = int(kind[-1])
        right = [i for i in range(clause.verb_pos + 1, clause.end) if mask[i]]
        return right[k - 1] if len(right) >= k else None
    if kind == "V2":
        return clause.second_verb_pos
    if kind == "NEXT_V":
        nxt = analysis.clauses[clause_idx + 1] if clause_idx + 1 < len(analysis.clauses) else None
        return nxt.verb_pos if nxt and nxt.verb_pos >= 0 else None
    raise ValueError(kind)


def _verb_group(analysis: InputAnalysis, lexicon: lx.Lexicon, clause_idx: int,
                verb_pos: int, template: str, mask: list[int]) -> VerbGroup:
    group = VerbGroup(lexicon.stem(analysis.tokens[verb_pos]), verb_pos)
    for name, kind in FRAMES[template].relations:
        arg = _bind(kind, analysis, clause_idx, mask)
        if arg is not None:
            group.relations.append((name, verb_pos, arg))
    return group


def build_plan(analysis: InputAnalysis, lexicon: lx.Lexicon, ablate: bool = False) -> SentenceFacts:
    """Read the facts of the logical form off the flat analysis."""
    mask = analysis.noun_mask if ablate else analysis.eligible
    facts = SentenceFacts(
        [NounIntro(analysis.tokens[i], i, bool(analysis.star[i])) for i in analysis.noun_positions],
        [Nmod(analysis.tokens[prep], head, obj) for prep, head, obj in analysis.pps])
    for idx, clause in enumerate(analysis.clauses):
        if clause.template is None:
            continue
        facts.groups.append(_verb_group(analysis, lexicon, idx, clause.verb_pos,
                                        clause.template, mask))
        if clause.second_verb_pos is not None:
            facts.groups.append(_verb_group(analysis, lexicon, idx, clause.second_verb_pos,
                                            "v_inf", mask))
    return facts


def decode(sentence: str | list[str], lexicon: lx.Lexicon | None = None,
           ablate: bool = False) -> str:
    """Decode the logical form of one sentence."""
    if lexicon is None:
        lexicon = lx.default_lexicon()
    return serialize_facts(build_plan(analyze(sentence, lexicon), lexicon, ablate))


def decode_all(sentences: Sequence[str | list[str]], lexicon: lx.Lexicon | None = None,
               ablate: bool = False) -> list[str | lx.LexiconError | SequenceTooLongError]:
    """Decode many sentences, one entry per sentence, in order.

    The sentences are analysed in length buckets (``encoder.analyze_all``); a
    sentence that cannot be read keeps its ``LexiconError`` or
    ``SequenceTooLongError`` as its entry, and the others still decode.
    Each form equals ``decode`` of its sentence.
    """
    if lexicon is None:
        lexicon = lx.default_lexicon()
    return [analysis if isinstance(analysis, Failure)
            else serialize_facts(build_plan(analysis, lexicon, ablate))
            for analysis in analyze_all(sentences, lexicon)]
