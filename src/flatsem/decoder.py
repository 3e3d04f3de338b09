"""Decoding: the logical form read off the flat analysis.

``build_plan`` reads one sentence's ``SentenceFacts`` off its flat analysis:
the noun introductions, the pp attachments as nmod links, and per matched
clause frame the verb's introduction and the relations its entry in
``encoder.FRAMES`` lists -- the ``Intro`` and ``Rel`` records that
``logical_form.parse_lf`` reads back.  These are the same facts the tree
oracle collects, and ``decode``
serialises them through the same layout (``logical_form.serialize_facts``),
the whole form in one pass; there is no per-token decoder step.
``decode_all`` does the same for many sentences, analysed in length buckets
by ``encoder.analyze_all``; ``decode`` takes the same path with one sentence
and raises the error that ``decode_all`` leaves in an unreadable row's place.
Nothing is cached between calls; each call analyses its sentences afresh.
The encoder's mask tables (``seq.Table``) are constants, not a cache: each
holds every cell of its domain from import on, and no call adds to or
changes them, so a call's result never depends on the calls before it.

Role binding is positional, and each clause's roles are bound once, into
five slots that both its verb's relations and, under "v_inf_taking", the
infinitive's read: ``SUBJ``, the nearest surviving noun left of the
verb inside the clause; ``OBJ1`` and ``OBJ2``, the first and second surviving
nouns right of it; ``V2``, the infinitive; ``NEXT_V``, the next clause's
verb.  A frame's relations name the slot each role takes.  "Surviving"
normally means pp-prefixed nouns are filtered out; ``ablate=True`` lifts
that filter and nothing else, which makes the subject slot latch onto the
noun the pp chain left nearest to the verb.
"""

from __future__ import annotations

from typing import Sequence

from . import lexicon as lx
from .encoder import FRAMES, Failure, InputAnalysis, analyze, analyze_all
from .logical_form import Intro, Rel, SentenceFacts, serialize_facts
from .seq import SequenceTooLongError


def build_plan(analysis: InputAnalysis, lexicon: lx.Lexicon, ablate: bool = False) -> SentenceFacts:
    """Read the facts of the logical form off the flat analysis."""
    mask = analysis.noun_mask if ablate else analysis.eligible
    facts = SentenceFacts(
        [Intro(analysis.tokens[i], i, bool(analysis.star[i])) for i in analysis.noun_positions],
        rels=[Rel(f"nmod . {analysis.tokens[prep]}", head, obj)
              for prep, head, obj in analysis.pps])
    for idx, clause in enumerate(analysis.clauses):
        if clause.template is None:
            continue
        left = [i for i in range(clause.start, clause.verb_pos) if mask[i]]
        right = [i for i in range(clause.verb_pos + 1, clause.end) if mask[i]]
        nxt = analysis.clauses[idx + 1].verb_pos if idx + 1 < len(analysis.clauses) else -1
        slots = {"SUBJ": left[-1] if left else None,
                 "OBJ1": right[0] if right else None,
                 "OBJ2": right[1] if len(right) > 1 else None,
                 "V2": clause.second_verb_pos,
                 "NEXT_V": nxt if nxt >= 0 else None}
        groups = [(clause.verb_pos, clause.template)]
        if clause.second_verb_pos is not None:
            groups.append((clause.second_verb_pos, "v_inf"))
        for verb, template in groups:
            facts.verbs.append(Intro(lexicon.stem(analysis.tokens[verb]), verb))
            facts.rels += [Rel(name, verb, slots[slot]) for name, slot in FRAMES[template]
                           if slots[slot] is not None]
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
