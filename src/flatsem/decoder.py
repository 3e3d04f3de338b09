"""Decoding: the logical form emitted from a plan, and the per-token rule.

``build_plan`` resolves one sentence's flat analysis into the exact layout of
its logical form: the noun introductions in sentence order, then the body
conjuncts sorted by head position.  ``decode`` emits that layout in one pass:
the introduction groups separated by ";", a ";" before the body, and the body
conjuncts joined by "AND".

``next_token`` is the autoregressive reference rule for the same layout.  It
carries no state between calls beyond the emitted prefix: the number of ";"
tokens says which noun introduction is in flight, the number of "AND" tokens
says which body conjunct, and the distance to the last separator says how far
into the current conjunct we are.  Replaying any prefix of ``decode``'s output
through it reproduces the same continuation.  Nothing is cached between
sentences; each call analyses its sentence afresh.

Role binding is positional: a template's subject argument resolves to the
nearest surviving noun left of the verb inside the clause, its k-th object
argument to the k-th surviving noun right of the verb.  "Surviving" normally
means pp-prefixed nouns are filtered out; ``decode_ablated`` lifts that
filter and nothing else, which makes the subject slot latch onto the noun the
pp chain left nearest to the verb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import lexicon as lx
from .encoder import ClauseInfo, InputAnalysis, analyze

# Relations per verb frame, in emission order.  SUBJ binds left of the verb,
# OBJ1/OBJ2 right of it in reading order, V2 is the infinitive two tokens
# after the verb, NEXT_V the embedded clause's verb.
TEMPLATE_RELATIONS: dict[str, list[tuple[str, str]]] = {
    "v_trans_omissible_p1": [("agent", "SUBJ")],
    "v_trans_omissible_p2": [("agent", "SUBJ"), ("theme", "OBJ1")],
    "v_trans_omissible_pp_p1": [("theme", "SUBJ")],
    "v_trans_omissible_pp_p2": [("theme", "SUBJ"), ("agent", "OBJ1")],
    "v_trans_not_omissible": [("agent", "SUBJ"), ("theme", "OBJ1")],
    "v_trans_not_omissible_pp_p1": [("theme", "SUBJ")],
    "v_trans_not_omissible_pp_p2": [("theme", "SUBJ"), ("agent", "OBJ1")],
    "v_cp_taking": [("agent", "SUBJ"), ("ccomp", "NEXT_V")],
    "v_inf_taking": [("agent", "SUBJ"), ("xcomp", "V2")],
    "v_inf": [("agent", "SUBJ")],
    "v_unacc_p1": [("agent", "SUBJ"), ("theme", "OBJ1")],
    "v_unacc_p2": [("theme", "SUBJ")],
    "v_unacc_pp_p1": [("theme", "SUBJ")],
    "v_unacc_pp_p2": [("theme", "SUBJ"), ("agent", "OBJ1")],
    "v_unerg": [("agent", "SUBJ")],
    "v_dat_p1": [("agent", "SUBJ"), ("theme", "OBJ1"), ("recipient", "OBJ2")],
    "v_dat_p2": [("agent", "SUBJ"), ("recipient", "OBJ1"), ("theme", "OBJ2")],
    "v_dat_pp_p1": [("theme", "SUBJ"), ("recipient", "OBJ1")],
    "v_dat_pp_p2": [("theme", "SUBJ"), ("recipient", "OBJ1"), ("agent", "OBJ2")],
    "v_dat_pp_p3": [("recipient", "SUBJ"), ("theme", "OBJ1")],
    "v_dat_pp_p4": [("recipient", "SUBJ"), ("theme", "OBJ1"), ("agent", "OBJ2")],
}


@dataclass(frozen=True)
class Conjunct:
    head: int  # sentence position that orders this conjunct
    kind: str  # "nmod" | "intro" | "relation"
    tokens: tuple[str, ...]


@dataclass
class DecodePlan:
    noun_groups: list[tuple[bool, str, int]]  # (star, label, position)
    body: list[Conjunct]


@dataclass
class DecoderState:
    tokens: list[str]
    plan: DecodePlan
    out: list[str] = field(default_factory=list)


def _subject(analysis: InputAnalysis, clause: ClauseInfo, mask: list[int]) -> Optional[int]:
    cands = [i for i in range(clause.start, clause.verb_pos) if mask[i]]
    return cands[-1] if cands else None


def _object(analysis: InputAnalysis, clause: ClauseInfo, k: int, mask: list[int]) -> Optional[int]:
    cands = [i for i in range(clause.verb_pos + 1, clause.end) if mask[i]]
    return cands[k - 1] if len(cands) >= k else None


def _bind(kind: str, analysis: InputAnalysis, clause: ClauseInfo, clause_idx: int,
          mask: list[int]) -> Optional[int]:
    if kind == "SUBJ":
        return _subject(analysis, clause, mask)
    if kind == "OBJ1":
        return _object(analysis, clause, 1, mask)
    if kind == "OBJ2":
        return _object(analysis, clause, 2, mask)
    if kind == "V2":
        return clause.second_verb_pos
    if kind == "NEXT_V":
        nxt = analysis.clauses[clause_idx + 1] if clause_idx + 1 < len(analysis.clauses) else None
        return nxt.verb_pos if nxt and nxt.verb_pos >= 0 else None
    raise ValueError(kind)


def _verb_group(analysis: InputAnalysis, lexicon: lx.Lexicon, clause: ClauseInfo,
                clause_idx: int, verb_pos: int, template: str, mask: list[int]) -> list[Conjunct]:
    stem = lexicon.stem(analysis.tokens[verb_pos])
    out = [Conjunct(verb_pos, "intro", (stem, "(", str(verb_pos), ")"))]
    for name, kind in TEMPLATE_RELATIONS[template]:
        arg = _bind(kind, analysis, clause, clause_idx, mask)
        if arg is None:
            continue
        out.append(Conjunct(verb_pos, "relation",
                            (name, "(", str(verb_pos), ",", str(arg), ")")))
    return out


def build_plan(analysis: InputAnalysis, lexicon: lx.Lexicon, ablate: bool = False) -> DecodePlan:
    """Resolve the analysis into the exact token layout of the logical form."""
    mask = analysis.noun_mask if ablate else analysis.eligible
    noun_groups = [(bool(analysis.star[i]), analysis.tokens[i], i)
                   for i in analysis.noun_positions]

    body: list[Conjunct] = []
    for prep_pos, head, obj in analysis.pps:
        prep = analysis.tokens[prep_pos]
        body.append(Conjunct(head, "nmod",
                             ("nmod", ".", prep, "(", str(head), ",", str(obj), ")")))
    for idx, clause in enumerate(analysis.clauses):
        if clause.template is None:
            continue
        body.extend(_verb_group(analysis, lexicon, clause, idx,
                                clause.verb_pos, clause.template, mask))
        if clause.template == "v_inf_taking" and clause.second_verb_pos is not None:
            body.extend(_verb_group(analysis, lexicon, clause, idx,
                                    clause.second_verb_pos, "v_inf", mask))
    body.sort(key=lambda c: c.head)
    return DecodePlan(noun_groups, body)


def _group_tokens(plan: DecodePlan, n_done: int) -> tuple[str, ...]:
    star, label, pos = plan.noun_groups[n_done]
    toks = ("*",) if star else ()
    toks += (label, "(", str(pos), ")")
    if n_done < len(plan.noun_groups) - 1 or plan.body:
        toks += (";",)
    return toks


def _offset(out: list[str]) -> int:
    """Number of tokens emitted since the most recent ";" or "AND"."""
    for i in range(len(out) - 1, -1, -1):
        if out[i] in (";", "AND"):
            return len(out) - i - 1
    return len(out)


def intro_phase_token(plan: DecodePlan, out: list[str]) -> Optional[str]:
    """Next token of the noun-introduction preamble, or None once past it."""
    n_done = out.count(";")
    if n_done >= len(plan.noun_groups):
        return None
    toks = _group_tokens(plan, n_done)
    off = _offset(out)
    # the last group may have no ";"; falling off its end means we are done
    return toks[off] if off < len(toks) else None


def _conjunct_tokens(plan: DecodePlan, c: int) -> tuple[str, ...]:
    toks = plan.body[c].tokens
    return toks + ("AND",) if c < len(plan.body) - 1 else toks


def _body_token(plan: DecodePlan, out: list[str], want_kind: str) -> Optional[str]:
    c = out.count("AND")
    if c >= len(plan.body):
        return None
    if (plan.body[c].kind == "nmod") != (want_kind == "nmod"):
        return None
    toks = _conjunct_tokens(plan, c)
    off = _offset(out)
    return toks[off] if off < len(toks) else None


def nmod_phase_token(plan: DecodePlan, out: list[str]) -> Optional[str]:
    """Next token when the current body conjunct is an nmod link."""
    return _body_token(plan, out, "nmod")


def relation_phase_token(plan: DecodePlan, out: list[str]) -> Optional[str]:
    """Next token when the current body conjunct belongs to a verb group."""
    return _body_token(plan, out, "relation")


def next_token(state: DecoderState) -> Optional[str]:
    """The next logical-form token, or None when the form is complete."""
    if state.out.count(";") < len(state.plan.noun_groups):
        tok = intro_phase_token(state.plan, state.out)
        if tok is not None:
            return tok
    tok = nmod_phase_token(state.plan, state.out)
    if tok is not None:
        return tok
    return relation_phase_token(state.plan, state.out)


def start_state(sentence: str | list[str], lexicon: lx.Lexicon | None = None,
                ablate: bool = False) -> DecoderState:
    tokens = sentence.split() if isinstance(sentence, str) else list(sentence)
    tokens = [t.lower() for t in tokens]
    if lexicon is None:
        lexicon = lx.default_lexicon()
    return DecoderState(tokens, build_plan(analyze(tokens, lexicon), lexicon, ablate))


def plan_tokens(plan: DecodePlan) -> list[str]:
    """The whole logical form of ``plan``, token by token."""
    out: list[str] = []
    for i in range(len(plan.noun_groups)):
        out += _group_tokens(plan, i)
    for c in range(len(plan.body)):
        out += _conjunct_tokens(plan, c)
    return out


def decode(sentence: str | list[str], lexicon: lx.Lexicon | None = None,
           ablate: bool = False) -> str:
    """Decode the logical form of one sentence."""
    return " ".join(plan_tokens(start_state(sentence, lexicon, ablate).plan))


def decode_ablated(sentence: str | list[str], lexicon: lx.Lexicon | None = None) -> str:
    """decode() with the pp-prefix filter disabled during role binding."""
    return decode(sentence, lexicon, ablate=True)
