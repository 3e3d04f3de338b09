"""Tree-based reference translator and the analyses that read trees.

``lf_oracle`` derives the logical form from a parse tree by ordinary
compositional walking -- no sequence tricks -- and is the ground truth the
flat decoder is measured against.  The walk collects ``SentenceFacts``, the
``Intro`` and ``Rel`` records that ``logical_form.serialize_facts`` lays out
exactly as the decoder's own facts.  The same tree view powers the
attraction-error predictor and the dative-argument-order augmentation.
Everything here reads trees; judging a prediction is ``logical_form``'s.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from . import lexicon as lx
from .grammar import Tree, parse_sentence
from .logical_form import Intro, Rel, SentenceFacts, serialize_facts


def _np(node: Tree, facts: SentenceFacts) -> int:
    """Add an np subtree's noun introductions and nmod links to ``facts``;
    returns the position of its head noun."""
    if node.symbol == "<np>":
        return _np(node.children[0], facts)
    if node.symbol == "<np_prop>":
        leaf = node.children[0]
        facts.nouns.append(Intro(leaf.word, leaf.pos))
        return leaf.pos
    if node.symbol == "<np_det>":
        det, noun = node.children
        facts.nouns.append(Intro(noun.word, noun.pos, det.word == "the"))
        return noun.pos
    if node.symbol == "<np_pp>":
        head_det, prep, inner = node.children
        head = _np(head_det, facts)
        facts.rels.append(Rel(f"nmod . {prep.word}", head, _np(inner, facts)))
        return head
    raise ValueError(f"not an np node: {node.symbol}")


def _verb(leaf: Tree, facts: SentenceFacts, stem: Callable[[str], str],
          *roles: tuple[str, int]) -> int:
    """Add a verb's introduction and its first role relations to ``facts``;
    returns the verb's position."""
    facts.verbs.append(Intro(stem(leaf.word), leaf.pos))
    facts.rels += [Rel(name, leaf.pos, arg) for name, arg in roles]
    return leaf.pos


def _walk_start(node: Tree, facts: SentenceFacts, stem: Callable[[str], str]) -> Tree:
    """Populate facts for one clause (and its embeddings); returns the
    clause's main verb leaf.  Every clause shape starts with its subject np.
    A verb's relations are added in emission order, each once its argument
    has been walked."""
    clause = node.children[0]  # <s1>..<s4> or <vp_internal>
    kind = clause.symbol
    subj = _np(clause.children[0], facts)

    if kind == "<vp_internal>":
        verb = clause.children[1]
        _verb(verb, facts, stem, ("theme", subj))
        return verb

    if kind == "<s4>":
        v_main, _to, v_inf = clause.children[1].children
        _verb(v_main, facts, stem, ("agent", subj), ("xcomp", v_inf.pos))
        _verb(v_inf, facts, stem, ("agent", subj))
        return v_main

    if kind == "<s1>":
        vp = clause.children[1]
        if vp.children[0].is_leaf and len(vp.children) == 1:
            verb = vp.children[0]  # <v_unerg> or <v_trans_omissible_p1>
            _verb(verb, facts, stem, ("agent", subj))
            return verb
        inner = vp.children[0]
        verb = inner.children[0]
        V = _verb(verb, facts, stem, ("agent", subj))
        if inner.symbol in ("<vp_external1>", "<vp_external2>", "<vp_external3>"):
            facts.rels.append(Rel("theme", V, _np(inner.children[1], facts)))
        elif inner.symbol == "<vp_external5>":
            embedded = _walk_start(inner.children[2], facts, stem)
            facts.rels.append(Rel("ccomp", V, embedded.pos))
        elif inner.symbol == "<vp_external6>":
            facts.rels.append(Rel("theme", V, _np(inner.children[1], facts)))
            facts.rels.append(Rel("recipient", V, _np(inner.children[2].children[1], facts)))
        elif inner.symbol == "<vp_external7>":
            facts.rels.append(Rel("recipient", V, _np(inner.children[1], facts)))
            facts.rels.append(Rel("theme", V, _np(inner.children[2], facts)))
        else:
            raise ValueError(f"unexpected vp_external child {inner.symbol}")
        return verb

    if kind == "<s2>":
        vp = clause.children[2].children[0]  # <vp_passiveN>
        verb = vp.children[0]
        V = _verb(verb, facts, stem, ("theme", subj))
        rest = vp.children[1:]
        if vp.symbol in ("<vp_passive7>", "<vp_passive8>"):
            facts.rels.append(Rel("recipient", V, _np(rest[0].children[1], facts)))
            rest = rest[1:]
        if rest:  # remaining shape is <by> <np>
            facts.rels.append(Rel("agent", V, _np(rest[1], facts)))
        return verb

    if kind == "<s3>":
        vp = clause.children[2].children[0]  # <vp_passive_dat1|2>
        verb = vp.children[0]
        V = _verb(verb, facts, stem, ("recipient", subj))
        facts.rels.append(Rel("theme", V, _np(vp.children[1], facts)))
        if vp.symbol == "<vp_passive_dat2>":
            facts.rels.append(Rel("agent", V, _np(vp.children[3], facts)))
        return verb

    raise ValueError(f"unexpected clause {kind}")


def sentence_facts(tree: Tree, lexicon: lx.Lexicon) -> SentenceFacts:
    facts = SentenceFacts()
    _walk_start(tree, facts, lexicon.stem)
    return facts


def lf_oracle(sentence: str | list[str] | Tree, lexicon: lx.Lexicon | None = None) -> Optional[str]:
    """Logical form via tree walking; None when the sentence has no parse."""
    if lexicon is None:
        lexicon = lx.default_lexicon()
    tree = sentence if isinstance(sentence, Tree) else parse_sentence(sentence, lexicon)
    if tree is None:
        return None
    return serialize_facts(sentence_facts(tree, lexicon))


def matrix_template(tree: Tree) -> str:
    """Verb frame of the outermost clause; the walk's stems go unused, so
    words pass through unstemmed."""
    return _walk_start(tree, SentenceFacts(), str).symbol.strip("<>")


def _subject_np(tree: Tree) -> Tree:
    return tree.children[0].children[0]


def subject_is_pp_modified(tree: Tree) -> bool:
    np = _subject_np(tree)
    inner = np.children[0] if np.symbol == "<np>" else np
    return inner.symbol == "<np_pp>"


def predict_attraction_error(tree: Tree | str, lexicon: lx.Lexicon | None = None) -> Optional[int]:
    """Index the subject slot resolves to when pp-prefix filtering is off.

    That is the position of the *last* noun inside the subject np -- the
    linearly nearest noun left of the verb.  Equals the true subject head when
    the subject has no pp chain; None when the sentence has no parse.
    """
    if not isinstance(tree, Tree):
        tree = parse_sentence(tree, lexicon or lx.default_lexicon())
        if tree is None:
            return None
    noun_positions = [leaf.pos for leaf in _subject_np(tree).leaves()
                      if leaf.symbol in ("<common_noun>", "<proper_noun>")]
    return max(noun_positions)


AUGMENTED_CATEGORY = "v_dat_p2_pp_moved_to_recipient"


def augment_v_dat_p2(rows: Sequence[tuple[str, str, str]],
                     lexicon: lx.Lexicon | None = None) -> list[tuple[str, str, str]]:
    """Move the pp of double-object datives from the theme to the recipient.

    Eligible rows look like "liam gave the monkey a chalk in the container ."
    -- a double-object dative whose only pp modifies the second object -- and
    come back as "liam gave the monkey in the container a chalk ." with the
    logical form rebuilt for the new positions.  Other rows contribute
    nothing: rows whose recipient is a name (the grammar puts no pp on one)
    and rows that hold a word outside the lexicon among them.
    """
    if lexicon is None:
        lexicon = lx.default_lexicon()
    out = []
    for sentence, _lf, _category in rows:
        tokens = [t.lower() for t in sentence.split()]
        try:
            tree = parse_sentence(tokens, lexicon)
        except lx.LexiconError:
            continue
        if tree is None:
            continue
        clause = tree.children[0]
        if clause.symbol != "<s1>":
            continue
        vp = clause.children[1]
        if len(vp.children) != 1 or vp.children[0].symbol != "<vp_external7>":
            continue
        dat = vp.children[0]
        theme = dat.children[2].children[0]
        if theme.symbol != "<np_pp>" or dat.children[1].children[0].symbol == "<np_prop>":
            continue  # the grammar has no pp on a name, so none can move onto one
        if len(list(tree.find_all("<np_pp>"))) != 1:
            continue  # exactly one pp in the sentence, and it is on the theme
        pp_start = theme.children[1].pos
        theme_start = min(leaf.pos for leaf in theme.leaves())
        theme_end = max(leaf.pos for leaf in theme.leaves())
        new_tokens = (tokens[:theme_start] + tokens[pp_start:theme_end + 1]
                      + tokens[theme_start:pp_start] + tokens[theme_end + 1:])
        new_lf = lf_oracle(new_tokens, lexicon)
        if new_lf is None:
            raise ValueError(f"augmented sentence failed to reparse: {' '.join(new_tokens)}")
        out.append((" ".join(new_tokens), new_lf, AUGMENTED_CATEGORY))
    return out
