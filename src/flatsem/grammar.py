"""Input grammar (category-level, no terminals) and a chart parser over it.

The grammar generates every sentence shape of the task's English fragment at
the category level; words are supplied by the lexicon.  Unlike the training
distribution, ``<np>`` is uniform everywhere -- prepositional-phrase
modification is licensed in every noun-phrase position, including passive
subjects, which is exactly what the structural-generalization splits exploit.

Nonterminals wear angle brackets.  Leaf categories (empty right-hand sides)
are matched against words through their lexicon codes; an ambiguous verb form
offers every positional variant its codes allow and the parser settles the
rest.  Parses are deterministic: ambiguity resolves to the first listed
expansion.

Parsing is Earley recognition (Earley 1970) followed by tree extraction.
The grammar is compiled once, at import, into rule tables, and chart items
are plain ``(rule, dot, origin)`` int tuples.  Each chart column indexes its
items by the symbol they wait on, so a nonterminal is predicted at most once
per column and a completed span advances only the items waiting on its
symbol at its origin.  A rule is predicted only where its FIRST set, the leaf
categories its spans can start with (computed once, at import), meets the
leaf categories of the word at that column; the rules this skips could never
scan there, so the chart holds the same spans.  The chart's product is the
map of completed spans ``(symbol, start) -> {ends}``.  Extraction reads that
map top down and breadth first: each node takes the first of its rules that
fits its span, and within the rule each child takes its shortest span that
lets the rest match.  Nothing recurses per tree level, so every sentence up to
``MAX_SEQ_LEN`` tokens parses at Python's default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import lexicon as lx

COGS_INPUT_GRAMMAR_NO_TERMINALS: dict[str, list[list[str]]] = {
    "<start>": [["<s1>"], ["<s2>"], ["<s3>"], ["<s4>"], ["<vp_internal>"]],
    "<s1>": [["<np>", "<vp_external>"]],
    "<s2>": [["<np>", "<was>", "<vp_passive>"]],
    "<s3>": [["<np>", "<was>", "<vp_passive_dat>"]],
    "<s4>": [["<np>", "<vp_external4>"]],
    "<vp_internal>": [["<np>", "<v_unacc_p2>"]],
    "<vp_external>": [
        ["<v_unerg>"],
        ["<v_trans_omissible_p1>"],
        ["<vp_external1>"],
        ["<vp_external2>"],
        ["<vp_external3>"],
        ["<vp_external5>"],
        ["<vp_external6>"],
        ["<vp_external7>"],
    ],
    "<vp_external1>": [["<v_unacc_p1>", "<np>"]],
    "<vp_external2>": [["<v_trans_omissible_p2>", "<np>"]],
    "<vp_external3>": [["<v_trans_not_omissible>", "<np>"]],
    "<vp_external4>": [["<v_inf_taking>", "<to>", "<v_inf>"]],
    "<vp_external5>": [["<v_cp_taking>", "<that>", "<start>"]],
    "<vp_external6>": [["<v_dat_p1>", "<np>", "<pp_iobj>"]],
    "<vp_external7>": [["<v_dat_p2>", "<np>", "<np>"]],
    "<vp_passive>": [
        ["<vp_passive1>"],
        ["<vp_passive2>"],
        ["<vp_passive3>"],
        ["<vp_passive4>"],
        ["<vp_passive5>"],
        ["<vp_passive6>"],
        ["<vp_passive7>"],
        ["<vp_passive8>"],
    ],
    "<vp_passive1>": [["<v_trans_not_omissible_pp_p1>"]],
    "<vp_passive2>": [["<v_trans_not_omissible_pp_p2>", "<by>", "<np>"]],
    "<vp_passive3>": [["<v_trans_omissible_pp_p1>"]],
    "<vp_passive4>": [["<v_trans_omissible_pp_p2>", "<by>", "<np>"]],
    "<vp_passive5>": [["<v_unacc_pp_p1>"]],
    "<vp_passive6>": [["<v_unacc_pp_p2>", "<by>", "<np>"]],
    "<vp_passive7>": [["<v_dat_pp_p1>", "<pp_iobj>"]],
    "<vp_passive8>": [["<v_dat_pp_p2>", "<pp_iobj>", "<by>", "<np>"]],
    "<vp_passive_dat>": [["<vp_passive_dat1>"], ["<vp_passive_dat2>"]],
    "<vp_passive_dat1>": [["<v_dat_pp_p3>", "<np>"]],
    "<vp_passive_dat2>": [["<v_dat_pp_p4>", "<np>", "<by>", "<np>"]],
    "<np>": [["<np_det>"], ["<np_prop>"], ["<np_pp>"]],
    "<np_det>": [["<det>", "<common_noun>"]],
    "<np_prop>": [["<proper_noun>"]],
    "<np_pp>": [["<np_det>", "<pp>", "<np>"]],
    "<pp_iobj>": [["<to>", "<np>"]],
    # leaves: matched against lexicon codes
    "<det>": [],
    "<pp>": [],
    "<was>": [],
    "<by>": [],
    "<to>": [],
    "<that>": [],
    "<common_noun>": [],
    "<proper_noun>": [],
    "<v_trans_omissible_p1>": [],
    "<v_trans_omissible_p2>": [],
    "<v_trans_omissible_pp_p1>": [],
    "<v_trans_omissible_pp_p2>": [],
    "<v_trans_not_omissible>": [],
    "<v_trans_not_omissible_pp_p1>": [],
    "<v_trans_not_omissible_pp_p2>": [],
    "<v_cp_taking>": [],
    "<v_inf_taking>": [],
    "<v_unacc_p1>": [],
    "<v_unacc_p2>": [],
    "<v_unacc_pp_p1>": [],
    "<v_unacc_pp_p2>": [],
    "<v_unerg>": [],
    "<v_inf>": [],
    "<v_dat_p1>": [],
    "<v_dat_p2>": [],
    "<v_dat_pp_p1>": [],
    "<v_dat_pp_p2>": [],
    "<v_dat_pp_p3>": [],
    "<v_dat_pp_p4>": [],
}

START = "<start>"

# Lexicon code -> leaf categories a word with that code can fill.
CODE_LEAVES: dict[int, tuple[str, ...]] = {
    lx.DET: ("<det>",),
    lx.PP: ("<pp>",),
    lx.WAS: ("<was>",),
    lx.BY: ("<by>",),
    lx.TO: ("<to>",),
    lx.THAT: ("<that>",),
    lx.COMMON_NOUN: ("<common_noun>",),
    lx.PROPER_NOUN: ("<proper_noun>",),
    lx.V_TRANS_OMISSIBLE: ("<v_trans_omissible_p1>", "<v_trans_omissible_p2>"),
    lx.V_TRANS_OMISSIBLE_PP: ("<v_trans_omissible_pp_p1>", "<v_trans_omissible_pp_p2>"),
    lx.V_TRANS_NOT_OMISSIBLE: ("<v_trans_not_omissible>",),
    lx.V_TRANS_NOT_OMISSIBLE_PP: ("<v_trans_not_omissible_pp_p1>", "<v_trans_not_omissible_pp_p2>"),
    lx.V_CP_TAKING: ("<v_cp_taking>",),
    lx.V_INF_TAKING: ("<v_inf_taking>",),
    lx.V_UNACC: ("<v_unacc_p1>", "<v_unacc_p2>"),
    lx.V_UNERG: ("<v_unerg>",),
    lx.V_INF: ("<v_inf>",),
    lx.V_DAT: ("<v_dat_p1>", "<v_dat_p2>"),
    lx.V_DAT_PP: ("<v_dat_pp_p1>", "<v_dat_pp_p2>", "<v_dat_pp_p3>", "<v_dat_pp_p4>"),
    lx.V_UNACC_PP: ("<v_unacc_pp_p1>", "<v_unacc_pp_p2>"),
}

# Leaf category -> the one lexicon code a word needs to fill it.
LEAF_CODE: dict[str, int] = {leaf: code for code, leaves in CODE_LEAVES.items() for leaf in leaves}


@dataclass(frozen=True, eq=False, repr=False)
class Tree:
    """Parse node.  Leaves carry the word and its 0-based sentence position.

    Equality, hash and repr are a dataclass's, but every traversal uses an
    explicit stack, so trees of any depth work at the default recursion limit.
    """

    symbol: str
    children: tuple["Tree", ...] = ()
    word: Optional[str] = None
    pos: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.word is not None

    def walk(self) -> Iterator["Tree"]:
        """Every node in preorder, read with an explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.children)

    def _labels(self) -> list[tuple]:
        # preorder (symbol, word, pos, child count): the whole structure
        return [(n.symbol, n.word, n.pos, len(n.children)) for n in self.walk()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or self._labels() == other._labels()

    def __hash__(self) -> int:
        return hash(tuple(self._labels()))

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list[Tree | str] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            kids = node.children
            parts.append(f"Tree(symbol={node.symbol!r}, children=(")
            stack.append(f"{',' if len(kids) == 1 else ''}), word={node.word!r}, pos={node.pos!r})")
            for k in range(len(kids) - 1, -1, -1):  # children left to right, comma separated
                stack += [kids[k], ", "] if k else [kids[k]]
        return "".join(parts)

    def leaves(self) -> Iterator["Tree"]:
        return (node for node in self.walk() if node.is_leaf)

    def find_all(self, symbol: str) -> Iterator["Tree"]:
        return (node for node in self.walk() if node.symbol == symbol)


def expansion_key(lhs: str, rhs: list[str] | tuple[str, ...]) -> str:
    return f"{lhs} -> {' '.join(rhs)}"


def all_expansion_keys() -> frozenset[str]:
    return frozenset(expansion_key(lhs, rhs)
                     for lhs, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() for rhs in alts)


def tree_expansions(tree: Tree) -> set[str]:
    """Expansion keys used by a parse tree (leaves contribute none)."""
    return {expansion_key(node.symbol, tuple(c.symbol for c in node.children))
            for node in tree.walk() if not node.is_leaf}


def leaf_classes(word: str, lexicon: lx.Lexicon) -> frozenset[str]:
    """Leaf categories this word may fill, via its lexicon codes.  A "."
    fills none: the grammar has no place for one inside a sentence."""
    if word == ".":
        return frozenset()
    classes: set[str] = set()
    for code in lexicon.codes(word):
        classes.update(CODE_LEAVES[code])
    return frozenset(classes)


# The grammar compiled once into rule tables: rule r rewrites _LHS[r] as
# _RHS[r]; _RULES_OF lists a nonterminal's rules in their listed order.
_LHS: tuple[str, ...] = tuple(
    lhs for lhs, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() for _ in alts)
_RHS: tuple[tuple[str, ...], ...] = tuple(
    tuple(rhs) for alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.values() for rhs in alts)
_RULES_OF: dict[str, tuple[int, ...]] = {
    sym: tuple(r for r, lhs in enumerate(_LHS) if lhs == sym)
    for sym, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() if alts
}


def _first_sets() -> dict[str, frozenset[str]]:
    """Each symbol's FIRST set: the leaf categories its derivations can start
    with (a leaf's is itself), grown to a fixed point over the rules."""
    first = {sym: set() if alts else {sym}
             for sym, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items()}
    grown = True
    while grown:
        grown = False
        for lhs, rhs in zip(_LHS, _RHS):
            if not first[rhs[0]] <= first[lhs]:
                first[lhs] |= first[rhs[0]]
                grown = True
    return {sym: frozenset(leaves) for sym, leaves in first.items()}


# _STARTS[r]: the leaf categories a span of rule r can start with
_FIRST = _first_sets()
_STARTS: tuple[frozenset[str], ...] = tuple(_FIRST[rhs[0]] for rhs in _RHS)


def _earley_chart(token_classes: list[frozenset[str]]) -> dict[tuple[str, int], set[int]]:
    """Earley recognition; returns completed spans (symbol, start) -> {ends}.

    Items are ``(rule, dot, origin)`` int tuples.  Each column indexes its
    items by the symbol they wait on: the first waiter on a nonterminal
    predicts its rules (so each is predicted once per column), the completer
    advances only the waiters on the completed symbol at its origin, and
    after a column is closed the scanner advances the waiters on each leaf
    category its word fills.  The grammar has no epsilon rules, so nothing
    completes over an empty span and a column's waiters are all known before
    any completion looks them up.  For the same reason a rule whose FIRST set
    misses every leaf category of the column's word could never scan: it is
    not predicted, and the last column, which has no word, predicts nothing.
    The completed spans are those of the unfiltered chart.
    """
    n = len(token_classes)
    waiting: list[dict[str, list[tuple[int, int, int]]]] = []
    completed: dict[tuple[str, int], set[int]] = {}
    agenda = [(r, 0, 0) for r in _RULES_OF[START]
              if n and not _STARTS[r].isdisjoint(token_classes[0])]
    for i in range(n + 1):
        wait: dict[str, list[tuple[int, int, int]]] = {}
        waiting.append(wait)
        seen = set(agenda)
        classes = token_classes[i] if i < n else frozenset()
        while agenda:
            item = agenda.pop()
            rule, dot, origin = item
            rhs = _RHS[rule]
            if dot < len(rhs):
                sym = rhs[dot]
                waiters = wait.get(sym)
                if waiters is None:
                    wait[sym] = [item]
                    # predictor; an item with its dot at 0 is never made
                    # again by the completer or the scanner, so needs no seen
                    agenda += [(r, 0, i) for r in _RULES_OF.get(sym, ())
                               if not _STARTS[r].isdisjoint(classes)]
                else:
                    waiters.append(item)
                continue
            ends = completed.setdefault((_LHS[rule], origin), set())
            if i in ends:
                continue  # this span is already completed, its waiters advanced
            ends.add(i)
            for r, d, o in waiting[origin].get(_LHS[rule], ()):  # completer
                nxt = (r, d + 1, o)
                if nxt not in seen:
                    seen.add(nxt)
                    agenda.append(nxt)
        if i < n:
            for leaf in token_classes[i]:  # scanner
                waiters = wait.get(leaf)
                if waiters:
                    completed[(leaf, i)] = {i + 1}
                    agenda.extend((r, d + 1, o) for r, d, o in waiters)
    return completed


def _bounds(rhs: tuple[str, ...], k: int, i: int, j: int, token_classes,
            completed) -> Optional[list[int]]:
    """Boundaries [i, ..., j] of the first split of [i, j) among rhs[k:]:
    each earlier child takes its shortest span that lets the rest match.
    None when no split matches.  Recursion depth is at most len(rhs)."""
    sym = rhs[k]
    if sym in _RULES_OF:
        ends = completed.get((sym, i), ())
    else:
        ends = (i + 1,) if i < j and sym in token_classes[i] else ()
    if k == len(rhs) - 1:
        return [i, j] if j in ends else None
    for end in sorted(e for e in ends if e < j):
        rest = _bounds(rhs, k + 1, end, j, token_classes, completed)
        if rest is not None:
            return [i, *rest]
    return None


def _extract(tokens: list[str], token_classes, completed) -> Tree:
    """First parse of the tokens from START, trying expansions in listed order.

    Nodes are expanded breadth first into a flat list, so children always
    come after their parent, and trees are then built from the end of the
    list back: Python's stack stays shallow at any sentence length.
    """
    nodes = [(START, 0, len(tokens))]
    kids: list[Optional[range]] = []
    for sym, i, j in nodes:  # grows while it is walked
        rules = _RULES_OF.get(sym)
        if rules is None:
            kids.append(None)
            continue
        for r in rules:
            bounds = _bounds(_RHS[r], 0, i, j, token_classes, completed)
            if bounds is not None:
                break
        kids.append(range(len(nodes), len(nodes) + len(bounds) - 1))
        nodes += zip(_RHS[r], bounds, bounds[1:])
    trees: list[Tree] = [None] * len(nodes)  # type: ignore[list-item]
    for k in range(len(nodes) - 1, -1, -1):
        sym, i, _ = nodes[k]
        trees[k] = (Tree(sym, word=tokens[i], pos=i) if kids[k] is None
                    else Tree(sym, tuple(map(trees.__getitem__, kids[k]))))
    return trees[0]


def parse_sentence(tokens: list[str], lexicon: lx.Lexicon | None = None) -> Optional[Tree]:
    """Parse a token list (or space-joined string); None when out of grammar.

    A trailing "." is not part of the grammar and is skipped, but positions of
    the remaining tokens are untouched, so leaf positions always equal the
    0-based index in the original sentence.  A "." anywhere else makes the
    sentence out of grammar; an out-of-lexicon word raises ``LexiconError``.
    """
    if isinstance(tokens, str):
        tokens = tokens.split()
    if lexicon is None:
        lexicon = lx.default_lexicon()
    tokens = [t.lower() for t in tokens]
    if tokens and tokens[-1] == ".":
        tokens = tokens[:-1]
    if not tokens:
        return None
    token_classes = [leaf_classes(t, lexicon) for t in tokens]
    completed = _earley_chart(token_classes)
    if len(tokens) not in completed.get((START, 0), ()):
        return None
    return _extract(tokens, token_classes, completed)
