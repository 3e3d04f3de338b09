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
The grammar is compiled once, at import, into tables, with prediction
compiled ahead of time as Aycock & Horspool (2002) propose.  A rule with its
dot at one place is a dotted-rule id, read through two tables (the symbol
after the dot, the rule's left-hand side), and chart items are
``(dotted rule, origin)`` int pairs.  Each chart column keeps its
items in lists keyed by the symbol they wait on, so a completed span advances
only the items waiting on its symbol at its origin.  A nonterminal is
predicted at most once per column, through its left-corner closure for each
leaf category of the word there: the dot-0 items of the rules reached through
first children whose FIRST set (the leaf categories their spans can start
with) holds that leaf.  The rules a closure leaves out could never scan
there, so the chart holds the spans of one that predicts every rule.  The
chart's product is the map of completed spans ``(symbol, start) -> {ends}``.
Extraction reads that map top down and breadth first: each node takes the
first of its rules that fits its span, and within the rule each child takes
its shortest span that lets the rest match.  Nothing recurses per tree level,
so every sentence up to ``MAX_SEQ_LEN`` tokens parses at Python's default
recursion limit.
"""

from __future__ import annotations

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

# Lexicon code -> its leaf categories as one frozenset, built once for leaf_classes.
_CODE_CLASSES: dict[int, frozenset[str]] = {
    code: frozenset(leaves) for code, leaves in CODE_LEAVES.items()}


class Tree:
    """Parse node.  Leaves carry the word and its 0-based sentence position.

    Immutable: assigning or deleting a field raises ``AttributeError``.  The
    constructor, equality, hash and repr are those of a frozen dataclass with
    these four fields, but every traversal uses an explicit stack, so trees of
    any depth work at the default recursion limit.
    """

    __slots__ = ("symbol", "children", "word", "pos")
    symbol: str
    children: tuple["Tree", ...]
    word: Optional[str]
    pos: Optional[int]

    def __init__(self, symbol: str, children: tuple["Tree", ...] = (),
                 word: Optional[str] = None, pos: Optional[int] = None) -> None:
        # the slots' own descriptors fill them, past the __setattr__ that refuses
        _set_symbol(self, symbol)
        _set_children(self, children)
        _set_word(self, word)
        _set_pos(self, pos)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Tree is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: Tree is immutable")

    def __reduce__(self):
        return Tree, (self.symbol, self.children, self.word, self.pos)

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


_set_symbol, _set_children, _set_word, _set_pos = (
    getattr(Tree, field).__set__ for field in Tree.__slots__)


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
    """Leaf categories this word may fill, via its lexicon codes: a one-code
    word's set is its code's, a word of several codes gets their union.  A
    "." fills none: the grammar has no place for one inside a sentence."""
    if word == ".":
        return frozenset()
    codes = lexicon.codes(word)
    if len(codes) == 1:
        return _CODE_CLASSES[codes[0]]
    return frozenset().union(*[_CODE_CLASSES[code] for code in codes])


# The grammar compiled once into tables.  Rule r rewrites _LHS[r] as _RHS[r];
# _RULES_OF lists a nonterminal's rules in their listed order.
_LHS: tuple[str, ...] = tuple(
    lhs for lhs, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() for _ in alts)
_RHS: tuple[tuple[str, ...], ...] = tuple(
    tuple(rhs) for alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.values() for rhs in alts)
_RULES_OF: dict[str, tuple[int, ...]] = {
    sym: tuple(r for r, lhs in enumerate(_LHS) if lhs == sym)
    for sym, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() if alts
}

# Dotted rules: rule r with its dot before child k has id _DOT0[r] + k, so
# moving the dot over a child adds one.  _NEXT[d] is the symbol after the dot,
# None once the rule is complete, and _DOT_LHS[d] the rule's left-hand side.
_DOT0: tuple[int, ...] = tuple(r + sum(map(len, _RHS[:r])) for r in range(len(_RHS)))
_NEXT: tuple[Optional[str], ...] = tuple(
    sym for rhs in _RHS for sym in (*rhs, None))
_DOT_LHS: tuple[str, ...] = tuple(
    lhs for lhs, rhs in zip(_LHS, _RHS) for _ in range(len(rhs) + 1))


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


def _left_corner_closures() -> dict[str, dict[str, tuple[tuple[str, int], ...]]]:
    """nonterminal -> leaf -> the dot-0 items predicting the nonterminal
    makes in a column whose word fills that leaf, as (first child, dotted id).

    They are the rules reached from the nonterminal through first children
    whose FIRST set holds the leaf; a rule whose FIRST set misses it could
    never scan there.  A leaf outside the nonterminal's FIRST set has no
    entry.
    """
    first = _first_sets()
    closures: dict[str, dict[str, tuple[tuple[str, int], ...]]] = {}
    for sym in _RULES_OF:
        closures[sym] = {}
        for leaf in first[sym]:
            items: list[tuple[str, int]] = []
            reached, stack = {sym}, [sym]
            while stack:
                for r in _RULES_OF[stack.pop()]:
                    child = _RHS[r][0]
                    if leaf in first[child]:
                        items.append((child, _DOT0[r]))
                        if child in _RULES_OF and child not in reached:
                            reached.add(child)
                            stack.append(child)
            closures[sym][leaf] = tuple(items)
    return closures


_CLOSURE = _left_corner_closures()


def _predict(wait: dict[str, list[tuple[int, int]]], sym: str,
             classes: frozenset[str], i: int) -> None:
    """Predict nonterminal sym in column i: put the dot-0 items of its
    left-corner closure for each leaf category of the column's word into the
    column's waiting lists, each under its rule's first child."""
    closure = _CLOSURE[sym]
    for leaf in classes:
        for child, dot in closure.get(leaf, ()):
            waiters = wait.get(child)
            if waiters is None:
                wait[child] = [(dot, i)]
            else:
                waiters.append((dot, i))


def _earley_chart(token_classes: list[frozenset[str]]) -> dict[tuple[str, int], set[int]]:
    """Earley recognition; returns completed spans (symbol, start) -> {ends}.

    Items are ``(dotted rule, origin)`` int pairs, read through ``_NEXT`` and
    ``_DOT_LHS``.  Each column keeps its items in waiting lists keyed by the
    symbol after the dot.  The first item to wait on a nonterminal predicts
    it: ``_predict`` puts the dot-0 items of its left-corner closures straight
    into the waiting lists.  An item waiting on a leaf category the word does
    not fill can never scan, so it is dropped.  The completer advances the
    waiters on the completed symbol at its origin, once per completed span,
    and after a column is closed the scanner advances the waiters on each
    leaf category its word fills.  The scanner moves dots over leaves and the
    completer over nonterminals, so their items never coincide and only the
    completer's need a seen check.  The grammar has no epsilon rules, so
    nothing completes over an empty span and a column's waiters are all known
    before any completion looks them up.  The last column has no word and
    predicts nothing.  The completed spans are those of a chart that
    predicts every rule.  A dot-0 item that two closures in one column share
    would wait twice, which costs time only: spans are sets and the
    completer's items are deduplicated.
    """
    n = len(token_classes)
    completed: dict[tuple[str, int], set[int]] = {}
    waiting: list[dict[str, list[tuple[int, int]]]] = []
    agenda: list[tuple[int, int]] = []
    next_sym, dot_lhs, closures = _NEXT, _DOT_LHS, _CLOSURE
    for i in range(n + 1):
        classes = token_classes[i] if i < n else frozenset()
        wait: dict[str, list[tuple[int, int]]] = {}
        waiting.append(wait)
        if i == 0:
            _predict(wait, START, classes, 0)
        seen: set[tuple[int, int]] = set()  # advanced by the completer in this column
        while agenda:
            item = agenda.pop()
            dot, origin = item
            sym = next_sym[dot]
            if sym is not None:
                waiters = wait.get(sym)
                if waiters is not None:
                    waiters.append(item)
                elif sym in closures:
                    wait[sym] = [item]
                    _predict(wait, sym, classes, i)
                elif sym in classes:  # a leaf the word fills; any other never scans
                    wait[sym] = [item]
                continue
            lhs = dot_lhs[dot]
            ends = completed.get((lhs, origin))
            if ends is None:
                completed[(lhs, origin)] = {i}
            elif i in ends:
                continue  # this span is already completed, its waiters advanced
            else:
                ends.add(i)
            for d, o in waiting[origin].get(lhs, ()):  # completer
                nxt = (d + 1, o)
                if nxt not in seen:
                    seen.add(nxt)
                    agenda.append(nxt)
        if i < n:
            for leaf in classes:  # scanner
                waiters = wait.get(leaf)
                if waiters:
                    completed[(leaf, i)] = {i + 1}
                    agenda += [(d + 1, o) for d, o in waiters]
    return completed


def _bounds(rhs: tuple[str, ...], k: int, i: int, j: int, completed) -> Optional[list[int]]:
    """Boundaries [i, ..., j] of the first split of [i, j) among rhs[k:]:
    each earlier child takes its shortest span that lets the rest match.
    None when no split matches.  Recursion depth is at most len(rhs)."""
    ends = completed.get((rhs[k], i), ())
    if k == len(rhs) - 1:
        return [i, j] if j in ends else None
    for end in sorted(ends):
        if end >= j:
            break
        rest = _bounds(rhs, k + 1, end, j, completed)
        if rest is not None:
            return [i, *rest]
    return None


def _extract(tokens: list[str], completed) -> Tree:
    """First parse of the tokens from START, trying expansions in listed order.

    Every child span, leaves included, is read from the completed spans: a
    split the chart's items walked through has all of its children's spans
    recorded there.  A unit rule fits when its child completes the node's
    span, one lookup.  Nodes are expanded breadth first into a flat list, so
    a node's children sit side by side after it, and trees are then built
    from the end of the list back: Python's stack stays shallow at any
    sentence length.
    """
    nodes = [(START, 0, len(tokens))]
    kids: list[Optional[slice]] = []
    for sym, i, j in nodes:  # grows while it is walked
        rules = _RULES_OF.get(sym)
        if rules is None:
            kids.append(None)
            continue
        for r in rules:
            rhs = _RHS[r]
            if len(rhs) == 1:
                if j in completed.get((rhs[0], i), ()):
                    kids.append(slice(len(nodes), len(nodes) + 1))
                    nodes.append((rhs[0], i, j))
                    break
            else:
                bounds = _bounds(rhs, 0, i, j, completed)
                if bounds is not None:
                    kids.append(slice(len(nodes), len(nodes) + len(rhs)))
                    nodes += zip(rhs, bounds, bounds[1:])
                    break
    trees: list[Tree] = [None] * len(nodes)  # type: ignore[list-item]
    for k in range(len(nodes) - 1, -1, -1):
        sym, i, _ = nodes[k]
        children = kids[k]
        trees[k] = (Tree(sym, (), tokens[i], i) if children is None
                    else Tree(sym, tuple(trees[children])))
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
    completed = _earley_chart([leaf_classes(t, lexicon) for t in tokens])
    if len(tokens) not in completed.get((START, 0), ()):
        return None
    return _extract(tokens, completed)
