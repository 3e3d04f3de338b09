"""Input grammar (category-level, no terminals) and a parser over it.

The grammar generates every sentence shape of the task's English fragment at
the category level; words are supplied by the lexicon.  Unlike the training
distribution, ``<np>`` is uniform everywhere -- prepositional-phrase
modification is licensed in every noun-phrase position, including passive
subjects, which is exactly what the structural-generalization splits exploit.

Nonterminals wear angle brackets.  Leaf categories (empty right-hand sides)
are matched against words through their lexicon codes: ``CODE_LEAVES`` lists
each code's leaves, and the grammar's leaf entries are built from it.  An
ambiguous verb form offers every positional variant its codes allow and the
parser settles the rest.

Every recursive rule recurs only in last position (``<np_pp>``'s ``<np>``,
``<vp_external5>``'s ``<start>``), so the language is regular.  A leftmost
derivation read one leaf at a time keeps a stack of pending symbols, and
expanding the top never pushes it past five symbols: 50 stacks besides the
empty one are reachable.  They are compiled at import into a table of moves:
for each stack and each leaf category, the next stacks and the rules expanded
on the way to reading that leaf.  One walk over the table, left to right,
keeps each live stack once with one back-pointer and reads back the one
accepting run, each token's leaf and the rules expanded before it:
``parse_sentence`` builds the tree from it, ``class_expansions`` reads the
expansion keys off its rules.  The grammar is unambiguous over leaf strings
and over the lexicon's word classes (a test pins both), so no choice between
parses ever arises.  Nothing recurses, so no sentence length meets Python's
recursion limit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from . import lexicon as lx

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
    lx.V_UNACC_PP: ("<v_unacc_pp_p1>", "<v_unacc_pp_p2>"),
    lx.V_UNERG: ("<v_unerg>",),
    lx.V_INF: ("<v_inf>",),
    lx.V_DAT: ("<v_dat_p1>", "<v_dat_p2>"),
    lx.V_DAT_PP: ("<v_dat_pp_p1>", "<v_dat_pp_p2>", "<v_dat_pp_p3>", "<v_dat_pp_p4>"),
}

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
    **{leaf: [] for leaves in CODE_LEAVES.values() for leaf in leaves},
}

START = "<start>"

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
    return frozenset(_RULE_KEYS.values())


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


# A stack of pending symbols is a tuple with its top last.  A move reads one
# leaf: it is (next stack id, rules expanded on the way), each rule a
# (left-hand side, right-hand side) pair, in the order a leftmost derivation
# expands them.
_Rule = tuple[str, tuple[str, ...]]
_Move = tuple[int, tuple[_Rule, ...]]
_Step = tuple[tuple[_Rule, ...], str]  # a token's rules expanded and leaf read
_RULE_KEYS: dict[_Rule, str] = {  # all_expansion_keys and class_expansions read these
    (lhs, tuple(rhs)): expansion_key(lhs, rhs)
    for lhs, alts in COGS_INPUT_GRAMMAR_NO_TERMINALS.items() for rhs in alts}

_EMPTY_STACK, _START_STACK = 0, 1  # stack ids of () (accept) and (START,)


def _check_tail_recursion(grammar: dict[str, list[list[str]]]) -> None:
    """Raise ValueError if a nonterminal derives itself anywhere but in last
    position of a rule: the stacks of pending symbols would have no bound."""
    derives = {sym: {c for rhs in alts for c in rhs} for sym, alts in grammar.items()}
    grown = True
    while grown:  # to a fixed point: derives[s] holds every symbol s derives
        grown = False
        for reach in derives.values():
            more = set().union(*(derives[c] for c in reach)) - reach
            if more:
                reach |= more
                grown = True
    for lhs, alts in grammar.items():
        for rhs in alts:
            for sym in rhs[:-1]:
                if sym == lhs or lhs in derives[sym]:
                    raise ValueError(f"{lhs} recurs before the end of {expansion_key(lhs, rhs)}")


def _compile_moves(grammar: dict[str, list[list[str]]]) -> tuple[dict[str, tuple[_Move, ...]], ...]:
    """The grammar's stack automaton: ``moves[s][leaf]`` lists the moves from
    stack id s that read leaf.  Stack ids 0 and 1 are the empty stack (accept)
    and ``(START,)``; the others number the stacks in the order reached."""
    _check_tail_recursion(grammar)

    def reads(sym: str) -> list[tuple[str, tuple[str, ...], tuple[_Rule, ...]]]:
        # (leaf, symbols pushed above the rest of the stack, rules) for each
        # way sym's leftmost leaf is reached, down a chain of first children;
        # the check above leaves no cycle on such a chain but one of unit
        # rules, which would make the grammar infinitely ambiguous
        if not grammar[sym]:
            return [(sym, (), ())]
        return [(leaf, (*reversed(rhs[1:]), *pushed), ((sym, tuple(rhs)), *rules))
                for rhs in grammar[sym] for leaf, pushed, rules in reads(rhs[0])]

    stacks: list[tuple[str, ...]] = [(), (START,)]
    ids = {stack: k for k, stack in enumerate(stacks)}
    moves: list[dict[str, tuple[_Move, ...]]] = []
    for stack in stacks:  # grows while it is walked
        table: dict[str, list[_Move]] = {}
        for leaf, pushed, rules in reads(stack[-1]) if stack else ():
            nxt = stack[:-1] + pushed
            if nxt not in ids:
                ids[nxt] = len(stacks)
                stacks.append(nxt)
            table.setdefault(leaf, []).append((ids[nxt], rules))
        moves.append({leaf: tuple(options) for leaf, options in table.items()})
    return tuple(moves)


_MOVES = _compile_moves(COGS_INPUT_GRAMMAR_NO_TERMINALS)


def _accepting_run(token_classes: Sequence[frozenset[str]]) -> Optional[list[_Step]]:
    """The one accepting run of ``_MOVES`` over a sequence of leaf-class
    sets, read backwards: for each token, last first, the rules expanded on
    the way to it and the leaf it fills.  None when no run accepts, as for an
    empty sequence."""
    # steps[i]: each stack live after token i -> (stack before it, rules, leaf)
    steps: list[dict[int, tuple[int, tuple[_Rule, ...], str]]] = []
    live: Iterable[int] = (_START_STACK,)
    for classes in token_classes:
        step: dict[int, tuple[int, tuple[_Rule, ...], str]] = {}
        for stack in live:
            moves = _MOVES[stack]
            for leaf in classes:
                for nxt, rules in moves.get(leaf, ()):
                    if nxt not in step:
                        step[nxt] = (stack, rules, leaf)
        if not step:
            return None
        steps.append(step)
        live = step
    if _EMPTY_STACK not in live:
        return None
    stack, run = _EMPTY_STACK, []
    for step in reversed(steps):
        stack, rules, leaf = step[stack]
        run.append((rules, leaf))
    return run


def class_expansions(token_classes: Sequence[frozenset[str]]) -> frozenset[str]:
    """The expansion keys of the parse of a sequence of leaf-class sets,
    read off the accepting run; empty when it does not parse."""
    run = _accepting_run(token_classes) or ()
    return frozenset(_RULE_KEYS[rule] for rules, _leaf in run for rule in rules)


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
    run = _accepting_run([leaf_classes(t, lexicon) for t in tokens])
    if run is None:
        return None
    # The run read backwards is the tree's preorder reversed: each node comes
    # after its subtree, so its children are the top of ``built``, last first.
    built: list[Tree] = []
    for i, (rules, leaf) in zip(range(len(tokens) - 1, -1, -1), run):
        built.append(Tree(leaf, (), tokens[i], i))
        for lhs, rhs in reversed(rules):
            children = tuple(built[:-len(rhs) - 1:-1])
            del built[-len(rhs):]
            built.append(Tree(lhs, children))
    return built[0]
