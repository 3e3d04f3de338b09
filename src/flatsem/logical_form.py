"""The logical form: its records, layout and parsing, and the verdict on a prediction.

Records.  A form is made of ``Intro`` records (a noun's or a verb's
introduction) and ``Rel`` records (an nmod link, named ``nmod . prep``, or a
role relation such as ``agent``).  The tree oracle and the flat decoder both
write them into ``SentenceFacts``, ``serialize_facts`` lays them out, and
``parse_lf`` reads the same records back into an ``Lf``:

* every noun is introduced in sentence order, ``[*] label ( idx ) ;`` with a
  star when its determiner is "the";
* body conjuncts follow, joined by AND, ordered by the sentence position of
  the conjunct's head word: an ``nmod . prep`` conjunct sits at its modified
  noun, a verb's introduction and role conjuncts sit at the verb.

Indices are 0-based token positions in the input sentence.

Two ways to compare a prediction with gold:

* string exact match -- whitespace-tokenized equality;
* semantic exact match -- equality up to a bijective renaming of the
  instance indices.  Conjunct order never matters, star flags and labels do,
  and every relation must map consistently under one global bijection.

``classify_error`` is the one verdict on a row, and the only code that
compares two forms: ``exact`` or ``equivalent`` for a hit, ``attraction`` or
``other`` for a miss.  Two forms that differ only in conjunct order are a hit
without a parse: their conjuncts compare as strings, and one match of the
syntax checks the form.  Any other pair is parsed and searched for a
renaming.  ``semantic_exact_match`` is the verdict's hit test.  A
``SplitReport`` counts the rows' kinds, which gives both accuracies with an
exact (Clopper-Pearson) 95% interval on the semantic one.  Its bounds are the
binomial tail's roots in p, in numpy: P(X >= k) = alpha/2 for the lower one
and P(X <= k) = alpha/2 for the upper one, X ~ Binomial(n, p).  Each tail is
summed in log space and bisected on p to the last float; at k = 0 and k = n
the open bound has a closed form.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, NamedTuple

import numpy as np


class LfParseError(ValueError):
    pass


class Intro(NamedTuple):
    label: str
    idx: int
    star: bool = False


class Rel(NamedTuple):
    name: str  # "agent", "ccomp", ..., or "nmod . in"
    left: int
    right: int


@dataclass
class Lf:
    unary: list[Intro] = field(default_factory=list)
    binary: list[Rel] = field(default_factory=list)


@dataclass
class SentenceFacts:
    nouns: list[Intro] = field(default_factory=list)
    verbs: list[Intro] = field(default_factory=list)
    rels: list[Rel] = field(default_factory=list)  # nmod links and role relations


def serialize_facts(facts: SentenceFacts) -> str:
    """The form: the noun introductions joined by ";", then the body joined by "AND".

    A body conjunct sits at its left index, a verb's introduction before the
    relations that share it, each kind in the order the facts list them."""
    nouns = [f"{'* ' if i.star else ''}{i.label} ( {i.idx} )"
             for i in sorted(facts.nouns, key=lambda i: i.idx)]
    body = [(v.idx, f"{v.label} ( {v.idx} )") for v in facts.verbs]
    body += [(r.left, f"{r.name} ( {r.left} , {r.right} )") for r in facts.rels]
    body.sort(key=lambda item: item[0])
    return " ; ".join(nouns + [" AND ".join(c for _, c in body)] if body else nouns)


# The syntax of a form, stated once, over text whose tokens are joined by one
# space.  A conjunct is an introduction, ``[*] NAME ( INT )``, or a relation,
# ``NAME ( INT , INT )``, which takes no star.  A name is one or more tokens,
# none of them "(" or a separator, and a first token "*" is the star.  An
# index is what ``int`` reads: a sign, digits, single underscores between
# them, and at most 640 digits.  That is the lowest limit
# ``sys.set_int_max_str_digits`` accepts (``sys.int_info.str_digits_check_threshold``,
# an attribute Python 3.10.0-3.10.6 lack), so ``int`` converts every index the
# syntax admits, at any setting.  Conjuncts are joined by ";" or "AND", which
# mean the same here.
_INT = r"[+-]?\d(?:_?\d){0,639}"
_TOKEN = r"(?!(?:\(|;|AND)(?![^ ]))[^ ]+"
_NAME = rf"{_TOKEN}(?: {_TOKEN})*"
_CONJUNCT_SYNTAX = (rf"\* ({_NAME}) \( ({_INT}) \)"
                    rf"|(?!\* )({_NAME}) \( ({_INT}) (?:, ({_INT}) )?\)")
_CONJUNCT = re.compile(_CONJUNCT_SYNTAX)
_FORM = re.compile(rf"(?:{_CONJUNCT_SYNTAX})(?: (?:;|AND) (?:{_CONJUNCT_SYNTAX}))*")


def _normal(text: str) -> str:
    """The text's tokens joined by one space."""
    return " ".join(text.split())


def _pieces(form: str) -> list[str]:
    """A normalised form cut at each separator (a malformed form's pieces may
    hold one, but then they equal no piece of a well-formed form)."""
    return form.replace(" AND ", " ; ").split(" ; ")


def _same_conjuncts(a: str, b: str) -> bool:
    """Two normalised forms hold the same conjuncts, in any order."""
    return a == b or sorted(_pieces(a)) == sorted(_pieces(b))


def _parse(form: str, text: str) -> Lf:
    """The records of ``form``, a normalised form; ``text``, as given, is
    what an error quotes."""
    lf = Lf()
    for piece in _pieces(form):
        m = _CONJUNCT.fullmatch(piece)
        if m is None:
            raise LfParseError(f"malformed conjunct {piece!r} in: {text!r}")
        star_name, star_idx, name, left, right = m.groups()
        if right is None:
            lf.unary.append(Intro(star_name or name, int(star_idx or left), bool(star_name)))
        else:
            lf.binary.append(Rel(name, int(left), int(right)))
    return lf


def parse_lf(text: str) -> Lf:
    """Parse "x ( 1 ) ; * y ( 4 ) ; v ( 2 ) AND agent ( 2 , 1 ) AND ..." """
    return _parse(_normal(text), text)


def string_exact_match(a: str, b: str) -> bool:
    return a.split() == b.split()


def _renames(lfa: Lf, lfb: Lf) -> bool:
    """Some bijective renaming of the indices either form mentions maps
    ``lfa``'s records onto ``lfb``'s, found by a backtracking search."""
    if len(lfa.unary) != len(lfb.unary) or len(lfa.binary) != len(lfb.binary):
        return False

    # Bucket every index by all a bijection must preserve: the multiset of its
    # introductions and of the relation ends at it, as one sorted tuple (an
    # introduction leads with "", so no star is compared with an end's side).
    # A mismatch in bucket shapes settles it without any search.
    def buckets(lf: Lf) -> dict[tuple, list[int]]:
        marks: defaultdict[int, list] = defaultdict(list)
        for i in lf.unary:
            marks[i.idx].append(("", i.label, i.star))
        for r in lf.binary:
            marks[r.left].append((r.name, "L"))
            marks[r.right].append((r.name, "R"))
        out: defaultdict[tuple, list[int]] = defaultdict(list)
        for idx, held in marks.items():
            out[tuple(sorted(held))].append(idx)
        return out

    ba, bb = buckets(lfa), buckets(lfb)
    if ba.keys() != bb.keys() or any(len(ba[k]) != len(bb[k]) for k in ba):
        return False

    brels = Counter(lfb.binary)

    # Backtracking assignment on an explicit stack, most-constrained index
    # first; each mapped index immediately accounts for every relation it
    # completes, so wrong branches die at the first inconsistent edge.
    order = [(i, bb[key]) for key in sorted(ba, key=lambda key: len(ba[key])) for i in ba[key]]
    step = {i: k for k, (i, _) in enumerate(order)}
    completes: list[list[Rel]] = [[] for _ in order]  # per step, the relations its index completes
    for r in lfa.binary:
        completes[max(step[r.left], step[r.right])].append(r)
    mapping: dict[int, int] = {}
    used: set[int] = set()
    tries: list[Iterator[int]] = []  # per index of order tried, the candidates left for it
    taken: list[list[tuple]] = []  # per index mapped, the relations it accounted for
    while len(taken) < len(order):
        k = len(taken)
        i, candidates = order[k]
        if len(tries) == k:
            tries.append(iter(candidates))
        for j in tries[k]:
            if j in used:
                continue
            mapping[i] = j
            done = [(n, mapping[l], mapping[r]) for n, l, r in completes[k]]
            fits = True
            for key in done:  # each taken out of b's relations, none of which may run short
                brels[key] -= 1
                fits = fits and brels[key] >= 0
            if fits:
                used.add(j)
                taken.append(done)
                break
            brels.update(done)
            del mapping[i]
        else:  # no candidate left for i: undo the choice before it
            tries.pop()
            if not taken:
                return False
            brels.update(taken.pop())
            used.discard(mapping.pop(order[k - 1][0]))
    return True


# The kinds that are semantic hits.
HITS = ("exact", "equivalent")


@dataclass
class ErrorReport:
    kind: str  # exact | equivalent | attraction | other, or why no form was read
    detail: str = ""


def classify_error(expected: str, actual: str) -> ErrorReport:
    """The verdict on a prediction: its kind, and for a miss what differs.

    The cheapest test runs first.  A string match is ``exact`` and the same
    conjuncts in another order are ``equivalent``, once the gold is well
    formed: a malformed string matches nothing, itself included.  Any other
    pair is parsed once per side and searched once for a renaming.
    "attraction" is the signature mistake of dropping the pp filter: the same
    atoms but one role conjunct, whose right argument moved.
    """
    exp, act = _normal(expected), _normal(actual)
    if _same_conjuncts(exp, act) and _FORM.fullmatch(exp):
        return ErrorReport("exact" if exp == act else "equivalent")
    try:
        lfe, lfa = _parse(exp, expected), _parse(act, actual)
    except LfParseError as e:
        return ErrorReport("other", detail=f"unparseable: {e}")
    if _renames(lfe, lfa):
        return ErrorReport("equivalent")
    if Counter(lfe.unary) != Counter(lfa.unary):
        return ErrorReport("other", detail="introduced instances differ")
    # the relations one side holds more often, as the plain tuples the detail prints
    exp_bin, act_bin = Counter(map(tuple, lfe.binary)), Counter(map(tuple, lfa.binary))
    missing, extra = sorted((exp_bin - act_bin).elements()), sorted((act_bin - exp_bin).elements())
    if len(missing) == 1 and len(extra) == 1:
        (en, el, er), (an, al, ar) = missing[0], extra[0]
        if en == an and el == al and er != ar:
            return ErrorReport("attraction",
                               detail=f"{en} ( {el} , {er} ) became {an} ( {al} , {ar} )")
    return ErrorReport("other", detail=f"role conjuncts differ: -{missing} +{extra}")


def semantic_exact_match(a: str, b: str) -> bool:
    """Equality up to bijective renaming of instance indices: the verdict is a hit."""
    return classify_error(a, b).kind in HITS


def clopper_pearson(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval for k successes out of n."""
    if not isinstance(k, Integral) or not isinstance(n, Integral):
        raise ValueError(f"k and n must be integers; got k={k!r} n={n!r}")
    if not 0 <= k <= n or n <= 0:
        raise ValueError(f"need 0 <= k <= n, n > 0; got k={k} n={n}")
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1; got alpha={alpha}")
    edge = (alpha / 2) ** (1 / n)  # the one open bound when k is 0 or n
    if k == 0:
        return 0.0, 1 - edge
    if k == n:
        return edge, 1.0
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_binom = log_fact[n] - log_fact - log_fact[::-1]  # log C(n, j), j = 0..n
    j = np.arange(n + 1)
    target = math.log(alpha / 2)

    def root(js, rising: bool) -> float:
        """Bisect p until log P(X in js) = target; the mass rises with p or falls."""
        coef, lo, hi = log_binom[js], 0.0, 1.0
        while (p := (lo + hi) / 2) not in (lo, hi):
            t = coef + js * math.log(p) + (n - js) * math.log1p(-p)
            top = t.max()
            if (top + math.log(np.exp(t - top).sum()) < target) == rising:
                lo = p
            else:
                hi = p
        return p

    return root(j[k:], True), root(j[:k + 1], False)


@dataclass
class SplitReport:
    name: str
    kinds: Counter = field(default_factory=Counter)  # rows per kind

    @property
    def n(self) -> int:
        return sum(self.kinds.values())

    @property
    def sem_hits(self) -> int:
        return sum(self.kinds[kind] for kind in HITS)

    @property
    def em_hits(self) -> int:
        return self.kinds["exact"]

    @property
    def sem(self) -> float:
        return self.sem_hits / self.n if self.n else 0.0

    @property
    def em(self) -> float:
        return self.em_hits / self.n if self.n else 0.0

    @property
    def ci(self) -> tuple[float, float]:
        if not self.n:
            return 0.0, 1.0
        return clopper_pearson(self.sem_hits, self.n)

    def format(self) -> str:
        lo, hi = self.ci
        return (f"split={self.name} n={self.n} sem={self.sem:.4f} em={self.em:.4f} "
                f"ci_low={lo:.4f} ci_high={hi:.4f}")
