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
  Two forms that differ only in conjunct order match without a parse: their
  conjuncts compare as strings, and one match of the syntax checks the form.

``classify_error`` is the one verdict on a row: ``exact`` or ``equivalent``
for a hit, ``attraction`` or ``other`` for a miss.  ``tally`` sums the
rows' kinds into a split's report, which gives both accuracies with an exact
(Clopper-Pearson) 95% interval on the semantic one.  Its bounds are the
binomial tail's roots in p, in numpy: P(X >= k) = alpha/2 for the lower one
and P(X <= k) = alpha/2 for the upper one, X ~ Binomial(n, p).  Each tail is
summed in log space and bisected on p to the last float; at k = 0 and k = n
the open bound has a closed form.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Iterator, NamedTuple, Optional

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


def parse_lf(text: str) -> Lf:
    """Parse "x ( 1 ) ; * y ( 4 ) ; v ( 2 ) AND agent ( 2 , 1 ) AND ..." """
    lf = Lf()
    for piece in _pieces(_normal(text)):
        m = _CONJUNCT.fullmatch(piece)
        if m is None:
            raise LfParseError(f"malformed conjunct {piece!r} in: {text!r}")
        star_name, star_idx, name, left, right = m.groups()
        if right is None:
            lf.unary.append(Intro(star_name or name, int(star_idx or left), bool(star_name)))
        else:
            lf.binary.append(Rel(name, int(left), int(right)))
    return lf


def string_exact_match(a: str, b: str) -> bool:
    return a.split() == b.split()


def semantic_exact_match(a: str | Lf, b: str | Lf) -> bool:
    """Equality up to bijective renaming of instance indices.

    Two strings that hold the same conjuncts, in any order, match exactly
    when one is well formed: the identity renaming maps one onto the other.
    Any other pair is parsed, and a backtracking search looks for a renaming
    of all the indices either form mentions."""
    if isinstance(a, str) and isinstance(b, str):
        a, b = _normal(a), _normal(b)
        if _same_conjuncts(a, b):
            return _FORM.fullmatch(a) is not None
    try:
        lfa = parse_lf(a) if isinstance(a, str) else a
        lfb = parse_lf(b) if isinstance(b, str) else b
    except LfParseError:
        return False
    if len(lfa.unary) != len(lfb.unary) or len(lfa.binary) != len(lfb.binary):
        return False

    # Bucket every index by all a bijection must preserve: the multiset of its
    # introductions, empty for an index no conjunct introduces, and the
    # relations at either end of it.  A mismatch in bucket shapes settles it
    # without any search.
    def buckets(lf: Lf) -> dict[tuple, list[int]]:
        keys: dict[int, list] = {}
        for i in lf.unary:
            keys.setdefault(i.idx, [[]])[0].append((i.label, i.star))
        for r in lf.binary:
            keys.setdefault(r.left, [[]]).append((r.name, "L"))
            keys.setdefault(r.right, [[]]).append((r.name, "R"))
        out: dict[tuple, list[int]] = {}
        for idx, (intros, *ends) in keys.items():
            out.setdefault((tuple(sorted(intros)), *sorted(ends)), []).append(idx)
        return out

    ba, bb = buckets(lfa), buckets(lfb)
    if ba.keys() != bb.keys() or any(len(ba[k]) != len(bb[k]) for k in ba):
        return False

    candidates = {i: bb[key] for key, idxs in ba.items() for i in idxs}
    brels = Counter(lfb.binary)

    # Backtracking assignment on an explicit stack, most-constrained index
    # first; each mapped index immediately accounts for every relation it
    # completes, so wrong branches die at the first inconsistent edge.
    order = sorted(candidates, key=lambda i: len(candidates[i]))
    mapping: dict[int, int] = {}
    used: set[int] = set()
    tries: list[Iterator[int]] = []  # per index of order tried, the candidates left for it
    taken: list[Counter] = []  # per index mapped, the relations it accounted for
    while len(taken) < len(order):
        k = len(taken)
        i = order[k]
        if len(tries) == k:
            tries.append(iter(candidates[i]))
        for j in tries[k]:
            if j in used:
                continue
            mapping[i] = j
            counts = Counter((n, mapping[l], mapping[r]) for n, l, r in lfa.binary
                             if (l == i or r == i) and l in mapping and r in mapping)
            if all(counts[key1] <= brels[key1] for key1 in counts):
                brels.subtract(counts)
                used.add(j)
                taken.append(counts)
                break
            del mapping[i]
        else:  # no candidate left for i: undo the choice before it
            tries.pop()
            if not taken:
                return False
            brels.update(taken.pop())
            used.discard(mapping.pop(order[k - 1]))
    return True


# The kinds `tally` counts as semantic hits.
HITS = ("exact", "equivalent")


@dataclass
class ErrorReport:
    kind: str  # exact | equivalent | attraction | other, or why no form was read
    detail: str = ""
    differing: list[tuple[str, str]] = field(default_factory=list)


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
        lfe, lfa = parse_lf(expected), parse_lf(actual)
    except LfParseError as e:
        return ErrorReport("other", detail=f"unparseable: {e}")
    if semantic_exact_match(lfe, lfa):
        return ErrorReport("equivalent")
    if Counter(lfe.unary) != Counter(lfa.unary):
        return ErrorReport("other", detail="introduced instances differ")
    # the relations one side holds more often, as the plain tuples the detail prints
    exp_bin, act_bin = Counter(map(tuple, lfe.binary)), Counter(map(tuple, lfa.binary))
    missing, extra = sorted((exp_bin - act_bin).elements()), sorted((act_bin - exp_bin).elements())
    if len(missing) == 1 and len(extra) == 1:
        (en, el, er), (an, al, ar) = missing[0], extra[0]
        if en == an and el == al and er != ar:
            was, now = f"{en} ( {el} , {er} )", f"{an} ( {al} , {ar} )"
            return ErrorReport("attraction", detail=f"{was} became {now}", differing=[(was, now)])
    return ErrorReport("other", detail=f"role conjuncts differ: -{missing} +{extra}",
                       differing=[(str(missing), str(extra))])


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


KEEP_FAILURES = 20  # missed rows a SplitReport keeps, in order


@dataclass
class SplitReport:
    name: str
    kinds: Counter = field(default_factory=Counter)  # rows per kind
    failures: list[tuple[str, str, Optional[str]]] = field(default_factory=list)  # (sentence, gold, pred)

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


def tally(rows: Iterable[tuple[str, str, Optional[str], str]], name: str = "split") -> SplitReport:
    """Sum (sentence, gold, prediction, kind) rows into a report, keeping the
    first ``KEEP_FAILURES`` misses."""
    report = SplitReport(name)
    for sentence, gold, pred, kind in rows:
        report.kinds[kind] += 1
        if kind not in HITS and len(report.failures) < KEEP_FAILURES:
            report.failures.append((sentence, gold, pred))
    return report
