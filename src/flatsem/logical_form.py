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
  Two forms that differ only in conjunct order match without a search.

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
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, NamedTuple, Optional

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


def _conjuncts(text: str) -> list[list[str]]:
    """The tokens of each conjunct, split at every ";" and "AND"."""
    conjuncts: list[list[str]] = [[]]
    for tok in text.split():
        if tok in (";", "AND"):
            conjuncts.append([])
        else:
            conjuncts[-1].append(tok)
    return conjuncts


def parse_lf(text: str) -> Lf:
    """Parse "x ( 1 ) ; * y ( 4 ) ; v ( 2 ) AND agent ( 2 , 1 ) AND ..." """
    lf = Lf()
    for toks in _conjuncts(text):
        if not toks:
            raise LfParseError(f"empty conjunct in: {text!r}")
        star = toks[0] == "*"
        if star:
            toks = toks[1:]
        try:
            op = toks.index("(")
        except ValueError:
            raise LfParseError(f"missing '(' in conjunct {' '.join(toks)!r}") from None
        name = " ".join(toks[:op])
        args = toks[op + 1:-1]
        if not name or toks[-1] != ")":
            raise LfParseError(f"malformed conjunct {' '.join(toks)!r}")
        if len(args) == 1:
            lf.unary.append(Intro(name, _int(args[0], text), star))
        elif len(args) == 3 and args[1] == ",":
            if star:
                raise LfParseError(f"star on relation conjunct in: {text!r}")
            lf.binary.append(Rel(name, _int(args[0], text), _int(args[2], text)))
        else:
            raise LfParseError(f"bad argument list {' '.join(args)!r}")
    return lf


def _int(tok: str, ctx: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise LfParseError(f"non-numeric index {tok!r} in: {ctx!r}") from None


def string_exact_match(a: str, b: str) -> bool:
    return a.split() == b.split()


def _same_conjuncts(a: str, b: str) -> bool:
    """The same conjuncts in any order: the identity renaming maps one onto
    the other."""
    return sorted(map(tuple, _conjuncts(a))) == sorted(map(tuple, _conjuncts(b)))


def _signature(lf: Lf, idx: int) -> tuple:
    """Degree fingerprint of an index: preserved by any valid bijection."""
    sig = [(r.name, "L") for r in lf.binary if r.left == idx]
    sig += [(r.name, "R") for r in lf.binary if r.right == idx]
    return tuple(sorted(sig))


def semantic_exact_match(a: str | Lf, b: str | Lf) -> bool:
    """Equality up to bijective renaming of instance indices.

    Two strings that hold the same conjuncts, in any order, need no search:
    the identity renaming maps one onto the other, so they match exactly
    when one of them parses.  Any other pair is parsed, its indices are
    bucketed by what a renaming must preserve, and a backtracking search
    looks for the renaming."""
    if isinstance(a, str) and isinstance(b, str) and _same_conjuncts(a, b):
        try:
            parse_lf(a)
        except LfParseError:
            return False
        return True
    try:
        lfa = parse_lf(a) if isinstance(a, str) else a
        lfb = parse_lf(b) if isinstance(b, str) else b
    except LfParseError:
        return False
    if len(lfa.unary) != len(lfb.unary) or len(lfa.binary) != len(lfb.binary):
        return False

    # Bucket indices by everything a bijection must preserve; a mismatch in
    # bucket shapes settles it without any search.
    def buckets(lf: Lf):
        out: dict[tuple, list[int]] = {}
        for i in lf.unary:
            key = (i.label, i.star, _signature(lf, i.idx))
            out.setdefault(key, []).append(i.idx)
        return out

    if any(len(set(i.idx for i in lf.unary)) != len(lf.unary) for lf in (lfa, lfb)):
        # duplicate introductions of one index: fall back to literal equality
        return (sorted(lfa.unary) == sorted(lfb.unary)
                and sorted(lfa.binary) == sorted(lfb.binary))

    ba, bb = buckets(lfa), buckets(lfb)
    if set(ba) != set(bb) or any(len(ba[k]) != len(bb[k]) for k in ba):
        return False

    candidates: dict[int, list[int]] = {}
    for key, idxs in ba.items():
        for i in idxs:
            candidates[i] = bb[key]

    brels = Counter(lfb.binary)

    # Backtracking assignment, most-constrained index first; each mapped
    # index immediately accounts for every relation it completes, so wrong
    # branches die at the first inconsistent edge.
    order = sorted(candidates, key=lambda i: len(candidates[i]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            mapping[i] = j
            used.add(j)
            completed = [(n, mapping[l], mapping[r]) for n, l, r in lfa.binary
                         if (l == i or r == i) and l in mapping and r in mapping]
            counts = Counter(completed)
            if all(counts[key1] <= brels[key1] for key1 in counts):
                for key1, c in counts.items():
                    brels[key1] -= c
                if extend(k + 1):
                    return True
                for key1, c in counts.items():
                    brels[key1] += c
            used.discard(j)
            del mapping[i]
        return False

    return extend(0)


# The kinds `tally` counts as semantic hits.  An `exact` row is a string match,
# so it counts even when the form does not parse, where
# `semantic_exact_match` would say False.
HITS = ("exact", "equivalent")


@dataclass
class ErrorReport:
    kind: str  # exact | equivalent | attraction | other, or why no form was read
    detail: str = ""
    differing: list[tuple[str, str]] = field(default_factory=list)


def classify_error(expected: str, actual: str) -> ErrorReport:
    """The verdict on a prediction: its kind, and for a miss what differs.

    The cheapest test runs first.  A string match is ``exact``, and the same
    conjuncts in another order are ``equivalent``, once one side parses: a
    malformed string matches nothing, itself included.  Any other pair is
    parsed once per side and searched once for a renaming.  "attraction" is
    the signature mistake of dropping the pp filter: atom sets identical
    except one role conjunct whose right argument moved.
    """
    try:
        if string_exact_match(expected, actual):
            parse_lf(expected)
            return ErrorReport("exact")
        if _same_conjuncts(expected, actual):
            parse_lf(expected)
            return ErrorReport("equivalent")
        exp, act = parse_lf(expected), parse_lf(actual)
    except LfParseError as e:
        return ErrorReport("other", detail=f"unparseable: {e}")
    if semantic_exact_match(exp, act):
        return ErrorReport("equivalent")
    # plain tuples, which the detail prints
    exp_bin, act_bin = set(map(tuple, exp.binary)), set(map(tuple, act.binary))
    if sorted(exp.unary) == sorted(act.unary) and len(exp.binary) == len(act.binary):
        missing = sorted(exp_bin - act_bin)
        extra = sorted(act_bin - exp_bin)
        if len(missing) == 1 and len(extra) == 1:
            (en, el, er), (an, al, ar) = missing[0], extra[0]
            if en == an and el == al and er != ar:
                return ErrorReport(
                    "attraction",
                    detail=f"{en} ( {el} , {er} ) became {an} ( {al} , {ar} )",
                    differing=[(f"{en} ( {el} , {er} )", f"{an} ( {al} , {ar} )")],
                )
        return ErrorReport("other", detail=f"role conjuncts differ: -{missing} +{extra}",
                           differing=[(str(missing), str(extra))])
    return ErrorReport("other", detail="introduced instances differ")


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
