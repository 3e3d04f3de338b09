import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from flatsem import logical_form as lf
from flatsem.decoder import build_plan
from flatsem.encoder import analyze
from flatsem.grammar import parse_sentence
from flatsem.oracle import lf_oracle, sentence_facts
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence

from corpora import GOLDEN

TRANSITIVE = GOLDEN["a boy painted the girl"]


def renumber(text: str, fn) -> str:
    """Re-serialize an LF with every instance index passed through fn."""
    parsed = lf.parse_lf(text)
    parts = [("* " if i.star else "") + f"{i.label} ( {fn(i.idx)} )" for i in parsed.unary]
    parts += [f"{r.name} ( {fn(r.left)} , {fn(r.right)} )" for r in parsed.binary]
    return " ; ".join(parts)


def test_parse_lf_roundtrip():
    parsed = lf.parse_lf(TRANSITIVE)
    assert [(i.label, i.idx, i.star) for i in parsed.unary] == [
        ("boy", 1, False), ("girl", 4, True), ("paint", 2, False),
    ]
    assert [(r.name, r.left, r.right) for r in parsed.binary] == [
        ("agent", 2, 1), ("theme", 2, 4),
    ]


@pytest.mark.parametrize("corpus", ["uniform", "coverage", "chains"])
def test_parse_lf_reads_back_the_records_written(corpus, lexicon):
    """The decoder (with and without the ablation) and the oracle write the
    same ``Intro`` and ``Rel`` records that ``parse_lf`` reads back."""
    if corpus == "chains":
        sentences = [pp_chain_sentence(168), cp_chain_sentence(169)]  # up to 511 tokens
    else:
        sentences = [tokens for tokens, _ in fuzz_generate(
            150, lexicon, seed=21, pp_depth=3, cp_depth=3, mode=corpus)]
    for tokens in sentences:
        analysis = analyze(tokens, lexicon)
        for facts in (build_plan(analysis, lexicon), build_plan(analysis, lexicon, ablate=True),
                      sentence_facts(parse_sentence(tokens, lexicon), lexicon)):
            parsed = lf.parse_lf(lf.serialize_facts(facts))
            assert Counter(parsed.unary) == Counter(facts.nouns + facts.verbs), tokens
            assert Counter(parsed.binary) == Counter(facts.rels), tokens


def test_parse_lf_keeps_nmod_preposition():
    parsed = lf.parse_lf("cake ( 1 ) ; box ( 4 ) ; nmod . in ( 1 , 4 )")
    assert parsed.binary == [lf.Rel("nmod . in", 1, 4)]


@pytest.mark.parametrize("bad", [
    "a ( 1 ) ; ; b ( 2 )",
    "a 1 )",
    "* agent ( 1 , 2 )",
    "a ( 1 , 2 , 3 )",
    "a ( x )",
    "a ( 1",
])
def test_parse_lf_rejects_malformed(bad):
    with pytest.raises(lf.LfParseError):
        lf.parse_lf(bad)


def test_string_exact_match_ignores_spacing_only():
    assert lf.string_exact_match("a ( 1 )", "a  (  1  )")
    assert not lf.string_exact_match("a ( 1 )", "a ( 2 )")


def test_a_string_match_is_exact_only_when_it_parses():
    assert lf.classify_error(TRANSITIVE, TRANSITIVE).kind == "exact"
    report = lf.classify_error("a ( 1", "a ( 1")
    assert report.kind == "other"
    assert report.detail.startswith("unparseable: ")
    assert not lf.semantic_exact_match("a ( 1", "a ( 1")


def test_an_index_past_the_int_digit_limit_is_no_form():
    """An index of more than 640 digits, the lowest limit on what ``int``
    converts, matches neither the compiled syntax nor ``parse_lf``; one of 640
    matches both, also with the interpreter's limit lowered to 640."""

    def check():
        for digits, ok in ((640, True), (641, False)):
            for index in ("1" * digits, "-" + "0" * digits, "_".join("7" * digits)):
                form = f"a ( {index} ) ; v ( 2 ) AND agent ( 2 , {index} )"
                assert (lf._FORM.fullmatch(form) is not None) == ok
                assert lf.semantic_exact_match(form, form) == ok
                assert lf.classify_error(form, form).kind == ("exact" if ok else "other")
                assert _records(lf.parse_lf, form) is not None if ok else (
                    _records(lf.parse_lf, form) is None)

    check()
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            check()
        finally:
            sys.set_int_max_str_digits(limit)


def test_sem_accepts_renumbering():
    shifted = renumber(TRANSITIVE, lambda i: i + 100)
    assert lf.semantic_exact_match(TRANSITIVE, shifted)
    assert not lf.string_exact_match(TRANSITIVE, shifted)
    # order of conjuncts is immaterial too
    reversed_body = (
        "* girl ( 4 ) ; boy ( 1 ) ; paint ( 2 ) AND theme ( 2 , 4 ) AND agent ( 2 , 1 )"
    )
    assert lf.semantic_exact_match(TRANSITIVE, reversed_body)


def test_sem_rejects_label_star_and_edge_changes():
    assert not lf.semantic_exact_match(TRANSITIVE, TRANSITIVE.replace("boy", "dog"))
    assert not lf.semantic_exact_match(TRANSITIVE, TRANSITIVE.replace("* girl", "girl"))
    assert not lf.semantic_exact_match(
        TRANSITIVE, TRANSITIVE.replace("agent ( 2 , 1 )", "agent ( 2 , 4 )")
    )
    assert not lf.semantic_exact_match(
        TRANSITIVE, TRANSITIVE.replace("agent ( 2 , 1 )", "agent ( 1 , 2 )")
    )


def test_sem_requires_bijection_not_mere_consistency():
    a = "cat ( 0 ) ; cat ( 1 ) ; chase ( 2 ) AND agent ( 2 , 0 ) AND theme ( 2 , 1 )"
    collapsed = "cat ( 0 ) ; cat ( 0 ) ; chase ( 2 ) AND agent ( 2 , 0 ) AND theme ( 2 , 0 )"
    assert not lf.semantic_exact_match(a, collapsed)
    assert lf.semantic_exact_match(collapsed, collapsed)  # literal fallback


def test_sem_searches_symmetric_chains_quickly():
    links = " AND ".join(f"nmod . on ( {i} , {i + 1} )" for i in range(10))
    intros = " ; ".join(f"table ( {i} )" for i in range(11))
    chain = f"{intros} ; {links}"
    flipped = renumber(chain, lambda i: 10 - i)
    assert lf.semantic_exact_match(chain, flipped)
    broken = chain.replace("nmod . on ( 4 , 5 )", "nmod . on ( 4 , 6 )")
    assert not lf.semantic_exact_match(chain, broken)


def test_sem_searches_more_indices_than_the_recursion_limit():
    many = " ; ".join(f"a ( {i} )" for i in range(1200))
    shifted = renumber(many, lambda i: i + 1)
    assert lf.semantic_exact_match(many, shifted)
    assert lf.classify_error(many, shifted).kind == "equivalent"


def test_sem_backtracks_out_of_a_dead_branch():
    """Every index of two 3-cycles and of one 6-cycle looks the same to the
    buckets: only the search tells them apart, undoing choices as it goes."""
    intros = " ; ".join(f"x ( {i} )" for i in range(1, 7))

    def cycles(*rings):
        return intros + " ; " + " AND ".join(
            f"r ( {ring[k]} , {ring[(k + 1) % len(ring)]} )" for ring in rings
            for k in range(len(ring)))

    two = cycles((1, 2, 3), (4, 5, 6))
    assert not lf.semantic_exact_match(two, cycles((1, 2, 3, 4, 5, 6)))
    assert lf.classify_error(two, cycles((1, 2, 3, 4, 5, 6))).kind == "other"
    assert lf.semantic_exact_match(two, cycles((1, 4, 6), (2, 5, 3)))


def test_a_digit_limit_lowered_after_import_changes_no_verdict():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit to lower")
    g = "a ( " + "1" * 2000 + " )"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert lf.classify_error(g, g).kind == "other"
        assert not lf.semantic_exact_match(g, g)
        with pytest.raises(lf.LfParseError):
            lf.parse_lf(g)
    finally:
        sys.set_int_max_str_digits(limit)


def test_sem_on_oracle_pp_chain():
    deep = lf_oracle(pp_chain_sentence(8))
    assert lf.semantic_exact_match(deep, renumber(deep, lambda i: i * 7 + 3))


@pytest.mark.parametrize("sentence", [cp_chain_sentence(169), pp_chain_sentence(168)],
                         ids=["cp169", "pp168"])
def test_sem_renames_the_longest_chains(sentence):
    """A random renaming of the longest chains' forms is equivalent; the same
    renaming with one relation's right end moved is a miss."""
    gold = lf.parse_lf(lf_oracle(sentence))
    used = sorted({i.idx for i in gold.unary} | {i for r in gold.binary for i in r[1:]})
    rng = random.Random(26)
    table = dict(zip(used, rng.sample(range(10 * len(used)), len(used))))
    text = renumber(lf_oracle(sentence), table.__getitem__)
    assert lf.classify_error(lf_oracle(sentence), text).kind == "equivalent"
    renamed = lf.parse_lf(text)
    assert lf._renames(gold, renamed)
    moved = renamed.binary[len(renamed.binary) // 2]
    other = next(v for v in table.values() if v not in moved[1:])
    renamed.binary[len(renamed.binary) // 2] = moved._replace(right=other)
    assert not lf._renames(gold, renamed)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(8)))
def test_sem_invariant_under_any_permutation(perm):
    gold = lf_oracle("a horse gave the cake beside a table to the mouse")
    used = sorted({i.idx for i in lf.parse_lf(gold).unary})
    # injective map driven by the drawn permutation
    table = {old: perm[k] * 5 + 2 for k, old in enumerate(used)}
    assert lf.semantic_exact_match(gold, renumber(gold, table.__getitem__))


def test_sem_maps_indices_no_conjunct_introduces():
    """An index that only a relation mentions is renamed with the rest: two
    ends that one form shares and the other splits do not match."""
    shared = "v ( 2 ) AND agent ( 2 , 7 ) AND theme ( 2 , 7 )"
    split = "v ( 2 ) AND agent ( 2 , 7 ) AND theme ( 2 , 8 )"
    assert not lf.semantic_exact_match(shared, split)
    assert not lf.semantic_exact_match(split, shared)
    assert lf.classify_error(shared, split).kind == "attraction"
    assert lf.semantic_exact_match("theme ( 9 , 5 )", "theme ( 5 , 9 )")  # swap 9 and 5
    assert not lf.semantic_exact_match("theme ( 9 , 5 ) AND agent ( 9 , 9 )",
                                       "theme ( 5 , 9 ) AND agent ( 9 , 9 )")


def _random_form(rng: random.Random, repeats: bool = False) -> str:
    """A small form over indices 0..4: distinct introductions of some of
    them (with ``repeats``, an index may be introduced more than once), and
    relations between any two, introduced or not."""
    idxs = (rng.choices(range(5), k=rng.randrange(6)) if repeats
            else rng.sample(range(5), rng.randrange(6)))
    parts = [f"{'* ' if rng.random() < 0.3 else ''}{rng.choice('ab')} ( {i} )" for i in idxs]
    parts += [f"{rng.choice(['agent', 'theme'])} ( {rng.randrange(5)} , {rng.randrange(5)} )"
              for _ in range(rng.randrange(4))]
    rng.shuffle(parts)
    return " AND ".join(parts)


def _brute_force_match(a: str, b: str) -> bool:
    """Some bijection between the indices the two forms mention maps one
    form's conjuncts onto the other's."""
    lfa, lfb = lf.parse_lf(a), lf.parse_lf(b)

    def mentioned(parsed):
        return sorted({i.idx for i in parsed.unary}
                      | {k for r in parsed.binary for k in (r.left, r.right)})

    ia, ib = mentioned(lfa), mentioned(lfb)
    if len(ia) != len(ib):
        return False
    want = (Counter(lfb.unary), Counter(lfb.binary))
    for image in itertools.permutations(ib):
        rename = dict(zip(ia, image))
        if want == (Counter(i._replace(idx=rename[i.idx]) for i in lfa.unary),
                    Counter(lf.Rel(r.name, rename[r.left], rename[r.right])
                            for r in lfa.binary)):
            return True
    return False


def _compare_with_brute_force(rng: random.Random, repeats: bool = False) -> tuple[int, int]:
    """Hits and pairs compared over 1,500 draws of two small forms, each pair
    judged by the search and by a brute force over all bijections."""
    hits = compared = 0
    for _ in range(1_500):
        a = _random_form(rng, repeats)
        # a renamed copy of a with one conjunct maybe redrawn, or a fresh form
        if rng.random() < 0.7:
            perm = rng.sample(range(5), 5)
            b = renumber(a, perm.__getitem__) if a else a
            if b and rng.random() < 0.5:
                parts = b.split(" ; ")
                parts[rng.randrange(len(parts))] = _random_form(rng, repeats) or parts[0]
                b = " ; ".join(parts)
        else:
            b = _random_form(rng, repeats)
        if not a or not b:
            continue
        want = _brute_force_match(a, b)
        assert _search_match(a, b) == want, (a, b)
        assert lf.semantic_exact_match(a, b) == want, (a, b)
        hits += want
        compared += 1
    return hits, compared


def test_sem_search_equals_a_brute_force_over_all_bijections():
    hits, compared = _compare_with_brute_force(random.Random(31))
    assert hits > 400 and compared - hits > 400


def test_sem_renames_an_index_introduced_twice():
    """An index's introductions are a multiset, renamed with the index."""
    twice = "a ( 1 ) ; a ( 1 ) ; v ( 3 ) AND agent ( 3 , 1 )"
    assert lf.semantic_exact_match(twice, twice.replace("1", "2"))
    assert lf.classify_error(twice, twice.replace("1", "2")).kind == "equivalent"
    assert not lf.semantic_exact_match(twice, "a ( 1 ) ; a ( 2 ) ; v ( 3 ) AND agent ( 3 , 1 )")
    assert not lf.semantic_exact_match(twice, "a ( 1 ) ; b ( 1 ) ; v ( 3 ) AND agent ( 3 , 1 )")
    rng = random.Random(41)
    forms = [lf.parse_lf(form) for form in (_random_form(rng, True) for _ in range(300)) if form]
    repeated = sum(len({i.idx for i in parsed.unary}) < len(parsed.unary) for parsed in forms)
    assert repeated > 50  # the forms below often introduce an index twice
    hits, compared = _compare_with_brute_force(random.Random(41), repeats=True)
    assert hits > 400 and compared - hits > 400


def test_a_repeated_relation_is_reported_as_a_role_difference():
    duplicated = TRANSITIVE + " AND agent ( 2 , 1 )"
    report = lf.classify_error(TRANSITIVE, duplicated)
    assert report.kind == "other"
    assert report.detail == "role conjuncts differ: -[] +[('agent', 2, 1)]"
    report = lf.classify_error(duplicated, TRANSITIVE)
    assert report.detail == "role conjuncts differ: -[('agent', 2, 1)] +[]"
    assert lf.classify_error(TRANSITIVE, TRANSITIVE.replace("boy", "dog")).detail == (
        "introduced instances differ")


def test_clopper_pearson_frozen_values():
    assert lf.clopper_pearson(3000, 3000) == pytest.approx((0.998771, 1.0), abs=1e-4)
    assert lf.clopper_pearson(1000, 1000) == pytest.approx((0.996318, 1.0), abs=1e-4)
    assert lf.clopper_pearson(922, 1000) == pytest.approx((0.903606, 0.937859), abs=1e-4)


def test_clopper_pearson_edges():
    lo, hi = lf.clopper_pearson(0, 50)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = lf.clopper_pearson(50, 50)
    assert 0.9 < lo < 1 and hi == 1.0
    with pytest.raises(ValueError):
        lf.clopper_pearson(5, 4)
    with pytest.raises(ValueError):
        lf.clopper_pearson(-1, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 400), st.data())
def test_clopper_pearson_matches_beta_quantiles(n, data):
    k = data.draw(st.integers(0, n))
    lo, hi = lf.clopper_pearson(k, n)
    want_lo = 0.0 if k == 0 else beta.ppf(0.025, k, n - k + 1)
    want_hi = 1.0 if k == n else beta.ppf(0.975, k + 1, n - k)
    assert lo == pytest.approx(want_lo, abs=1e-8)
    assert hi == pytest.approx(want_hi, abs=1e-8)


@pytest.mark.parametrize("n", [1000, 3000, 21000])
def test_clopper_pearson_matches_beta_quantiles_at_split_sizes(n):
    for k in (1, 2, 5, n // 2, 922 * n // 1000, n - 5, n - 2, n - 1):
        lo, hi = lf.clopper_pearson(k, n)
        assert abs(lo - beta.ppf(0.025, k, n - k + 1)) < 1e-9, (k, n)
        assert abs(hi - beta.ppf(0.975, k + 1, n - k)) < 1e-9, (k, n)
    assert abs(lf.clopper_pearson(0, n)[1] - beta.ppf(0.975, 1, n)) < 1e-9
    assert abs(lf.clopper_pearson(n, n)[0] - beta.ppf(0.025, n, 1)) < 1e-9


@pytest.mark.parametrize("n", [1, 7, 1000, 21000])
@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_clopper_pearson_edges_are_closed_forms(n, alpha):
    assert lf.clopper_pearson(0, n, alpha) == (0.0, 1 - (alpha / 2) ** (1 / n))
    assert lf.clopper_pearson(n, n, alpha) == ((alpha / 2) ** (1 / n), 1.0)


@pytest.mark.parametrize("k, n, alpha", [
    (3, 10, -0.1), (3, 10, 0.0), (3, 10, 1.0), (3, 10, 2.0), (3, 10, float("nan")),
    (2.5, 3, 0.05), (3, 10.0, 0.05), ("3", 10, 0.05),
])
def test_clopper_pearson_rejects_bad_input(k, n, alpha):
    with pytest.raises(ValueError):
        lf.clopper_pearson(k, n, alpha)


def test_split_report_counts_and_format():
    answers = [
        TRANSITIVE,                            # string match
        renumber(TRANSITIVE, lambda i: i + 9),  # semantic only
        TRANSITIVE.replace("boy", "dog"),       # miss
        TRANSITIVE,                            # string match
    ]
    report = lf.SplitReport("demo", Counter(lf.classify_error(TRANSITIVE, pred).kind
                                            for pred in answers))
    assert report.kinds == {"exact": 2, "equivalent": 1, "other": 1}
    assert (report.n, report.sem_hits, report.em_hits) == (4, 3, 2)
    assert report.sem == pytest.approx(0.75)
    assert report.em == pytest.approx(0.5)
    lo, hi = lf.clopper_pearson(3, 4)
    assert report.format() == (
        f"split=demo n=4 sem=0.7500 em=0.5000 ci_low={lo:.4f} ci_high={hi:.4f}"
    )
    report = lf.SplitReport("misses", Counter(other=30))
    assert (report.n, report.sem_hits) == (30, 0)


def test_an_empty_report_knows_nothing():
    report = lf.SplitReport("empty")
    assert (report.n, report.sem, report.em, report.ci) == (0, 0.0, 0.0, (0.0, 1.0))
    assert report.format() == "split=empty n=0 sem=0.0000 em=0.0000 ci_low=0.0000 ci_high=1.0000"


def _search_match(a: str, b: str) -> bool:
    """The renaming search alone, on both forms parsed: no shortcut."""
    try:
        lfa, lfb = lf.parse_lf(a), lf.parse_lf(b)
    except lf.LfParseError:
        return False
    return lf._renames(lfa, lfb)


def _variant(gold: str, rng: random.Random) -> str:
    """The gold reordered, index-renamed, token-mutated, truncated,
    re-spaced or malformed."""
    toks = gold.split()
    kind = rng.choice(["reorder", "rename", "mutate", "truncate", "respace", "malform"])
    if kind == "reorder":  # the conjuncts shuffled, the separators kept in place
        seps = [t for t in toks if t in (";", "AND")]
        parts = " ".join(toks).replace(" AND ", " ; ").split(" ; ")
        rng.shuffle(parts)
        return " ".join(part for pair in zip(parts, [*seps, ""]) for part in pair).strip()
    if kind == "rename":
        shift = rng.randrange(1, 50)
        return renumber(gold, lambda i: i + shift)
    if kind == "mutate":
        k = rng.randrange(len(toks))
        toks[k] = rng.choice([*toks, "*", "7", ";", "AND", "x"])
        return " ".join(toks)
    if kind == "truncate":
        return " ".join(toks[:rng.randrange(1, len(toks))])
    if kind == "respace":
        return "  ".join(toks) + " "
    k = rng.randrange(len(toks))
    return " ".join(toks[:k] + toks[k + 1:])  # one token dropped


def test_sem_shortcut_agrees_with_the_search(lexicon):
    rng = random.Random(8)
    golds = [lf_oracle(tree, lexicon) for _tokens, tree in
             fuzz_generate(150, lexicon, seed=8, pp_depth=2, cp_depth=2)]
    compared = 0
    for gold in golds:
        for _ in range(6):
            other = _variant(gold, rng)
            for a, b in ((gold, other), (other, gold), (other, other)):
                assert lf.semantic_exact_match(a, b) == _search_match(a, b), (a, b)
                compared += 1
    assert compared == 150 * 6 * 3


def test_a_reordered_pair_is_parsed_once(monkeypatch):
    renamed = renumber(TRANSITIVE, lambda i: i + 1)
    calls = []
    real = lf._parse
    monkeypatch.setattr(lf, "_parse", lambda *a: calls.append(a) or real(*a))
    reordered = ("* girl ( 4 ) ; boy ( 1 ) ; paint ( 2 ) AND theme ( 2 , 4 ) "
                 "AND agent ( 2 , 1 )")
    assert lf.semantic_exact_match(TRANSITIVE, reordered)
    assert len(calls) == 0
    # the same conjuncts, malformed alike on both sides, do not match
    assert not lf.semantic_exact_match("a ( 1 ) ; ; b ( 2 )", "b ( 2 ) ; a ( 1 ) ;")
    assert len(calls) == 1
    # a renamed pair still takes the search
    assert lf.semantic_exact_match(TRANSITIVE, renamed)
    assert len(calls) == 3


# The token loop that read forms before the compiled syntax, kept as the
# reference the syntax must agree with.
def _reference_conjuncts(text: str) -> list[list[str]]:
    """The tokens of each conjunct, split at every ";" and "AND"."""
    conjuncts: list[list[str]] = [[]]
    for tok in text.split():
        if tok in (";", "AND"):
            conjuncts.append([])
        else:
            conjuncts[-1].append(tok)
    return conjuncts


def _reference_parse_lf(text: str) -> lf.Lf:
    """Parse "x ( 1 ) ; * y ( 4 ) ; v ( 2 ) AND agent ( 2 , 1 ) AND ..." """
    parsed = lf.Lf()
    for toks in _reference_conjuncts(text):
        if not toks:
            raise lf.LfParseError(f"empty conjunct in: {text!r}")
        star = toks[0] == "*"
        if star:
            toks = toks[1:]
        try:
            op = toks.index("(")
        except ValueError:
            raise lf.LfParseError(f"missing '(' in conjunct {' '.join(toks)!r}") from None
        name = " ".join(toks[:op])
        args = toks[op + 1:-1]
        if not name or toks[-1] != ")":
            raise lf.LfParseError(f"malformed conjunct {' '.join(toks)!r}")
        if len(args) == 1:
            parsed.unary.append(lf.Intro(name, _reference_int(args[0], text), star))
        elif len(args) == 3 and args[1] == ",":
            if star:
                raise lf.LfParseError(f"star on relation conjunct in: {text!r}")
            parsed.binary.append(lf.Rel(name, _reference_int(args[0], text),
                                        _reference_int(args[2], text)))
        else:
            raise lf.LfParseError(f"bad argument list {' '.join(args)!r}")
    return parsed


def _reference_int(tok: str, ctx: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise lf.LfParseError(f"non-numeric index {tok!r} in: {ctx!r}") from None


def _records(parse, text):
    """What a parser reads from text: its records, or None for a rejection."""
    try:
        parsed = parse(text)
    except lf.LfParseError:
        return None
    return parsed.unary, parsed.binary


HAND_FORMS = [
    "* . on ( 4 , 6 )", "* * ( 9 )", "* ( 1 )", "* * x ( 1 )", "x * ( 1 )", "*x ( 1 )",
    "a ( -3 )", "a ( +4 )", "a ( 1_0 )", "a ( 1__0 )", "a ( _1 )", "a ( 1_ )", "a ( +-1 )",
    "a ( - 3 )", "a ( \u0663 )", "a ( 1.0 )", "nmod . in ( 1 , -2 )", "a ( 007 , +0 )",
    "; a ( 1 )", "a ( 1 ) ;", "AND a ( 1 )", "a ( 1 ) AND", "; ; a ( 1 )", "a ( 1 ) ; ; b ( 2 )",
    "a ( 1 ) AND ; b ( 2 )", "a ( 1 ) AND AND b ( 2 )", "a\t(\t1 )\n;\nb ( 2 )",
    "  a ( 1 )  ", "\ta ( 1 ) AND\tb ( 1 , 2 )\n", "", " ", "\n", ";", "AND",
    "a ( 1 ) ; b ( 2 ) AND c ( 1 , 2 )", "a ( 1 ); b ( 2 )", "a ( 1 ) ;b ( 2 )",
    ") ( 1 )", "a ) ( 1 )", ", ( 1 , 2 )", ") , ( 1 , 2 )", "( 1 )", "( ( 1 )", "a ( ( 1 )",
    "a ( 1 ) )", "a ( 1 ) ( 2 )", "a ( 1 , 2 , 3 )", "a ( 1 2 )", "a ( 1 , )", "a ( , 1 )",
    "a ( 1 ,, 2 )", "a (1)", "a ( 1 )x", "ANDY ( 1 )", "AND ( 1 )", "xAND ( 1 )", ";x ( 1 )",
    "(x ( 1 )", "a b c ( 1 )", "* a b ( 1 , 2 )", "* agent ( 1 , 2 )", "a 1 )", "a ( x )",
]


def test_the_compiled_syntax_reads_what_the_token_loop_reads(lexicon):
    """The compiled syntax accepts exactly the forms the token loop accepts,
    and ``parse_lf`` reads the same records from them: on hand cases, every
    sequence of up to five tokens over a small alphabet, and the golds of
    fuzzed corpora in both modes with 20 variants each."""
    texts = list(HAND_FORMS)
    alphabet = ["x", "*", "(", ")", ",", "1", ";"]
    for length in range(6):
        texts += map(" ".join, itertools.product(alphabet, repeat=length))
    rng = random.Random(23)
    for mode in ("uniform", "coverage"):
        for _tokens, tree in fuzz_generate(300, lexicon, seed=23, pp_depth=3, cp_depth=3,
                                           mode=mode):
            gold = lf_oracle(tree, lexicon)
            texts += [gold, *(_variant(gold, rng) for _ in range(20))]
    disagree = []
    accepted = 0
    for text in texts:
        want = _records(_reference_parse_lf, text)
        matched = lf._FORM.fullmatch(lf._normal(text)) is not None
        if _records(lf.parse_lf, text) != want or matched != (want is not None):
            disagree.append(text)
        accepted += want is not None
    assert disagree == []
    assert 5_000 < accepted < len(texts) - 20_000  # both decisions, in bulk
