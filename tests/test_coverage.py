import importlib
import random
import statistics

import pytest

# "coverage" the function shadows the submodule on the package, so import
# straight from the module
from flatsem.coverage import (
    CoverageResult,
    CurveResult,
    ShuffleResult,
    coverage,
    coverage_curve,
    row_expansions,
    shuffle_experiment,
)
from flatsem.fuzz import fuzz_generate
from flatsem.grammar import all_expansion_keys, leaf_classes, parse_sentence, tree_expansions
from flatsem.lexicon import LexiconError

from corpora import CLOSING_2, HANDPICKED_19, HANDPICKED_MISSING_4, NONSENSE_21


def test_universe_is_every_expansion():
    universe = all_expansion_keys()
    assert len(universe) == 52


def test_nonsense_corpus_fraction(lexicon):
    result = coverage(NONSENSE_21, lexicon)
    assert len(result.covered) == 37
    assert result.fraction == 0.7115384615384616


def test_handpicked_corpus_fraction_and_gap(lexicon):
    result = coverage(HANDPICKED_19, lexicon)
    assert len(result.covered) == 48
    assert result.fraction == 0.9230769230769231
    assert result.missing == HANDPICKED_MISSING_4


def test_two_more_sentences_close_the_gap(lexicon):
    result = coverage(HANDPICKED_19 + CLOSING_2, lexicon)
    assert result.fraction == 1.0
    assert result.missing == set()


def test_unparseable_sentences_cover_nothing(lexicon):
    result = coverage(["shark .", "the was by ."], lexicon)
    assert result.covered == set()
    assert result.fraction == 0.0


def test_rows_with_an_inner_period_cover_nothing(lexicon):
    result = coverage(["emma . smiled", "emma smiled . ."], lexicon)
    assert result.covered == set()
    assert coverage_curve(["emma . smiled"] + HANDPICKED_19 + CLOSING_2, lexicon).sizes[0] == 0


def test_row_expansions_follow_the_rows(lexicon):
    rows = ["shark .", HANDPICKED_19[0], HANDPICKED_19[0].split(), HANDPICKED_19[1]]
    got = row_expansions(rows, lexicon)
    assert got[0] == frozenset()
    assert got[1] == got[2] == frozenset(tree_expansions(parse_sentence(HANDPICKED_19[0], lexicon)))
    assert got[3] == frozenset(tree_expansions(parse_sentence(HANDPICKED_19[1], lexicon)))
    assert row_expansions(rows) == got  # no lexicon: the default one


def test_reports_are_folds_over_row_expansions(lexicon):
    corpus = ["shark ."] + HANDPICKED_19 + CLOSING_2
    rows = row_expansions(corpus, lexicon)
    assert CoverageResult.from_rows(rows) == coverage(corpus, lexicon)
    assert CurveResult.from_rows(rows) == coverage_curve(corpus, lexicon)
    assert (ShuffleResult.from_rows(rows, n_shuffles=30, seed=2)
            == shuffle_experiment(corpus, lexicon, n_shuffles=30, seed=2))


def test_coverage_curve_counts_and_first_full(lexicon):
    curve = coverage_curve(HANDPICKED_19 + CLOSING_2, lexicon)
    assert len(curve.sizes) == 21
    assert curve.sizes == sorted(curve.sizes)  # monotone
    assert curve.final == 52
    assert curve.first_full == 21  # the last closing sentence is needed
    partial = coverage_curve(NONSENSE_21, lexicon)
    assert partial.first_full is None
    assert partial.final == 37


def test_curve_positions_count_unparseable_rows(lexicon):
    curve = coverage_curve(["shark ."] + HANDPICKED_19 + CLOSING_2, lexicon)
    assert curve.sizes[0] == 0
    assert curve.first_full == 22


def test_shuffle_experiment_deterministic(lexicon):
    corpus = HANDPICKED_19 + CLOSING_2
    a = shuffle_experiment(corpus, lexicon, n_shuffles=50, seed=4)
    b = shuffle_experiment(corpus, lexicon, n_shuffles=50, seed=4)
    assert a.first_full == b.first_full
    assert len(a.first_full) == 50
    assert a.lo <= a.median <= a.hi
    # both closing sentences are essential, so no shuffle finishes before
    # the later of the two appears
    assert min(a.first_full) >= 2
    assert max(a.first_full) <= 21


def test_shuffle_experiment_needs_full_corpus(lexicon):
    with pytest.raises(ValueError):
        shuffle_experiment(NONSENSE_21, lexicon, n_shuffles=2)


def test_row_expansions_rejects_a_lone_string(lexicon):
    # a string is iterable, so it would otherwise be read one character a row
    for report in (row_expansions, coverage, coverage_curve, shuffle_experiment):
        with pytest.raises(TypeError, match="list of sentences"):
            report("emma smiled .", lexicon)
    assert coverage(["emma smiled ."], lexicon).covered


@pytest.mark.parametrize("n_shuffles", [0, -3])
def test_shuffles_need_at_least_one(n_shuffles, lexicon):
    rows = row_expansions(HANDPICKED_19 + CLOSING_2, lexicon)
    with pytest.raises(ValueError, match="n_shuffles must be at least 1"):
        ShuffleResult.from_rows(rows, n_shuffles=n_shuffles)
    with pytest.raises(ValueError, match="n_shuffles must be at least 1"):
        shuffle_experiment(HANDPICKED_19 + CLOSING_2, lexicon, n_shuffles=n_shuffles)


def _class_words(lexicon):
    """Lexicon words grouped by the leaf classes they fill."""
    words = {}
    for word in sorted(lexicon.entries):
        words.setdefault(leaf_classes(word, lexicon), []).append(word)
    return words


def _mixed_corpus(mode, seed, lexicon):
    """Fuzzed rows, by-class twins of some, and rows out of the lexicon or
    the grammar, in a seeded order."""
    rng = random.Random(f"{mode}:{seed}")
    words = _class_words(lexicon)
    rows = [" ".join(tokens) for tokens, _tree in
            fuzz_generate(60, lexicon, seed=seed, pp_depth=2, cp_depth=2, mode=mode)]
    rows += [" ".join(rng.choice(words[leaf_classes(t, lexicon)]) if t != "." else t
                      for t in row.split()) for row in rows[:20]]
    rows += [" ".join(rng.sample(row.split(), len(row.split()))) for row in rows[:10]]
    rows += ["shark .", "emma . smiled", "emma saw zorblax .", "emma sell the cake .", ""]
    rows += HANDPICKED_19 + CLOSING_2
    rng.shuffle(rows)
    return rows


def _expansions_of(row, lexicon):
    try:
        tree = parse_sentence(row, lexicon)
    except LexiconError:
        return frozenset()
    return frozenset(tree_expansions(tree)) if tree is not None else frozenset()


def test_a_by_class_word_swap_keeps_the_expansions(lexicon):
    """The premise of parsing once per word-class sequence: swapping each
    word for another that fills the same leaf classes changes no expansion."""
    words = _class_words(lexicon)
    rng = random.Random(3)
    swapped = 0
    for tokens, tree in fuzz_generate(300, lexicon, seed=3, pp_depth=3, cp_depth=3):
        other = [t if t == "." else rng.choice(words[leaf_classes(t, lexicon)]) for t in tokens]
        swapped += other != tokens
        assert tree_expansions(parse_sentence(other, lexicon)) == tree_expansions(tree)
    assert swapped > 250  # a sentence of rare classes may draw its own words back


@pytest.mark.parametrize("mode", ["uniform", "coverage"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_expansions_equal_one_parse_per_row(mode, seed, lexicon, monkeypatch):
    rows = _mixed_corpus(mode, seed, lexicon)
    expected = [_expansions_of(row, lexicon) for row in rows]
    cov_module = importlib.import_module("flatsem.coverage")
    parsed = []
    real = cov_module.class_expansions
    monkeypatch.setattr(cov_module, "class_expansions",
                        lambda shape: parsed.append(shape) or real(shape))
    assert row_expansions(rows, lexicon) == expected
    shapes = set()
    for row in rows:
        tokens = row.lower().split()
        tokens = tokens[:-1] if tokens[-1:] == ["."] else tokens
        if all(t in lexicon for t in tokens):
            shapes.add(tuple(leaf_classes(t, lexicon) for t in tokens))
    assert len(parsed) == len(shapes) < len(rows)


def _first_full_by_loop(rows, order):
    """The 1-based count of rows, read in this order, whose union first
    holds every expansion key."""
    universe = all_expansion_keys()
    covered = set()
    for k, r in enumerate(order, start=1):
        covered |= rows[r]
        if covered == universe:
            return k
    return None


@pytest.mark.parametrize("mode", ["uniform", "coverage"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_shuffle_fold_equals_the_set_union_loop(mode, seed, lexicon):
    """Each shuffle's index is what the plain loop finds over the row order
    that shuffle's keys give: one 64-bit key per row, ties in row order."""
    rows = row_expansions(_mixed_corpus(mode, seed, lexicon), lexicon)
    n, n_shuffles = len(rows), 40
    result = ShuffleResult.from_rows(rows, n_shuffles=n_shuffles, seed=seed)
    rng = random.Random(seed)
    expected = []
    for _ in range(n_shuffles):
        raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        keys = [int.from_bytes(raw[8 * r:8 * r + 8], "little") for r in range(n)]
        expected.append(_first_full_by_loop(rows, sorted(range(n), key=lambda r: (keys[r], r))))
    assert result.first_full == expected
    assert len(set(expected)) > 1
    s = sorted(expected)
    assert result.median == statistics.median(s)
    assert (result.lo, result.hi) == (s[0], s[38])  # nearest ranks 1 and 39 of 40

