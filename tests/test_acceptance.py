"""Acceptance gate: one test per shipped guarantee.

Dataset-backed guarantees (the real ReCOGS_pos splits) run only when RR_DATA
points at a directory with train/test/gen TSVs; each has a dataset-free
counterpart that runs unconditionally.  The conftest prints one status line
per test at the end of the run.
"""

import time
from collections import Counter

import pytest

from flatsem.cli import load_tsv
from flatsem.coverage import coverage, coverage_curve, shuffle_experiment
from flatsem.decoder import decode, decode_all
from flatsem.encoder import analyze, get_agent_side
from flatsem.fuzz import cp_chain_sentence, fuzz_generate, pp_chain_sentence
from flatsem.logical_form import (
    SplitReport,
    classify_error,
    clopper_pearson,
    semantic_exact_match,
    string_exact_match,
)
from flatsem.oracle import (
    AUGMENTED_CATEGORY,
    augment_v_dat_p2,
    lf_oracle,
    matrix_template,
    predict_attraction_error,
    subject_is_pp_modified,
)
from flatsem.grammar import parse_sentence

from conftest import dataset_dir, needs_dataset
from corpora import (
    AUGMENT_AFTER,
    AUGMENT_BEFORE,
    CLOSING_2,
    HANDPICKED_19,
    NONSENSE_21,
)

RUNTIME_BUDGET_S = 60.0


def _score(rows, name):
    """Score rows as ``flatsem run`` does: one ``decode_all`` call, each row
    judged by ``classify_error``, and a row the decoder cannot read scored as
    a miss."""
    t0 = time.perf_counter()
    preds = decode_all([sentence for sentence, _, _ in rows])
    report = SplitReport(name, Counter(classify_error(gold, pred).kind
                                       if isinstance(pred, str) else "undecodable"
                                       for (_, gold, _), pred in zip(rows, preds)))
    return report, time.perf_counter() - t0


# -- 1. perfect scores on the held-out test distribution ----------------------

@needs_dataset
def test_c1_test_split_perfect_scores():
    rows = load_tsv(dataset_dir() / "test.tsv")
    report, elapsed = _score(rows, "test")
    assert report.n == 3000
    assert report.sem_hits == report.n, report.kinds
    assert report.em_hits == report.n
    assert elapsed < RUNTIME_BUDGET_S


def test_c1_fallback_fuzzed_corpus_perfect(lexicon):
    pairs = fuzz_generate(1000, lexicon, seed=7, pp_depth=2, cp_depth=2)
    rows = [(" ".join(tokens), lf_oracle(tree, lexicon), "fuzz") for tokens, tree in pairs]
    report, elapsed = _score(rows, "fuzz-1000")
    assert report.n == 1000
    assert report.sem_hits == report.n, report.kinds
    assert report.em_hits == report.n
    assert elapsed < RUNTIME_BUDGET_S


# -- 2. structural generalization ---------------------------------------------

@needs_dataset
def test_c2_gen_split_scores():
    rows = load_tsv(dataset_dir() / "gen.tsv")
    by_cat = {}
    for row in rows:
        by_cat.setdefault(row[2], []).append(row)
    for cat, sub in sorted(by_cat.items()):
        report, _ = _score(sub, f"gen/{cat}")
        if cat == "obj_pp_to_subj_pp":
            assert report.n == 1000
            assert 0.9170 <= report.sem <= 0.9270, report.format()
        else:
            assert report.sem_hits == report.n, (cat, report.kinds)


def test_c2_recursion_to_depth_12(lexicon):
    for depth in range(1, 13):
        for chain in (pp_chain_sentence(depth), cp_chain_sentence(depth)):
            gold = lf_oracle(chain, lexicon)
            pred = decode(chain, lexicon)
            assert string_exact_match(gold, pred), (depth, chain)
            assert semantic_exact_match(gold, pred)


# -- 3. grammar coverage fractions --------------------------------------------

def test_c3_coverage_fractions_exact(lexicon):
    universe = coverage([], lexicon).universe
    assert len(universe) == 52
    assert coverage(NONSENSE_21, lexicon).fraction == 0.7115384615384616
    assert coverage(HANDPICKED_19, lexicon).fraction == 0.9230769230769231
    full = coverage(HANDPICKED_19 + CLOSING_2, lexicon)
    assert full.fraction == 1.0
    assert full.missing == set()


# -- 4. coverage curve over the training corpus -------------------------------

@needs_dataset
def test_c4_train_coverage_curve_and_shuffles():
    sentences = [r[0] for r in load_tsv(dataset_dir() / "train.tsv")]
    curve = coverage_curve(sentences)
    assert curve.first_full == 55
    stats = shuffle_experiment(sentences, n_shuffles=1000, seed=0)
    assert 72 <= stats.median <= 82
    assert abs(stats.lo - 39) <= 8
    assert abs(stats.hi - 161) <= 8


# -- 5. switching off the pp filter yields exactly the attraction error -------

def test_c5_ablation_attraction_property(lexicon):
    def eligible(tree):
        clause = tree.children[0]
        if clause.symbol != "<s1>":
            return False
        if get_agent_side(matrix_template(tree)) != "left":
            return False
        if not subject_is_pp_modified(tree):
            return False
        # every pp in the sentence hangs off the subject, so the subject
        # binding is the only thing the ablation can change
        subj = clause.children[0]
        return len(list(tree.find_all("<np_pp>"))) == len(list(subj.find_all("<np_pp>")))

    pairs = fuzz_generate(300, lexicon, seed=13, pp_depth=2, cp_depth=0, require=eligible)
    assert len(pairs) >= 300
    for tokens, tree in pairs:
        gold = lf_oracle(tree, lexicon)
        assert decode(tokens, lexicon) == gold
        report = classify_error(gold, decode(tokens, lexicon, ablate=True))
        assert report.kind == "attraction", (tokens, report.kind, report.detail)
        gold_atom, bad_atom = report.detail.split(" became ")
        assert gold_atom.startswith("agent (")
        assert int(bad_atom.split()[-2]) == predict_attraction_error(tree)


# -- 6. decoder == tree oracle, deep recursion, every frame -------------------

def test_c6_decode_matches_oracle_at_depth(lexicon):
    pairs = fuzz_generate(2000, lexicon, seed=11, pp_depth=12, cp_depth=3)
    frames = Counter()
    for tokens, tree in pairs:
        gold = lf_oracle(tree, lexicon)
        assert semantic_exact_match(gold, decode(tokens, lexicon)), tokens
        for clause in analyze(tokens, lexicon).clauses:
            frames[clause.template] += 1
    assert None not in frames
    assert len(frames) == 20  # every verb frame exercised


# -- 7. exact binomial intervals ----------------------------------------------

def test_c7_clopper_pearson_endpoints():
    pins = {
        (3000, 3000): (0.9988, 1.0),
        (1000, 1000): (0.9963, 1.0),
        (922, 1000): (0.9036, 0.9379),
    }
    for (k, n), (want_lo, want_hi) in pins.items():
        lo, hi = clopper_pearson(k, n)
        assert abs(lo - want_lo) < 1e-4, (k, n, lo)
        assert abs(hi - want_hi) < 1e-4, (k, n, hi)


# -- 8. dative pp-movement augmentation ---------------------------------------

def test_c8_augmentation_liam_pair(lexicon):
    rows = [(AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "in_distribution")]
    ((sentence, lf, category),) = augment_v_dat_p2(rows, lexicon)
    assert (sentence, lf) == AUGMENT_AFTER
    assert category == AUGMENTED_CATEGORY
    assert parse_sentence(sentence, lexicon) is not None
    assert lf_oracle(sentence, lexicon) == lf


@needs_dataset
def test_c8_augmentation_full_train():
    rows = load_tsv(dataset_dir() / "train.tsv")
    augmented = augment_v_dat_p2(rows)
    assert len(augmented) == 328
    assert (AUGMENT_AFTER[0], AUGMENT_AFTER[1], AUGMENTED_CATEGORY) in augmented
    for sentence, lf, _category in augmented:
        assert parse_sentence(sentence) is not None
        assert lf_oracle(sentence) == lf
