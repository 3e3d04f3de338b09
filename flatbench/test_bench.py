"""Tests of the benchmark's own checks.

    python3 -m pytest -q flatbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import flatsem  # noqa: E402
from flatsem import decoder  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lexicon():
    return flatsem.default_lexicon()


@pytest.fixture(scope="module")
def pools(lexicon):
    return inputs.word_pools(lexicon)


@pytest.fixture(scope="module")
def recipe(pools, lexicon):
    return inputs.chain_recipe(pools, lexicon)


def noun_positions(lf: str) -> list[int]:
    intros = lf.rpartition(" ; ")[0]
    return [i.idx for i in flatsem.parse_lf(intros).unary] if intros else []


def move_role_argument(lf: str) -> str:
    """Point the first agent/theme/recipient conjunct at another noun."""
    nouns = noun_positions(lf)
    conjuncts = lf.split(" AND ")
    for k, conj in enumerate(conjuncts):
        name, _, args = conj.partition(" ( ")
        if name.split()[-1] in ("agent", "theme", "recipient"):
            verb, arg = args.rstrip(" )").split(" , ")
            other = next(n for n in nouns if n != int(arg))
            conjuncts[k] = conj.replace(f"( {verb} , {arg} )", f"( {verb} , {other} )")
            return " AND ".join(conjuncts)
    raise ValueError(f"no role conjunct in {lf!r}")


def corrupt_one(monkeypatch, owner, sentence: str) -> None:
    """Make ``owner.decode`` move one role argument for ``sentence`` only."""
    real = owner.decode

    def decode(tokens, *args, **kwargs):
        out = real(tokens, *args, **kwargs)
        text = tokens if isinstance(tokens, str) else " ".join(tokens)
        return move_role_argument(out) if text == sentence else out

    monkeypatch.setattr(owner, "decode", decode)


# ----------------------------------------------------------------------
# long-chains: the closed form and the step limit


def test_closed_form_equals_oracle_wherever_the_parser_accepts(recipe, pools, lexicon):
    chains = inputs.chain_round(7, 0, sorted(set(recipe)), pools, lexicon)
    checked, refused = 0, []
    for chain in chains:
        try:
            tree = flatsem.parse_sentence(list(chain.tokens), lexicon)
        except RecursionError:  # a parser fault on deep chains, see CHANGES.md
            refused.append((chain.shape, chain.depth))
            continue
        assert tree is not None, chain.tokens
        assert flatsem.lf_oracle(tree, lexicon) == chain.lf, " ".join(chain.tokens)
        checked += 1
    assert all(depth >= 90 for shape, depth in refused if shape == "cp")
    assert all(depth > 160 for shape, depth in refused if shape != "cp")
    assert checked >= len(chains) - 3


@pytest.mark.parametrize("shape", inputs.SHAPES)
def test_closed_form_equals_oracle_for_both_determiners(shape, pools, lexicon):
    for det in pools.dets:
        fixed = inputs.Pools((det,), *[getattr(pools, f) for f in
                                        ("preps", "nouns", "names", "trans_verbs",
                                         "cp_verbs", "core_verbs")])
        for depth in (1, 4, 9):
            chain = inputs.build_chain(shape, depth, random.Random(depth), fixed, lexicon)
            assert flatsem.lf_oracle(list(chain.tokens), lexicon) == chain.lf


def test_recipe_keeps_bands_and_a_fixed_set_over_the_step_limit(recipe, pools, lexicon):
    for band, count in inputs.CHAIN_BAND_COUNTS.items():
        lo, hi = inputs.CHAIN_BAND_RANGES[band]
        in_band = [(s, d) for s, d in recipe if lo <= inputs.chain_length(s, d) <= hi]
        assert len(in_band) == count
    assert max(inputs.chain_length(s, d) for s, d in recipe) <= 512
    for shape, depth in set(recipe):
        low, high = inputs.chain_lf_range(shape, depth, pools, lexicon)
        assert (low >= inputs.STEP_LIMIT) == (high >= inputs.STEP_LIMIT)


def test_long_chains_fail_exactly_over_the_step_limit(recipe, lexicon):
    wl = workloads.LongChains(lexicon)
    shallow = [c for c in wl.build(3, 0) if len(c.tokens) <= 128]
    res = wl.run(shallow)
    assert not res.wrong
    assert res.failed == sum(c.over_step_limit for c in shallow) > 0
    assert res.passed == len(shallow) - res.failed
    assert set(res.errors) == {"RuntimeError"}


# ----------------------------------------------------------------------
# every workload's check catches a moved role argument


def test_fuzz_check_counts_a_moved_argument_as_wrong(monkeypatch, lexicon):
    wl = workloads.FuzzCheck(lexicon)
    corpus = wl.build(5, 0)[:40]
    victim = next(" ".join(t) for t, tree in corpus
                  if len(noun_positions(flatsem.lf_oracle(tree, lexicon))) >= 2)
    corrupt_one(monkeypatch, flatsem, victim)
    res = wl.run(corpus)
    assert len(res.wrong) == 1 and victim in res.wrong[0]
    assert res.passed == len(corpus) - 1 and res.failed == 0


def test_long_chains_counts_a_moved_argument_as_wrong(monkeypatch, lexicon):
    wl = workloads.LongChains(lexicon)
    chains = wl.build(5, 0)[:30]
    victim = " ".join(chains[4].tokens)
    corrupt_one(monkeypatch, flatsem, victim)
    res = wl.run(chains)
    assert len(res.wrong) == 1 and victim in res.wrong[0]
    assert res.passed == len(chains) - 1


def test_paper_splits_counts_a_moved_argument_as_wrong(monkeypatch, lexicon, tmp_path):
    monkeypatch.setattr(inputs, "SPLIT_ROWS", {"train": 300, "test": 40, "gen": 40})
    monkeypatch.setattr(inputs, "SHUFFLES", 5)
    wl = workloads.PaperSplits(lexicon, tmp_path)
    built = wl.build(5, 0)
    assert not wl.run(built).wrong

    built = wl.build(5, 0)
    sentence, _, category = next(row for row in built[0].rows["gen"]
                                 if len(noun_positions(row[1])) >= 2)
    corrupt_one(monkeypatch, decoder, sentence)
    res = wl.run(built)
    assert any(w.startswith("split gen:") for w in res.wrong)
    assert any(w.startswith(f"split gen/{category}:") for w in res.wrong)
    assert not any(w.startswith("split test:") for w in res.wrong)
    assert res.passed == len(built[0].rows["train"])


def test_gen_golds_are_reordered_but_equivalent(lexicon):
    rnd = inputs.split_round(11, 0, lexicon)
    kept = rnd.em_expected["gen"]
    assert 0 < kept < 0.5 * rnd.n_expected["gen"]
    for sentence, gold, _ in rnd.rows["gen"][:50]:
        oracle = flatsem.lf_oracle(sentence.split(), lexicon)
        assert flatsem.semantic_exact_match(gold, oracle)
        assert len(oracle.split()) < inputs.STEP_LIMIT


# ----------------------------------------------------------------------
# tracing


def test_self_time_on_a_hand_built_span_tree():
    #   0 [0, 100): children 1 [10, 40) and 2 [30, 70) overlap on [30, 40)
    #   1 [10, 40): child 3 [15, 25)
    #   2 [30, 70): child 4 [60, 90) runs past its parent's end
    #   5 [200, 260): a second root with no children
    parent = [-1, 0, 0, 1, 2, -1]
    start = [0, 10, 30, 15, 60, 200]
    end = [100, 40, 70, 25, 90, 260]
    assert spans.self_times(parent, start, end) == [40, 20, 30, 10, 30, 60]


def test_tracer_links_parents_and_counts_recursion_once():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def outer(n):
        return inner(n) if n == 0 else traced_outer(n - 1)

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", outer)
    inner = traced_inner  # noqa: F811  (outer looks the name up at call time)
    tracer.enabled = True
    assert traced_outer(2) == 1
    assert [tracer.names[n] for n in tracer.name] == ["m.outer"] * 3 + ["m.inner"]
    assert list(tracer.parent) == [-1, 0, 1, 2]
    summary = spans.Summary(tracer)
    assert summary.count("m.outer") == 3
    assert summary.ms("m.outer") == (tracer.end[0] - tracer.start[0]) / 1e6


# ----------------------------------------------------------------------
# BENCHMARK.json names what run.py reports


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(label for _, label in inputs.BANDS) == run.BAND_LABELS

    import worker
    from_worker = set(worker.layer_metrics(spans.Tracer(), 1))
    from_run = {name for name, _ in run.PER_LAYER}
    assert from_worker == {n for n in from_run if not n.startswith(("setup.", "trace."))}
