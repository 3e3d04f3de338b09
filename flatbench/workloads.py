"""The three workloads: one round is one pass over a freshly drawn corpus.

``build`` makes a round's inputs and expected outputs (corpus set-up, not
timed).  ``run`` times the pass through flatsem's public API and checks every
output against the expectation made by ``build``.  An operation that raises
counts as failed; one that returns a wrong output counts as wrong, which
makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import flatsem
from flatsem import cli

import inputs


@dataclass
class RoundResult:
    seconds: float
    attempted: int
    passed: int
    failed: int
    wrong: list[str] = field(default_factory=list)  # one line per wrong output
    errors: Counter = field(default_factory=Counter)  # exception type -> count

    @property
    def rate(self) -> float:
        return self.passed / self.seconds


class FuzzCheck:
    """``flatsem fuzz --check`` with the Earley parser in front."""

    name = "fuzz-check"

    def __init__(self, lexicon):
        self.lexicon = lexicon

    def build(self, seed: int, round_index: int):
        return inputs.fuzz_round(seed, round_index, self.lexicon)

    def run(self, corpus) -> RoundResult:
        lexicon = self.lexicon
        res = RoundResult(0.0, len(corpus), 0, 0)
        outputs = []
        t0 = time.perf_counter()
        for tokens, fuzz_tree in corpus:
            try:
                tree = flatsem.parse_sentence(tokens, lexicon)
                gold = flatsem.lf_oracle(tree, lexicon)
                pred = flatsem.decode(tokens, lexicon)
                if not flatsem.string_exact_match(gold, pred):
                    flatsem.semantic_exact_match(gold, pred)
            except Exception as exc:  # one sentence's failure must not end the run
                res.failed += 1
                res.errors[type(exc).__name__] += 1
                continue
            outputs.append((tokens, fuzz_tree, tree, gold, pred))
        res.seconds = time.perf_counter() - t0
        for tokens, fuzz_tree, tree, gold, pred in outputs:
            if tree == fuzz_tree and pred == gold:
                res.passed += 1
            else:
                res.wrong.append(f"{' '.join(tokens)}\n  oracle: {gold}\n  decode: {pred}")
        return res


class LongChains:
    """``decode`` at its defaults on pp and clause chains up to MAX_SEQ_LEN."""

    name = "long-chains"

    def __init__(self, lexicon):
        self.lexicon = lexicon
        self.pools = inputs.word_pools(lexicon)
        self.recipe = inputs.chain_recipe(self.pools, lexicon)

    def build(self, seed: int, round_index: int):
        return inputs.chain_round(seed, round_index, self.recipe, self.pools, self.lexicon)

    def run(self, chains) -> RoundResult:
        res = RoundResult(0.0, len(chains), 0, 0)
        outputs = []
        t0 = time.perf_counter()
        for chain in chains:
            try:
                outputs.append((chain, flatsem.decode(list(chain.tokens))))
            except Exception as exc:  # the step limit raises here; keep going
                res.failed += 1
                res.errors[type(exc).__name__] += 1
        res.seconds = time.perf_counter() - t0
        for chain, pred in outputs:
            if pred == chain.lf:
                res.passed += 1
            else:
                res.wrong.append(f"{' '.join(chain.tokens)}\n  closed form: {chain.lf}\n"
                                 f"  decode: {pred}")
        return res


_COVERAGE = re.compile(r"coverage source=\S+ n=(\d+) covered=(\d+) universe=(\d+)")
_CURVE = re.compile(r"curve first_full=(\S+) final=(\d+)")
_SHUFFLES = re.compile(r"shuffles n=(\d+) median=(\S+) p2\.5=(\S+) p97\.5=(\S+)")
_SPLIT = re.compile(r"split=(\S+) n=(\d+) sem=(\S+) em=(\S+)")


class PaperSplits:
    """The file-driven workflow: ``flatsem coverage`` on train, then
    ``flatsem run`` on test and gen, both in-process through ``cli.main``."""

    name = "paper-splits"

    def __init__(self, lexicon, workdir: Path):
        self.lexicon = lexicon
        self.workdir = workdir

    def build(self, seed: int, round_index: int):
        rnd = inputs.split_round(seed, round_index, self.lexicon)
        data = Path(tempfile.mkdtemp(prefix="splits-", dir=self.workdir))
        for split, rows in rnd.rows.items():
            cli.write_tsv(data / f"{split}.tsv", rows)
        return rnd, data

    def run(self, built) -> RoundResult:
        rnd, data = built
        n_train = len(rnd.rows["train"])
        n_eval = len(rnd.rows["test"]) + len(rnd.rows["gen"])
        res = RoundResult(0.0, n_train + n_eval, 0, 0)
        t0 = time.perf_counter()
        coverage_out = self._main(res, n_train, ["coverage", "--data", str(data),
                                                 "--split", "train", "--curve",
                                                 "--shuffles", str(inputs.SHUFFLES),
                                                 "--seed", str(rnd.shuffle_seed)])
        run_out = self._main(res, n_eval, ["run", "--data", str(data),
                                           "--split", "test", "--split", "gen"])
        res.seconds = time.perf_counter() - t0
        shutil.rmtree(data)
        if coverage_out is not None:
            wrong = self.check_coverage(rnd, coverage_out)
            res.wrong += wrong
            res.passed += 0 if wrong else n_train
        if run_out is not None:
            wrong = self.check_run(rnd, run_out)
            res.wrong += wrong
            res.passed += 0 if wrong else n_eval
        return res

    @staticmethod
    def _main(res: RoundResult, rows: int, argv: list[str]):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
        except Exception as exc:  # a split that dies fails all of its rows
            res.failed += rows
            res.errors[type(exc).__name__] += 1
            return None
        if status != 0:
            res.failed += rows
            res.errors[f"exit {status}"] += 1
            return None
        return out.getvalue()

    @staticmethod
    def check_coverage(rnd: inputs.SplitRound, text: str) -> list[str]:
        wrong = []
        universe = inputs.grammar_expansion_keys()
        cov = _COVERAGE.search(text)
        missing = {ln[len("missing "):] for ln in text.splitlines() if ln.startswith("missing ")}
        if (not cov or int(cov[1]) != len(rnd.rows["train"]) or int(cov[2]) != len(rnd.covered)
                or int(cov[3]) != len(universe) or missing != universe - rnd.covered):
            wrong.append(f"coverage differs from the fuzzer's trees: {text[:300]!r}")
        curve = _CURVE.search(text)
        if not curve or curve[1] != str(rnd.first_full):
            wrong.append(f"curve first_full {curve and curve[1]} != {rnd.first_full}")
        shuf = _SHUFFLES.search(text)
        if not shuf or int(shuf[1]) != inputs.SHUFFLES or not (
                1 <= float(shuf[3]) <= float(shuf[2]) <= float(shuf[4]) <= len(rnd.rows["train"])):
            wrong.append(f"shuffle summary out of range: {shuf and shuf[0]}")
        return wrong

    @staticmethod
    def check_run(rnd: inputs.SplitRound, text: str) -> list[str]:
        """Semantic hits equal n everywhere; string hits equal the rows
        whose gold was not reordered."""
        reported = {m[1]: (int(m[2]), m[3], m[4]) for m in _SPLIT.finditer(text)}
        wrong = []
        if set(reported) != set(rnd.n_expected):
            wrong.append(f"reported splits {sorted(reported)} != {sorted(rnd.n_expected)}")
        for split, n in rnd.n_expected.items():
            want = (n, f"{1:.4f}", f"{rnd.em_expected[split] / n:.4f}")
            if reported.get(split) != want:
                wrong.append(f"split {split}: reported {reported.get(split)} expected {want}")
        return wrong


def make(name: str, lexicon, workdir: Path):
    if name == FuzzCheck.name:
        return FuzzCheck(lexicon)
    if name == LongChains.name:
        return LongChains(lexicon)
    if name == PaperSplits.name:
        return PaperSplits(lexicon, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (FuzzCheck.name, LongChains.name, PaperSplits.name)
