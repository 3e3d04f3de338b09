"""Benchmark for flatsem: one command for every workload.

    python3 flatbench/run.py --workload fuzz-check --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run starts one worker process per round (``worker.py``), one after the
other, until ``--seconds`` have passed.  Each round draws a fresh corpus of
the workload's fixed make-up from the seed, so every run attempts whole
rounds of the same operations.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, each metric the median over the
rounds.  With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the first half of the time runs untraced rounds and the second
half traced ones; the metrics are the per-layer figures of the traced rounds
and the tracing overhead.  A summary goes to standard error; the full result,
and with ``--trace 1`` the spans, go to ``flatbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fuzz-check", "long-chains", "paper-splits")
ROUND_TIMEOUT_S = 60

BAND_LABELS = ("len032", "len128", "len320", "len512")

END_TO_END = (
    ("sentences_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit; the README says which end-to-end metric each should move
PER_LAYER = (
    ("seq.select.calls", "count"),
    ("seq.select.cells", "count"),
    ("seq.select.ms", "ms"),
    ("seq.combine.ms", "ms"),
    ("seq.aggregate.ms", "ms"),
    ("seq.selector_width.ms", "ms"),
    ("seq.elementwise.ms", "ms"),
    ("seq.shift.calls", "count"),
    ("encoder.analyze.ms", "ms"),
    ("encoder.analyze.self_ms", "ms"),
    *((f"encoder.analyze.ms_per_sentence.{b}", "ms") for b in BAND_LABELS),
    ("lexicon.embed.ms", "ms"),
    ("decoder.decode.self_ms", "ms"),
    ("decoder.next_token.calls", "count"),
    ("decoder.next_token.ms", "ms"),
    ("decoder.build_plan.ms", "ms"),
    *((f"decoder.decode.ms_per_sentence.{b}", "ms") for b in BAND_LABELS),
    ("decoder.plan_builds_per_decode", "ratio"),
    ("cli.decodes_per_row", "ratio"),
    ("cli.cmd_run.self_ms", "ms"),
    ("cli.load_tsv.ms", "ms"),
    ("grammar.parse_sentence.calls", "count"),
    ("grammar.parse_sentence.ms", "ms"),
    ("grammar.parses_per_row", "ratio"),
    ("oracle.lf_oracle.ms", "ms"),
    ("logical_form.semantic_exact_match.calls", "count"),
    ("logical_form.semantic_exact_match.ms", "ms"),
    ("logical_form.parse_lf.calls", "count"),
    ("logical_form.score_split.self_ms", "ms"),
    ("logical_form.clopper_pearson.ms", "ms"),
    ("coverage.coverage.self_ms", "ms"),
    ("coverage.coverage_curve.self_ms", "ms"),
    ("coverage.shuffle_experiment.self_ms", "ms"),
    ("fuzz.fuzz_generate.ms", "ms"),
    ("setup.import_flatsem_s", "s"),
    ("setup.default_lexicon_s", "s"),
    ("trace.sentences_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RR_")}  # CLI defaults
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # one thread per process: numpy (under scipy) would start one per core
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_round(workload: str, seed: int, index: int, trace: int, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--round", str(index), "--trace", str(trace), "--workdir", str(workdir)],
        env=worker_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, first: int, trace: int,
               workdir: Path) -> list[dict]:
    """Whole rounds, one worker each, until ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    rounds = []
    while not rounds or time.monotonic() < deadline:
        rounds.append(run_round(workload, seed, first + len(rounds), trace, workdir))
    return rounds


def median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "flatsem" / "__init__.py").is_file():
        print(f"flatsem sources not found under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # a terminated run still kills its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            for old in OUT.glob(f"trace-{args.workload}-round*.jsonl.gz"):
                old.unlink()
            plain = run_rounds(args.workload, args.seed, args.seconds / 2, 0, 0, workdir)
            traced = run_rounds(args.workload, args.seed, args.seconds / 2, len(plain), 1, workdir)
            rounds = plain + traced
            values = {name: median_of(traced, lambda r: r["layers"][name])
                      for name in traced[0]["layers"]}
            values["setup.import_flatsem_s"] = median_of(rounds, lambda r: r["import_s"])
            values["setup.default_lexicon_s"] = median_of(rounds, lambda r: r["lexicon_s"])
            values["trace.sentences_per_s"] = median_of(traced, lambda r: r["rate"])
            values["trace.overhead_ratio"] = (median_of(plain, lambda r: r["rate"])
                                              / values["trace.sentences_per_s"])
            units = dict(PER_LAYER)
        else:
            rounds = run_rounds(args.workload, args.seed, args.seconds, 0, 0, workdir)
            values = {
                "sentences_per_s": median_of(rounds, lambda r: r["rate"]),
                "setup_s": median_of(rounds, lambda r: r["import_s"] + r["lexicon_s"]),
                "peak_rss_mb": median_of(rounds, lambda r: r["peak_rss_mb"]),
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not any(r["n_wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    errors = sum((Counter(r["errors"]) for r in rounds), start=Counter())
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, **result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds, rates "
          + " ".join(f"{r['rate']:.1f}" for r in rounds)
          + f"; errors {dict(errors)}; {sum(r['n_wrong'] for r in rounds)} wrong outputs",
          file=sys.stderr)
    for w in [w for r in rounds for w in r["wrong"]][:5]:
        print(f"# WRONG {w}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
