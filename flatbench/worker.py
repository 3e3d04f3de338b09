"""One round of a workload in a fresh interpreter.

    python3 flatbench/worker.py --workload NAME --seed N --round K --trace 0|1 --workdir DIR

The worker first times ``import flatsem`` and ``default_lexicon()`` -- the
cold start a user pays -- then builds the round's corpus (not timed), runs the
timed pass and checks it.  Because each round has a process of its own, the
decoder's plan cache sees only the repeats the program itself makes and
``ru_maxrss`` belongs to that one pass.  With ``--trace 1`` the program's
public functions are wrapped for the round (corpus set-up included), the
per-layer figures are computed here, and the spans are written next to the
result.  The last line of standard output is the round's result as JSON.
"""

import time

t0 = time.perf_counter()
import flatsem  # noqa: E402  (the import is what is being timed)
t1 = time.perf_counter()
LEXICON = flatsem.default_lexicon()
t2 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Summary, Tracer  # noqa: E402


def layer_metrics(tracer: Tracer, attempted: int) -> dict[str, float]:
    """Per-layer figures of one traced round; names as in run.PER_LAYER."""
    s = Summary(tracer)
    m: dict[str, float] = {}
    m["seq.select.calls"] = s.count("seq.select")
    m["seq.select.cells"] = s.total_size("seq.select")
    for fn in ("select", "combine", "aggregate", "selector_width", "elementwise"):
        m[f"seq.{fn}.ms"] = s.ms(f"seq.{fn}")
    m["seq.shift.calls"] = s.count("seq.shift_right") + s.count("seq.shift_left")
    m["encoder.analyze.ms"] = s.ms("encoder.analyze")
    m["encoder.analyze.self_ms"] = s.self_ms("encoder.analyze")
    for fn in ("encoder.analyze", "decoder.decode"):
        per_band: dict[str, list[int]] = {label: [] for _, label in inputs.BANDS}
        for i in s.spans_of(fn):
            per_band[inputs.band_of(tracer.size[i])].append(tracer.end[i] - tracer.start[i])
        for label, ns in per_band.items():
            m[f"{fn}.ms_per_sentence.{label}"] = statistics.fmean(ns) / 1e6 if ns else 0.0
    m["lexicon.embed.ms"] = s.ms("lexicon.embed")
    m["decoder.decode.self_ms"] = s.self_ms("decoder.decode")
    m["decoder.next_token.calls"] = s.count("decoder.next_token")
    m["decoder.next_token.ms"] = s.ms("decoder.next_token")
    m["decoder.build_plan.ms"] = s.ms("decoder.build_plan")
    decodes = s.count("decoder.decode")
    m["decoder.plan_builds_per_decode"] = s.count("decoder.build_plan") / decodes if decodes else 0.0
    in_run = s.under("cli.cmd_run")
    run_decodes = sum(in_run[i] for i in s.spans_of("decoder.decode"))
    run_rows = sum(tracer.size[i] for i in s.spans_of("cli.load_tsv") if in_run[i])
    m["cli.decodes_per_row"] = run_decodes / run_rows if run_rows else 0.0
    m["cli.cmd_run.self_ms"] = s.self_ms("cli.cmd_run")
    m["cli.load_tsv.ms"] = s.ms("cli.load_tsv")
    m["grammar.parse_sentence.calls"] = s.count("grammar.parse_sentence")
    m["grammar.parse_sentence.ms"] = s.ms("grammar.parse_sentence")
    m["grammar.parses_per_row"] = s.count("grammar.parse_sentence") / attempted
    m["oracle.lf_oracle.ms"] = s.ms("oracle.lf_oracle")
    m["logical_form.semantic_exact_match.calls"] = s.count("logical_form.semantic_exact_match")
    m["logical_form.semantic_exact_match.ms"] = s.ms("logical_form.semantic_exact_match")
    m["logical_form.parse_lf.calls"] = s.count("logical_form.parse_lf")
    m["logical_form.score_split.self_ms"] = s.self_ms("logical_form.score_split")
    m["logical_form.clopper_pearson.ms"] = s.ms("logical_form.clopper_pearson")
    for fn in ("coverage", "coverage_curve", "shuffle_experiment"):
        m[f"coverage.{fn}.self_ms"] = s.self_ms(f"coverage.{fn}")
    m["fuzz.fuzz_generate.ms"] = s.ms("fuzz.fuzz_generate")
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    expected = Path(__file__).resolve().parent.parent / "src" / "flatsem"
    if Path(flatsem.__path__[0]).resolve() != expected:
        raise SystemExit(f"imported flatsem from {flatsem.__path__[0]}, expected {expected}")

    workload = workloads.make(args.workload, LEXICON, args.workdir)
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    corpus = workload.build(args.seed, args.round)
    res = workload.run(corpus)
    tracer.enabled = False
    out = {
        "import_s": t1 - t0,
        "lexicon_s": t2 - t1,
        "seconds": res.seconds,
        "attempted": res.attempted,
        "passed": res.passed,
        "failed": res.failed,
        "rate": res.rate,
        "errors": dict(res.errors),
        "wrong": res.wrong[:20],
        "n_wrong": len(res.wrong),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        out["layers"] = layer_metrics(tracer, res.attempted)
        tracer.dump(args.workdir.parent / f"trace-{args.workload}-round{args.round}.jsonl.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
