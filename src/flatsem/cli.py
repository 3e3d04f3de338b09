"""Command-line front end.

Subcommands:

* ``run``       decode TSV splits, judge each row once (its kind, e.g.
                attraction under the pp ablation) and score the kinds'
                tally (semantic + string EM)
* ``coverage``  grammar-expansion coverage of splits or a sentence file
* ``fuzz``      generate random in-grammar sentences (+ oracle forms)
* ``augment``   emit pp-moved double-object dative rows

Paths may also come from the environment: RR_DATA (--data), RR_LEXICON
(--lexicon) and RR_OUT (--out); an empty one counts as unset.  Explicit
flags win.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

from . import decoder, fuzz, oracle
# the coverage() function shadows its submodule on the package, so pull the
# names straight from the module
from .coverage import CoverageResult, CurveResult, ShuffleResult, row_expansions
from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon
from .logical_form import HITS, ErrorReport, SplitReport, classify_error
from .seq import MAX_SEQ_LEN, SequenceTooLongError

Row = tuple[str, str, str]  # sentence, logical form, category


def load_tsv(path: str | Path, drop_augmented: bool = False) -> list[Row]:
    """Read (sentence, lf, category) rows; optionally hide augmented ones."""
    rows: list[Row] = []
    with open(path, newline="") as fh:
        for parts in csv.reader(fh, delimiter="\t"):
            if not parts or not parts[0].strip():
                continue
            sentence = parts[0]
            lf = parts[1] if len(parts) > 1 else ""
            category = parts[2] if len(parts) > 2 else ""
            if drop_augmented and category == oracle.AUGMENTED_CATEGORY:
                continue
            rows.append((sentence, lf, category))
    return rows


def write_tsv(path: str | Path, rows: list[Row]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, delimiter="\t")
        for row in rows:
            w.writerow(row)


def _get_lexicon(args) -> Lexicon:
    return args.lexicon or default_lexicon()


def _split_paths(args) -> list[tuple[str, Path]]:
    """The split files a command reads; a missing data directory or split
    file is a usage error of the command (exit status 2)."""
    if args.data is None:
        args.parser.error("no data directory: pass --data or set RR_DATA")
    out = []
    for name in args.split or ["test"]:
        p = Path(args.data) / f"{name}.tsv"
        if not p.exists():
            args.parser.error(f"split file not found: {p}")
        out.append((name, p))
    return out


def _split_rows(name: str, path: Path, args) -> list[Row]:
    """The rows of one split that ``run`` scores; a split left with none is
    noted on stderr."""
    rows = load_tsv(path, drop_augmented=args.drop_augmented)
    if args.max_len is not None:
        kept = [r for r in rows if len(r[0].split()) <= args.max_len]
        if len(kept) < len(rows):
            print(f"# skipped {len(rows) - len(kept)} rows longer than {args.max_len} tokens",
                  file=sys.stderr)
        rows = kept
    if not rows:
        print(f"# split={name}: no rows to score", file=sys.stderr)
    return rows


# Kinds of rows the decoder cannot read: the error decode_all leaves in such a
# row's place, and how the stderr summary names them.
UNDECODABLE = {
    "oov": (LexiconError, "hold words not in the lexicon"),
    "too_long": (SequenceTooLongError, f"are longer than {MAX_SEQ_LEN} tokens"),
}


def _report_undecodable(source: str, kinds: Counter, what: str) -> int:
    """Note on stderr how many rows of a source ("split=NAME" or
    "source=NAME") could not be read; returns that count."""
    for kind, (_, note) in UNDECODABLE.items():
        if kinds[kind]:
            print(f"# {source}: {kinds[kind]} rows {note}, {what}", file=sys.stderr)
    return sum(kinds[kind] for kind in UNDECODABLE)


def _count_oov(sentences: list[str], lexicon: Lexicon) -> Counter:
    """The rows that hold a word outside the lexicon, as kind ``oov``."""
    return Counter(oov=sum(not all(map(lexicon.__contains__, s.split())) for s in sentences))


def cmd_run(args) -> int:
    lexicon = _get_lexicon(args)
    lines: list[str] = []
    shown = failed = 0  # failed: undecodable rows, plus splits with no rows to score
    for name, path in _split_paths(args):
        rows = _split_rows(name, path, args)
        if not rows:
            failed += 1
            continue
        kinds = []  # one per row
        preds = decoder.decode_all([sentence for sentence, _, _ in rows], lexicon,
                                   args.ablate_no_pp_rule)
        for (sentence, gold, _cat), pred in zip(rows, preds):
            if isinstance(pred, str):
                verdict = classify_error(gold, pred)
            else:  # the decoder could not read the row: a miss of the error's kind
                pred, verdict = None, ErrorReport(next(
                    kind for kind, (error, _) in UNDECODABLE.items() if isinstance(pred, error)))
            kinds.append(verdict.kind)
            if verdict.kind not in HITS and shown < args.show:
                shown += 1
                print(f"[{verdict.kind}] {sentence}\n  gold: {gold}\n  pred: {pred}"
                      + (f"\n  {verdict.detail}" if verdict.detail else ""))
        report = SplitReport(name, Counter(kinds))
        failed += _report_undecodable(f"split={name}", report.kinds, "scored as misses")
        lines.append(report.format())
        if name == "gen":
            by_cat: dict[str, Counter] = {}
            for (_s, _g, cat), kind in zip(rows, kinds):
                by_cat.setdefault(cat or "uncategorized", Counter())[kind] += 1
            for cat in sorted(by_cat):
                lines.append(SplitReport(f"gen/{cat}", by_cat[cat]).format())
        lines += [f"split={name} kind={kind} count={count} frac={count / len(rows):.4f}"
                  for kind, count in sorted(report.kinds.items())]
    if lines:
        print("\n".join(lines))
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines))
    return 1 if failed else 0


def cmd_coverage(args) -> int:
    lexicon = _get_lexicon(args)
    if args.sentences:
        sources = [(args.sentences, [ln for ln in Path(args.sentences).read_text().splitlines()
                                     if ln.strip()])]
    else:
        sources = ((name, [r[0] for r in load_tsv(path)]) for name, path in _split_paths(args))
    failed = 0  # rows with a word outside the lexicon
    for label, sentences in sources:
        oov = _count_oov(sentences, lexicon)
        rows = row_expansions(sentences, lexicon)
        result = CoverageResult.from_rows(rows)
        print(f"coverage source={label} n={len(sentences)} covered={len(result.covered)} "
              f"universe={len(result.universe)} fraction={result.fraction}")
        for key in sorted(result.missing):
            print(f"missing {key}")
        if args.curve:
            curve = CurveResult.from_rows(rows)
            print(f"curve first_full={curve.first_full} final={curve.final}")
        if args.shuffles and result.missing:
            # the covered set does not depend on row order, so no shuffle fills it
            print(f"shuffles n={args.shuffles} median=None p2.5=None p97.5=None "
                  "(no row order reaches full coverage)")
        elif args.shuffles:
            res = ShuffleResult.from_rows(rows, n_shuffles=args.shuffles, seed=args.seed)
            print(f"shuffles n={args.shuffles} median={res.median} "
                  f"p2.5={res.lo} p97.5={res.hi}")
        failed += _report_undecodable(f"source={label}", oov, "given no expansions")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    lexicon = _get_lexicon(args)
    try:
        examples = fuzz.fuzz_generate(args.n, lexicon, seed=args.seed,
                                      pp_depth=args.pp_depth, cp_depth=args.cp_depth,
                                      mode=args.mode)
    except ValueError as err:  # a leaf category with no word in the lexicon
        print(f"flatsem: error: {err}", file=sys.stderr)
        return 2
    rows: list[Row] = [(" ".join(tokens), oracle.lf_oracle(tree, lexicon), "fuzz")
                       for tokens, tree in examples]
    mismatches = 0
    if args.check:
        preds = decoder.decode_all([tokens for tokens, _ in examples], lexicon)
        for (sentence, gold, _), pred in zip(rows, preds):
            if pred != gold:
                mismatches += 1
                print(f"MISMATCH {sentence}\n  oracle: {gold}\n  decode: {pred}")
    if args.out:
        write_tsv(args.out, rows)
    else:
        for row in rows:
            print("\t".join(row))
    if args.check:
        print(f"# checked {len(rows)} sentences, {mismatches} mismatches")
        return 1 if mismatches else 0
    return 0


def cmd_augment(args) -> int:
    lexicon = _get_lexicon(args)
    augmented: list[Row] = []
    failed = 0  # rows with a word outside the lexicon
    for name, path in _split_paths(args):
        rows = load_tsv(path)
        new = oracle.augment_v_dat_p2(rows, lexicon)
        augmented += new
        print(f"# augmented {len(new)} of {len(rows)} rows", file=sys.stderr)
        oov = _count_oov([sentence for sentence, _, _ in rows], lexicon)
        failed += _report_undecodable(f"source={name}", oov, "skipped")
    if args.out:
        write_tsv(args.out, augmented)
    else:
        for row in augmented:
            print("\t".join(row))
    return 1 if failed else 0


def non_negative_int(text: str) -> int:
    """argparse type of a count or depth: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of a length limit: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _lexicon_file(path: str) -> Lexicon:
    """argparse type of a lexicon table: the loaded lexicon.  A missing file,
    or a line the lexicon cannot use, is a usage error (exit 2)."""
    try:
        return load_lexicon(path)
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(err) from None


def _env(name: str) -> Optional[str]:
    """An environment variable's value; an empty one counts as unset."""
    return os.environ.get(name) or None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flatsem", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lexicon", type=_lexicon_file, default=_env("RR_LEXICON"),
                    help="alternative lexicon TSV (default: bundled)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", default=_env("RR_DATA"),
                       help="directory with <split>.tsv files")
        p.add_argument("--split", action="append",
                       help="split name (repeatable; default test)")
        p.set_defaults(parser=p)

    p = sub.add_parser("run", help="decode splits, score them and tally each row's kind")
    add_data_args(p)
    p.add_argument("--max-len", type=positive_int,
                   help="skip sentences longer than this many tokens")
    p.add_argument("--ablate-no-pp-rule", action="store_true",
                   help="bind roles without filtering pp-prefixed nouns")
    p.add_argument("--drop-augmented", action="store_true")
    p.add_argument("--show", type=non_negative_int, default=0,
                   help="print this many mistakes in full")
    p.add_argument("--out", default=_env("RR_OUT"), help="also write the report here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("coverage", help="expansion coverage of sentences")
    add_data_args(p)
    p.add_argument("--sentences", help="plain text file, one sentence per line")
    p.add_argument("--curve", action="store_true", help="cumulative coverage curve")
    p.add_argument("--shuffles", type=non_negative_int, default=0, help="row-order shuffle experiment")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("fuzz", help="random in-grammar sentences")
    p.add_argument("--n", type=non_negative_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pp-depth", type=non_negative_int, default=2)
    p.add_argument("--cp-depth", type=non_negative_int, default=2)
    p.add_argument("--mode", choices=["uniform", "coverage"], default="uniform")
    p.add_argument("--check", action="store_true",
                   help="verify decode() against the oracle on each sentence")
    p.add_argument("--out", default=_env("RR_OUT"), help="write sentence\\tlf\\tfuzz rows")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("augment", help="move datives' theme pp to the recipient")
    add_data_args(p)
    p.add_argument("--out", default=_env("RR_OUT"))
    p.set_defaults(fn=cmd_augment)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
