import importlib
from collections import Counter
from pathlib import Path

import pytest

from flatsem import cli, decoder, logical_form
from flatsem.cli import load_tsv, main, write_tsv
from flatsem.coverage import coverage, coverage_curve, shuffle_experiment
from flatsem.fuzz import fuzz_generate, pp_chain_sentence
from flatsem.grammar import leaf_classes
from flatsem.lexicon import LexiconError
from flatsem.oracle import AUGMENTED_CATEGORY, lf_oracle
from flatsem.seq import SequenceTooLongError

from corpora import (
    ATTRACTION_CASES,
    AUGMENT_AFTER,
    AUGMENT_BEFORE,
    CLOSING_2,
    GOLDEN,
    HANDPICKED_19,
    HANDPICKED_MISSING_4,
)


@pytest.fixture
def datadir(tmp_path):
    rows = [(s, lf, "in_distribution") for s, lf in sorted(GOLDEN.items())]
    write_tsv(tmp_path / "dev.tsv", rows)
    return tmp_path


def test_tsv_roundtrip(tmp_path):
    rows = [("a b c", "x ( 0 )", "cat"), ("d e", "y ( 1 )", AUGMENTED_CATEGORY)]
    write_tsv(tmp_path / "t.tsv", rows)
    assert load_tsv(tmp_path / "t.tsv") == rows
    assert load_tsv(tmp_path / "t.tsv", drop_augmented=True) == rows[:1]


def test_run_scores_a_split(datadir, capsys):
    assert main(["run", "--data", str(datadir), "--split", "dev"]) == 0
    out = capsys.readouterr().out
    assert f"split=dev n={len(GOLDEN)} sem=1.0000 em=1.0000" in out


def test_run_defaults_to_test_split(datadir, capsys, monkeypatch):
    monkeypatch.delenv("RR_DATA", raising=False)
    (datadir / "dev.tsv").rename(datadir / "test.tsv")
    assert main(["run", "--data", str(datadir)]) == 0
    assert "split=test " in capsys.readouterr().out


def test_run_gen_split_reports_per_category(tmp_path, capsys):
    rows = [
        ("a boy painted the girl", GOLDEN["a boy painted the girl"], "alpha"),
        ("the captain ate .", GOLDEN["the captain ate ."], "beta"),
    ]
    write_tsv(tmp_path / "gen.tsv", rows)
    main(["run", "--data", str(tmp_path), "--split", "gen"])
    out = capsys.readouterr().out
    assert "split=gen n=2" in out
    assert "split=gen/alpha n=1" in out
    assert "split=gen/beta n=1" in out


def test_run_writes_report_file(datadir, capsys):
    out_file = datadir / "report.txt"
    main(["run", "--data", str(datadir), "--split", "dev", "--out", str(out_file)])
    assert out_file.read_text().strip() == capsys.readouterr().out.strip()


def test_run_max_len_filters_rows(datadir, capsys):
    main(["run", "--data", str(datadir), "--split", "dev", "--max-len", "5"])
    captured = capsys.readouterr()
    short = sum(1 for s in GOLDEN if len(s.split()) <= 5)
    assert f"split=dev n={short} " in captured.out
    assert "skipped" in captured.err


def test_run_ablation_flag_changes_binding(tmp_path, capsys):
    sentence, clean, _ablated, _ = ATTRACTION_CASES[0]
    write_tsv(tmp_path / "dev.tsv", [(sentence, clean, "x")])
    main(["run", "--data", str(tmp_path), "--split", "dev"])
    assert "sem=1.0000" in capsys.readouterr().out
    main(["run", "--data", str(tmp_path), "--split", "dev", "--ablate-no-pp-rule"])
    assert "sem=0.0000" in capsys.readouterr().out


def test_run_scores_out_of_lexicon_rows_as_misses(tmp_path, capsys):
    rows = [
        ("emma saw zorblax .", "emma ( 0 )", "x"),
        ("a boy painted the girl", GOLDEN["a boy painted the girl"], "x"),
    ]
    write_tsv(tmp_path / "test.tsv", rows)
    assert main(["run", "--data", str(tmp_path), "--split", "test"]) == 1
    captured = capsys.readouterr()
    assert "split=test n=2 sem=0.5000 em=0.5000" in captured.out
    assert "1 rows hold words not in the lexicon" in captured.err


def test_run_without_data_exits(monkeypatch):
    monkeypatch.delenv("RR_DATA", raising=False)
    with pytest.raises(SystemExit):
        main(["run"])


def test_data_from_environment(datadir, capsys, monkeypatch):
    monkeypatch.setenv("RR_DATA", str(datadir))
    assert main(["run", "--split", "dev"]) == 0
    assert "split=dev" in capsys.readouterr().out


def test_coverage_of_sentence_file(tmp_path, capsys):
    f = tmp_path / "sentences.txt"
    f.write_text("\n".join(HANDPICKED_19) + "\n")
    main(["coverage", "--sentences", str(f)])
    out = capsys.readouterr().out
    assert "covered=48 universe=52" in out
    for key in HANDPICKED_MISSING_4:
        assert f"missing {key}" in out


def test_coverage_curve_and_shuffles(tmp_path, capsys):
    f = tmp_path / "sentences.txt"
    f.write_text("\n".join(HANDPICKED_19 + CLOSING_2) + "\n")
    main(["coverage", "--sentences", str(f), "--curve", "--shuffles", "20", "--seed", "9"])
    out = capsys.readouterr().out
    assert "fraction=1.0" in out
    assert "curve first_full=21 final=52" in out
    assert "shuffles n=20 median=" in out


def test_coverage_shuffles_without_full_coverage(tmp_path, capsys):
    f = tmp_path / "sentences.txt"
    f.write_text("the girl was painted\na boy painted\n")
    assert main(["coverage", "--sentences", str(f), "--curve", "--shuffles", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "curve first_full=None final=9" in lines
    assert lines[-1] == ("shuffles n=5 median=None p2.5=None p97.5=None "
                         "(no row order reaches full coverage)")


@pytest.mark.parametrize("argv", [
    ["coverage", "--sentences", "x.txt", "--max-len", "5"],
    ["augment", "--data", ".", "--max-len", "5"],
    ["run", "--data", ".", "--use_dev_split"],
    ["analyze-errors", "--data", ".", "--split", "dev"],  # now run's kind lines
    ["augment", "--in", "x.tsv"],  # --data DIR --split NAME names the same file
])
def test_removed_options_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse usage error


@pytest.mark.parametrize("command", ["coverage", "augment"])
def test_split_commands_read_every_split(command, tmp_path, capsys):
    """Two splits give the two one-split reports, one after the other; the
    command exits 1 when either split holds an out-of-lexicon row."""
    write_tsv(tmp_path / "dev.tsv", [(AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "x"),
                                     ("a boy painted the girl", "x ( 0 )", "x")])
    write_tsv(tmp_path / "test.tsv", [(OUT_OF_LEXICON[0], "x ( 0 )", "x"),
                                      (AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "x")])
    alone = {}
    for name in ("dev", "test"):
        code = main([command, "--data", str(tmp_path), "--split", name])
        alone[name] = code, capsys.readouterr()
    assert [code for code, _ in alone.values()] == [0, 1]
    for pair, code in ((["dev", "test"], 1), (["test", "dev"], 1), (["dev", "dev"], 0)):
        assert main([command, "--data", str(tmp_path), "--split", pair[0],
                     "--split", pair[1]]) == code
        both = capsys.readouterr()
        assert both.out == "".join(alone[name][1].out for name in pair)
        assert both.err == "".join(alone[name][1].err for name in pair)


@pytest.mark.parametrize("argv", [
    ["fuzz", "--n", "-2"],
    ["fuzz", "--pp-depth", "-5"],
    ["fuzz", "--cp-depth", "-3"],
    ["coverage", "--sentences", "x.txt", "--shuffles", "-4"],
    ["run", "--data", ".", "--show", "-1"],
], ids=["n", "pp-depth", "cp-depth", "shuffles", "show"])
def test_negative_counts_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse usage error
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be a non-negative integer, got {argv[-1]}" in captured.err


def test_zero_counts_are_accepted(capsys):
    assert main(["fuzz", "--n", "1", "--pp-depth", "0", "--cp-depth", "0", "--check"]) == 0
    assert "# checked 1 sentences, 0 mismatches" in capsys.readouterr().out
    assert main(["fuzz", "--n", "0"]) == 0


def test_fuzz_settings_ignore_the_environment(capsys, monkeypatch):
    main(["fuzz", "--n", "3"])
    default = capsys.readouterr().out
    for name in ("RR_SEED", "RR_PP_DEPTH", "RR_CP_DEPTH"):
        monkeypatch.setenv(name, "5")
    main(["fuzz", "--n", "3"])
    assert capsys.readouterr().out == default


def test_coverage_parses_each_distinct_row_once(tmp_path, capsys, monkeypatch, lexicon):
    """One parse per distinct train row feeds all three coverage reports,
    which print what the three separate functions compute."""
    sentences = [*HANDPICKED_19, HANDPICKED_19[2], "shark .", *CLOSING_2, "emma . smiled"]
    write_tsv(tmp_path / "train.tsv", [(s, "x ( 0 )", "in_distribution") for s in sentences])
    cov_module = importlib.import_module("flatsem.coverage")
    parsed = Counter()
    real_walk = cov_module.class_expansions

    def counting_walk(shape):
        parsed[shape] += 1
        return real_walk(shape)

    monkeypatch.setattr(cov_module, "class_expansions", counting_walk)
    assert main(["coverage", "--data", str(tmp_path), "--split", "train", "--curve",
                 "--shuffles", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert sum(parsed.values()) == len(set(sentences)) == len(sentences) - 1
    assert set(parsed.values()) == {1}

    monkeypatch.setattr(cov_module, "class_expansions", real_walk)
    result = coverage(sentences, lexicon)
    curve = coverage_curve(sentences, lexicon)
    shuffles = shuffle_experiment(sentences, lexicon, n_shuffles=20, seed=1)
    expected = [
        f"coverage source=train n={len(sentences)} covered={len(result.covered)} "
        f"universe={len(result.universe)} fraction={result.fraction}",
        *(f"missing {key}" for key in sorted(result.missing)),
        f"curve first_full={curve.first_full} final={curve.final}",
        f"shuffles n=20 median={shuffles.median} p2.5={shuffles.lo} p97.5={shuffles.hi}",
    ]
    assert out.splitlines() == expected


# One out-of-lexicon row: an unknown word, and a verb stem that is only ever
# an output label.
OUT_OF_LEXICON = ["emma saw zorblax .", "emma sell the cake ."]


@pytest.mark.parametrize("oov", OUT_OF_LEXICON, ids=["zorblax", "sell"])
@pytest.mark.parametrize("argv", [
    ["coverage", "--data", "DIR", "--split", "test", "--curve", "--shuffles", "3"],
    ["coverage", "--sentences", "DIR/s.txt", "--curve", "--shuffles", "3"],
], ids=["split", "sentences"])
def test_coverage_reports_out_of_lexicon_rows(argv, oov, tmp_path, capsys, monkeypatch,
                                              lexicon):
    """The out-of-lexicon row is counted on stderr and never parsed, and the
    second row, whose words fill the classes of the first's, is parsed with it."""
    twin = "emma gave a dog the cake on a table ."  # AUGMENT_BEFORE's word classes
    sentences = [AUGMENT_BEFORE[0], twin, oov]
    write_tsv(tmp_path / "test.tsv", [(s, "x ( 0 )", "x") for s in sentences])
    (tmp_path / "s.txt").write_text("\n".join(sentences) + "\n")
    cov_module = importlib.import_module("flatsem.coverage")
    parsed = Counter()
    real_walk = cov_module.class_expansions

    def counting_walk(shape):
        parsed[shape] += 1
        return real_walk(shape)

    monkeypatch.setattr(cov_module, "class_expansions", counting_walk)
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    first = tuple(leaf_classes(t, lexicon) for t in sentences[0].split()[:-1])
    assert parsed == Counter([first])  # one parse per word-class sequence

    monkeypatch.setattr(cov_module, "class_expansions", real_walk)
    covered = len(coverage(sentences[:1], lexicon).covered)
    assert len(coverage(sentences[1:2], lexicon).covered) == covered
    assert coverage_curve(sentences, lexicon).sizes == [covered] * 3
    source = argv[2] if argv[1] == "--sentences" else "test"
    lines = captured.out.splitlines()
    assert lines[0].startswith(f"coverage source={source} n=3 covered={covered} universe=52 ")
    assert f"curve first_full=None final={covered}" in lines
    assert lines[-1].startswith("shuffles n=3 median=None")
    assert captured.err == (f"# source={source}: 1 rows hold words not in the lexicon, "
                            "given no expansions\n")


@pytest.mark.parametrize("oov", OUT_OF_LEXICON, ids=["zorblax", "sell"])
def test_augment_skips_out_of_lexicon_rows(oov, tmp_path, capsys):
    write_tsv(tmp_path / "test.tsv", [(oov, "emma ( 0 )", "x"),
                                      (AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "x")])
    assert main(["augment", "--data", str(tmp_path), "--split", "test"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["\t".join((*AUGMENT_AFTER, AUGMENTED_CATEGORY))]
    assert captured.err == ("# augmented 1 of 2 rows\n"
                            "# source=test: 1 rows hold words not in the lexicon, skipped\n")


def test_run_scores_an_output_only_stem_as_out_of_lexicon(tmp_path, capsys):
    write_tsv(tmp_path / "test.tsv", [(OUT_OF_LEXICON[1], "emma ( 0 )", "x")])
    assert main(["run", "--data", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "split=test n=1 sem=0.0000 em=0.0000" in captured.out
    assert "# split=test: 1 rows hold words not in the lexicon, scored as misses" in captured.err


def test_fuzz_check_against_oracle(tmp_path, capsys):
    out_file = tmp_path / "fuzz.tsv"
    code = main(["fuzz", "--n", "12", "--seed", "7", "--check", "--out", str(out_file)])
    assert code == 0
    assert "# checked 12 sentences, 0 mismatches" in capsys.readouterr().out
    rows = load_tsv(out_file)
    assert len(rows) == 12
    assert all(cat == "fuzz" for _, _, cat in rows)


def test_fuzz_check_reports_a_mismatch_and_fails(tmp_path, capsys, monkeypatch):
    real_decode_all = decoder.decode_all

    def corrupt_second(*args, **kwargs):
        preds = real_decode_all(*args, **kwargs)
        preds[1] += " AND agent ( 0 , 0 )"
        return preds

    monkeypatch.setattr(decoder, "decode_all", corrupt_second)
    out_file = tmp_path / "fuzz.tsv"
    assert main(["fuzz", "--n", "12", "--seed", "7", "--check", "--out", str(out_file)]) == 1
    out = capsys.readouterr().out
    sentence, gold, _ = load_tsv(out_file)[1]
    assert f"MISMATCH {sentence}\n  oracle: {gold}\n  decode: {gold} AND agent ( 0 , 0 )\n" in out
    assert out.count("MISMATCH") == 1
    assert "# checked 12 sentences, 1 mismatches" in out


def test_fuzz_seed_reproducible(capsys):
    main(["fuzz", "--n", "4", "--seed", "11"])
    first = capsys.readouterr().out
    main(["fuzz", "--n", "4", "--seed", "11"])
    assert capsys.readouterr().out == first


def test_augment_from_file(tmp_path, capsys):
    write_tsv(tmp_path / "train.tsv", [
        (AUGMENT_BEFORE[0], AUGMENT_BEFORE[1], "in_distribution"),
        ("a boy painted the girl", GOLDEN["a boy painted the girl"], "in_distribution"),
    ])
    out_file = tmp_path / "aug.tsv"
    assert main(["augment", "--data", str(tmp_path), "--split", "train",
                 "--out", str(out_file)]) == 0
    assert load_tsv(out_file) == [(AUGMENT_AFTER[0], AUGMENT_AFTER[1], AUGMENTED_CATEGORY)]
    assert "# augmented 1 of 2 rows" in capsys.readouterr().err


def test_run_tallies_attraction(tmp_path, capsys):
    rows = [(s, clean, "x") for s, clean, _, _ in ATTRACTION_CASES]
    write_tsv(tmp_path / "dev.tsv", rows)
    report = tmp_path / "report.txt"
    main(["run", "--data", str(tmp_path), "--split", "dev", "--ablate-no-pp-rule",
          "--show", "1", "--out", str(report)])
    out = capsys.readouterr().out
    assert out.count("[attraction]") == 1  # --show caps the detail dumps
    lines = out.splitlines()
    assert lines[-2].startswith(f"split=dev n={len(rows)} sem=0.0000 em=0.0000 ")
    assert lines[-1] == f"split=dev kind=attraction count={len(rows)} frac=1.0000"
    assert report.read_text().splitlines() == lines[-2:]  # no mistake blocks
    main(["run", "--data", str(tmp_path), "--split", "dev"])
    assert f"split=dev kind=exact count={len(rows)} frac=1.0000" in capsys.readouterr().out


def test_run_kinds_come_from_the_scores(tmp_path, capsys, monkeypatch):
    """Each row's kind, and so its scores, comes from one ``classify_error``
    call, which parses nothing for a string match or a reordered
    equivalent (one pattern match checks the gold) and each side once for a
    miss, and runs at most one renaming search."""
    sentence = "a boy painted the girl"
    gold = GOLDEN[sentence]
    head, body = gold.split(" ; ")[:-1], gold.split(" ; ")[-1]
    reordered = " ; ".join([*head, " AND ".join(reversed(body.split(" AND ")))])
    write_tsv(tmp_path / "dev.tsv", [(sentence, gold, "x"), (sentence, reordered, "x"),
                                     (sentence, "boy ( 1 )", "x")])
    counts = Counter()
    per_row = []
    for name in ("parse_lf", "semantic_exact_match"):
        real = getattr(logical_form, name)
        monkeypatch.setattr(logical_form, name,
                            lambda *a, _real=real, _name=name: counts.update([_name]) or _real(*a))
    real_classify = cli.classify_error

    def counting_classify(expected, actual):
        counts.clear()
        report = real_classify(expected, actual)
        per_row.append((report.kind, counts["parse_lf"], counts["semantic_exact_match"]))
        return report

    monkeypatch.setattr(cli, "classify_error", counting_classify)
    assert main(["run", "--data", str(tmp_path), "--split", "dev", "--show", "5"]) == 0
    assert per_row == [("exact", 0, 0), ("equivalent", 0, 0), ("other", 2, 1)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"[other] {sentence}", "  gold: boy ( 1 )"]
    assert lines[-4] == "split=dev n=3 sem=0.6667 em=0.3333 ci_low=0.0943 ci_high=0.9916"
    assert lines[-3:] == ["split=dev kind=equivalent count=1 frac=0.3333",
                          "split=dev kind=exact count=1 frac=0.3333",
                          "split=dev kind=other count=1 frac=0.3333"]


def test_explicit_lexicon_flag(datadir, capsys):
    bundled = Path(__file__).resolve().parents[1] / "src" / "flatsem" / "data" / "lexicon.tsv"
    main(["--lexicon", str(bundled), "run", "--data", str(datadir), "--split", "dev"])
    assert "sem=1.0000" in capsys.readouterr().out


def test_run_tallies_each_split_apart(tmp_path, capsys):
    sentence, clean, _ablated, _ = ATTRACTION_CASES[0]
    for name in ("dev", "test"):
        write_tsv(tmp_path / f"{name}.tsv", [(sentence, clean, "x")])
    main(["run", "--data", str(tmp_path), "--split", "dev", "--split", "test"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["split=dev", "n=1"], ["split=dev", "kind=exact"],
        ["split=test", "n=1"], ["split=test", "kind=exact"],
    ]
    assert "split=dev kind=exact count=1 frac=1.0000" in lines
    assert "split=test kind=exact count=1 frac=1.0000" in lines


def test_run_tallies_out_of_lexicon_rows(tmp_path, capsys):
    rows = [
        ("emma saw zorblax .", "emma ( 0 )", "x"),
        ("a boy painted the girl", GOLDEN["a boy painted the girl"], "x"),
    ]
    write_tsv(tmp_path / "dev.tsv", rows)
    assert main(["run", "--data", str(tmp_path), "--split", "dev"]) == 1
    captured = capsys.readouterr()
    assert "split=dev kind=oov count=1 frac=0.5000" in captured.out
    assert "split=dev kind=exact count=1 frac=0.5000" in captured.out
    assert "1 rows hold words not in the lexicon" in captured.err


def test_run_scores_overlong_rows_as_misses(tmp_path, capsys):
    long_sentence = " ".join(pp_chain_sentence(170))
    rows = [
        (long_sentence, "boy ( 1 )", "x"),
        ("a boy painted the girl", GOLDEN["a boy painted the girl"], "x"),
    ]
    write_tsv(tmp_path / "test.tsv", rows)
    assert main(["run", "--data", str(tmp_path), "--split", "test"]) == 1
    captured = capsys.readouterr()
    assert "split=test n=2 sem=0.5000 em=0.5000" in captured.out
    assert "1 rows are longer than 512 tokens" in captured.err


# run as it scores, and with the mistake blocks shown
RUN_SHOWING = pytest.mark.parametrize("command", [["run"], ["run", "--show", "100"]],
                                      ids=["run", "show"])


@RUN_SHOWING
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_max_len_must_be_positive(command, limit, datadir, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--data", str(datadir), "--split", "dev", "--max-len", limit])
    assert exc.value.code == 2  # argparse usage error
    assert f"argument --max-len: must be a positive integer, got {limit}" in capsys.readouterr().err
    assert main([*command, "--data", str(datadir), "--split", "dev", "--max-len", "1"]) == 1


@RUN_SHOWING
def test_a_split_with_no_rows_is_reported_not_scored(command, datadir, capsys):
    (datadir / "test.tsv").write_text("")
    assert main([*command, "--data", str(datadir), "--split", "test", "--split", "dev"]) == 1
    captured = capsys.readouterr()
    assert "# split=test: no rows to score" in captured.err
    assert "split=test " not in captured.out
    assert "split=dev " in captured.out  # the other split is still scored

    assert main([*command, "--data", str(datadir), "--split", "dev", "--max-len", "2"]) == 1
    captured = capsys.readouterr()
    assert f"# skipped {len(GOLDEN)} rows longer than 2 tokens" in captured.err
    assert "# split=dev: no rows to score" in captured.err
    assert captured.out == ""


def _gen_split(tmp_path, lexicon):
    """A gen split with categories: fuzzed rows, attraction cases, and rows
    the decoder cannot read."""
    rows = [(" ".join(tokens), oracle_lf, f"depth{depth}")
            for depth in (1, 2, 3)
            for tokens, oracle_lf in ((t, lf_oracle(tree, lexicon)) for t, tree in
                                      fuzz_generate(15, lexicon, seed=depth, pp_depth=depth,
                                                    cp_depth=depth))]
    rows += [(s, clean, "attraction") for s, clean, _, _ in ATTRACTION_CASES]
    rows += [("emma saw zorblax .", "emma ( 0 )", "attraction"),
             (" ".join(pp_chain_sentence(170)), "boy ( 1 )", "depth3")]
    write_tsv(tmp_path / "gen.tsv", rows)
    write_tsv(tmp_path / "test.tsv", rows[::2])
    return tmp_path


def _per_row_decode_all(sentences, lexicon=None, ablate=False):
    """decode_all made of per-row decode calls: the reference for the CLI."""
    out = []
    for sentence in sentences:
        try:
            out.append(decoder.decode(sentence, lexicon, ablate))
        except (LexiconError, SequenceTooLongError) as err:
            out.append(err)
    return out


@pytest.mark.parametrize("argv", [
    ["run", "--split", "test", "--split", "gen", "--show", "0"],
    ["run", "--split", "test", "--split", "gen", "--show", "0", "--ablate-no-pp-rule"],
    ["run", "--split", "test", "--split", "gen", "--show", "100"],
    ["run", "--split", "test", "--split", "gen", "--show", "100", "--ablate-no-pp-rule"],
])
def test_split_commands_decode_each_split_in_one_batched_call(argv, tmp_path, capsys,
                                                              monkeypatch, lexicon):
    data = _gen_split(tmp_path, lexicon)
    calls = Counter()
    real_decode_all = decoder.decode_all

    def counting_decode_all(*args, **kwargs):
        calls["decode_all"] += 1
        return real_decode_all(*args, **kwargs)

    real_decode = decoder.decode

    def counting_decode(*args, **kwargs):
        calls["decode"] += 1
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(decoder, "decode_all", counting_decode_all)
    monkeypatch.setattr(decoder, "decode", counting_decode)
    code = main([*argv[:1], "--data", str(data), *argv[1:]])
    batched = capsys.readouterr()
    assert calls == {"decode_all": 2}

    monkeypatch.setattr(decoder, "decode", real_decode)
    monkeypatch.setattr(decoder, "decode_all", _per_row_decode_all)
    assert main([*argv[:1], "--data", str(data), *argv[1:]]) == code == 1
    assert capsys.readouterr() == batched
    assert "split=gen " in batched.out and "split=test " in batched.out
    assert "# split=gen: 1 rows hold words not in the lexicon" in batched.err


def test_fuzz_check_decodes_in_one_batched_call(capsys, monkeypatch):
    calls = Counter()
    real_decode_all = decoder.decode_all

    def counting_decode_all(*args, **kwargs):
        calls["decode_all"] += 1
        return real_decode_all(*args, **kwargs)

    def counting_decode(*args, **kwargs):
        calls["decode"] += 1

    monkeypatch.setattr(decoder, "decode_all", counting_decode_all)
    monkeypatch.setattr(decoder, "decode", counting_decode)
    assert main(["fuzz", "--n", "30", "--seed", "4", "--pp-depth", "3", "--check"]) == 0
    assert "# checked 30 sentences, 0 mismatches" in capsys.readouterr().out
    assert calls == {"decode_all": 1}
