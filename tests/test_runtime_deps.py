"""The runtime needs numpy only: scipy is a test-time reference, never imported
by ``flatsem``, and neither is ``numpy.random``, whose import costs some 6 MB
of resident memory.  Each check runs in a fresh interpreter, so modules this
test run has already loaded cannot hide an import."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import flatsem

from flatsem import lf_oracle

from corpora import CLOSING_2, GOLDEN, HANDPICKED_19

SRC = str(Path(flatsem.__file__).resolve().parents[1])


def run_python(code: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy(tmp_path):
    out = run_python("""
        import sys
        import flatsem
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """, tmp_path)
    assert out.strip() == "[]"


def test_everything_runs_with_scipy_blocked(tmp_path):
    rows = [
        ("a boy painted the girl", "x", "wrong"),
        ("a boy painted the girl", GOLDEN["a boy painted the girl"], "right"),
        ("the captain ate .", GOLDEN["the captain ate ."], "right"),
    ]
    (tmp_path / "gen.tsv").write_text("".join("\t".join(r) + "\n" for r in rows))
    out = run_python(f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from flatsem import clopper_pearson, decode, lf_oracle
        from flatsem.cli import main
        assert decode("a boy painted the girl") == lf_oracle("a boy painted the girl")
        lo, hi = clopper_pearson(922, 1000)
        assert abs(lo - 0.903606) < 1e-6 and abs(hi - 0.937859) < 1e-6
        assert main(["run", "--data", {str(tmp_path)!r}, "--split", "gen"]) == 0
    """, tmp_path)
    lines = out.splitlines()
    assert lines[0].startswith("split=gen n=3 sem=0.6667 em=0.6667 ")
    assert lines[1].startswith("split=gen/right n=2 sem=1.0000")
    assert lines[2].startswith("split=gen/wrong n=1 sem=0.0000")


def test_shuffles_and_runs_load_no_numpy_random(tmp_path):
    """The row-order shuffles draw from ``random``, not ``numpy.random``.
    Older numpy imports its ``random`` with itself, so the check is against
    what a bare ``import numpy`` loads."""
    rows = [(s, lf_oracle(s), "x") for s in HANDPICKED_19 + CLOSING_2]
    (tmp_path / "train.tsv").write_text("".join("\t".join(r) + "\n" for r in rows))
    out = run_python(f"""
        import sys
        import numpy
        by_numpy = "numpy.random" in sys.modules
        import flatsem
        from flatsem.cli import main
        assert main(["coverage", "--data", {str(tmp_path)!r}, "--split", "train",
                     "--curve", "--shuffles", "20"]) == 0
        assert main(["run", "--data", {str(tmp_path)!r}, "--split", "train"]) == 0
        print(by_numpy, "numpy.random" in sys.modules)
    """, tmp_path)
    lines = out.splitlines()
    assert lines[-1] in ("True True", "False False")
    assert any(line.startswith("shuffles n=20 median=") and "None" not in line for line in lines)
    assert f"split=train n={len(rows)} sem=1.0000 em=1.0000" in out
