import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pdasgd.approx
from pdasgd.cli import main
from pdasgd.solver import DivergenceError
from pdasgd.images import load_csv_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_gen_writes_csv(tmp_path, capsys):
    target = tmp_path / "img.csv"
    code, out, _ = run_cli(capsys, "gen", "--size", "8", "--seed", "5", "--out", str(target))
    assert code == 0
    img = load_csv_matrix(target)
    assert img.shape == (8, 8)
    # determinism across invocations
    target2 = tmp_path / "img2.csv"
    run_cli(capsys, "gen", "--size", "8", "--seed", "5", "--out", str(target2))
    assert target.read_bytes() == target2.read_bytes()


def test_gen_multiple(tmp_path, capsys):
    out_dir = tmp_path / "imgs"
    code, out, _ = run_cli(capsys, "gen", "--size", "6", "--seed", "1", "--count", "3", "--out", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["image_0.csv", "image_1.csv", "image_2.csv"]


def test_solve_key_value_output(tmp_path, capsys):
    plan_path = tmp_path / "plan.csv"
    code, out, _ = run_cli(
        capsys, "solve", "--size", "6", "--seed", "3", "--epsilon", "0.05",
        "--solver", "pdasgd", "--out", str(plan_path),
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["solver"] == "pdasgd"
    assert kv["n"] == "36"
    assert kv["stop_reason"] == "gap+marginal"
    assert float(kv["feasibility_gap"]) <= 1e-10
    plan = load_csv_matrix(plan_path)
    assert plan.shape == (36, 36)


def test_solve_with_baseline(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--size", "6", "--seed", "3", "--epsilon", "0.05", "--solver", "sinkhorn",
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["solver"] == "sinkhorn"
    assert "sweeps" in kv


def test_solve_flagged_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--size", "6", "--seed", "3", "--epsilon", "0.02",
        "--solver", "pdasgd", "--max-outer", "2",
    )
    assert code == 2
    assert parse_kv(out)["stop_reason"] == "iteration-cap"


def test_solve_with_image_files(tmp_path, capsys):
    run_cli(capsys, "gen", "--size", "5", "--seed", "1", "--out", str(tmp_path / "a.csv"))
    run_cli(capsys, "gen", "--size", "5", "--seed", "2", "--out", str(tmp_path / "b.csv"))
    code, out, _ = run_cli(
        capsys, "solve", "--image-a", str(tmp_path / "a.csv"), "--image-b", str(tmp_path / "b.csv"),
        "--epsilon", "0.1",
    )
    assert code == 0
    assert parse_kv(out)["n"] == "25"


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--size", "2", "--seed", "1")
    assert code == 0
    kv = parse_kv(out)
    assert kv["n"] == "4"
    assert float(kv["ot_value"]) >= 0
    # n = 9 exceeds the enumeration budget
    code, _, err = run_cli(capsys, "oracle", "--size", "3", "--seed", "1")
    assert code == 1
    assert "n <= 5" in err


def test_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "gen", "--size", "2", "--seed", "0", "--out", "/tmp/nope.csv")
    assert code == 1
    assert "error:" in err


def test_bench_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--size", "8", "--accuracy-grid", "0.02", "--pairs", "1",
        "--seed", "2", "--solver", "pdasgd", "--out", str(tmp_path / "bench"),
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["runs"] == "1"
    assert (tmp_path / "bench" / "runs.csv").exists()


def test_solve_divergence_exit_code(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise DivergenceError("non-finite z after outer iteration 7 (max |z| = inf)")

    monkeypatch.setattr(pdasgd.approx, "run", diverge)
    code, out, err = run_cli(capsys, "solve", "--size", "4", "--seed", "1", "--epsilon", "0.05")
    assert code == 3
    assert out == ""
    assert err == "error: solver diverged: non-finite z after outer iteration 7 (max |z| = inf)\n"


# Imports pdasgd, runs every method through approx_ot and the solve
# subcommand, then lists the scipy modules that got loaded.
NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import pdasgd
from pdasgd import cli
rng = np.random.default_rng(0)
cost, beta = rng.random((4, 4)), rng.dirichlet(np.ones(4))
for method in pdasgd.approx.METHODS:
    pdasgd.approx_ot(cost, np.full(4, 0.25), beta, pdasgd.ApproxConfig(epsilon=0.05), method=method)
assert cli.main(["solve", "--size", "4", "--epsilon", "0.05"]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_library_and_cli_do_not_import_scipy():
    # scipy is not a dependency of the package; importing it would cost about
    # 17 MB of peak RSS and 0.3 s of setup.  The tests import scipy
    # themselves, so this runs in a fresh interpreter.
    src = str(Path(pdasgd.approx.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "stop_reason=gap+marginal" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
