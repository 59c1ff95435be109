import os
import subprocess
import sys
from pathlib import Path

import warnings

import numpy as np
import pytest

import pdasgd.approx
import pdasgd.baselines
from pdasgd.cli import main
from pdasgd.core import STOP_DIVERGED
from pdasgd.exact import exact_ot_oracle
from pdasgd.images import image_to_instance, load_csv_matrix, load_image_file, save_csv_matrix


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


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_rejects_count_below_one(tmp_path, capsys, count):
    # before: exit 0 with nothing written
    code, out, err = run_cli(capsys, "gen", "--count", count, "--out", str(tmp_path / "imgs"))
    assert (code, out) == (1, "")
    assert err == f"error: --count must be at least 1, got {count}\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_flagged_exit_code(capsys):
    # every method stops at its cap of 2 checkpoints, exits 2 and says so
    # through its stop reason alone; Greenkhorn's 2 rounds at n = 16 are 32 updates
    for solver in ("pdasgd", "sinkhorn", "greenkhorn"):
        code, out, _ = run_cli(capsys, "solve", "--solver", solver, "--size", "4", "--epsilon", "0.05", "--max-outer", "2")
        kv = parse_kv(out)
        assert (code, kv["stop_reason"], kv["outer_iterations"]) == (2, "iteration-cap", "2"), solver
    assert (solver, kv["updates"]) == ("greenkhorn", "32")


def test_solve_with_image_files(tmp_path, capsys):
    run_cli(capsys, "gen", "--size", "5", "--seed", "1", "--out", str(tmp_path / "a.csv"))
    run_cli(capsys, "gen", "--size", "5", "--seed", "2", "--out", str(tmp_path / "b.csv"))
    code, out, _ = run_cli(
        capsys, "solve", "--image-a", str(tmp_path / "a.csv"), "--image-b", str(tmp_path / "b.csv"),
        "--epsilon", "0.1",
    )
    assert code == 0
    assert parse_kv(out)["n"] == "25"


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_solve_rejects_non_finite_pixels(tmp_path, capsys, bad):
    # before: a nan pixel failed later with "distribution weights must be
    # finite", and an inf pixel warned from image_to_instance first
    run_cli(capsys, "gen", "--size", "4", "--seed", "1", "--out", str(tmp_path / "a.csv"))
    pixels = load_csv_matrix(tmp_path / "a.csv")
    pixels[1, 2] = float(bad)
    save_csv_matrix(tmp_path / "b.csv", pixels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "solve", "--image-a", str(tmp_path / "a.csv"), "--image-b", str(tmp_path / "b.csv"),
            "--epsilon", "0.1",
        )
    assert code == 1
    assert out == ""
    assert err == f"error: pixel intensities must be finite, got non-finite pixels (row, col) (1, 2) = {bad}\n"


def test_solve_rejects_pixels_summing_past_the_float_range(tmp_path, capsys):
    # before: numpy's overflow RuntimeWarning, a traceback under warnings-as-errors
    save_csv_matrix(tmp_path / "big.csv", np.full((4, 4), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "solve", "--image-a", str(tmp_path / "big.csv"), "--image-b", str(tmp_path / "big.csv"),
            "--epsilon", "0.1",
        )
    assert code == 1
    assert out == ""
    assert err == "error: pixel intensities must sum to a finite total, got inf; rescale the image\n"


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


# The epsilon = 0.05 smoke solves and their pinned stop counts: each must
# stop on its certificate at exactly that count, with no RuntimeWarning.
# The benchmark profile (the default) takes 4 batched steps per outer
# iteration, also at the odd sides 3 and 7, whose b = 2 and 4 give m = 8
# and 16.  The theory profile runs pdasgd's m = n inner loop.  CI's solve
# step runs only the size-4 solves again, through the module's entry point.
SMOKE_PINS = [
    (("--solver", "pdasgd", "--size", "4"), {"outer_iterations": "178", "inner_steps": "712"}),
    (("--solver", "pdasgd", "--profile", "theory", "--size", "4"), {"outer_iterations": "467"}),
    (("--solver", "pdasgd", "--size", "16"), {"outer_iterations": "430", "inner_steps": "1720"}),
    (("--solver", "pdasgd", "--profile", "theory", "--size", "16"), {"outer_iterations": "589"}),
    (("--solver", "pdasgd", "--profile", "benchmark", "--size", "3"), {"outer_iterations": "304", "inner_steps": "1216"}),
    (("--solver", "pdasgd", "--profile", "benchmark", "--size", "7"), {"outer_iterations": "250", "inner_steps": "1000"}),
    (("--solver", "sinkhorn", "--size", "4"), {"sweeps": "257"}),
    (("--solver", "greenkhorn", "--size", "4"), {"outer_iterations": "127", "updates": "2032"}),
    (("--solver", "greenkhorn", "--size", "8"), {"outer_iterations": "238", "updates": "15232"}),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, pins", SMOKE_PINS, ids=["-".join(args[1::2]) for args, _ in SMOKE_PINS])
def test_smoke_solves_stop_at_their_pinned_counts(capsys, args, pins):
    code, out, _ = run_cli(capsys, "solve", *args, "--epsilon", "0.05")
    kv = parse_kv(out)
    assert (code, kv["stop_reason"]) == (0, "gap+marginal")
    assert {key: kv[key] for key in pins} == pins


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_smoke_file_solves_and_oracle_at_their_pinned_values(tmp_path, capsys):
    # every image pair builds one grid cost, from its first image
    assert run_cli(capsys, "gen", "--size", "8", "--seed", "3", "--count", "2", "--out", str(tmp_path))[0] == 0
    images = ("--image-a", str(tmp_path / "image_0.csv"), "--image-b", str(tmp_path / "image_1.csv"))
    for solver, key, pinned in (("pdasgd", "outer_iterations", "473"), ("sinkhorn", "sweeps", "506")):
        code, out, _ = run_cli(capsys, "solve", "--solver", solver, "--epsilon", "0.05", *images)
        kv = parse_kv(out)
        assert (code, kv["stop_reason"], kv[key]) == (0, "gap+marginal", pinned)
    code, out, _ = run_cli(capsys, "oracle", "--size", "2", "--seed", "1")
    assert (code, parse_kv(out)["ot_value"]) == (0, "0.069533775034554712")


def test_oracle_with_image_files(tmp_path, capsys):
    # the oracle builds its instance from files through solve's builder
    save_csv_matrix(tmp_path / "a.csv", [[1.0, 2.0], [0.0, 3.0]])
    save_csv_matrix(tmp_path / "b.csv", [[0.5, 0.0], [4.0, 1.0]])
    code, out, _ = run_cli(capsys, "oracle", "--image-a", str(tmp_path / "a.csv"), "--image-b", str(tmp_path / "b.csv"))
    alpha, cost = image_to_instance(load_image_file(tmp_path / "a.csv"))
    beta, _ = image_to_instance(load_image_file(tmp_path / "b.csv"))
    _, value = exact_ot_oracle(cost, alpha, beta)
    assert (code, parse_kv(out)) == (0, {"n": "4", "ot_value": f"{value:.17g}"})


def test_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "gen", "--size", "2", "--seed", "0", "--out", "/tmp/nope.csv")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--epsilon", "abc"], "pdasgd solve: error: argument --epsilon: invalid float value: 'abc'"),
        (["solve", "--solver", "nope"], "pdasgd solve: error: argument --solver: invalid choice: 'nope'"),
        (["bench", "--size", "x", "--out", "OUT"], "pdasgd bench: error: argument --size: expected a comma list of ints, got 'x'"),
        (["bench", "--accuracy-grid", "0.01,z", "--out", "OUT"],
         "pdasgd bench: error: argument --accuracy-grid: expected a comma list of floats, got '0.01,z'"),
        ([], "pdasgd: error: the following arguments are required: command"),
    ],
    ids=["bad-float", "bad-choice", "bad-int-list", "bad-float-list", "no-command"],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv, message):
    # before: argparse exited 2, the code of a flagged run, and the list
    # flags said "invalid _parse_ints value"
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "grid") if arg == "OUT" else arg for arg in argv])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == ""
    assert lines[0].startswith("usage: pdasgd")
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1].startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pdasgd solve")


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
    # approx_ot returns a diverged run as a flagged result; a z step far past
    # the cliff overflows a step's exp at outer iteration 1
    monkeypatch.setattr(pdasgd.approx, "resolve_profile", lambda profile, n: (8, 1e5, 1))
    code, out, err = run_cli(capsys, "solve", "--size", "4", "--seed", "1", "--epsilon", "0.05")
    assert code == 3
    assert out == ""
    assert err == "error: pdasgd diverged after 1 outer iterations\n"


def test_solve_divergence_exit_code_any_solver(monkeypatch, capsys):
    # exit code 3 reads the stop reason, so a diverged baseline run exits 3
    # too; this one is told it diverged after 3 finite sweeps
    sinkhorn = pdasgd.baselines.sinkhorn

    def diverging(instance, max_iter, stop):
        result = sinkhorn(instance, 3, stop)
        result.stop_reason = STOP_DIVERGED
        return result

    monkeypatch.setattr(pdasgd.baselines, "sinkhorn", diverging)
    code, out, err = run_cli(capsys, "solve", "--size", "4", "--epsilon", "0.05", "--solver", "sinkhorn")
    assert code == 3
    assert out == ""
    assert err == "error: sinkhorn diverged after 3 outer iterations\n"


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


def fresh_python(script):
    """``script`` run in a fresh interpreter that imports this checkout's package."""
    src = str(Path(pdasgd.approx.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)


def test_library_and_cli_do_not_import_scipy():
    # scipy is not a dependency of the package; importing it would cost about
    # 17 MB of peak RSS and 0.3 s of setup.  The tests import scipy
    # themselves, so this runs in a fresh interpreter.
    proc = fresh_python(NO_SCIPY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert "stop_reason=gap+marginal" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_import_does_not_load_the_process_pool():
    # concurrent.futures pulls in multiprocessing, logging and socket, about
    # 20 ms of import time; only a bench run with workers > 1 needs it
    proc = fresh_python("import sys, pdasgd, pdasgd.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
