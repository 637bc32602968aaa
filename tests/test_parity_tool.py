import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"


def _tool(*args, env=None):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT, env=env)


def test_parity_run_and_compare(tmp_path):
    out = tmp_path / "rec"
    run = _tool("--src", ROOT / "src", "--out", out, "-n", 2, "--workload", "matfunc-exp")
    assert run.returncode == 0, run.stderr
    inputs = json.loads(out.with_suffix(".json").read_text())["inputs"]
    assert [r["key"] for r in inputs] == [f"matfunc-exp/{s}/{i}" for s in (1, 2, 3)
                                          for i in (0, 1)]
    for r in inputs:
        assert r["cycles"] > 0 and r["basis_mvps"] > 0
        # one confirmation per folded conjugate pair of poles
        assert 2 * r["residual_mvps"] == len(r["shifts"]) == 16
        assert r["stalled"] is False
        # one entry per cycle, the first a fresh start
        assert len(r["kept"]) == r["cycles"] and r["kept"][0] == 0
        assert all(h["converged"] for h in r["shifts"])

    same = _tool("--compare", out.with_suffix(".json"), out.with_suffix(".json"))
    assert same.returncode == 0
    assert "0 differences" in same.stdout

    # a changed counter is reported and fails the comparison
    inputs[0]["cycles"] += 1
    other = tmp_path / "other"
    other.with_suffix(".json").write_text(json.dumps({"inputs": inputs}))
    other.with_suffix(".npz").write_bytes(out.with_suffix(".npz").read_bytes())
    diff = _tool("--compare", out.with_suffix(".json"), other.with_suffix(".json"))
    assert diff.returncode == 1
    assert "matfunc-exp/1/0: cycles" in diff.stdout

    # so is a flipped report flag
    inputs[0]["cycles"] -= 1
    inputs[1]["budget_exhausted"] = not inputs[1]["budget_exhausted"]
    other.with_suffix(".json").write_text(json.dumps({"inputs": inputs}))
    flag = _tool("--compare", out.with_suffix(".json"), other.with_suffix(".json"))
    assert flag.returncode == 1
    assert "matfunc-exp/1/1: budget_exhausted False != True" in flag.stdout
    assert "cycles" not in flag.stdout

    # a record from a tool version without a counter or a shift flag
    # reports it as a difference instead of failing with a KeyError, and
    # a record with fewer shifts is not cut to the shorter list unnoticed
    inputs[1]["budget_exhausted"] = not inputs[1]["budget_exhausted"]
    del inputs[0]["budget_exhausted"]
    del inputs[1]["shifts"][3]["stagnated"]
    inputs[2]["shifts"].pop()
    other.with_suffix(".json").write_text(json.dumps({"inputs": inputs}))
    for pair in ((out, other), (other, out)):
        old = _tool("--compare", *(p.with_suffix(".json") for p in pair))
        assert old.returncode == 1, old.stderr
        assert "Traceback" not in old.stderr
        assert "matfunc-exp/1/0: budget_exhausted" in old.stdout
        assert "matfunc-exp/1/1 shift 3: stagnated" in old.stdout
        assert "matfunc-exp/2/0: 16 != 15 shifts" in old.stdout or \
            "matfunc-exp/2/0: 15 != 16 shifts" in old.stdout
        assert "3 differences" in old.stdout
    assert "matfunc-exp/1/0: budget_exhausted missing != False" in old.stdout

    # a non-finite solution fails the comparison even with equal counters
    arrays = dict(np.load(out.with_suffix(".npz")))
    arrays["matfunc-exp/1/0/action"][0] = np.nan
    nan = tmp_path / "nan"
    nan.with_suffix(".json").write_text(out.with_suffix(".json").read_text())
    np.savez(nan.with_suffix(".npz"), **arrays)
    bad = _tool("--compare", out.with_suffix(".json"), nan.with_suffix(".json"))
    assert bad.returncode == 1
    assert "matfunc-exp/1/0/action: non-finite solution" in bad.stdout


def test_a_preset_thread_count_is_pinned_and_recorded(tmp_path):
    # the benchmark's pinning rule: one BLAS thread whatever the caller's
    # environment says, with the preset named in the record
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = dict(os.environ, **dict.fromkeys(threads, "2"))
    out = tmp_path / "rec"
    run = _tool("--src", ROOT / "src", "--out", out, "-n", 1, "--workload", "matfunc-exp",
                env=env)
    assert run.returncode == 0, run.stderr
    environment = json.loads(out.with_suffix(".json").read_text())["environment"]
    assert environment["threads"] == dict.fromkeys(threads, "1")
    assert set(environment["blas_threads"].values()) <= {1}
    assert environment["flags"] == [f"{var} was '2' before pinning" for var in threads]
    assert environment["src_sha256"]


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("parity") / "rec"
    run = _tool("--src", ROOT / "src", "--out", out, "-n", 2, "--workload", "matfunc-exp")
    assert run.returncode == 0, run.stderr
    return out


def _copy_with(record, path, arrays=None, inputs=None):
    """A copy of ``record`` at ``path``, with its arrays or inputs replaced."""
    json_text = record.with_suffix(".json").read_text()
    if inputs is not None:
        json_text = json.dumps({"inputs": inputs})
    path.with_suffix(".json").write_text(json_text)
    np.savez(path.with_suffix(".npz"), **(arrays or dict(np.load(record.with_suffix(".npz")))))
    return path.with_suffix(".json")


def test_compare_measures_an_action_against_its_input(record, tmp_path):
    # exp(-A) u0 is about 1e-9 |u0| here: two correct runs may differ by
    # far more than 1e-12 of the action and still agree to 1e-12 of u0
    arrays = dict(np.load(record.with_suffix(".npz")))
    keys = [k for k in arrays if k.endswith("/action")]
    assert len(keys) == 6
    rng = np.random.default_rng(0)
    for size, status in ((1e-13, 0), (1e-9, 1)):
        moved = dict(arrays)
        for key in keys:
            norm = float(arrays[key.replace("/action", "/input_norm")])
            assert 30.0 < norm < 50.0  # |u0| of 1600 standard normal entries
            step = rng.standard_normal(arrays[key].shape)
            moved[key] = arrays[key] + size * norm * step / np.linalg.norm(step)
            assert np.linalg.norm(moved[key] - arrays[key]) > 1e-5 * np.linalg.norm(arrays[key])
        other = _copy_with(record, tmp_path / f"moved{status}", arrays=moved)
        res = _tool("--compare", record.with_suffix(".json"), other)
        assert res.returncode == status, res.stdout
        assert "0 differences" in res.stdout
        gap = float(res.stdout.split("largest relative solution gap ")[1].split()[0])
        assert 0.5 * size <= gap <= 1.5 * size
        # the one workload's mean line carries the same largest gap
        line = next(x for x in res.stdout.splitlines() if x.startswith("matfunc-exp:"))
        assert line.endswith(f"largest relative solution gap {gap:.2e}")


def test_compare_prints_mean_cycles_and_basis_products(record, tmp_path):
    inputs = json.loads(record.with_suffix(".json").read_text())["inputs"]
    cycles = np.mean([r["cycles"] for r in inputs])
    mvps = np.mean([r["basis_mvps"] for r in inputs])
    checks = np.mean([r["residual_mvps"] for r in inputs])
    same = _tool("--compare", record.with_suffix(".json"), record.with_suffix(".json"))
    # no benchmark input meets a singular reduced system
    assert (f"matfunc-exp: mean cycle count {cycles:.2f} -> {cycles:.2f}, "
            f"mean basis MVPs {mvps:.1f} -> {mvps:.1f}, "
            f"mean residual MVPs {checks:.1f} -> {checks:.1f}, "
            f"singular shifts 0 -> 0, stalled 0 -> 0 (6 -> 6 inputs)") in same.stdout
    inputs[0]["cycles"] += 3
    inputs[0]["basis_mvps"] += 60
    inputs[0]["residual_mvps"] += 3
    # a retired folded pair counts as its two shifts, a stalled report once
    inputs[1]["stalled"] = True
    for h in inputs[1]["shifts"][:2]:
        h["skipped_cycles"] = 1
    other = _copy_with(record, tmp_path / "more", inputs=inputs)
    diff = _tool("--compare", record.with_suffix(".json"), other)
    assert diff.returncode == 1
    assert (f"matfunc-exp: mean cycle count {cycles:.2f} -> {cycles + 0.5:.2f}, "
            f"mean basis MVPs {mvps:.1f} -> {mvps + 10:.1f}, "
            f"mean residual MVPs {checks:.1f} -> {checks + 0.5:.1f}, "
            f"singular shifts 0 -> 2, stalled 0 -> 1 (6 -> 6 inputs)") in diff.stdout


def test_a_report_without_a_field_records_it_as_missing(record, tmp_path):
    # a report from a tree that predates a field is recorded, not a
    # crash, and the comparison names the field
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    shift = SimpleNamespace(converged=True, cycles=2, skipped_cycles=0)
    old = SimpleNamespace(cycles=2, basis_mvps=50, residual_mvps=1, breakdown=False,
                          budget_exhausted=False, kept=[0, 10], shifts=[shift])
    rec = parity._record(old)
    assert rec["stalled"] == "missing" and rec["kept"] == [0, 10]
    assert rec["shifts"] == [{"converged": True, "cycles": 2, "skipped_cycles": 0,
                              "stagnated": "missing", "diverged": "missing"}]
    inputs = json.loads(record.with_suffix(".json").read_text())["inputs"]
    inputs[0]["stalled"] = rec["stalled"]
    other = _copy_with(record, tmp_path / "old", inputs=inputs)
    res = _tool("--compare", record.with_suffix(".json"), other)
    assert res.returncode == 1
    assert "matfunc-exp/1/0: stalled False != missing" in res.stdout
    assert "1 differences" in res.stdout
