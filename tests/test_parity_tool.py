import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT)


def test_parity_run_and_compare(tmp_path):
    out = tmp_path / "rec"
    run = _tool("--src", ROOT / "src", "--out", out, "-n", 2, "--workload", "matfunc-exp")
    assert run.returncode == 0, run.stderr
    inputs = json.loads(out.with_suffix(".json").read_text())["inputs"]
    assert [r["key"] for r in inputs] == [f"matfunc-exp/{s}/{i}" for s in (1, 2, 3)
                                          for i in (0, 1)]
    for r in inputs:
        assert r["cycles"] > 0 and r["basis_mvps"] > 0
        assert r["residual_mvps"] == len(r["shifts"]) == 16
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
