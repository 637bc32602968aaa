import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "grid.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT)


def test_grid_times_a_tiny_cell_and_writes_its_record(tmp_path):
    run = _tool("--src", ROOT / "src", "--tag", "smoke", "--reps", 3, "--out", tmp_path,
                "--cell", "convdiff3d-n9-shessen")
    assert run.returncode == 0, run.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["tag"] == "smoke" and record["reps"] == 3
    env = record["environment"]
    assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert len(env["src_sha256"]) == 64
    assert list(record["cells"]) == ["convdiff3d-n9-shessen"]
    cell = record["cells"]["convdiff3d-n9-shessen"]
    # 729 unknowns and m = 30: one cycle of 30 products, one confirmation a shift
    assert (cell["cycles"], cell["basis_mvps"], cell["residual_mvps"]) == (1, 30, 8)
    assert cell["kept"] == [0] and cell["all_converged"] is True
    assert cell["predicted_flops"] > 0
    cpu = cell["cpu_s"]
    assert len(cpu["samples"]) == 3
    assert cpu["q1"] <= cpu["median"] <= cpu["q3"] and cpu["iqr"] == cpu["q3"] - cpu["q1"]
    assert cell["cpu_per_cycle_s"] == cpu["median"] / cell["cycles"]
    assert "convdiff3d-n9-shessen: " in run.stdout


def test_grid_names_its_cells_when_one_is_unknown(tmp_path):
    run = _tool("--tag", "x", "--out", tmp_path, "--cell", "convdiff3d-n7-shessen")
    assert run.returncode != 0
    assert "convdiff3d-n7-shessen" in run.stderr and "matfunc-ml0.8-laplace2d100" in run.stderr
    assert not (tmp_path / "BENCH_x.json").exists()
