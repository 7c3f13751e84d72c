"""Self-test of the benchmark: every workload at a tiny size, in both passes.

Checks that every metric BENCHMARK.json declares is printed with its unit,
that no check fails, that the traced pass leaves every library attribute it
wrapped as it found it, and that the benchmark refuses to run without the
program's sources. Run with `python -m pytest bench/test_bench.py`.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import localglauber  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _library_attributes():
    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "localglauber"}
    attrs = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    inits = {cls: vars(cls)["__init__"] for cls in (localglauber.Graph, localglauber.StateSpace)}
    return attrs, inits


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_declared_metrics(workload, trace, tmp_path):
    attrs, inits = _library_attributes()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.2",
                           "--trace", str(trace), "--size", "tiny", "--out-dir", str(tmp_path)])
    assert status == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    after_attrs, after_inits = _library_attributes()
    changed = [key for key, value in attrs.items() if after_attrs.get(key) is not value]
    assert changed == []
    assert all(after_inits[cls] is init for cls, init in inits.items())
    assert localglauber.coupling.apply_proposals is localglauber.dynamics.apply_proposals


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-sample", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
