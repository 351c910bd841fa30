"""The CI workflow runs every benchmark workload."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ci_perfbench_loop_names_every_benchmark_workload():
    # a workload added to BENCHMARK.json but left out of this loop would never run in CI
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    loops = re.findall(r"for workload in ([^;\n]*); do", workflow)
    assert len(loops) == 1
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(loops[0].split()) == sorted(w["name"] for w in workloads)
