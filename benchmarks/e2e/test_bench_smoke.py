"""Self-test of the benchmark at smoke scale.

Collected by the repository's tier-1 ``pytest`` run.  It checks the
contract (``BENCHMARK.json`` against what the code emits), determinism
(same seed, same counts and bytes), that the oracle really catches a
wrong answer, and that the benchmark stays on the exported surface.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KINDS = {"hit", "miss", "empty", "single", "skip-1", "skip+0", "skip+1"}
#: the sample floors the workloads were asked to meet
P1_FLOORS = {
    "read_cold_ss512": 20,
    "read_hot_sim": 600,
    "ingest_ss512": 8,
    "ingest_fanout_sim": 300,
}


def smoke_runs(trace: int) -> dict[str, tuple[dict, dict]]:
    """One smoke run per workload through the command-line path:
    ``name -> (the driver's JSON line, the full result)``."""
    runner = bench.Runner("smoke")
    out = {}
    for name in WORKLOADS:
        result = runner.run(name, 5, CONTRACT["run_seconds"], trace)
        out[name] = (json.loads(bench.driver_line(result, trace)), result)
    return out


@pytest.fixture(scope="module")
def untraced():
    return smoke_runs(0)


@pytest.fixture(scope="module")
def traced():
    return smoke_runs(1)


def test_contract_schema():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(CONTRACT) == keys
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert CONTRACT["run_seconds"] == worker.NOMINAL_SECONDS
    assert WORKLOADS == list(workloads.SPECS)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.SPECS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = list(END_TO_END) + list(PER_LAYER) + WORKLOADS
    assert len(names) == len(set(names))
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_every_end_to_end_metric_present(untraced):
    for name in WORKLOADS:
        line, result = untraced[name]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert result["environment"]["fsync"] is True
        assert result["environment"]["accel"] in ("pure", "gmpy2", "native")


def test_every_per_layer_metric_present(traced):
    for name in WORKLOADS:
        line, result = traced[name]
        assert line["correct"] is True
        assert {k: v["unit"] for k, v in line["metrics"].items()} == PER_LAYER
        missing = [k for k, v in line["metrics"].items() if v["value"] is None]
        assert not missing and not result["layer_notes"]
        # nothing computed that the contract does not name
        assert set(result["per_layer"]) == set(PER_LAYER)
        trace = json.loads(Path(result["trace_file"]).read_text())
        fields = {"name", "start_us", "end_us", "parent", "op_id"}
        assert fields <= set(trace["spans"][0])


def test_same_seed_same_counts_and_bytes(untraced, traced):
    """Two runs of one seed — the second one traced, so the recording
    proxies are shown to change no byte and no count either."""
    first = {"runs": [result for _line, result in untraced.values()]}
    second = {"runs": [result for _line, result in traced.values()]}
    assert bench.exact_differences(first, second) == []


def test_different_seed_different_queries():
    for name in WORKLOADS:
        spec = workloads.spec_for(name, "smoke")
        one = [p.query for p in workloads.generate(spec, 1).p1]
        again = [p.query for p in workloads.generate(spec, 1).p1]
        other = [p.query for p in workloads.generate(spec, 2).p1]
        assert one == again and one != other


def test_generator_meets_its_floors():
    for name, spec in workloads.SPECS.items():
        assert spec.p1_queries >= P1_FLOORS[name]
        kinds = [p.kind for p in workloads.generate(spec, 3).p1]
        assert set(kinds) == KINDS
        # the median of P1 must fall among the hits, not between two kinds
        assert kinds.count("hit") > len(kinds) / 2


def test_oracle_catches_a_dropped_result():
    spec = workloads.spec_for("read_hot_sim", "smoke")
    plan = workloads.generate(spec, 4)
    planned = next(p for p in plan.p1 if p.kind == "hit")
    objects = [obj for _timestamp, block in plan.base for obj in block]
    answer = [obj for obj in objects if obj.object_id in planned.expected]
    other = next(obj for obj in objects if obj.object_id not in planned.expected)
    worker.check_answer(answer, planned)
    with pytest.raises(worker.WrongAnswer):
        worker.check_answer(answer[1:], planned)
    with pytest.raises(worker.WrongAnswer):
        worker.check_answer(answer + [other], planned)


def test_compare_refuses_mismatched_environments(capsys):
    base = {"accel": "native", "build": "setup.py", "fsync": True}
    first = {"environment": base, "runs": []}
    for key, other in (("accel", "pure"), ("fsync", False)):
        second = {"environment": {**base, key: other}, "runs": []}
        assert bench.compare(first, second) == 2
    assert "refusing to compare" in capsys.readouterr().out


def test_only_the_exported_surface_is_touched():
    """Every ``repro`` name the benchmark imports is exported by the module
    it comes from, no private attribute of anything is read, nothing is
    patched."""
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
                assert "repro" not in roots, where
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] != "repro":
                    continue
                module = importlib.import_module(node.module)
                exported = getattr(module, "__all__", None)
                for alias in node.names:
                    assert not alias.name.startswith("_"), where
                    assert exported is None or alias.name in exported, where
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                dunder = node.attr.startswith("__") and node.attr.endswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                assert dunder or own, where
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("setattr", "delattr"), where
