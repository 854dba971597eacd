"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root with ``python3 -m pytest e2ebench -q``.
The slow tests drive the command for one pass of each workload, traced
and untraced (about two minutes).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.dsm.interval import VectorClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_module_maps_to_exactly_one_layer():
    src = ROOT / "src" / "repro"
    seen = set()
    for path in src.rglob("*.py"):
        layer = layers.layer_of(path.relative_to(src).as_posix())
        assert layer in layers.LAYERS
        seen.add(layer)
    packages = {p.name for p in src.iterdir() if (p / "__init__.py").exists()}
    assert packages | {"root"} == set(layers.LAYERS) == seen


def test_unknown_package_has_no_layer():
    with pytest.raises(ValueError):
        layers.layer_of("newpkg/mod.py")


def test_builtins_are_charged_to_the_calling_module():
    a, b = VectorClock(range(64)), VectorClock(range(64, 0, -1))
    with layers.profiled() as prof:
        for _ in range(200):
            a.merge(b)
    self_s, calls = layers.layer_profile(prof)
    assert set(self_s) <= {"dsm/interval", layers.OTHER}
    assert self_s["dsm/interval"] > 0
    assert calls["dsm.vc_merge"] == 200
    assert calls["dsm.vc_new"] == 200


def test_benchmark_json_declares_every_workload():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all("\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_undeclared_or_missing_metric_is_an_error():
    units = {"a": "s", "b": "count"}
    assert run._declared({"a": 1.0, "b": 2}, units) == {
        "a": (1.0, "s"), "b": (2, "count")}
    with pytest.raises(RuntimeError, match="missing"):
        run._declared({"a": 1.0}, units)
    with pytest.raises(RuntimeError, match="undeclared"):
        run._declared({"a": 1.0, "b": 2, "c": 3}, units)


def _declared_units(family: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[family]}


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload."""
    return {
        name: _result(_command("--workload", name, "--seed", "7",
                               "--seconds", "0", "--trace", "1"))
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_printed_end_to_end_names_match(name):
    res = _result(_command("--workload", name, "--seed", "7", "--seconds",
                           "0", "--trace", "0"))
    assert list(res) == ["correct", "attempted", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert ({k: v["unit"] for k, v in res["metrics"].items()}
            == _declared_units("end_to_end"))
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_printed_per_layer_names_match(traced):
    for res in traced.values():
        assert res["correct"] and res["failed"] == 0
        assert ({k: v["unit"] for k, v in res["metrics"].items()}
                == _declared_units("per_layer"))
        assert all(math.isfinite(v["value"]) for v in res["metrics"].values())


def test_traced_run_reproduces_the_layer_split(traced):
    def val(workload, name):
        return traced[workload]["metrics"][name]["value"]

    def share(workload, layer):
        return val(workload, f"{layer}.self_s") / val(workload, "trace.wall_s")

    others = [val("sor-64n", f"{layer}.self_s")
              for layer in layers.LAYERS if layer != "dsm"]
    assert val("sor-64n", "dsm.interval.self_s") > max(others)
    for layer in ("memory", "sim"):
        assert share("paper-8n", layer) > share("sor-64n", layer)
    assert val("recover-8n", "core.replay_s") > 0
    assert val("paper-8n", "core.replay_s") == val("sor-64n", "core.replay_s") == 0
    for res in traced.values():
        # the folded profile accounts for the profiled wall: what no
        # function's self time covers is a small remainder
        m = res["metrics"]
        wall = m["trace.wall_s"]["value"]
        assert abs(m["trace.unattributed_s"]["value"]) < 0.02 * wall
        assert 0 <= m["other.self_s"]["value"] < 0.05 * wall


def test_changed_fingerprint_or_exception_fails_the_cell():
    fingerprints = iter([1, 1, 2])

    class Outcome:
        host: dict = {}

        def fingerprint(self):
            return next(fingerprints)

    def boom(_timer):
        raise RuntimeError("cell raised")

    cells = [workloads.Cell("steady", lambda _timer: Outcome()),
             workloads.Cell("raises", boom)]
    r = run.Run("w", cells, timer=layers.PhaseTimer())
    r.one_pass()
    r.one_pass()
    r.cells = cells[:1]
    r.one_pass()
    assert r.attempted == 5
    assert r.failed_cells == ["w/raises", "w/raises", "w/steady"]


def test_fails_without_the_program():
    """In a directory holding only the benchmark, it exits non-zero."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".e2ebench-bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _command("--workload", "sor-64n", "--seed", "1", "--seconds",
                        "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wall_sums_each_spans_fastest_pass():
    def outcome(spans):
        return workloads.CellOutcome({}, {}, {"wall": sum(spans)}, spans=spans)

    r = run.Run("w", [], timer=layers.PhaseTimer())
    r.by_cell = {
        # same work cut at two barriers: each span at its fastest pass
        "even": [outcome([1.0, 5.0, 2.0]), outcome([3.0, 1.0, 2.5])],
        # span count varied: the cell at its fastest pass, taken whole
        "uneven": [outcome([4.0]), outcome([1.0, 2.0])],
    }
    assert r.wall() == pytest.approx((1.0 + 1.0 + 2.0) + 3.0)
    assert r.cell_sum("wall") == pytest.approx(6.5 + 3.0)
