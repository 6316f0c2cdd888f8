"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import epspect  # noqa: E402
import epspect.cli  # noqa: E402
import mpmath  # noqa: E402
import numpy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    summary = json.loads((ROOT / ".perfbench_work" / workload / "summary.json").read_text())
    return result, summary


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(workload):
    result, _ = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in metrics} == set(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_layers_and_leaves_outputs_unchanged():
    result, summary = _run("sweep-double", trace=1)
    assert result["correct"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} == set(result["metrics"])
    identity = [c for c in summary["checks"] if c[0].startswith("rerun-identity")]
    assert identity and all(c[1] for c in identity), identity  # traced vs untraced digests
    assert result["metrics"]["core.eig.double.calls"]["value"] > 0


def _bindings():
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "epspect" or name.startswith("epspect.")):
            seen.update({(name, k): v for k, v in vars(module).items()})
    for cls in (epspect.EpnModel, epspect.BcModel, epspect.HermitianDemoModel):
        seen.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    seen[("mpmath", "eig")] = mpmath.eig
    seen[("numpy", "roots")] = numpy.roots
    return seen


def test_uninstall_restores_every_original():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # every module that imported eig_dense got its own binding wrapped
        assert {("epspect", "eig_dense"), ("epspect.epfinder", "eig_dense"),
                ("epspect.core.eig", "eig_dense"), ("mpmath", "eig")} <= changed
    finally:
        t.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_spans_count_calls_and_self_time():
    t = tracer.Tracer()
    t.install()
    try:
        epspect.sweep(epspect.EpnModel(4), (0.0, 1.0), 5)
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.spans, 1.0)
    assert m["epfinder.sweep.calls"] == 1 and m["epfinder.sweep.points"] == 5
    assert m["core.eig.double.calls"] == 5
    assert all(m[k] >= 0 for k in m if k.endswith("self_s"))


def test_missing_boundary_is_reported_absent():
    t = tracer.Tracer(boundaries=(tracer.Boundary("epfinder.gone", ("epspect.epfinder:_no_such_helper",)),))
    t.install()
    t.uninstall()
    assert t.absent == ["epspect.epfinder:_no_such_helper"]
    assert tracer.layer_metrics([], 1.0)["epfinder.polish.candidates"] == 0


def test_checks_reject_wrong_answers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert epspect.cli.main(["figure", "4", "--out-dir", "."]) == 0
    check = workloads.sturmian_rows("figure4_data.csv", 6, 0.0)
    assert all(c.ok for c in check(tmp_path))
    lines = (tmp_path / "figure4_data.csv").read_text().splitlines()
    e, r, *rest = lines[100].split(",")
    lines[100] = ",".join([e, repr(float(r) * (1 + 1e-6)), *rest])
    (tmp_path / "figure4_data.csv").write_text("\n".join(lines) + "\n")
    assert not any(c.ok for c in check(tmp_path))

    def scan(kind, order, y):
        point = {"params": {"y": y, "r": 0.0}, "energy": [2.6, 0.0], "kind": kind, "order": order, "residuals": {}}
        (tmp_path / "scan.json").write_text(json.dumps({"critical_points": [point]}))
        return workloads.shift_scan("scan.json", 8)(tmp_path)[-1].ok

    assert scan("ep", 2, -0.2726798616192389)
    assert not scan("simple", 1, -0.2726798616192389)
    assert not scan("ep", 2, -0.5)
