"""Benchmark of epspect: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every sample runs in a fresh
interpreter (``sample.py``), so each pays the import and starts with cold
caches, as a command-line user does.  With ``--trace 0`` samples are timed
untraced until ``--seconds`` are used (at least one) and the end-to-end
metrics are their medians.  With ``--trace 1`` untraced and traced samples
alternate (at least one of each) and the per-layer metrics come from the
traced ones.  Outputs of all samples must be byte-identical.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for a reader, with sample counts and the run context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("sweep-double", "polish-extended", "scan-exact")
SETUPS = 5  # set-up measurements per run; the median is reported
RUN_LIMIT_S = 170.0  # hard limit on one run, samples included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit, in the order they are reported
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class SampleFailed(RuntimeError):
    pass


def _child_env(blas_threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EPSPECT_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_ENV:
        env[var] = str(blas_threads)
    return env


def _spawn(sample_dir: Path, extra: list[str], env: dict, timeout: float) -> dict:
    sample_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "sample.py"), "--dir", str(sample_dir), *extra]
    with open(sample_dir / "log.txt", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                cmd, cwd=sample_dir, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise SampleFailed(f"{sample_dir.name}: no result within {timeout:.0f} s") from None
    result_path = sample_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (sample_dir / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise SampleFailed(f"{sample_dir.name}: exit code {proc.returncode}\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _digests(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines."""
    start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    run_dir = WORK_DIR / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - start))

    # the first interpreter compiles bytecode; it is not measured
    _spawn(run_dir / "warmup", ["--setup-only"], env, remaining())

    job = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    kinds = [False, True] if trace else [False]
    samples, failures, longest = [], [], 0.0
    while True:
        traced = kinds[len(samples + failures) % len(kinds)]
        name = f"sample{len(samples) + len(failures)}" + ("-traced" if traced else "")
        t0 = time.perf_counter()
        try:
            result = _spawn(run_dir / name, job + (["--trace"] if traced else []), env, remaining())
            result["traced"] = traced
            result["digests"] = _digests(run_dir / name / "out")
            samples.append(result)
        except SampleFailed as exc:
            failures.append(str(exc))
            print(f"sample failed: {exc}", file=sys.stderr)
        longest = max(longest, time.perf_counter() - t0)
        done = len(samples) + len(failures)
        if done >= len(kinds) and time.perf_counter() - start + longest > seconds:
            break
        if remaining() < 2 * longest:
            break
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    if not untraced or (trace and not traced):
        raise SampleFailed("no sample of a required kind completed")

    setups = [s["setup_s"] for s in samples]
    while len(setups) < SETUPS:
        setups.append(_spawn(run_dir / f"setup{len(setups)}", ["--setup-only"], env, remaining())["setup_s"])

    checks = [c for s in samples for c in s["checks"]]
    checks += [[f"sample{i}:completed", False, msg.splitlines()[0], False] for i, msg in enumerate(failures)]
    reference = samples[0]["digests"]
    for k, s in enumerate(samples[1:], start=1):
        differing = sorted(f for f in set(reference) | set(s["digests"]) if reference.get(f) != s["digests"].get(f))
        checks.append([f"rerun-identity[{k}]", not differing, f"differing files: {differing}", False])
    passed = sum(1 for c in checks if c[1])
    unexpected = [c for c in checks if not c[1] and not c[3]]

    metrics = {}
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(s["layers"][key] for s in traced)
        metrics["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - statistics.median(
            s["wall_s"] for s in untraced
        )
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(s[key] for s in untraced)
        metrics["setup_s"] = statistics.median(setups)
        metrics["pass_ratio"] = passed / len(checks)

    units = tracer.LAYER_METRICS if trace else END_TO_END
    result = {
        "correct": not unexpected,
        "attempted": len(checks),
        "failed": len(unexpected),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }

    context = dict(samples[0]["context"], nproc=nproc, seed=seed, src_lines=_src_lines())
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)}: {len(untraced)} untraced and "
        f"{len(traced)} traced samples, {len(setups)} set-ups, {len(failures)} failed samples",
        "context: " + " ".join(f"{k}={v}" for k, v in context.items()),
    ]
    counts = {"setup_s": len(setups), "pass_ratio": len(checks)}
    measured = len(traced) if trace else len(untraced)
    for key, entry in result["metrics"].items():
        count = counts.get(key, measured)
        lines.append(f"  {key:34s} {entry['value']:>14.6g} {entry['unit']:6s} (n={count})")
    if trace:
        inclusive = traced[0]["inclusive_s"]
        top = sorted(inclusive, key=inclusive.get, reverse=True)[:6]
        lines.append("inclusive time, children included: " + ", ".join(f"{k} {inclusive[k]:.3g} s" for k in top))
    absent = sorted({a for s in samples for a in s.get("absent", [])})
    if absent:
        lines.append("absent boundaries (counted as 0): " + ", ".join(absent))
    lines.append(f"checks: {len(checks)} attempted, {passed} passed, {len(unexpected)} failed unexpectedly")
    seen = set()
    for cid, ok, detail, known in checks:
        if not ok and cid not in seen:
            seen.add(cid)
            lines.append(f"  FAIL{' (known defect)' if known else ''} {cid}: {detail}")
    (run_dir / "summary.json").write_text(
        json.dumps(
            {
                "result": result,
                "context": context,
                "samples": [{k: s[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "setup_s")} for s in samples],
                "setups": setups,
                "checks": checks,
            },
            indent=1,
        )
        + "\n"
    )
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of epspect; see the module docstring.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epspect" / "cli.py").is_file():
        print(f"perfbench: no epspect sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except SampleFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
