"""One sample of a workload, in the fresh interpreter ``run.py`` starts for it.

Times ``import epspect.cli`` (set-up), then runs the workload's operations in
``<dir>/out`` with tracing on or off and measures wall time, CPU time and
peak resident memory of that job.  After the measurement it checks the
outputs and writes everything to ``<dir>/result.json``; a traced sample also
writes its spans to ``<dir>/spans.jsonl``.

    python3 perfbench/sample.py --dir DIR [--setup-only]
    python3 perfbench/sample.py --dir DIR --workload NAME --seed N [--trace] [--tiny]
"""

import time

_t0 = time.perf_counter()
import epspect.cli  # noqa: E402,F401  (this import is the measured set-up)

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _blas_threads():
    """Largest thread count among the loaded OpenBLAS builds, or None."""
    import ctypes

    import numpy
    import scipy

    counts = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts.append(fn())
                    break
    return max(counts) if counts else None


def _context():
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": _blas_threads(),
    }


def run_job(workload: str, seed: int, trace: bool, tiny: bool, sample_dir: str) -> dict:
    import tracer as tracing
    import workloads

    ops = workloads.WORKLOADS[workload](seed, tiny)
    out = os.path.join(sample_dir, "out")
    os.makedirs(out)
    os.chdir(out)

    errors = {}
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        for op in ops:
            try:
                op.run()
            except (Exception, SystemExit) as exc:  # an operation failing is a result, not a crash
                errors[op.name] = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()

    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write_jsonl(os.path.join(sample_dir, "spans.jsonl"))
        result["layers"] = tracing.layer_metrics(tracer.spans, wall)
        result["inclusive_s"] = tracing.inclusive_times(tracer.spans)
        result["absent"] = tracer.absent

    checks = []
    for op in ops:
        checks.append(workloads.Check(f"{op.name}:ran", op.name not in errors, errors.get(op.name, "")))
        if op.name in errors:
            continue
        for check in op.checks:
            try:
                checks.extend(check(Path(out)))
            except Exception as exc:  # a malformed output fails its check
                checks.append(workloads.Check(f"{op.name}:output", False, f"{type(exc).__name__}: {exc}"))
    result["checks"] = [[c.id, bool(c.ok), c.detail, c.id in workloads.KNOWN_DEFECTS] for c in checks]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sample_dir = os.path.abspath(args.dir)

    result = {"setup_s": SETUP_S}
    if not args.setup_only:
        result.update(run_job(args.workload, args.seed, args.trace, args.tiny, sample_dir))
        result["context"] = _context()
    with open(os.path.join(sample_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
