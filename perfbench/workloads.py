"""The benchmark's workloads: the operations each one runs and their checks.

Every workload drives the package the way its users do, through
``epspect.cli.main(argv)`` and a few public library calls, with inputs
derived from the benchmark seed only where the program accepts a seed.

- ``sweep-double``: IEEE-double sweeps and CLI output.  LAPACK-bound n=32
  solves next to overhead-bound n=4..8 solves; mpmath and Fraction algebra
  do almost nothing here.
- ``polish-extended``: mpmath eigensolves.  EP polishing and perturbation
  draws need eigenvalues only; the extended metric needs left and right
  vectors from the same solver.
- ``scan-exact``: exact rational algebra, both as a few large Bareiss
  determinants over polynomial entries (the n=8 shift scan, next to its
  signature sweeps of many tiny double solves) and as thousands of small
  Fraction evaluations of r^2(E) (the Sturmian figures).

A check holds for any correct implementation; none compares float bits
with an earlier run.  ``tiny=True`` shrinks every workload for self-tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

LADDER = tuple(10.0**k for k in range(-12, -5))  # 1e-12 .. 1e-6
TINY_LADDER = (1e-12, 1e-9, 1e-6)

# Verdicts of the n=8 shift scan that were already wrong when the benchmark
# was written.  Their checks still run and still lower pass_ratio; they only
# do not make a run incorrect, so that fixing them shows as a gain.
KNOWN_DEFECTS = {
    "scan8.event[y=-0.273]": "exact double root at r=0 reported as kind='simple', order 1",
    "scan8.event[y=-0.957]": "indeterminate event that no exact event polynomial owns",
}


@dataclass(frozen=True)
class Check:
    id: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Op:
    """One user-visible operation; ``run`` writes its outputs into the cwd."""

    name: str
    run: Callable[[], None]
    checks: tuple[Callable[[Path], list[Check]], ...] = ()


def cli(*argv: str) -> Callable[[], None]:
    def run():
        import epspect.cli

        code = epspect.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"epspect {' '.join(argv)} exited with {code}")

    return run


def _dump(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _tracks(header, data):
    n = sum(1 for h in header if h.startswith("re") and h[2:].isdigit())
    col = header.index
    values = np.stack(
        [data[:, col(f"re{i}")] + 1j * data[:, col(f"im{i}")] for i in range(n)], axis=1
    )
    flags = np.stack([data[:, col(f"real{i}")] for i in range(n)], axis=1)
    return data[:, 1], values, flags


def _trace_check(name, values, matrices) -> Check:
    worst = max(abs(row.sum() - np.trace(m)) / (1.0 + np.linalg.norm(m)) for row, m in zip(values, matrices))
    return Check(f"{name}:trace", worst <= 1e-8, f"max |sum(E) - tr M|/(1+|M|) = {worst:.3g}")


def epn_tracks(name: str, n: int):
    """Tracks sum to the trace; for t >= 0.5 they are the closed-form spectrum."""

    def check(out: Path) -> list[Check]:
        header, data = _read_csv(out / name)
        params, values, _ = _tracks(header, data)
        if values.shape[1] != n:
            return [Check(f"{name}:tracks", False, f"{values.shape[1]} tracks, expected {n}")]
        checks = [_trace_check(name, values, (reference.epn_dense(n, p) for p in params))]
        worst = 0.0
        for p, row in zip(params, values):
            if p >= 0.5:
                exact = np.array(sorted(reference.epn_spectrum(n, p), key=lambda v: (v.real, v.imag)))
                got = np.array(sorted(row, key=lambda v: (v.real, v.imag)))
                worst = max(worst, float(np.max(np.abs(got - exact)) / np.max(np.abs(exact))))
        checks.append(Check(f"{name}:spectrum", worst <= 1e-8, f"max relative error {worst:.3g} for t >= 0.5"))
        return checks

    return check


def demo_tracks(name: str, n: int, seed: int):
    """Hermitian pencil: tracks sum to the trace, stay real and never touch."""

    def check(out: Path) -> list[Check]:
        import epspect

        header, data = _read_csv(out / name)
        params, values, flags = _tracks(header, data)
        matrices = [epspect.hermitian_demo(n, float(p), seed).a for p in params]
        scale = 1.0 + max(float(np.linalg.norm(m)) for m in matrices)
        imag = float(np.max(np.abs(values.imag)))
        real_ok = bool(np.all(flags == 1)) and imag <= 1e-8 * scale
        gap = float(np.min(np.diff(np.sort(values.real, axis=1), axis=1)))
        return [
            _trace_check(name, values, matrices),
            Check(f"{name}:real", real_ok, f"max |Im E| = {imag:.3g}, all flagged real: {bool(np.all(flags == 1))}"),
            Check(f"{name}:gaps", gap > 0.0, f"min adjacent gap {gap:.3g}"),
        ]

    return check


def sturmian_rows(name: str, n: int, y: float):
    """Every row (E, r) satisfies A(E) + r^2 B(E) = 0 up to rounding."""

    def check(out: Path) -> list[Check]:
        header, data = _read_csv(out / name)
        e, r_plus, r_minus = (data[:, header.index(k)] for k in ("energy", "r_plus", "r_minus"))
        c0, c1, c3 = (np.array(c[::-1], dtype=float) for c in reference.bc_parts(n))
        val, ae = np.polyval, np.abs(e)
        a = val(c0, e) + 2 * y * val(c1, e) + (y * y + 1) * val(c3, e)
        b = -val(c3, e)
        # the same terms in absolute value bound the rounding of the evaluation
        scale = val(abs(c0), ae) + 2 * abs(y) * val(abs(c1), ae) + (y * y + 1 + r_plus**2) * val(abs(c3), ae)
        worst = float(np.max(np.abs(a + r_plus**2 * b) / scale)) if len(e) else 0.0
        mirrored = bool(np.all(r_minus == -r_plus))
        return [
            Check(
                f"{name}:secular",
                len(e) > 0 and worst <= 1e-10 and mirrored,
                f"{len(e)} rows, max |A + r^2 B| / scale = {worst:.3g}, r_minus = -r_plus: {mirrored}",
            )
        ]

    return check


def _points(out: Path, name: str) -> list[dict]:
    return json.loads((out / name).read_text())["critical_points"]


def single_ep(name: str, param: str, order: int, energy: float | None = None):
    """Exactly one EP of the given order at param = 0 (and the given energy)."""

    def check(out: Path) -> list[Check]:
        pts = _points(out, name)
        ok = len(pts) == 1
        if ok:
            p = pts[0]
            ok = p["kind"] == "ep" and p["order"] == order and abs(p["params"][param]) < 1e-8
            if energy is not None:
                ok = ok and p["energy"] is not None and abs(complex(*p["energy"]) - energy) < 1e-8
        found = [(p["params"], p["kind"], p["order"]) for p in pts]
        return [Check(f"{name}:ep", ok, f"expected one EP{order} at {param}=0, found {found}")]

    return check


def shift_scan(name: str, n: int):
    """Each event is a certified degeneracy on a real root of its mechanism."""

    def check(out: Path) -> list[Check]:
        pts = _points(out, name)
        checks = [Check(f"scan{n}:events", len(pts) > 0, f"{len(pts)} events")]
        for p in pts:
            y = p["params"]["y"]
            r = p["params"].get("r")
            kind, order = p["kind"], p["order"]
            if kind == "sturmian-pole":
                mechanisms = ["pole"]
            elif r is None or not math.isfinite(r):
                mechanisms = list(reference.EVENT_MECHANISMS)
            elif r == 0:
                mechanisms = ["merge"]
            else:
                mechanisms = ["fold"]
            problems = []
            if kind == "simple":
                problems.append("kind 'simple'")
            if kind != "sturmian-pole" and order < 2:
                problems.append(f"order {order} < 2")
            if not any(reference.owns(n, m, y) for m in mechanisms):
                problems.append(f"no real root of {'/'.join(mechanisms)} polynomial within 1e-6")
            checks.append(
                Check(f"scan{n}.event[y={y:.3f}]", not problems, f"y={y!r} r={r} {kind}/{order}: {'; '.join(problems) or 'ok'}")
            )
        return checks

    return check


def slope(name: str, order: int):
    """An EP of order m splits like eps^(1/m): the fitted slope is within 0.02 of 1/m."""

    def check(out: Path) -> list[Check]:
        fit = json.loads((out / name).read_text())
        ok = abs(fit["slope"] - 1.0 / order) <= 0.02 and fit["ok"]
        return [Check(f"{name}:slope", ok, f"slope {fit['slope']:.5f} vs 1/{order}, ok={fit['ok']}")]

    return check


def extended_metric(name: str, n: int, t: float):
    """Theta makes M self-adjoint to 1e-10 |M|_F |Theta|_F and is positive."""

    def check(out: Path) -> list[Check]:
        payload = json.loads((out / name).read_text())
        theta = np.array([[complex(*v) for v in row] for row in payload["theta"]])
        m = reference.epn_dense(n, t)
        residual = float(np.linalg.norm(m.conj().T @ theta - theta @ m))
        bound = 1e-10 * np.linalg.norm(m) * np.linalg.norm(theta)
        min_eig = float(np.min(np.linalg.eigvalsh((theta + theta.conj().T) / 2)))
        return [
            Check(
                f"{name}:metric",
                residual <= bound and min_eig > 0,
                f"residual {residual:.3g} (bound {bound:.3g}), min eig {min_eig:.3g}",
            )
        ]

    return check


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def sweep_double(seed: int, tiny: bool) -> list[Op]:
    samples = "41" if tiny else "2001"
    return [
        Op(
            "sweep-epn32",
            cli("sweep", "--model", "epn", "--n", "32", "--param", "t", "--range", "0:1",
                "--samples", samples, "--output", "epn32.csv"),
            (epn_tracks("epn32.csv", 32),),
        ),
        Op(
            "sweep-demo4",
            cli("sweep", "--model", "hermitian-demo", "--n", "4", "--seed", str(seed),
                "--range", "-1:1", "--samples", samples, "--output", "demo4.csv"),
            (demo_tracks("demo4.csv", 4, seed),),
        ),
        Op("figure2", cli("figure", "2", "--out-dir", "."), (epn_tracks("figure2_data.csv", 8),)),
        Op("figure3", cli("figure", "3", "--out-dir", "."), (epn_tracks("figure3_data.csv", 6),)),
    ]


def _perturbation(name: str, family: str, n: int, order: int, seed: int, tiny: bool, at=None):
    def run():
        import epspect

        m = epspect.epn_matrix(n, 0.0) if family == "epn" else epspect.bc_matrix(n, 1j)
        fit = epspect.perturbation_exponent(
            m, order, TINY_LADDER if tiny else LADDER, seed=seed, draws=1 if tiny else 4, at=at
        )
        _dump(name, {"slope": fit.slope, "stderr": fit.stderr, "r_squared": fit.r_squared,
                     "mean_split": list(fit.mean_split), "ok": bool(fit.ok)})

    return Op(name.removesuffix(".json"), run, (slope(name, order),))


def polish_extended(seed: int, tiny: bool) -> list[Op]:
    n_ep, n_bc, metrics = (3, 4, ((4, 0.5), (4, 0.2))) if tiny else (6, 6, ((6, 0.5), (8, 0.2)))
    ops = [
        Op(
            f"find-ep-epn{n_ep}",
            cli("find-ep", "--model", "epn", "--n", str(n_ep), "--param", "t", "--range", "-0.5:0.5",
                "--output", f"epn{n_ep}_ep.json"),
            (single_ep(f"epn{n_ep}_ep.json", "t", n_ep),),
        ),
        _perturbation(f"perturb_epn{n_ep}.json", "epn", n_ep, n_ep, seed, tiny),
        _perturbation(f"perturb_bc{n_bc}.json", "bc", n_bc, 2, seed, tiny, at=2.0),
    ]
    for n, t in metrics:
        out = f"metric_epn{n}_t{t}.json"
        ops.append(
            Op(
                out.removesuffix(".json"),
                cli("metric", "--model", "epn", "--n", str(n), "--t", str(t), "--precision", "extended",
                    "--output", out),
                (extended_metric(out, n, t),),
            )
        )
    return ops


STURMIAN_FIGURES = {4: (6, 0.0), 5: (5, -0.5), 6: (5, -0.8)}  # figure -> (n, y)


def scan_exact(seed: int, tiny: bool) -> list[Op]:
    n_scan, n_1d = (4, (4, 6)) if tiny else (8, (6, 8))
    ops = [
        Op(
            f"scan-y-bc{n_scan}",
            cli("find-ep", "--model", "bc", "--n", str(n_scan), "--scan-y", "--range", "-1:0",
                "--output", f"scan_bc{n_scan}.json"),
            (shift_scan(f"scan_bc{n_scan}.json", n_scan),),
        )
    ]
    for n in n_1d:
        ops.append(
            Op(
                f"find-ep-bc{n}",
                cli("find-ep", "--model", "bc", "--n", str(n), "--y", "0", "--param", "r", "--range", "-1:1",
                    "--output", f"bc{n}_r.json"),
                (single_ep(f"bc{n}_r.json", "r", 2, energy=2.0),),
            )
        )
    for k, (n, y) in STURMIAN_FIGURES.items():
        ops.append(Op(f"figure{k}", cli("figure", str(k), "--out-dir", "."), (sturmian_rows(f"figure{k}_data.csv", n, y),)))
    return ops


WORKLOADS = {
    "sweep-double": sweep_double,
    "polish-extended": polish_extended,
    "scan-exact": scan_exact,
}
