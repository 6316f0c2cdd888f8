"""Command-line front end: sweeps, Sturmian traces, EP hunts, metric checks.

Every run is deterministic for a fixed flag set, seed and package version:
output files are byte-identical across repeated invocations (no timestamps
anywhere), numbers are written in shortest round-trip form, and files are
written atomically (temp file, then rename).  A sweep CSV is written one
stack of grid points at a time, as the stacks are solved.

Exit codes: 0 success, 2 usage error, 3 domain refusal (e.g. a metric
requested too close to an exceptional point), 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import closing, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .core import ConvergenceError, Precision
from .epfinder import (
    _sweep_stacks,
    ep_locate_1d,
    ep_locate_2d_bc,
    sweep,
)
from .metric import (
    ComplexSpectrumError,
    DegenerateBasisError,
    MetricConstructionError,
    build_metric,
    metric_conditioning_sweep,
)
from .models import BcModel, EpnModel, HermitianDemoModel
from .sturmian import bivariate_secular, branch_trace

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_NO_CONVERGENCE = 4


# --------------------------------------------------------------------------
# formatting / io helpers
# --------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


@contextmanager
def _atomic_file(path: Path):
    """A text file that replaces ``path`` when the block ends, and vanishes if it raises.

    It is created beside ``path`` under a fresh ``.tmp`` name with mode
    0o666 less the umask, as ``open`` creates a file, and renamed over
    ``path`` once written, so ``path`` is never seen half written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    create = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    while True:
        tmp = path.with_name(f"{path.name}{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, create, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _provenance(command: str, flags: dict, seed: int, precision: str) -> dict:
    return {
        "tool": "epspect",
        "version": __version__,
        "command": command,
        "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
        "seed": seed,
        "precision": precision,
    }


def _finite(text: str) -> float:
    """A float flag value; NaN and +-inf are usage errors like any other bad number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_range(text: str) -> tuple[float, float]:
    bounds = text.split(":")
    if len(bounds) != 2:
        raise argparse.ArgumentTypeError(f"range must look like 'lo:hi', got {text!r}")
    return _finite(bounds[0]), _finite(bounds[1])


def _parse_floats(text: str) -> list[float]:
    return [_finite(x) for x in text.split(",") if x.strip() != ""]


# --------------------------------------------------------------------------
# model construction from flags
# --------------------------------------------------------------------------


def _make_model(name: str, n: int, y: float | None, seed: int):
    if name == "epn":
        return EpnModel(n)
    if name == "bc":
        return BcModel(n, y or 0.0)
    return HermitianDemoModel(n, seed)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _write_sweep_csv(out: Path, stacks, param: str) -> None:
    """The sweep CSV, each stack's lines written as ``stacks`` yields the stack.

    Byte-identical to ``write_csv`` on the same rows (``repr`` of each float,
    ``1``/``0`` for each flag), formatted column by column from Python
    scalars without its per-cell type dispatch.
    """
    start = 0
    with _atomic_file(out) as fh:
        for stack in stacks:
            if start == 0:
                header = [f"{c}{i}" for i in range(len(stack.tracks)) for c in ("re", "im", "real")]
                fh.write(",".join(["index", param, *header, "pairing_warning"]) + "\n")
            fh.write(_stack_lines(stack, start))
            start += len(stack.grid)
    print(out)


def _stack_lines(stack, start: int) -> str:
    """The CSV lines of one sweep stack, its first point numbered ``start``."""
    flag = ("0", "1")
    columns = [map(str, range(start, start + len(stack.grid))), map(repr, stack.grid.tolist())]
    for i in range(len(stack.tracks)):
        columns += [
            map(repr, stack.tracks[i].real.tolist()),
            map(repr, stack.tracks[i].imag.tolist()),
            (flag[b] for b in stack.real_flags[i].tolist()),
        ]
    columns.append(flag[b] for b in stack.warnings.tolist())
    return "\n".join([*map(",".join, zip(*columns)), ""])


def _write_columns(out: Path, header: list[str], columns) -> None:
    """``write_csv`` of columns of cells already formatted as ``_fmt`` would."""
    lines = [",".join(header)]
    lines += map(",".join, zip(*columns))
    _atomic_write(out, "\n".join(lines) + "\n")


def _family_model(args, parser):
    """The model behind --model, refusing a --param the family does not sweep."""
    model = _make_model(args.model, args.n, args.y, args.seed)
    if args.param not in (None, model.param):
        parser.error(f"the {args.model} family sweeps the parameter {model.param}")
    return model


def _cmd_sweep(args, parser) -> int:
    model = _family_model(args, parser)
    precision = Precision(args.precision)
    out = Path(args.output or "sweep.csv")
    if args.format == "csv":
        with closing(_sweep_stacks(model, args.range, args.samples, precision)) as stacks:
            _write_sweep_csv(out, stacks, model.param)
        return EXIT_OK

    flags = {
        "model": args.model,
        "n": args.n,
        "y": args.y,
        "param": model.param,
        "range": f"{args.range[0]}:{args.range[1]}",
        "samples": args.samples,
    }
    if args.model == "hermitian-demo":
        flags["seed"] = args.seed
    result = sweep(model, args.range, args.samples, precision=precision)
    ntr = result.n_tracks
    payload = {
        "provenance": _provenance("sweep", flags, args.seed, args.precision),
        "grid": [float(p) for p in result.grid],
        "tracks": [
            [[float(v.real), float(v.imag)] for v in result.tracks[i]]
            for i in range(ntr)
        ],
        "real_flags": [
            [bool(b) for b in result.real_flags[i]] for i in range(ntr)
        ],
        "pairing_warnings": [bool(b) for b in result.warnings],
    }
    write_json(out, payload)
    print(out)
    return EXIT_OK


def _write_sturmian(out: Path, trace, flags: dict, seed: int, precision: str) -> None:
    """The branch CSV, written column by column, plus its ``_poles.json`` sidecar with the provenance."""
    flag = ("0", "1")
    points = trace.points
    columns = [
        (repr(p.energy) for p in points),
        (repr(p.r_plus) for p in points),
        (repr(p.r_minus) for p in points),
        (flag[p.in_model] for p in points),
        (flag[p.refined] for p in points),
    ]
    _write_columns(out, ["energy", "r_plus", "r_minus", "in_model", "refined"], columns)
    sidecar = out.with_name(out.stem + "_poles.json")
    write_json(
        sidecar,
        {
            "provenance": _provenance("sturmian", flags, seed, precision),
            "poles": [
                {"energy": b.energy, "kind": b.kind, "multiplicity": b.multiplicity}
                for b in trace.poles
            ],
            "branch_merges": [
                {"energy": b.energy, "kind": b.kind, "multiplicity": b.multiplicity}
                for b in trace.merges
            ],
            "persistent_lines": list(trace.persistent_lines),
        },
    )
    print(out)
    print(sidecar)


def _cmd_sturmian(args, parser) -> int:
    trace = branch_trace(bivariate_secular(args.n, args.y), args.range, args.samples)
    flags = {
        "n": args.n,
        "y": args.y,
        "range": f"{args.range[0]}:{args.range[1]}",
        "samples": args.samples,
    }
    out = Path(args.output or "sturmian.csv")
    _write_sturmian(out, trace, flags, args.seed, args.precision)
    return EXIT_OK


def _critical_point_payload(pt) -> dict:
    def scrub(v):
        if isinstance(v, (tuple, list)):
            return [scrub(x) for x in v]
        if isinstance(v, (np.floating, float)):
            v = float(v)
            return v if np.isfinite(v) else None
        if isinstance(v, (np.integer, int)):
            return int(v)
        return v

    energy = (
        None
        if not np.isfinite(pt.energy.real)
        else [float(pt.energy.real), float(pt.energy.imag)]
    )
    return {
        "params": {k: scrub(float(v)) for k, v in pt.params.items()},
        "energy": energy,
        "kind": pt.kind,
        "order": int(pt.order),
        "residuals": {k: scrub(v) for k, v in pt.residuals.items()},
    }


def _cmd_find_ep(args, parser) -> int:
    flags = {
        "model": args.model,
        "n": args.n,
        "y": args.y,
        "param": args.param,
        "range": f"{args.range[0]}:{args.range[1]}",
        "scan_y": args.scan_y or None,
    }
    model = _family_model(args, parser)
    if args.scan_y:
        if args.model != "bc":
            parser.error("--scan-y only applies to the bc family")
        points = ep_locate_2d_bc(args.n, args.range)
    else:
        points = ep_locate_1d(model, args.range)

    out = Path(args.output or "critical_points.json")
    write_json(
        out,
        {
            "provenance": _provenance("find-ep", flags, args.seed, args.precision),
            "critical_points": [_critical_point_payload(p) for p in points],
        },
    )
    print(out)
    return EXIT_OK


def _cmd_metric(args, parser) -> int:
    if args.model == "epn":
        if args.t is None:
            parser.error("metric for the epn family needs --t")
        model = EpnModel(args.n)
        matrix = model.matrix(args.t)
        at = {"t": args.t}
    elif args.model == "bc":
        if args.r is None:
            parser.error("metric for the bc family needs --r (and optionally --y)")
        model = BcModel(args.n, args.y or 0.0)
        matrix = model.matrix(args.r)
        at = {"y": args.y or 0.0, "r": args.r}
    else:
        parser.error("metric supports the epn and bc families")
    kappa = args.kappa
    met = build_metric(matrix, kappa)
    flags = {"model": args.model, "n": args.n, **at}
    if kappa is not None:
        flags["kappa"] = ",".join(repr(k) for k in kappa)
    out = Path(args.output or "metric.json")
    write_json(
        out,
        {
            "provenance": _provenance("metric", flags, args.seed, args.precision),
            "theta": [
                [[float(v.real), float(v.imag)] for v in row] for row in met.theta
            ],
            "kappa": [float(k) for k in met.kappa],
            "residual": met.residual,
            "min_eig": met.min_eig,
            "cond": met.cond,
            "cond_basis": met.cond_basis,
        },
    )
    print(out)
    return EXIT_OK


def _cmd_metric_sweep(args, parser) -> int:
    if args.model != "epn":
        parser.error("metric-sweep currently supports the epn family")
    model = EpnModel(args.n)
    points = metric_conditioning_sweep(model, args.t_grid, args.kappa)
    out = Path(args.output or "metric_sweep.csv")
    header = ["t", "min_eig", "cond", "error"]
    rows = [(p.param, p.min_eig, p.cond, p.error or "") for p in points]
    write_csv(out, header, rows)
    print(out)
    return EXIT_OK


FIGURES = {
    1: ("sweep", {"model": "hermitian-demo", "n": 4, "seed": 1, "range": (-1.0, 1.0), "samples": 2001}),
    2: ("sweep", {"model": "epn", "n": 8, "range": (-0.5, 0.5), "samples": 201}),
    3: ("sweep", {"model": "epn", "n": 6, "range": (-0.3, 1.0), "samples": 131}),
    4: ("sturmian", {"n": 6, "y": 0.0, "range": (0.0, 5.0), "samples": 2000}),
    5: ("sturmian", {"n": 5, "y": -0.5, "range": (-1.0, 5.0), "samples": 2000}),
    6: ("sturmian", {"n": 5, "y": -0.8, "range": (-1.0, 5.0), "samples": 2000}),
}


def _plot_script(k: int, command: str, spec: dict, data_name: str, n_tracks: int) -> str:
    lines = [
        f"# plot commands for figure {k} (gnuplot syntax)",
        "set datafile separator ','",
        "set key off",
    ]
    if command == "sweep":
        lines += [
            f"set xlabel '{ 't' if spec['model'] != 'bc' else 'r' }'",
            "set ylabel 'Re E'",
            "plot \\",
        ]
        parts = [
            f"  '{data_name}' skip 1 using 2:{3 + 3 * i} with lines"
            for i in range(n_tracks)
        ]
        lines.append(", \\\n".join(parts))
    else:
        lines += [
            "set xlabel 'E'",
            "set ylabel 'r'",
            f"plot '{data_name}' skip 1 using 1:2 with dots, \\",
            f"     '{data_name}' skip 1 using 1:3 with dots",
        ]
    return "\n".join(lines) + "\n"


def _cmd_figure(args, parser) -> int:
    k = args.k
    if k not in FIGURES:
        parser.error("figure number must be 1..6")
    command, spec = FIGURES[k]
    outdir = Path(args.out_dir)
    data = outdir / f"figure{k}_data.csv"
    if command == "sweep":
        model = _make_model(spec["model"], spec["n"], None, spec.get("seed", DEFAULT_SEED))
        with closing(_sweep_stacks(model, spec["range"], spec["samples"])) as stacks:
            _write_sweep_csv(data, stacks, model.param)
    else:
        trace = branch_trace(
            bivariate_secular(spec["n"], spec["y"]), spec["range"], spec["samples"]
        )
        flags = dict(spec, range=f"{spec['range'][0]}:{spec['range'][1]}")
        _write_sturmian(data, trace, flags, DEFAULT_SEED, "double")
    n_tracks = spec["n"]
    script = outdir / f"figure{k}_plot.txt"
    _atomic_write(script, _plot_script(k, command, spec, data.name, n_tracks))
    print(script)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="epspect",
        description="Spectra, exceptional points and metric operators of two "
        "solvable non-Hermitian matrix families.",
    )
    parser.add_argument("--version", action="version", version=f"epspect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    recorded = "recorded in the output's provenance only; the computation does not read it"
    ignored = "accepted and ignored: nothing reads it"

    def common(p, precision="arithmetic tier for floating work"):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed (default 42)")
        p.add_argument("--precision", choices=["double", "extended"], default="double", help=precision)
        p.add_argument("--output", help="output file path")

    p = sub.add_parser("sweep", help="eigenvalue tracks over a parameter grid")
    p.add_argument("--model", required=True, choices=["epn", "bc", "hermitian-demo"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=_finite, help="shift for the bc family")
    p.add_argument("--param", choices=["t", "r"], help="sweep parameter (model-implied)")
    p.add_argument("--range", type=_parse_range, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sturmian", help="coupling-function branches r(E)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=_finite, required=True)
    p.add_argument("--range", type=_parse_range, required=True)
    p.add_argument("--samples", type=int, required=True)
    common(p, recorded)
    p.set_defaults(func=_cmd_sturmian)

    p = sub.add_parser("find-ep", help="locate and classify spectral degeneracies")
    p.add_argument("--model", required=True, choices=["bc", "epn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=_finite, help="shift for the bc family")
    p.add_argument("--param", choices=["t", "r"])
    p.add_argument("--range", type=_parse_range, required=True)
    p.add_argument("--scan-y", action="store_true", help="scan the shift y (bc only)")
    common(p, recorded)
    p.set_defaults(func=_cmd_find_ep)

    p = sub.add_parser("metric", help="build a quasi-Hermiticity metric")
    p.add_argument("--model", required=True, choices=["epn", "bc"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_finite, help="epn family parameter")
    p.add_argument("--y", type=_finite, help="bc shift")
    p.add_argument("--r", type=_finite, help="bc coupling parameter")
    p.add_argument("--kappa", type=_parse_floats, help="comma-separated weights")
    common(p, recorded)
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("metric-sweep", help="metric conditioning along a grid")
    p.add_argument("--model", required=True, choices=["epn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-grid", dest="t_grid", type=_parse_floats, required=True)
    p.add_argument("--kappa", type=_parse_floats)
    common(p, ignored)
    p.set_defaults(func=_cmd_metric_sweep)

    p = sub.add_parser("figure", help="canonical data + plot script for figures 1..6")
    p.add_argument("k", type=int)
    p.add_argument("--out-dir", default=".")
    common(p, ignored)
    p.set_defaults(func=_cmd_figure)

    return parser


NEGATIVE_VALUE_FLAGS = {"--range", "--t", "--y", "--r", "--t-grid", "--kappa"}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Turn `--range -1:1` (or `--y -inf`) into `--range=-1:1` so argparse
    accepts it: any value after one of these flags that starts with a
    single `-` is the flag's value, not another option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in NEGATIVE_VALUE_FLAGS and len(nxt) > 1 and nxt[0] == "-" and nxt[1] != "-":
            out.append(f"{tok}={nxt}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _check_values(args, parser) -> None:
    """Refuse, as usage errors, flag values that no command can run with."""
    if getattr(args, "n", 2) < 2:
        parser.error("--n must be at least 2")
    if getattr(args, "samples", 2) < 2:
        parser.error("--samples must be at least 2")
    kappa = getattr(args, "kappa", None)
    if kappa is not None and (len(kappa) != args.n or min(kappa) <= 0):
        parser.error(f"--kappa needs {args.n} positive weights")
    if args.command == "sturmian" and args.range[1] <= args.range[0]:
        parser.error("--range needs lo < hi")


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_join_negative_values(argv))
    _check_values(args, parser)
    try:
        return args.func(args, parser)
    except (DegenerateBasisError, ComplexSpectrumError, MetricConstructionError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
