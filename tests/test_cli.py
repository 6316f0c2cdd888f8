"""Command-line interface: schemas, determinism, exit codes."""

import errno
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import epspect.epfinder as epfinder
from epspect.cli import _write_sturmian, _write_sweep_csv, main, write_csv
from epspect.core import Precision
from epspect.epfinder import SweepStack, _stack_length, sweep
from epspect.models import BcModel, EpnModel, HermitianDemoModel
from epspect.sturmian import bivariate_secular, branch_trace


def run(argv):
    return main(argv)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    code = run(
        [
            "sweep", "--model", "epn", "--n", "6", "--param", "t",
            "--range", "0:1", "--samples", "11", "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    header = lines[0].split(",")
    assert header[:2] == ["index", "t"]
    assert "re0" in header and "real5" in header and "pairing_warning" in header
    # numbers round-trip exactly
    row = lines[6].split(",")  # header + rows 0..5
    assert float(row[1]) == 0.5
    val = float(row[2])
    assert repr(val) == row[2]


def _write_csv_of(path, result, param):
    """The reference sweep CSV: one row per grid point through ``write_csv``'s ``_fmt``."""
    header = ["index", param]
    for i in range(result.n_tracks):
        header += [f"re{i}", f"im{i}", f"real{i}"]
    header.append("pairing_warning")
    rows = []
    for k, p in enumerate(result.grid):
        row = [k, float(p)]
        for i in range(result.n_tracks):
            v = result.tracks[i, k]
            row += [v.real, v.imag, bool(result.real_flags[i, k])]
        rows.append(row + [bool(result.warnings[k])])
    write_csv(path, header, rows)


def test_sweep_csv_fast_path_matches_write_csv(tmp_path, capsys):
    result = sweep(EpnModel(4), (-0.5, 1.0), 9)
    result.tracks[0, 0] = complex(result.tracks[0, 0].real, -0.0)
    result.tracks[1, 3] = complex(-0.0, -0.0)
    result.warnings[2] = True
    assert result.real_flags.any() and not result.real_flags.all()
    _write_csv_of(tmp_path / "ref.csv", result, "t")
    stacks = [
        SweepStack(result.grid[k:j], result.tracks[:, k:j], result.real_flags[:, k:j], result.warnings[k:j])
        for k, j in ((0, 4), (4, 9))
    ]
    _write_sweep_csv(tmp_path / "fast.csv", stacks, "t")
    capsys.readouterr()
    fast = (tmp_path / "fast.csv").read_bytes()
    assert b",-0.0," in fast
    assert fast == (tmp_path / "ref.csv").read_bytes()


def _streamed_cases(name, argv, model, param_range):
    """Streamed sweeps of 2 samples, of one stack less one, one and one more, and of two stacks and one."""
    length = _stack_length(model.n)
    for samples in (2, length - 1, length, length + 1, 2 * length + 1):
        yield pytest.param(argv, model, param_range, samples, id=f"{name}-{samples}")


@pytest.mark.parametrize(
    "argv, model, param_range, samples",
    [
        *_streamed_cases("epn8-real", "--model epn --n 8 --range 0:1", EpnModel(8), (0.0, 1.0)),
        *_streamed_cases("bc5-complex", "--model bc --n 5 --y -0.5 --range -1:1", BcModel(5, -0.5), (-1.0, 1.0)),
        *_streamed_cases(
            "demo4", "--model hermitian-demo --n 4 --seed 1 --range -1:1", HermitianDemoModel(4, 1), (-1.0, 1.0)
        ),
    ],
)
def test_streamed_sweep_csv_matches_write_csv(tmp_path, capsys, argv, model, param_range, samples):
    _write_csv_of(tmp_path / "ref.csv", sweep(model, param_range, samples), model.param)
    out = tmp_path / "streamed.csv"
    assert main(["sweep", *argv.split(), "--samples", str(samples), "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("samples", [2, 7, 8, 9, 17])
def test_streamed_extended_sweep_csv_matches_write_csv(tmp_path, capsys, monkeypatch, samples):
    """Extended precision streams through the same stacks; here eight points each."""
    monkeypatch.setattr(epfinder, "SWEEP_STACK_BYTES", 16 * 5 * 5 * 8)
    assert _stack_length(5) == 8
    model = BcModel(5, -0.5)
    result = sweep(model, (-1.5, 1.5), samples, precision=Precision.EXTENDED)
    _write_csv_of(tmp_path / "ref.csv", result, "r")
    out = tmp_path / "streamed.csv"
    argv = f"sweep --model bc --n 5 --y -0.5 --range -1.5:1.5 --samples {samples} --precision extended"
    assert main([*argv.split(), "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class _FullDisk:
    """A text file whose third write fails as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


@pytest.mark.parametrize("failure", ["lapack", "other", "write"])
def test_a_failed_stack_solve_or_write_keeps_the_target_and_leaves_no_thread(failure, tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.csv"
    out.write_bytes(b"the file before\n")
    calls, eigvals, fdopen = itertools.count(), np.linalg.eigvals, os.fdopen

    def third_solve_fails(a):
        if next(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge") if failure == "lapack" else ValueError("bad")
        return eigvals(a)

    if failure == "write":
        monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: _FullDisk(fdopen(*args, **kwargs)))
    else:
        monkeypatch.setattr(np.linalg, "eigvals", third_solve_fails)
    monkeypatch.setattr(epfinder, "_worker_count", lambda stacks: min(2, stacks))
    argv = ["sweep", "--model", "bc", "--n", "6", "--y", "-0.5", "--range", "-1:1", "--samples", str(6 * _stack_length(6))]
    threads = threading.active_count()
    if failure == "lapack":
        assert main([*argv, "--output", str(out)]) == 4
        assert "no convergence" in capsys.readouterr().err
    else:
        # the caught exception, kept alive, holds the frames of the failed command
        with pytest.raises(OSError if failure == "write" else ValueError) as caught:
            main([*argv, "--output", str(out)])
        assert caught.traceback
    assert out.read_bytes() == b"the file before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]
    assert threading.active_count() == threads


def test_streamed_sweep_memory_is_flat_in_samples(tmp_path, monkeypatch, capsys):
    """The CSV sweep holds a few stacks, never the whole sweep: its traced
    peak grows by less than 1 MB from 2,001 to 16,001 samples, on at most
    two solving threads as on a two-CPU host."""
    monkeypatch.setattr(epfinder, "_worker_count", lambda stacks: min(2, stacks))
    argv = ["sweep", "--model", "epn", "--n", "8", "--range", "0:1", "--output", str(tmp_path / "s.csv")]
    assert main([*argv, "--samples", "2001"]) == 0  # warm: lazy imports and caches
    peaks = []
    for samples in ("2001", "16001"):
        tracemalloc.start()
        try:
            assert main([*argv, "--samples", samples]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_files_get_the_mode_open_gives(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        assert main(["sweep", "--model", "epn", "--n", "4", "--range", "0:1", "--samples", "5",
                     "--output", str(tmp_path / "s.csv")]) == 0
        assert main(["figure", "2", "--out-dir", str(tmp_path)]) == 0
        assert main(["metric", "--model", "epn", "--n", "4", "--t", "0.5", "--output", str(tmp_path / "m.json")]) == 0
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    capsys.readouterr()
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["s.csv", "figure2_data.csv", "figure2_plot.txt", "m.json", "plain.txt"], 0o666 & ~umask
    )


@pytest.mark.parametrize(
    "n, y, window, samples",
    [
        (6, 0.0, (0.0, 5.0), 400),  # in and out of the model, refined near poles and merges
        (5, -0.5, (-1.0, 5.0), 300),
        (4, 0.1, (10.0, 11.0), 10),  # no point inside the model
        (3, 0.0, (1.5, 2.5), 50),  # no point at all: r^2 < 0 or 0/0 throughout
    ],
)
def test_sturmian_csv_columns_match_write_csv(tmp_path, capsys, n, y, window, samples):
    trace = branch_trace(bivariate_secular(n, y), window, samples)
    header = ["energy", "r_plus", "r_minus", "in_model", "refined"]
    rows = [(p.energy, p.r_plus, p.r_minus, p.in_model, p.refined) for p in trace.points]
    write_csv(tmp_path / "ref.csv", header, rows)
    _write_sturmian(tmp_path / "fast.csv", trace, {"n": n}, 0, "double")
    capsys.readouterr()
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    if window[0] == 10.0:
        assert rows and not any(p.in_model for p in trace.points)
    if n == 3:
        assert rows == [] and fast == b"energy,r_plus,r_minus,in_model,refined\n"


def test_sweep_json_has_provenance(tmp_path):
    out = tmp_path / "s.json"
    code = run(
        [
            "sweep", "--model", "hermitian-demo", "--n", "4", "--seed", "1",
            "--range", "-1:1", "--samples", "21", "--format", "json",
            "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    prov = doc["provenance"]
    assert prov["tool"] == "epspect"
    assert prov["seed"] == 1
    assert prov["command"] == "sweep"
    assert len(doc["grid"]) == 21
    assert len(doc["tracks"]) == 4


def test_sweep_negative_range_token(tmp_path):
    out = tmp_path / "s.csv"
    assert (
        run(
            [
                "sweep", "--model", "epn", "--n", "8",
                "--range", "-0.5:0.5", "--samples", "5", "--output", str(out),
            ]
        )
        == 0
    )


# --------------------------------------------------------------------------
# sturmian
# --------------------------------------------------------------------------


def test_sturmian_outputs_trace_and_pole_sidecar(tmp_path):
    out = tmp_path / "fig4.csv"
    code = run(
        [
            "sturmian", "--n", "6", "--y", "0", "--range", "0:5",
            "--samples", "400", "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "energy,r_plus,r_minus,in_model,refined"
    sidecar = tmp_path / "fig4_poles.json"
    doc = json.loads(sidecar.read_text())
    assert len(doc["poles"]) == 4
    want = sorted(np.roots([1, -8, 21, -20, 5]).real)
    got = sorted(p["energy"] for p in doc["poles"])
    assert np.allclose(got, want, atol=1e-6)
    # the X-crossing at (2, 0) is resolved by refinement
    rows = [line.split(",") for line in lines[1:]]
    near = [r for r in rows if abs(float(r[0]) - 2.0) < 0.02]
    assert near and min(abs(float(r[1])) for r in near) < 1e-4


def test_sturmian_vertical_line_sidecar(tmp_path):
    out = tmp_path / "n5.csv"
    run(
        [
            "sturmian", "--n", "5", "--y", "0", "--range", "0:4",
            "--samples", "200", "--output", str(out),
        ]
    )
    doc = json.loads((tmp_path / "n5_poles.json").read_text())
    assert doc["persistent_lines"] == [2.0]


# --------------------------------------------------------------------------
# find-ep
# --------------------------------------------------------------------------


def test_find_ep_bc_center(tmp_path):
    out = tmp_path / "ep.json"
    code = run(
        [
            "find-ep", "--model", "bc", "--n", "6", "--y", "0",
            "--param", "r", "--range", "-1:1", "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    pts = doc["critical_points"]
    assert len(pts) == 1
    assert pts[0]["kind"] == "ep" and pts[0]["order"] == 2
    assert abs(pts[0]["params"]["r"]) <= 1e-8
    assert abs(pts[0]["energy"][0] - 2) <= 1e-8


def test_find_ep_empty_result_is_success(tmp_path):
    out = tmp_path / "none.json"
    code = run(
        [
            "find-ep", "--model", "bc", "--n", "5", "--y", "0",
            "--param", "r", "--range", "-1:1", "--output", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["critical_points"] == []


def test_find_ep_epn8_writes_the_maximal_ep(tmp_path):
    out = tmp_path / "epn8.json"
    code = run(
        [
            "find-ep", "--model", "epn", "--n", "8", "--range", "-0.5:0.5",
            "--output", str(out),
        ]
    )
    assert code == 0
    pts = json.loads(out.read_text())["critical_points"]
    assert [(p["params"], p["kind"], p["order"], p["energy"]) for p in pts] == [
        ({"t": 0.0}, "ep", 8, [0.0, 0.0])
    ]


def test_find_ep_scan_y(tmp_path):
    out = tmp_path / "scan.json"
    code = run(
        [
            "find-ep", "--model", "bc", "--n", "5", "--scan-y",
            "--range", "-0.4:0", "--output", str(out),
        ]
    )
    assert code == 0
    pts = json.loads(out.read_text())["critical_points"]
    eps = [p for p in pts if p["kind"] == "ep"]
    assert len(eps) == 1
    assert eps[0]["params"]["y"] == pytest.approx(-0.196, abs=0.005)


# --------------------------------------------------------------------------
# metric
# --------------------------------------------------------------------------


def test_metric_json_fields(tmp_path):
    out = tmp_path / "m.json"
    code = run(
        ["metric", "--model", "epn", "--n", "6", "--t", "0.5", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["min_eig"] > 0
    assert doc["residual"] <= 1e-8
    assert len(doc["theta"]) == 6


def test_metric_identity_at_unit_time(tmp_path):
    out = tmp_path / "m.json"
    run(["metric", "--model", "epn", "--n", "6", "--t", "1", "--output", str(out)])
    doc = json.loads(out.read_text())
    theta = np.array([[complex(re, im) for re, im in row] for row in doc["theta"]])
    assert np.allclose(theta, np.eye(6), atol=1e-12)


def test_metric_near_ep_refusal_exit_code(tmp_path):
    out = tmp_path / "m.json"
    code = run(
        ["metric", "--model", "epn", "--n", "6", "--t", "0", "--output", str(out)]
    )
    assert code == 3


def test_metric_without_a_positive_definite_theta_is_refused(tmp_path):
    out = tmp_path / "m.json"
    code = run(
        ["metric", "--model", "epn", "--n", "6", "--t", "0.0001", "--output", str(out)]
    )
    assert code == 3
    assert not out.exists()


def test_metric_sweep_has_decreasing_min_eig(tmp_path):
    out = tmp_path / "ms.csv"
    code = run(
        [
            "metric-sweep", "--model", "epn", "--n", "6",
            "--t-grid", "0.5,0.2,0.1,0.05,0.02,0.01", "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# usage errors
# --------------------------------------------------------------------------


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "epn", "--n", "6", "--samples", "5"])
    assert exc.value.code == 2


def test_wrong_param_for_model_is_usage_error():
    for model, param in (("epn", "r"), ("hermitian-demo", "r"), ("bc", "t")):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "sweep", "--model", model, "--n", "6", "--param", param,
                    "--range", "0:1", "--samples", "5",
                ]
            )
        assert exc.value.code == 2, model


def test_find_ep_wrong_param_for_model_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "find-ep", "--model", "epn", "--n", "6", "--param", "r",
                "--range", "-0.5:0.5", "--output", str(tmp_path / "ep.json"),
            ]
        )
    assert exc.value.code == 2
    assert not (tmp_path / "ep.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "epn", "--n", "1", "--range", "0:1", "--samples", "5"],
        ["find-ep", "--model", "epn", "--n", "1", "--range", "-0.5:0.5"],
        ["metric", "--model", "epn", "--n", "1", "--t", "0.5"],
        ["sweep", "--model", "epn", "--n", "4", "--range", "0:1", "--samples", "1"],
        ["sturmian", "--n", "4", "--y", "0", "--range", "0:5", "--samples", "1"],
        ["metric", "--model", "epn", "--n", "4", "--t", "0.5", "--kappa", "1,2"],
        ["sturmian", "--n", "4", "--y", "0", "--range", "5:0", "--samples", "10"],
        ["sturmian", "--n", "4", "--y", "0", "--range", "2:2", "--samples", "10"],
        # NaN and infinity are refused by every float flag
        ["sweep", "--model", "epn", "--n", "4", "--range", "nan:1", "--samples", "5"],
        ["sweep", "--model", "bc", "--n", "4", "--y", "inf", "--range", "0:1", "--samples", "5"],
        ["find-ep", "--model", "bc", "--n", "4", "--y", "nan", "--range", "-1:1"],
        ["sturmian", "--n", "4", "--y", "0", "--range", "0:inf", "--samples", "10"],
        ["metric", "--model", "epn", "--n", "4", "--t", "nan"],
        ["metric", "--model", "bc", "--n", "4", "--r", "inf"],
        ["metric", "--model", "epn", "--n", "3", "--t", "0.5", "--kappa", "1,nan,1"],
        ["metric-sweep", "--model", "epn", "--n", "4", "--t-grid", "0.5,nan"],
    ],
    ids=[
        "sweep-n1", "find-ep-n1", "metric-n1", "sweep-samples1",
        "sturmian-samples1", "metric-kappa-length", "sturmian-reversed-range",
        "sturmian-empty-range", "sweep-range-nan", "sweep-y-inf", "find-ep-y-nan",
        "sturmian-range-inf", "metric-t-nan", "metric-r-inf", "metric-kappa-nan",
        "metric-sweep-t-grid-nan",
    ],
)
def test_bad_values_are_usage_errors(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--output", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "epn", "--n", "4", "--range", "-inf:1", "--samples", "5"],
        ["find-ep", "--model", "bc", "--n", "4", "--y", "-inf", "--range", "0:1"],
        ["metric", "--model", "epn", "--n", "4", "--t", "-nan"],
    ],
    ids=["sweep-range-minus-inf", "find-ep-y-minus-inf", "metric-t-minus-nan"],
)
def test_negative_non_finite_values_reach_the_finite_check(argv, tmp_path, capsys):
    # a value that starts with "-" but no digit is still the flag's value
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


def test_failed_lapack_solve_in_a_sweep_exits_4(tmp_path, monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--model", "bc", "--n", "16", "--range", "-1:1", "--samples", "600", "--output", str(out)]  # three stacks
    assert run(argv) == 4
    assert "no convergence" in capsys.readouterr().err
    assert not out.exists()


BEYOND_DOUBLE_RANGE = pytest.mark.parametrize(
    "argv",
    [
        "sweep --model bc --n 4 --range 1e200:1e201 --samples 3 --precision extended",
        "sweep --model bc --n 4 --range 1e200:1e201 --samples 3",
        "metric --model epn --n 4 --t 1e300",
        "metric --model bc --n 4 --r 1e200",
        "metric-sweep --model epn --n 4 --t-grid 1e300",
    ],
    ids=["sweep-bc-extended", "sweep-bc-double", "metric-epn", "metric-bc", "metric-sweep-epn"],
)


@BEYOND_DOUBLE_RANGE
def test_a_matrix_beyond_double_range_exits_4(argv, tmp_path, capsys):
    # t(2 - t) or r^2 overflows, so the double matrix is not finite
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run([*argv.split(), "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("no convergence: ")
    assert not out.exists()


@BEYOND_DOUBLE_RANGE
def test_a_matrix_beyond_double_range_is_refused_in_one_line(argv, tmp_path):
    # a fresh interpreter, so that a numpy warning of the matrix builders would reach stderr too
    proc = _fresh_cli(argv.split(), tmp_path / "out")
    assert proc.returncode == 4
    (line,) = proc.stderr.splitlines()
    assert line.startswith("no convergence: ")
    assert not (tmp_path / "out").exists()


def _fresh_cli(argv, out):
    """The command line in a fresh interpreter, so that a numpy warning would reach stderr too."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "epspect.cli", *argv, "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [["sturmian", "--n", "5", "--y", "1e300", "--range", "0:5", "--samples", "10"]],
    ids=["sturmian"],
)
def test_shift_beyond_double_range_exits_4_with_one_line(argv, tmp_path):
    # r^2(E) grows like y^2, beyond the double range
    proc = _fresh_cli(argv, tmp_path / "out")
    assert proc.returncode == 4
    (line,) = proc.stderr.splitlines()
    assert line.startswith("no convergence: ")


def test_find_ep_at_a_shift_of_1e300_locates_the_corner_ep(tmp_path):
    # the two corner levels 2 - z and 2 - conj(z) meet where their tunnel
    # splitting, about y^-3, equals Im z = sqrt(1 - r^2): r = 1 to double
    # precision, E = 2 - y; the exact isolation needs no double coefficient
    argv = ["find-ep", "--model", "bc", "--n", "5", "--y", "1e300", "--param", "r", "--range", "-1:1"]
    proc = _fresh_cli(argv, tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (0, "")
    (point,) = json.loads((tmp_path / "out").read_text())["critical_points"]
    assert (point["kind"], point["order"], point["params"], point["energy"]) == ("ep", 2, {"r": 1.0, "y": 1e300}, [-1e300, 0.0])


@pytest.mark.parametrize("end", ["1e200", "1e300"])
def test_find_ep_over_a_range_whose_square_overflows(end, tmp_path):
    # r^2 at +-end overflows a double; that end bounds nothing, so the one
    # EP of the unit window is all there is, found as over -1:1
    argv = ["find-ep", "--model", "bc", "--n", "5", "--y", "1", "--param", "r"]
    wide = _fresh_cli([*argv, "--range", f"-{end}:{end}"], tmp_path / "wide")
    assert (wide.returncode, wide.stderr) == (0, "")
    assert main([*argv, "--range", "-1:1", "--output", str(tmp_path / "unit")]) == 0
    points = [json.loads((tmp_path / name).read_text())["critical_points"] for name in ("wide", "unit")]
    assert points[0] == points[1] and len(points[0]) == 1


@pytest.mark.parametrize(
    "precision, window, code",
    [
        ("double", "0:1e160", 4),
        ("double", "0:1e300", 4),
        ("extended", "0:1e160", 0),
        ("extended", "0:1e300", 0),
        ("extended", "0:1e308", 4),
    ],
)
def test_epn_sweep_beyond_double_range_is_a_typed_refusal(precision, window, code, tmp_path):
    # t(2 - t) overflows a double beyond |t| ~ 1.3e154, so the double tier refuses
    # there; the extended tier takes it exactly and refuses only a level
    # beyond double range.  A fresh interpreter, so that a numpy warning
    # would reach stderr too.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "s.csv"
    argv = ["sweep", "--model", "epn", "--n", "4", "--range", window, "--samples", "3", "--precision", precision]
    proc = subprocess.run(
        [sys.executable, "-m", "epspect.cli", *argv, "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    if code == 4:
        (line,) = proc.stderr.splitlines()
        assert line.startswith("no convergence: ")
        assert not out.exists()
    else:
        assert proc.stderr == ""
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(rows).all() and rows[-1, 1] == float(window.split(":")[1])


def _csv_tracks(path):
    """The grid and the (n, k) tracks of a sweep CSV, each value read back exactly."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines])
    tracks = np.empty((len(rows[0]) // 3 - 1, len(rows)), dtype=complex)
    tracks.real, tracks.imag = rows[:, 2:-1:3].T, rows[:, 3:-1:3].T
    return rows[:, 1], tracks


def test_sweep_double_and_figure_1_assign_nothing(tmp_path, monkeypatch, capsys):
    # EPN columns are its levels and Hermitian levels do not cross, so
    # only a bc sweep is continued: the benchmark's four sweep commands and
    # figure 1 never reach the assignment, and a demo sweep is its solver's
    # output as it is.  The bc sweep shows that the counter sees the calls.
    calls, assign = [], epfinder._assign
    monkeypatch.setattr(epfinder, "_assign", lambda cost: calls.append(len(cost)) or assign(cost))
    monkeypatch.chdir(tmp_path)
    for argv in (
        "sweep --model epn --n 32 --param t --range 0:1 --samples 2001 --output epn32.csv",
        "sweep --model hermitian-demo --n 4 --seed 5 --range -1:1 --samples 2001 --output demo4.csv",
        "figure 2",
        "figure 3",
        "figure 1",
    ):
        assert run(argv.split()) == 0
    assert calls == []
    for name, model in (("demo4.csv", HermitianDemoModel(4, 5)), ("figure1_data.csv", HermitianDemoModel(4, 1))):
        grid, tracks = _csv_tracks(tmp_path / name)
        assert np.array_equal(grid, np.linspace(-1.0, 1.0, 2001))
        assert np.array_equal(tracks.view(float), np.ascontiguousarray(model.eigvals(grid).T).view(float))
    assert run("sweep --model bc --n 16 --y -0.5 --range -1.5:1.5 --samples 2001 --output bc16.csv".split()) == 0
    assert calls
    capsys.readouterr()


def test_figure_index_validated(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["figure", "9", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# determinism
# --------------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = [
        "sweep", "--model", "hermitian-demo", "--n", "4", "--seed", "1",
        "--range", "-1:1", "--samples", "101",
    ]
    run(argv + ["--output", str(a)])
    run(argv + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_figure_outputs_data_and_plot_script(tmp_path):
    code = run(["figure", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    data = tmp_path / "figure3_data.csv"
    script = tmp_path / "figure3_plot.txt"
    assert data.exists() and script.exists()
    assert "plot" in script.read_text()
