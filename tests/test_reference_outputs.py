"""Figures 1-6 and three ``find-ep`` runs against reference outputs stored
under ``tests/data``.

Each sweep figure reference (figures 1-3) holds the header, the row count
and every 10th line of ``figure<k>_data.csv``.  Index, parameter, reality
flags and pairing warnings must match exactly, each real and imaginary part
to 1e-12 of the row's largest |E| (at least 1).

Each Sturmian figure reference (figures 4-6) holds every 20th data row and
every refined row of ``figure<k>_data.csv``, the row count, and the poles,
branch merges and persistent lines of ``figure<k>_data_poles.json``.
Energies and flags must match exactly, the coupling branches ``r_plus`` and
``r_minus`` to 1e-12 relative.

Each ``find-ep`` reference holds the critical points of one run.  Kind,
order, integer and list residuals must match exactly; parameters, energies
and the other float residuals to 1e-12 (relative above 1, absolute below).
Every level-merger and fold energy of the shift scan is also checked
against a 40-digit oracle, rounded once.

Regenerate (only on a deliberate change of the outputs) with

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from epspect.cli import main as cli_main
from epspect.epfinder import ep_locate_2d_bc
from epspect.models import secular_in_y
from oracles import disc_in_y_at_p, fold_coeffs_in_E, fold_event_poly, rounded

DATA = Path(__file__).resolve().parent / "data"
SWEEP_FIGURES = (1, 2, 3)
SWEEP_STRIDE = 10
VALUE_TOL = 1e-12
FIGURES = (4, 5, 6)
STRIDE = 20
R_RTOL = 1e-12

FIND_EP = {
    "bc8_r": ["--model", "bc", "--n", "8", "--y", "0", "--param", "r", "--range", "-1:1"],
    "epn6_t": ["--model", "epn", "--n", "6", "--param", "t", "--range", "-0.5:0.5"],
    "scan_bc8": ["--model", "bc", "--n", "8", "--scan-y", "--range", "-1:0"],
}
POINT_TOL = 1e-12


def _sweep_reference_of(outdir: Path, k: int) -> dict:
    """The header, row count and every ``SWEEP_STRIDE``-th line of sweep figure k."""
    header, *lines = (outdir / f"figure{k}_data.csv").read_text(encoding="utf-8").splitlines()
    return {"header": header, "row_count": len(lines), "rows": lines[::SWEEP_STRIDE]}


@pytest.mark.parametrize("k", SWEEP_FIGURES)
def test_sweep_figure_matches_reference(k, tmp_path):
    assert cli_main(["figure", str(k), "--out-dir", str(tmp_path)]) == 0
    got = _sweep_reference_of(tmp_path, k)
    want = json.loads(_reference_path(k).read_text(encoding="utf-8"))

    assert (got["header"], got["row_count"]) == (want["header"], want["row_count"])
    values = {i for i, h in enumerate(want["header"].split(",")) if h[:2] in ("re", "im") and h[2:].isdigit()}
    for g, w in zip(got["rows"], want["rows"]):
        g, w = g.split(","), w.split(",")
        assert [x for i, x in enumerate(g) if i not in values] == [x for i, x in enumerate(w) if i not in values]
        scale = max(1.0, max(abs(float(w[i])) for i in values))
        assert all(abs(float(g[i]) - float(w[i])) <= VALUE_TOL * scale for i in values), (k, w[:2])


def _reference_of(outdir: Path, k: int) -> dict:
    """The sampled rows and the sidecar's marked energies of figure k."""
    lines = (outdir / f"figure{k}_data.csv").read_text(encoding="utf-8").splitlines()
    rows = []
    for i, line in enumerate(lines[1:]):
        energy, r_plus, r_minus, in_model, refined = line.split(",")
        if i % STRIDE == 0 or refined == "1":
            rows.append([i, float(energy), float(r_plus), float(r_minus), int(in_model), int(refined)])
    sidecar = json.loads((outdir / f"figure{k}_data_poles.json").read_text(encoding="utf-8"))
    return {
        "row_count": len(lines) - 1,
        "rows": rows,
        "poles": sidecar["poles"],
        "branch_merges": sidecar["branch_merges"],
        "persistent_lines": sidecar["persistent_lines"],
    }


def _reference_path(k: int) -> Path:
    return DATA / f"figure{k}_reference.json"


@pytest.mark.parametrize("k", FIGURES)
def test_sturmian_figure_matches_reference(k, tmp_path):
    assert cli_main(["figure", str(k), "--out-dir", str(tmp_path)]) == 0
    got = _reference_of(tmp_path, k)
    want = json.loads(_reference_path(k).read_text(encoding="utf-8"))

    assert got["row_count"] == want["row_count"]
    assert [row[:2] + row[4:] for row in got["rows"]] == [row[:2] + row[4:] for row in want["rows"]]
    for g, w in zip(got["rows"], want["rows"]):
        for a, b in zip(g[2:4], w[2:4]):
            assert abs(a - b) <= R_RTOL * abs(b), (k, g[0], a, b)
    for key in ("poles", "branch_merges", "persistent_lines"):
        assert got[key] == want[key], key


def _find_ep_points(outdir: Path, name: str) -> list[dict]:
    out = outdir / f"{name}.json"
    assert cli_main(["find-ep", *FIND_EP[name], "--output", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["critical_points"]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= POINT_TOL * max(1.0, abs(b))


@pytest.mark.parametrize("name", FIND_EP)
def test_find_ep_matches_reference(name, tmp_path):
    got = _find_ep_points(tmp_path, name)
    want = json.loads((DATA / f"find_ep_{name}_reference.json").read_text(encoding="utf-8"))

    assert [(p["kind"], p["order"], sorted(p["params"])) for p in got] == [
        (p["kind"], p["order"], sorted(p["params"])) for p in want
    ]
    for g, w in zip(got, want):
        where = (name, w["params"])
        assert all(_close(g["params"][k], v) for k, v in w["params"].items()), where
        assert (g["energy"] is None) == (w["energy"] is None), where
        if w["energy"] is not None:
            assert all(_close(a, b) for a, b in zip(g["energy"], w["energy"])), where
        assert sorted(g["residuals"]) == sorted(w["residuals"]), where
        for key, value in w["residuals"].items():
            mine = g["residuals"][key]
            if isinstance(value, float):
                assert _close(mine, value), (where, key, mine, value)
            else:
                assert mine == value, (where, key)


def _newton_mp(f, x0, steps=8):
    """Newton's iteration at the working precision on the descending ``mpf`` coefficients f."""
    df = [k * c for k, c in enumerate(f[::-1])][:0:-1]
    x = mp.mpf(x0)
    for _ in range(steps):
        x -= mp.polyval(f, x) / mp.polyval(df, x)
    return x


def _repeated_root_oracle(event_poly, coeffs_in_E, y_double, energy, by_newton=False) -> float:
    """The repeated root at the event's exact y, at 40 digits and rounded once.

    y is the root of the event polynomial's square-free part that Newton's
    iteration at 40 digits reaches from the reported double; the repeated root of
    the polynomial with E-coefficients ``coeffs_in_E`` at y is a simple
    root of its E-derivative, the one nearest the reported energy: among
    all its roots (``mp.polyroots``), or, ``by_newton``, the one Newton's
    iteration reaches from the reported energy within 1e-12.
    """
    with mp.workdps(40):
        y = _newton_mp(_mp_coeffs(event_poly.exact_div(event_poly.gcd(event_poly.derivative())))[::-1], y_double)
        assert abs(y - y_double) < 1e-12
        coeffs = [mp.polyval(_mp_coeffs(c)[::-1], y) for c in coeffs_in_E]
        derivative = [k * c for k, c in enumerate(coeffs)][1:]
        if by_newton:
            root = _newton_mp(derivative[::-1], energy)
            assert abs(root - energy) < 1e-12
            return rounded(root)
        roots = mp.polyroots(derivative[::-1], maxsteps=400, extraprec=400)
        return rounded(mp.re(min(roots, key=lambda e: abs(e - energy))))


def _mp_coeffs(p) -> list:
    return [mp.mpf(c.numerator) / c.denominator for c in map(Fraction, p.coeffs)]


def _check_scan_energies(n, points, by_newton=False):
    for p in points:
        if p.kind != "ep":
            continue
        merge = p.params["r"] == 0
        event = disc_in_y_at_p(n) if merge else fold_event_poly(n)
        coeffs = secular_in_y(n) if merge else fold_coeffs_in_E(n)
        assert p.energy.imag == 0
        assert p.energy.real == _repeated_root_oracle(event, coeffs, p.params["y"], p.energy.real, by_newton), p


@pytest.mark.parametrize("n", [8, 9])
def test_scan_energies_are_40_digit_oracles_rounded_once(n):
    _check_scan_energies(n, ep_locate_2d_bc(n, (-1.0, 1.0)))


def test_scan_at_n17_is_mirror_symmetric_with_40_digit_energies():
    # the event polynomials reach degree 31 with 43-bit coefficients here;
    # all roots of each E-derivative at 40 digits would take half a minute
    points = ep_locate_2d_bc(17, (-1.0, 1.0))
    events = sorted((round(p.params["y"], 8), round(p.energy.real, 8), p.kind, p.order) for p in points)
    assert len(events) == 31
    # the family's mirror: y -> -y and E -> 4 - E map the scan onto itself
    assert events == sorted((round(-y, 8) + 0.0, round(4 - e, 8), kind, order) for y, e, kind, order in events)
    _check_scan_energies(17, points, by_newton=True)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for k in SWEEP_FIGURES + FIGURES:
            if cli_main(["figure", str(k), "--out-dir", tmp]) != 0:
                sys.exit(f"figure {k} failed")
            payload = (_sweep_reference_of if k in SWEEP_FIGURES else _reference_of)(Path(tmp), k)
            _reference_path(k).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            print(_reference_path(k))
        for name in FIND_EP:
            path = DATA / f"find_ep_{name}_reference.json"
            path.write_text(json.dumps(_find_ep_points(Path(tmp), name), indent=1) + "\n", encoding="utf-8")
            print(path)
