"""Figures 4-6 and three ``find-ep`` runs against reference outputs stored
under ``tests/data``.

Each figure reference holds a sample of one Sturmian figure: every 20th data
row and every refined row of ``figure<k>_data.csv``, the row count, and the
poles, branch merges and persistent lines of ``figure<k>_data_poles.json``.
Energies and flags must match exactly, the coupling branches ``r_plus`` and
``r_minus`` to 1e-12 relative.

Each ``find-ep`` reference holds the critical points of one run.  Kind,
order, integer and list residuals must match exactly; parameters, energies
and the other float residuals to 1e-12 (relative above 1, absolute below).
``cluster_radius`` is the spread of a defective cluster, set by rounding,
so it is held only to the fog of a double rounding of the event's
parameters: an m-fold root splits by at most eps^(1/m) (1 + |E|).

Regenerate (only on a deliberate change of the outputs) with

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from epspect.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"
FIGURES = (4, 5, 6)
STRIDE = 20
R_RTOL = 1e-12

FIND_EP = {
    "bc8_r": ["--model", "bc", "--n", "8", "--y", "0", "--param", "r", "--range", "-1:1"],
    "epn6_t": ["--model", "epn", "--n", "6", "--param", "t", "--range", "-0.5:0.5"],
    "scan_bc8": ["--model", "bc", "--n", "8", "--scan-y", "--range", "-1:0"],
}
POINT_TOL = 1e-12
DOUBLE_EPS = 2.0**-52


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
            if key == "cluster_radius":
                energy = abs(complex(*g["energy"]))
                assert 0 <= mine <= DOUBLE_EPS ** (1 / g["order"]) * (1 + energy), (where, mine)
            elif isinstance(value, float):
                assert _close(mine, value), (where, key, mine, value)
            else:
                assert mine == value, (where, key)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for k in FIGURES:
            if cli_main(["figure", str(k), "--out-dir", tmp]) != 0:
                sys.exit(f"figure {k} failed")
            payload = _reference_of(Path(tmp), k)
            _reference_path(k).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            print(_reference_path(k))
        for name in FIND_EP:
            path = DATA / f"find_ep_{name}_reference.json"
            path.write_text(json.dumps(_find_ep_points(Path(tmp), name), indent=1) + "\n", encoding="utf-8")
            print(path)
