"""Figures 4-6 against reference outputs stored under ``tests/data``.

Each reference holds a sample of one Sturmian figure: every 20th data row
and every refined row of ``figure<k>_data.csv``, the row count, and the
poles, branch merges and persistent lines of ``figure<k>_data_poles.json``.
Energies and flags must match exactly, the coupling branches ``r_plus`` and
``r_minus`` to 1e-12 relative.  Regenerate (only on a deliberate change of
the figures) with

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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for k in FIGURES:
            if cli_main(["figure", str(k), "--out-dir", tmp]) != 0:
                sys.exit(f"figure {k} failed")
            payload = _reference_of(Path(tmp), k)
            _reference_path(k).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
            print(_reference_path(k))
