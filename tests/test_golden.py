"""Golden CLI outputs: every command below must reproduce its committed bytes.

Short outputs are stored whole in ``tests/golden/<name>``.  Readout traces
(about 780 KB each) are stored as ``<name>.digest``: their ``# …`` summary
lines in full (a JSON trace has none), then one ``sha256 = <hex>`` line over
the whole output.

Regenerate the files (only when an output change is intended and explained)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
from pathlib import Path

import pytest

from quadkick.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRID = ["sweep", "--axis", "n_p=1e6,3e7,1e8,2e11"]

CASES = {
    "constants.csv": ["constants"],
    "constants.json": ["constants", "--format", "json"],
    "simulate_kick_free_kick_diss.csv": ["simulate", "--schedule", "kick;free;kick;diss"],
    "simulate_diss_on.json": [
        "simulate", "--schedule", "kick;free;kick:3e10;diss:1e-3", "--dissipation", "on",
        "--format", "json",
    ],
    "readout_snapshot.digest": [
        "readout", "--var-p", "61078.5", "--var-x", "0.3140589569160997",
    ],
    "readout_free_evolution.digest": [
        "readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1", "--free-evolution", "on",
    ],
    "readout_free_evolution_json.digest": [
        "readout", "--var-p", "3", "--var-x", "0.2", "--cross", "0.1", "--free-evolution", "on",
        "--format", "json",
    ],
    "sweep_decoherence_T.csv": [
        "sweep", "--axis", "T=1,1e-3,1e-4", "--observable", "decoherence_term",
    ],
    "sweep_pulses_n_p_T.csv": GRID + [
        "--axis", "T=1e-5,1e-3,-1", "--observable", "pulses_needed", "--dissipation", "on",
    ],
    "sweep_pulses_n_p_g.json": GRID + [
        "--axis", "g=0,1e-4,-1", "--observable", "pulses_needed", "--dissipation", "on",
        "--format", "json",
    ],
    "sweep_var_p_n_p_delta_tau.csv": GRID + [
        "--axis", "delta_tau=0,1e-8,-3e-8", "--observable", "var_p",
    ],
}


def render(name: str, argv: list[str], out: Path) -> bytes:
    """Run one command and return the bytes the golden file should hold."""
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if not name.endswith(".digest"):
        return data
    summary = [ln for ln in data.split(b"\n") if ln.startswith(b"# ")]
    digest = hashlib.sha256(data).hexdigest().encode()
    return b"\n".join(summary + [b"sha256 = " + digest]) + b"\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    assert render(name, CASES[name], tmp_path / "out") == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            (GOLDEN / name).write_bytes(render(name, argv, Path(tmp) / "out"))
            print(f"wrote {GOLDEN / name}")
