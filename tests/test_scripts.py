"""Helper scripts under scripts/."""

import pathlib
import subprocess
import sys

from polycascade.polynomials import parse_system

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cyclic_script_writes_cyclic4():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "cyclic.py"), "4"],
                         check=True, capture_output=True, text=True).stdout
    assert parse_system(out) == parse_system((ROOT / "systems" / "cyclic4.sys").read_text())
