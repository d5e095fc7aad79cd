"""Each demo prints exactly its recorded output."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's standard output
STDOUT_SHA256 = {
    "demo_01_insurance": "936f2bb4add305321b83848fcc09e106a3d18350cb5680d33606b316d2eae0bf",
    "demo_02_trichotomy": "fe610e47ba092a3022b9fed3d82ce204c145bc308aaebd509c58e6addf97819f",
    "demo_03_treatment_effects": "bbe7317c1c1e2d5af83639a5fc44f3a886ee7f3bb79229f3daab0faf6e942a53",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
