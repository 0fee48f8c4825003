"""The fast demos run to completion in-process.

Demos 01-05 take a few seconds together.  06_full_training.py trains the
full pipeline several times and takes about a minute, so it is left out.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST = ["01_transport_lift.py", "02_sheaf_spectrum.py", "03_diffusion.py",
        "04_calibration.py", "05_gap_ascent.py"]


@pytest.mark.parametrize("name", FAST)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
