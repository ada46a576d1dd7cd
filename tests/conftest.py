"""Fixtures shared across test modules."""

import contextlib
import io
import time

import pytest

from seqlab.cli import main


@pytest.fixture(scope="session")
def gradcheck_run():
    """One `seqlab gradcheck --seed 0` run, the finite-difference audit of all
    11 topology x lm_mode combinations, read by every test that checks it:
    (exit code, printed output, seconds taken)."""
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = main(["gradcheck", "--seed", "0"])
    return code, out.getvalue(), time.monotonic() - start
