"""Fixtures shared across test modules."""

import contextlib
import io
import time

import pytest
from hypothesis import settings

from seqlab.cli import main

# `pytest --hypothesis-profile=deep`: 5x the examples of the default profile,
# each property's count scaled alike (tests/test_crf.py `examples`), drawn
# from a fixed seed so that a failure repeats
settings.register_profile("deep", max_examples=5 * settings.default.max_examples,
                          derandomize=True)


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
