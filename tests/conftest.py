import faulthandler
import os
import random

import pytest

# HAMFAM_SEED pins every randomized (non-hypothesis) test for reproducibility.
SEED = int(os.environ.get("HAMFAM_SEED", "20240811"))


@pytest.fixture
def rng():
    return random.Random(SEED)


_stderr_fd = 2


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while pytest is not capturing
    # it: a dump into the captured stream would be lost when the run exits
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard():
    """A test still running after 120 s dumps every thread's stack and ends
    the run, so a hang fails the suite instead of stalling it."""
    faulthandler.dump_traceback_later(120, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
