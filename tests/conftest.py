import math
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dtnnet.generators import ring_packing

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("dtnnet", derandomize=True, deadline=None, database=None)
settings.load_profile("dtnnet")


def pytest_configure(config):
    # hypothesis also caches the constants it parses from the sources in its
    # home directory: keep that out of the checkout, and remove it at the end.
    home = tempfile.TemporaryDirectory(prefix="dtnnet-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def equal_gap_ring(n: int, gap_over_radius: float, L: float = 1.0):
    """Ring where the boundary gap equals the neighbor gap, both = t * R.

    With n, L and the gap ratio fixed, the disk radius is determined:
        R = s / (1 + s + t (s + 1/2)),  s = sin(pi/n).
    """
    s = math.sin(math.pi / n)
    t = gap_over_radius
    R = s / (1.0 + s + t * (s + 0.5))
    delta = t * R
    return ring_packing(n, L - R - delta, R, L)


@pytest.fixture
def ring8():
    """Standard ring fixture: 8 disks of radius 0.1 on radius 0.85, L = 1."""
    return ring_packing(8, 0.85, 0.1, 1.0)
