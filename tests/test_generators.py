import math
import re

import numpy as np
import pytest

from dtnnet import errors, generators
from dtnnet.errors import InfeasibleError, ParseError
from dtnnet.generators import grid_packing, random_packing, ring_packing
from dtnnet.geometry import Disk


def no_sampling(seed):
    raise AssertionError("random_packing drew candidates for an invalid request")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ring_packing(0, 0.5, 0.1), "at least one disk"),
        (lambda: ring_packing(4, 0.95, 0.1), "touch or cross the domain boundary"),
        (lambda: ring_packing(8, 0.5, 0.2), "neighbors overlap"),
        (lambda: grid_packing(0.1, 0.0), "must be positive"),
        (lambda: grid_packing(-0.1, 0.02), "must be positive"),
        (lambda: grid_packing(0.1, math.nan), "must be positive"),
        (lambda: grid_packing(0.6, 0.5), "do not fit"),
        (lambda: grid_packing(0.1, 0.02, math.inf), "finite domain radius"),
        (lambda: random_packing(3, 0.6, 0.5), "do not fit"),
        (lambda: random_packing(3, 0.1, 0.0), "must be positive and finite, got 0.0"),
        (lambda: random_packing(3, 0.1, -1.0), "must be positive and finite, got -1.0"),
        (lambda: random_packing(3, 0.1, math.nan), "must be positive and finite, got nan"),
        (lambda: random_packing(3, 0.1, math.inf), "must be positive and finite, got inf"),
        (lambda: random_packing(3, 0.1, 0.01, seed=-1), "seed must be non-negative, got -1"),
        # Three disks 0.97 apart need a circle of radius 0.56 for their centres; 0.51 is left.
        (lambda: random_packing(3, 0.48, 0.01, seed=1), "could not place 3 disks"),
    ],
    ids=["ring-empty", "ring-outside", "ring-overlap", "grid-zero-gap", "grid-negative-radius",
         "grid-nan-gap", "grid-too-large", "grid-infinite-domain", "random-too-large",
         "random-zero-gap", "random-negative-gap", "random-nan-gap", "random-infinite-gap",
         "random-negative-seed", "random-no-room"],
)
def test_infeasible_requests_raise(monkeypatch, make, message):
    if "could not place" not in message:  # every other request is refused before drawing
        monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(InfeasibleError, match=message):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda: ring_packing(4, 0.85, -0.1), lambda: random_packing(3, -0.1, 0.01),
     lambda: ring_packing(4, 0.85, math.nan), lambda: random_packing(5, math.nan, 0.01)],
    ids=["ring-negative-radius", "random-negative-radius", "ring-nan-radius",
         "random-nan-radius"],
)
def test_invalid_disk_values_raise_parse_error(make):
    with pytest.raises(ParseError, match="inclusion 0"):
        make()


@pytest.mark.parametrize("radius, message", [
    (math.nan, "inclusion 0: non-finite coordinate or radius"),
    (-0.1, "inclusion 0: radius must be positive, got -0.1")])
def test_random_packing_checks_the_radius_before_sampling(monkeypatch, radius, message):
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        random_packing(5, radius, 0.01)


def grid_by_loops(disk_radius, gap, L):
    """The hexagonal patch one candidate at a time, row by row."""
    pitch = 2.0 * disk_radius + gap
    limit = L - disk_radius - gap
    n_rows = int(math.ceil(limit / (pitch * math.sqrt(3.0) / 2.0))) + 1
    n_cols = int(math.ceil(limit / pitch)) + 1
    disks = []
    for row in range(-n_rows, n_rows + 1):
        y = row * pitch * math.sqrt(3.0) / 2.0
        x_off = 0.5 * pitch if row % 2 else 0.0
        for col in range(-n_cols, n_cols + 1):
            x = col * pitch + x_off
            if math.hypot(x, y) <= limit:
                disks.append(Disk(x, y, disk_radius))
    return tuple(disks)


# Every grid of the tests, the benchmarks and the sweep ladder, and a few other domains.
GRIDS = [(0.1, 0.02, 1.0), (0.05, 0.01, 1.0), (0.02, 0.004, 1.0), (0.01, 0.002, 1.0),
         (0.1, 0.015, 1.0), (0.14, 0.02, 1.0), (0.12, 0.02, 1.0), (0.115, 0.015, 1.0),
         (0.25, 0.05, 1.0), (0.1, 0.02, 2.5), (0.3, 0.1, 7.0), (0.03, 0.007, 1.0),
         (0.07, 0.013, 0.9), (0.2, 0.2, 3.0), (1e-3, 1e-3, 0.05)]


@pytest.mark.parametrize("disk_radius, gap, L", GRIDS)
def test_grid_mask_keeps_the_disks_of_the_candidate_loop(disk_radius, gap, L):
    assert grid_packing(disk_radius, gap, L).inclusions == grid_by_loops(disk_radius, gap, L)


# The 61-disk grid's bounding box has 13 x 11 sites.
@pytest.mark.parametrize("make, count", [(lambda: ring_packing(8, 0.85, 0.1), 8),
                                         (lambda: grid_packing(0.1, 0.02), 143)],
                         ids=["ring", "grid"])
def test_request_beyond_physical_memory_raises_before_allocating(monkeypatch, make, count):
    need = count * generators._BYTES_PER_DISK
    monkeypatch.setattr(errors, "_physical_memory", lambda: need)
    make()  # exactly the memory it needs: allowed
    monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(MemoryError, match=f"^{count} disks need about {need} bytes"):
        make()


def test_memory_check_is_skipped_without_sysconf(monkeypatch):
    def no_names(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(errors.os, "sysconf", no_names)
    assert errors._physical_memory() is None
    assert ring_packing(8, 0.85, 0.1).n == 8
    # A subnormal pitch: the site count is infinite, refused whatever the memory.
    with pytest.raises(MemoryError, match="^inf disks need about inf bytes, more than any"):
        grid_packing(1e-320, 1e-320)
