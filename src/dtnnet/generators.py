"""Test-geometry generators: ring, hexagonal grid patch, random packing."""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleError, _check_memory
from .geometry import Disk, Packing, validate_packing

_MAX_TRIES = 20000  # candidate centres random_packing draws before giving up
# Bytes one disk costs through `dtnnet gen`: tracemalloc read a peak of 8.10 MB for
# `gen grid --disk-radius 0.01 --gap 0.002` (7291 disks), 1111 bytes a disk.
_BYTES_PER_DISK = 1111


def ring_packing(
    n: int,
    ring_radius: float,
    disk_radius: float,
    L: float = 1.0,
    phase: float = 0.0,
) -> Packing:
    """n equal disks equally spaced on a circle of radius ring_radius. MemoryError if
    n disks at _BYTES_PER_DISK would not fit in physical memory (``_check_memory``)."""
    if n < 1:
        raise InfeasibleError("ring needs at least one disk")
    if ring_radius + disk_radius >= L:
        raise InfeasibleError("ring disks touch or cross the domain boundary")
    if n >= 2:
        chord = 2.0 * ring_radius * math.sin(math.pi / n)
        if chord <= 2.0 * disk_radius:
            raise InfeasibleError("ring neighbors overlap")
    _check_memory(n * _BYTES_PER_DISK, f"{n} disks")
    angles = phase + 2.0 * math.pi * np.arange(n) / n
    disks = tuple(
        Disk(ring_radius * math.cos(a), ring_radius * math.sin(a), disk_radius)
        for a in angles
    )
    return validate_packing(Packing(L=L, inclusions=disks))


def grid_packing(disk_radius: float, gap: float, L: float = 1.0) -> Packing:
    """Hexagonal patch with uniform gap, clipped to keep a boundary gap >= gap.
    MemoryError if the sites of its bounding box, as many disks at _BYTES_PER_DISK,
    would not fit in physical memory (``_check_memory``)."""
    if not (gap > 0 and disk_radius > 0):
        raise InfeasibleError("gap and radius must be positive")
    pitch = 2.0 * disk_radius + gap
    limit = L - disk_radius - gap
    if not limit > 0:
        raise InfeasibleError("disks do not fit inside the domain")
    if limit == math.inf:
        raise InfeasibleError(f"a grid patch needs a finite domain radius, got {L}")
    # The site count in floating point: a subnormal pitch makes it infinite.
    n_rows, n_cols = (float(np.ceil(limit / step)) + 1.0
                      for step in (pitch * math.sqrt(3.0) / 2.0, pitch))
    sites = (2.0 * n_rows + 1.0) * (2.0 * n_cols + 1.0)
    _check_memory(sites * _BYTES_PER_DISK, f"{sites:.0f} disks")
    n_rows, n_cols = int(n_rows), int(n_cols)
    row = np.arange(-n_rows, n_rows + 1)[:, None]
    x = np.arange(-n_cols, n_cols + 1) * pitch + np.where(row % 2, 0.5 * pitch, 0.0)
    y = np.broadcast_to(row * pitch * math.sqrt(3.0) / 2.0, x.shape)
    keep = np.hypot(x, y) <= limit
    disks = tuple(Disk(a, b, disk_radius) for a, b in zip(x[keep].tolist(), y[keep].tolist()))
    return validate_packing(Packing(L=L, inclusions=disks))


def random_packing(
    n: int,
    disk_radius: float,
    delta_min: float,
    L: float = 1.0,
    seed: int = 0,
) -> Packing:
    """Rejection-sampled packing with all gaps at least delta_min."""
    if not 0 < delta_min < math.inf:
        raise InfeasibleError(f"delta_min must be positive and finite, got {delta_min}")
    if seed < 0:
        raise InfeasibleError(f"seed must be non-negative, got {seed}")
    limit = L - disk_radius - delta_min
    if limit <= 0:
        raise InfeasibleError("disks do not fit inside the domain")
    # A bad radius or domain fails as any disk of the packing would, before sampling.
    validate_packing(Packing(L=L, inclusions=(Disk(0.0, 0.0, disk_radius),)))
    rng = np.random.default_rng(seed)
    placed: list[Disk] = []
    tries = 0
    while len(placed) < n:
        if tries >= _MAX_TRIES:
            raise InfeasibleError(
                f"could not place {n} disks with gap {delta_min} in {_MAX_TRIES} tries"
            )
        tries += 1
        r = limit * math.sqrt(rng.uniform())
        a = rng.uniform(0.0, 2.0 * math.pi)
        x, y = r * math.cos(a), r * math.sin(a)
        ok = all(
            math.hypot(x - d.x, y - d.y) >= 2.0 * disk_radius + delta_min
            for d in placed
        )
        if ok:
            placed.append(Disk(x, y, disk_radius))
    return validate_packing(Packing(L=L, inclusions=tuple(placed)))
