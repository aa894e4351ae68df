"""Spans around the calls into dtnnet's public functions, recorded from outside.

The tracer swaps the module attributes through which dtnnet (and the
benchmark) call each traced function for a wrapper that records a span
``(name, start, end, parent)``. Nothing inside ``src/dtnnet`` changes, and
with the wrappers removed the library runs exactly as it does untraced.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions timed per layer. A function bound under several modules
# (``net_energy`` is imported into ``asymptotics``) is wrapped at every binding.
TRACED = {
    "geometry": ("load_packing", "analyze", "validate_packing", "compute_adjacency",
                 "classify_boundary", "scale_report"),
    "network": ("build_network", "net_energy", "solve_kirchhoff", "dtn_matrix"),
    "asymptotics": ("total_energy", "boundary_excitation", "resonance_general",
                    "regime_classify"),
    "specfun": ("polylog_half",),
    "oracle": ("solve_dirichlet", "quad_form_oracle", "cross_form_oracle"),
    "cli": ("main",),
    "generators": ("grid_packing", "ring_packing"),
}
LAYERS = tuple(TRACED)


def _geometry_sizes(counts, args, kwargs, out):
    counts["geometry.n"] = max(counts["geometry.n"], out.packing.n)
    counts["geometry.n_b"] = max(counts["geometry.n_b"], out.boundary_count)
    counts["geometry.edges"] = max(counts["geometry.edges"], len(out.gap_widths))


def _network_sizes(counts, args, kwargs, out):
    # Reduced Kirchhoff matrix over the inclusions: diagonal plus both
    # off-diagonal entries of every gap edge.
    nnz = out.n + 2 * len(out.gap_edges)
    counts["network.laplacian_nnz"] = max(counts["network.laplacian_nnz"], nnz)


def _oracle_sizes(counts, args, kwargs, out):
    # Collocation matrix shape as oracle.solve_dirichlet builds it (n_per,
    # n_basis, n_unknown and rows there); this formula must track that code,
    # and the self-test compares it with the shape passed to lstsq: 4M points
    # on the outer circle and on each inclusion; 2M+1 domain and 2M
    # per-inclusion harmonics plus one constant per inclusion. Bytes are
    # computed from the shape (float64), not measured.
    packing = args[0] if args else kwargs["packing"]
    M = args[2] if len(args) > 2 else kwargs["M"]
    rows = 4 * M * (packing.n + 1)
    unknowns = (2 * M + 1) + 2 * M * packing.n + packing.n
    counts["oracle.rows"] = max(counts["oracle.rows"], rows)
    counts["oracle.unknowns"] = max(counts["oracle.unknowns"], unknowns)
    counts["oracle.matrix_bytes"] = max(counts["oracle.matrix_bytes"], 8 * rows * unknowns)


SIZE_HOOKS = {
    "geometry.classify_boundary": _geometry_sizes,
    "network.build_network": _network_sizes,
    "oracle.solve_dirichlet": _oracle_sizes,
}


class Tracer:
    """Collects spans while active; ``start`` begins a new span list per op."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # [name, start, end, parent index]
        self.sizes: Counter = Counter()  # largest instance seen, per size counter
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = SIZE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.sizes, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of the traced functions with a wrapper."""
        mods = [importlib.import_module(f"dtnnet.{m}") for m in LAYERS]
        mods.append(importlib.import_module("dtnnet"))
        targets = {}
        for layer, names in TRACED.items():
            home = importlib.import_module(f"dtnnet.{layer}")
            for fname in names:
                fn = getattr(home, fname)
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        try:
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if id(value) in targets and targets[id(value)][0] is value:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, targets[id(value)][1])
            yield self
        finally:
            for mod, attr, value in reversed(self._saved):
                setattr(mod, attr, value)
            self._saved.clear()

    def start(self) -> None:
        """Record spans from now on, starting a new op's span list."""
        self.spans = []
        self._stack = []
        self.active = True

    def stop(self) -> list:
        self.active = False
        return self.spans


def summarize(spans) -> tuple[dict, dict, dict, float]:
    """Per-name total seconds and calls, per-layer self seconds, covered seconds.

    A span's self time is its duration minus the durations of its direct
    children; ``covered`` is the summed duration of the top-level spans.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total: dict = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    covered = 0.0
    for k, (name, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        total[name] += dur
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += dur - child[k]
        if parent < 0:
            covered += dur
    return total, calls, self_s, covered
