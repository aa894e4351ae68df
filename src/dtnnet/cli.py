"""Command-line front end: packing generation, analysis, sweeps, validation.

Exit codes: 0 success, 2 usage, input or allocation error, 3 numerical failure:
an error's type holds its ``exit_code``. Each error goes to stderr as one JSON
object whose ``error`` kind is the type's name.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import asymptotics, generators, geometry, network, oracle
from .errors import DomainError, DtnError, EmptyPackingError, IllConditionedError, ParseError

FLOAT_FMT = "%.17g"


def _parse_mode_args(values: list[str] | None, label: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in values or []:
        try:
            key, _, val = item.partition("=")
            k = int(key)
            a = float(val)
        except ValueError as exc:
            raise ParseError(f"bad --{label} argument {item!r}: expected k=a") from exc
        if k < 0:
            raise ParseError(f"bad --{label} argument {item!r}")
        out[k] = out.get(k, 0.0) + a
    return out


def _build_potential(args) -> asymptotics.FourierPotential:
    cos_map = _parse_mode_args(args.cos, "cos")
    sin_map = _parse_mode_args(args.sin, "sin")
    if not cos_map and not sin_map:
        raise ParseError("no potential given: pass --cos k=a and/or --sin k=a")
    K = max(list(cos_map) + list(sin_map))
    try:  # ValueError: a K past numpy's largest array, or coefficients psi refuses
        c, s = np.zeros(K + 1), np.zeros(K + 1)
        for coeffs, modes in ((c, cos_map), (s, sin_map)):
            coeffs[list(modes)] = list(modes.values())
        return asymptotics.FourierPotential(c, s)
    except ValueError as exc:
        raise ParseError(f"bad potential: {exc}") from exc


def _load_geometry(path: str, mode: str, delta_max_edge: float | None):
    packing = geometry.load_packing(path)
    if packing.n == 0:
        # Reference medium only: the network is bypassed entirely.
        return packing, None, None
    analysis = geometry.analyze(packing, delta_max_edge=delta_max_edge)
    net = network.build_network(analysis, mode=mode)
    return packing, analysis, net


@contextmanager
def _output(path: str | None):
    """The stream a command writes to: the file at path, or stdout if path is
    empty. Failing to open or write the file raises ParseError, as reading a
    packing file does."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot write output file {path}: {exc}") from exc


def _write_json(obj, path: str | None) -> None:
    try:  # RFC 8259 JSON has no form for a non-finite number
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"the result holds a non-finite value: {exc}") from exc
    with _output(path) as fh:
        fh.write(text)


def cmd_gen(args) -> int:
    if args.kind == "ring":
        packing = generators.ring_packing(
            n=args.n,
            ring_radius=args.ring_radius,
            disk_radius=args.disk_radius,
            L=args.domain_radius,
        )
    elif args.kind == "grid":
        packing = generators.grid_packing(
            disk_radius=args.disk_radius, gap=args.gap, L=args.domain_radius
        )
    else:
        packing = generators.random_packing(
            n=args.n,
            disk_radius=args.disk_radius,
            delta_min=args.delta_min,
            L=args.domain_radius,
            seed=args.seed,
        )
    _write_json(geometry.packing_to_dict(packing), args.out)
    return 0


def cmd_analyze(args) -> int:
    psi = _build_potential(args)
    packing, analysis, net = _load_geometry(args.packing, args.mode, args.delta_max_edge)
    breakdown = asymptotics.total_energy(psi, analysis, net)
    out = breakdown.to_dict()
    if analysis is not None:
        out["excitation"] = list(asymptotics.boundary_excitation(psi, analysis))
        out["scale_warnings"] = list(geometry.scale_report(analysis).warnings)
    else:
        out["excitation"] = []
        out["scale_warnings"] = []
    _write_json(out, args.out)
    return 0


def cmd_dtn(args) -> int:
    packing, analysis, net = _load_geometry(args.packing, args.mode, args.delta_max_edge)
    if net is None:
        raise EmptyPackingError("the network DtN matrix needs at least one inclusion")
    lam = network.dtn_matrix(net)
    out = network.network_to_dict(net)
    out["dtn_matrix"] = [[float(v) for v in row] for row in lam]
    _write_json(out, args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.k_to < args.k_from or args.k_from < 0:
        raise ParseError(f"bad sweep range [{args.k_from}, {args.k_to}]")
    _, analysis, net = _load_geometry(args.packing, args.mode, args.delta_max_edge)
    rows = asymptotics.cosine_sweep(np.arange(args.k_from, args.k_to + 1), analysis, net)
    # The first block is computed before the output opens: a sweep that fails writes nothing.
    first = next(rows)
    header = [
        "k", "epsilon", "eta", "regime",
        "E_net", "E_ref", "R_res", "total", "quad_form",
    ]
    with _output(args.out) as target:
        writer = csv.writer(target)
        writer.writerow(header)
        for row in itertools.chain([first], rows):
            writer.writerow(
                [row[0]] + [FLOAT_FMT % v for v in row[1:3]] + [row[3]]
                + [FLOAT_FMT % v for v in row[4:]]
            )
    return 0


def _relative(err: float, scale: float) -> float:
    return err / scale if scale != 0.0 else err


def _validate_one(path: str, psi, mode: str, M: int, delta_max_edge) -> dict:
    packing, analysis, net = _load_geometry(path, mode, delta_max_edge)
    breakdown = asymptotics.total_energy(psi, analysis, net)
    entry: dict = {
        "packing": path,
        "quad_form_asymptotic": breakdown.quad_form,
    }
    if analysis is not None:
        report = geometry.scale_report(analysis)
        entry["delta_over_R"] = report.delta_max / report.R_min
    try:
        sol = oracle.solve_dirichlet(packing, psi, M)
        q_oracle = 2.0 * sol.energy
        entry["quad_form_oracle"] = q_oracle
        entry["oracle_residual"] = sol.boundary_residual
        entry["oracle_condition"] = sol.condition
        entry["relative_difference"] = _relative(abs(breakdown.quad_form - q_oracle),
                                                 abs(q_oracle))
        # Lambda_asym - Lambda_oracle on the modes 0..K of psi.
        lam_oracle = oracle.dtn_oracle(packing, psi.K, M)
        err = asymptotics.dtn_asymptotic(psi.K, analysis, net) - lam_oracle
        entry["dtn_error"] = _relative(float(np.linalg.norm(err)),
                                       float(np.linalg.norm(lam_oracle)))
        entry["dtn_error_offdiag"] = float(np.max(np.abs(err - np.diag(np.diag(err)))))
    except IllConditionedError as exc:
        entry["oracle_refused"] = str(exc)
    return entry


def cmd_validate(args) -> int:
    psi = _build_potential(args)
    if args.oracle_m < max(psi.K, 1):
        raise ParseError(
            f"--oracle-m {args.oracle_m} is below 1 or the max potential frequency {psi.K}"
        )
    entries = [
        _validate_one(p, psi, args.mode, args.oracle_m, args.delta_max_edge)
        for p in args.packing
    ]
    out: dict = {"results": entries}
    trend = [
        (e.get("delta_over_R"), e.get("relative_difference"))
        for e in entries
        if "delta_over_R" in e and "relative_difference" in e
    ]
    if len(trend) >= 2:
        out["trend"] = [{"delta_over_R": d, "relative_error": r} for d, r in trend]
    _write_json(out, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtnnet",
        description="Asymptotic DtN quadratic forms of dense disk composites",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_potential=True, nargs=None):
        p.add_argument("--packing", required=True, nargs=nargs, help="packing JSON path")
        p.add_argument("--mode", choices=["identical", "generalized"], default="identical")
        p.add_argument("--delta-max-edge", type=float, default=None,
                       help="drop gap edges wider than this threshold")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if with_potential:
            p.add_argument("--cos", action="append", metavar="k=a",
                           help="cosine coefficient, repeatable")
            p.add_argument("--sin", action="append", metavar="k=a",
                           help="sine coefficient, repeatable")

    g = sub.add_parser("gen", help="generate a packing file")
    g.add_argument("kind", choices=["ring", "grid", "random"])
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--ring-radius", type=float, default=0.85)
    g.add_argument("--disk-radius", type=float, default=0.1)
    g.add_argument("--gap", type=float, default=0.02, help="uniform gap (grid)")
    g.add_argument("--delta-min", type=float, default=0.01, help="min gap (random)")
    g.add_argument("--domain-radius", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="energy breakdown for one potential")
    common(a)
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("dtn", help="network dump with the DtN matrix")
    common(d, with_potential=False)
    d.set_defaults(func=cmd_dtn)

    s = sub.add_parser("sweep", help="CSV sweep of single cosine modes")
    common(s, with_potential=False)
    s.add_argument("--k-from", type=int, required=True)
    s.add_argument("--k-to", type=int, required=True)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("validate", help="compare asymptotics against the oracle")
    common(v, nargs="+")
    v.add_argument("--oracle-m", type=int, default=32, help="oracle truncation order")
    v.set_defaults(func=cmd_validate)
    return ap


# Built on first use and reused: building it costs about as much as an analysis.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite JSON result is refused as a whole
            return args.func(args)
    except (DtnError, MemoryError) as exc:  # numpy's is a subclass, reported as its base
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        json.dump({"error": kind, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
