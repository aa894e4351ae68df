"""Asymptotic DtN quadratic forms of dense 2D disk composites."""

from .asymptotics import (
    EnergyBreakdown,
    FourierPotential,
    boundary_excitation,
    reference_energy,
    regime_classify,
    regime_estimate,
    resonance_general,
    resonance_mode,
    total_energy,
    total_energy_decomposed,
)
from .geometry import (
    Disk,
    GeometryAnalysis,
    Packing,
    analyze,
    classify_boundary,
    compute_adjacency,
    load_packing,
    save_packing,
    scale_report,
    validate_packing,
)
from .network import (
    Network,
    build_network,
    dtn_matrix,
    interior_gap_energy,
    net_energy,
    solve_kirchhoff,
)
from .oracle import (
    SpectralSolution,
    cross_form_oracle,
    gap_energy_quadrature,
    max_principle_check,
    quad_form_oracle,
    solve_dirichlet,
)
from .specfun import polylog_half

__all__ = [
    "Disk",
    "EnergyBreakdown",
    "FourierPotential",
    "GeometryAnalysis",
    "Network",
    "Packing",
    "SpectralSolution",
    "analyze",
    "boundary_excitation",
    "build_network",
    "classify_boundary",
    "compute_adjacency",
    "cross_form_oracle",
    "dtn_matrix",
    "gap_energy_quadrature",
    "interior_gap_energy",
    "load_packing",
    "max_principle_check",
    "net_energy",
    "polylog_half",
    "quad_form_oracle",
    "reference_energy",
    "regime_classify",
    "regime_estimate",
    "resonance_general",
    "resonance_mode",
    "save_packing",
    "scale_report",
    "solve_dirichlet",
    "solve_kirchhoff",
    "total_energy",
    "total_energy_decomposed",
    "validate_packing",
]

__version__ = "0.1.0"
