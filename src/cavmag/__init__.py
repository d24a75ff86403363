"""Coupled-mode model, field sweeps and fits for stripline-driven
magnon-photon hybrid systems."""

from .core import (
    PERMALLOY,
    YIG,
    HybridSystem,
    KittelMaterial,
    ModeSpec,
    build_coupling_hamiltonian,
    canonical_three_mode,
    eigenbranches,
    field_for_frequency,
    kittel_frequency,
    kittel_slope,
    lambda_to_beta,
    s21,
    stripline_vector,
)
from .errors import (
    CavmagError,
    ConfigError,
    DataFormatError,
    DegenerateData,
    DegenerateProblem,
    EigenFailure,
    InvalidSystem,
    NegativeCoupling,
    NegativeField,
    NegativeFrequency,
    NoMinimum,
    SingularResponse,
    WindowTooNarrow,
)
from .fitting import (
    FitProblem,
    FitResult,
    FreeParameter,
    LinearFit,
    RidgeSet,
    extract_ridges,
    fit_branches,
    fit_map,
    linear_regression,
)
from .sweep import (
    AnticrossingReport,
    BranchCurves,
    SpectrumMap,
    SystemTemplate,
    TemplateMagnon,
    ThicknessSeries,
    anticrossing_gap,
    compute_branches,
    compute_map,
    crossing_field,
    crossing_window,
    gap_at_crossing,
    instantiate,
    thickness_sweep,
)
from .synth import (
    NoiseSpec,
    PassivityReport,
    passivity_check,
    synth_map,
)

__version__ = "0.1.0"

__all__ = [
    "AnticrossingReport", "BranchCurves", "CavmagError", "ConfigError",
    "DataFormatError", "DegenerateData", "DegenerateProblem", "EigenFailure",
    "FitProblem", "FitResult", "FreeParameter", "HybridSystem",
    "InvalidSystem", "KittelMaterial", "LinearFit", "ModeSpec",
    "NegativeCoupling", "NegativeField", "NegativeFrequency", "NoMinimum",
    "NoiseSpec", "PERMALLOY", "PassivityReport", "RidgeSet", "SingularResponse",
    "SpectrumMap", "SystemTemplate", "TemplateMagnon", "ThicknessSeries",
    "WindowTooNarrow", "YIG", "anticrossing_gap",
    "build_coupling_hamiltonian", "canonical_three_mode", "compute_branches",
    "compute_map", "crossing_field", "crossing_window", "eigenbranches",
    "extract_ridges", "field_for_frequency", "fit_branches", "fit_map",
    "gap_at_crossing", "instantiate", "kittel_frequency", "kittel_slope",
    "lambda_to_beta", "linear_regression", "passivity_check", "s21",
    "stripline_vector", "synth_map", "thickness_sweep",
]
