"""Fixed-order H-infinity controller synthesis by nonsmooth optimization.

Two-stage approach: minimize the closed-loop spectral abscissa until the
loop is stable, then locally minimize the closed-loop H-infinity norm over
controllers of the chosen order, with randomized multi-start.  Both stages
run a BFGS / bundle / gradient-sampling stack built for nonsmooth,
nonconvex objectives.
"""

from .analysis import (
    AbscissaResult,
    NormResult,
    hinf_norm,
    spectral_abscissa,
)
from .bench import (
    BUILTIN_CASES,
    BenchmarkCase,
    BenchOptions,
    BenchReport,
    CaseReport,
    Reference,
    run_benchmark,
    run_suite,
)
from .errors import (
    AllStartsInfeasible,
    DimensionMismatch,
    EigenFailure,
    FixedHinfError,
    IllPosed,
    InfeasibleStart,
    LengthMismatch,
    NoStabilizingController,
    NotStabilizing,
    ParseError,
    SingularResolvent,
    UnstableSystem,
)
from .fileio import (
    load_controller,
    load_plant,
    load_statespace,
    load_system,
    save_controller,
    save_plant,
)
from .gradients import GradientReport, Smoothness, abscissa_gradient, hinf_gradient
from .optimize import (
    OptOptions,
    OptResult,
    Phase,
    bfgs_nonsmooth,
    bundle_phase,
    gradient_sampling,
    hanso,
    min_norm_convex_hull,
)
from .statespace import (
    Controller,
    Plant,
    StateSpace,
    lft_closed_loop,
    pack_controller,
    param_count,
    transfer_eval,
    unpack_controller,
)
from .synthesis import (
    RunRecord,
    SynthesisOptions,
    SynthesisResult,
    SynthesisStatus,
    certify_controller,
    optimize_performance,
    random_controller,
    stabilize,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # statespace
    "StateSpace",
    "Plant",
    "Controller",
    "lft_closed_loop",
    "transfer_eval",
    "pack_controller",
    "unpack_controller",
    "param_count",
    # analysis
    "AbscissaResult",
    "NormResult",
    "spectral_abscissa",
    "hinf_norm",
    # gradients
    "GradientReport",
    "Smoothness",
    "abscissa_gradient",
    "hinf_gradient",
    # optimize
    "OptOptions",
    "OptResult",
    "Phase",
    "bfgs_nonsmooth",
    "bundle_phase",
    "gradient_sampling",
    "hanso",
    "min_norm_convex_hull",
    # synthesis
    "SynthesisOptions",
    "SynthesisResult",
    "SynthesisStatus",
    "RunRecord",
    "random_controller",
    "stabilize",
    "optimize_performance",
    "certify_controller",
    "synthesize",
    # fileio
    "load_plant",
    "save_plant",
    "load_controller",
    "save_controller",
    "load_statespace",
    "load_system",
    # bench
    "BenchmarkCase",
    "BenchOptions",
    "BenchReport",
    "CaseReport",
    "Reference",
    "BUILTIN_CASES",
    "run_benchmark",
    "run_suite",
    # errors
    "FixedHinfError",
    "DimensionMismatch",
    "LengthMismatch",
    "IllPosed",
    "SingularResolvent",
    "EigenFailure",
    "UnstableSystem",
    "InfeasibleStart",
    "AllStartsInfeasible",
    "NotStabilizing",
    "NoStabilizingController",
    "ParseError",
]
