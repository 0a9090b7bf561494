"""Falsification of dynamical systems against STL specifications using
pulse-train input generators."""

from .signals import (
    InputRange,
    PhysicalPulse,
    PulseParams,
    Signal,
    denormalize,
    synthesize_pulse,
)
from .stl import (
    Formula,
    ParseError,
    horizon_of,
    parse,
    robustness,
)
from .systems import (
    Benchmark,
    ModelSpec,
    SimulationError,
    builtin_benchmark,
    builtin_benchmark_names,
    load_benchmark,
    load_benchmark_file,
    simulate,
)
from .optimizers import (
    EvalRecord,
    OptimizationResult,
    OptimizerConfig,
    fit_surrogate,
    latin_hypercube,
    random_search,
    turbo_lite_minimize,
)
from .falsification import (
    FalsificationOutcome,
    FreeMask,
    ParamSpace,
    PulseParam,
    Witness,
    build_param_space,
    decode,
    evaluate_witness,
    falsify,
)
from .harness import (
    AggregateRow,
    CoverageSummary,
    ExperimentConfig,
    RunRecord,
    SWEEP_MASK_LABELS,
    aggregate,
    cactus_data,
    combination_coverage,
    run_experiment,
    write_csvs,
)

__version__ = "0.1.0"
