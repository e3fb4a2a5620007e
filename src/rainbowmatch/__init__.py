"""Rainbow structures in random edge-colored instances.

The package has five layers: `model` (instances, samplers, JSON wire format),
`count` (exact rainbow perfect-matching search and counting, latin
transversals), `process` (the step-0 weight table, the edge-deletion tracer
and its flags, and the median, entropy, and interval-cover machinery),
`hamilton` (rainbow Hamilton cycles: direct search, even-order assembly from
eight matchings, contract-and-lift for odd order), and `experiments`/`cli`
(deterministic experiment drivers and the command-line front end).
"""

from .count import (
    BudgetExceededError,
    CountReport,
    count_rainbow_pm,
    expected_rainbow_count,
    find_rainbow_pm,
    latin_transversal,
    second_moment_exact,
)
from .hamilton import (
    ColoredMultigraph,
    HamiltonCycle,
    assemble_even,
    contract_color_delete,
    find_rainbow_hc,
    is_rainbow_hamilton_cycle,
    lift_cycle,
)
from .model import (
    ColoredEdge,
    ColoredHypergraph,
    Matching,
    PartiteVertex,
    RandomnessSpec,
    complete_colored,
    load_instance,
    restrict,
    sample_colored_graph,
    sample_partite_m,
    sample_partite_p,
)
from .process import (
    DeletionTrace,
    EventParams,
    dyadic_interval_cover,
    entropy,
    majority_median,
    run_deletion_process,
    weight_profile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BudgetExceededError",
    "ColoredEdge",
    "ColoredHypergraph",
    "ColoredMultigraph",
    "CountReport",
    "DeletionTrace",
    "EventParams",
    "HamiltonCycle",
    "Matching",
    "PartiteVertex",
    "RandomnessSpec",
    "assemble_even",
    "complete_colored",
    "contract_color_delete",
    "count_rainbow_pm",
    "dyadic_interval_cover",
    "entropy",
    "expected_rainbow_count",
    "find_rainbow_hc",
    "find_rainbow_pm",
    "is_rainbow_hamilton_cycle",
    "latin_transversal",
    "lift_cycle",
    "load_instance",
    "majority_median",
    "restrict",
    "run_deletion_process",
    "sample_colored_graph",
    "sample_partite_m",
    "sample_partite_p",
    "second_moment_exact",
    "weight_profile",
]
