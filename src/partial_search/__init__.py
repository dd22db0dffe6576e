"""Exact subspace dynamics, exhaustive sequence optimization, analytic
bounds, and parallel cost models for quantum partial search."""

from .bounds import (
    BoundConstants,
    GrkParameters,
    MinExpectedRecord,
    PrBoundRecord,
    bound_constants,
    grk_optimal_parameters,
    min_expected_sweep,
    pr_bound_comparison,
    pr_max_bound,
)
from .dynamics import (
    Kind,
    OperatorSequence,
    State3,
    apply_sequence,
    block_success_probability,
    global_grover_matrix,
    grover_full_search_probability,
    initial_state,
    local_grover_matrix,
)
from .enumeration import (
    EnumerationResult,
    TableRow,
    enumerate_max_probability,
    is_grk_form,
    render_fixed,
    render_percent,
    table_sweep,
)
from .errors import (
    ConstraintError,
    NumericalError,
    ParameterError,
    PartialSearchError,
    ResourceLimitError,
)
from .parallel import (
    SchemeResult,
    SkippedScheme,
    compare_schemes,
    grk_parallel_expected,
    grk_parallel_min,
    hybrid_expected,
    hybrid_min,
    inner_min,
    outer_expected,
    outer_min,
    space_for_parallelism,
)
from .space import Angles, SearchSpace, angles, new_search_space
from .statevec import (
    FullState,
    apply_global_diffusion,
    apply_local_diffusion,
    apply_oracle,
    simulate_sequence,
    verify_subspace,
)

__version__ = "0.1.0"
