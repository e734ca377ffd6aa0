"""Constraint-aware floorplanning for stacked-die grids.

Blocks are placed one at a time on a multi-layer cell grid.  Placement rules
(boundary terminals, abutment groups, cross-layer alignment, preplacement,
non-overlap, outline, shape bands) are compiled into per-cell masks; the
availability mask is their conjunction, so any action drawn from it satisfies
every maskable rule by construction.  Greedy, annealing and random solvers
all act through that mask.
"""

from .core import (
    ALL_RULES,
    COMMON_RULES,
    RULE_ALIGNMENT,
    RULE_BOUNDARY,
    RULE_GROUPING,
    RULE_OUTLINE,
    RULE_OVERLAP,
    RULE_PREPLACE,
    RULE_SHAPE,
    AlignmentPair,
    Block,
    BoundaryBinding,
    Circuit,
    ConstraintSet,
    FloorplanError,
    FloorplanState,
    GridDims,
    InfeasibleError,
    Net,
    Preplacement,
    TaskProfile,
    Terminal,
    default_order,
    occupancy_grid,
    shape_from_ar,
)
from .env import (
    Action,
    EpisodeSummary,
    EpisodeTrace,
    InvalidActionError,
    Observation,
    PlacementEnv,
    StepRecord,
    compute_rewards,
    episode_summary,
    wire_greedy_baseline,
)
from .masks import (
    AvailabilityResult,
    BlockDistanceRule,
    MaskStack,
    RuleMask,
    RulePlugin,
    availability_mask,
    compile_masks,
)
from .metrics import (
    MetricTuple,
    metric_snapshot,
    normalize,
    satisfaction_counts,
    total_hpwl,
    total_overlap,
)
from .solvers import (
    SAResult,
    SolveResult,
    SolverConfig,
    greedy_place,
    objective_cost,
    random_place,
    sa_place,
    solve,
)
from .bookshelf import (
    QUANTIZATION,
    ParseError,
    apportion,
    boundary_cells,
    farthest_point_subset,
    parse_circuit,
    synth_circuit,
)
from .fileio import (
    ConstraintFile,
    apply_constraints,
    circuit_from_json,
    circuit_to_json,
    gen_constraints,
    mask_csv,
    mask_pgm,
    placement_from_json,
    placement_to_json,
    state_from_placement,
    synth_instance,
)
from .render import render_svg
from .report import (
    RunRecord,
    aggregate,
    record_from_state,
    record_from_summary,
    write_report,
)

__version__ = "0.1.0"
