"""k-server advice-complexity laboratory."""

from .advice_tape import AdviceTape, TapeExhausted, ValueTooWide
from .metric_core import (
    DisconnectedGraph,
    DistanceMatrix,
    Graph,
    GraphError,
    NonPositiveWeight,
    SelfLoop,
    all_pairs_shortest_paths,
    graph_from_json,
    graph_to_json,
    shortest_path_vertices,
)
from .offline_solver import (
    InstanceTooLarge,
    Move,
    Schedule,
    count_optimal_schedules,
    opt_cost_dp,
    opt_cost_flow,
)
from .tree_decomp import (
    HeightReductionFault,
    NoIntersection,
    TreeDecomposition,
    gb_decomposition,
    intersect_shortest_path,
    module_graph_decomposition,
    reduce_height,
    verify_decomposition,
)
from .gpc import (
    GpcRun,
    NoServerAtAddress,
    generate_advice,
    gpc_bit_budget,
    run_online,
)
from .spanner_cover import (
    HeavyPathIndex,
    NoLabeledServerOnRootPath,
    RelayOffTreePath,
    SpannerSystem,
    SpanningTree,
    StretchClaimRejected,
    UncertifiedLeg,
    certify_min_stretch,
    certify_system,
    generate_advice_spanner,
    measure_min_stretch,
    run_online_spanner,
    shortest_path_tree,
    spanner_bit_budget,
    spanning_tree_from_parent,
    system_from_json,
)
from .adversary import (
    BadPermutation,
    InvalidSequence,
    PathTooShort,
    TauOutOfRange,
    ValidSequence,
    count_valid_sequences,
    extract_round_guesses,
    gb_graph,
    module_graph,
    path_round_sequence,
    perm_algorithm,
    perm_init,
    sgkh_advice_bound,
    treewidth_advice_bound,
    unit_graph,
    valid_sequence,
)
from .instances import (
    SplitMix64,
    grid_graph,
    path_decomposition,
    path_graph,
    random_partial_ktree,
)

__version__ = "0.1.0"
