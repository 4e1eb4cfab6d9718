"""Max-leaf spanning tree toolkit."""

__version__ = "0.1.0"
FORMAT_VERSION = "1"

from .graphs import (  # noqa: F401
    Graph,
    GraphError,
    ParseError,
    RangeError,
    SEdge,
    SuppressedGraph,
    connected_components,
    is_connected,
    parse_graph,
    suppress,
    to_dot,
    write_graph,
)
from .patterns import (  # noqa: F401
    InvariantReport,
    PatternMatch,
    check_invariant,
    find_2blossoms,
    find_2necklaces,
    find_2terminal,
    find_cubic_diamonds,
)
from .reductions import (  # noqa: F401
    InadmissibleError,
    ReconstructionError,
    ReductionStep,
    RuleMatch,
    admissible,
    apply_rule,
    find_matches,
    fpt_preprocess,
    reconstruct_chain,
    reconstruct_tree,
    reduce_to_irreducible,
)
from .potential import (  # noqa: F401
    PotentialReport,
    expand,
    greedy_spanning_tree,
    leaf_potential,
    try_augment,
)
from .solver import (  # noqa: F401
    CapacityError,
    Verdict,
    achievable_leaves,
    exact_max_leaves,
    forced_leaf_feasible,
    fpt_decide,
)
from .generators import (  # noqa: F401
    FamilySpec,
    GeneratorError,
    generate,
    random_invariant_graph,
)
