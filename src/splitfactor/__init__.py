"""splitfactor: 2-switch factor multigraphs of split graphs.

Construct the factor multigraph of a split graph, enumerate and apply
2-switches, machine-check the structural laws the factor graph obeys
(induced-path degree/neighborhood chains, cycle length bound, terminal
position of simple edges, the diameter bound), and build the extremal
family that attains the bound.
"""

from .corpus import (
    CorpusSpec,
    corpus_size,
    generate,
    instance,
    instance_id,
    splitmix64,
)
from .extremal import (
    EXTREMAL_CHECK_NAMES,
    ExtremalInstance,
    build_extremal,
    expected_multiplicities,
    verify_extremal,
)
from .factor import (
    FactorGraph,
    build_by_enumeration,
    build_by_formula,
    format_multiplicity_listing,
    to_dot,
)
from .graph import (
    GraphError,
    ParseError,
    SplitGraph,
    format_split_text,
    parse_edge_list,
    parse_split_text,
    recognize_split,
)
from .switches import TwoSwitch, apply_two_switch, enumerate_two_switches
from .verify import (
    CHECK_NAMES,
    CheckResult,
    SweepSummary,
    VerificationReport,
    check_cycle_bound,
    check_diameter_bound,
    check_paths,
    enumerate_induced_cycles,
    enumerate_induced_paths,
    is_induced_cycle,
    is_induced_path,
    sweep,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "CorpusSpec",
    "EXTREMAL_CHECK_NAMES",
    "ExtremalInstance",
    "FactorGraph",
    "GraphError",
    "ParseError",
    "SplitGraph",
    "SweepSummary",
    "TwoSwitch",
    "VerificationReport",
    "apply_two_switch",
    "build_by_enumeration",
    "build_by_formula",
    "build_extremal",
    "check_cycle_bound",
    "check_diameter_bound",
    "check_paths",
    "corpus_size",
    "enumerate_induced_cycles",
    "enumerate_induced_paths",
    "enumerate_two_switches",
    "expected_multiplicities",
    "format_multiplicity_listing",
    "format_split_text",
    "generate",
    "instance",
    "instance_id",
    "is_induced_cycle",
    "is_induced_path",
    "parse_edge_list",
    "parse_split_text",
    "recognize_split",
    "splitmix64",
    "sweep",
    "to_dot",
    "verify_all",
    "verify_extremal",
    "__version__",
]
