"""Exact combinatorics of graph polynomials: coefficients, Alon-Tarsi
numbers, degree-constrained orientations, and choosability certificates.

Everything is exact integer arithmetic; every bound comes with a
serializable, independently re-checkable certificate.
"""

__version__ = "0.1.0"

from .certificates import CheckResult, check_certificate, finalize_certificate
from .choosability import (
    at_certificate_exact,
    coefficient_choosability_certificate,
    find_uncolorable_assignment,
    list_coloring_exists,
    random_list_stress,
)
from .coefficients import (
    SupportMap,
    almost_central_scan,
    alon_tarsi_number_exact,
    central_exponent,
    coefficient,
    mirror_sign,
    support,
)
from .doubling import (
    ChoosabilityPlan,
    build_plan,
    cycle_cover_certificate,
    epsilon_search,
    plan_polynomial,
    plan_target_exponent,
)
from .errors import BudgetExceededError, GraphPolyError, InvariantViolationError
from .graphio import (
    from_edge_list,
    from_json_obj,
    graph_digest,
    load_graph,
    parse_graph_spec,
    save_graph,
    to_edge_list,
    to_json_obj,
)
from .graphs import (
    DIFF,
    SUM,
    SignedMultigraph,
    build_complete,
    build_cycle,
    build_cycle_power,
    build_digon,
    build_path,
    build_petersen,
    cartesian_product,
    coloring_number,
    degeneracy_order,
    double_edges,
    find_cycle_cover,
    is_bipartite,
    make_graph,
)
from .orientations import (
    Orientation,
    WindowConditionsReport,
    WindowViolation,
    acyclic_orientation,
    at_lower_bound,
    box_orientation,
    check_window_conditions,
    cycle_product_chain,
    has_odd_directed_cycle,
    odd_cycle_product_orientation,
    orientation_certificate,
    orientation_from_bitstring,
    orient_with_bounds,
    reciprocal_sum_ok,
    window_orientation,
)
from .transfer import (
    PhiMatrix,
    build_phi,
    cycle_product_graph,
    even_cycle_certificate,
    trace_power,
)
