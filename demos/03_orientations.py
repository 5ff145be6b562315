"""Degree-constrained orientations and orientation certificates.

An orientation with no odd directed cycle pins a nonzero coefficient at
its outdegree vector, turning combinatorial constructions into coloring
bounds.  Degree-window orientations come from path reversal; the
classical two subset-counting conditions are checked independently.
"""

from fractions import Fraction

from graphpoly import (
    box_orientation,
    build_cycle,
    check_certificate,
    check_window_conditions,
    coefficient,
    cycle_product_chain,
    has_odd_directed_cycle,
    odd_cycle_product_orientation,
    orientation_certificate,
    orient_with_bounds,
)

# -- windows and the subset conditions ----------------------------------------
c4 = build_cycle(4)
ori = orient_with_bounds(c4, [1, 1, 1, 1], [1, 1, 1, 1])
print("C4 with outdegrees pinned to 1:", ori.outdegree_vector())

# A single edge cannot give both endpoints outdegree 1; the exhaustive
# subset checker names the violated counting condition.
from graphpoly import build_path

report = check_window_conditions(build_path(2), [1, 1], [2, 2])
print("single edge, lower bound 1 everywhere:",
      f"violated by W = {report.failing_subset} ({report.lhs} < {report.rhs})")

# -- boxes ----------------------------------------------------------------------
# A product of paths with side lengths k_1..k_n has an orientation with
# outdegrees in {n-1, n} exactly when sum(1/k_i) <= 1.
for ks in [(2, 2), (1, 2), (3, 3, 3), (2, 3, 6)]:
    feasible = box_orientation(ks) is not None
    print(f"box {ks}: feasible = {feasible} "
          f"(reciprocal sum {sum(Fraction(1, k) for k in ks)})")

# -- the chess construction ------------------------------------------------------
# Products of odd cycles are cut into 2^n boxes, each box gets the window
# orientation (reversed on the black boxes), and all boundary edges leave
# black boxes.  Directed cycles are then trapped inside bipartite boxes.
ori = odd_cycle_product_orientation([2, 2])  # C5 x C5
print("C5 x C5 outdegrees:", sorted(set(ori.outdegree_vector())),
      "| odd directed cycle:", has_odd_directed_cycle(ori))

cert = orientation_certificate(ori)
print("orientation certificate bound: AT(C5 x C5) <=", cert["at_bound"])
print("coefficient at the triangle construction's outdegrees:",
      coefficient(build_cycle(3),
                  odd_cycle_product_orientation([1]).outdegree_vector()))

# -- chains for products of many cycles ------------------------------------------
# One even factor upgrades the almost-central orientation witness into a
# central coefficient of the full product, which pins AT exactly.
for odd, evens in [([1], [4]), ([], [4, 4]), ([2], [4])]:
    cert = cycle_product_chain(odd, evens)
    names = [f"C{L}" for L in cert["odd_factors"] + cert["even_factors"]]
    print(" x ".join(names), "-> AT in",
          f"[{cert['at_lower']}, {cert['at_upper']}],",
          "verifies:", check_certificate(cert).ok)
