"""Multigraph pipelines: edge doubling, cycle covers, and sign searches.

Doubling every edge squares the polynomial and its central coefficient
becomes a same-sign sum of squares, hence nonzero.  Two refinements make
this useful: doubling only the edges missed by a cycle cover keeps the
maximum degree down, and appending sign-searched (x_a +- x_b) factors
handles arbitrary graphs with per-vertex list-size targets.
"""

from graphpoly import (
    build_complete,
    build_cycle,
    build_path,
    build_petersen,
    build_plan,
    central_exponent,
    check_certificate,
    coefficient,
    cycle_cover_certificate,
    double_edges,
    epsilon_search,
)


def doubled_central(g):
    doubled = double_edges(g)
    return coefficient(doubled, central_exponent(doubled))


# -- the sum-of-squares law -----------------------------------------------------
# (x2 - x1)^2 has central coefficient -2 = -(1^2 + 1^2).
print("doubled single edge:", doubled_central(build_path(2)))
# The triangle's six unit coefficients give magnitude 6.
print("doubled triangle:", doubled_central(build_cycle(3)))

# -- cover and double -------------------------------------------------------------
# K4: a Hamiltonian 4-cycle covers everything, the two chords get doubled,
# and the 4-regular result has a nonzero almost-central coefficient, so
# AT(K4 x C_even) <= 4.  Matching the lower bound ch(K4) = 4 pins it.
cert = cycle_cover_certificate(build_complete(4))
print("K4 cover:", cert["cover_cycles"], "-> bound", cert["at_bound"])

# The Petersen graph has a 2-factor (two disjoint 5-cycles), so the same
# pipeline certifies AT(Petersen x C_even) <= 4.
cert = cycle_cover_certificate(build_petersen())
print("Petersen cover:", cert["cover_cycles"], "-> bound", cert["at_bound"],
      "| verifies:", check_certificate(cert).ok)

# -- plans and the sign search -----------------------------------------------------
# A plan classifies vertices by how far a chosen support exponent tau sits
# from half the degree, pairs the surplus against the deficit, and searches
# signs for the extra factors until the target coefficient survives.
plan = build_plan(build_cycle(3), (2, 1, 0))
print("triangle plan: no pairs needed, f =", plan.f)
print("  sign search:", epsilon_search(plan)["witness_value"])

plan = build_plan(build_path(2), (1, 0))
cert = epsilon_search(plan)
print("single edge plan: pairs", plan.pairing, "f =", plan.f,
      "| winning signs:", repr(cert["epsilon"]))

# K4 with the Vandermonde exponent (0,1,2,3): two pairs, uniform lists of
# size 4, matching the exact value of AT(K4 x C_even).
plan = build_plan(build_complete(4), (0, 1, 2, 3))
cert = epsilon_search(plan)
print("K4 plan: m =", plan.m, "f =", plan.f, "| signs", repr(cert["epsilon"]),
      "| verifies:", check_certificate(cert).ok)
