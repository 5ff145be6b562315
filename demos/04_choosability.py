"""List coloring ground truth against coefficient certificates.

Certificates claim choosability; these oracles try to break them, either
by exhausting every list assignment from a finite universe (tiny graphs)
or by seeded random stress (anything larger).
"""

from graphpoly import (
    build_cycle,
    cartesian_product,
    coefficient_choosability_certificate,
    coloring_number,
    find_uncolorable_assignment,
    list_coloring_exists,
    random_list_stress,
)


def choosable(g, f, universe):
    return find_uncolorable_assignment(g, f, universe) is None


def choice_number(g):
    """Smallest m with every m-list assignment colorable; greedy coloring needs no sweep
    at m = coloring_number(g)."""
    col = coloring_number(g)
    return next((m for m in range(1, col) if choosable(g, [m] * g.n, None)), col)


# -- single assignments ----------------------------------------------------------
c4 = build_cycle(4)
ok, coloring = list_coloring_exists(c4, [[1, 2]] * 4)
print("C4 from identical pair lists:", coloring)

c3 = build_cycle(3)
print("triangle from identical pair lists:", list_coloring_exists(c3, [[1, 2]] * 3)[0])

# -- exhaustive choosability -------------------------------------------------------
# Even cycles are 2-choosable; odd cycles need 3.  The sweeps run over
# every assignment from a small universe (refutations are always sound;
# a universe of sum(f) colors makes confirmations exact too).
print("C4 2-choosable:", choosable(c4, [2] * 4, 4))
print("C3 2-choosable:", choosable(c3, [2] * 3, 4))
print("C3 3-choosable:", choosable(c3, [3] * 3, 6))
print("choice numbers: C3 ->", choice_number(c3), "| C4 ->", choice_number(c4))

# -- certificates vs oracles --------------------------------------------------------
cert = coefficient_choosability_certificate(c4, [2] * 4)
print("C4 certificate witness:", cert["witness_exponent"])
print("C3 with f = 2 has no certificate:",
      coefficient_choosability_certificate(c3, [2] * 3) is None)

# The classical product bound min(ch(G) + col(H), col(G) + ch(H)) - 1 for
# comparison: for C3 x C4 it gives 4, while the transfer-matrix certificate
# gives 3 (see demo 02).
print("classical product bound for C3 x C4:",
      min(3 + coloring_number(c4), coloring_number(c3) + 2) - 1)

# -- stress ---------------------------------------------------------------------------
g = cartesian_product(build_cycle(5), build_cycle(4))
report = random_list_stress(g, [3] * g.n, trials=500, seed=7)
print(f"C5 x C4 with 3-lists: {len(report['failures'])} failures "
      f"in {report['trials']} seeded trials")

report = random_list_stress(c3, [2] * 3, trials=200, seed=7)
print("triangle with 2-lists: first failing assignment:",
      report["failures"][0]["lists"] if report["failures"] else None)
