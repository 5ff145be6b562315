"""Graph polynomials and exact coefficient extraction.

The polynomial of a graph is the product over edges of (x_v - x_u) with
u < v.  Its monomials encode colorings: a nonzero coefficient at an
exponent vector d means any color lists of sizes d + 1 admit a proper
coloring.  This script walks through the basic machinery.
"""

from graphpoly import (
    almost_central_scan,
    alon_tarsi_number_exact,
    build_complete,
    build_cycle,
    coefficient,
    support,
)

# -- a single factor ---------------------------------------------------------
# The triangle polynomial is (x2 - x1)(x3 - x2)(x3 - x1).
c3 = build_cycle(3)
print("triangle edges:", c3.edges)

# The x1 x2 x3 term cancels: both expansions of it carry opposite signs.
print("[x1 x2 x3] =", coefficient(c3, (1, 1, 1)))

# Every other monomial of total degree 3 survives with coefficient +-1.
print("full support of the triangle:")
for expo, value in support(c3, c3.degree_vector()).sorted_items():
    print("   ", expo, "->", value)

# -- two independent engines -------------------------------------------------
# "both" runs the frontier DP and the direct enumeration and insists they
# agree; use it whenever a value matters.
print("[x^({2,1,0})] via both engines:", coefficient(c3, (2, 1, 0), method="both"))

# -- Alon-Tarsi numbers ------------------------------------------------------
# AT(G) = 1 + min over the support of the maximum exponent.  Even cycles
# have a nonzero central coefficient, so their AT is 2; odd cycles need 3.
for n in (3, 4, 5, 6):
    value, witness, _ = alon_tarsi_number_exact(build_cycle(n))
    print(f"AT(C{n}) = {value}, witness {witness}")

# Complete graphs are Vandermonde products: the support is exactly the
# permutations of (0, 1, ..., n-1), so AT(K_n) = n.
print("AT(K5) =", alon_tarsi_number_exact(build_complete(5))[0])

# -- almost-central windows --------------------------------------------------
# The window |xi_i - deg_i / 2| <= 1 is what the even-cycle product
# machinery consumes (see demo 02).  For the triangle it is the whole
# support; for K5 it is empty, which is exactly why no transfer-matrix
# certificate exists for K5.
print("triangle window size:", len(almost_central_scan(c3)))
print("K5 window size:", len(almost_central_scan(build_complete(5))))
