"""Subset-indexed transfer matrices for products with even cycles.

For a (generalized) graph polynomial Q with all degrees even, let
a_i = deg(v_i)/2.  The transfer matrix is indexed by vertex subsets S, T
and holds

    Phi(S, T) = (-1)^|S| * [x^(a + 1_T - 1_S)] Q,

so every entry is an almost-central coefficient of Q.  Phi is block
diagonal by subset size (Q is homogeneous) and symmetric or
skew-symmetric depending on the parity of the number of DIFF factors.
The trace of Phi^k (k even) equals, up to a factor-ordering sign, the
central coefficient of the polynomial of Q's graph producted with the
k-cycle; nonzero entries therefore certify nonzero central coefficients
for every even cycle length at once.

Traces are exact.  Each block is raised to the power k/2 in float64 BLAS
modulo word-size primes p with dim * ((p-1)/2)^2 < 2^53: on symmetric
residues every partial sum of a product is an integer below 2^53, so no
rounding occurs.  The block trace is reassembled by the CRT over enough
primes that their product exceeds 2 * ||B||_F^k, which bounds |tr B^k|,
and is checked against one spare prime.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .coefficients import (
    ExponentVector,
    SupportMap,
    almost_central_scan,
    central_exponent,
    mirror_sign,
)
from .errors import GraphPolyError, InvariantViolationError
from .graphs import SignedMultigraph, build_cycle, build_digon, cartesian_product
from .limits import SUBSET_VERTEX_CAP

SparseBlock = list[dict[int, int]]  # row index -> {col index: value}


@dataclass
class PhiMatrix:
    """Block-diagonal transfer matrix of a generalized graph polynomial.

    blocks[s] is the sparse matrix restricted to subsets of size s, with
    subsets enumerated in itertools.combinations order (subsets[s] lists
    the bitmasks; index[s] maps a bitmask back to its row).  sigma is +1
    when the matrix is symmetric and -1 when skew-symmetric.
    """

    graph: SignedMultigraph
    n: int
    a: ExponentVector
    sigma: int
    blocks: dict[int, SparseBlock]
    subsets: dict[int, list[int]]
    index: dict[int, dict[int, int]]
    scan: SupportMap

    def entry(self, s_mask: int, t_mask: int) -> int:
        s_size = bin(s_mask).count("1")
        if s_size != bin(t_mask).count("1"):
            return 0
        idx = self.index[s_size]
        return self.blocks[s_size][idx[s_mask]].get(idx[t_mask], 0)

    def nnz(self) -> int:
        return sum(len(row) for rows in self.blocks.values() for row in rows)

    def is_zero(self) -> bool:
        return self.nnz() == 0

    def block_nnz(self) -> dict[int, int]:
        return {s: sum(len(r) for r in rows) for s, rows in self.blocks.items()}


def build_phi(q: SignedMultigraph, *, budget: Optional[int] = None) -> PhiMatrix:
    """Construct the transfer matrix of q (all degrees must be even).

    One windowed support scan supplies every entry: the exponent
    a + 1_T - 1_S determines S \\ T, T \\ S and leaves S intersect T free,
    so each scanned coefficient fans out over the subsets of its
    half-degree positions.  Graphs on more than SUBSET_VERTEX_CAP
    vertices are refused.
    """
    if q.n > SUBSET_VERTEX_CAP:
        raise GraphPolyError(
            f"transfer matrix on {q.n} vertices refused (cap {SUBSET_VERTEX_CAP}); "
            f"the subset index would have 2^{q.n} entries"
        )
    a = central_exponent(q)  # also validates even degrees
    n = q.n
    scan = almost_central_scan(q, budget=budget)

    subsets: dict[int, list[int]] = {}
    index: dict[int, dict[int, int]] = {}
    blocks: dict[int, SparseBlock] = {}
    for s in range(n + 1):
        masks = []
        for comb in itertools.combinations(range(n), s):
            m = 0
            for i in comb:
                m |= 1 << i
            masks.append(m)
        subsets[s] = masks
        index[s] = {m: i for i, m in enumerate(masks)}
        blocks[s] = [dict() for _ in masks]

    for xi, c in scan.entries.items():
        s0 = 0
        t0 = 0
        free = []
        for i in range(n):
            d = xi[i] - a[i]
            if d == -1:
                s0 |= 1 << i
            elif d == 1:
                t0 |= 1 << i
            else:
                free.append(i)
        base = bin(s0).count("1")
        for r in range(len(free) + 1):
            for comb in itertools.combinations(free, r):
                x = 0
                for i in comb:
                    x |= 1 << i
                s_mask = s0 | x
                t_mask = t0 | x
                size = base + r
                val = -c if size % 2 else c
                blocks[size][index[size][s_mask]][index[size][t_mask]] = val

    return PhiMatrix(
        graph=q,
        n=n,
        a=a,
        sigma=mirror_sign(q),
        blocks=blocks,
        subsets=subsets,
        index=index,
        scan=scan,
    )


# ---------------------------------------------------------------------------
# exact traces: float64 BLAS modulo word-size primes, then the CRT
# ---------------------------------------------------------------------------

# Below 2^53 every integer is a float64, so a product whose partial sums
# all stay below it is exact whatever order BLAS sums in.
_FLOAT_EXACT = 2**53

# dimension bit length -> primes found so far, largest first
_PRIMES: dict[int, list[int]] = {}


def _word_primes(dim: int) -> Iterator[int]:
    """Odd primes p, largest first, with dim * ((p-1)/2)^2 < 2^53.

    Found on first use by trial division and cached per bit length of dim.
    """
    bits = dim.bit_length()
    found = _PRIMES.setdefault(bits, [])
    for i in itertools.count():
        if i == len(found):
            # dim < 2^bits, so every half-width up to this one qualifies
            p = found[-1] - 2 if found else 2 * math.isqrt((_FLOAT_EXACT - 1) >> bits) + 1
            while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
                p -= 2
            found.append(p)
        yield found[i]


def _sym_mod(m: np.ndarray, p: int) -> np.ndarray:
    """Entries of m (integers below 2^53) reduced into [-(p-1)/2, (p-1)/2]."""
    # the float quotient errs by less than 1/p, so r lands within one of the range
    r = m - p * np.rint(m / p)
    r[r > p // 2] -= p
    r[r < -(p // 2)] += p
    return r


def _trace_square_power_mod(a: np.ndarray, half: int, p: int) -> int:
    """tr((a^half)^2) mod p by square-and-multiply, reducing after each product."""
    result: Optional[np.ndarray] = None
    while True:
        if half & 1:
            result = a if result is None else _sym_mod(result @ a, p)
        half >>= 1
        if not half:
            break
        a = _sym_mod(a @ a, p)
    # tr(A A) = sum_ij A_ij A_ji; each row sum of A o A^T has dim terms of
    # size at most ((p-1)/2)^2, so it is exact with no (skew-)symmetry assumed
    return int(_sym_mod((result * result.T).sum(axis=1), p).sum()) % p


def _block_trace(rows: SparseBlock, half: int) -> int:
    """Exact tr(B^(2 half)) of one block B.

    |tr B^(2h)| <= ||B^h||_F^2 <= ||B||_F^(2h) by Cauchy-Schwarz and
    submultiplicativity, so residues modulo primes whose product exceeds
    twice that bound fix the trace by the CRT.  One spare prime that the
    reconstruction did not use checks the result.
    """
    dim = len(rows)
    values = list(itertools.chain.from_iterable(row.values() for row in rows))
    if not values:
        return 0
    cols = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp, count=len(values))
    flat = np.repeat(np.arange(dim) * dim, list(map(len, rows))) + cols
    exact = np.array(values, dtype=object)  # Python ints, never cast before reduction
    bound = 2 * sum(map(operator.mul, values, values)) ** half

    residues: list[tuple[int, int]] = []
    modulus = 1
    for p in _word_primes(dim):
        if dim * ((p - 1) // 2) ** 2 >= _FLOAT_EXACT:
            raise InvariantViolationError(
                f"prime {p} on a {dim}x{dim} block breaks the 2^53 exactness bound"
            )
        a = np.zeros(dim * dim)
        a[flat] = (exact % p).astype(np.float64)
        residues.append((p, _trace_square_power_mod(_sym_mod(a.reshape(dim, dim), p), half, p)))
        if modulus > bound:  # p was the spare
            break
        modulus *= p

    spare, spare_residue = residues.pop()
    total = sum(r * (modulus // p) * pow(modulus // p, -1, p) for p, r in residues) % modulus
    if total > modulus // 2:
        total -= modulus
    if total % spare != spare_residue:
        raise InvariantViolationError(
            f"CRT trace {total} disagrees with its residue modulo the spare prime {spare}"
        )
    return total


def trace_power(phi: PhiMatrix, k: int) -> int:
    """Exact trace of Phi^k for even k >= 2.

    Phi is block diagonal, so this is the sum of the block traces
    tr((B^(k/2))^2), each computed on float64 BLAS modulo primes p with
    dim * ((p-1)/2)^2 < 2^53 and reassembled by the CRT over primes whose
    product exceeds 2 * ||B||_F^k (see _block_trace).
    """
    if k < 2 or k % 2:
        raise ValueError(f"trace exponent must be an even integer >= 2, got {k}")
    return sum(_block_trace(rows, k // 2) for rows in phi.blocks.values())


def nonzero_trace(phi: PhiMatrix, k: int) -> int:
    """tr(Phi^k) for a prover step that needs it nonzero.

    A nonzero (skew-)symmetric Phi is not nilpotent, so for even k the
    trace is +-||Phi^(k/2)||_F^2 != 0; a zero trace from a nonzero Phi is
    an engine bug and raises.
    """
    tr = trace_power(phi, k)
    if tr == 0:
        raise InvariantViolationError("nonzero almost-central window but zero trace; engine bug")
    return tr


def product_central_via_trace(
    q: SignedMultigraph, k: int, *, budget: Optional[int] = None
) -> int:
    """tr(Phi^k); its absolute value is the central coefficient magnitude
    of the polynomial of (q's graph) producted with the k-cycle.

    The sign may differ from the canonical convention of the product graph
    (factor ordering across the cycle seam), so equality claims across
    engines are on absolute values.
    """
    return trace_power(build_phi(q, budget=budget), k)


def cycle_product_graph(q: SignedMultigraph, k: int) -> SignedMultigraph:
    """The product of q's graph with the k-cycle used by direct oracles.

    k = 2 is the digon (two parallel rungs between the two copies); k >= 3
    is the simple cycle.  Defined for DIFF-only q.
    """
    if k == 2:
        return cartesian_product(q, build_digon())
    return cartesian_product(q, build_cycle(k))


def even_cycle_certificate(
    q: SignedMultigraph, k: int, *, budget: Optional[int] = None
) -> Optional[dict]:
    """Certificate that AT(G x C_k) <= max_degree(G)/2 + 2 for even k.

    Needs all degrees of q even and a nonzero almost-central coefficient;
    the (skew-)symmetry of the transfer matrix then makes tr(Phi^k)
    nonzero for every even k, and the central coefficient of the product
    inherits it.  Returns None when the almost-central window is empty
    (that is not a disproof of choosability, just no certificate by this
    route).
    """
    from .certificates import encode_int, finalize_certificate
    from .graphio import graph_digest, to_json_obj

    if k < 2 or k % 2:
        raise ValueError(f"cycle length must be an even integer >= 2, got {k}")
    phi = build_phi(q, budget=budget)
    witness = phi.scan.witness()
    if witness is None:
        return None
    cert = {
        "kind": "trace",
        "graph": to_json_obj(q),
        "graph_digest": graph_digest(q),
        "k": k,
        "witness_exponent": list(witness),
        "witness_value": encode_int(phi.scan.entries[witness]),
        "trace_value": encode_int(nonzero_trace(phi, k)),
        "at_bound": q.max_degree() // 2 + 2,
    }
    return finalize_certificate(cert)
