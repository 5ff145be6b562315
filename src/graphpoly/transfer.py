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

Phi is held as its scan: a dense block is one gather from a table of 3^n
scan rows by ternary exponent code, and a coefficient with b places at
a_i - 1 and f at a_i fills C(f, s - b) places of block s.  By the mirror
law c(2a - xi) = sigma c(xi), checked on the scan, block n - s is (-1)^n
sigma J B_s J (J reverses the ranks): only blocks with 2s <= n are powered.
Traces are exact.  Each block is raised to the power k/2 once, in float64
BLAS on its integer entries: a product whose partial sums stay below 2^53
is exact, and before every product that bound is checked on the maxima of
the actual operands.  Only from the first product that would break it on
are the matrices held so far reduced modulo word-size primes p with
dim * ((p-1)/2)^2 < 2^53, where symmetric residues keep every partial sum
below 2^53, and the rest of the chain runs once per prime.  Such a block
trace is reassembled by the CRT over enough primes that their product
exceeds 2 * ||B||_F^k, which bounds |tr B^k|, and is checked against one
spare prime; a chain that stays exact draws no prime.  The budget is
charged before any product.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .certificates import encode_int, finalize_certificate
from .coefficients import (
    ExponentVector,
    SupportMap,
    almost_central_scan,
    central_exponent,
    mirror_sign,
)
from .errors import BudgetExceededError, GraphPolyError, InvariantViolationError
from .graphio import graph_digest, to_json_obj
from .graphs import SignedMultigraph, build_cycle, build_digon, cartesian_product
from .limits import DEFAULT_BUDGET, DENSE_BLOCK_DIM_CAP, SUBSET_VERTEX_CAP

_SIZES = range(SUBSET_VERTEX_CAP + 1)
_COMB = np.array([[math.comb(f, r) for r in _SIZES] + [0] * len(_SIZES) for f in _SIZES])


@dataclass(frozen=True)
class Block:
    """The block of Phi on the subsets of size s, ranked in increasing order of their bitmasks.
    len() is the dimension and iteration yields the nonzero count, so any() tells a nonzero
    block; dense() builds the entries, in the scan coefficients' dtype (int64 or Python ints)."""

    phi: PhiMatrix = field(repr=False)
    s: int
    nnz: int

    def __len__(self) -> int:
        return math.comb(self.phi.n, self.s)

    def __iter__(self) -> Iterator[int]:
        return iter((self.nnz,))

    def dense(self) -> np.ndarray:
        return self.phi.gather(self.s, np.concatenate(([0], (-1) ** self.s * self.phi.scan.coef)))


@dataclass(eq=False)
class PhiMatrix:
    """Block-diagonal transfer matrix of a generalized graph polynomial, held as its scan: row e
    has exponent code[e] = sum_i 3^i (xi_i - a_i + 1), base[e] places with xi_i = a_i - 1 and
    free[e] with xi_i = a_i.  sigma is +1 when symmetric and -1 when skew-symmetric."""

    n: int
    a: ExponentVector
    sigma: int
    scan: SupportMap
    code: np.ndarray
    base: np.ndarray
    free: np.ndarray

    def counts(self, s: int) -> np.ndarray:
        """The places each scan row fills in block s: C(free, s - base), which is zero for
        s - base > free and, wrapping into _COMB's zero half, for s - base < 0."""
        return _COMB[self.free, s - self.base]

    @property
    def blocks(self) -> dict[int, Block]:  # not cached: a Block refers back to phi
        return {s: Block(self, s, int(self.counts(s).sum())) for s in range(self.n + 1)}

    def nnz(self) -> int:
        return sum(self.block_nnz().values())

    def block_nnz(self) -> dict[int, int]:
        return {s: b.nnz for s, b in self.blocks.items()}

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """1 + the scan row at each of the 3^n codes, 0 where none has it; within the dense cap."""
        check_trace_request(self.n, 2)
        table = np.zeros(3**self.n, np.int32)
        table[self.code] = np.arange(1, self.code.size + 1, dtype=np.int32)
        return table

    def gather(self, s: int, ext: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Block s with ext[1 + e] at the places of scan row e and ext[0] elsewhere, written
        into out (dense, ext's dtype) a few rows at a time.  Place (S, T) holds the exponent
        a + 1_T - 1_S, of code c0 + P(T) - P(S) with P(X) = sum_{i in X} 3^i."""
        masks = np.flatnonzero(np.bitwise_count(np.arange(1 << self.n)) == s)
        p = (masks[:, None] >> np.arange(self.n) & 1) @ 3 ** np.arange(self.n)
        out = np.empty((p.size, p.size), ext.dtype) if out is None else out
        c0, step = (3**self.n - 1) // 2, max(1, 2**18 // p.size)  # step bounds the index temporaries
        for i in range(0, p.size, step):
            np.take(ext, self._rows[c0 - p[i:i + step, None] + p], out=out[i:i + step], mode="clip")
        return out


def build_phi(q: SignedMultigraph, *, budget: Optional[int] = None) -> PhiMatrix:
    """Construct the transfer matrix of q (all degrees must be even).

    One windowed support scan supplies every entry: the exponent
    a + 1_T - 1_S fixes S \\ T, T \\ S and leaves S intersect T free.  Each
    scanned exponent's ternary code and its counts of places at a_i - 1
    and at a_i are read from the scan's key fields; no block is built.
    Over SUBSET_VERTEX_CAP vertices, q is refused.
    """
    if q.n > SUBSET_VERTEX_CAP:
        raise GraphPolyError(
            f"transfer matrix on {q.n} vertices refused (cap {SUBSET_VERTEX_CAP}); "
            f"the subset index would have 2^{q.n} entries"
        )
    a = central_exponent(q)  # also validates even degrees
    n, sigma = q.n, mirror_sign(q)
    scan = almost_central_scan(q, budget=budget)
    keys, values = scan.keys, scan.coef

    # digit i of a code is xi_i - a_i + 1: 0 on S \ T, 2 on T \ S, 1 on the free places
    code, base, free = (np.zeros(len(scan), np.int64) for _ in range(3))
    for lo in range(0, len(scan), 65536):  # bounds the column temporaries
        part = slice(lo, lo + 65536)
        for i in range(n):
            x = scan.column(i, keys[part])
            digit = (x >= a[i]).astype(np.int64) + (x > a[i])
            code[part] += digit * 3**i
            base[part] += digit == 0
            free[part] += digit == 1

    # xi -> 2a - xi takes each field c to 2a_i - c >= 0, so a key to centre - key with no
    # borrow (centre < 2^(key bits + 1) fits the keys' dtype): the mirror law holds iff the
    # keys read backwards are centre - keys, with sigma times the coefficients
    centre = sum(2 * x << sh for x, sh, fixed in zip(a, scan.shift, scan.fixed) if fixed is None)
    if np.any(keys[::-1] != centre - keys) or np.any(values[::-1] != sigma * values):
        raise InvariantViolationError("scan breaks the mirror law c(2a - xi) = sigma c(xi)")
    return PhiMatrix(n=n, a=a, sigma=sigma, scan=scan, code=code, base=base, free=free)


# ---------------------------------------------------------------------------
# exact traces: float64 BLAS on the integers while every product stays below
# 2^53, then modulo word-size primes and the CRT
# ---------------------------------------------------------------------------

# Below 2^53 every integer is a float64, so a product whose partial sums
# all stay below it is exact whatever order BLAS sums in.
_FLOAT_EXACT = 2**53

# dimension bit length -> primes found so far, largest first
_PRIMES: dict[int, list[int]] = {}

# odd numbers one sieve pass covers: some 1,800 primes near 2^25
_SIEVE_SPAN = 1 << 14


def _word_primes(dim: int) -> Iterator[int]:
    """Odd primes p, largest first, with dim * ((p-1)/2)^2 < 2^53.

    Found on first use by a sieve over _SIEVE_SPAN odd numbers at a time,
    and cached per bit length of dim.
    """
    bits = dim.bit_length()
    found = _PRIMES.setdefault(bits, [])
    for i in itertools.count():
        if i == len(found):
            # dim < 2^bits, so every half-width up to this one qualifies
            top = found[-1] - 2 if found else 2 * math.isqrt((_FLOAT_EXACT - 1) >> bits) + 1
            lo = top - 2 * (_SIEVE_SPAN - 1)  # far above sqrt(top)
            prime = np.ones(_SIEVE_SPAN, dtype=bool)  # prime[j] stands for lo + 2j
            for q in range(3, math.isqrt(top) + 1, 2):
                prime[-lo * (q + 1) // 2 % q::q] = False  # lo + 2j = 0 mod q at j = -lo/2 mod q
            found.extend((lo + 2 * np.flatnonzero(prime)[::-1]).tolist())
        yield found[i]


def _sym_mod(m: np.ndarray, p: int, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Entries of m (integers below 2^53) reduced in place into [-(p-1)/2, (p-1)/2]."""
    # the float quotient errs by less than 1/p, so truncated it never passes m/p in size:
    # q * p is exact and leaves m within p of zero, where the rounded quotient is exact
    for to_int in (np.trunc, np.rint):
        q = to_int(np.divide(m, p, out=scratch), out=scratch)
        m -= np.multiply(q, p, out=q)
    return m


def _peak(m: np.ndarray) -> int:
    """max |m_ij|, read with no temporary."""
    return int(max(m.max(), -m.min()))


def _chain(
    a: np.ndarray, r: np.ndarray, steps: str, p: Optional[int] = None
) -> tuple[str, np.ndarray | int]:
    """Run steps on float64 integer matrices: "s" squares r, "m" multiplies
    it by a, and "t", the last, takes tr(r r) = sum_ij r_ij r_ji (no
    (skew-)symmetry assumed).

    A step on operands x, y sums at most dim terms of size at most
    max|x| * max|y|, so it is exact while dim * max|x| * max|y| < 2^53.
    Without p, that is checked on the actual operands before each step: the
    run returns the steps left and r, unreduced, at the first step that
    breaks it, else ("", the exact trace).  With p, a holds symmetric
    residues and r is a or exact below 2^53 (reduced into a copy), the
    residues keep to the bound by the choice of p, and ("", the trace
    modulo p) is returned.  a and r are never written: the products and
    reductions take turns in one spare buffer.
    """
    dim = len(a)
    top_a, top_r = (_peak(a), _peak(r)) if p is None else (0, 0)
    spare = np.empty_like(a)  # its pages are touched only when it is used
    if p is not None and r is not a:
        r = _sym_mod(r.copy(), p, spare)
    for i, step in enumerate(steps):
        y, top_y = (a, top_a) if step == "m" else (r, top_r)
        if p is None and dim * top_r * top_y >= _FLOAT_EXACT:
            return steps[i:], r
        if step == "t":
            break
        product = np.matmul(r, y, out=spare)
        spare = np.empty_like(a) if r is a else r
        r = product if p is None else _sym_mod(product, p, spare)
        top_r = _peak(r) if p is None else 0
    rows = np.einsum("ij,ji->i", r, r)  # the row sums of r o r^T, with no dense temporary
    if p is None:  # each row sum is below 2^53, their total need not be
        return "", sum(map(int, rows.tolist()))
    return "", int(_sym_mod(rows, p).sum()) % p


def _block_trace(phi: PhiMatrix, s: int, half: int, norm2: int, ext: Callable, width: int) -> int:
    """Exact tr(B^(2 half)) of block s of phi, B, with ||B||_F^2 = norm2.

    One _chain builds B^half by square-and-multiply from the leading bit of
    half and traces it as tr(B^half B^half).  It runs exact on B's integer
    coefficients while its bound holds; from the first step that breaks it,
    the rest runs once per word-size prime, on the residues of B and of the
    power held so far.  B starts reduced when its coefficients are not int64
    (int64 ones of 2^53 or more break the first step's bound).
    |tr B^(2h)| <= ||B^h||_F^2 <= ||B||_F^(2h) by Cauchy-Schwarz and
    submultiplicativity, so residues modulo primes whose product exceeds
    twice that bound fix the trace by the CRT.  One spare prime that the
    reconstruction did not use checks the result.  ext(p) holds 0, then the
    coefficients modulo p (as floats if p is None), for phi.gather; the
    primes are those of width, so every block of one Phi shares them.  The
    sign (-1)^s cancels in an even power: the coefficients enter unsigned.
    """
    dim = math.comb(phi.n, s)
    a = r = np.empty((dim, dim))  # B, then refilled with its residues
    steps = bin(half)[3:].replace("1", "sm").replace("0", "s") + "t"
    if phi.scan.coef.dtype != object:
        steps, r = _chain(phi.gather(s, ext(None), a), a, steps)
        if not steps:
            return r

    bound = 2 * norm2**half
    found: list[tuple[int, int]] = []
    modulus = 1
    for p in _word_primes(width):
        if dim * ((p - 1) // 2) ** 2 >= _FLOAT_EXACT:
            raise InvariantViolationError(
                f"prime {p} on a {dim}x{dim} block breaks the 2^53 exactness bound"
            )
        if r is a or "m" in steps:  # else _chain reads only r
            phi.gather(s, ext(p), a)
        found.append((p, _chain(a, r, steps, p)[1]))
        if modulus > bound:  # p was the spare
            break
        modulus *= p

    spare, spare_residue = found.pop()
    total = sum(res * (modulus // p) * pow(modulus // p, -1, p) for p, res in found) % modulus
    if total > modulus // 2:
        total -= modulus
    if total % spare != spare_residue:
        raise InvariantViolationError(
            f"CRT trace {encode_int(total)} disagrees with its residue modulo the spare prime {spare}"
        )
    return total


def _trace_cost(dim: int, norm2: int, half: int, width: int, exact_first: bool) -> int:
    """Matrix cells one block's chain may write: dim^2 per product on the exact pass and each prime,
    plus the CRT's words per prime.  Primes for width exceed 2^((53 - bits of width) / 2), which sizes
    the CRT bound 2 ||B||_F^(2 half) in primes, left unevaluated; dim ||B||_F^(2 half) < 2^53 stays exact."""
    cells = (half.bit_length() + half.bit_count() - 1) * dim * dim  # squarings, multiplies, trace
    bits = half * math.log2(norm2)
    exact = exact_first and math.log2(dim) + bits < 53
    primes = 0 if exact else math.ceil((1 + bits) / ((53 - width.bit_length()) / 2)) + 1
    return (primes + exact_first) * cells + primes * (int(1 + bits) // 64 + 1)


def check_trace_request(n: int, k: int) -> None:
    """Refuse, before any work, a trace of Phi^k on n vertices with k odd or
    below 2, or with a middle block over DENSE_BLOCK_DIM_CAP rows."""
    if k < 2 or k % 2:
        raise ValueError(f"trace exponent must be an even integer >= 2, got {k}")
    dim = math.comb(n, n // 2)
    if dim > DENSE_BLOCK_DIM_CAP:
        raise GraphPolyError(f"trace on {n} vertices refused: a dense {dim}x{dim} block takes "
                             f"{8 * dim * dim / 1e9:.1f} GB (dense cap {DENSE_BLOCK_DIM_CAP} rows)")


def trace_power(phi: PhiMatrix, k: int, *, budget: Optional[int] = None) -> int:
    """Exact tr(Phi^k) for even k >= 2, once check_trace_request admits it: twice the trace of
    each block B_s with 2s < n (its mirror's is the same), plus the middle block's.  Each block
    is gathered dense and powered once, in float64 products checked exact one by one, and only
    from the first product past 2^53 on modulo primes; every block takes the primes of the
    middle (largest) block, so the coefficients are reduced once per prime, on its first use.
    Before any product the cells every chain may write (_trace_cost) are charged against the
    budget (default DEFAULT_BUDGET), past which it raises."""
    check_trace_request(phi.n, k)
    half, values = k // 2, phi.scan.coef
    width = math.comb(phi.n, phi.n // 2)
    # ||B_s||_F^2 counts each coefficient once per place it fills, in Python ints per distinct value
    distinct, value = np.unique(values, return_inverse=True)
    norms = {s: int(np.dot(np.bincount(value, phi.counts(s)).astype(np.int64), distinct.astype(object) ** 2))
             for s in range(phi.n // 2 + 1) if phi.counts(s).any()}
    budget = DEFAULT_BUDGET if budget is None else budget
    cost = sum(_trace_cost(math.comb(phi.n, s), norm2, half, width, values.dtype != object)
               for s, norm2 in norms.items())
    if cost > budget:
        raise BudgetExceededError(budget, cost, "trace matrix cells")
    ext = functools.cache(lambda p: np.concatenate((
        [0.0], values.astype(np.float64) if p is None else _sym_mod((values % p).astype(np.float64), p))))
    return sum((1 if 2 * s == phi.n else 2) * _block_trace(phi, s, half, norm2, ext, width)
               for s, norm2 in norms.items())


def nonzero_trace(phi: PhiMatrix, k: int, *, budget: Optional[int] = None) -> int:
    """tr(Phi^k) for a prover step that needs it nonzero.

    A nonzero (skew-)symmetric Phi is not nilpotent, so for even k the
    trace is +-||Phi^(k/2)||_F^2 != 0; a zero trace from a nonzero Phi is
    an engine bug and raises.
    """
    tr = trace_power(phi, k, budget=budget)
    if tr == 0:
        raise InvariantViolationError("nonzero almost-central window but zero trace; engine bug")
    return tr


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
    check_trace_request(q.n, k)
    phi = build_phi(q, budget=budget)
    found = phi.scan.witness()
    if found is None:
        return None
    witness, value = found
    cert = {
        "kind": "trace",
        "graph": to_json_obj(q),
        "graph_digest": graph_digest(q),
        "k": k,
        "witness_exponent": list(witness),
        "witness_value": encode_int(value),
        "trace_value": encode_int(nonzero_trace(phi, k, budget=budget)),
        "at_bound": q.max_degree() // 2 + 2,
    }
    return finalize_certificate(cert)
