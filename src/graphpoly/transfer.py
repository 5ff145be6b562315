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
scan rows by ternary exponent code, a window of rows at a time whose index
temporaries (int64 codes, then int32 scan rows: 12 bytes a cell) stay
within TRACE_CHUNK_CELLS cells, and a coefficient with b places at a_i - 1
and f at a_i fills C(f, s - b) places of block s.  By the mirror law
c(2a - xi) = sigma c(xi), checked on the scan, block n - s is (-1)^n
sigma J B_s J (J reverses the ranks): only blocks with 2s <= n are powered.
The same law makes each block B (its coefficients unsigned) satisfy
B^T = sigma B, so (B^h)^T = sigma^h B^h and tr(B^(2h)) = sigma^h
||B^h||_F^2: each block is raised to the power h = k/2 once, and the
trace is sigma^h times the sum of the squares of B^h, read as contiguous
row sums.  Traces are exact.  The products run on BLAS on B's integer
entries: below 2^24 every integer is a float32 and below 2^53 a float64,
so a product whose partial sums all stay below the bound rounds nowhere,
in whatever order BLAS sums.  Before every product that bound is checked
on the maxima of the actual operands: B and the power held stay float32
while dim * max|X| * max|Y| < 2^24 and move to float64 at the first
product past it.  Only from the first product that would pass 2^53 on
does the rest of the chain run modulo word-size primes p with
dim * (p-1)^2 < 2^53, all of a block's primes at once as a stack of
residue matrices, one per prime, a chunk of TRACE_CHUNK_CELLS cells at a
time: one truncating division per product keeps residues in (-p, p), so
every partial sum stays below 2^53.  Such a block's ||B^h||_F^2 is rebuilt
by a product and remainder tree CRT over enough primes that their product
exceeds twice the lesser of ||B||_F^k and dim ||B||_inf^k (the largest
absolute row sum, where B's floats give it exactly), each a bound on
|tr B^k|, and is checked against one spare prime; a chain that stays
exact draws no prime.  The budget is charged before any product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ._numpy import np
from .certificates import encode_int, finalize_certificate
from .coefficients import (
    ExponentVector,
    SupportMap,
    almost_central_scan,
    central_exponent,
    mirror_sign,
)
from .errors import BudgetExceededError, GraphPolyError, InvariantViolationError
from .graphio import graph_fields
from .graphs import SignedMultigraph, build_cycle, build_digon, cartesian_product
from .limits import DEFAULT_BUDGET, DENSE_BLOCK_DIM_CAP, SCAN_DECODE_ROWS, SUBSET_VERTEX_CAP, TRACE_CHUNK_CELLS


@functools.cache
def _comb() -> np.ndarray:
    """C(f, r) for f, r <= SUBSET_VERTEX_CAP, then a zero half that a negative r wraps into."""
    sizes = range(SUBSET_VERTEX_CAP + 1)
    return np.array([[math.comb(f, r) for r in sizes] + [0] * len(sizes) for f in sizes])


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
        s - base > free and, wrapping into _comb()'s zero half, for s - base < 0."""
        return _comb()[self.free, s - self.base]

    @property
    def blocks(self) -> dict[int, Block]:  # not cached: a Block refers back to phi
        return {s: Block(self, s, nnz) for s, nnz in enumerate(self._block_counts)}

    @functools.cached_property
    def _block_counts(self) -> list[int]:
        """The nonzero count of each block: a row with f free places and b places at a_i - 1
        fills C(f, s - b) places of block s, so one table of rows per (f, b) gives every count."""
        size = self.n + 1
        rows = np.bincount(self.free * size + self.base, minlength=size * size).reshape(size, size)
        f, b = np.arange(size)[:, None], np.arange(size)
        return [int((rows * _comb()[f, s - b]).sum()) for s in range(size)]

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
        """Block s with ext[..., 1 + e] at the places of scan row e and ext[..., 0] elsewhere,
        written into out (dense, ext's dtype; a stack of blocks, one per row of a 2-d ext).  Place
        (S, T) holds the exponent a + 1_T - 1_S, of code c0 + P(T) - P(S) with P(X) =
        sum_{i in X} 3^i.  The rows are gathered a window at a time, at most TRACE_CHUNK_CELLS
        places (at least one row): its codes (int64) and scan rows (int32) take 12 bytes a place,
        768 KB at 2^16.  Gathering the 462-row block of `cyclepower:11:2` whole (2.6 MB of index)
        faulted 508 fresh pages and took 2.9 ms per gather in a loop of trace certificates, and in
        windows of 2^16 places 101 pages and 1.5 ms (2-core Xeon VM, numpy 2.4.6)."""
        masks = np.flatnonzero(np.bitwise_count(np.arange(1 << self.n)) == s)
        p = (masks[:, None] >> np.arange(self.n) & 1) @ 3 ** np.arange(self.n)
        out = np.empty(ext.shape[:-1] + (p.size, p.size), ext.dtype) if out is None else out
        c0, step = (3**self.n - 1) // 2, max(1, TRACE_CHUNK_CELLS // p.size)  # bounds the index temporaries
        for i in range(0, p.size, step):
            np.take(ext, self._rows[c0 - p[i:i + step, None] + p], axis=-1, out=out[..., i:i + step, :],
                    mode="clip")
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
    for lo in range(0, len(scan), SCAN_DECODE_ROWS):
        part = slice(lo, lo + SCAN_DECODE_ROWS)
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
_FLOAT32_EXACT = 2**24

# dimension bit length -> primes found so far, largest first
_PRIMES: dict[int, np.ndarray] = {}

# odd numbers one sieve pass covers: some 1,800 primes near 2^25
_SIEVE_SPAN = 1 << 14


def _word_primes(dim: int, count: int) -> np.ndarray:
    """The count largest odd primes p with dim * (p-1)^2 < 2^53, largest first, as int64.

    Found by a sieve over _SIEVE_SPAN odd numbers at a time, and cached per
    bit length of dim.
    """
    bits = dim.bit_length()
    found = _PRIMES.get(bits, np.empty(0, np.int64))
    while found.size < count:
        # dim < 2^bits, so every p with (p-1)^2 < 2^(53 - bits) qualifies
        top = int(found[-1]) - 2 if found.size else math.isqrt((_FLOAT_EXACT - 1) >> bits) | 1
        lo = top - 2 * (_SIEVE_SPAN - 1)  # far above sqrt(top)
        prime = np.ones(_SIEVE_SPAN, dtype=bool)  # prime[j] stands for lo + 2j
        for q in range(3, math.isqrt(top) + 1, 2):
            prime[-lo * (q + 1) // 2 % q::q] = False  # lo + 2j = 0 mod q at j = -lo/2 mod q
        found = _PRIMES[bits] = np.concatenate((found, lo + 2 * np.flatnonzero(prime)[::-1]))
    return found[:count]


def _crt_primes(bits: float, width: int) -> np.ndarray:
    """The primes of width one block's CRT takes, largest first: the fewest whose log2 sum passes
    bits, log2 of a bound on twice the trace, by 2^-10, far more than the float rounding of these
    sums (below 10^-6 for a million bits), so that their product exceeds the bound; then one
    spare."""
    bits += 2**-10
    count = 64
    while (logs := np.cumsum(np.log2(_word_primes(width, count))))[-1] <= bits:
        count *= 2
    return _word_primes(width, int(np.searchsorted(logs, bits, side="right")) + 2)


def _reduce(m: np.ndarray, p, out: Optional[np.ndarray] = None) -> np.ndarray:
    """m - p trunc(m/p), in (-p, p), for entries of m that are integers below 2^53 in size, written
    into out (a new array if None); p is a column of primes, (primes, 1, 1) against a stack of
    matrices, to which m broadcasts.

    The float64 quotient f of m/p is within 2^-53 |m/p| of it, and rounding keeps the integers
    below 2^53.  So trunc(f) = trunc(m/p): else some integer n past m/p in size would have
    |n p - m| <= 2^-53 |m| < 1, with n p != m.  q p, at most |m| in size, and m - q p are exact.
    """
    q = np.trunc(np.divide(m, p, out=out), out=out)
    return np.subtract(m, np.multiply(q, p, out=q), out=q)


def _peak(m: np.ndarray) -> int:
    """max |m_ij|, read with no temporary."""
    return int(max(m.max(initial=0), -m.min(initial=0)))


def _chain(a: np.ndarray, r: np.ndarray, steps: str, p=None) -> tuple[str, np.ndarray | int]:
    """Run steps on float integer matrices, or on stacks of them: "s" squares r, "m" multiplies
    it by a, and "t", the last, takes ||r||_F^2 = sum_ij r_ij^2 as contiguous row sums, summed in
    float64.  For r = B^h with B^T = sigma B, that is sigma^h tr(r r); the caller applies the sign.

    A step on operands x, y sums at most dim terms of size at most max|x| * max|y|, so it is
    exact while dim * max|x| * max|y| < 2^53, or < 2^24 in float32: below 2^24 every integer is
    a float32 (24-bit significand) as below 2^53 it is a float64 (53 bits), so no term or partial
    sum rounds, in whatever order BLAS sums and whether or not it fuses the multiply-adds.
    Without p, r is a (float32 or float64) and that is checked on the actual operands before
    each step: float32 operands are widened to float64 at the first product past 2^24 (a only
    where a later "m" reads it), and the run returns the steps left and r, unreduced, at the
    first step past 2^53, else ("", the exact ||r||_F^2).  With p, a (primes, 1, 1) column of
    primes against a float64 stack a of one matrix per prime, a holds residues in (-p, p) and r is
    a or one matrix exact below 2^53, which _reduce takes into (-p, p) as well.  Each product of
    such residues sums dim terms below (p-1)^2, exact as dim * (p-1)^2 < 2^53, and is reduced
    again; ("", ||r||_F^2 modulo each p, one per prime) is returned.  a and r are never
    written: the products and reductions take turns in two spare buffers.
    """
    dim = a.shape[-1]
    top_a = top_r = _peak(a) if p is None else 0  # without p, r is a
    spare = np.empty_like(a)  # its pages are touched only when it is used
    if p is not None and r is not a:
        r, spare = _reduce(r, p, spare), np.empty_like(a)
    for i, step in enumerate(steps):
        bound = dim * top_r * (top_a if step == "m" else top_r)
        if p is None and bound >= _FLOAT_EXACT:
            return steps[i:], r
        if step == "t":
            break
        if r.dtype == np.float32 and bound >= _FLOAT32_EXACT:  # float64 from this step on
            wide = r.astype(np.float64)
            a = wide if r is a else a.astype(np.float64) if "m" in steps[i:] else a
            r, spare = wide, np.empty_like(wide)
        # r r, not r r^T: numpy's syrk path for the latter ran no faster on one float32 block of
        # any size up to 462 rows, and 1.4-4x slower on stacks of residue matrices
        product = np.matmul(r, a if step == "m" else r, out=spare)
        free = np.empty_like(r) if r is a else r
        r, spare = (product, free) if p is None else (_reduce(product, p, free), product)
        top_r = _peak(r) if p is None else 0
    rows = np.einsum("...ij,...ij->...i", r, r, dtype=np.float64)  # contiguous row sums of r o r
    if p is None:  # each row sum is below 2^53, their total need not be
        return "", sum(map(int, rows.tolist()))
    return "", np.mod(_reduce(rows, p[:, 0]).sum(axis=-1), p[:, 0, 0])  # sums below dim (p-1)^2, then p


def _crt(residues: list[int], primes: list[int]) -> int:
    """The x with |x| < M/2, M the product of the primes, and x = residues[i] mod primes[i].

    x = sum_i u_i M/p_i with u_i = residues[i] ((M/p_i) mod p_i)^-1 mod p_i.  A product tree holds
    the product of each run of primes its node spans; the complement M/P mod P of each node P
    comes down the tree as (that of its parent) * (its sibling) mod P, from 1 at the root; and
    the sums of u_i M/p_i go back up it as u_L P_R + u_R P_L (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 10).  No step takes a full-width quotient or inverse per prime:
    the inverses are of word-size numbers, and each product or remainder is of halves of one
    node.  CPython divides by schoolbook, so the top levels still cost some 1.8 ns per pair of
    primes (for 15,000 primes 0.61 s, against 6.26 s for a full-width quotient and inverse per
    prime, in one process); a remainder tree of multiplications only, scaled by one Newton reciprocal, measured
    slower up to 30,000 primes.
    """
    tree = [primes]  # the last node of an odd level rises alone
    while len(level := tree[-1]) > 1:
        tree.append([x * y for x, y in zip(level[::2], level[1::2])] + level[len(level) & ~1:])
    rest = [1]
    for level in reversed(tree[:-1]):
        rest = [rest[i >> 1] * level[i ^ 1] % x if i ^ 1 < len(level) else rest[i >> 1]
                for i, x in enumerate(level)]
    sums = [r * pow(c, -1, p) % p for r, c, p in zip(residues, rest, primes)]
    for level in tree[:-1]:
        sums = [u * y + v * x for u, v, x, y in zip(sums[::2], sums[1::2], level[::2], level[1::2])] \
            + sums[len(level) & ~1:]
    modulus = tree[-1][0]
    total = sums[0] % modulus
    return total - modulus if total > modulus // 2 else total


def _block_trace(phi: PhiMatrix, s: int, half: int, norm2: int, ext: Optional[np.ndarray],
                 residues: Callable[[np.ndarray], np.ndarray], width: int) -> int:
    """Exact tr(B^(2 half)) of block s of phi, B, with ||B||_F^2 = norm2.

    B^T = sigma B, as build_phi checked the mirror law, so tr(B^(2h)) =
    sigma^h ||B^h||_F^2.  One _chain builds B^half by square-and-multiply
    from the leading bit of half and takes ||B^half||_F^2; the sign is
    applied here.  It runs exact on B's integer coefficients while its
    bound holds, in float32 while that is below 2^24 (B is gathered in
    ext's dtype: float32 when every coefficient is below 2^24, and so exact
    in it); from the first step that breaks the 2^53 bound, the rest runs on
    stacks of residue matrices, one per prime, each stack of at most
    TRACE_CHUNK_CELLS cells.  A stack takes B's residues from one gather of
    residues(its primes), the rows of the coefficients modulo each prime,
    and the power held so far, exact below 2^53, is reduced into it.  The
    residues satisfy B^T = sigma B only modulo p, which is all the sum of
    squares needs.  B starts reduced when its coefficients are Python ints,
    for which ext is None (int64 ones of 2^53 or more break the first
    step's bound).
    ||B^h||_F^2 = |tr B^(2h)| <= ||B||_F^(2h) by submultiplicativity, and
    <= dim rho(B)^(2h) <= dim ||B||_inf^(2h), ||B||_inf the largest
    absolute row sum; residues modulo primes whose product exceeds twice
    the lesser bound fix it by the CRT.  ||B||_inf is read from B as
    gathered in floats and summed in float64, where it is below 2^53 and
    so exact; the Frobenius bound stands alone for Python-int coefficients
    and for larger row sums.  The primes are drawn up front with one spare,
    which the reconstruction does not use and which checks its result.
    Else ext holds 0, then the coefficients as floats, for phi.gather; the
    primes are those of width, so every block of one Phi shares them.  The
    sign (-1)^s cancels in an even power: the coefficients enter unsigned.
    """
    dim = math.comb(phi.n, s)
    a = held = np.empty((dim, dim), np.float64 if ext is None else ext.dtype)  # B, then the power
    steps, sign = _steps(half), phi.sigma**half
    bits = 1 + half * math.log2(norm2)
    if ext is not None:
        steps, held = _chain(phi.gather(s, ext, a), a, steps)
        if not steps:
            return sign * held
        # a holds B: sums of its absolute integer entries are exact below 2^53
        step = max(1, TRACE_CHUNK_CELLS // dim)  # rows at a time, which bounds the temporary
        row_norm = max(float(np.abs(a[i:i + step]).sum(axis=1, dtype=np.float64).max())
                       for i in range(0, dim, step))
        if row_norm < _FLOAT_EXACT:
            bits = min(bits, 1 + math.log2(dim) + 2 * half * math.log2(row_norm))
    primes = _crt_primes(bits, width)
    if dim * (int(primes.max()) - 1) ** 2 >= _FLOAT_EXACT:
        raise InvariantViolationError(
            f"prime {primes.max()} on a {dim}x{dim} block breaks the 2^53 exactness bound"
        )
    found, start_from_b = [], held is a  # no product ran: every chain starts from B's residues
    per = min(primes.size, max(1, TRACE_CHUNK_CELLS // (dim * dim)))
    stacks = a[None] if per == 1 and a.dtype == np.float64 else np.empty((per, dim, dim))  # B is read no more
    for chunk in np.split(primes, range(per, primes.size, per)):
        stack, p = stacks[:chunk.size], np.float64(chunk)[:, None, None]
        if start_from_b or "m" in steps:  # else _chain reads only the power held
            phi.gather(s, residues(chunk), stack)
        found.append(_chain(stack, stack if start_from_b else held, steps, p)[1])
    # the reduced residues lie in [0, p)
    *residues_used, spare_residue = np.concatenate(found).astype(np.int64).tolist()
    *used, spare = primes.tolist()
    total = _crt(residues_used, used)
    if total % spare != spare_residue:
        raise InvariantViolationError(
            f"CRT trace {encode_int(total)} disagrees with its residue modulo the spare prime {spare}"
        )
    return sign * total


# Cells charged per step of each chunk of primes beside its matrix cells (fitted in _trace_cost).
_STEP_CELLS = 600


def _steps(half: int) -> str:
    """The steps of a chain from B to ||B^half||_F^2, by square-and-multiply."""
    return bin(half)[3:].replace("1", "sm").replace("0", "s") + "t"


def _trace_cost(dim: int, norm2: int, half: int, width: int, exact_first: bool) -> int:
    """Cells one block's trace may cost, a cell standing for some 7.5 ns of run time: one cell
    of a chain step on a stack of 3x3 residue matrices takes 7.7 ns at 1024 primes (2-core Xeon
    VM, Python 3.11.7, numpy 2.4.6).

    The matrix cells its gathers, products and reductions write: a step whose operands B^e, B^f
    have dim ||B||_F^(e + f) < 2^53 is sure to run exact, and the leading such steps are charged
    dim^2 once.  A float32 step is charged as a float64 one, though it writes half the bytes and
    takes about half the time (1.3 against 2.6 ms for a 462-row square), so the charge stays an
    upper bound; it also covers the one widening of B and the power held to float64, a copy far
    cheaper than the product it precedes.  From the first step not sure to run exact on, each
    step and the residues of B or of the power held are charged dim^2 per prime, as if the exact
    pass stopped there (where it goes further, it writes less).  Each step of each chunk of
    primes: _STEP_CELLS, as that 3x3 step took 4.5 us more on one prime than on 1/1024 of the
    stack of 1024.  The CRT over N primes: N^2 / 4 + 550 N, as _crt took 1.8e-9 N^2 + 4.1e-6 N
    seconds (least squares, in relative error, over N = 300 to 20,000).  Primes for width exceed
    2^((51 - bits of width) / 2) for the first 50,000 of any width, which sizes the CRT bound
    2 ||B||_F^(2 half) in primes, left unevaluated."""
    steps, log_norm = _steps(half), math.log2(norm2) / 2
    sure, power = 0, 1  # the leading steps sure to run exact, and the power they reach
    while exact_first and sure < len(steps):
        other = 1 if steps[sure] == "m" else power
        if math.log2(dim) + (power + other) * log_norm >= 53:
            break
        sure, power = sure + 1, power + other
    exact = exact_first * (1 + sure)  # the gather of B and the steps sure to run exact
    if sure == len(steps):
        return exact * dim * dim
    left = len(steps) - sure
    per_prime = left + 1 + (0 < sure and "m" in steps[sure:])  # B's residues only where read
    primes = math.ceil((3 + 2 * half * log_norm) / ((51 - width.bit_length()) / 2)) + 1
    chunks = -(-primes // max(1, TRACE_CHUNK_CELLS // (dim * dim)))
    return ((exact + primes * per_prime) * dim * dim + chunks * left * _STEP_CELLS
            + primes * (primes // 4 + 550))


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
    each block B_s with 2s < n (its mirror's is the same), plus the middle block's, each
    sigma^(k/2) ||B_s^(k/2)||_F^2.  Each block is gathered dense, a window of rows at a time, and
    powered once, in products checked exact one by one: in float32 while they stay below 2^24,
    then in float64, and only from the first product past 2^53 on modulo primes, stacked; every
    block takes the primes of the middle (largest) block.  Before any product the cost of every block's trace
    (_trace_cost) is charged against the budget (default DEFAULT_BUDGET), past which it raises."""
    check_trace_request(phi.n, k)
    half, values = k // 2, phi.scan.coef
    width = math.comb(phi.n, phi.n // 2)
    # ||B_s||_F^2 counts each coefficient once per place it fills, in Python ints per distinct value
    distinct, value = np.unique(values, return_inverse=True)
    squares = distinct.astype(object) ** 2
    norms = {s: int(np.dot(np.bincount(value, counts).astype(np.int64), squares))
             for s in range(phi.n // 2 + 1) if (counts := phi.counts(s)).any()}
    budget = DEFAULT_BUDGET if budget is None else budget
    cost = sum(_trace_cost(math.comb(phi.n, s), norm2, half, width, values.dtype != object)
               for s, norm2 in norms.items())
    if cost > budget:
        raise BudgetExceededError(budget, cost, "trace matrix cells")
    ext = None if values.dtype == object else np.concatenate(([0], values)).astype(
        np.float32 if _peak(values) < _FLOAT32_EXACT else np.float64)

    def residues(primes):  # 0, then the coefficients modulo each prime, as float rows
        mod = (values % primes.astype(values.dtype)[:, None]).astype(np.float64)
        return np.concatenate((np.zeros((primes.size, 1)), mod), axis=1)

    return sum((1 if 2 * s == phi.n else 2) * _block_trace(phi, s, half, norm2, ext, residues, width)
               for s, norm2 in norms.items())


def nonzero_trace(phi: PhiMatrix, k: int, *, budget: Optional[int] = None) -> int:
    """tr(Phi^k) where a nonzero almost-central coefficient makes it nonzero: prover and check.

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
        **graph_fields(q),
        "k": k,
        "witness_exponent": list(witness),
        "witness_value": encode_int(value),
        "trace_value": encode_int(nonzero_trace(phi, k, budget=budget)),
        "at_bound": q.max_degree() // 2 + 2,
    }
    return finalize_certificate(cert, q)
