"""Every resource limit of the package, each defined once with its reason.

The budget is the only limit on what ``check`` recomputes.
"""

# DP state expansions per scan: past it the scan raises, so a run never ends silently wrong.  The
# DP peaks at 24-32 bytes per state of its largest layer (keys and coefficients of a step's input
# and its output, and the step's masks; child ru_maxrss less the 34 MB of an idle process with
# graphpoly loaded: C5xC5, 25.1*10^6 states at 644 MB; C3xC5 under caps 3, 9.4*10^6 at 322 MB;
# C4xC4's almost-central window, 7.8*10^6 at 287 MB), and each state costs two expansions, so the
# default admits layers of up to 5*10^7 states, about 1.6 GB.  A trace charges it first with its
# cells, about 7.5 ns of run time each (transfer._trace_cost): dim^2 per product per prime, the
# per-step cost of each stack of primes, and its CRT.
DEFAULT_BUDGET = 10**8

# States of a DP layer above which an edge step is merged one key range at a time, each range taking
# at most this many states from either half (coefficients._edge_step), so its temporaries stay near
# the 1.2 MB that tracemalloc saw a whole step on 2^14 states of C3xC5 take.  With each range written
# into one output, the support scan of C3xC5 under caps 3 (layers of up to 9.4*10^6 states) took
# 1.01 s at 2^13, 0.87 s at 2^14 and 0.88 s at 2^15 states, each at 321-325 MB (medians of 3, 2-core
# Xeon VM, numpy 2.4.6).  2^13 would take the coeff workload's budget job 0.8 MB lower (38.0 against
# 38.8 MB in one process), at 16% more time on that scan.
DP_PIECE_STATES = 1 << 14

# Coefficients that `coeff --support` or `--almost-central` lists: each costs about 850 bytes as a
# decoded entry, a JSON object and its text (child ru_maxrss less the 34 MB of an idle process:
# `cyclepower:13:2`, 86,008 entries at 103 MB in 0.96 s; `cyclepower:15:2`, 476,727 at 440 MB in
# 6.3 s; 2-core Xeon VM), so a listing stays near 200 MB and 2 s; C4xC4's 5,033,003 would take 4.3 GB.
COEFF_LIST_CAP = 200_000

# List assignments, the product of C(u, f_v), that an exhaustive choosability sweep may count before it
# refuses: `choosable path:7 --exhaustive --f 8,8,2,2,2,2,1 --universe 8` walks all 4,917,248 in 3.1-3.8 s
# at 58 MB child ru_maxrss, 31 MB when idle (2-core Xeon VM, Python 3.11.7, numpy 2.4.6).
DEFAULT_ASSIGNMENT_BUDGET = 5_000_000

# Colors of a list assignment, in its universe and summed over its lists, and of one chunk of the
# assignments a sweep or stress run colors at once: a chunk is an int64 array, and its draws, sorts
# and greedy pass hold a few copies of it, so 10^6 colors peak at 65-90 MB.
LIST_COLOR_CAP = 10**6

# Vertices above which 2^n subset indexes (transfer matrices, window conditions) are refused; at
# 20 the window check's subset sums take 5-8 ms over all 2^20 subsets of `cycle:20` and peak at
# 9.4 MB under tracemalloc, 9 bytes a subset (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6),
# and each vertex doubles both.
SUBSET_VERTEX_CAP = 20

# Rows of a block that a trace holds dense: C(14, 7) = 3432 takes 94 MB per float64 copy, with up
# to three copies live while the products stay exact and four once they run modulo primes, beside
# the 3^14 = 4.8*10^6 int32 scan rows (19 MB) that the blocks are gathered from (`phi cycle:14
# --trace 4` stays exact and peaks at 245 MB, in 2.6-3.4 s on a 2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6); C(16, 8) = 12870 would take 1.3 GB per copy.
DENSE_BLOCK_DIM_CAP = 3432

# Cells of one stack of residue matrices, one per prime, that a trace powers at once.  Per prime, a
# chain step costs least on stacks of 2^13 to 2^17 cells (a 3x3 block: 0.49 us per prime on 1024
# primes, 31.8 us alone); past 2^16 cells the 210- and 252-row blocks of `cyclepower:10:2` at k = 8
# run as stacks of 2 to 5 and their trace slows from 8.1 to 11.0-12.6 ms, and `cyclepower:8:3` at
# k = 512 takes 57 ms at 2^16, 71 ms at 2^15 and 88 ms at 2^18 (2-core Xeon VM, 2 MB of L2 cache per
# core, numpy 2.4.6).  Each of a chain's three stacks then takes 512 KB.  It also bounds the window
# of a block gather (transfer.PhiMatrix.gather), whose index takes 12 bytes a cell: 768 KB.
TRACE_CHUNK_CELLS = 1 << 16

# Rows of a support scan decoded at a time, by build_phi's code columns and SupportMap.entries'
# exponent lists: each decoded column, an int64 array or a list of pointers to small ints, then
# takes 512 KB, whatever the size of the scan.
SCAN_DECODE_ROWS = 1 << 16

# Vertices up to which a chain step records a transfer trace (blocks up to C(12, 6) = 924); larger steps are structural.
TRACE_VERTEX_CAP = 12

# Vertices of the box and odd-cycle products that `orient` builds and orients in Python:
# `orient --odd-product 12,12,12 --out` (15,625 vertices) takes 0.43 s at 54 MB as a whole process and
# writes 1 MB of JSON, and a 141x141 box (19,881 vertices) is built and oriented in 0.07-0.11 s (2-core Xeon VM).
ORIENT_VERTEX_CAP = 20000
