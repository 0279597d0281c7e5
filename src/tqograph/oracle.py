"""Dense state-vector reference implementation.

Builds graph states and graph basis states (real amplitudes, float64),
evaluates Pauli matrix elements, and checks the error-correction conditions
exhaustively.  Everything here is deliberately independent of the analytic
machinery so the two can be compared.

Operator convention: ``X^k Z^l`` applies all Z factors first, so
``X^k Z^l |x> = (-1)^{l.x} |x xor k>``.  Enumerating (k, l) pairs covers Y up
to a global phase, which the phase-insensitive conditions never see.

For codewords c_i and c_j and an X pattern k, the row f(x) = conj(c_i[x xor
k]) c_j[x] has the unnormalised Walsh-Hadamard transform F(l) = sum_x
(-1)^{l.x} f(x) = <c_i| X^k Z^l |c_j>: one transform gives every l at once.
H_n is the Kronecker product of the Sylvester matrices of any runs of the
index bits (H_n = H_a (x) H_b), so a block of rows is transformed by one
matrix product per run of at most RUN_BITS bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from typing import List, Optional, Tuple

import numpy as np

from .analysis import BudgetExceededError
from .gf2 import BitString
from .graphs import Graph

QUBIT_CAP = 14
DEFAULT_TOL = 1e-9
# Bytes of the (pairs, patterns, 2^n) rows of one transform block.
BLOCK_BYTES = 1 << 17
RUN_BITS = 5
# At most 2^18 multiply-adds per product, the default size up to which
# OpenBLAS runs one on a single thread (threaded, on two cores, a 2^20 one
# ran ten times slower than four 2^18 ones).
PRODUCT_ENTRIES = 1 << 13


class QubitCapExceededError(RuntimeError):
    """Raised when a state-vector build would exceed the qubit cap."""


class StateVector:
    """Normalized 2^n-dimensional state, float64 for real input and complex128
    otherwise.  Immutable after construction."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        # a private copy, so that freezing it leaves the caller's array writable
        amps = np.array(amps, dtype=np.complex128 if np.iscomplexobj(amps) else np.float64)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        amps.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector(n={self.n})"


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables over x < 2^n: x, popcount(x) and (-1)^popcount(x)."""
    pc = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    tables = (np.arange(1 << n), pc, 1.0 - 2.0 * (pc & 1))
    for t in tables:
        t.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=None)
def _sylvester(c: int) -> np.ndarray:
    """The 2^c x 2^c Walsh-Hadamard matrix, entry (a, b) = (-1)^popcount(a & b)."""
    idx, _, sign = _tables(c)
    h = sign[idx[:, None] & idx]
    h.setflags(write=False)
    return h


# (graph, |G>) of the last state built: one entry, so the graph basis states
# of one graph share a single build.
_last_graph_state: Optional[Tuple[Graph, StateVector]] = None


def build_graph_state(g: Graph) -> StateVector:
    """CZ along every edge applied to the uniform superposition.

    Amplitude of |x> is 2^{-n/2} times (-1)^{#edges inside the support of x}.
    """
    global _last_graph_state
    if g.n > QUBIT_CAP:
        raise QubitCapExceededError(f"{g.n} qubits exceeds cap {QUBIT_CAP}")
    cached = _last_graph_state
    if cached is not None and cached[0].n == g.n and cached[0].edges == g.edges:
        return cached[1]
    idx, _, sign = _tables(g.n)
    amps = np.empty(1 << g.n)
    amps[0] = 2.0 ** (-g.n / 2)
    for v, nbrs in enumerate(g.adjacency().row_bits):
        # x = 2^v + y with y < 2^v: the sign of y, flipped once per edge from v into y
        half = 1 << v
        np.multiply(amps[:half], sign[idx[:half] & nbrs], out=amps[half : 2 * half])
    state = StateVector(g.n, amps)
    _last_graph_state = (g, state)
    return state


def graph_basis_state(g: Graph, h: BitString) -> StateVector:
    """Z^h applied to the graph state of g."""
    if h.n != g.n:
        raise ValueError(f"length mismatch: {h.n} vs {g.n} vertices")
    base = build_graph_state(g)
    idx, _, sign = _tables(g.n)
    return StateVector(g.n, base.amps * sign[idx & h.bits])


def inner(phi: StateVector, psi: StateVector) -> complex:
    if phi.n != psi.n:
        raise ValueError("qubit count mismatch")
    return complex(np.vdot(phi.amps, psi.amps))


def pauli_matrix_element(
    phi: StateVector, psi: StateVector, k: BitString, l: BitString
) -> complex:
    """<phi| X^k Z^l |psi> with the Z factors applied first."""
    if phi.n != psi.n:
        raise ValueError("qubit count mismatch")
    if k.n != phi.n or l.n != phi.n:
        raise ValueError("operator length mismatch")
    idx, _, sign = _tables(phi.n)
    # vdot conjugates its first argument, and the signs are real
    return complex(np.vdot(phi.amps[idx ^ k.bits] * sign[idx & l.bits], psi.amps))


@dataclass(frozen=True)
class QeccVerdict:
    ok: bool
    witness: Optional[Tuple[int, int, BitString, BitString]] = None
    operators_checked: int = 0

    def __bool__(self):
        return self.ok


class QeccBudgetExceededError(BudgetExceededError):
    """A budget stop in brute_force_qecc_check, in X-pattern weight class
    weight: every pattern of a lighter class was checked without a hit."""

    def __init__(self, message: str, weight: int):
        super().__init__(message)
        self.weight = weight


def _walsh_hadamard(rows: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Entry (p, l) of the result is sum_x (-1)^{l.x} rows[p, x]; rows and
    spare are (P, 2^n) scratch.  The product with the Sylvester matrix of the
    top c index bits sums them out and moves their sign bits to the bottom,
    so after every run's product the sign bits are back in order.
    """
    n = rows.shape[1].bit_length() - 1
    runs = -(-n // RUN_BITS)
    a, b = rows, spare
    for r in range(runs):
        c = (n + r) // runs  # balanced runs of at most RUN_BITS bits, summing to n
        src, dst = a.reshape(len(rows), 1 << c, -1), b.reshape(len(rows), -1, 1 << c)
        step = PRODUCT_ENTRIES >> c
        for s in range(0, src.shape[2], step):
            np.matmul(src[:, :, s : s + step].transpose(0, 2, 1), _sylvester(c),
                      out=dst[:, s : s + step])
        a, b = b, a
    return a


def _operators_before(n: int, w: int, k: int, l: int) -> int:
    """How many operators X^k' Z^l' precede (w, k, l) in canonical order."""
    idx, pc, _ = _tables(n)
    count = sum(comb(n, v) * 3**v for v in range(w))
    # an X pattern with p ones carries 2^p C(n-p, w-p) operators of weight w
    per_pattern = np.bincount(pc[:k], minlength=n + 1)[: w + 1]
    count += sum(int(c) * 2**p * comb(n - p, w - p) for p, c in enumerate(per_pattern))
    return count + int(np.count_nonzero(pc[idx[:l] & ~k] == w - int(pc[k])))


def brute_force_qecc_check(
    codewords: List[StateVector],
    d: int,
    deadline=None,
) -> QeccVerdict:
    """Check the error-correction conditions on a codeword list by enumeration.

    For every O = X^k Z^l with weight(k | l) <= d - 1, all diagonal matrix
    elements must agree and all off-diagonal ones must vanish, within
    DEFAULT_TOL.  The witness (i, j, k, l) identifies the first violation in
    canonical (weight, k, l) order; diagonal witnesses have i == j.
    operators_checked counts the operators up to and including the
    witness's, or all of them.

    The X patterns of weight <= d - 1 run in (weight, k) order, in blocks
    of BLOCK_BYTES of rows, one row per codeword pair and pattern, all
    transformed at once (module docstring).  For i == j the row is the
    difference from pair (0, 0), built once per pattern.  The earliest
    violation is the least (weight, k, l, pair) hit.  Once it has weight w
    and X pattern k_w, only patterns before (w, k_w) in that order can hold
    an earlier one, so the scan stops at the first block starting past it; a
    pattern past it inside a block has weight class >= w and k > k_w, so
    it cannot win.  The deadline is checked once per block, and a stop
    raises QeccBudgetExceededError with its first pattern's weight class.
    """
    if not codewords:
        raise ValueError("need at least one codeword")
    n = codewords[0].n
    if any(c.n != n for c in codewords):
        raise ValueError("codeword qubit counts differ")
    if d < 1 or d > n:
        raise ValueError(f"need 1 <= d <= {n}")
    for i, ci in enumerate(codewords):
        for j in range(i, len(codewords)):
            expect = 1.0 if i == j else 0.0
            if abs(inner(ci, codewords[j]) - expect) > DEFAULT_TOL:
                raise ValueError(f"codewords {i},{j} not orthonormal")
    total = sum(comb(n, w) * 3**w for w in range(d))
    if len(codewords) == 1:  # pair (0, 0) cannot fail: it is the reference
        return QeccVerdict(True, None, total)

    dtype = np.result_type(*(c.amps for c in codewords))
    kets = [c.amps.astype(dtype, copy=False) for c in codewords]
    bras = [np.conj(a) for a in kets]
    pairs = [(i, j) for i in range(len(kets)) for j in range(i, len(kets)) if j]
    idx, pc, _ = _tables(n)
    patterns = np.argsort(pc, kind="stable")[: sum(comb(n, w) for w in range(d))]
    step = max(1, BLOCK_BYTES // (len(pairs) * dtype.itemsize << n))
    # a block's rows and their transform, one allocation per call
    scratch = np.empty((2, len(pairs) * min(step, len(patterns)), 1 << n), dtype)
    best = None  # (w, k, l, pair) of the earliest violation so far
    for start in range(0, len(patterns), step):
        ks = patterns[start : start + step]
        pk, k0 = int(pc[ks[0]]), int(ks[0])
        if best is not None and (pk, k0) > best[:2]:
            break
        if deadline is not None:
            try:
                deadline.check()
            except BudgetExceededError as exc:
                raise QeccBudgetExceededError(str(exc), pk) from exc
        flip = ks[:, None] ^ idx
        m = len(pairs) * len(ks)
        rows = scratch[0, :m].reshape(len(pairs), len(ks), 1 << n)
        base = scratch[1, : len(ks)]
        # flip < 2^n; unlike "raise", "clip" writes out without a buffer
        np.take(bras[0], flip, out=base, mode="clip")
        base *= kets[0]
        for p, (i, j) in enumerate(pairs):
            np.take(bras[i], flip, out=rows[p], mode="clip")
            rows[p] *= kets[j]
            if i == j:
                rows[p] -= base
        vals = _walsh_hadamard(scratch[0, :m], scratch[1, :m])
        r, l = np.divmod(np.flatnonzero(np.abs(vals) > DEFAULT_TOL), 1 << n)
        pair, b = np.divmod(r, len(ks))
        k = ks[b]
        w = pc[k] + pc[l & ~k]
        hits = np.flatnonzero(w < d)
        if hits.size:
            h = hits[np.lexsort((pair[hits], l[hits], k[hits], w[hits]))[0]]
            hit = (int(w[h]), int(k[h]), int(l[h]), int(pair[h]))
            if best is None or hit < best:
                best = hit
    if best is None:
        return QeccVerdict(True, None, total)
    w, k, l, p = best
    i, j = pairs[p]
    witness = (i, j, BitString(n, k), BitString(n, l))
    return QeccVerdict(False, witness, _operators_before(n, w, k, l) + 1)
