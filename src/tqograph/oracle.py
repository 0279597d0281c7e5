"""Dense state-vector reference implementation.

Builds graph states and graph basis states (real amplitudes, float64),
evaluates Pauli matrix elements, and checks the error-correction conditions
exhaustively.  Everything here is deliberately independent of the analytic
machinery so the two can be compared.

Operator convention: ``X^k Z^l`` applies all Z factors first, so
``X^k Z^l |x> = (-1)^{l.x} |x xor k>``.  Enumerating (k, l) pairs covers Y up
to a global phase, which the phase-insensitive conditions never see.

The error-correction conditions are checked on reduced matrices (Knill and
Laflamme, Phys. Rev. A 55, 900): split an index x into the bits y of a
window S of qubits and the bits z of the rest.  Then R_ij(S)[y', y] =
sum_z conj(c_i[y', z]) c_j[y, z] gives every operator supported inside S
at once, <c_i| X^k Z^l |c_j> = sum_y (-1)^{l.y} R_ij(S)[y xor k, y].  One
transposed copy of the stacked codewords with S's bits in front (runs of
bits between them as single axes) turns all R_ij(S) into one Gram product,
and the sum over y is one product with the Sylvester matrix of |S| bits.
So weight class w takes one transposed copy, Gram and Sylvester product per
window: w blocks of two qubits ({0, 1}, {2, 3}, ...) for w <= 2, the
support itself above.  At n = 14 that is 7 copies for class 1 and 21 for
class 2, against 14 and 91 supports; the Gram products cost the same.  The
take and Sylvester stage of a u-bit window grow as 8^u, so 3 blocks for
w = 3 made the d = 4 member checks at n = 10 and 11 twice as slow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import List, Optional, Tuple

import numpy as np

from .gf2 import NEVER, BitString, BudgetExceededError, Deadline
from .graphs import Graph

QUBIT_CAP = 14
DEFAULT_TOL = 1e-9
# Bytes of the transposed codeword copies of one chunk of windows.
BLOCK_BYTES = 1 << 19


class QubitCapExceededError(RuntimeError):
    """Raised when a state-vector build would exceed the qubit cap."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized 2^n-dimensional state, float64 for real input and complex128
    otherwise.  Immutable after construction; equality is identity."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        # a private copy, so that freezing it leaves the caller's array writable
        amps = np.array(self.amps, dtype=np.complex128 if np.iscomplexobj(self.amps)
                        else np.float64)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        # einsum, not BLAS: np.linalg.norm and np.vdot hand vectors above about
        # 10,000 entries to threaded BLAS, whose start-up can stall for ms
        norm = np.sqrt(np.einsum("i,i->", amps.conj(), amps).real)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

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


# The last Graph's (n, edges, name) state: its graph basis states share one build.
@functools.lru_cache(maxsize=1)
def build_graph_state(g: Graph) -> StateVector:
    """CZ along every edge applied to the uniform superposition.

    Amplitude of |x> is 2^{-n/2} times (-1)^{#edges inside the support of x}.
    """
    if g.n > QUBIT_CAP:
        raise QubitCapExceededError(f"{g.n} qubits exceeds cap {QUBIT_CAP}")
    idx, _, sign = _tables(g.n)
    amps = np.empty(1 << g.n)
    amps[0] = 2.0 ** (-g.n / 2)
    for v, nbrs in enumerate(g.adjacency().row_bits):
        # x = 2^v + y with y < 2^v: the sign of y, flipped once per edge from v into y
        half = 1 << v
        np.multiply(amps[:half], sign[idx[:half] & nbrs], out=amps[half : 2 * half])
    return StateVector(g.n, amps)


def graph_basis_state(g: Graph, h: BitString) -> StateVector:
    """Z^h applied to the graph state of g."""
    if h.n != g.n:
        raise ValueError(f"length mismatch: {h.n} vs {g.n} vertices")
    base = build_graph_state(g)
    idx, _, sign = _tables(g.n)
    return StateVector(g.n, base.amps * sign[idx & h.bits])


def pauli_matrix_element(
    phi: StateVector, psi: StateVector, k: BitString, l: BitString
) -> complex:
    """<phi| X^k Z^l |psi> with the Z factors applied first."""
    if phi.n != psi.n:
        raise ValueError("qubit count mismatch")
    if k.n != phi.n or l.n != phi.n:
        raise ValueError("operator length mismatch")
    idx, _, sign = _tables(phi.n)
    # the bra is conjugated, and the signs are real; einsum, not BLAS (see
    # StateVector)
    bra = phi.amps[idx ^ k.bits].conj() * sign[idx & l.bits]
    return complex(np.einsum("i,i->", bra, psi.amps))


@dataclass(frozen=True)
class QeccVerdict:
    ok: bool
    witness: Optional[Tuple[int, int, BitString, BitString]] = None
    operators_checked: int = 0

    def __bool__(self):
        return self.ok


def _gram(m: np.ndarray, top: int) -> np.ndarray:
    """conj(m) m^T per matrix of the stack m, by its top rows and the rest: numpy
    runs a square product of a matrix and its transpose as the far slower syrk."""
    mt = m.transpose(0, 2, 1)
    return np.concatenate((m[:, :top].conj() @ mt, m[:, top:].conj() @ mt), axis=1)


def _windows(n: int, w: int) -> List[Tuple[int, ...]]:
    """The qubit sets read for weight class w, each ascending: for w <= 2 the
    unions of w blocks {0, 1}, {2, 3}, ... (an odd last qubit is a block of
    one), each padded with the lowest qubits outside it up to min(2w, n)
    qubits; above, the supports themselves, in combinations order."""
    if w > 2:
        return list(combinations(range(n), w))
    out = []
    for union in combinations([range(q, min(q + 2, n)) for q in range(0, n, 2)], w):
        s = [q for b in union for q in b]
        s += [q for q in range(n) if q not in s][: min(2 * w, n) - len(s)]
        out.append(tuple(sorted(s)))
    return out


@functools.lru_cache(maxsize=None)
def _layouts(n: int, w: int) -> Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]:
    """(window mask, shape, axis order) per window of weight class w
    (_windows): the codewords viewed with one axis per window bit and per run
    of bits around them, window bits moved in front, top first.  The copy's
    inner loop is the last axis: the contiguous run below the window if it
    has 16 entries or more, else the longest run (faster at n = 14).  Every
    (n, w) stays cached: one oracle pass at n = 10 .. 14 asks for more than
    16, and QUBIT_CAP bounds them."""
    out = []
    for s in _windows(n, w):
        u = len(s)
        cuts = (n,) + tuple(q for b in reversed(s) for q in (b + 1, b)) + (0,)
        shape = (-1,) + tuple(1 << (hi - lo) for hi, lo in zip(cuts, cuts[1:]))
        runs = sorted(range(1, 2 * u + 2, 2), key=lambda a: shape[-1] < 16 and shape[a])
        order = (0,) + tuple(range(2, 2 * u + 1, 2)) + tuple(runs)
        out.append((sum(1 << q for q in s), shape, order))
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _pair_tables(nc: int, u: int, w: int) -> Tuple[np.ndarray, ...]:
    """The pairs (pi, pj): (0, 0), the other diagonal ones, the rest.  Entry
    (p, k, y) of flat indexes R_{pi pj}[y xor k, y] in a flat (nc 2^u)^2 Gram
    matrix of a u-bit window; limit(k, l) is DEFAULT_TOL where k | l has w
    bits, else infinity, so a window tests only the operators of its class."""
    pairs = [(i, i) for i in range(nc)] + [(i, j) for i in range(nc) for j in range(i + 1, nc)]
    pi, pj = np.array(pairs).T
    y = np.arange(1 << u)
    flat = ((((pi[:, None, None] << u) + (y[:, None] ^ y)) * nc + pj[:, None, None]) << u) + y
    limit = np.where(_tables(u)[1][y[:, None] | y] == w, DEFAULT_TOL, np.inf)
    for t in (pi, pj, flat, limit):
        t.setflags(write=False)
    return pi, pj, flat, limit


def _lowest(m: int, w: int) -> int:
    """The lowest w set bits of m."""
    low = 0
    for _ in range(w):
        low |= m & -m
        m &= m - 1
    return low


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
    deadline: Deadline = NEVER,
) -> QeccVerdict:
    """Check the error-correction conditions on a codeword list by enumeration.

    For every O = X^k Z^l with weight(k | l) <= d - 1, all diagonal matrix
    elements must agree and all off-diagonal ones must vanish, within
    DEFAULT_TOL.  The witness (i, j, k, l) identifies the first violation in
    canonical (weight, k, l) order; diagonal witnesses have i == j.
    operators_checked counts the operators up to and including the
    witness's, or all of them.

    Weight classes w = 0 .. d - 1 run one after the other, each with one
    transposed copy, Gram and Sylvester product per window (module
    docstring, _windows): w blocks of two qubits for w <= 2, the support
    itself above.  A window tests the operators of weight exactly w inside
    it; one that lies in several windows is tested in each.  Windows go in
    chunks of at most BLOCK_BYTES of copies, one window at least, that never
    straddle a class.  The witness is the least (k, l, i, j) hit of the
    first class with one, where the scan stops; a chunk is skipped when Z on
    the lowest w qubits, the least weight-w operator of each of its windows,
    comes after a hit.  The deadline is checked once per chunk; a stop's
    BudgetExceededError carries its class as weight.
    """
    if not codewords:
        raise ValueError("need at least one codeword")
    n = codewords[0].n
    if any(c.n != n for c in codewords):
        raise ValueError("codeword qubit counts differ")
    if d < 1 or d > n:
        raise ValueError(f"need 1 <= d <= {n}")
    kets = np.stack([c.amps for c in codewords])
    nc = len(kets)
    overlaps = np.abs(_gram(kets[None], 1)[0] - np.eye(nc)) > DEFAULT_TOL
    if overlaps.any():
        i, j = sorted(np.argwhere(overlaps)[0])
        raise ValueError(f"codewords {i},{j} not orthonormal")
    total = sum(comb(n, w) * 3**w for w in range(d))
    if nc == 1:  # pair (0, 0) cannot fail: it is the reference
        return QeccVerdict(True, None, total)

    step = max(1, BLOCK_BYTES // kets.nbytes)
    widest = max(len(_layouts(n, w)) for w in range(d))
    scratch = np.empty(min(step, widest) * kets.size, kets.dtype)
    for w in range(d):
        layouts = _layouts(n, w)
        u = layouts[0][0].bit_count()
        pi, pj, flat, limit = _pair_tables(nc, u, w)
        hits = []  # the least (k, l, i, j) violation of each chunk with one
        for start in range(0, len(layouts), step):
            try:
                deadline.check()
            except BudgetExceededError as exc:
                exc.weight = w
                raise
            chunk = layouts[start : start + step]
            # w = 0 holds the overlaps checked above; Z on a window's lowest w
            # qubits is its least operator of weight w
            if not w or hits and min(hits)[:2] <= (0, min(_lowest(m, w) for m, _, _ in chunk)):
                continue
            copies = scratch[: len(chunk) * kets.size].reshape(len(chunk), nc << u, -1)
            for t, (_, shape, order) in enumerate(chunk):
                src = kets.reshape(shape).transpose(order)
                np.copyto(copies[t].reshape(src.shape), src)
            gram = _gram(copies, 1 << u).reshape(len(chunk), -1)
            vals = np.matmul(np.take(gram, flat, axis=1), _sylvester(u))
            vals[:, 1:nc] -= vals[:, :1]
            bad = np.abs(vals[:, 1:]) > limit
            if not bad.any():
                continue
            t, p, k, l = np.nonzero(bad)
            # local bit b of a window stands for its b-th qubit
            qubits = np.array([[q for q in range(n) if m >> q & 1] for m, _, _ in chunk])[t]
            k, l = ((np.stack((k, l))[:, :, None] >> np.arange(u) & 1) << qubits).sum(axis=2)
            h = np.lexsort((pj[p + 1], pi[p + 1], l, k))[0]
            hits.append((int(k[h]), int(l[h]), int(pi[p[h] + 1]), int(pj[p[h] + 1])))
        if hits:
            k, l, i, j = min(hits)
            witness = (i, j, BitString(n, k), BitString(n, l))
            return QeccVerdict(False, witness, _operators_before(n, w, k, l) + 1)
    return QeccVerdict(True, None, total)
