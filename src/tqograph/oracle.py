"""Dense state-vector reference implementation.

Builds graph states and graph basis states, evaluates Pauli matrix elements,
and checks the error-correction conditions exhaustively.  Everything here is
deliberately independent of the analytic machinery so the two can be compared.

Operator convention: ``X^k Z^l`` applies all Z factors first, so
``X^k Z^l |x> = (-1)^{l.x} |x xor k>``.  Enumerating (k, l) pairs covers Y up
to a global phase, which the phase-insensitive conditions never see.

The check takes one X pattern k at a time.  For codewords c_i and c_j the
row f(x) = conj(c_i[x xor k]) c_j[x] has the unnormalised Walsh-Hadamard
transform F(l) = sum_x (-1)^{l.x} f(x) = <c_i| X^k Z^l |c_j>, so one
transform of n 2^n additions gives the matrix elements for every l at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Tuple

import numpy as np

from .gf2 import BitString
from .graphs import Graph

QUBIT_CAP = 14
DEFAULT_TOL = 1e-9


class QubitCapExceededError(RuntimeError):
    """Raised when a state-vector build would exceed the qubit cap."""


class StateVector:
    """Normalized 2^n-dimensional state.  Immutable after construction."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
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


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise QubitCapExceededError(f"{n} qubits exceeds cap {cap}")


def _sign_table(n: int, mask: int) -> np.ndarray:
    """Entry x is (-1)^{popcount(x & mask)}; vectorized parity fold."""
    v = np.arange(1 << n, dtype=np.uint32) & np.uint32(mask)
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> np.uint32(shift)
    return 1.0 - 2.0 * (v & np.uint32(1)).astype(np.float64)


# (graph, |G>) of the last state built: one entry, so the graph basis states
# of one graph share a single build.
_last_graph_state: Optional[Tuple[Graph, StateVector]] = None


def build_graph_state(g: Graph, cap: int = QUBIT_CAP) -> StateVector:
    """CZ along every edge applied to the uniform superposition.

    Amplitude of |x> is 2^{-n/2} times (-1)^{#edges inside the support of x}.
    """
    global _last_graph_state
    _check_cap(g.n, cap)
    cached = _last_graph_state
    if cached is not None and cached[0].n == g.n and cached[0].edges == g.edges:
        return cached[1]
    idx = np.arange(1 << g.n, dtype=np.uint32)
    par = np.zeros(1 << g.n, dtype=np.uint32)
    for u, v in g.edges:
        par ^= (idx >> np.uint32(u)) & (idx >> np.uint32(v)) & np.uint32(1)
    amps = (1.0 - 2.0 * par.astype(np.float64)) * 2.0 ** (-g.n / 2)
    state = StateVector(g.n, amps)
    _last_graph_state = (g, state)
    return state


def graph_basis_state(g: Graph, h: BitString, cap: int = QUBIT_CAP) -> StateVector:
    """Z^h applied to the graph state of g."""
    if h.n != g.n:
        raise ValueError(f"length mismatch: {h.n} vs {g.n} vertices")
    base = build_graph_state(g, cap)
    return StateVector(g.n, base.amps * _sign_table(g.n, h.bits))


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
    idx = np.arange(1 << phi.n, dtype=np.uint32)
    bra = np.conj(phi.amps)[idx ^ np.uint32(k.bits)]
    return complex(np.sum(bra * _sign_table(phi.n, l.bits) * psi.amps))


@dataclass(frozen=True)
class QeccVerdict:
    ok: bool
    witness: Optional[Tuple[int, int, BitString, BitString]] = None
    operators_checked: int = 0

    def __bool__(self):
        return self.ok


def _popcounts(n: int) -> np.ndarray:
    """Entry x is popcount(x), for x < 2^n."""
    pc = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    return pc


def _walsh_hadamard(row: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Entry l of the result is sum_x (-1)^{l.x} row[x]; both inputs are scratch.

    Each pass sums out the lowest index bit and puts its sign bit on top, so
    after n passes sign bit b sits at position b again.
    """
    half = row.size // 2
    for _ in range(row.size.bit_length() - 1):
        even, odd = row[0::2], row[1::2]
        np.add(even, odd, out=spare[:half])
        np.subtract(even, odd, out=spare[half:])
        row, spare = spare, row
    return row


def _operators_before(n: int, pc: np.ndarray, w: int, k: int, l: int) -> int:
    """How many operators X^k' Z^l' precede (w, k, l) in canonical order."""
    count = sum(comb(n, v) * 3**v for v in range(w))
    # an X pattern with p ones carries 2^p C(n-p, w-p) operators of weight w
    per_pattern = np.bincount(pc[:k], minlength=n + 1)[: w + 1]
    count += sum(int(c) * 2**p * comb(n - p, w - p) for p, c in enumerate(per_pattern))
    return count + int(np.count_nonzero(pc[np.arange(l) & ~k] == w - int(pc[k])))


def brute_force_qecc_check(
    codewords: List[StateVector],
    d: int,
    tol: float = DEFAULT_TOL,
    deadline=None,
) -> QeccVerdict:
    """Check the error-correction conditions on a codeword list by enumeration.

    For every O = X^k Z^l with weight(k | l) <= d - 1, all diagonal matrix
    elements must agree and all off-diagonal ones must vanish, within tol.
    The witness (i, j, k, l) identifies the first violation in canonical
    (weight, k, l) order; diagonal witnesses have i == j.  operators_checked
    counts the operators up to and including the witness's, or all of them.

    Each X pattern k of weight <= d - 1 is transformed once per codeword pair
    (module docstring); for i == j the row is the difference from pair (0, 0).
    Patterns run in (weight, k) order.  Once the earliest violation so far has
    weight w and X pattern k_w, only patterns before (w, k_w) in that order
    can hold an earlier one, so the scan stops there.
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
            if abs(inner(ci, codewords[j]) - expect) > tol:
                raise ValueError(f"codewords {i},{j} not orthonormal")

    kets = [c.amps for c in codewords]
    # pair (0, 0) cannot fail: the other diagonal rows are compared with it
    pairs = [(i, j) for i in range(len(kets)) for j in range(i, len(kets)) if j]
    idx = np.arange(1 << n)
    pc = _popcounts(n)
    patterns = np.argsort(pc, kind="stable")[: sum(comb(n, w) for w in range(d))].tolist()
    row = np.empty(1 << n, dtype=np.complex128)
    spare = np.empty_like(row)
    best = None  # (w, k, l, i, j) of the earliest violation so far
    for k in patterns:
        pk = int(pc[k])
        if best is not None and (pk, k) > best[:2]:
            break
        if deadline is not None:
            deadline.check()
        flip = idx ^ k
        extra = pc[idx & ~k]  # weight(k | l) - weight(k)
        allowed = extra <= d - 1 - pk
        for i, j in pairs:
            np.take(kets[i], flip, out=row)
            np.conjugate(row, out=row)
            row *= kets[j]
            if i == j:
                np.take(kets[0], flip, out=spare)
                np.conjugate(spare, out=spare)
                spare *= kets[0]
                row -= spare
            vals = _walsh_hadamard(row, spare)
            bad = np.abs(vals) > tol
            bad &= allowed
            if bad.any():
                ls = np.flatnonzero(bad)
                l = int(ls[np.argmin(extra[ls])])
                hit = (pk + int(extra[l]), k, l, i, j)
                if best is None or hit[:3] < best[:3]:
                    best = hit
    if best is None:
        return QeccVerdict(True, None, sum(comb(n, w) * 3**w for w in range(d)))
    w, k, l, i, j = best
    witness = (i, j, BitString(n, k), BitString(n, l))
    return QeccVerdict(False, witness, _operators_before(n, pc, w, k, l) + 1)


def pauli_expectation(psi: StateVector, k: BitString, l: BitString) -> complex:
    return pauli_matrix_element(psi, psi, k, l)
