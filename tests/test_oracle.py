import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from tqograph import oracle
from tqograph.analysis import BudgetExceededError, Deadline, d_max
from tqograph.gf2 import BitString
from tqograph.graphs import Graph, complete, star, toric
from tqograph.oracle import (
    DEFAULT_TOL,
    QeccVerdict,
    QubitCapExceededError,
    StateVector,
    brute_force_qecc_check,
    build_graph_state,
    graph_basis_state,
    pauli_matrix_element,
)

from references import pauli_expectation

TOL = 1e-12


# --------------------------------------------------------------------------
# Reference: the per-operator check that brute_force_qecc_check replaced.

def pauli_pairs(n: int, w_max: int):
    """All (k, l) with weight(k | l) <= w_max, in canonical (w, k, l) order.

    Count is sum over w of C(n, w) * 3^w: each support position carries X,
    Z, or both.  Each weight class is built and sorted only when reached.
    """
    for w in range(w_max + 1):
        out = []
        for support in itertools.combinations(range(n), w):
            for choice in itertools.product((1, 2, 3), repeat=w):
                kb = lb = 0
                for pos, c in zip(support, choice):
                    if c & 1:
                        kb |= 1 << pos
                    if c & 2:
                        lb |= 1 << pos
                out.append((kb, lb))
        out.sort()
        for kb, lb in out:
            yield BitString(n, kb), BitString(n, lb)


def reference_qecc_check(codewords, d, tol=DEFAULT_TOL):
    """One pauli_matrix_element per operator and codeword pair, in order."""
    n = codewords[0].n
    count = 0
    for k, l in pauli_pairs(n, d - 1):
        count += 1
        diag0 = pauli_matrix_element(codewords[0], codewords[0], k, l)
        for i in range(len(codewords)):
            for j in range(i, len(codewords)):
                val = (
                    diag0
                    if (i, j) == (0, 0)
                    else pauli_matrix_element(codewords[i], codewords[j], k, l)
                )
                if i == j:
                    if abs(val - diag0) > tol:
                        return QeccVerdict(False, (i, i, k, l), count)
                elif abs(val) > tol:
                    return QeccVerdict(False, (i, j, k, l), count)
    return QeccVerdict(True, None, count)


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_norm_tolerance_above_the_blas_threading_size(self, dtype):
        # 2^14 entries, where np.linalg.norm would hand the sum to threaded
        # BLAS; the 1e-12 tolerance is kept for real and complex amplitudes
        rng = np.random.default_rng(14)
        a = rng.standard_normal(1 << 14).astype(dtype)
        if dtype is np.complex128:
            a = a + 1j * rng.standard_normal(1 << 14)
        a /= np.linalg.norm(a)
        assert StateVector(14, a * (1 + 2e-13)).amps.dtype == dtype
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(14, a * (1 + 5e-12))

    def test_equal_graphs_share_one_state(self):
        g = complete(3)
        first = build_graph_state(g)
        assert build_graph_state(Graph(g.n, g.edges, g.name)) is first
        assert graph_basis_state(Graph(g.n, g.edges, g.name), BitString(3, 1)).n == 3
        assert build_graph_state(g) is first
        assert build_graph_state(star(3)) is not first
        again = build_graph_state(g)  # star(3) evicted it: a new build
        assert again is not first and np.array_equal(again.amps, first.amps)

    def test_immutable(self):
        psi = build_graph_state(complete(2))
        with pytest.raises(AttributeError):
            psi.n = 3
        with pytest.raises(ValueError):
            psi.amps[0] = 9.0

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_caller_array_stays_writeable(self, dtype):
        a = np.array([1, 0], dtype=dtype)
        psi = StateVector(1, a)
        assert a.flags.writeable and psi.amps is not a
        assert not psi.amps.flags.writeable
        a[0] = 0.5  # the state keeps its own copy
        assert psi.amps[0] == 1.0 and psi.amps.dtype == dtype

    def test_real_input_stays_real(self):
        assert StateVector(1, [1, 0]).amps.dtype == np.float64
        assert StateVector(1, [1j, 0]).amps.dtype == np.complex128
        g = star(4)
        assert build_graph_state(g).amps.dtype == np.float64
        assert graph_basis_state(g, BitString(4, 6)).amps.dtype == np.float64


class TestGraphState:
    def test_two_vertex_amplitudes(self):
        psi = build_graph_state(complete(2))
        assert np.allclose(psi.amps, np.array([1, 1, 1, -1]) / 2)

    def test_triangle_amplitudes(self):
        # sign is (-1)^(#edges inside the support): -1 on every pair, and
        # (-1)^3 on the full support
        psi = build_graph_state(complete(3))
        want = np.array([1, 1, 1, -1, 1, -1, -1, -1]) / math.sqrt(8)
        assert np.allclose(psi.amps, want)

    def test_edgeless_is_uniform(self):
        psi = build_graph_state(complete(1))
        assert np.allclose(psi.amps, [1 / math.sqrt(2)] * 2)

    def test_cap(self):
        with pytest.raises(QubitCapExceededError):
            build_graph_state(toric(3))  # 18 qubits
        build_graph_state(toric(2))  # 8 qubits is fine

    def test_basis_state_sign_flip(self):
        g = star(3)
        base = build_graph_state(g)
        flipped = graph_basis_state(g, BitString(3, 1 << 1))
        idx = np.arange(8)
        signs = 1 - 2 * ((idx >> 1) & 1)
        assert np.allclose(flipped.amps, base.amps * signs)

    def test_basis_states_orthonormal(self):
        g = star(4)
        states = [graph_basis_state(g, BitString(4, h)) for h in range(16)]
        for i in range(16):
            for j in range(16):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(states[i].amps, states[j].amps) - want) < TOL

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            graph_basis_state(star(3), BitString(4))


class TestPauliMatrixElement:
    def test_z_applied_first(self):
        # X^k Z^l |x> = (-1)^(l.x) |x xor k>: Z factors see the original x
        psi = StateVector(2, np.array([0, 0, 0, 1.0]))  # |11>
        phi = StateVector(2, np.array([0, 0, 1.0, 0]))  # |01>
        val = pauli_matrix_element(phi, psi, BitString.from_text("10"), BitString.from_text("01"))
        assert abs(val - (-1.0)) < TOL  # Z on qubit 1, x1 = 1
        val2 = pauli_matrix_element(phi, psi, BitString.from_text("10"), BitString.from_text("10"))
        assert abs(val2 - (-1.0)) < TOL  # Z sees x0 = 1 before X flips it
        val3 = pauli_matrix_element(psi, psi, BitString.from_text("00"), BitString.from_text("11"))
        assert abs(val3 - 1.0) < TOL  # two Z signs cancel on |11>

    def test_matches_vdot_on_complex_states(self):
        # the einsum reduction against np.vdot, the BLAS form it replaced
        rng = random.Random("matrix-element-vdot")
        g = Graph.from_edges(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                                  if rng.random() < 0.3])
        plain = [build_graph_state(g), graph_basis_state(g, BitString(14, 0x2A5))]
        phi, psi = _phase_twist(plain, rng)
        idx, _, sign = oracle._tables(14)
        for _ in range(20):
            k, l = BitString(14, rng.getrandbits(14)), BitString(14, rng.getrandbits(14))
            want = np.vdot(phi.amps[idx ^ k.bits] * sign[idx & l.bits], psi.amps)
            assert abs(pauli_matrix_element(phi, psi, k, l) - want) < 1e-12

    def test_stabilizer_expectations(self):
        # generator i (X on i, Z on neighbors) fixes the graph state
        for g in (star(4), complete(4), toric(2)):
            psi = build_graph_state(g)
            a = g.adjacency()
            for i in range(g.n):
                k = BitString(g.n, 1 << i)
                val = pauli_expectation(psi, k, a.mat_vec(k))
                assert abs(val - 1.0) < TOL

    def test_basis_state_eigenvalues(self):
        # the label flips generator i exactly when bit i of h is set
        g = complete(4)
        a = g.adjacency()
        h = BitString.from_text("1010")
        psi = graph_basis_state(g, h)
        for i in range(4):
            k = BitString(4, 1 << i)
            val = pauli_expectation(psi, k, a.mat_vec(k))
            assert abs(val - (-1.0 if h.bit(i) else 1.0)) < TOL

    def test_length_checks(self):
        psi = build_graph_state(star(3))
        phi = build_graph_state(star(4))
        with pytest.raises(ValueError):
            pauli_matrix_element(phi, psi, BitString(3), BitString(3))
        with pytest.raises(ValueError):
            pauli_matrix_element(psi, psi, BitString(4), BitString(3))


class TestPauliPairs:
    @pytest.mark.parametrize("n,w", [(3, 1), (4, 2), (5, 3)])
    def test_count(self, n, w):
        want = sum(math.comb(n, ww) * 3**ww for ww in range(w + 1))
        assert sum(1 for _ in pauli_pairs(n, w)) == want

    def test_first_is_identity_and_order(self):
        pairs = list(pauli_pairs(3, 2))
        assert pairs[0][0].is_zero() and pairs[0][1].is_zero()
        keys = [((k | l).weight(), k.bits, l.bits) for k, l in pairs]
        assert keys == sorted(keys)

    def test_unique(self):
        pairs = [(k.bits, l.bits) for k, l in pauli_pairs(4, 2)]
        assert len(pairs) == len(set(pairs))


class TestQeccCheck:
    def test_star_pair_passes_at_distance_two(self):
        g = star(4)
        states = [build_graph_state(g), graph_basis_state(g, BitString.from_text("0110"))]
        verdict = brute_force_qecc_check(states, 2)
        assert verdict.ok and verdict.witness is None
        assert verdict.operators_checked == 1 + 4 * 3

    def test_complete_pair_passes_at_distance_two(self):
        g = complete(4)
        states = [build_graph_state(g), graph_basis_state(g, BitString.from_text("1100"))]
        assert brute_force_qecc_check(states, 2).ok

    def test_all_ones_label_fails_on_complete(self):
        g = complete(4)
        states = [build_graph_state(g), graph_basis_state(g, BitString(4, 0b1111))]
        verdict = brute_force_qecc_check(states, 2)
        assert not verdict.ok
        i, j, k, l = verdict.witness
        # X Z on qubit 0 (Y up to phase) maps |G> onto the all-ones label
        assert (i, j, k.to_text(), l.to_text()) == (0, 1, "1000", "1000")
        assert verdict.operators_checked == 7

    def test_distance_three_fails_on_star_pair(self):
        g = star(4)
        states = [build_graph_state(g), graph_basis_state(g, BitString.from_text("0110"))]
        verdict = brute_force_qecc_check(states, 3)
        assert not verdict.ok and verdict.witness is not None

    def test_input_validation(self):
        g = star(3)
        psi = build_graph_state(g)
        with pytest.raises(ValueError, match="at least one"):
            brute_force_qecc_check([], 2)
        with pytest.raises(ValueError, match="not orthonormal"):
            brute_force_qecc_check([psi, psi], 2)
        with pytest.raises(ValueError, match="1 <= d"):
            brute_force_qecc_check([psi], 4)

    def test_deadline_checked(self):
        g = star(4)
        states = [build_graph_state(g), graph_basis_state(g, BitString.from_text("0110"))]
        with pytest.raises(BudgetExceededError, match="time budget"):
            brute_force_qecc_check(states, 2, deadline=Deadline(0.0))

    @pytest.mark.parametrize("per_block,stop,weight", [
        (1, 1, 0), (1, 2, 1), (1, 9, 1), (1, 10, 2), (1, 37, 2),
        (4, 3, 1), (4, 4, 2)])
    def test_budget_stop_names_the_weight_class(self, monkeypatch, per_block, stop, weight):
        # check t comes before chunk t - 1; on 16 qubits at d = 3 the weight
        # classes hold 1 + 8 + 28 windows (the empty one, the 8 blocks of two
        # qubits, the 28 pairs of blocks), in chunks of per_block windows that
        # never straddle a class.  The code is two copies of the toric(2) one
        g = toric(2)
        pair = [build_graph_state(g), graph_basis_state(g, BitString.from_text("10100101"))]
        states = [StateVector(16, np.kron(c.amps, c.amps)) for c in pair]
        monkeypatch.setattr(oracle, "BLOCK_BYTES", _block_bytes(states, per_block))
        deadline = StopAtCheck(stop)
        with pytest.raises(BudgetExceededError) as info:
            brute_force_qecc_check(states, 3, deadline=deadline)
        assert info.value.weight == weight and deadline.checks == stop
        assert str(info.value) == "time budget of 0.000s exhausted"
        assert isinstance(info.value, BudgetExceededError)
        # one check more than there are chunks lets the scan finish
        chunks = sum(-(-windows // per_block) for windows in (1, 8, 28))
        deadline = StopAtCheck(chunks + 1)
        assert brute_force_qecc_check(states, 3, deadline=deadline).ok
        assert deadline.checks == chunks

    def test_weight_one_witness_stops_after_its_class(self, monkeypatch):
        # Z on vertex 5 maps |G> onto the label state: the witness has weight
        # 1, so the scan checks class 0 and the 5 windows of class 1 (the
        # blocks of two qubits), one chunk each, and stops
        g = Graph.from_edges(10, [(v, (v + 1) % 10) for v in range(10)] + [(0, 5)])
        states = [build_graph_state(g), graph_basis_state(g, BitString(10, 1 << 5))]
        monkeypatch.setattr(oracle, "BLOCK_BYTES", 1)
        deadline = StopAtCheck(0)
        verdict = brute_force_qecc_check(states, 4, deadline=deadline)
        assert _verdict_key(verdict) == (False, (0, 1, 0, 1 << 5), 1 + 6)  # after I, Z_0 .. Z_4
        assert deadline.checks == 1 + 5

    def test_weight_one_z_witness_within_half_the_qubits_of_chunks(self, monkeypatch):
        # a non-member label e_v is the syndrome of Z_v: class 1 copies and
        # multiplies the windows up to v's block of two qubits, at most
        # ceil(n / 2) of them, and stops
        n = 14
        g = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)] + [(0, 7), (3, 10)])
        base = build_graph_state(g)
        grams = []
        gram = oracle._gram
        monkeypatch.setattr(oracle, "_gram", lambda m, top: grams.append(len(m)) or gram(m, top))
        monkeypatch.setattr(oracle, "BLOCK_BYTES", 1)
        for v in (0, 5, 8, 13):
            states = [base, graph_basis_state(g, BitString(n, 1 << v))]
            grams.clear()
            verdict = _verdict_key(brute_force_qecc_check(states, 3))
            assert verdict == _verdict_key(reference_qecc_check(states, 3))
            assert verdict == (False, (0, 1, 0, 1 << v), 1 + v + 1)
            # the first product is the orthonormality check
            assert grams[1:] == [1] * (v // 2 + 1) and v // 2 + 1 <= -(-n // 2)

    @pytest.mark.parametrize("n,d,edges,label", [
        (14, 3, [(0, 1), (0, 2), (0, 4), (0, 12), (1, 8), (1, 11), (1, 13), (2, 4), (2, 5),
                 (2, 6), (2, 11), (2, 13), (3, 7), (3, 9), (3, 10), (3, 11), (3, 13), (4, 13),
                 (5, 8), (5, 10), (6, 7), (6, 12), (7, 10), (8, 11), (9, 12), (9, 13), (12, 13)],
         "11100100000000"),
        (11, 4, [(0, 1), (0, 7), (0, 10), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (1, 10),
                 (2, 6), (3, 4), (3, 6), (3, 7), (3, 8), (4, 7), (4, 8), (5, 8), (5, 9),
                 (5, 10), (6, 10), (7, 10)],
         "01010110101"),
    ])
    def test_member_check_memory(self, n, d, edges, label):
        # a member scans every window of every class <= d - 1: the peak is
        # the stacked codewords and one chunk of copies (BLOCK_BYTES) plus
        # the small per-chunk matrices
        g = Graph.from_edges(n, edges)
        states = [build_graph_state(g), graph_basis_state(g, BitString.from_text(label))]
        tracemalloc.start()
        try:
            assert brute_force_qecc_check(states, d).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20

    @pytest.mark.parametrize("w", range(5))
    def test_each_operator_is_read_on_its_own_support_only(self, w):
        # a window of u qubits gives 4^u (k, l); class w tests only the
        # C(u, w) 3^w whose k | l has w bits.  Every support of weight w lies
        # in a window, so each operator is tested at least once, in its class
        for n in range(w + 1, 15):  # d <= n, so w < n
            masks = [m for m, _, _ in oracle._layouts(n, w)]
            u = min(2 * w, n) if w <= 2 else w
            assert {m.bit_count() for m in masks} == {u} and len(set(masks)) == len(masks)
            for s in itertools.combinations(range(n), w):
                support = sum(1 << q for q in s)
                assert any(m & support == support for m in masks)
            limit = oracle._pair_tables(2, u, w)[3]
            k, l = np.nonzero(np.isfinite(limit))
            assert len(k) == math.comb(u, w) * 3**w
            assert all((int(a) | int(b)).bit_count() == w for a, b in zip(k, l))

    def test_single_codeword_trivially_consistent(self):
        verdict = brute_force_qecc_check([build_graph_state(star(3))], 2)
        assert verdict.ok


class StopAtCheck:
    """A deadline that runs out at its stop-th check."""

    def __init__(self, stop):
        self.stop, self.checks = stop, 0

    def check(self):
        self.checks += 1
        if self.checks == self.stop:
            raise BudgetExceededError("time budget of 0.000s exhausted")


def _verdict_key(verdict):
    w = verdict.witness
    return (verdict.ok,
            None if w is None else (w[0], w[1], w[2].bits, w[3].bits),
            verdict.operators_checked)


def _phase_twist(states, rng):
    """A generic phase on |1> of each qubit, and a global phase per state.

    Both are local unitaries, so they map the operators of weight <= d - 1
    onto their own span: the verdict's ok is kept, while the amplitudes and
    matrix elements become generic complex numbers.
    """
    n = states[0].n
    idx = np.arange(1 << n)
    twist = np.ones(1 << n, dtype=np.complex128)
    for q in range(n):
        twist[(idx >> q) & 1 == 1] *= np.exp(1j * rng.uniform(0, 2 * math.pi))
    return [StateVector(n, s.amps * twist * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            for s in states]


class TestQeccMatchesReference:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_distance(self, n):
        rng = random.Random(f"qecc-reference:{n}")
        density = rng.choice((0.2, 0.4, 0.6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph.from_edges(n, edges)
        labels = rng.sample(range(1, 1 << n), rng.randint(1, min(3, (1 << n) - 1)))
        plain = [build_graph_state(g)] + [graph_basis_state(g, BitString(n, h)) for h in labels]
        twisted = _phase_twist(plain, rng)
        for d in range(1, n + 1):
            want = _verdict_key(reference_qecc_check(plain, d))
            assert _verdict_key(brute_force_qecc_check(plain, d)) == want, (d, labels)
            got = _verdict_key(brute_force_qecc_check(twisted, d))
            assert got == _verdict_key(reference_qecc_check(twisted, d)), (d, labels)
            assert got[0] == want[0]

    @pytest.mark.parametrize("n", (11, 12))
    def test_larger_graphs(self, n):
        # a random connected graph with 2n - 1 edges, its d_max certificate
        # (a member up to d_max), and two random labels, for d <= 4
        rng = random.Random(f"qecc-reference:{n}")
        edges = {(rng.randrange(u), u) for u in range(1, n)}
        while len(edges) < 2 * n - 1:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph.from_edges(n, sorted(edges))
        cert = d_max(g).certificate
        base = build_graph_state(g)
        for labels in ([cert.bits], rng.sample(range(1, 1 << n), 2)):
            plain = [base] + [graph_basis_state(g, BitString(n, h)) for h in labels]
            twisted = _phase_twist(plain, rng)
            for d in range(1, 5):
                want = _verdict_key(reference_qecc_check(plain, d))
                assert _verdict_key(brute_force_qecc_check(plain, d)) == want, (d, labels)
                got = _verdict_key(brute_force_qecc_check(twisted, d))
                assert got == _verdict_key(reference_qecc_check(twisted, d)), (d, labels)
                assert got[0] == want[0]

    def test_distance_three_member(self):
        # d_max(toric(2)) = 3 with this certificate, so d = 3 scans every operator
        g = toric(2)
        plain = [build_graph_state(g), graph_basis_state(g, BitString.from_text("10100101"))]
        for states in (plain, _phase_twist(plain, random.Random("qecc-reference:toric"))):
            verdicts = [_verdict_key(brute_force_qecc_check(states, d)) for d in range(1, 5)]
            assert verdicts == [_verdict_key(reference_qecc_check(states, d)) for d in range(1, 5)]
            assert [ok for ok, _, _ in verdicts] == [True, True, True, False]

    def test_lightest_z_pattern_wins_over_smallest_integer(self):
        # <+++| Z^l |c1> is nonzero only at l = 3 (weight 2) and l = 4
        # (weight 1): the witness is Z on qubit 2, although 3 < 4
        plain = [StateVector(3, np.full(8, 8**-0.5)),
                 StateVector(3, np.array([0, -1, -1, 0, 1, 0, 0, 1]) / 2)]
        for d in (1, 2, 3):
            want = _verdict_key(reference_qecc_check(plain, d))
            assert _verdict_key(brute_force_qecc_check(plain, d)) == want
        verdict = brute_force_qecc_check(plain, 3)
        i, j, k, l = verdict.witness
        assert (i, j, k.to_text(), l.to_text()) == (0, 1, "000", "001")
        assert verdict.operators_checked == 4

    def test_later_pattern_of_the_same_weight_can_win(self):
        # X0 X1 is a stabilizer (vertices 0 and 1 share neighbours 3 and 5)
        # whose sign the label flips.  Pattern X2 is reached first and gives a
        # weight-2 violation, but pattern X0 X1 = 3 < 4 comes before it
        g = Graph.from_edges(6, [(0, 3), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)])
        plain = [build_graph_state(g), graph_basis_state(g, BitString(6, 62))]
        verdict = brute_force_qecc_check(plain, 3)
        assert _verdict_key(verdict) == _verdict_key(reference_qecc_check(plain, 3))
        assert _verdict_key(verdict) == (False, (1, 1, 3, 0), 55)


def _block_bytes(states, windows):
    """BLOCK_BYTES that holds `windows` transposed copies of these states."""
    itemsize = max(s.amps.itemsize for s in states)
    return windows * len(states) * itemsize << states[0].n


class TestQeccBlocks:
    """Chunk boundaries: one window per chunk, a chunk as wide as the widest
    weight class, and the default; the verdict is the per-operator
    reference's either way."""

    @staticmethod
    def _check_all_blocks(monkeypatch, states, d):
        want = _verdict_key(reference_qecc_check(states, d))
        n = states[0].n
        widest = max(len(oracle._layouts(n, w)) for w in range(d))
        for size in (1, _block_bytes(states, widest), oracle.BLOCK_BYTES):
            monkeypatch.setattr(oracle, "BLOCK_BYTES", size)
            assert _verdict_key(brute_force_qecc_check(states, d)) == want, (d, size)
        return want

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_graphs(self, monkeypatch, n):
        # every d up to n = 10 (odd and even n, and n < 2w at n = 3); at n =
        # 11 and 12, d <= 3, also on the d_max certificate (d_max = 3 on both
        # graphs), a member whose check reads every window
        rng = random.Random(f"qecc-blocks:{n}")
        density = rng.choice((0.2, 0.4, 0.6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph.from_edges(n, edges)
        label_sets = [rng.sample(range(1, 1 << n), rng.randint(0, min(3, (1 << n) - 1)))]
        if n > 10:
            label_sets.append([d_max(g).certificate.bits])
        for labels in label_sets:
            plain = [build_graph_state(g)] + [graph_basis_state(g, BitString(n, h))
                                              for h in labels]
            twisted = _phase_twist(plain, rng)
            for d in range(1, (n if n <= 10 else 3) + 1):
                ok = self._check_all_blocks(monkeypatch, plain, d)[0]
                assert self._check_all_blocks(monkeypatch, twisted, d)[0] == ok
        if n > 10:
            assert ok  # the last set, the certificate, at d = 3

    def test_earlier_pair_wins_a_tie(self, monkeypatch):
        # |+0>, |-+>, |-->: Z on qubit 0 maps the first onto a state that
        # overlaps both others, so pairs (0, 1) and (0, 2) violate at the same
        # first operator, and the earlier pair is the witness
        states = [StateVector(2, np.array([1, 1, 0, 0]) / math.sqrt(2)),
                  StateVector(2, np.array([1, -1, 1, -1]) / 2),
                  StateVector(2, np.array([1, -1, -1, 1]) / 2)]
        assert self._check_all_blocks(monkeypatch, states, 2) == (False, (0, 1, 0, 1), 2)
        # |00>, |10>, |11> (qubit 0 first): Z on qubit 0 has expectation
        # 1, -1, -1, so the diagonal pairs (1, 1) and (2, 2) tie, and (1, 1) wins
        basis = [StateVector(2, np.eye(4)[x]) for x in (0, 1, 3)]
        assert self._check_all_blocks(monkeypatch, basis, 2) == (False, (1, 1, 0, 1), 2)

    def test_real_and_complex_codewords_mix(self, monkeypatch):
        g = star(4)
        real = [build_graph_state(g), graph_basis_state(g, BitString.from_text("0110"))]
        for states in ([real[0], StateVector(4, real[1].amps * 1j)],
                       [StateVector(4, real[0].amps * 1j), real[1]]):
            for d in (1, 2, 3):
                want = self._check_all_blocks(monkeypatch, real, d)
                assert self._check_all_blocks(monkeypatch, states, d) == want

    def test_later_chunk_can_hold_a_lighter_z_pattern(self, monkeypatch):
        # On the 8-cycle, labels 66 (qubits 1, 6) and 36 (qubits 2, 5)
        # violate at Z^66 and Z^36.  In chunks of 3 windows of weight 2, the
        # blocks {0, 1} and {6, 7} end the first chunk, while {2, 3} and
        # {4, 5}, the only window holding qubits 2 and 5, start the second:
        # that chunk must still run, and Z^36 is the witness
        g = Graph.from_edges(8, [(v, (v + 1) % 8) for v in range(8)])
        states = [build_graph_state(g)] + [graph_basis_state(g, BitString(8, h)) for h in (66, 36)]
        monkeypatch.setattr(oracle, "BLOCK_BYTES", _block_bytes(states, 3))
        assert [m for m, _, _ in oracle._layouts(8, 2)][2:4] == [0b11000011, 0b00111100]
        verdict = _verdict_key(brute_force_qecc_check(states, 3))
        assert verdict == _verdict_key(reference_qecc_check(states, 3))
        assert verdict[:2] == (False, (0, 2, 0, 36))
        # Class 3 reads supports, in combinations order: with labels 19
        # (qubits 0, 1, 4) and 13 (qubits 0, 2, 3) on this 8-vertex graph,
        # Z^19 sits in the first chunk of 4 supports, and Z^13 in the second
        # behind (0, 1, 6) and (0, 1, 7), which come after Z^19: the chunk
        # must still run, and Z^13 is the witness
        g = Graph.from_edges(8, [(0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (1, 7), (2, 4),
                                 (2, 5), (3, 5), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7)])
        states = [build_graph_state(g)] + [graph_basis_state(g, BitString(8, h)) for h in (19, 13)]
        monkeypatch.setattr(oracle, "BLOCK_BYTES", _block_bytes(states, 4))
        verdict = _verdict_key(brute_force_qecc_check(states, 4))
        assert verdict == _verdict_key(reference_qecc_check(states, 4))
        assert verdict[:2] == (False, (0, 2, 0, 13))

    def test_lighter_z_pattern_wins_over_earlier_pair(self, monkeypatch):
        # |0+> and (|0-> + |1+>)/sqrt 2: pair (1, 1) violates at Z on qubit 0
        # (l = 1), and pair (0, 1) only at Z on qubit 1 (l = 2), both under the
        # same X pattern; l orders before the pair
        states = [StateVector(2, np.array([1, 0, 1, 0]) / math.sqrt(2)),
                  StateVector(2, np.array([1, 1, -1, 1]) / 2)]
        assert self._check_all_blocks(monkeypatch, states, 2) == (False, (1, 1, 0, 1), 2)


def test_layouts_stay_cached_across_rounds():
    # a round of checks at n = 10 .. 14 and d <= 4 asks for more (n, w)
    # layouts than a 16-entry cache holds; the second round rebuilds none
    rng = random.Random("layouts")
    plans = []
    for n in range(10, 15):
        g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.5])
        h = d_max(g).certificate
        plans.append([build_graph_state(g), graph_basis_state(g, h)])

    def check_all():
        for states in plans:
            for d in range(1, 5):
                brute_force_qecc_check(states, d)

    oracle._layouts.cache_clear()
    check_all()
    first = oracle._layouts.cache_info()
    assert first.currsize > 16
    check_all()
    assert oracle._layouts.cache_info().misses == first.misses
