import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tqograph import gf2
from tqograph.gf2 import BitString, Echelon, Gf2Matrix, cluster_xors, dot, pair_counts, support_xors
from tqograph.graphs import Graph, toric

from references import (connected_support_xors, reference_cluster_xors, reference_kernel_basis,
                        reference_row_reduce, transpose)


def bits(text):
    return BitString.from_text(text)


def independent_subset(vectors):
    """Maximal independent sublist, greedy in input order: the reference
    that Gf2Matrix.rank is checked against."""
    elim, kept = [], []  # elimination basis, each with a distinct pivot
    for v in vectors:
        r = v.bits
        for e in elim:
            if r & (e & -e):
                r ^= e
        if r:
            elim.append(r)
            kept.append(v)
    return kept


def is_connected(support, nbrs):
    """Plain search: is the vertex set connected in the neighbour-mask graph?"""
    if not support:
        return True
    todo, seen = [min(support)], {min(support)}
    while todo:
        u = todo.pop()
        for v in support:
            if v not in seen and (nbrs[u] >> v) & 1:
                seen.add(v)
                todo.append(v)
    return seen == set(support)


class TestBitString:
    def test_weight(self):
        assert BitString(5).weight() == 0
        assert BitString(4, 0b1111).weight() == 4
        assert bits("0110").weight() == 2

    def test_text_round_trip(self):
        for t in ("", "0", "1", "0110", "111100"):
            assert bits(t).to_text() == t

    def test_text_matches_per_bit_join(self):
        # the format-based to_text against the per-bit join it replaced
        rng = random.Random(3)
        cases = [(0, 0), (1, 1), (70, 1 << 69), (70, (1 << 70) - 1)]
        cases += [(n, rng.getrandbits(n) | (1 << (n - 1)) * rng.randrange(2))
                  for n in (rng.randrange(1, 71) for _ in range(200))]
        for n, x in cases:
            want = "".join("1" if (x >> i) & 1 else "0" for i in range(n))
            assert BitString(n, x).to_text() == want, (n, x)

    def test_text_leftmost_is_bit_zero(self):
        b = bits("10")
        assert b.bit(0) == 1 and b.bit(1) == 0
        assert b.bits == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bits("01") ^ bits("011")
        with pytest.raises(ValueError):
            dot(bits("01"), bits("011"))

    def test_immutable(self):
        b = bits("01")
        with pytest.raises(AttributeError):
            b.bits = 3

    def test_dot(self):
        assert dot(bits("111100"), bits("100110")) == 0
        assert dot(bits("100110"), bits("011010")) == 1
        assert dot(bits("10110"), BitString(5)) == 0

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    def test_xor_weight_identity(self, a, b):
        x, y = BitString(12, a), BitString(12, b)
        assert (x ^ y).weight() == x.weight() + y.weight() - 2 * (x & y).weight()

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_support_matches_bits(self, a, b):
        x = BitString(10, a)
        assert sum(1 << i for i in x.support()) == x.bits


class TestGf2Matrix:
    def test_row_column_transpose(self):
        m = Gf2Matrix(2, 3, [0b011, 0b110])
        assert BitString(3, m.row_bits[0]).to_text() == "110"
        assert BitString(2, transpose(m.row_bits, 3)[0]).to_text() == "10"
        assert transpose(m.row_bits, 3) == (0b01, 0b11, 0b10)
        assert transpose(transpose(m.row_bits, 3), 2) == m.row_bits

    def test_is_symmetric(self):
        # a matrix is symmetric iff its column bitsets equal its rows
        eye = Gf2Matrix(3, 3, [1, 2, 4])
        assert transpose(eye.row_bits, 3) == eye.row_bits
        m = Gf2Matrix(2, 2, [0b10, 0b00])
        assert transpose(m.row_bits, 2) != m.row_bits

    def test_equality_and_hash_ignore_the_row_container(self):
        a, b = Gf2Matrix(2, 3, [0b011, 0b110]), Gf2Matrix(2, 3, (0b011, 0b110))
        assert a == b and hash(a) == hash(b) and a.row_bits == (0b011, 0b110)
        assert a == Gf2Matrix(2, 3, iter([0b011, 0b110]))
        assert a != Gf2Matrix(2, 3, [0b011, 0b111]) and a != Gf2Matrix(2, 4, [0b011, 0b110])
        assert repr(a) == "Gf2Matrix(2x3)"

    def test_immutable(self):
        m = Gf2Matrix(2, 2, [1, 2])
        for name in ("rows", "row_bits", "_col_bits"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)

    def test_mat_vec(self):
        star = Gf2Matrix(4, 4, [0b1110, 0b0001, 0b0001, 0b0001])
        assert star.mat_vec(BitString(4)).is_zero()
        # leaf maps to the hub
        assert star.mat_vec(BitString(4, 1 << 2)) == BitString(4, 1)
        jm1 = Gf2Matrix(4, 4, [0b1110, 0b1101, 0b1011, 0b0111])
        assert jm1.mat_vec(BitString(4, 1 << 1)).to_text() == "1011"
        with pytest.raises(ValueError):
            star.mat_vec(BitString(3))

    def test_rank_kernel_identity_and_zero(self):
        eye = Gf2Matrix(4, 4, [1 << i for i in range(4)])
        assert eye.rank() == 4
        assert eye.kernel_basis() == []
        z = Gf2Matrix(3, 3, [0] * 3)
        assert z.rank() == 0
        assert z.kernel_basis() == [BitString(3, 1 << i) for i in range(3)]

    def test_kernel_orthogonal_to_rows(self):
        m = Gf2Matrix.from_rows([bits("1100"), bits("0110")])
        ker = m.kernel_basis()
        assert len(ker) == 2
        for v in ker:
            assert m.mat_vec(v).is_zero()

    @given(st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=8))
    def test_rank_plus_nullity(self, rows):
        m = Gf2Matrix(len(rows), 8, rows)
        assert m.rank() + len(m.kernel_basis()) == 8
        for v in m.kernel_basis():
            assert m.mat_vec(v).is_zero()
        # fully reduced on highest bits: no other vector has a vector's top bit
        ker = [v.bits for v in m.kernel_basis()]
        for v in ker:
            top = 1 << (v.bit_length() - 1)
            assert [u for u in ker if u & top] == [v]

    @given(
        st.lists(st.integers(0, 2**6 - 1), min_size=1, max_size=6),
        st.integers(0, 2**6 - 1),
        st.integers(0, 2**6 - 1),
    )
    def test_transpose_adjoint(self, rows, kb, lb):
        # the row-parity mat_vec against the test-side transpose
        m = Gf2Matrix(len(rows), 6, rows)
        k, l = BitString(len(rows), kb % (1 << len(rows))), BitString(6, lb)
        mt = Gf2Matrix(6, len(rows), transpose(rows, 6))
        assert dot(k, m.mat_vec(l)) == dot(mt.mat_vec(k), l)


def seeded_matrices():
    """(rows, cols, row ints) for seeded random matrices with zero rows and
    rows that are xors of earlier ones, plus the 0 x n and n x 0 shapes."""
    out = [(0, 0, []), (0, 5, []), (4, 0, [0] * 4), (3, 3, [0] * 3)]
    for seed in range(300):
        rng = random.Random(seed)
        cols = rng.randint(1, 40)
        rows = []
        for _ in range(rng.randint(1, 30)):
            pick = rng.random()
            if pick < 0.1:
                rows.append(0)
            elif pick < 0.4 and rows:
                rows.append(rows[rng.randrange(len(rows))] ^ rows[rng.randrange(len(rows))])
            else:
                # sparse or dense, so that pivots spread over the columns
                rows.append(rng.getrandbits(cols) & rng.getrandbits(cols) if seed % 2
                            else rng.getrandbits(cols))
        out.append((len(rows), cols, rows))
    return out


class TestEchelon:
    """Echelon and what runs on it against the full row reduction it replaced."""

    @pytest.mark.parametrize("rows, cols, row_bits", seeded_matrices())
    def test_matches_full_reduction(self, rows, cols, row_bits):
        m = Gf2Matrix(rows, cols, row_bits)
        pivots, reduced = reference_row_reduce(row_bits)
        assert m.rank() == len(pivots)
        assert [v.bits for v in m.kernel_basis()] == reference_kernel_basis(row_bits, cols)
        assert Echelon(row_bits).kernel_basis(cols) == reference_kernel_basis(row_bits, cols)
        ech = Echelon()
        for i, r in enumerate(row_bits):
            before = len(ech.rows)
            assert ech.add(r) == (len(ech.rows) == before + 1)
            assert len(ech.rows) == len(reference_row_reduce(row_bits[: i + 1])[0])
        assert ech.pivots == sum(1 << p for p in pivots)
        assert sorted(ech.rows) == pivots
        rng = random.Random(rows * 1000 + cols)
        for x in [0, *row_bits, *(rng.getrandbits(cols) for _ in range(10))]:
            want = x
            for p, r in zip(pivots, reduced):
                if (want >> p) & 1:
                    want ^= r
            assert ech.reduce(x) == want

    def test_no_row_holds_an_earlier_pivot(self):
        ech = Echelon([0b0011, 0b0110, 0b0101, 0b1100])
        rows = list(ech.rows.items())
        assert [p for p, _ in rows] == [0, 1, 2]
        for i, (_, r) in enumerate(rows):
            assert not any((r >> p) & 1 for p, _ in rows[:i])

    def test_kernel_basis_on_ints(self):
        # the Gf2Matrix cases above: identity, zero, two rows of width 4
        assert Echelon([1 << i for i in range(4)]).kernel_basis(4) == []
        assert Echelon([0, 0, 0]).kernel_basis(3) == [1, 2, 4]
        assert Echelon().kernel_basis(0) == []
        assert Echelon([0b0011, 0b0110]).kernel_basis(4) == [0b0111, 0b1000]

    def test_kernel_basis_as_rows_are_added(self):
        # rows added over several calls, as a search adds each weight class
        rng = random.Random(5)
        ech, rows = Echelon(), []
        for _ in range(12):
            r = rng.getrandbits(16) & rng.getrandbits(16)
            ech.add(r)
            rows.append(r)
            assert ech.kernel_basis(16) == reference_kernel_basis(rows, 16)

    def test_add_reports_independence(self):
        ech = Echelon()
        assert ech.add(0b101) and ech.add(0b011)
        assert not ech.add(0b110) and not ech.add(0)
        assert ech.reduce(0b110) == 0
        assert ech.reduce(0b1000) == 0b1000


class TestIndependentSubset:
    def test_dependent_inputs_dropped(self):
        k, l = bits("1010"), bits("0110")
        out = independent_subset([BitString(4), k, l, k ^ l])
        assert out == [k, l]

    def test_empty_and_duplicate(self):
        assert independent_subset([]) == []
        b = BitString(3, 1 << 1)
        assert independent_subset([b, b]) == [b]

    @given(st.lists(st.integers(0, 2**7 - 1), max_size=10))
    def test_output_is_basis_of_input_span(self, raw):
        vs = [BitString(7, r) for r in raw]
        out = independent_subset(vs)
        m_in = Gf2Matrix.from_rows(vs, cols=7)
        m_out = Gf2Matrix.from_rows(out, cols=7)
        assert m_out.rank() == len(out) == m_in.rank()


class TestConnectedSupportXors:
    def test_matches_filtered_support_xors(self):
        # random graphs, isolated vertices included; each choice carries
        # its position's bit above 8 junk bits, so the support is readable
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 13)
            p = rng.choice((0.15, 0.3, 0.6))
            nbrs = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        nbrs[u] |= 1 << v
                        nbrs[v] |= 1 << u
            choices = [tuple(rng.getrandbits(8) | 1 << (8 + v)
                             for _ in range(rng.randrange(1, 3))) for v in range(n)]
            for w in range(5):
                want = Counter(
                    op for op in support_xors(choices, w)
                    if is_connected([v for v in range(n) if (op >> (8 + v)) & 1], nbrs))
                assert Counter(connected_support_xors(choices, nbrs, range(n), w)) == want, (n, w)

    def test_path_and_isolated(self):
        # 0 - 1 - 2 and isolated 3: connected pairs {0,1} and {1,2} only
        nbrs = [0b010, 0b101, 0b010, 0]
        choices = [(1 << v,) for v in range(4)]
        assert sorted(connected_support_xors(choices, nbrs, range(4), 1)) == [1, 2, 4, 8]
        assert sorted(connected_support_xors(choices, nbrs, range(4), 2)) == [0b011, 0b110]
        assert list(connected_support_xors(choices, nbrs, range(4), 3)) == [0b111]
        assert list(connected_support_xors(choices, nbrs, range(4), 4)) == []
        assert list(connected_support_xors(choices, nbrs, range(4), 0)) == [0]

    def test_deadline_checked(self):
        class Expired(Exception):
            pass

        class Deadline:
            def check(self):
                raise Expired

        with pytest.raises(Expired):
            list(connected_support_xors([(1,), (2,)], [2, 1], range(2), 2, Deadline()))


def random_code(rng, n):
    """(x, z) bitmask pairs of a seeded random commuting code on n qubits: a
    random subset of the graph-state generators X_v Z^{A_v} of a random
    graph, then Hadamard on a random qubit subset."""
    adj, p = [0] * n, rng.choice((0.2, 0.4))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    gens = [(1 << v, adj[v]) for v in range(n) if rng.random() < 0.7] or [(1, adj[0])]
    flip = rng.getrandbits(n)
    return [((x & ~flip) | (z & flip), (z & ~flip) | (x & flip)) for x, z in gens]


def pauli_choices(gens, n):
    """X, Z and Y at each qubit v: the syndrome in the low m bits, then the
    x bit and the z bit of v (bits m + 2v and m + 2v + 1)."""
    m = len(gens)
    out = []
    for v in range(n):
        sx = sum(1 << i for i, (_, z) in enumerate(gens) if (z >> v) & 1)
        sz = sum(1 << i for i, (x, _) in enumerate(gens) if (x >> v) & 1)
        px, pz = 1 << (m + 2 * v), 1 << (m + 2 * v + 1)
        out.append((sx | px, sz | pz, sx ^ sz | px | pz))
    return out


def parts(op, choices, m):
    """The syndromes of the single-qubit factors of a kernel operator."""
    return [choices[v][((op >> (m + 2 * v)) & 3) - 1] & ((1 << m) - 1)
            for v in range(len(choices)) if (op >> (m + 2 * v)) & 3]


def irreducible(op, choices, m):
    """No nonempty proper subset of the factors has zero syndrome: the
    factor syndromes, which xor to 0, have rank one less than their count."""
    syns = parts(op, choices, m)
    return len(independent_subset([BitString(m, s) for s in syns])) == len(syns) - 1


def graph_state_choices(rows):
    """The Z span's kernel choices on the adjacency rows of a graph: X, Z and
    Y at v as their syndrome against X_u Z^{A_u}, then x bit v, then z bit v."""
    n = len(rows)
    return [(c | 1 << (n + v), 1 << v | 1 << (2 * n + v),
             (c ^ 1 << v) | 1 << (n + v) | 1 << (2 * n + v)) for v, c in enumerate(rows)]


def weight_two_counts(choices, m):
    """Syndrome -> how many products of two choices on distinct positions
    have it, from the plain pair loop."""
    return Counter(op & ((1 << m) - 1) for op in support_xors(choices, 2))


class CountingDeadline:
    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


class Expired(Exception):
    pass


class StopAt:
    """A deadline that expires at its stop-th check."""

    def __init__(self, stop):
        self.stop, self.checks = stop, 0

    def check(self):
        self.checks += 1
        if self.checks == self.stop:
            raise Expired


class TestPairCounts:
    def test_matches_support_xors(self):
        rng = random.Random(15)
        for _ in range(200):
            n = rng.randrange(0, 9)
            choices = [tuple(rng.getrandbits(5) for _ in range(rng.randrange(1, 4)))
                       for _ in range(n)]
            assert pair_counts(choices) == Counter(support_xors(choices, 2)), choices

    def test_deadline_checked_once_per_first_position(self):
        choices = [(1, 2, 3)] * 7
        dl = CountingDeadline()
        pair_counts(choices, dl)
        assert dl.checks == 7
        for stop in (1, 7):
            with pytest.raises(Expired):
                pair_counts(choices, StopAt(stop))


class TestClusterXors:
    """The check-guided kernel against the connected-support enumerator it
    replaced, filtered to zero syndromes, and hit for hit and in order
    against the generator kernel it was first written as."""

    def test_matches_irreducible_reference(self):
        rng = random.Random(11)
        codes = 0
        for _ in range(220):
            n = rng.randrange(1, 13)
            gens = random_code(rng, n)
            m, choices = len(gens), pauli_choices(gens, n)
            nbrs = [0] * n  # qubit-interaction graph
            for x, z in gens:
                for v in range(n):
                    if ((x | z) >> v) & 1:
                        nbrs[v] |= (x | z) & ~(1 << v)
            xors, ref = cluster_xors(choices, m), reference_cluster_xors(choices, m)
            for w in range(1, min(n, 4) + 1):
                got = list(xors(range(n), w))
                assert got == list(ref(range(n), w)), (n, w)
                assert len(set(got)) == len(got), (n, w)
                want = {op for op in connected_support_xors(choices, nbrs, range(n), w)
                        if not op & ((1 << m) - 1)}
                assert set(got) <= want, (n, w)
                assert {op for op in got if irreducible(op, choices, m)} == {
                    op for op in want if irreducible(op, choices, m)}, (n, w)
                assert all(len(parts(op, choices, m)) == w for op in got)
            codes += 1
        assert codes >= 200

    def test_pair_table_changes_no_hit(self):
        # the count check drops only nodes with two positions left that no
        # completion could pass: with the table, the same hits in the same
        # order as without it and as the reference
        rng = random.Random(16)
        graphs = []
        for _ in range(60):
            n, p = rng.randrange(1, 13), rng.choice((0.2, 0.4, 0.7))
            graphs.append(Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        hits = 0
        for g in graphs + [toric(3), toric(4), toric(5)]:
            n, choices = g.n, graph_state_choices(g.adjacency().row_bits)
            xors, ref = cluster_xors(choices, n), reference_cluster_xors(choices, n)
            pairs = weight_two_counts(choices, n)
            for w in range(3, 7):
                got = list(xors(range(n), w, pairs=pairs))
                assert got == list(xors(range(n), w)) == list(ref(range(n), w)), (g.edges, w)
                hits += len(got)
        for _ in range(40):  # and on the X, Z, Y choices of random commuting codes
            n = rng.randrange(1, 13)
            gens = random_code(rng, n)
            m, choices = len(gens), pauli_choices(gens, n)
            xors, pairs = cluster_xors(choices, m), weight_two_counts(choices, m)
            for w in range(3, 7):
                assert list(xors(range(n), w, pairs=pairs)) == list(xors(range(n), w)), (n, w)
        assert hits > 1000

    def test_pair_table_cuts_growth_nodes(self, monkeypatch):
        # toric 5 at w = 4 (50 hits), the deadline checked at every node: the
        # table leaves 250 of the 768 growth nodes; with counts >= 1 in place
        # of >= 2 it would leave more than a third
        monkeypatch.setattr(gf2, "CHECK_EVERY", 1)
        g = toric(5)
        choices = graph_state_choices(g.adjacency().row_bits)
        xors, pairs = cluster_xors(choices, g.n), weight_two_counts(choices, g.n)
        plain, pruned = CountingDeadline(), CountingDeadline()
        got = list(xors(range(g.n), 4, pruned, pairs))
        assert len(got) == 50 and got == list(xors(range(g.n), 4, plain))
        assert 3 * pruned.checks < plain.checks, (pruned.checks, plain.checks)

    def test_roots_pick_the_least_position(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randrange(2, 11)
            gens = random_code(rng, n)
            m, choices = len(gens), pauli_choices(gens, n)
            roots = sorted(rng.sample(range(n), rng.randrange(1, n)))
            xors = cluster_xors(choices, m)
            for w in (1, 2, 3):
                every = list(xors(range(n), w))
                least = [min(v for v in range(n) if (op >> (m + 2 * v)) & 3) for op in every]
                assert list(xors(roots, w)) == [
                    op for op, r in zip(every, least) if r in roots]

    def test_ring(self):
        # ZZ checks on a 4-ring: a Z commutes with them (the weight-1 hits);
        # X and Y flip the same two checks, so X or Y on every qubit gives
        # the 16 weight-4 hits, and no subset of 2 or 3 qubits commutes
        checks = [(0, 0b0011), (0, 0b0110), (0, 0b1100), (0, 0b1001)]
        xors = cluster_xors(pauli_choices(checks, 4), 4)
        assert sorted(xors(range(4), 1)) == [
            1 << (5 + 2 * v) for v in range(4)]
        assert list(xors(range(4), 2)) == []
        assert list(xors(range(4), 3)) == []
        xy = {sum((1 | (ys >> v & 1) << 1) << (4 + 2 * v) for v in range(4)) for ys in range(16)}
        got = list(xors(range(4), 4))
        assert len(got) == 16 and set(got) == xy
        assert list(xors([1, 2, 3], 4)) == []
        assert list(xors(range(4), 0)) == []

    def test_deadline_checked_within_one_root(self):
        # one root, and a deadline that counts: checked at the start and then
        # every CHECK_EVERY nodes, so many times within the root
        n = 12
        gens = [(1 << v, (1 << ((v + 1) % n)) | (1 << ((v - 1) % n))) for v in range(n)]
        choices = pauli_choices(gens, n)
        dl = CountingDeadline()
        list(cluster_xors(choices, n)([0], 8, dl))
        assert dl.checks > 3
        with pytest.raises(Expired):
            list(cluster_xors(choices, n)([0], 8, StopAt(3)))
        with pytest.raises(Expired):
            list(cluster_xors(choices, n)([0], 1, StopAt(1)))
