import collections
import functools
import itertools
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tqograph import analysis
from tqograph.gf2 import BitString, Gf2Matrix, cluster_xors, pair_counts, support_xors
from tqograph.graphs import (
    Graph,
    complete,
    complete_bipartite,
    connected_multi_star,
    lattice,
    line_of_bipartite,
    line_of_complete,
    multi_star,
    read_edge_list,
    star,
    toric,
    write_edge_list,
)
from tqograph.analysis import (
    BudgetExceededError,
    ClassicalCode,
    Deadline,
    SetQuery,
    c_set,
    d_max,
    family_scan,
    graph_basis_inner_analytic,
    in_C,
    in_W,
    in_zperp,
    ldpc_embed,
    read_classical_code,
    sigma,
    verify_codewords,
    z_span_basis,
    zperp_basis,
)
from tqograph.oracle import graph_basis_state, pauli_matrix_element

from references import (
    classical_min_distance,
    connected_z_span_basis,
    degrees,
    reference_cluster_xors,
    reference_d_max,
    reference_twin_pairs,
    reference_w_member,
    reference_verify_codewords,
    s_vector,
    square_nbrs,
    two_loop_verify_codewords,
)


def random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


# Plain enumerators the syndrome kernel replaced, kept as its reference.

def weight_iter(n, w_max):
    """All length-n bitstrings of weight <= w_max, by weight then support order."""
    yield BitString(n, 0)
    for w in range(1, min(w_max, n) + 1):
        for support in itertools.combinations(range(n), w):
            yield BitString(n, sum(1 << v for v in support))


def in_Z(q, k):
    """k is in Z(G, d) iff wt(k | A.k) <= d - 1."""
    return (k | q.graph.adjacency().mat_vec(k)).weight() <= q.d - 1


def reference_in_W(q, h):
    """h = A.m ^ l with weight(m | l) <= d - 1: enumerate m, force l = h ^ A.m."""
    a = q.graph.adjacency()
    return any(
        (m | (h ^ a.mat_vec(m))).weight() <= q.d - 1
        for m in weight_iter(q.graph.n, q.d - 1)
    )


def reference_z_span_basis(q):
    """Members of Z kept rank-incrementally, in weight_iter order."""
    elim, kept = [], []
    for k in weight_iter(q.graph.n, q.d - 1):
        if k.is_zero() or not in_Z(q, k):
            continue
        r = k.bits
        for e in elim:
            if r & (e & -e):
                r ^= e
        if r:
            elim.append(r)
            kept.append(k)
            if len(kept) == q.graph.n:
                break
    return kept


def all_supports_z_span_basis(q):
    """z_span_basis over every support of weight <= d-1, connected or not.

    The syndrome-kernel scan the G^2-connected growth replaced: the same
    choices, weight filter and rank-incremental elimination, in
    itertools.combinations order.
    """
    n, top = q.graph.n, q.d - 1
    low = (1 << n) - 1
    choices = [((1 << v) | (c << n),) for v, c in enumerate(q.graph.adjacency().row_bits)]
    elim, kept = [], []
    for w in range(1, min(top, n) + 1):
        for x in support_xors(choices, w):
            k = x & low
            if (k | (x >> n)).bit_count() > top:
                continue
            r = k
            for e in elim:
                if r & (e & -e):
                    r ^= e
            if r:
                elim.append(r)
                kept.append(k)
                if len(kept) == n:
                    return [BitString(n, k) for k in kept]
    return [BitString(n, k) for k in kept]


def span_iter(basis, n):
    """All 2^r combinations of an independent basis, Gray-code order from 0.

    The BitString walk that _span_walk replaced, kept as its reference.
    """
    cur = 0
    yield BitString(n, 0)
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1].bits
        yield BitString(n, cur)


def gray_c_set(q, max_members):
    """c_set as it was: span_iter over the Z^perp basis, in_W per element.

    Returns the sorted members and the exhaustive flag.
    """
    members = []
    for h in span_iter(zperp_basis(q), q.graph.n):
        if not h.is_zero() and not in_W(q, h):
            members.append(h)
            if len(members) >= max_members:
                return sorted(members, key=lambda b: b.bits), False
    return sorted(members, key=lambda b: b.bits), True


def random_kernel_basis(rng, n):
    """Kernel basis of a random matrix with n columns: 0 to n rows."""
    rows = [rng.getrandbits(n) for _ in range(rng.randrange(n + 1))]
    return Gf2Matrix(len(rows), n, rows).kernel_basis()


def canonical_z_span_basis(q):
    """z_span_basis's documented order, from the definition: the e_v with
    deg(v) + 1 <= d-1 by v, then every member k of Z by (weight of S_k, k),
    where S_k acts on k | A.k, each kept when independent of those before,
    up to rank n."""
    n, a = q.graph.n, q.graph.adjacency()
    acted = {k: k | a.mat_vec(BitString(n, k)).bits for k in range(1, 1 << n)}
    members = sorted((s.bit_count(), k) for k, s in acted.items() if s.bit_count() < q.d)
    singles = [1 << v for v, deg in enumerate(degrees(q.graph)) if deg + 1 <= q.d - 1]
    elim, kept = [], []
    for k in singles + [k for _, k in members]:
        r = k
        for e in elim:
            if r & (e & -e):
                r ^= e
        if r and len(kept) < n:
            elim.append(r)
            kept.append(BitString(n, k))
    return kept


def assert_same_z_span(q, got, want):
    """got is an independent set of members of Z with the row space of want."""
    n = q.graph.n
    assert len(got) == len(want)
    assert all(in_Z(q, k) for k in got)
    rows = Gf2Matrix.from_rows(got, cols=n)
    assert rows.rank() == len(got)
    assert rows.kernel_basis() == Gf2Matrix.from_rows(want, cols=n).kernel_basis()


class TestWeightIter:
    def test_counts(self):
        assert sum(1 for _ in weight_iter(5, 2)) == 1 + 5 + 10
        assert sum(1 for _ in weight_iter(3, 9)) == 8

    def test_order(self):
        ws = [b.weight() for b in weight_iter(4, 4)]
        assert ws == sorted(ws)
        assert next(iter(weight_iter(4, 2))).is_zero()


class TestSpanWalk:
    def test_empty_basis(self):
        assert list(analysis._span_walk([])) == []

    def test_singleton(self):
        assert list(analysis._span_walk([0b010])) == [0b010]

    def test_four_distinct(self):
        out = list(analysis._span_walk([0b0010, 0b0100]))
        assert sorted(out) == [0b0010, 0b0100, 0b0110]

    def test_basis_steps_give_gray_order(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randrange(1, 11)
            basis = random_kernel_basis(rng, n)
            walk = list(analysis._span_walk([b.bits for b in basis]))
            assert walk == [b.bits for b in span_iter(basis, n)][1:]

    def test_prefix_steps_increase(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(1, 11)
            basis = random_kernel_basis(rng, n)
            rows = sorted(b.bits for b in basis)
            steps = list(itertools.accumulate(rows, lambda x, y: x ^ y))
            walk = list(analysis._span_walk(steps))
            # the 2^r - 1 nonzero span members, strictly increasing
            assert walk == sorted(b.bits for b in span_iter(basis, n))[1:]

    def test_deadline_checked(self):
        dl = Deadline(0.0)
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError):
            next(analysis._span_walk([1], dl))


class TestSigmaAndInner:
    def test_sigma_examples(self):
        a3 = complete(3).adjacency()
        assert sigma(a3, BitString.from_text("111")) == 1  # 3 internal edges
        assert sigma(a3, BitString.from_text("110")) == 1
        assert sigma(a3, BitString.from_text("100")) == 0
        s4 = star(4).adjacency()
        assert sigma(s4, BitString.from_text("1100")) == 1  # hub + leaf
        assert sigma(s4, BitString.from_text("0110")) == 0  # two leaves

    def test_selection_rule(self):
        a = star(3).adjacency()
        h, g = BitString.from_text("100"), BitString.from_text("000")
        k, l = BitString.from_text("000"), BitString.from_text("010")
        # A.k ^ l = 010 != h ^ g = 100
        assert graph_basis_inner_analytic(a, h, g, k, l) == 0

    def test_matches_state_vector(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 6)
            g = random_graph(rng, n)
            a = g.adjacency()
            for _ in range(8):
                h, gg, k, l = (BitString(n, rng.getrandbits(n)) for _ in range(4))
                lhs = graph_basis_inner_analytic(a, h, gg, k, l)
                rhs = pauli_matrix_element(
                    graph_basis_state(g, h), graph_basis_state(g, gg), k, l
                )
                assert abs(lhs - rhs) < 1e-9


class TestSetQueries:
    def test_query_validation(self):
        g = star(4)
        SetQuery(g, 1)
        SetQuery(g, 5)
        with pytest.raises(ValueError):
            SetQuery(g, 0)
        with pytest.raises(ValueError):
            SetQuery(g, 6)

    def test_in_Z(self):
        q = SetQuery(complete(4), 2)
        assert in_Z(q, BitString(4))
        assert not in_Z(q, BitString(4, 1))  # k | A.k has weight 4
        q3 = SetQuery(complete(4), 3)
        assert in_Z(q3, BitString.from_text("1100"))  # A.k = k, weight 2

    def test_z_span_and_zperp(self):
        # distance 2: no nonzero low-weight members, orthogonal space is full
        q = SetQuery(star(4), 2)
        assert z_span_basis(q) == []
        assert len(zperp_basis(q)) == 4
        # distance 3 on the complete graph: pair strings span a 3-dim space
        q = SetQuery(complete(4), 3)
        zb = z_span_basis(q)
        assert [b.to_text() for b in zb] == ["1100", "1010", "1001"]
        assert [b.to_text() for b in zperp_basis(q)] == ["1111"]
        # canonical order: no single generator is light enough here, so the
        # members go by the weight of S_k = X^k Z^{A.k}, then by k as an int
        # (bit 0 is leftmost)
        q = SetQuery(line_of_complete(4), 3)
        assert [b.to_text() for b in z_span_basis(q)] == ["001100", "010010", "100001"]
        q = SetQuery(line_of_complete(4), 5)
        assert [b.to_text() for b in z_span_basis(q)] == [
            "001100", "010010", "100001", "111000", "110000", "101000"]

    def test_in_W_zero_always(self):
        for g in (star(4), complete(5)):
            for d in (1, 2, 3):
                assert in_W(SetQuery(g, d), BitString(g.n))

    def test_membership_routes_agree(self):
        # the point test in_C must match full enumeration on every string
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, 5)
            for d in (2, 3):
                q = SetQuery(g, d)
                listed = set(c_set(q).members)
                for hb in range(1 << 5):
                    h = BitString(5, hb)
                    assert in_C(q, h) == (h in listed)
                    if h in listed:
                        assert in_zperp(q, h) and not in_W(q, h)


# Seeded random graphs with n <= 10; every d in 1..n+1 is checked on each.
DIFF_GRAPHS = [
    random_graph(random.Random(seed), n)
    for seed, n in ((1, 1), (2, 3), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10))
]


@pytest.mark.parametrize("g", DIFF_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
class TestKernelMatchesReference:
    def test_in_W_on_every_label(self, g):
        for d in range(1, g.n + 2):
            q = SetQuery(g, d)
            for hb in range(1 << g.n):
                h = BitString(g.n, hb)
                assert in_W(q, h) == reference_in_W(q, h), (d, h)

    def test_z_span_basis_identical(self, g):
        # identical span; the basis itself comes in the canonical order
        for d in range(1, g.n + 2):
            q = SetQuery(g, d)
            assert_same_z_span(q, z_span_basis(q), reference_z_span_basis(q))

    def test_z_span_basis_canonical_order(self, g):
        for d in range(1, g.n + 2):
            q = SetQuery(g, d)
            assert z_span_basis(q) == canonical_z_span_basis(q), d

    def test_zperp_basis_is_increasing(self, g):
        # d_max walks its prefix xors as Z^perp in increasing order
        for d in range(1, g.n + 2):
            basis = [b.bits for b in zperp_basis(SetQuery(g, d))]
            assert all(x < y for x, y in zip(basis, basis[1:])), d

    def test_d_max_certificate_is_least_member(self, g):
        res = d_max(g)
        members = c_set(SetQuery(g, res.value), max_members=1 << g.n).members
        assert res.certificate == members[0]
        assert c_set(SetQuery(g, res.value + 1), max_members=1 << g.n).empty

    def test_d_max_matches_the_per_probe_route(self, g):
        res = d_max(g)
        assert (res.value, res.certificate) == reference_d_max(g)


def sparse_graph(rng, n):
    p = rng.uniform(0.1, 0.3)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def w_distance(g):
    """dist[h], the least weight(m | l) over A.m ^ l = h, from the definition
    of W: l is forced to h ^ A.m, so every m is tried against every h at
    once.  h is in W at distance d iff dist[h] <= d - 1."""
    n, cols = g.n, g.adjacency().row_bits
    hs = np.arange(1 << n)
    dist = np.full(1 << n, n + 1)
    for m in range(1 << n):
        am = 0
        for v in range(n):
            if m >> v & 1:
                am ^= cols[v]
        np.minimum(dist, np.bitwise_count(m | (am ^ hs)), out=dist)
    return dist


class RaiseAtCheck:
    """A deadline whose nth check raises."""

    def __init__(self, n):
        self.left = n

    def check(self):
        self.left -= 1
        if not self.left:
            raise BudgetExceededError("stopped at a chosen check")


def w_state_holds(a):
    """Whether the one-entry W memo holds the tables of adjacency a: a lookup
    that hits (a miss replaces the entry)."""
    hits = analysis._w_state.cache_info().hits
    analysis._w_state(a)
    return analysis._w_state.cache_info().hits == hits + 1


class TestWTables:
    """_w_member against W from its definition, n <= 12, every d, with the
    one-entry table cache cold, warmed by smaller d, and last filled by
    another graph."""

    GRAPHS = [random_graph(random.Random(s), n) for s, n in ((21, 4), (22, 9), (23, 12))]
    GRAPHS += [sparse_graph(random.Random(s), n) for s, n in ((24, 11), (25, 12))]

    @staticmethod
    def assert_predicate(g, d, dist, t=None):
        member = analysis._w_member(g.adjacency(), d, t=d // 2 if t is None else t)
        got = [h for h in range(1 << g.n) if member(h)]
        assert got == [h for h in range(1 << g.n) if dist[h] <= d - 1], (g.edges, d)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_cold_warm_and_replaced_cache(self, g):
        dist, other = w_distance(g), star(5)
        for d in range(1, g.n + 2):
            analysis._w_state.cache_clear()
            self.assert_predicate(g, d, dist)
        for d in range(1, g.n + 2):  # warm: the tables of d - 1 are cached
            self.assert_predicate(g, d, dist)
        assert len(analysis._w_state(g.adjacency()).tables) == (g.n + 1) // 2 + 1
        for d in range(1, g.n + 2):
            assert in_W(SetQuery(other, 6), BitString(5))
            assert w_state_holds(other.adjacency())
            misses = analysis._w_state.cache_info().misses
            self.assert_predicate(g, d, dist)  # one miss: g's tables replace other's
            assert analysis._w_state.cache_info().misses == misses + 1
            assert w_state_holds(g.adjacency())

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_every_forced_height(self, g):
        # W = T_t ^ T_(d-1-t) for every t <= d // 2, and a forced height
        # builds no taller table than those of the heights before it
        dist = w_distance(g)
        analysis._w_state.cache_clear()
        for d in range(1, g.n + 2):
            for t in range(d // 2 + 1):
                self.assert_predicate(g, d, dist, t)
                assert len(analysis._w_state(g.adjacency()).tables) == max(t, (d - 1) // 2) + 1

    def test_walk_height_rises_with_the_peel_work(self):
        # n = 12, d = 7: a walk's predicate starts on T_2 and builds T_3 once
        # its peel calls reach C(12, 3) * 27 // 4 = 1485; a predicate made
        # after that starts on T_3
        g, d = self.GRAPHS[2], 7
        dist, a = w_distance(g), g.adjacency()
        analysis._w_state.cache_clear()
        member, tables = analysis._w_member(a, d), analysis._w_state(a).tables
        assert member(0) and len(tables) == 3
        assert [h for h in range(1 << g.n) if member(h)] == [
            h for h in range(1 << g.n) if dist[h] <= d - 1]
        assert len(tables) == 4
        plain = list(tables)
        tables[:] = [CountingSet(t) for t in plain]
        try:
            for h in sorted(plain[3] - plain[2])[:50]:
                CountingSet.lookups = 0
                assert analysis._w_member(a, d)(h) and CountingSet.lookups == 1
        finally:
            analysis._w_state.cache_clear()

    def test_in_w_and_verify_take_the_walks_height(self):
        # one height rule for every predicate: at d = 6 on toric 6 a single
        # query, in_W's or verify's, stays on T_2 where T_(d//2) = T_3
        g = toric(6)
        cert = d_max(g).certificate
        for ask in (lambda: not in_W(SetQuery(g, 6), cert),
                    lambda: verify_codewords(g, 6, [cert]).ok):
            analysis._w_state.cache_clear()
            assert ask() and len(analysis._w_state(g.adjacency()).tables) == 3

    def test_budget_stop_keeps_only_whole_tables(self):
        # n = 9: the weight-2 build checks once per first position, the 2nd to
        # the 10th check, and a stop in it leaves T_1 and no weight-2 count
        g = self.GRAPHS[1]
        a = g.adjacency()
        analysis._w_state.cache_clear()
        whole = list(analysis._w_tables(a, 3))
        pairs = analysis._w_state(a).pairs
        choices = [(c, 1 << v, c ^ (1 << v)) for v, c in enumerate(a.row_bits)]
        assert pairs == collections.Counter(support_xors(choices, 2))
        lengths = []
        for n in (1, 2, 10, 11, 40):  # in the builds of weights 1, 2, 2, 3 and 3
            analysis._w_state.cache_clear()
            with pytest.raises(BudgetExceededError):
                analysis._w_tables(a, 3, RaiseAtCheck(n))
            state = analysis._w_state(a)
            assert state.tables == whole[:len(state.tables)]
            assert state.pairs == (pairs if len(state.tables) > 2 else None)
            lengths.append(len(state.tables))
        assert lengths == [1, 2, 2, 3, 3]
        self.assert_predicate(g, 7, w_distance(g))

    def test_budget_stop_in_the_z_spans_weight_two_build(self):
        # toric 5 at d = 5, cold: after z_span_basis's own check, its class 3
        # builds T_1 (one check), then the weight-2 count (50, the 3rd to the
        # 52nd); a stop in that build leaves T_1 and no count, and the kernel
        # only starts once both T_2 and the count are kept
        g = toric(5)
        q, a = SetQuery(g, 5), g.adjacency()
        analysis._w_state.cache_clear()
        want = z_span_basis(q)
        for stop, kept in ((3, 2), (52, 2), (53, 3)):
            analysis._w_state.cache_clear()
            with pytest.raises(BudgetExceededError):
                z_span_basis(q, RaiseAtCheck(stop))
            state = analysis._w_state(a)
            assert len(state.tables) == kept and (state.pairs is None) == (kept == 2)
        assert z_span_basis(q) == want

    @pytest.mark.parametrize("g", [toric(4), line_of_complete(5), GRAPHS[2]],
                             ids=["toric4", "loc5", "n12"])
    def test_d_max_enumerates_each_weight_class_once(self, g, monkeypatch):
        weights = []

        def spy(choices, w, deadline=None):
            weights.append(w)
            return support_xors(choices, w, deadline)

        def counting(choices, deadline=None):
            weights.append(2)
            return pair_counts(choices, deadline)

        analysis._w_state.cache_clear()
        monkeypatch.setattr(analysis, "support_xors", spy)
        monkeypatch.setattr(analysis, "pair_counts", counting)
        res = d_max(g)
        assert weights == list(range(1, len(weights) + 1)), weights
        assert len(weights) <= res.value // 2 + 1

    @pytest.mark.parametrize("g", [toric(4), line_of_complete(5), GRAPHS[2]],
                             ids=["toric4", "loc5", "n12"])
    def test_d_max_runs_each_z_class_once(self, g, monkeypatch):
        # span(Z)'s classes are kept per graph: probe d runs only the class
        # d - 1, each with the weight-2 count that W's T_2 was built with
        weights, counts = [], []

        def recording(choices, m):
            xors = cluster_xors(choices, m)

            def spy(roots, w, deadline, pairs=None):
                weights.append(w)
                counts.append(pairs is analysis._w_state(g.adjacency()).pairs is not None)
                return xors(roots, w, deadline, pairs)
            return spy

        monkeypatch.setattr(analysis, "cluster_xors", recording)
        analysis._w_state.cache_clear()
        res = d_max(g)
        assert weights == list(range(3, len(weights) + 3)), weights
        assert len(weights) <= max(res.value - 2, 0)
        assert all(counts)

    def test_graphs_read_from_one_file_share_the_tables_and_kernel(self, tmp_path, monkeypatch):
        # each read builds a new Graph and adjacency matrix; the memos key on the
        # matrix's value, so the second C-set builds no table and no kernel
        path = tmp_path / "g.txt"
        write_edge_list(toric(3), str(path))
        weights, kernels = [], []

        def spy(choices, w, deadline):
            weights.append(w)
            return support_xors(choices, w, deadline)

        def counting(choices, deadline):
            weights.append(2)
            return pair_counts(choices, deadline)

        def recording(choices, m):
            kernels.append(m)
            return cluster_xors(choices, m)

        monkeypatch.setattr(analysis, "support_xors", spy)
        monkeypatch.setattr(analysis, "pair_counts", counting)
        monkeypatch.setattr(analysis, "cluster_xors", recording)
        analysis._w_state.cache_clear()
        first = c_set(SetQuery(read_edge_list(str(path)), 4))
        assert weights == [1, 2] and kernels == [18]
        assert c_set(SetQuery(read_edge_list(str(path)), 4)) == first
        assert weights == [1, 2] and kernels == [18]


class CountingSet(frozenset):
    """A W table that counts its lookups (those of isdisjoint included) and
    the scans over it."""

    lookups = scans = 0

    def __contains__(self, x):
        CountingSet.lookups += 1
        return frozenset.__contains__(self, x)

    def isdisjoint(self, items):
        return not any(x in self for x in items)

    def __iter__(self):
        CountingSet.scans += 1
        return frozenset.__iter__(self)


class TestWPeel:
    """_w_member's check-guided peel against the one-scan predicate it
    replaced (references.reference_w_member)."""

    @staticmethod
    def assert_matches(g, d, hs):
        member, want = analysis._w_member(g.adjacency(), d), reference_w_member(g, d)
        assert [h for h in hs if member(h)] == [h for h in hs if want(h)], (g.edges, d)

    @staticmethod
    def counts(g, d, hs):
        """The most table lookups _w_member makes on one h of hs, and the
        number of h of hs whose query scanned a table."""
        a, k = g.adjacency(), d // 2
        tables = analysis._w_tables(a, k)
        tables[:] = [CountingSet(t) for t in tables[: k + 1]]
        member, most, scanned = analysis._w_member(a, d), 0, 0
        try:
            for h in hs:
                CountingSet.lookups = CountingSet.scans = 0
                member(h)
                most, scanned = max(most, CountingSet.lookups), scanned + bool(CountingSet.scans)
        finally:
            analysis._w_state.cache_clear()
        return most, scanned

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_random_graphs_every_d(self, dense):
        rng = random.Random(f"w-peel:{dense}")
        for n in (4, 6, 8, 10, 12):
            g = (random_graph if dense else sparse_graph)(rng, n)
            for d in range(1, n + 2):
                self.assert_matches(g, d, range(1 << n))

    @pytest.mark.parametrize("g", [toric(3), lattice(4, 2)], ids=["toric3", "lattice42"])
    def test_peel_two_levels(self, g):
        # b = 2, and |flips| * |T_1| < |T_2| at every check: no query scans
        rng = random.Random(f"w-peel:{g.n}")
        hs = sorted({rng.getrandbits(g.n) for _ in range(3000)}
                    | {sum(1 << v for v in s) for w in range(4)
                       for s in itertools.combinations(range(g.n), w)})
        flips = max(2 * (col.bit_count() + 1) for col in g.adjacency().row_bits)
        for d in (5, 6):
            self.assert_matches(g, d, hs)
            most, scanned = self.counts(g, d, hs)
            assert most <= 1 + flips**2 and not scanned

    @pytest.mark.parametrize("g", [complete(8), line_of_complete(5), lattice(3, 2)],
                             ids=["K8", "loc5", "lattice32"])
    def test_scan_fallback(self, g):
        # |flips| * |T_(b-1)| >= |T_b| at every check: every h outside T_k scans
        for d in range(5, g.n + 2):
            hs = range(1 << g.n)
            self.assert_matches(g, d, hs)
            t_k = analysis._w_tables(g.adjacency(), d // 2)[d // 2]
            assert self.counts(g, d, hs)[1] == (1 << g.n) - len(t_k)

    @pytest.mark.parametrize("g", [toric(3), complete(8), complete_bipartite(6, 6),
                                   TestWTables.GRAPHS[1], TestWTables.GRAPHS[3]],
                             ids=["toric3", "K8", "K66", "n9", "sparse11"])
    def test_no_query_looks_up_more_than_one_scan(self, g):
        rng = random.Random(f"w-lookups:{g.n}")
        hs = range(1 << g.n) if g.n <= 12 else [rng.getrandbits(g.n) for _ in range(2000)]
        for d in range(1, min(g.n, 8) + 2):
            t_b = analysis._w_tables(g.adjacency(), (d - 1) // 2)[(d - 1) // 2]
            assert self.counts(g, d, hs)[0] <= 1 + len(t_b), d


def disjoint_union(g, h):
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph.from_edges(g.n + h.n, list(g.edges) + shifted)


def sparse_diff_graphs():
    rng = random.Random(2024)
    out = [sparse_graph(rng, rng.randrange(1, 13)) for _ in range(160)]
    for _ in range(80):
        a = rng.randrange(1, 8)
        out.append(disjoint_union(sparse_graph(rng, a), sparse_graph(rng, rng.randrange(1, 13 - a))))
    return out


class TestZSpanConnectedSupports:
    """The kernel's Z span against the all-supports scan and against the
    G^2-connected growth it replaced (references.connected_z_span_basis)."""

    def test_sparse_random_graphs(self):
        graphs = sparse_diff_graphs()
        # isolated vertices occur, and most G^2 are not complete, so supports split
        assert any(0 in degrees(g) for g in graphs)
        split = [g for g in graphs if any(
            m | (1 << v) != (1 << g.n) - 1 for v, m in enumerate(square_nbrs(g.adjacency())))]
        assert len(split) > len(graphs) // 2
        for g in graphs:
            for d in range(1, g.n + 2):
                q = SetQuery(g, d)
                assert_same_z_span(q, z_span_basis(q), all_supports_z_span_basis(q))

    def test_same_span_as_connected_growth(self):
        rng = random.Random(2025)
        graphs = sparse_diff_graphs()[::4] + [
            random_graph(rng, rng.randrange(1, 13)) for _ in range(40)]
        for g in graphs:
            for d in range(1, g.n + 2):
                q = SetQuery(g, d)
                assert_same_z_span(q, z_span_basis(q), connected_z_span_basis(q))

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_toric(self, L):
        g = toric(L)
        for d in range(1, (g.n + 2 if L < 5 else 6)):
            q = SetQuery(g, d)
            assert_same_z_span(q, z_span_basis(q), all_supports_z_span_basis(q))

    def test_square_nbrs_path_and_cycle(self):
        path = Graph.from_edges(5, [(v, v + 1) for v in range(4)])
        assert square_nbrs(path.adjacency()) == [
            0b00110, 0b01101, 0b11011, 0b10110, 0b01100]
        cycle = Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
        assert square_nbrs(cycle.adjacency()) == [
            0b110110, 0b101101, 0b011011, 0b110110, 0b101101, 0b011011]

    def test_dense_graph_runs_the_kernel(self, monkeypatch):
        # line_of_complete(5) has diameter 2, which once took the plain
        # support loop; every graph now runs the kernel from every vertex, one
        # weight class at a time from weight 3 (weight 2 is the twin pairs),
        # until the span is full, and the single generators alone fill it
        # once every deg(v) + 1 <= d-1; the kernel reads the weight-2 count of
        # W's T_2, built here beforehand, so the Z span enumerates no support;
        # the kernel is dropped from the graph's record, so the spy builds it,
        # and the kept classes before each d, so each d runs them cold
        calls = []

        def recording(choices, m):
            xors = cluster_xors(choices, m)

            def spy(roots, w, deadline=None, pairs=None):
                calls.append((list(roots), w))
                assert pairs is not None and pairs is analysis._w_state(g.adjacency()).pairs
                return xors(roots, w, deadline, pairs)
            return spy

        def forbidden(*args):
            raise AssertionError("plain support loop")

        path = Graph.from_edges(6, [(v, v + 1) for v in range(5)])
        for g in (line_of_complete(5), path):
            analysis._w_tables(g.adjacency(), 2)
            with monkeypatch.context() as m:
                m.setattr(analysis, "cluster_xors", recording)
                m.setattr(analysis, "support_xors", forbidden)
                m.setattr(analysis, "pair_counts", forbidden)
                analysis._w_state(g.adjacency()).kernel = None
                for d in range(1, g.n + 2):
                    analysis._w_state(g.adjacency()).z_classes.clear()
                    calls.clear()
                    q = SetQuery(g, d)
                    assert_same_z_span(q, z_span_basis(q), reference_z_span_basis(q))
                    assert all(roots == list(range(g.n)) for roots, _ in calls)
                    assert [w for _, w in calls] == list(range(3, len(calls) + 3))
                    assert len(calls) <= max(min(d - 1, g.n) - 2, 0)
                    if all(deg + 1 <= d - 1 for deg in degrees(g)):
                        assert calls == [], (g.n, d)
        assert calls == [] and z_span_basis(SetQuery(line_of_complete(5), 8)) != []

    def test_deadline_checked_within_a_root(self, monkeypatch):
        # toric 6, d = 6: the kernel checks the deadline every CHECK_EVERY
        # nodes, so some (weight class, root) takes several checks
        seen, current = collections.Counter(), []

        class Recording:
            def check(self):
                seen[tuple(current)] += 1

        def tracking(choices, m):
            xors = cluster_xors(choices, m)

            def rooted(roots, w, deadline=None, pairs=None):
                def each():
                    for r in roots:
                        current[:] = [w, r]
                        yield r
                return xors(each(), w, deadline, pairs)
            return rooted

        monkeypatch.setattr(analysis, "cluster_xors", tracking)
        analysis._w_state.cache_clear()
        q = SetQuery(toric(6), 6)
        assert len(z_span_basis(q, Recording())) == 70
        assert max(seen.values()) >= 3


class TestZClassSequence:
    """span(Z)'s weight classes hit for hit and in order: the flat kernel on
    the graph-state choices against the generator reference, and the
    bucketed twin pairs against the pair loop."""

    @staticmethod
    def kernels(g, monkeypatch):
        """(the kernel _z_class builds for g, the reference on its choices)"""
        made, a = [], g.adjacency()

        def recording(choices, m):
            made.append((choices, m))
            return cluster_xors(choices, m)

        monkeypatch.setattr(analysis, "cluster_xors", recording)
        analysis._w_state.cache_clear()
        analysis._z_class(a, 3)
        (choices, m), = made
        return analysis._w_state(a).kernel, reference_cluster_xors(choices, m)

    def test_kernel_on_random_graphs(self, monkeypatch):
        rng = random.Random("z-kernel-sequence")
        for _ in range(60):
            g = (random_graph if rng.random() < 0.5 else sparse_graph)(rng, rng.randrange(1, 13))
            xors, ref = self.kernels(g, monkeypatch)
            for w in range(min(g.n, 5) + 1):
                assert list(xors(range(g.n), w)) == list(ref(range(g.n), w)), (g.edges, w)

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_kernel_on_toric(self, L, monkeypatch):
        g = toric(L)
        xors, ref = self.kernels(g, monkeypatch)
        for w in range(6):
            assert list(xors(range(g.n), w)) == list(ref(range(g.n), w)), w

    def test_twin_pairs_on_random_graphs(self):
        # densities from empty to complete, so that both kinds of twin and
        # isolated vertices all occur
        rng = random.Random("twin-pairs")
        for _ in range(3000):
            n, p = rng.randrange(1, 13), rng.random()
            g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                     if rng.random() < p])
            a = g.adjacency()
            assert list(analysis._z_class(a, 2)) == sorted(reference_twin_pairs(a)), g.edges

    @pytest.mark.parametrize("g", [toric(5), lattice(4, 2), multi_star(4, 4),
                                   line_of_complete(5), complete_bipartite(3, 4)],
                             ids=["toric5", "lattice4", "ms44", "loc5", "k34"])
    def test_twin_pairs_on_families(self, g):
        a = g.adjacency()
        assert list(analysis._z_class(a, 2)) == sorted(reference_twin_pairs(a))

    @pytest.mark.parametrize("g", DIFF_GRAPHS + [
        toric(5), lattice(4, 2), multi_star(4, 4), line_of_complete(5), complete_bipartite(3, 4)],
        ids=lambda g: f"n{g.n}m{g.m}")
    def test_each_class_is_increasing_in_k(self, g):
        # z_span_basis's order within a weight class is k as an int
        a = g.adjacency()
        for w in range(2, min(g.n, 6) + 1):
            ks = list(analysis._z_class(a, w))
            assert all(x < y for x, y in zip(ks, ks[1:])), w

    def test_stop_inside_one_root(self, monkeypatch):
        # toric 6 at w = 5 checks the deadline more than twice, and every check
        # after the first is made inside a root's growth: a stop there leaves
        # the kernel and _z_class, and d_max, which runs that class in probe
        # 6, reports the bracket of the probes before it
        class Expired(Exception):
            pass

        class StopAt:
            def __init__(self, stop):
                self.stop, self.checks = stop, 0

            def check(self):
                self.checks += 1
                if self.checks == self.stop:
                    raise Expired

        g, where, now = toric(6), [], [None]
        a, z_class = g.adjacency(), analysis._z_class
        analysis._w_state.cache_clear()  # a cold class 5: _z_class keeps each class
        analysis._w_tables(a, 2)  # the weight-2 count, built before any check is counted
        pairs = analysis._w_state(a).pairs
        counted = StopAt(None)
        assert list(z_class(a, 5, counted)) == []
        assert counted.checks > 2
        kernel = analysis._w_state(a).kernel
        for stop in (2, counted.checks):
            with pytest.raises(Expired):
                list(kernel(range(g.n), 5, StopAt(stop), pairs))
            analysis._w_state.cache_clear()
            analysis._w_tables(a, 2)
            with pytest.raises(Expired):
                list(z_class(a, 5, StopAt(stop)))

        def marking(a, w, deadline):
            now[0] = w
            try:
                yield from z_class(a, w, deadline)
            finally:
                now[0] = None

        class Recording:
            def check(self):
                where.append(now[0])

        monkeypatch.setattr(analysis, "_z_class", marking)
        analysis._w_state.cache_clear()
        assert d_max(g, Recording()).value == 6
        second = [i for i, w in enumerate(where) if w == 5][1]
        analysis._w_state.cache_clear()
        res = d_max(g, RaiseAtCheck(second + 1))
        assert not res.ok and res.bracket == (5, None)


class TestZClassMemo:
    """span(Z)'s weight classes are kept per graph beside W's tables
    (_WState.z_classes), and every Z^perp comes from one z_span_basis."""

    def test_each_class_runs_once_per_graph(self, monkeypatch):
        # toric 3 (d_max 4): the kernel runs w = 3 for d = 4 and w = 4 for
        # d = 5, once each over two rounds of every query; at d = 6 class 4
        # fills the span, so no class 5 runs
        g, weights = toric(3), []

        def recording(choices, m):
            xors = cluster_xors(choices, m)

            def spy(roots, w, deadline, pairs=None):
                weights.append(w)
                return xors(roots, w, deadline, pairs)
            return spy

        monkeypatch.setattr(analysis, "cluster_xors", recording)
        analysis._w_state.cache_clear()
        members = c_set(SetQuery(g, 4)).members
        for _ in range(2):
            assert verify_codewords(g, 4, members[:1])
            assert in_C(SetQuery(g, 5), members[0]) is False
            assert d_max(g).value == 4
            assert c_set(SetQuery(g, 6)).zperp_basis == ()
        assert weights == [3, 4]
        assert sorted(analysis._w_state(g.adjacency()).z_classes) == [2, 3, 4]

    def test_budget_stop_inside_a_class_keeps_nothing(self):
        # toric 3: class 6 checks the deadline 18 times, and z_span_basis at
        # d = 6 once at its start, once in class 3 and twice in class 4, which
        # fills the span; a stop inside a class keeps nothing for it, and the
        # next call lists what a cold one does
        g = toric(3)
        a, q = g.adjacency(), SetQuery(g, 6)
        analysis._w_state.cache_clear()
        want_class, want_span = analysis._z_class(a, 6), z_span_basis(q)
        assert len(want_class) == 132 and len(want_span) == 18
        analysis._w_state.cache_clear()
        analysis._w_tables(a, 2)
        with pytest.raises(BudgetExceededError, match="chosen check"):
            analysis._z_class(a, 6, RaiseAtCheck(5))
        with pytest.raises(BudgetExceededError, match="chosen check"):
            z_span_basis(q, RaiseAtCheck(4))
        assert sorted(analysis._w_state(a).z_classes) == [2, 3]
        assert analysis._z_class(a, 6) == want_class
        assert z_span_basis(q) == want_span

    def test_one_clear_resets_the_kernel(self, monkeypatch):
        # the kernel is kept in the graph's record, so clearing _w_state drops
        # it with the classes, and the next class of weight >= 3 builds it anew
        a, built = toric(3).adjacency(), []

        def recording(choices, m):
            built.append(m)
            return cluster_xors(choices, m)

        want = analysis._z_class(a, 3)
        analysis._w_state.cache_clear()
        monkeypatch.setattr(analysis, "cluster_xors", recording)
        assert analysis._z_class(a, 3) == want and built == [18]

    def test_zero_budget_stops_warm_queries(self):
        # every class the queries read is kept, so only the check at the
        # start of z_span_basis and zperp_basis can stop them
        g = toric(3)
        q = SetQuery(g, 4)
        members = c_set(q).members
        assert d_max(g).value == 4 and in_C(q, members[0])
        assert {2, 3, 4} <= set(analysis._w_state(g.adjacency()).z_classes)
        dl = Deadline(0.0)
        time.sleep(0.01)
        for ask in (lambda: c_set(q, dl), lambda: verify_codewords(g, 4, members[:1], dl),
                    lambda: in_C(q, members[0], dl)):
            with pytest.raises(BudgetExceededError):
                ask()
        res = d_max(g, dl)
        assert not res.ok and res.bracket == (1, None) and "budget" in res.error


class TestCSet:
    def test_star_distance_two(self):
        res = c_set(SetQuery(star(4), 2))
        texts = [b.to_text() for b in res.members]
        assert texts == ["0110", "1110", "0101", "1101", "0011", "1011"]
        assert res.exhaustive and not res.empty

    def test_complete_distance_two(self):
        res = c_set(SetQuery(complete(4), 2))
        # exactly the weight-two strings
        assert all(b.weight() == 2 for b in res.members)
        assert len(res.members) == 6

    def test_star_distance_three_empty(self):
        res = c_set(SetQuery(star(4), 3))
        assert res.empty and res.exhaustive

    def test_members_sorted_and_nonzero(self):
        res = c_set(SetQuery(multi_star(2, 2), 2))
        bits = [b.bits for b in res.members]
        assert bits == sorted(bits)
        assert all(b for b in bits)
        assert len(res.members) == 9

    def test_truncation_clears_exhaustive(self):
        res = c_set(SetQuery(star(4), 2), max_members=2)
        assert len(res.members) == 2 and not res.exhaustive

    def test_max_members_below_one_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_members"):
                c_set(SetQuery(star(4), 2), max_members=bad)

    def test_expired_deadline_raises_budget_error(self):
        # star(6) at d = 2: empty Z span, so the walk itself meets the deadline
        dl = Deadline(0.0)
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError):
            c_set(SetQuery(star(6), 2), dl)

    def test_no_w_table_for_a_zero_zperp(self, monkeypatch):
        # at d = n + 1 span(Z) is everything, so the walk yields nothing
        def forbidden(*args):
            raise AssertionError("W table built")

        monkeypatch.setattr(analysis, "_w_tables", forbidden)
        assert c_set(SetQuery(star(4), 5)).empty

    def test_matches_gray_reference(self):
        # truncated listings keep the old Gray-order members
        rng = random.Random(14)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 13))
            for d in range(1, min(g.n, 5) + 2):
                q = SetQuery(g, d)
                for cap in (1, 7, 1 << g.n):
                    res = c_set(q, max_members=cap)
                    want, exhaustive = gray_c_set(q, cap)
                    assert list(res.members) == want, (g.edges, d, cap)
                    assert res.exhaustive == exhaustive

    def test_nesting(self):
        # every member at distance d+1 remains a member at distance d
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng, 6)
            for d in (2, 3):
                hi = set(c_set(SetQuery(g, d + 1)).members)
                lo = set(c_set(SetQuery(g, d)).members)
                assert hi <= lo


class TestDMax:
    def test_star_and_complete(self):
        res = d_max(star(5))
        assert res.value == 2 and res.certificate.to_text() == "01100"
        assert d_max(complete(5)).value == 2

    def test_multi_star(self):
        for q, m in ((3, 3), (4, 3), (4, 4)):
            assert d_max(multi_star(q, m)).value == m

    def test_certificate_is_canonical_least_member(self):
        g = star(4)
        res = d_max(g)
        members = c_set(SetQuery(g, res.value)).members
        assert res.certificate == min(members, key=lambda b: b.bits)
        assert in_C(SetQuery(g, res.value), res.certificate)
        assert c_set(SetQuery(g, res.value + 1)).empty

    def test_budget_returns_bracket(self):
        dl = Deadline(0.0)
        time.sleep(0.01)
        res = d_max(multi_star(4, 4), deadline=dl)
        assert not res.ok
        assert res.bracket is not None and res.bracket[0] >= 1
        assert res.error is not None

    def test_expired_deadline_stops_the_kernels(self):
        # a graph no other test uses, so that no cached W table hides the build
        g = Graph.from_edges(9, [(v, v + 1) for v in range(8)] + [(0, 5), (2, 7)])
        dl = Deadline(0.0)
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError):
            in_W(SetQuery(g, 5), BitString(9), dl)  # T_2 build; weight 0 would hit
        with pytest.raises(BudgetExceededError):
            z_span_basis(SetQuery(g, 5), dl)
        res = d_max(g, deadline=dl)
        assert not res.ok and res.bracket == (1, None) and "budget" in res.error

    def test_budget_stop_inside_a_z_class_or_a_deep_peel(self, monkeypatch):
        # toric 6: probe d >= 4 runs the Z class of weight d - 1 before its
        # walk, and probe 6 peels 3 levels down to T_2, one above the tables
        # that probe 4 built; a stop in either leaves the bracket at the last
        # probe that finished
        g, now, where = toric(6), [0, ""], []
        z_class, w_member = analysis._z_class, analysis._w_member

        def z_marking(a, w, deadline):
            now[:] = w + 1, "z class"
            try:
                yield from z_class(a, w, deadline)
            finally:
                now[1] = "walk"

        def w_marking(a, d, deadline):
            member = w_member(a, d, deadline)

            def marked(h):
                now[:] = d, "member"
                try:
                    return member(h)
                finally:
                    now[1] = "walk"
            return marked

        class Recording:
            def check(self):
                where.append(tuple(now))

        monkeypatch.setattr(analysis, "_z_class", z_marking)
        monkeypatch.setattr(analysis, "_w_member", w_marking)
        analysis._w_state.cache_clear()
        want = d_max(g, Recording())
        assert want.value == 6 and len(analysis._w_state(g.adjacency()).tables) == 3
        stops = {where.index((5, "z class")): 4, where.index((6, "z class")): 5,
                 where.index((6, "member")): 5}
        for i, finished in stops.items():
            analysis._w_state.cache_clear()
            res = d_max(g, RaiseAtCheck(i + 1))
            assert not res.ok and res.bracket == (finished, None), where[i]
        assert d_max(g) == want  # the caches a stop leaves still serve

    def test_matches_the_per_probe_route_on_random_graphs(self):
        rng = random.Random("d-max-per-probe")
        for _ in range(30):
            g = (random_graph if rng.random() < 0.5 else sparse_graph)(rng, rng.randrange(1, 13))
            res = d_max(g)
            assert (res.value, res.certificate) == reference_d_max(g), g.edges

    @pytest.mark.parametrize("g,want", [
        (toric(5), 5),
        (lattice(5, 2), 5),
        (lattice(6, 2), 5),
        (lattice(7, 2), 5),
        (connected_multi_star(5), 5),
        (line_of_bipartite(5), 5),
        (line_of_complete(8), 4),
        (line_of_complete(9), 4),
    ], ids=["toric5", "lattice5", "lattice6", "lattice7", "cms5", "lob5", "loc8", "loc9"])
    def test_pinned_family_values(self, g, want):
        res = d_max(g)
        assert res.value == want
        assert in_C(SetQuery(g, want), res.certificate)

    def test_empty_graph_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty graph"):
            d_max(Graph.from_edges(0, []))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_value_in_range_with_valid_certificate(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(2, 7))
        res = d_max(g)
        assert 1 <= res.value <= g.n
        if res.value >= 2:
            assert in_C(SetQuery(g, res.value), res.certificate)


class TestVerifyCodewords:
    def test_pass_single_label(self):
        g = star(4)
        assert verify_codewords(g, 2, [BitString.from_text("0110")])

    def test_rejects_zero_and_duplicates(self):
        g = star(4)
        assert not verify_codewords(g, 2, [BitString(4)])
        b = BitString.from_text("0110")
        v = verify_codewords(g, 2, [b, b])
        assert not v and v.witness == "duplicate labels"

    def test_out_of_range_d_is_rejected_before_the_labels(self):
        # repeated labels too: d is checked first, a ValueError and no verdict
        b = BitString.from_text("0110")
        for labels in ([b], [b, b]):
            with pytest.raises(ValueError, match=r"need 1 <= d <= n\+1, got d=99"):
                verify_codewords(star(4), 99, labels)

    def test_rook_pair_fails_with_xor_witness(self):
        g = line_of_bipartite(4)
        base = complete_bipartite(4, 4)
        labels = [s_vector(base, 0), s_vector(base, 4)]
        v = verify_codewords(g, 4, labels)
        assert not v
        assert v.witness == "xor of labels 1,2 lies in W: 0111100010001000"

    def test_orthogonality_witness(self):
        # distance 3 on the complete graph: Z is nontrivial, a non-orthogonal
        # label is caught before the W stage
        g = complete(4)
        v = verify_codewords(g, 3, [BitString.from_text("1000")])
        assert not v and "not orthogonal" in v.witness

    def test_multi_label_pass(self):
        g = multi_star(2, 2)
        labels = [BitString.from_text("1010"), BitString.from_text("0101")]
        assert verify_codewords(g, 2, labels)
        # a pair whose xor is reachable as A.m ^ l must fail instead
        bad = [BitString.from_text("1010"), BitString.from_text("0110")]
        v = verify_codewords(g, 2, bad)
        assert not v and v.witness == "xor of labels 1,2 lies in W: 1100"

    @staticmethod
    def _checks_per_pair(texts, pairs):
        # With the W tables cached, the checks after the Z span's are one per
        # label pair walked (the zero label included); a stop at the first or
        # the last of them raises, where a loop without checks would pass.
        g = multi_star(2, 2)
        labels = [BitString.from_text(t) for t in texts]
        in_W(SetQuery(g, 2), labels[0])
        span, run = RaiseAtCheck(0), RaiseAtCheck(0)  # never raise: left runs negative
        z_span_basis(SetQuery(g, 2), span)
        assert verify_codewords(g, 2, labels, run)
        assert -run.left == -span.left + pairs
        for stop in (-span.left + 1, -run.left):
            with pytest.raises(BudgetExceededError, match="chosen check"):
                verify_codewords(g, 2, labels, RaiseAtCheck(stop))

    def test_budget_stop_inside_the_pair_loop(self):
        # the labels and zero form a subspace: only the 3 zero-label pairs run
        self._checks_per_pair(("1010", "0101", "1111"), 3)

    def test_budget_stop_inside_the_pair_loop_of_a_nonlinear_set(self):
        self._checks_per_pair(("1010", "0101"), 3)


class TestVerifyLinearSets:
    def test_zero_row_shortcut_matches_the_full_walk(self):
        # random subspaces of Z^perp (every nonzero element, shuffled), and
        # the same sets with one element dropped, which walk every pair
        rng = random.Random("verify-linear")
        seen = collections.Counter()
        for _ in range(60):
            n = rng.randint(3, 9)
            g = random_graph(rng, n)
            d = rng.randint(2, min(4, n))
            basis = zperp_basis(SetQuery(g, d))
            if not basis:
                continue
            span = {0}
            for _ in range(rng.randint(1, min(4, len(basis)))):
                v = 0
                for b in basis:
                    v ^= b.bits if rng.random() < 0.5 else 0
                span |= {x ^ v for x in span}
            labels = [BitString(n, x) for x in span if x]
            rng.shuffle(labels)
            for hs in (labels, labels[:-1]):
                if not hs:
                    continue
                got = verify_codewords(g, d, hs)
                want = reference_verify_codewords(g, d, hs)
                assert (got.ok, got.witness) == (want.ok, want.witness), (g.edges, d, hs)
                seen[got.ok] += 1
        assert seen[True] and seen[False]


class CountingDeadline:
    """A deadline that counts its checks and never raises."""

    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


class TestOnePairLoop:
    """verify_codewords' one pair loop, which stops once every nonzero vector
    of the labels' span was tested, against the two pair sequences it
    replaced (tests/references.py): the same verdict, witness and W queries."""

    @staticmethod
    def spy_w_queries(monkeypatch):
        log, real = [], analysis._w_member

        def spied(*args, **kwargs):
            member = real(*args, **kwargs)
            return lambda h: log.append(h) or member(h)

        monkeypatch.setattr(analysis, "_w_member", spied)
        return log

    def test_matches_the_two_loop_version(self, monkeypatch):
        log = self.spy_w_queries(monkeypatch)
        rng = random.Random("one-pair-loop")
        kinds, fewer = collections.Counter(), 0
        for case in range(400):
            n = rng.randint(3, 9)
            g, d = random_graph(rng, n), rng.randint(1, n)
            basis = [b.bits for b in zperp_basis(SetQuery(g, d))]
            if not basis:
                continue
            kind = case % 3
            if kind == 2:  # distinct random members of Z^perp
                pool = {functools.reduce(operator.xor, (b for b in basis if rng.random() < 0.5), 0)
                        for _ in range(rng.randint(1, 12))}
                labels = sorted(pool - {0})
            else:  # a subspace, whole or missing one element
                span = {0}
                for _ in range(rng.randint(1, min(4, len(basis)))):
                    v = functools.reduce(operator.xor, (b for b in basis if rng.random() < 0.5), 0)
                    span |= {x ^ v for x in span}
                labels = sorted(span - {0})
                rng.shuffle(labels)
                labels = labels[:-1] if kind == 1 else labels
            if not labels:
                continue
            hs = [BitString(n, x) for x in labels]
            runs = []
            for verify in (verify_codewords, two_loop_verify_codewords):
                # cold W tables each time, so their builds check alike
                analysis._w_state.cache_clear()
                log.clear()
                dl = CountingDeadline()
                verdict = verify(g, d, hs, dl)
                runs.append(((verdict.ok, verdict.witness), list(log), dl.checks))
            (got, got_w, got_checks), (want, want_w, want_checks) = runs
            assert (got, got_w) == (want, want_w), (g.edges, d, labels)
            assert got_checks <= want_checks
            if kind == 0:
                assert got_checks == want_checks
            fewer += got_checks < want_checks
            kinds[kind, got[0]] += 1
        assert kinds[0, True] and kinds[1, True] and kinds[2, True] and kinds[2, False]
        assert fewer  # some sets fill their span before the last pair


class TestClassicalCodes:
    def test_repetition(self):
        code = ClassicalCode(Gf2Matrix.from_rows([BitString.from_text("111")]))
        assert (code.q, code.k_c) == (3, 1)
        assert classical_min_distance(code) == 3
        assert [c.to_text() for c in code.codewords()] == ["000", "111"]

    def test_parity(self):
        code = ClassicalCode(
            Gf2Matrix.from_rows([BitString.from_text("110"), BitString.from_text("011")])
        )
        assert classical_min_distance(code) == 2
        assert sum(1 for _ in code.codewords()) == 4

    def test_codewords_in_message_order(self):
        # message c is the xor of the rows picked by the bits of c
        rng = random.Random(3)
        for _ in range(200):
            q, k_c = rng.randint(1, 12), rng.randint(0, 6)
            rows = [rng.getrandbits(q) for _ in range(k_c)]
            m = Gf2Matrix(k_c, q, rows)
            if m.rank() < k_c:
                continue
            want = []
            for msg in range(1 << k_c):
                bits = 0
                for i in range(k_c):
                    if (msg >> i) & 1:
                        bits ^= rows[i]
                want.append(bits)
            assert [c.bits for c in ClassicalCode(m).codewords()] == want

    def test_rank_enforced(self):
        with pytest.raises(ValueError, match="full row rank"):
            ClassicalCode(
                Gf2Matrix.from_rows(
                    [BitString.from_text("110"), BitString.from_text("110")]
                )
            )

    def test_walks_check_the_deadline(self):
        # one check per nonzero codeword in each walk (ldpc_embed makes one),
        # and a stop raises
        code = ClassicalCode(Gf2Matrix(4, 8, [0x0F, 0x3C, 0xF0, 0x55]))
        dl = CountingDeadline()
        assert len(list(code.codewords(dl))) == 16 and dl.checks == 15
        dl = CountingDeadline()
        assert classical_min_distance(code, dl) == 4 and dl.checks == 15
        dl = CountingDeadline()
        assert len(ldpc_embed(code, 4, dl)) == 16 and dl.checks == 15
        for stop in (1, 8, 15):
            with pytest.raises(BudgetExceededError, match="chosen check"):
                ldpc_embed(code, 4, RaiseAtCheck(stop))

    def test_exhaustion_cap(self):
        # a size refusal, not a budget stop
        code = ClassicalCode(Gf2Matrix(25, 25, [1 << i for i in range(25)]))
        with pytest.raises(ValueError, match="k_c = 25 too large"):
            classical_min_distance(code)
        with pytest.raises(ValueError, match="k_c = 25 too large"):
            ldpc_embed(code, 1)
        trivial = ClassicalCode(Gf2Matrix(0, 3, []))
        for walk in (classical_min_distance, lambda c: ldpc_embed(c, 1)):
            with pytest.raises(ValueError, match="trivial code"):
                walk(trivial)

    def test_read_file(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("# repetition\n111\n")
        code = read_classical_code(str(path))
        assert code.q == 3 and code.k_c == 1
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_classical_code(str(path))


class TestLdpcEmbed:
    def test_repetition_into_multi_star(self):
        code = ClassicalCode(Gf2Matrix.from_rows([BitString.from_text("111")]))
        labels = ldpc_embed(code, 3)
        assert labels[0].is_zero()
        # hub bits only: classical bit i -> bit 3*i
        assert labels[1].support() == [0, 3, 6]
        g = multi_star(3, 3)
        assert verify_codewords(g, 3, labels[1:])

    def test_weight_preserved(self):
        code = ClassicalCode(
            Gf2Matrix.from_rows([BitString.from_text("1101"), BitString.from_text("0111")])
        )
        for c, lab in zip(code.codewords(), ldpc_embed(code, 2)):
            assert lab.weight() == c.weight()
            assert all(b % 2 == 0 for b in lab.support())

    def test_matches_the_bitwise_spread(self):
        # every codeword, in codewords' order, with bit i moved to bit m*i
        rng = random.Random("ldpc-spread")
        for _ in range(100):
            q, k_c, m = rng.randint(1, 10), rng.randint(1, 5), rng.randint(1, 3)
            gen = Gf2Matrix(k_c, q, [rng.getrandbits(q) for _ in range(k_c)])
            if gen.rank() < k_c:
                continue
            code = ClassicalCode(gen)
            if classical_min_distance(code) < m:
                continue
            want = [sum(1 << (m * i) for i in c.support()) for c in code.codewords()]
            assert [b.bits for b in ldpc_embed(code, m)] == want
            assert {b.n for b in ldpc_embed(code, m)} == {q * m}

    def test_distance_requirement(self):
        code = ClassicalCode(
            Gf2Matrix.from_rows([BitString.from_text("110"), BitString.from_text("011")])
        )
        with pytest.raises(ValueError, match="classical distance 2 below required 3"):
            ldpc_embed(code, 3)
        # the first light codeword (weight 4) is not the lightest: 00001110
        code = ClassicalCode(Gf2Matrix(2, 8, [0b00001111, 0b01111111]))
        with pytest.raises(ValueError, match="classical distance 3 below required 5"):
            ldpc_embed(code, 5)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one(self, m):
        # refused before the rows are spread (a shift by m * i)
        code = ClassicalCode(Gf2Matrix.from_rows([BitString.from_text("11")]))
        with pytest.raises(ValueError) as err:
            ldpc_embed(code, m)
        assert str(err.value) == f"need m >= 1, got {m}"

    def test_rejected_code_keeps_no_labels(self):
        # a 16-row parity code at m = 3: its first nonzero codeword has weight
        # 2, so none of the 2^16 labels (about 6 MB as BitStrings) is kept
        code = ClassicalCode(Gf2Matrix(16, 17, [1 << i | 1 << 16 for i in range(16)]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="classical distance 2 below required 3"):
                ldpc_embed(code, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFamilyScan:
    def test_multi_star_scan(self):
        res = family_scan("multi_star", [(2, 2), (3, 3), (4, 4)])
        assert [e.d_max for e in res.entries] == [2, 3, 4]
        assert [e.n for e in res.entries] == [4, 9, 16]
        assert abs(res.exponent - 0.5) < 0.1

    def test_single_point_no_exponent(self):
        res = family_scan("star", [(4,)])
        assert res.exponent is None
        assert res.entries[0].d_max == 2
