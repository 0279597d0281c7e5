import itertools
import random
import re
from pathlib import Path

import pytest

import numpy as np

from tqograph.gf2 import BitString
from tqograph.graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    complete,
    complete_bipartite,
    connected_multi_star,
    format_edge_list,
    gen_family,
    lattice,
    line_graph,
    line_of_bipartite,
    line_of_complete,
    multi_star,
    read_edge_list,
    star,
    toric,
    toric3d,
    toric3d_rows,
    toric3d_vertex,
    toric_vertex,
    write_edge_list,
)

from references import odd_degree_vertices, s_vector, transpose


# (family, params, periodic): every family builder, small and larger sizes
SYMMETRY_CASES = [
    ("star", (2,), True), ("star", (7,), True),
    ("complete", (1,), True), ("complete", (6,), True),
    ("complete_bipartite", (1, 1), True), ("complete_bipartite", (3, 5), True),
    ("multi_star", (2, 2), True), ("multi_star", (4, 3), True),
    ("lattice", (2, 3), True), ("lattice", (3, 2), True), ("lattice", (4, 2), False),
    ("lattice", (3, 3), True),
    ("toric", (2,), True), ("toric", (4,), True),
    ("connected_multi_star", (2,), True), ("connected_multi_star", (4,), True),
    ("line_of_complete", (3,), True), ("line_of_complete", (5,), True),
    ("line_of_bipartite", (2,), True), ("line_of_bipartite", (4,), True),
] + [("toric3d", (L,), True) for L in range(2, 7)]


class TestGraphBasics:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 0),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (0, 1)))

    @pytest.mark.parametrize("n,edges,message", [
        (2, ((0, 1), (0, 2)), "edge (0,2) out of range for n=2"),
        (3, ((0, 1), (-1, 2)), "edge (-1,2) out of range for n=3"),
        (3, ((0, 2), (2, 1)), "edge (2,1) must have u < v"),
        (3, ((1, 1),), "edge (1,1) must have u < v"),
        (3, ((0, 1), (1, 2), (0, 1)), "duplicate edge (0,1)"),
        # the first bad edge in order is named, whichever check it fails
        (3, ((1, 0), (0, 5)), "edge (1,0) must have u < v"),
        (3, ((0, 1), (0, 1), (0, 5)), "duplicate edge (0,1)"),
    ])
    def test_edge_validation_messages(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert str(info.value) == message

    def test_negative_vertex_count(self):
        for edges in ((), ((0, 1),)):
            with pytest.raises(ValueError) as info:
                Graph(-2, edges)
            assert str(info.value) == "negative vertex count -2"

    def test_valid_edges_pass(self):
        assert Graph(0, ()).m == 0
        assert Graph(4, ((2, 3), (0, 1), (0, 3))).m == 3  # any order

    def test_from_edges_canonicalizes(self):
        g = Graph.from_edges(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_adjacency_symmetric_zero_diagonal(self):
        g = complete(4)
        a = g.adjacency()
        assert a.row_bits == transpose(a.row_bits, 4)
        assert all((a.row_bits[i] >> i) & 1 == 0 for i in range(4))

    @pytest.mark.parametrize("family, params, periodic", SYMMETRY_CASES,
                             ids=[f"{f}{p}{'' if per else '-obc'}" for f, p, per in SYMMETRY_CASES])
    def test_every_family_adjacency_is_symmetric(self, family, params, periodic):
        # the analysis reads the rows of A as its columns; toric3d fills its
        # rows directly, the others from the edges
        a = gen_family(FamilySpec(family, params, periodic=periodic)).adjacency()
        assert a.row_bits == transpose(a.row_bits, a.cols)
        assert all((r >> v) & 1 == 0 for v, r in enumerate(a.row_bits))

    def test_cases_cover_every_family(self):
        assert {f for f, _, _ in SYMMETRY_CASES} == set(FAMILIES) - {"custom"}

    def test_random_custom_adjacency_is_symmetric(self, tmp_path):
        rng = random.Random("symmetric-custom")
        path = tmp_path / "g.txt"
        for _ in range(40):
            n = rng.randint(1, 24)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            write_edge_list(Graph.from_edges(n, [(v, u) for u, v in edges]), str(path))
            a = gen_family(FamilySpec("custom", path=str(path))).adjacency()
            assert a.row_bits == transpose(a.row_bits, n)
            assert sorted(edges) == [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if a.row_bits[u] >> v & 1]

    def test_degrees_handshake(self):
        for g in (star(5), complete(5), toric(3), connected_multi_star(3)):
            assert sum(g.degrees()) == 2 * g.m


class TestSmallFamilies:
    def test_star(self):
        g = star(4)
        assert (g.n, g.m) == (4, 3)
        assert g.degrees() == [3, 1, 1, 1]
        with pytest.raises(ValueError):
            star(1)

    def test_complete(self):
        g = complete(5)
        assert g.m == 10
        assert g.degrees() == [4] * 5
        assert complete(1).m == 0

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert (g.n, g.m) == (5, 6)
        assert g.degrees() == [3, 3, 2, 2, 2]

    def test_multi_star(self):
        g = multi_star(3, 2)
        assert (g.n, g.m) == (6, 3)
        assert g.edges == ((0, 1), (2, 3), (4, 5))
        # component c occupies [c*m, (c+1)*m) with the hub first
        g = multi_star(4, 3)
        assert g.degrees() == [2, 1, 1] * 4
        with pytest.raises(ValueError):
            multi_star(2, 3)  # needs q >= m

    def test_lattice(self):
        g = lattice(3, 2)
        assert (g.n, g.m) == (9, 18)
        assert g.degrees() == [4] * 9
        open_path = lattice(3, 1, periodic=False)
        assert open_path.edges == ((0, 1), (1, 2))
        ring = lattice(4, 1)
        assert ring.degrees() == [2] * 4

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [True, False], ids=["pbc", "obc"])
    def test_matches_definition(self, periodic, D):
        for L in range(2, 11):
            assert lattice(L, D, periodic).edges == definition_lattice_edges(L, D, periodic)

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_periodic_translations(self, D):
        # every one of the L^D translations of the torus is an automorphism
        for L in (2, 3, 4):
            g = lattice(L, D)
            coords = [[v // L**d % L for d in range(D)] for v in range(g.n)]
            for t in itertools.product(range(L), repeat=D):
                perm = [sum((c + s) % L * L**d for d, (c, s) in enumerate(zip(cs, t)))
                        for cs in coords]
                assert maps_onto_itself(g, perm)


def formula_toric_edges(L):
    """The paper's defining delta/theta adjacency formula, evaluated on every
    pair of labels (i, j, x/y), j cyclic mod L: the transcription that
    toric's column-star build replaced."""
    def theta(i, j):
        return 1 if i <= j else 0

    def delta(a, b):
        return 1 if (a - b) % L == 0 else 0

    labels = [
        (i, j, d) for d in ("x", "y") for j in range(1, L + 1) for i in range(1, L + 1)
    ]
    edges = []
    for (i1, j1, d1), (i2, j2, d2) in itertools.combinations(labels, 2):
        a = 0
        if d1 == "x" and d2 == "x" and delta(j2, j1):
            a ^= (1 if i2 == L else 0) * theta(i1, L - 1)
            a ^= (1 if i1 == L else 0) * theta(i2, L - 1)
        if d1 == "y" and d2 == "y" and delta(j2, j1):
            a ^= (1 if i1 == 1 else 0) * theta(2, i2)
            a ^= (1 if i2 == 1 else 0) * theta(2, i1)
        if d1 == "y" and d2 == "x":
            a ^= (delta(j2, j1) | delta(j2 - 1, j1)) * theta(i2, i1 - 1) * theta(2, i1)
        if d1 == "x" and d2 == "y":
            a ^= (delta(j2, j1) | delta(j1 - 1, j2)) * theta(i1 + 1, i2) * theta(i1, L - 1)
        if a:
            u = toric_vertex(i1, j1, d1, L)
            v = toric_vertex(i2, j2, d2, L)
            edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def definition_cmstar_edges(L):
    """connected_multi_star from its definition, tried on every label pair:
    the toric column stars, and (i, j, y), i >= 2, linked to (i - 1, j, x)
    and (i - 1, j + 1 mod L, x)."""
    def linked(a, b):
        (i1, j1, d1), (i2, j2, d2) = a, b
        if d1 == d2 and j1 == j2:  # a column star: one end is its hub
            hub = L if d1 == "x" else 1
            return hub in (i1, i2)
        return (d1, d2) == ("y", "x") and i1 >= 2 and i2 == i1 - 1 and (
            j2 - j1) % L in (0, 1)

    labels = [
        (i, j, d) for d in ("x", "y") for j in range(1, L + 1) for i in range(1, L + 1)
    ]
    edges = []
    for a, b in itertools.combinations(labels, 2):
        if linked(a, b) or linked(b, a):
            u, v = toric_vertex(*a, L), toric_vertex(*b, L)
            edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def definition_lattice_edges(L, D, periodic):
    """lattice from its definition, tried on every vertex pair: vertex v has
    coordinates (v // L^d) % L, and two vertices are adjacent when their
    coordinates differ in one axis by 1, or by L - 1 on a periodic lattice."""
    n = L**D
    coords = (np.arange(n)[:, None] // L ** np.arange(D)) % L
    gap = np.abs(coords[:, None, :] - coords[None, :, :])
    if periodic:
        gap = np.minimum(gap, L - gap)
    u, v = np.nonzero(np.triu(gap.sum(axis=2) == 1))
    return tuple(zip(u.tolist(), v.tolist()))


def _column(a, j):
    """Column j of the matrix a, read through the reference transpose."""
    return BitString(a.rows, transpose(a.row_bits, a.cols)[j])


def shift_toric_j(L):
    """The vertex map (i, j, x/y) -> (i, j + 1 mod L, x/y)."""
    return [v // (L * L) * L * L + (v // L + 1) % L * L + v % L for v in range(2 * L * L)]


def maps_onto_itself(g, perm):
    return {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges} == set(g.edges)


class TestToric:
    @pytest.mark.parametrize("L", range(2, 11))
    def test_matches_delta_theta_formula(self, L):
        assert toric(L).edges == formula_toric_edges(L)

    @pytest.mark.parametrize("L", range(2, 9))
    def test_j_shift_is_an_automorphism(self, L):
        assert maps_onto_itself(toric(L), shift_toric_j(L))

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_counts(self, L):
        g = toric(L)
        assert g.n == 2 * L * L
        assert g.m == L * (L - 1) * (L + 2)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_hub_columns(self, L):
        # hub columns of the adjacency: stars only, no half-graph edges
        a = toric(L).adjacency()
        for j in range(1, L + 1):
            xs = _column(a, toric_vertex(L, j, "x", L))
            assert xs == BitString.from_indices(
                2 * L * L, (toric_vertex(i, j, "x", L) for i in range(1, L))
            )
            ys = _column(a, toric_vertex(1, j, "y", L))
            assert ys == BitString.from_indices(
                2 * L * L, (toric_vertex(i, j, "y", L) for i in range(2, L + 1))
            )

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_leaf_columns(self, L):
        a = toric(L).adjacency()
        n = 2 * L * L

        def jm(j):  # cyclic predecessor / successor columns, 1-based
            return (j - 2) % L + 1

        def jp(j):
            return j % L + 1

        for j in range(1, L + 1):
            for i in range(1, L):
                want = [toric_vertex(L, j, "x", L)]
                for l in range(i + 1, L + 1):
                    want.append(toric_vertex(l, j, "y", L))
                    want.append(toric_vertex(l, jm(j), "y", L))
                assert _column(a, toric_vertex(i, j, "x", L)) == BitString.from_indices(
                    n, want
                )
            for i in range(2, L + 1):
                want = [toric_vertex(1, j, "y", L)]
                for l in range(1, i):
                    want.append(toric_vertex(l, j, "x", L))
                    want.append(toric_vertex(l, jp(j), "x", L))
                assert _column(a, toric_vertex(i, j, "y", L)) == BitString.from_indices(
                    n, want
                )

    def test_hub_degree(self):
        for L in (3, 5):
            deg = toric(L).degrees()
            assert deg[toric_vertex(L, 1, "x", L)] == L - 1
            assert deg[toric_vertex(1, 1, "y", L)] == L - 1


class TestConnectedMultiStar:
    @pytest.mark.parametrize("L", range(2, 11))
    def test_matches_definition(self, L):
        assert connected_multi_star(L).edges == definition_cmstar_edges(L)

    @pytest.mark.parametrize("L", range(2, 9))
    def test_j_shift_is_an_automorphism(self, L):
        assert maps_onto_itself(connected_multi_star(L), shift_toric_j(L))

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_degrees(self, L):
        g = connected_multi_star(L)
        deg = g.degrees()
        hubs = {toric_vertex(L, j, "x", L) for j in range(1, L + 1)}
        hubs |= {toric_vertex(1, j, "y", L) for j in range(1, L + 1)}
        for v in range(g.n):
            assert deg[v] == (L - 1 if v in hubs else 3)

    def test_connected(self):
        g = connected_multi_star(3)
        seen = {0}
        frontier = [0]
        adj = [set() for _ in range(g.n)]
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        while frontier:
            v = frontier.pop()
            for w in adj[v] - seen:
                seen.add(w)
                frontier.append(w)
        assert len(seen) == g.n


def reference_toric3d_edges(L):
    """The O(n^2) transcription windowed toric3d replaced: every vertex pair
    against the generalized delta/theta formula, j and k cyclic mod L."""
    def delta(a, b):
        return 1 if (a - b) % L == 0 else 0

    def theta(a, b):
        return 1 if a <= b else 0

    rng = range(1, L + 1)
    labels = [(i, j, k) for k in rng for j in rng for i in rng]
    edges = []
    for (i1, j1, k1), (i2, j2, k2) in itertools.combinations(labels, 2):
        a = 0
        if delta(j1, j2) and delta(k1, k2):
            a ^= (1 if i1 == 1 else 0) * theta(2, i2)
            a ^= (1 if i2 == 1 else 0) * theta(2, i1)
        if delta(j1, j2):
            a ^= delta(k1, k2 + 1) * theta(i2, i1) * theta(2, i2)
            a ^= delta(k2, k1 + 1) * theta(i1, i2) * theta(2, i1)
        if delta(j1, j2 + 1) and delta(k1, k2 + 1):
            a ^= theta(i2, i1) * theta(2, i2)
        if delta(j2, j1 + 1) and delta(k2, k1 + 1):
            a ^= theta(i1, i2) * theta(2, i1)
        if a:
            edges.append((toric3d_vertex(i1, j1, k1, L), toric3d_vertex(i2, j2, k2, L)))
    return tuple(sorted(edges))


def windowed_toric3d_edges(L):
    """The formula loop the neighbour-offset toric3d replaced: each vertex
    against the 9L partners whose j and k differ by 0 or +-1 mod L."""
    def delta(a, b):
        return 1 if (a - b) % L == 0 else 0

    def theta(a, b):
        return 1 if a <= b else 0

    rng = range(1, L + 1)
    edges = set()
    for k1, j1, i1 in itertools.product(rng, rng, rng):
        u = toric3d_vertex(i1, j1, k1, L)
        near = [{(c + e - 1) % L + 1 for e in (-1, 0, 1)} for c in (k1, j1)]
        for k2, j2, i2 in itertools.product(*near, rng):
            v = toric3d_vertex(i2, j2, k2, L)
            if v <= u:
                continue
            a = 0
            if delta(j1, j2) and delta(k1, k2):
                a ^= (1 if i1 == 1 else 0) * theta(2, i2)
                a ^= (1 if i2 == 1 else 0) * theta(2, i1)
            if delta(j1, j2):
                a ^= delta(k1, k2 + 1) * theta(i2, i1) * theta(2, i2)
                a ^= delta(k2, k1 + 1) * theta(i1, i2) * theta(2, i1)
            if delta(j1, j2 + 1) and delta(k1, k2 + 1):
                a ^= theta(i2, i1) * theta(2, i2)
            if delta(j2, j1 + 1) and delta(k2, k1 + 1):
                a ^= theta(i1, i2) * theta(2, i1)
            if a:
                edges.add((u, v))
    return tuple(sorted(edges))


class TestToric3D:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_matches_all_pairs_formula(self, L):
        assert toric3d(L).edges == reference_toric3d_edges(L)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_windowed_formula(self, L):
        assert toric3d(L).edges == windowed_toric3d_edges(L)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
    def test_rows_are_the_adjacency_of_the_edges(self, L):
        # toric3d primes its adjacency cache with the rows it reads the edges
        # off, so both must agree with the adjacency rebuilt from the edges
        g = toric3d(L)
        want = Graph(g.n, g.edges).adjacency()
        assert g.adjacency() == want
        assert list(want.row_bits) == toric3d_rows(L)

    def test_L2_is_disjoint_dimers(self):
        # mod-2 cancellation collapses every inter-layer pair at L = 2
        g = toric3d(2)
        assert g.n == 8 and g.m == 4
        assert g.degrees() == [1] * 8
        for k in (1, 2):
            for j in (1, 2):
                e = (toric3d_vertex(1, j, k, 2), toric3d_vertex(2, j, k, 2))
                assert (min(e), max(e)) in g.edges

    @pytest.mark.parametrize("L", [3, 4])
    def test_layer_stars(self, L):
        # within a (j, k) column, vertex (1, j, k) is a star hub over i >= 2
        g = toric3d(L)
        es = set(g.edges)
        for j in range(1, L + 1):
            for k in range(1, L + 1):
                hub = toric3d_vertex(1, j, k, L)
                for i in range(2, L + 1):
                    v = toric3d_vertex(i, j, k, L)
                    assert (min(hub, v), max(hub, v)) in es

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_shifts(self, L):
        # the cyclic j and k shifts are automorphisms; the i shift, which
        # moves the column-star hubs, is not once L >= 3
        g, rng = toric3d(L), range(1, L + 1)
        labels = list(itertools.product(rng, rng, rng))

        def shift(axis):
            perm = [0] * g.n
            for ijk in labels:
                moved = [c % L + 1 if a == axis else c for a, c in enumerate(ijk)]
                perm[toric3d_vertex(*ijk, L)] = toric3d_vertex(*moved, L)
            return perm

        assert maps_onto_itself(g, shift(1))
        assert maps_onto_itself(g, shift(2))
        assert maps_onto_itself(g, shift(0)) == (L == 2)

    def test_vertex_count(self):
        assert toric3d(3).n == 27
        assert toric3d(4).n == 64


class TestLineGraphs:
    def test_degree_identity(self):
        for g in (complete(5), complete_bipartite(3, 4), star(6), toric(2)):
            lg, base = line_graph(g)
            deg = g.degrees()
            ldeg = lg.degrees()
            for idx, (u, v) in enumerate(base):
                assert ldeg[idx] == deg[u] + deg[v] - 2

    def test_adjacency_column_is_vertex_pair_xor(self):
        # in the line graph, the neighbors of edge (u, v) are exactly the
        # other edges meeting u or v, i.e. s^u xor s^v
        for g in (complete(4), complete_bipartite(2, 3), toric(2)):
            lg, base = line_graph(g)
            a = lg.adjacency()
            for idx, (u, v) in enumerate(base):
                assert _column(a, idx) == s_vector(g, u) ^ s_vector(g, v)

    def test_named_families(self):
        assert line_of_complete(4).n == 6
        assert line_of_complete(4).degrees() == [4] * 6
        assert line_of_bipartite(3).n == 9
        assert line_of_bipartite(3).degrees() == [4] * 9


class TestEdgeSpace:
    def test_s_vector(self):
        g = star(4)
        assert s_vector(g, 0) == BitString.ones(3)
        assert s_vector(g, 2) == BitString.basis(3, 1)
        with pytest.raises(ValueError):
            s_vector(g, 4)

    def test_odd_degree_single_edge(self):
        g = complete(4)
        info = odd_degree_vertices(g, BitString.basis(g.m, 0))
        assert info.vertices == g.edges[0]
        assert info.l == 2

    def test_odd_degree_vertex_cut_is_even_free(self):
        # s^v selects a star around v: v gets deg(v), each neighbor degree 1
        g = complete(5)
        info = odd_degree_vertices(g, s_vector(g, 2))
        assert info.vertices == (0, 1, 3, 4)  # deg(v) = 4 is even
        g2 = complete(4)
        info2 = odd_degree_vertices(g2, s_vector(g2, 2))
        assert info2.vertices == (0, 1, 2, 3)

    def test_bipartite_split(self):
        g = complete_bipartite(2, 3)
        info = odd_degree_vertices(g, BitString.basis(g.m, 0), x_part=range(2))
        assert (info.l_x, info.l_y) == (1, 1)

    def test_length_check(self):
        with pytest.raises(ValueError):
            odd_degree_vertices(complete(3), BitString.zeros(2))


class TestFamilySpecAndIO:
    def test_gen_family_dispatch(self):
        assert gen_family(FamilySpec("star", (5,))).n == 5
        assert gen_family(FamilySpec("toric", (2,))).n == 8
        assert gen_family(FamilySpec("lattice", (3, 1), periodic=False)).m == 2
        with pytest.raises(ValueError):
            gen_family(FamilySpec("star", (5, 2)))
        with pytest.raises(ValueError):
            gen_family(FamilySpec("nope", (1,)))
        with pytest.raises(ValueError):
            gen_family(FamilySpec("custom"))

    def test_families_in_readme(self):
        # the README's "Families:" paragraph names every family, in order
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        para = text.split("\nFamilies: ", 1)[1].split("\n\n", 1)[0]
        assert tuple(re.findall(r"`([a-z0-9_]+)`", para)) == FAMILIES

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "custom"])
    def test_parameter_count_message(self, family):
        count = 2 if family in ("complete_bipartite", "multi_star", "lattice") else 1
        with pytest.raises(ValueError) as err:
            gen_family(FamilySpec(family, (3,) * (count + 1)))
        assert str(err.value) == f"{family} takes {count} parameter(s), got {count + 1}"

    def test_edge_list_round_trip(self, tmp_path):
        g = toric(2)
        path = tmp_path / "g.txt"
        write_edge_list(g, str(path))
        g2 = read_edge_list(str(path))
        assert (g2.n, g2.edges) == (g.n, g.edges)

    def test_edge_list_comments_and_errors(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n3 2\n0 1  # an edge\n1 2\n")
        g = read_edge_list(str(path))
        assert g.edges == ((0, 1), (1, 2))
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError, match="expected 2 edges"):
            read_edge_list(str(path))
        path.write_text("-2 0\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(str(path))
        assert str(info.value) == f"{path}: negative vertex count -2"
        path.write_text("3 1\n0 3\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(str(path))
        assert str(info.value) == f"{path}: edge (0,3) out of range for n=3"

    def test_format_edge_list(self):
        assert format_edge_list(star(3)) == "3 2\n0 1\n0 2\n"
