"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Each test prints a single ``criterion NN: PASS/FAIL`` line with supporting
numbers and asserts both the claim and its runtime bound.

Criterion 10 is the one that fails: it asserts the published [[L^3, L, L]]
target, while the generator as written in ``gen_3d_code`` has rank
deficiency 2L - (L mod 2) (cross-checked independently in
``tests/test_stabilizer.py``).  The repository does not hold the paper's 3D
generator formula, so whether the transcription or the published k is off
cannot be settled here; the printed line carries the measured values.

Criteria 3 and 5 assert their edge cases explicitly: d_max = 1 at n = 3 for
the star and the triangle, and the m = 2 multi-star C set (labels nonzero on
both edges), each cross-checked by the state-vector oracle.
"""

import itertools
import random
import time

from tqograph.gf2 import BitString, Gf2Matrix
from tqograph.graphs import (
    Graph,
    complete,
    complete_bipartite,
    lattice,
    line_graph,
    multi_star,
    star,
    toric,
    toric_vertex,
)
from tqograph.analysis import (
    ClassicalCode,
    SetQuery,
    c_set,
    d_max,
    graph_basis_inner_analytic,
    in_C,
    in_W,
    ldpc_embed,
    verify_codewords,
)
from tqograph.oracle import (
    brute_force_qecc_check,
    build_graph_state,
    graph_basis_state,
    pauli_matrix_element,
)
from tqograph.stabilizer import verify_3d_code

from references import odd_degree_vertices, s_vector


def report(num, ok, detail, elapsed, bound):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"criterion {num:02d}: {status} ({detail}; {elapsed:.1f}s < {bound:.0f}s)")
    assert elapsed < bound, f"runtime {elapsed:.1f}s over bound {bound}s"
    assert ok, detail


def connected(n, edges):
    if n == 1:
        return True
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, frontier = {0}, [0]
    while frontier:
        for w in adj[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    return len(seen) == n


def all_connected_graphs(n_max):
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            if connected(n, edges):
                yield Graph.from_edges(n, edges)


def random_connected_graph(rng, n):
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        if connected(n, edges):
            return Graph.from_edges(n, edges)


def in_Z(q, k):
    """k is in Z(G, d) iff wt(k | A.k) <= d - 1."""
    return (k | q.graph.adjacency().mat_vec(k)).weight() <= q.d - 1


def test_criterion_01_matrix_element_closed_form():
    """Closed-form graph-basis matrix elements match the state vector."""
    t0 = time.monotonic()
    rng = random.Random(101)
    worst = 0.0
    graphs = 0
    for g in all_connected_graphs(5):
        graphs += 1
        a = g.adjacency()
        for _ in range(8):
            h, gg, k, l = (BitString(g.n, rng.getrandbits(g.n)) for _ in range(4))
            lhs = graph_basis_inner_analytic(a, h, gg, k, l)
            rhs = pauli_matrix_element(
                graph_basis_state(g, h), graph_basis_state(g, gg), k, l
            )
            worst = max(worst, abs(lhs - rhs))
    for _ in range(500):
        n = rng.randrange(6, 11)
        g = random_connected_graph(rng, n)
        a = g.adjacency()
        h, gg, k, l = (BitString(n, rng.getrandbits(n)) for _ in range(4))
        lhs = graph_basis_inner_analytic(a, h, gg, k, l)
        rhs = pauli_matrix_element(
            graph_basis_state(g, h), graph_basis_state(g, gg), k, l
        )
        worst = max(worst, abs(lhs - rhs))
    report(
        1,
        worst <= 1e-9,
        f"{graphs} connected graphs n<=5 exhaustive + 500 random tuples, "
        f"max deviation {worst:.2e}",
        time.monotonic() - t0,
        60,
    )


def test_criterion_02_membership_equals_brute_force():
    """h in C(G, n, d) iff the two-state brute-force check passes."""
    t0 = time.monotonic()
    rng = random.Random(202)
    agree = 0
    for _ in range(200):
        n = rng.randrange(2, 9)
        g = random_connected_graph(rng, n)
        d = rng.randrange(1, min(4, n) + 1)
        h = BitString(n, rng.randrange(1, 1 << n))
        analytic = in_C(SetQuery(g, d), h)
        states = [build_graph_state(g), graph_basis_state(g, h)]
        brute = brute_force_qecc_check(states, d).ok
        if analytic == brute:
            agree += 1
    report(2, agree == 200, f"{agree}/200 exact agreement", time.monotonic() - t0, 300)


def test_criterion_03_star_and_complete():
    """d_max = 2 for stars and complete graphs across n in [4, 12], 1 at n = 3.

    On three vertices every nonzero label is A.m ^ l for a weight-1 Pauli, so
    W covers all seven of them and C(G, 3, 2) is empty; a pass would also need
    a [[3,1,2]] stabilizer code, which does not exist.  The n = 3 value is
    cross-checked by the state-vector oracle on all seven labels.
    """
    t0 = time.monotonic()
    values = {}
    for n in range(3, 13):
        values[("star", n)] = d_max(star(n)).value
        values[("complete", n)] = d_max(complete(n)).value
    bad = sorted(k for k, v in values.items() if v != (1 if k[1] == 3 else 2))
    oracle_hits = [
        (g.name, h.to_text())
        for g in (star(3), complete(3))
        for h in (BitString(3, b) for b in range(1, 8))
        if brute_force_qecc_check([build_graph_state(g), graph_basis_state(g, h)], 2).ok
    ]
    report(
        3,
        not bad and not oracle_hits,
        f"d_max=2 for n in [4,12] and d_max=1 at n=3 (deviations {bad}: "
        f"{[values[k] for k in bad]}); labels passing the n=3 state-vector "
        f"check at d=2: {oracle_hits}",
        time.monotonic() - t0,
        30,
    )


def test_criterion_04_constant_degree_bound():
    """Periodic 2D lattices stay within the degree bound d_max <= 5."""
    t0 = time.monotonic()
    vals = {L: d_max(lattice(L, 2)).value for L in (3, 4)}
    ok = all(v is not None and v <= 5 for v in vals.values())
    report(4, ok, f"d_max {vals} all <= 5", time.monotonic() - t0, 120)


def multi_star_closed_c(q, m):
    """C(multi_star(q, m), m) from the definitions of Z, W and C.

    A label is a member iff it is nonzero on at least m components.  For
    m >= 3 a leaf k has weight(k | A.k) = 2 <= m - 1, so k lies in Z and every
    member is zero on the leaves: C is the hub span of weight >= m.  For m = 2
    each component is one edge, Z = {0}, and W is zero plus every pattern on a
    single edge, so C is every label that is nonzero on both edges.
    """
    n = q * m
    free = [c * m for c in range(q)] if m >= 3 else list(range(n))
    closed = set()
    for mask in range(1, 1 << len(free)):
        h = BitString(n, sum(1 << v for i, v in enumerate(free) if (mask >> i) & 1))
        if sum(any(h.bit(v) for v in range(c * m, (c + 1) * m)) for c in range(q)) >= m:
            closed.add(h)
    return closed


def test_criterion_05_multi_star_closed_form():
    """d_max = m and C equals the closed form: nonzero on >= m components."""
    t0 = time.monotonic()
    details = []
    ok = True
    for q, m in ((2, 2), (3, 3), (4, 3), (4, 4)):
        g = multi_star(q, m)
        dm = d_max(g).value
        actual = set(c_set(SetQuery(g, m)).members)
        closed = multi_star_closed_c(q, m)
        match = actual == closed
        ok = ok and dm == m and match
        details.append(f"({q},{m}): d_max={dm}, |C|={len(actual)} vs closed {len(closed)}")
    # (2, 2): swapping the endpoints of an edge is an automorphism, so the
    # closed form must be invariant under it, and it must agree with the
    # state-vector oracle on all fifteen labels
    g = multi_star(2, 2)
    closed = multi_star_closed_c(2, 2)
    invariant = all(
        {BitString(4, sum(1 << perm[v] for v in h.support())) for h in closed}
        == closed
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2))
    )
    oracle_agree = all(
        brute_force_qecc_check([build_graph_state(g), graph_basis_state(g, h)], 2).ok
        == (h in closed)
        for h in (BitString(4, b) for b in range(1, 16))
    )
    ok = ok and invariant and oracle_agree
    details.append(
        f"(2,2) closed form edge-swap invariant={invariant}, "
        f"state-vector agreement on 15 labels={oracle_agree}"
    )
    report(5, ok, "; ".join(details), time.monotonic() - t0, 60)


def test_criterion_06_classical_embedding():
    """A [4,2,2] classical code embeds into the four-star graph at d = 2."""
    t0 = time.monotonic()
    code = ClassicalCode(
        Gf2Matrix.from_rows([BitString.from_text("1100"), BitString.from_text("0011")])
    )
    g = multi_star(4, 2)
    labels = ldpc_embed(code, 2)
    analytic = verify_codewords(g, 2, labels[1:]).ok
    states = [graph_basis_state(g, h) for h in labels]
    brute = brute_force_qecc_check(states, 2).ok
    report(
        6,
        analytic and brute,
        f"4 labels on 8 qubits: analytic={analytic}, state-vector={brute}",
        time.monotonic() - t0,
        60,
    )


def test_criterion_07_toric_L5():
    """C of the 50-vertex toric graph at d = 5 is exactly three strings."""
    t0 = time.monotonic()
    L = 5
    g = toric(L)
    res = c_set(SetQuery(g, 5))
    hx = BitString(g.n, sum(1 << toric_vertex(L, j, "x", L) for j in range(1, L + 1)))
    hy = BitString(g.n, sum(1 << toric_vertex(1, j, "y", L) for j in range(1, L + 1)))
    want = {hx, hy, hx ^ hy}
    ok = res.exhaustive and set(res.members) == want
    report(
        7,
        ok,
        f"|C|={len(res.members)}, equals the two hub rows and their sum: "
        f"{set(res.members) == want}",
        time.monotonic() - t0,
        600,
    )


def test_criterion_08_line_of_complete():
    """Triangular graphs: vertex cuts are members and the weight law holds."""
    t0 = time.monotonic()
    rng = random.Random(808)
    ok = True
    details = []
    for m in (4, 5, 6):
        base = complete(m)
        lg, _ = line_graph(base)
        d = m // 2
        q = SetQuery(lg, d)
        members = all(in_C(q, s_vector(base, v)) for v in range(m))
        a = lg.adjacency()
        law = True
        for _ in range(1000):
            k = BitString(lg.n, rng.getrandbits(lg.n))
            l = odd_degree_vertices(base, k).l
            if a.mat_vec(k).weight() != l * (m - l):
                law = False
        ok = ok and members and law
        details.append(f"m={m}: members={members}, weight law={law}")
    base = complete(4)
    lg, _ = line_graph(base)
    oracle_ok = all(
        brute_force_qecc_check(
            [build_graph_state(lg), graph_basis_state(lg, s_vector(base, v))], 2
        ).ok
        for v in range(4)
    )
    ok = ok and oracle_ok
    details.append(f"m=4 state-vector cross-check={oracle_ok}")
    report(8, ok, "; ".join(details), time.monotonic() - t0, 300)


def test_criterion_09_rook():
    """Rook's graph: members, the blocking xor, and the bipartite weight law."""
    t0 = time.monotonic()
    m = 4
    base = complete_bipartite(m, m)
    lg, _ = line_graph(base)
    q = SetQuery(lg, 4)
    cuts = [s_vector(base, v) for v in range(2 * m)]
    members = all(in_C(q, h) for h in cuts)
    blocked = in_W(q, cuts[0] ^ cuts[4])
    a = lg.adjacency()
    rng = random.Random(909)
    law = True
    for _ in range(1000):
        k = BitString(lg.n, rng.getrandbits(lg.n))
        info = odd_degree_vertices(base, k, x_part=range(m))
        want = info.l_x * (m - info.l_y) + info.l_y * (m - info.l_x)
        if a.mat_vec(k).weight() != want:
            law = False
    report(
        9,
        members and blocked and law,
        f"8 vertex cuts in C={members}, cut xor lands in W={blocked}, "
        f"weight law={law}",
        time.monotonic() - t0,
        300,
    )


def test_criterion_10_3d_code():
    """Layered 3D code verifies as [[8,2,2]] and [[27,3,3]]."""
    t0 = time.monotonic()
    reps = {L: verify_3d_code(L) for L in (2, 3)}
    ok = all(
        r.ok and r.rank_deficiency == r.L and r.code_dim == 1 << r.L
        for r in reps.values()
    )
    detail = ", ".join(
        f"L={L}: measured {r.params()} (rank deficiency {r.rank_deficiency}, "
        f"target {L}; constraints={r.constraints_hold}, "
        f"derivation={r.derivation_ok}, logicals={r.logicals_ok}, "
        f"distance={r.distance})"
        for L, r in reps.items()
    )
    report(10, ok, detail, time.monotonic() - t0, 600)


def test_criterion_11_monotonicity():
    """Set memberships are monotone in d and every nonzero h sits in C at d=1."""
    t0 = time.monotonic()
    rng = random.Random(1111)
    ok = True
    for _ in range(100):
        n = rng.randrange(2, 11)
        g = random_connected_graph(rng, n)
        for _ in range(6):
            h = BitString(n, rng.getrandbits(n))
            d = rng.randrange(1, n + 1)
            lo, hi = SetQuery(g, d), SetQuery(g, d + 1)
            if in_Z(lo, h) and not in_Z(hi, h):
                ok = False
            if in_W(lo, h) and not in_W(hi, h):
                ok = False
            if in_C(hi, h) and not in_C(lo, h):
                ok = False
            if not h.is_zero() and not in_C(SetQuery(g, 1), h):
                ok = False
    report(11, ok, "100 random graphs, sampled nesting relations", time.monotonic() - t0, 120)
