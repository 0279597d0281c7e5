"""Code that faster paths replaced, kept as test references.

Enumerators that gf2.cluster_xors replaced: connected_support_xors grew
every support connected in a neighbour graph and tried every choice on it;
z_span_basis ran it on G^2 (or the plain support loop when G has diameter
<= 2), and normalizer_min_weight on the qubit-interaction graph.  Both
searches filtered on the syndrome afterwards.

The 3D code's structural checks on Pauli objects, which verify_3d_code now
runs on int rows: the coordinate formula of gen_3d_code, the derivation
through graph_stabilizers, pauli_mul and hadamard_conjugate (a masked x/z
swap in _derived_rows_3d), the layer products through pauli_mul, and a
whole report from them.

The full row reduction that gf2.Echelon replaced: each new row cleared from
the rows before it, and the kernel read off the fully reduced rows.
"""

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

from tqograph.gf2 import BitString, dot, support_xors
from tqograph.graphs import Graph, toric3d, toric3d_vertex
from tqograph.stabilizer import (
    Code3DReport,
    Pauli,
    StabilizerGroup,
    _orbit,
    _orbit_roots,
    graph_stabilizers,
    logical_strings,
    pauli_mul,
)


def reference_row_reduce(row_bits: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Fully reduce the rows, pivoting on lowest set bits; returns the pivot
    columns and the reduced nonzero rows, both sorted by pivot."""
    pivots: List[int] = []
    reduced: List[int] = []
    for r in row_bits:
        for p, pr in zip(pivots, reduced):
            if (r >> p) & 1:
                r ^= pr
        if r == 0:
            continue
        p = (r & -r).bit_length() - 1
        for idx in range(len(reduced)):
            if (reduced[idx] >> p) & 1:
                reduced[idx] ^= r
        pivots.append(p)
        reduced.append(r)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


def reference_kernel_basis(row_bits: Sequence[int], cols: int) -> List[int]:
    """Kernel vector of each free column j in increasing j: e_j plus the
    pivots whose fully reduced row holds bit j."""
    pivots, reduced = reference_row_reduce(row_bits)
    basis = []
    for j in range(cols):
        if j not in pivots:
            x = 1 << j
            for p, r in zip(pivots, reduced):
                if (r >> j) & 1:
                    x |= 1 << p
            basis.append(x)
    return basis


def connected_support_xors(
    choices: Sequence[Tuple[int, ...]],
    nbrs: Sequence[int],
    roots: Iterable[int],
    w: int,
    deadline=None,
) -> Iterator[int]:
    """support_xors over the weight-w connected supports whose least position
    is one of the roots.

    nbrs[v] is the neighbour bitmask of position v.  Each such support is
    grown once, from its least position (ESU, or Redelmeier's polyomino
    growth): a position becomes a candidate only when it first touches the
    support, and only above the root.  With every position as a root, that
    is every connected support.  Choices, packing and deadline checks are as
    in support_xors; supports come in growth order, root by root.
    """

    def batches(seen: int, ext: int, above: int, left: int, acc: int) -> Iterator[List[int]]:
        if deadline is not None:
            deadline.check()
        picks = []
        while ext:
            low = ext & -ext
            ext ^= low
            picks.append((low.bit_length() - 1, ext))
        if left == 1:
            yield [acc ^ c for v, _ in picks for c in choices[v]]
            return
        for v, rest in picks:
            grown = rest | (nbrs[v] & above & ~seen)
            for c in choices[v]:
                yield from batches(seen | nbrs[v], grown, above, left - 1, acc ^ c)

    if w == 0:
        yield 0
        return
    for root in roots:
        for batch in batches(0, 1 << root, -2 << root, w, 0):
            yield from batch


def square_nbrs(a) -> List[int]:
    """Neighbour bitmasks of G^2: u ~ v iff u != v and their distance in G is 1 or 2."""
    cols = a.columns()
    out = []
    for v, c in enumerate(cols):
        m, rest = c, c
        while rest:
            low = rest & -rest
            m |= cols[low.bit_length() - 1]
            rest ^= low
        out.append(m & ~(1 << v))
    return out


def connected_z_span_basis(q) -> List[BitString]:
    """The z_span_basis the kernel replaced: every support of weight <= d-1
    connected in G^2 (all of them when G^2 is complete), one choice per
    vertex, filtered on weight(k | A.k) <= d-1, kept rank-incrementally."""
    n, top = q.graph.n, q.d - 1
    low = (1 << n) - 1
    a = q.graph.adjacency()
    choices = [((1 << v) | (c << n),) for v, c in enumerate(a.columns())]
    nbrs = square_nbrs(a)
    if all(m | (1 << v) == low for v, m in enumerate(nbrs)):
        def supports(w):
            return support_xors(choices, w)
    else:
        def supports(w):
            return connected_support_xors(choices, nbrs, range(n), w)
    elim: List[int] = []
    kept: List[int] = []
    for w in range(1, min(top, n) + 1):
        for x in supports(w):
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


def connected_normalizer_min_weight(s, w_max):
    """The normalizer_min_weight the kernel replaced: every X/Z/Y choice on
    the supports connected in the qubit-interaction graph, grown from the
    orbit minima, filtered on the syndrome, keyed by the orbit minimum."""
    n, m = s.n, len(s.generators)
    roots = _orbit_roots(s)
    perms = [p + tuple(n + t for t in p) for p in s.symmetries]
    xcols, zcols = s._x.columns(), s._z.columns()
    choices = []
    for v in range(n):
        xv, zv = 1 << (m + n + v), 1 << (m + v)
        sx, sz = zcols[v] | xv, xcols[v] | zv
        choices.append((sx, sz, sx ^ sz))
    nbrs = [0] * n
    for g in s.generators:
        acted = g.x | g.z
        for v in acted.support():
            nbrs[v] |= acted.bits ^ (1 << v)
    syndrome, low = (1 << m) - 1, (1 << n) - 1
    for w in range(1, min(w_max, n) + 1):
        best = None
        for op in connected_support_xors(choices, nbrs, roots, w):
            if op & syndrome:
                continue
            key = min(_orbit(op >> m, perms))
            if best is not None and key >= best:
                continue
            xb, zb = key >> n, key & low
            if not s.in_group(Pauli(BitString(n, xb), BitString(n, zb))):
                best = key
        if best is not None:
            return w, Pauli(BitString(n, best >> n), BitString(n, best & low))
    return None


def _vertex3d(L):
    def v(i, j, k):
        return toric3d_vertex((i - 1) % L + 1, (j - 1) % L + 1, (k - 1) % L + 1, L)
    return v


def reference_gen_3d_code(L) -> List[Pauli]:
    """gen_3d_code's generators from the coordinate formula, one
    toric3d_vertex call per position."""
    n, v = L**3, _vertex3d(L)
    gens = []
    for i, j, k in itertools.product(range(1, L + 1), repeat=3):
        xb = (1 << v(i, j, k)) ^ (1 << v(i + 1, j, k))
        zb = 0
        for pos in ((i, j, k + 1), (i, j + 1, k + 1), (i + 1, j, k - 1), (i + 1, j - 1, k - 1)):
            zb ^= 1 << v(*pos)
        gens.append(Pauli(BitString(n, xb), BitString(n, zb)))
    return gens


def hadamard_conjugate(s: StabilizerGroup, b: Iterable[int]) -> StabilizerGroup:
    """Swap the x and z bits of every generator on the qubits in b.

    Signs are left unchanged (valid when no generator carries Y on b, as in
    the constructions here).
    """
    mask = 0
    for q in b:
        if not 0 <= q < s.n:
            raise ValueError(f"qubit {q} out of range")
        mask |= 1 << q
    gens = []
    for g in s.generators:
        xb = (g.x.bits & ~mask) | (g.z.bits & mask)
        zb = (g.z.bits & ~mask) | (g.x.bits & mask)
        gens.append(Pauli(BitString(s.n, xb), BitString(s.n, zb), g.sign))
    return StabilizerGroup(s.n, gens)


def reference_gen_3d_code_derived(L) -> StabilizerGroup:
    """The derivation on Pauli objects: the graph-state generators of
    toric3d (adjacency rebuilt from its edges), multiplied into local
    products with pauli_mul, then hadamard_conjugate on the i = 1 plane."""
    v = _vertex3d(L)
    g = Graph.from_edges(L**3, toric3d(L).edges)
    base = graph_stabilizers(g).generators

    def s(i, j, k):
        return base[v(i, j, k)]

    prods = []
    for i, j, k in itertools.product(range(1, L + 1), repeat=3):
        if i == 1:
            p = pauli_mul(pauli_mul(s(2, j, k), s(1, j, k + 1)), s(1, j + 1, k + 1))
        elif i == L:
            p = pauli_mul(pauli_mul(s(L, j, k), s(1, j, k - 1)), s(1, j - 1, k - 1))
        else:
            p = pauli_mul(s(i, j, k), s(i + 1, j, k))
        prods.append(p)
    hub_plane = [v(1, j, k) for j in range(1, L + 1) for k in range(1, L + 1)]
    return hadamard_conjugate(StabilizerGroup(g.n, prods), hub_plane)


def reference_product(paulis: Sequence[Pauli]) -> Pauli:
    """The ordered product, one pauli_mul per factor."""
    prod = Pauli.identity(paulis[0].n)
    for p in paulis:
        prod = pauli_mul(prod, p)
    return prod


def reference_layers_hold(gens: Sequence[Pauli], L) -> bool:
    """Each layer k's product over (i, j) in order is +identity."""
    for k in range(L):
        prod = reference_product([gens[(i * L + j) * L + k] for i in range(L) for j in range(L)])
        if not (prod.is_identity() and prod.sign == 1):
            return False
    return True


def reference_code3d_report(L) -> Code3DReport:
    """verify_3d_code(L, distance_scan=False) from the references: ranks by
    plain row reduction of the symplectic rows, pairwise commutation of the
    strings, and the derivation compared generator by generator."""
    n, gens, logicals = L**3, reference_gen_3d_code(L), logical_strings(L)

    def rank(ps):
        return len(reference_row_reduce(p.x.bits | p.z.bits << n for p in ps)[0])

    r = rank(gens)
    derived = reference_gen_3d_code_derived(L).generators
    logicals_ok = all(
        not dot(p.x, g.z) ^ dot(p.z, g.x) for p in logicals for g in gens
    ) and rank(gens + logicals) == r + L
    return Code3DReport(
        L, n, reference_layers_hold(gens, L), r, n - r, 1 << (n - r), logicals_ok,
        all(a.x == b.x and a.z == b.z for a, b in zip(gens, derived)),
        None, None, False)
