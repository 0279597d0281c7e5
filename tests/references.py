"""Code that faster paths replaced, kept as test references.

Enumerators that gf2.cluster_xors replaced: connected_support_xors grew
every support connected in a neighbour graph and tried every choice on it;
z_span_basis ran it on G^2 (or the plain support loop when G has diameter
<= 2), and normalizer_min_weight on the qubit-interaction graph.  Both
searches filtered on the syndrome afterwards.  reference_cluster_xors is
gf2.cluster_xors as a chain of generators, one per growth node, which the
flat recursion must match hit for hit and in order.

The 3D code's structural checks on Pauli objects, which verify_3d_code now
runs on int rows: the coordinate formula of gen_3d_code, the derivation
through graph_stabilizers, pauli_mul and hadamard_conjugate (a masked x/z
swap in _derived_rows_3d), the layer products through pauli_mul, and a
whole report from them.

The full row reduction that gf2.Echelon replaced: each new row cleared from
the rows before it, and the kernel read off the fully reduced rows.

Stabilizer groups on Pauli objects, which StabilizerGroup replaced with
(x, z) int rows: a group with every element listed, and the code-pair
generators that paired each vertex of supp(h) with the lowest one.  The
Pauli-object API that the package dropped once only tests called it:
pauli_mul, the reference for stabilizer._product; group_from_paulis, a
StabilizerGroup built from Paulis; and sign-sensitive group membership on
the row reduction that tests every basis row in insertion order, each row
carrying its generator-combination mask (reference_reduced_basis,
reference_reduce and reference_in_group).

verify_codewords as it was before a label set that forms a subspace with
zero was walked on its zero-label pairs only: every pair, in
itertools.combinations order, each xor through in_W.  And as it was
before one pair loop served both cases: all pairs, or only the zero-label
pairs when the labels and zero form a subspace.

W membership before the check-guided peel: h in T_a, or one scan of h ^ T_b
against T_a, a = d // 2 and b = (d - 1) // 2, T_w the syndromes of the
Paulis of weight <= w.

d_max as each probe once ran it: span(Z) rebuilt anew by
z_span_basis at every d, and the least member of C found among the whole
span of Z^perp.

The twin pairs of span(Z)'s weight-2 class as _z_class found them before
it bucketed vertices by neighbourhood: every pair u < v tested in turn.

Helpers that only the tests call: classical_min_distance, which ldpc_embed
folded into its one walk; degrees, graph_stabilizers, pauli_expectation,
the edge-space helpers s_vector and odd_degree_vertices, and transpose,
the column view Gf2Matrix no longer keeps.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from tqograph.analysis import (
    ClassicalCode, SetQuery, VerifyVerdict, in_W, z_span_basis, zperp_basis)
from tqograph import analysis, gf2
from tqograph.gf2 import BitString, Gf2Matrix, dot, support_xors
from tqograph.graphs import Graph, toric3d, toric3d_vertex
from tqograph.oracle import pauli_matrix_element
from tqograph.stabilizer import (
    Code3DReport,
    Pauli,
    StabilizerGroup,
    _orbit,
    _orbit_roots,
    logical_strings,
)


def pauli_mul(p: Pauli, q: Pauli) -> Pauli:
    """(X^x1 Z^z1)(X^x2 Z^z2) picks up (-1)^{z1.x2} when reordering."""
    if p.n != q.n:
        raise ValueError("length mismatch")
    sign = p.sign * q.sign * (-1 if dot(p.z, q.x) else 1)
    return Pauli(p.x ^ q.x, p.z ^ q.z, sign)


def group_from_paulis(n: int, paulis: Iterable[Pauli],
                      symmetries: Sequence[Sequence[int]] = ()) -> StabilizerGroup:
    """The group generated by the Paulis, in their order."""
    paulis = tuple(paulis)
    if any(p.n != n for p in paulis):
        raise ValueError("generator length mismatch")
    signs = sum(1 << i for i, p in enumerate(paulis) if p.sign < 0)
    return StabilizerGroup(n, [(p.x.bits, p.z.bits) for p in paulis], signs, symmetries)


def reference_reduced_basis(s: StabilizerGroup) -> Tuple[Tuple[int, int, int], ...]:
    """(pivot, row, combination mask) of each independent generator row, in
    generator order, each reduced by the rows kept before it."""
    basis = []
    for idx, g in enumerate(s.generators):
        r, comb = reference_reduce(basis, g.x.bits | (g.z.bits << s.n))
        comb ^= 1 << idx
        if r:
            basis.append(((r & -r).bit_length() - 1, r, comb))
    return tuple(basis)


def reference_reduce(basis, r: int) -> Tuple[int, int]:
    """The residue of r and the combination mask of the rows it took,
    testing every basis row in insertion order."""
    comb = 0
    for piv, row, c in basis:
        if (r >> piv) & 1:
            r ^= row
            comb ^= c
    return r, comb


def reference_in_group(s: StabilizerGroup, basis, p: Pauli) -> bool:
    """Sign-sensitive membership of p in s, basis its reference_reduced_basis:
    p's vector reduces to zero, and the product of the generators that took
    it there carries p's sign (well defined, as the generators commute)."""
    r, comb = reference_reduce(basis, p.x.bits | (p.z.bits << s.n))
    if r:
        return False
    prod = Pauli.from_text("I" * s.n)
    for idx, g in enumerate(s.generators):
        if (comb >> idx) & 1:
            prod = pauli_mul(prod, g)
    return prod.sign == p.sign


def graph_stabilizers(g: Graph) -> StabilizerGroup:
    """Generator i is X on vertex i and Z on each of its neighbors."""
    return StabilizerGroup(g.n, [(1 << i, r) for i, r in enumerate(g.adjacency().row_bits)])


def degrees(g: Graph) -> List[int]:
    """Vertex degrees, the bit counts of the adjacency rows."""
    return [r.bit_count() for r in g.adjacency().row_bits]


def transpose(rows: Iterable[int], width: int) -> Tuple[int, ...]:
    """The width column bitsets of the int rows: bit i of column j is bit j
    of row i."""
    cols = [0] * width
    for i, r in enumerate(rows):
        for j in range(width):
            cols[j] |= (r >> j & 1) << i
    return tuple(cols)


def pauli_expectation(psi, k: BitString, l: BitString) -> complex:
    """<psi| X^k Z^l |psi>."""
    return pauli_matrix_element(psi, psi, k, l)


def s_vector(g: Graph, v: int) -> BitString:
    """Edge-indicator bitstring of all edges incident to vertex v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return BitString(g.m, sum(1 << i for i, (a, b) in enumerate(g.edges) if v in (a, b)))


@dataclass(frozen=True)
class OddDegreeInfo:
    vertices: Tuple[int, ...]
    l: int
    l_x: Optional[int] = None
    l_y: Optional[int] = None


def odd_degree_vertices(
    g: Graph, k: BitString, x_part: Optional[Iterable[int]] = None
) -> OddDegreeInfo:
    """Vertices with odd degree in the edge subgraph selected by k; given the
    X side x_part of a bipartition, also their count on each side."""
    if k.n != g.m:
        raise ValueError(f"expected {g.m} edge bits, got {k.n}")
    deg = [0] * g.n
    for i in k.support():
        u, v = g.edges[i]
        deg[u] += 1
        deg[v] += 1
    odd = tuple(v for v in range(g.n) if deg[v] & 1)
    if x_part is not None:
        xs = set(x_part)
        l_x = sum(1 for v in odd if v in xs)
        return OddDegreeInfo(odd, len(odd), l_x, len(odd) - l_x)
    return OddDegreeInfo(odd, len(odd))


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


def reference_cluster_xors(choices: Sequence[Tuple[int, ...]], m: int) -> Callable[..., Iterator[int]]:
    """gf2.cluster_xors as it was first written, the order reference of
    the flat kernel: the same branching, pruning and deadline rule, but each
    growth node is a generator, chained with yield from, and every test
    masks the whole packed int with the low m bits."""
    # Each choice has a bit in the "open" mask a growth passes down: a branch
    # closes its position's choices and those of the branches before it.
    low, single = (1 << m) - 1, {}  # single: nonzero syndrome -> [(bit, choice)]
    start = list(itertools.accumulate((len(options) for options in choices), initial=0))
    # (bit, choice, bits of its position) for every choice, in position order
    entries = [(1 << (start[v] + j), c, (1 << start[v + 1]) - (1 << start[v]))
               for v, options in enumerate(choices) for j, c in enumerate(options)]
    for e, c, _ in entries:
        if c & low:
            single.setdefault(c & low, []).append((e, c))
    spread = max((s.bit_count() for s in single), default=0)
    # check -> the entries that flip it, and the checks grouped by how many
    # entries flip them, fewest first
    flips = [[] for _ in range(m)]
    for entry in entries:
        s = entry[1] & low
        while s:
            t = s & -s
            flips[t.bit_length() - 1].append(entry)
            s ^= t
    tiers = [sum(1 << i for i, f in enumerate(flips) if len(f) == k)
             for k in sorted({len(f) for f in flips})]

    def xors(roots: Iterable[int], w: int, deadline=gf2.NEVER) -> Iterator[int]:
        nodes = itertools.count(1)  # growth nodes, for the deadline
        deadline.check()

        def grow(acc: int, left: int, open_: int) -> Iterator[List[int]]:
            # left >= 2 positions still to add to acc, whose syndrome is nonzero
            if not next(nodes) % gf2.CHECK_EVERY:
                deadline.check()
            syn = acc & low
            if syn.bit_count() > left * spread:
                return
            for t in tiers:
                if syn & t:
                    break
            t &= syn
            out: List[int] = []
            for e, c, used in flips[(t & -t).bit_length() - 1]:
                if open_ & e:
                    nxt, rest = acc ^ c, open_ & ~used
                    s = nxt & low
                    if left > 2:
                        if s:
                            yield from grow(nxt, left - 1, rest)
                    elif s in single:
                        out += [nxt ^ c2 for e2, c2 in single[s] if rest & e2]
                    open_ &= ~e
            if out:
                yield out

        for r in roots:
            open_ = (1 << start[-1]) - (1 << start[r + 1])  # the choices above r
            for c in choices[r]:
                if w == 1 and not c & low:
                    yield c
                elif w == 2:
                    yield from [c ^ c2 for e2, c2 in single.get(c & low, ()) if open_ & e2]
                elif w > 2 and c & low:
                    yield from itertools.chain.from_iterable(grow(c, w - 1, open_))

    return xors


def square_nbrs(a) -> List[int]:
    """Neighbour bitmasks of G^2: u ~ v iff u != v and their distance in G is 1 or 2."""
    cols = a.row_bits
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
    choices = [((1 << v) | (c << n),) for v, c in enumerate(a.row_bits)]
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
    n, m = s.n, len(s.rows)
    roots = _orbit_roots(s)
    perms = [p + tuple(n + t for t in p) for p in s.symmetries]
    xcols, zcols = s._xcols, s._zcols
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
            if s._ech.reduce(xb | zb << n):
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
    return group_from_paulis(s.n, gens)


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
    return hadamard_conjugate(group_from_paulis(g.n, prods), hub_plane)


def reference_product(paulis: Sequence[Pauli]) -> Pauli:
    """The ordered product, one pauli_mul per factor."""
    prod = Pauli.from_text("I" * paulis[0].n)
    for p in paulis:
        prod = pauli_mul(prod, p)
    return prod


def reference_layers_hold(gens: Sequence[Pauli], L) -> bool:
    """Each layer k's product over (i, j) in order is +identity."""
    for k in range(L):
        prod = reference_product([gens[(i * L + j) * L + k] for i in range(L) for j in range(L)])
        if prod.weight() or prod.sign != 1:
            return False
    return True


def reference_code3d_report(L) -> Code3DReport:
    """verify_3d_code(L, distance_scan=False) from the references: ranks by
    plain row reduction of the symplectic rows, pairwise commutation of the
    strings, and the derivation compared generator by generator."""
    n, gens = L**3, reference_gen_3d_code(L)
    logicals = [Pauli(BitString(n, x), BitString(n, z)) for x, z in logical_strings(L)]

    def rank(ps):
        return len(reference_row_reduce(p.x.bits | p.z.bits << n for p in ps)[0])

    r = rank(gens)
    derived = reference_gen_3d_code_derived(L).generators
    logicals_ok = all(
        not dot(p.x, g.z) ^ dot(p.z, g.x) for p in logicals for g in gens
    ) and rank(gens + logicals) == r + L
    return Code3DReport(
        L, n, reference_layers_hold(gens, L), r, logicals_ok,
        all(a.x == b.x and a.z == b.z for a, b in zip(gens, derived)),
        None, None, False)


def reference_commutation_error(gens: Sequence[Pauli]):
    """The error of the pairwise commutation loop the syndrome columns
    replaced (first bad pair in itertools.combinations order), or None."""
    for a, b in itertools.combinations(gens, 2):
        if dot(a.x, b.z) ^ dot(a.z, b.x):
            return f"generators do not commute: {a.to_text()} vs {b.to_text()}"
    return None


class ReferencePauliGroup:
    """A stabilizer group on Pauli objects with every element listed, for
    small n: elements maps (x bits, z bits) to the element, grown by
    doubling with pauli_mul (a generator already listed adds nothing).
    Commutation is checked by reference_commutation_error."""

    def __init__(self, n: int, gens: Sequence[Pauli]):
        error = reference_commutation_error(gens)
        if error is not None:
            raise ValueError(error)
        self.n, self.gens = n, list(gens)
        self.elements = {(0, 0): Pauli.from_text("I" * n)}
        for g in gens:
            if (g.x.bits, g.z.bits) not in self.elements:
                for p in list(self.elements.values()):
                    q = pauli_mul(p, g)
                    self.elements[q.x.bits, q.z.bits] = q

    def rank(self) -> int:
        return len(self.elements).bit_length() - 1

    def in_group(self, p: Pauli, sign_sensitive: bool = False) -> bool:
        q = self.elements.get((p.x.bits, p.z.bits))
        return q is not None and (not sign_sensitive or q.sign == p.sign)

    def in_normalizer(self, p: Tuple[int, int]) -> bool:
        """Whether the (x, z) row p commutes with every generator."""
        x, z = p
        return not any(((x & g.z.bits) ^ (z & g.x.bits)).bit_count() & 1 for g in self.gens)


def reference_code_pair_stabilizers(g: Graph, h: BitString) -> StabilizerGroup:
    """The pivot pattern the chained generators replaced: the products of
    graph-state generators over Gf2Matrix.kernel_basis([h]), which pairs
    every other vertex of supp(h) with the lowest one, by pauli_mul."""
    base = graph_stabilizers(g).generators
    gens = []
    for r in Gf2Matrix.from_rows([h]).kernel_basis():
        p = Pauli.from_text("I" * g.n)
        for j in r.support():
            p = pauli_mul(p, base[j])
        gens.append(p)
    return group_from_paulis(g.n, gens)


def reference_verify_codewords(g: Graph, d: int, hs: Sequence[BitString]) -> VerifyVerdict:
    """verify_codewords walking every label pair, with in_W on each xor."""
    hs = list(hs)
    if len(set(hs)) != len(hs):
        return VerifyVerdict(False, "duplicate labels")
    zb = z_span_basis(SetQuery(g, d))
    for i, h in enumerate(hs):
        if h.is_zero():
            return VerifyVerdict(False, f"label {i} is the zero string")
        if any(dot(h, z) for z in zb):
            return VerifyVerdict(False, f"label {i} not orthogonal to Z: {h.to_text()}")
    full = [BitString(g.n)] + hs
    for i, j in itertools.combinations(range(len(full)), 2):
        x = full[i] ^ full[j]
        if in_W(SetQuery(g, d), x):
            return VerifyVerdict(False, f"xor of labels {i},{j} lies in W: {x.to_text()}")
    return VerifyVerdict(True)


def two_loop_verify_codewords(g: Graph, d: int, hs: Sequence[BitString],
                              deadline=gf2.NEVER) -> VerifyVerdict:
    """verify_codewords with two pair sequences: every pair in
    itertools.combinations order, or only the zero-label pairs when the
    labels and zero form a subspace (2^rank labels).  It looks up
    z_span_basis and _w_member in the analysis module at each call, so a
    spy set there sees its calls."""
    hs = list(hs)
    if len(set(hs)) != len(hs):
        return VerifyVerdict(False, "duplicate labels")
    zb = analysis.z_span_basis(SetQuery(g, d), deadline)
    for i, h in enumerate(hs):
        if h.n != g.n:
            raise ValueError(f"label length {h.n} != {g.n}")
        if h.is_zero():
            return VerifyVerdict(False, f"label {i} is the zero string")
        if any(dot(h, z) for z in zb):
            return VerifyVerdict(False, f"label {i} not orthogonal to Z: {h.to_text()}")
    full, tested = [0] + [h.bits for h in hs], set()
    in_w = analysis._w_member(g.adjacency(), d, deadline)
    pairs = itertools.combinations(range(len(full)), 2)
    if 1 << len(gf2.Echelon(full).rows) == len(full):
        pairs = ((0, j) for j in range(1, len(full)))
    for i, j in pairs:
        deadline.check()
        x = full[i] ^ full[j]
        if x not in tested:
            tested.add(x)
            if in_w(x):
                return VerifyVerdict(
                    False, f"xor of labels {i},{j} lies in W: {BitString(g.n, x).to_text()}")
    return VerifyVerdict(True)


def reference_w_member(g: Graph, d: int):
    """The one-scan W predicate on ints, with its own tables T_a and T_b."""
    choices = [(c, 1 << v, c ^ (1 << v)) for v, c in enumerate(g.adjacency().row_bits)]
    t_a, t_b = (frozenset(itertools.chain.from_iterable(support_xors(choices, i)
                                                        for i in range(w + 1)))
                for w in (d // 2, (d - 1) // 2))
    return lambda h: h in t_a or not t_a.isdisjoint(map(h.__xor__, t_b))


def reference_d_max(g: Graph) -> Tuple[int, BitString]:
    """(d_max, certificate) with a fresh zperp_basis at every d and the least
    label of its span outside W, found by listing the span in sorted order."""
    lo, cert = 1, None
    for d in range(1, g.n + 1):
        q, span = SetQuery(g, d), {0}
        for b in zperp_basis(q):
            span |= {x ^ b.bits for x in span}
        h = next((BitString(g.n, x) for x in sorted(span)
                  if x and not in_W(q, BitString(g.n, x))), None)
        if h is None:
            break
        lo, cert = d, h
    return lo, cert


def reference_twin_pairs(a: Gf2Matrix) -> List[int]:
    """e_u + e_v for every pair u < v, in itertools.combinations order, whose
    columns differ only in bits u and v (A.k within {u, v})."""
    n, cols = a.cols, a.row_bits
    return [(1 << u) | (1 << v) for u, v in itertools.combinations(range(n), 2)
            if not (cols[u] ^ cols[v]) & ~((1 << u) | (1 << v))]


def classical_min_distance(code: ClassicalCode, deadline=gf2.NEVER) -> int:
    """Minimum nonzero codeword weight, by exhausting all 2^k_c codewords."""
    if code.k_c == 0:
        raise ValueError("trivial code has no nonzero codewords")
    return min(c.weight() for c in code.codewords(deadline) if not c.is_zero())
