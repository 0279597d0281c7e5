"""Enumerators that gf2.cluster_xors replaced, kept as test references.

connected_support_xors grew every support connected in a neighbour graph
and tried every choice on it; z_span_basis ran it on G^2 (or the plain
support loop when G has diameter <= 2), and normalizer_min_weight on the
qubit-interaction graph.  Both searches filtered on the syndrome afterwards.
"""

from typing import Iterable, Iterator, List, Sequence, Tuple

from tqograph.gf2 import BitString, support_xors
from tqograph.stabilizer import Pauli, _orbit, _orbit_roots


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
            if s._reduce(xb | (zb << n))[0]:
                best = key
        if best is not None:
            return w, Pauli(BitString(n, best >> n), BitString(n, best & low))
    return None
