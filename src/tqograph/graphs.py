"""Undirected simple graphs and the graph families under study.

Vertex ordering conventions (normative, 0-indexed):
  * star / complete / complete bipartite: natural order, hub or X-part first;
  * multi_star(q, m): component c occupies [c*m, (c+1)*m), hub at c*m;
  * lattice(L, D): coordinates (c_0, ..., c_{D-1}) -> sum_d c_d * L^d;
  * toric(L): (i, j, x) -> (j-1)*L + (i-1), (i, j, y) -> L^2 + (j-1)*L + (i-1)
    with 1-based (i, j) as in the defining adjacency formula (also for
    connected_multi_star(L));
  * toric3d(L): (i, j, k) -> (k-1)*L^2 + (j-1)*L + (i-1);
  * line graphs: vertex i of L(G) is edge i of G in canonical edge order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .gf2 import Gf2Matrix

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a canonical vertex order."""

    n: int
    edges: Tuple[Tuple[int, int], ...]
    name: str = ""
    _adjacency: Optional[Gf2Matrix] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        # all 0 <= u < v < n and no repeat, checked without a Python loop;
        # only a failure walks the edges, to name the first bad one
        us, vs = zip(*self.edges) if self.edges else ((), ())
        if (all(map(operator.lt, us, vs)) and min(us, default=0) >= 0
                and max(vs, default=0) < self.n and len(set(self.edges)) == len(us)):
            return
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u >= v:
                raise ValueError(f"edge ({u},{v}) must have u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[Tuple[int, int]], name: str = "") -> "Graph":
        return cls(n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)), name)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> List[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> Gf2Matrix:
        """The adjacency matrix, built once per graph (it is immutable).  It is
        symmetric, so its rows are its columns: each edge sets u -> v and
        v -> u, and toric3d_rows toggles F(u, v) xor F(v, u)."""
        if self._adjacency is None:
            rows = [0] * self.n
            for u, v in self.edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            object.__setattr__(self, "_adjacency", Gf2Matrix(self.n, self.n, rows))
        return self._adjacency


@dataclass(frozen=True)
class FamilySpec:
    """A graph family name plus its integer parameters."""

    family: str
    params: Tuple[int, ...] = ()
    periodic: bool = True
    path: Optional[str] = None


def star(n: int) -> Graph:
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)], name=f"star({n})")


def complete(m: int) -> Graph:
    if m < 1:
        raise ValueError("complete needs m >= 1")
    return Graph.from_edges(
        m, list(itertools.combinations(range(m), 2)), name=f"complete({m})"
    )


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both parts non-empty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges, name=f"complete_bipartite({a},{b})")


def multi_star(q: int, m: int) -> Graph:
    """q disjoint m-vertex stars; requires q >= m."""
    if m < 2 or q < m:
        raise ValueError("multi_star needs m >= 2 and q >= m")
    edges = []
    for c in range(q):
        hub = c * m
        edges.extend((hub, hub + i) for i in range(1, m))
    return Graph.from_edges(q * m, edges, name=f"multi_star({q},{m})")


def lattice(L: int, D: int, periodic: bool = True) -> Graph:
    """D-dimensional square lattice of linear size L (periodic by default).

    Vertex v has coordinates c_d = (v // L^d) % L, 0 <= d < D, and joins
    v + L^d when c_d < L - 1; on the periodic lattice, c_d = L - 1 also
    wraps round to v - (L - 1) L^d, which at L = 2 is the edge already there.
    """
    if L < 2 or D < 1:
        raise ValueError("lattice needs L >= 2 and D >= 1")
    n, edges = L**D, []
    for stride in (L**d for d in range(D)):
        for v in range(n):
            if v // stride % L < L - 1:
                edges.append((v, v + stride))
            elif periodic and L > 2:
                edges.append((v - (L - 1) * stride, v))
    return Graph.from_edges(
        n, edges, name=f"lattice(L={L},D={D},{'pbc' if periodic else 'obc'})"
    )


def toric_vertex(i: int, j: int, d: str, L: int) -> int:
    """Map a 1-based toric label (i, j, x/y) to a vertex index."""
    base = 0 if d == "x" else L * L
    return base + (j - 1) * L + (i - 1)


def _linked_column_stars(L: int, family: str, reach) -> List[Tuple[int, int]]:
    """The edges of the 2L^2-vertex toric labelling that toric and
    connected_multi_star share, 0-based: x-column j is a star with hub
    (L - 1, j, x), y-column j a star with hub (0, j, y), and each (i, j, y),
    i >= 1, joins (l, m, x) for l in reach(i) and m in {j, j + 1 mod L}."""
    if L < 2:
        raise ValueError(f"{family} needs L >= 2")
    edges = []
    for j in range(L):
        x, y = j * L, L * L + j * L  # (0, j, x) and (0, j, y)
        edges += [(x + i, x + L - 1) for i in range(L - 1)]
        edges += [(y, y + i) for i in range(1, L)]
        for i in range(1, L):
            edges += [(m * L + l, y + i) for m in (j, (j + 1) % L) for l in reach(i)]
    return edges


def toric(L: int) -> Graph:
    """2L^2-vertex toric graph: per-column stars linked by half graphs.

    x-column j is a star with hub (L, j, x), y-column j a star with hub
    (1, j, y), and each (i, j, y) with i >= 2 joins every (l, m, x) with
    l < i and m in {j, j + 1 mod L}.  This is the defining delta/theta
    adjacency formula with the column index j cyclic mod L;
    tests/test_graphs.py::TestToric::test_matches_delta_theta_formula
    checks it pair by pair.
    """
    return Graph.from_edges(
        2 * L * L, _linked_column_stars(L, "toric", range), name=f"toric({L})")


def connected_multi_star(L: int) -> Graph:
    """Multi-star layers linked by a fixed constant-degree pattern.

    The column stars of toric(L), with each (i, j, y), i >= 2, joined only
    to (i - 1, j, x) and (i - 1, j + 1 mod L, x): every non-hub vertex has
    degree 3 and the hub neighborhoods stay disjoint ("cmstar-variant-1").
    """
    edges = _linked_column_stars(L, "connected_multi_star", lambda i: (i - 1,))
    return Graph.from_edges(2 * L * L, edges, name=f"cmstar-variant-1({L})")


def toric3d_vertex(i: int, j: int, k: int, L: int) -> int:
    """Map a 1-based 3D label (i, j, k) to a vertex index."""
    return (k - 1) * L * L + (j - 1) * L + (i - 1)


def toric3d_rows(L: int) -> List[int]:
    """Adjacency rows of toric3d(L): bit v of row u is the edge uv.

    The generalized delta/theta adjacency formula (j, k cyclic mod L) is
    F(u, v) xor F(v, u), with F(u, v) = 1 for the O(L) partners v of
    u = (i, j, k): (i', j, k) for i' >= 2 when i = 1 (the column star), and
    (i', j, k - 1) and (i', j - 1, k - 1) for 2 <= i' <= i.  Both F(u, .)
    and F(., u) are runs of consecutive i within a few (j, k) columns, so
    row u xors a handful of bit ranges; a pair toggled twice cancels.
    """
    if L < 2:
        raise ValueError("toric3d needs L >= 2")
    LL, rows = L * L, []
    for k, j, i in itertools.product(range(L), repeat=3):
        u = k * LL + j * L + i  # vertex (i + 1, j + 1, k + 1)
        if i == 0:  # F(u, .): the column star; F(., u) is empty
            rows.append(((1 << (L - 1)) - 1) << (u + 1))
            continue
        row = 1 << (u - i)  # F(hub, u)
        below, above = (k - 1) % L * LL, (k + 1) % L * LL
        for jb in (j, (j - 1) % L):  # F(u, .): i' in 2..i, one layer below
            row ^= ((1 << i) - 1) << (below + jb * L + 1)
        for ja in (j, (j + 1) % L):  # F(., u): partners from i up, one layer above
            row ^= ((1 << (L - i)) - 1) << (above + ja * L + i)
        rows.append(row)
    return rows


def toric3d(L: int) -> Graph:
    """L^3-vertex generalized toric graph: L multi-star layers on a 3-torus,
    its edges read off toric3d_rows, which also fill its adjacency cache."""
    rows = toric3d_rows(L)
    n, edges = len(rows), []
    for u, row in enumerate(rows):
        row >>= u + 1
        while row:
            low = row & -row
            edges.append((u, u + low.bit_length()))
            row ^= low
    g = Graph(n, tuple(edges), name=f"toric3d({L})")
    object.__setattr__(g, "_adjacency", Gf2Matrix(n, n, rows))
    return g


def line_graph(g: Graph) -> Tuple[Graph, Tuple[Tuple[int, int], ...]]:
    """Line graph of g plus the vertex -> base-edge correspondence."""
    base_edges = g.edges
    incident: List[List[int]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(base_edges):
        incident[u].append(idx)
        incident[v].append(idx)
    edges = set()
    for idxs in incident:
        for a, b in itertools.combinations(idxs, 2):
            edges.add((min(a, b), max(a, b)))
    lg = Graph.from_edges(len(base_edges), sorted(edges), name=f"line({g.name})")
    return lg, base_edges


def line_of_complete(m: int) -> Graph:
    return line_graph(complete(m))[0]


def line_of_bipartite(m: int) -> Graph:
    return line_graph(complete_bipartite(m, m))[0]


# family name -> (parameter count, builder); lattice also takes spec.periodic
_BUILDERS = {
    "star": (1, star),
    "complete": (1, complete),
    "complete_bipartite": (2, complete_bipartite),
    "multi_star": (2, multi_star),
    "lattice": (2, lattice),
    "toric": (1, toric),
    "connected_multi_star": (1, connected_multi_star),
    "line_of_complete": (1, line_of_complete),
    "line_of_bipartite": (1, line_of_bipartite),
    "toric3d": (1, toric3d),
}
FAMILIES = (*_BUILDERS, "custom")


def gen_family(spec: FamilySpec) -> Graph:
    """Build a graph from a family spec."""
    fam, p = spec.family, spec.params
    if fam == "custom":
        if spec.path is None:
            raise ValueError("custom family requires a file path")
        return read_edge_list(spec.path)
    if fam not in _BUILDERS:
        raise ValueError(f"unknown family {fam!r}")
    count, build = _BUILDERS[fam]
    if len(p) != count:
        raise ValueError(f"{fam} takes {count} parameter(s), got {len(p)}")
    return build(*p, periodic=spec.periodic) if fam == "lattice" else build(*p)


def content_lines(path: str) -> List[str]:
    """The lines of a text file with '#' comments cut off, stripped, and the
    blank ones dropped."""
    with open(path) as fh:
        return [line for raw in fh if (line := raw.split("#", 1)[0].strip())]


def read_edge_list(path: str) -> Graph:
    """Edge-list file: 'n m' header, then m lines 'u v' (0-indexed, u < v)."""
    lines = content_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    pairs = []  # the header (n, m), then the edges
    for i, line in enumerate(lines):
        try:
            u, v = (int(t) for t in line.split())
        except ValueError as exc:
            raise ValueError(f"{path}: bad {'edge' if i else 'header'} {line!r}") from exc
        pairs.append((u, v))
    (n, m), edges = pairs[0], pairs[1:]
    if len(edges) != m:
        raise ValueError(f"{path}: expected {m} edges, found {len(edges)}")
    try:
        return Graph.from_edges(n, edges, name=path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_edge_list(g))


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
