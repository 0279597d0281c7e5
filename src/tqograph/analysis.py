"""Bitstring-set criteria for graph states and the searches built on them.

For a graph G with adjacency matrix A (symmetric, so row v is column A_v)
and a target distance d, the sets are

  Z  = {k : weight(k | A.k) <= d - 1}
  Zp = {h : h.k = 0 for every k in Z}        (orthogonal complement)
  W  = {A.m ^ l : weight(m | l) <= d - 1}
  C  = Zp \\ W, with the zero string always excluded.

C nonempty means the graph state sits inside a distance-d code together with
the graph basis state labelled by any member.

The enumerations run on plain ints (bit v is vertex v); BitString appears
only at the API boundary.

The Z span runs the check-guided kernel gf2.cluster_xors on the graph-state
generators: each stabilizer X^k Z^{A.k} of weight <= d-1 grows from its least
qubit only onto generators it does not yet commute with; a weight class is its
hits' x bits k, sorted (z_span_basis: why).  From weight 3 (d >= 4, where W
starts on T_2 anyway) the kernel reads the weight-2 count whose keys are W's
T_2 (_WState.pairs): a node with two qubits left is grown only when some
weight-2 Pauli has its syndrome, two at weight 4, where its own prefix is one.
Every completion passes, so every hit, basis, C-set and certificate stays.
Each class and the kernel are kept with W's tables in one record per graph
(_WState); every basis of Zp is the kernel of one z_span_basis (zperp_basis).

W by meet in the middle, peeled down to a table.  A.m ^ l is the syndrome
of the Pauli with X part m and Z part l: at vertex v, X contributes column
A_v, Z contributes e_v and Y contributes A_v ^ e_v, and the syndrome of a
product is the xor of the syndromes.  With T_w the syndromes of the Paulis
of weight <= w (kept for the last graph, _w_state), for any t <= d // 2

  W = T_t ^ T_(d-1-t) = {s ^ u : s in T_t, u in T_(d-1-t)},

since a Pauli of weight <= d-1 splits into two on disjoint supports, of
weights <= t and <= d-1-t, and a product weighs at most the sum.

A query h not in T_t is peeled (the cluster method's step, as in
gf2.cluster_xors): with c the lowest set bit of h, the flips of check c are
the syndromes of Z_c, Y_c, and X_v, Y_v for v in N(c).  For h != 0,

  h in T_t ^ T_j  iff  h ^ s in T_t ^ T_(j-1) for some flip s,

since a Pauli of weight <= t + j with syndrome h has a qubit whose choice
flips c, and without it the Pauli has weight <= t + j - 1 (conversely, a
flip is the syndrome of one qubit's choice), at any t.  The peel runs from
j = d-1-t down to j = 1, which is one set scan of h ^ flips against T_t.
At a level j <= t where |flips| * |T_(j-1)| >= |T_j| it scans h ^ T_j
against T_t instead, so by induction a level-j call does at most |T_j|
lookups (at t = d // 2, no more than one scan of h ^ T_(d-1-t)); a level
above T_t multiplies the calls by at most |flips|.

Zp is walked by one int generator, _span_walk: at step c it xors in the
step indexed by the lowest set bit of c.  With the kernel basis as the
steps that is the Gray-code walk of Zp, which c_set lists; with the prefix
xors of the kernel basis, which comes in increasing order (gf2.Echelon.
kernel_basis: why), it is Zp in increasing order, so the first member
outside W is the least member of C (d_max).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gf2 import (NEVER, BitString, BudgetExceededError, Deadline, Echelon, Gf2Matrix,
                  cluster_xors, dot, pair_counts, support_xors)
from .graphs import FamilySpec, Graph, content_lines, gen_family

DEFAULT_MAX_MEMBERS = 1024


@dataclass(frozen=True)
class SetQuery:
    graph: Graph
    d: int

    def __post_init__(self):
        if not 1 <= self.d <= self.graph.n + 1:
            raise ValueError(f"need 1 <= d <= n+1, got d={self.d}")


def sigma(a: Gf2Matrix, k: BitString) -> int:
    """Parity of the number of edges with both endpoints in the support of k."""
    if a.rows != a.cols or a.cols != k.n:
        raise ValueError("dimension mismatch")
    return sum((a.row_bits[j] & k.bits & ((1 << j) - 1)).bit_count() for j in k.support()) & 1


def graph_basis_inner_analytic(
    a: Gf2Matrix, h: BitString, g: BitString, k: BitString, l: BitString
) -> int:
    """Closed form for <h| X^k Z^l |g> in the graph basis of adjacency a.

    Zero unless A.k ^ l == h ^ g; otherwise (-1)^{h.k + sigma(a, k)}.
    """
    if a.mat_vec(k) ^ l != h ^ g:
        return 0
    return -1 if (dot(h, k) ^ sigma(a, k)) else 1


def _z_class(a: Gf2Matrix, w: int, deadline: Deadline = NEVER) -> List[int]:
    """Beside the singles e_v, enough k of Z with S_k of weight w >= 2 to span
    all (z_span_basis), sorted: at w = 2 the twin pairs u < v, whose X or Y
    syndromes agree (no X_u equals a Y_v); from w = 3 _WState.kernel's hits.
    Kept in _WState once whole: a budget stop keeps nothing for w."""
    n, state = a.cols, _w_state(a)
    classes = state.z_classes
    if w not in classes and w == 2:
        twins: Dict[int, List[int]] = {}  # X or Y syndrome at v: those v
        for v, (x, _, y) in enumerate(state.choices):
            twins.setdefault(x, []).append(1 << v)
            twins.setdefault(y, []).append(1 << v)
        classes[w] = sorted(x | y for b in twins.values() for x, y in itertools.combinations(b, 2))
    elif w not in classes:
        _w_tables(a, 2, deadline)  # W's T_2, and the weight-2 count the kernel prunes by
        if state.kernel is None:  # at the first such class: x bit v above X_v and Y_v
            state.kernel = cluster_xors([(x | 1 << (n + v), z, y | 1 << (n + v))
                                         for v, (x, z, y) in enumerate(state.choices)], n)
        classes[w] = sorted(x >> n for x in state.kernel(range(n), w, deadline, state.pairs))
    return classes[w]


def _z_span_rows(q: SetQuery, deadline: Deadline) -> List[int]:
    """z_span_basis on ints."""
    deadline.check()
    n, top, a = q.graph.n, q.d - 1, q.graph.adjacency()
    singles = [1 << v for v, c in enumerate(a.row_bits) if c.bit_count() < top]
    classes = (_z_class(a, w, deadline) for w in range(2, min(top, n) + 1))
    ech, kept = Echelon(), []
    for k in itertools.chain(singles, itertools.chain.from_iterable(classes)):
        if ech.add(k):
            kept.append(k)
            if len(kept) == n:
                break
    return kept


def z_span_basis(q: SetQuery, deadline: Deadline = NEVER) -> List[BitString]:
    """Independent set spanning span(Z), in canonical order.

    k is in Z iff S_k = X^k Z^{A.k}, its graph-state stabilizer, has weight
    <= d-1; the S_k are the Paulis commuting with every generator X_v Z^{A_v}.
    If a proper part of S_k commutes with them all, it is some S_j, and k is
    the xor of the lighter members j and k ^ j.  So the members with no such
    part span span(Z), and gf2.cluster_xors reaches each from its least
    qubit.  Canonical order: the e_v with deg(v) + 1 <= d-1 by v, then every
    member by (weight of S_k, k), each kept when independent of those
    before, up to the full space; each class of the kernel's hits, sorted,
    keeps the same vectors, since a member with a commuting part lies in
    the span of the lighter classes.  Each class is enumerated once per
    graph (_z_class), and none once the singles and lighter classes fill
    the space.
    """
    return [BitString(q.graph.n, k) for k in _z_span_rows(q, deadline)]


def zperp_basis(q: SetQuery, deadline: Deadline = NEVER) -> List[BitString]:
    """Basis of Zp, the kernel of z_span_basis, in increasing order
    (gf2.Echelon.kernel_basis)."""
    rows = _z_span_rows(q, deadline)
    return Gf2Matrix(len(rows), q.graph.n, rows).kernel_basis()


@dataclass
class _WState:
    """All the analysis keeps of one graph, grown in place by _w_tables,
    _w_member and _z_class: each weight class is enumerated once per graph."""
    choices: List[Tuple[int, int, int]]  # v: the syndromes of X_v, Z_v, Y_v
    tables: List[AbstractSet[int]] = field(default_factory=lambda: [frozenset((0,))])  # T_0, ...
    flips: Dict[int, Tuple[int, ...]] = field(default_factory=dict)  # 1 << c: flips of check c
    pairs: Optional[Dict[int, int]] = None  # syndrome: weight-2 Paulis with it; keys T_2
    z_classes: Dict[int, List[int]] = field(default_factory=dict)  # w: _z_class(a, w)
    kernel: Optional[Callable[..., Iterator[int]]] = None  # span(Z)'s gf2.cluster_xors


@functools.lru_cache(maxsize=1)
def _w_state(a: Gf2Matrix) -> _WState:
    """The _WState of the last graph, made with its single-qubit syndromes."""
    return _WState([(c, 1 << v, c ^ 1 << v) for v, c in enumerate(a.row_bits)])


def _w_tables(a: Gf2Matrix, w: int, deadline: Deadline = NEVER) -> List[AbstractSet[int]]:
    """T_0 .. T_w at least, T_k being T_(k-1) joined with the syndromes of the
    weight-k Paulis, xors of _WState.choices on k qubits.  T_2 is the keys of
    _WState.pairs, kept for the Z span: gf2.pair_counts, T_1 added at count
    0.  A budget stop leaves the tables and the count as they were."""
    state = _w_state(a)
    tables, choices = state.tables, state.choices
    while (k := len(tables)) <= w:
        if k == 2:
            pairs = pair_counts(choices, deadline)
            pairs.update(dict.fromkeys(tables[1], 0))
            tables.append(pairs.keys())
            state.pairs = pairs
        else:
            tables.append(frozenset().union(tables[-1], support_xors(choices, k, deadline)))
    return tables


def _w_member(a: Gf2Matrix, d: int, deadline: Deadline = NEVER,
              t: Optional[int] = None) -> Callable[[int], bool]:
    """The predicate h -> (h in W) on ints, for one (A, d): h in T_t, or the
    peel of h down to T_t (module docstring).  A given t <= d // 2 is kept;
    else, the query count being unknown, t starts at min(d // 2, 2) or the
    tallest table built, and rises toward d // 2 once the peel calls since
    the last rise reach a quarter of the next weight class's Paulis, at 4 to
    7 times their cost each (cset lattice 4 3 --d 7 rises once: 2.2 s, not
    12 s).  Tables come at the first query: an empty walk builds none."""
    n, top = a.cols, d // 2 if t is None else t
    t = min(top, 2) if t is None else t
    base = tables = sizes = flips = choices = None
    peels = rise_at = 0

    def flips_of(bit: int) -> Tuple[int, ...]:
        # Z_c, Y_c, then X_v, Y_v for v in N(c), c the index of bit; once each
        col, z, y = choices[bit.bit_length() - 1]
        out = [z, y] + [s for v, (xv, _, yv) in enumerate(choices) if col >> v & 1
                        for s in (xv, yv)]
        flips[bit] = f = tuple(dict.fromkeys(out))
        return f

    def peel(h: int, j: int) -> bool:
        # h in T_t ^ T_j, for j >= 1
        nonlocal peels
        peels += 1
        if not h:
            return True
        f = flips.get(h & -h) or flips_of(h & -h)
        if j > t:  # above the tables
            deadline.check()
        elif len(f) * sizes[j - 1] >= sizes[j]:
            return not base.isdisjoint(map(h.__xor__, tables[j]))
        if j == 1:
            return not base.isdisjoint(map(h.__xor__, f))
        for s in f:
            if peel(h ^ s, j - 1):
                return True
        return False

    def member(h: int) -> bool:
        nonlocal t, base, tables, sizes, flips, choices, peels, rise_at
        if peels >= rise_at:  # the first query, or a rise
            tables = _w_tables(a, t + (base is not None), deadline)
            t, state = min(top, len(tables) - 1), _w_state(a)
            base, flips, choices = tables[t], state.flips, state.choices
            peels, sizes = 0, [len(x) for x in tables]
            rise_at = math.inf if t == top else math.comb(n, t + 1) * 3 ** (t + 1) // 4
        return h in base or (t < d - 1 and peel(h, d - 1 - t))

    return member


def in_W(q: SetQuery, h: BitString, deadline: Deadline = NEVER) -> bool:
    """True iff h = A.m ^ l for some weight(m | l) <= d - 1."""
    if h.n != q.graph.n:
        raise ValueError(f"label length {h.n} != {q.graph.n}")
    return _w_member(q.graph.adjacency(), q.d, deadline)(h.bits)


def in_zperp(q: SetQuery, h: BitString, deadline: Deadline = NEVER) -> bool:
    return all(dot(h, z) == 0 for z in z_span_basis(q, deadline))


def in_C(q: SetQuery, h: BitString, deadline: Deadline = NEVER) -> bool:
    """Membership test without enumerating the whole set."""
    if h.is_zero():
        return False
    return in_zperp(q, h, deadline) and not in_W(q, h, deadline)


@dataclass(frozen=True)
class CSetResult:
    d: int
    zperp_basis: Tuple[BitString, ...]  # span(Z) has dimension n minus its length
    members: Tuple[BitString, ...]
    exhaustive: bool

    @property
    def empty(self) -> bool:
        return not self.members


def _span_walk(steps: Sequence[int], deadline: Deadline = NEVER) -> Iterator[int]:
    """h at steps c = 1 .. 2^r - 1, for r steps: h starts at 0, and step c
    xors in steps[i], i the index of the lowest set bit of c.

    With an independent basis as the steps this is its span in Gray-code
    order, zero left out (c_set); with prefix xors it can be the span in
    increasing order (d_max).  The deadline is checked at every element.
    """
    h = 0
    for c in range(1, 1 << len(steps)):
        deadline.check()
        h ^= steps[(c & -c).bit_length() - 1]
        yield h


def c_set(
    q: SetQuery,
    deadline: Deadline = NEVER,
    max_members: int = DEFAULT_MAX_MEMBERS,
) -> CSetResult:
    """Enumerate C by filtering the span of zperp_basis.

    Emits at most max_members members (exhaustive flag cleared once that
    many are found); emptiness is decided as soon as one member appears, so
    truncation never affects it.  The span is walked in Gray-code order,
    which decides the members kept on truncation.
    """
    if max_members < 1:
        raise ValueError(f"need max_members >= 1, got {max_members}")
    zp = zperp_basis(q, deadline)
    in_w = _w_member(q.graph.adjacency(), q.d, deadline)
    walk = _span_walk([b.bits for b in zp], deadline)
    found = sorted(itertools.islice((h for h in walk if not in_w(h)), max_members))
    members = tuple(BitString(q.graph.n, h) for h in found)
    return CSetResult(q.d, tuple(zp), members, len(found) < max_members)


@dataclass(frozen=True)
class DMaxResult:
    value: Optional[int]
    certificate: Optional[BitString]
    # On a budget error (the only error): the largest d with C known nonempty,
    # and None, as the search stops at the first empty C: no upper end.
    bracket: Optional[Tuple[int, Optional[int]]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.value is not None


def d_max(g: Graph, deadline: Deadline = NEVER) -> DMaxResult:
    """Largest d with C(G, n, d) nonempty, plus the canonical-least witness.

    C(G, n, 1) is all nonzero strings and C(G, n, n+1) is empty, so the
    answer lies in [1, n].  The search walks up from d = 1 and stops at the
    first empty C; the least member found at the last nonempty d is the
    certificate, found by walking the prefix xors of the increasing
    zperp_basis.  Each probe reduces span(Z) afresh from the classes kept per
    graph (_z_class).  On budget exhaustion the bracket found so far is
    returned instead of a value.  The empty graph has no answer: ValueError.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    lo, cert = 1, 0  # C(lo) nonempty, with least member cert
    try:
        for d in range(1, g.n + 1):
            rows = [b.bits for b in zperp_basis(SetQuery(g, d), deadline)]
            in_w = _w_member(g.adjacency(), d, deadline)
            walk = _span_walk(list(itertools.accumulate(rows, operator.xor)), deadline)
            h = next((h for h in walk if not in_w(h)), None)
            if h is None:
                break
            lo, cert = d, h
    except BudgetExceededError as exc:
        return DMaxResult(None, None, bracket=(lo, None), error=str(exc))
    return DMaxResult(lo, BitString(g.n, cert))


@dataclass(frozen=True)
class VerifyVerdict:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self):
        return self.ok


def verify_codewords(
    g: Graph,
    d: int,
    hs: Sequence[BitString],
    deadline: Deadline = NEVER,
) -> VerifyVerdict:
    """Check that the labels hs (zero label implicit) span a distance-d code.

    Pass iff every h lies in the Z-orthogonal space and every pairwise xor,
    including each h against the zero label, avoids W.  The pairs go in
    itertools.combinations order through one W predicate on ints, and a
    xor already tested is not tested again, so the first failing pair is
    still the one reported.  Every xor lies in the labels' span, so the loop
    stops once its 2^rank - 1 nonzero vectors are tested: a subspace with
    zero stops after its zero-label pairs.  Deadline checked at every pair.
    """
    q, hs = SetQuery(g, d), list(hs)  # an out-of-range d is a ValueError first
    if len(set(hs)) != len(hs):
        return VerifyVerdict(False, "duplicate labels")
    zb = z_span_basis(q, deadline)
    for i, h in enumerate(hs):
        if h.n != g.n:
            raise ValueError(f"label length {h.n} != {g.n}")
        if h.is_zero():
            return VerifyVerdict(False, f"label {i} is the zero string")
        if any(dot(h, z) for z in zb):
            return VerifyVerdict(False, f"label {i} not orthogonal to Z: {h.to_text()}")
    full, in_w, tested = [0] + [h.bits for h in hs], _w_member(g.adjacency(), d, deadline), set()
    span = (1 << len(Echelon(full).rows)) - 1  # nonzero vectors of the labels' span
    for i, j in itertools.combinations(range(len(full)), 2):
        deadline.check()
        x = full[i] ^ full[j]
        if x not in tested:
            tested.add(x)
            if in_w(x):
                return VerifyVerdict(
                    False, f"xor of labels {i},{j} lies in W: {BitString(g.n, x).to_text()}")
            if len(tested) == span:
                break
    return VerifyVerdict(True)


@dataclass(frozen=True)
class ClassicalCode:
    """Binary linear code given by a full-row-rank generator matrix."""

    generator: Gf2Matrix

    def __post_init__(self):
        if self.generator.rank() != self.generator.rows:
            raise ValueError("generator matrix must have full row rank")

    @property
    def q(self) -> int:
        return self.generator.cols

    @property
    def k_c(self) -> int:
        return self.generator.rows

    def codewords(self, deadline: Deadline = NEVER) -> Iterator[BitString]:
        """All 2^k_c codewords, message order: from message c - 1 to c the
        bits up to the lowest set bit of c flip, a prefix xor of the rows;
        the deadline is checked at each (_span_walk).  k_c > 24 is refused:
        a size limit, not a budget stop."""
        if self.k_c > 24:
            raise ValueError(f"k_c = {self.k_c} too large for exhaustion (cap 24)")
        yield BitString(self.q, 0)
        steps = itertools.accumulate(self.generator.row_bits, operator.xor)
        for bits in _span_walk(list(steps), deadline):
            yield BitString(self.q, bits)


def read_bitstrings(path: str, n: Optional[int] = None) -> List[BitString]:
    """One BitString per '0'/'1' row of the file ('#' comments and blank
    lines skipped); with n given, each row must have n bits."""
    out = []
    for line in content_lines(path):
        try:
            b = BitString.from_text(line)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} in {line!r}") from exc
        if n is not None and b.n != n:
            raise ValueError(f"{path}: label length {b.n} != {n} in {line!r}")
        out.append(b)
    return out


def read_classical_code(path: str) -> ClassicalCode:
    """Generator file: one '0'/'1' row per line, '#' comments allowed."""
    rows = read_bitstrings(path)
    if not rows:
        raise ValueError(f"{path}: no generator rows")
    return ClassicalCode(Gf2Matrix.from_rows(rows))


def ldpc_embed(code: ClassicalCode, m: int, deadline: Deadline = NEVER) -> List[BitString]:
    """Embed a [q, k_c, d_c] classical code into the q-component multi-star.

    Classical bit i maps to the hub of component i (bit m*i of a q*m-bit
    string); requires d_c >= m.  Returns all 2^k_c labels, zero first: the
    codewords of the generator rows spread once, which keeps weights.  Once a
    label of weight < m turns up, the rest of the walk only finds d_c.
    """
    if code.k_c == 0:
        raise ValueError("trivial code has no nonzero codewords")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    spread = [sum(1 << (m * i) for i in range(code.q) if r >> i & 1)
              for r in code.generator.row_bits]
    walk = ClassicalCode(Gf2Matrix(code.k_c, code.q * m, spread)).codewords(deadline)
    labels = [next(walk)]
    for h in walk:
        if h.weight() < m:
            d_c = min(c.weight() for c in itertools.chain([h], walk))
            raise ValueError(f"classical distance {d_c} below required {m}")
        labels.append(h)
    return labels


@dataclass(frozen=True)
class ScanEntry:
    params: Tuple[int, ...]
    n: int
    d_max: Optional[int]
    error: Optional[str] = None


@dataclass(frozen=True)
class ScanResult:
    family: str
    entries: Tuple[ScanEntry, ...]
    exponent: Optional[float]


def family_scan(
    family: str,
    params_list: Sequence[Tuple[int, ...]],
    deadline: Deadline = NEVER,
) -> ScanResult:
    """Tabulate d_max across family sizes and fit log d_max vs log n.

    Purely descriptive finite-size evidence; the exponent is a least-squares
    slope, not a claim about asymptotics.
    """
    entries: List[ScanEntry] = []
    for params in params_list:
        g = gen_family(FamilySpec(family, tuple(params)))
        res = d_max(g, deadline)
        entries.append(ScanEntry(tuple(params), g.n, res.value, res.error))
    pts = [(e.n, e.d_max) for e in entries if e.d_max is not None and e.n > 1]
    exponent = None
    if len(pts) >= 2 and len({n for n, _ in pts}) >= 2:
        xs = np.log([n for n, _ in pts])
        ys = np.log([d for _, d in pts])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    return ScanResult(family, tuple(entries), exponent)
