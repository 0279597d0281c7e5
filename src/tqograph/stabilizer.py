"""Symplectic Pauli and stabilizer-group algebra.

A Pauli is sign * X^x Z^z with the Z factors on the right; signs are tracked
mod +-1 only (the +-i prefactors never arise in products of the Hermitian
generators used here).  Stabilizer groups work on (x, z) int rows, and a
Pauli object appears only where a caller asks for one: the generators, and
the normalizer scan's witness.
Includes the stabilized code-pair generators, the 3D toric-layer code, and
brute-force code distance via minimum-weight normalizer search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .gf2 import NEVER, BitString, BudgetExceededError, Deadline, Echelon, cluster_xors, xor_columns
from .graphs import Graph, toric3d_rows


@dataclass(frozen=True)
class Pauli:
    x: BitString
    z: BitString
    sign: int = 1

    def __post_init__(self):
        if self.x.n != self.z.n:
            raise ValueError("x/z length mismatch")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def n(self) -> int:
        return self.x.n

    def weight(self) -> int:
        return (self.x | self.z).weight()

    def to_text(self) -> str:
        chars = []
        for i in range(self.n):
            chars.append("IXZY"[self.x.bit(i) | (self.z.bit(i) << 1)])
        return ("+" if self.sign == 1 else "-") + "".join(chars)

    @classmethod
    def from_text(cls, text: str) -> "Pauli":
        sign = 1
        if text and text[0] in "+-":
            sign = 1 if text[0] == "+" else -1
            text = text[1:]
        xb = zb = 0
        for i, c in enumerate(text):
            if c in "XY":
                xb |= 1 << i
            if c in "ZY":
                zb |= 1 << i
            if c not in "IXYZ":
                raise ValueError(f"invalid Pauli character {c!r}")
        n = len(text)
        return cls(BitString(n, xb), BitString(n, zb), sign)

    def __repr__(self):
        return f"Pauli({self.to_text()!r})"


def _positions(bits: int) -> List[int]:
    """The set bit positions of bits, highest first."""
    out = []
    while bits:
        v = bits.bit_length() - 1
        out.append(v)
        bits ^= 1 << v
    return out


def _product(rows: Iterable[Tuple[int, int]]) -> Tuple[int, int, int]:
    """(x, z, s) of the ordered product of the +X^x Z^z rows, with sign
    (-1)^s: each factor adds z_acc . x_next to s, since moving Z^z_acc past
    X^x_next to reorder the product picks up (-1)^{z_acc . x_next}."""
    x = z = s = 0
    for rx, rz in rows:
        s ^= (z & rx).bit_count() & 1
        x ^= rx
        z ^= rz
    return x, z, s


@dataclass(frozen=True, eq=False, repr=False)
class StabilizerGroup:
    """Pairwise-commuting Pauli generators (need not be independent), kept
    as (x, z) int rows: generator i is X^x Z^z, with sign -1 where bit i of
    signs is set.  generators builds Paulis when asked for.

    Bit i of the per-qubit column _xcols[v] (_zcols[v]) is set iff generator
    i has X (Z) on qubit v.  A Pauli's syndrome (the generators it
    anticommutes with) xors the columns of the opposite type over its
    support.  symmetries are qubit permutations (p[v] is the image of qubit
    v) mapping the generator set onto itself; normalizer_min_weight checks.

    Row reduction is a gf2.Echelon of the symplectic rows x | z << n, in
    generator order; a residue modulo the group is unique (Echelon gives
    why), and 0 exactly on the group's elements up to sign.  _ech is that
    Echelon, built with the group.  Frozen, and equal only to itself.
    """

    n: int
    rows: Tuple[Tuple[int, int], ...]
    signs: int = 0
    symmetries: Tuple[Tuple[int, ...], ...] = ()
    _xcols: Tuple[int, ...] = field(init=False)
    _zcols: Tuple[int, ...] = field(init=False)
    _ech: Echelon = field(init=False)

    def __post_init__(self):
        n, rows, signs = self.n, tuple(self.rows), self.signs
        if signs < 0 or signs >> len(rows):
            raise ValueError("sign mask outside the generators")
        if any(x < 0 or z < 0 or (x | z) >> n for x, z in rows):
            raise ValueError("generator length mismatch")
        # one walk of each row's set bits: the columns and the syndromes
        # below both read its positions
        xcols, zcols, supports = [0] * n, [0] * n, []
        for i, (x, z) in enumerate(rows):
            bit, xs, zs = 1 << i, _positions(x), _positions(z)
            for v in xs:
                xcols[v] |= bit
            for v in zs:
                zcols[v] |= bit
            supports.append((xs, zs))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "symmetries", tuple(map(tuple, self.symmetries)))
        object.__setattr__(self, "_xcols", tuple(xcols))
        object.__setattr__(self, "_zcols", tuple(zcols))
        # Anticommutation is symmetric: the first generator with a syndrome has
        # its lowest partner above it, the first bad pair in combinations order.
        for i, (xs, zs) in enumerate(supports):
            syn = 0
            for v in xs:
                syn ^= zcols[v]
            for v in zs:
                syn ^= xcols[v]
            if syn:
                gens = self.generators
                a, b = gens[i], gens[(syn & -syn).bit_length() - 1]
                raise ValueError(f"generators do not commute: {a.to_text()} vs {b.to_text()}")
        object.__setattr__(self, "_ech", Echelon(x | z << n for x, z in rows))

    @property
    def generators(self) -> Tuple[Pauli, ...]:
        """The generators as Paulis, built at each call."""
        n, signs = self.n, self.signs
        return tuple(Pauli(BitString(n, x), BitString(n, z), -1 if signs >> i & 1 else 1)
                     for i, (x, z) in enumerate(self.rows))

    def rank(self) -> int:
        return len(self._ech.rows)

    def _syndrome(self, x: int, z: int) -> int:
        """Bit i set iff X^x Z^z anticommutes with generator i."""
        return xor_columns(self._zcols, x) ^ xor_columns(self._xcols, z)

    def in_normalizer(self, p: Tuple[int, int]) -> bool:
        """Whether the (x, z) row p commutes with every generator."""
        return not self._syndrome(*p)


def code_pair_stabilizers(g: Graph, h: BitString) -> StabilizerGroup:
    """n-1 independent generators fixing both the graph state and label h.

    Graph-state generator v is K_v = +X_v Z^(adjacency row v).  The group
    is that of the products over the kernel of r -> r.h: K_v for each v
    outside supp(h), and K_u K_w for each two consecutive vertices u < w of
    supp(h), which span that kernel.  Each such product fixes the Z^h state
    because its eigenvalue there is (-1)^{r.h} = +1.  Chaining supp(h),
    rather than pairing each of its vertices with the lowest, puts each
    vertex in the X part of at most two generators.
    """
    if h.n != g.n:
        raise ValueError("length mismatch")
    if h.is_zero():
        raise ValueError("label must be nonzero")
    a, rows, signs, prev = g.adjacency().row_bits, [], 0, None
    for v in range(g.n):
        if not h.bits >> v & 1:
            rows.append((1 << v, a[v]))
            continue
        if prev is not None:
            x, z, s = _product([(1 << prev, a[prev]), (1 << v, a[v])])
            signs |= s << len(rows)
            rows.append((x, z))
        prev = v
    return StabilizerGroup(g.n, rows, signs)


def _cells(L: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """(i - 1, the six vertices) of each generator (i, j, k) of gen_3d_code,
    in its order: (i,j,k), (i+1,j,k), (i,j,k+1), (i,j+1,k+1), (i+1,j,k-1)
    and (i+1,j-1,k-1), coordinates mod L, indexed as in toric3d_vertex."""
    for i in range(L):
        i1 = (i + 1) % L
        for j in range(L):
            j0, jp, jm = j * L, (j + 1) % L * L, (j - 1) % L * L
            for k in range(L):
                k0, kp, km = (k * L * L, (k + 1) % L * L * L, (k - 1) % L * L * L)
                yield i, (i + j0 + k0, i1 + j0 + k0, i + j0 + kp,
                          i + jp + kp, i1 + j0 + km, i1 + jm + km)


def gen_3d_code(L: int) -> StabilizerGroup:
    """Six-local generators on the L^3-vertex 3-torus, (i, j, k) lexicographic.

    Generator (i,j,k): X on (i,j,k) and (i+1,j,k); Z on (i,j,k+1),
    (i,j+1,k+1), (i+1,j,k-1) and (i+1,j-1,k-1); all coordinates mod L.
    Coinciding Z positions cancel, which xor accumulation gives for free.
    Every generator carries sign +1.

    k(L) = n - rank = 2L - (L mod 2).  In R = F2[y,z]/(y^L - 1, z^L - 1) with
    g = 1 + y, h = 1 + y z^2, the deficiency is dim Ann((1 + y)(z^2 + y^-1))
    = dim Ann(gh) = dim R/(gh) (R is a group algebra, hence Frobenius)
    = dim R/(g) + dim R/(Ann(g) + (h)).  The first term is L; Ann(g) is
    generated by N_y = sum_{i<L} y^i and y = z^-2 in R/(h), so the second is
    dim F2[z]/(z^L - 1, sum_{i<L} z^-2i): L - 1 for odd L, where the sum is
    N_z, and L for even L, where each even power appears twice.

    The group carries the unit shifts along i, j and k, which map the
    generator set onto itself, so the distance scan grows from qubit 0 alone.
    """
    if L < 2:
        raise ValueError("need L >= 2")
    n = L**3
    # unit shifts along i, j and k: each adds 1 mod L to one base-L digit
    # of the vertex index (i-1) + (j-1) L + (k-1) L^2
    shifts = [[u - u % (t * L) + (u + t) % (t * L) for u in range(n)] for t in (1, L, L * L)]
    return StabilizerGroup(n, [(1 << a ^ 1 << b, 1 << c ^ 1 << d ^ 1 << e ^ 1 << f)
                               for _, (a, b, c, d, e, f) in _cells(L)], symmetries=shifts)


def _derived_rows_3d(L: int) -> List[Tuple[int, int]]:
    """gen_3d_code's rows derived from the layered toric graph state.

    Graph-state generator v is (1 << v, adjacency row v of toric3d).  Each
    generator is a local product of them, an xor of rows: (i+1,j,k),
    (i,j,k+1), (i,j+1,k+1) at i = 1; (i,j,k), (i+1,j,k-1), (i+1,j-1,k-1)
    at i = L; (i,j,k), (i+1,j,k) between.  No two factors of a product are
    adjacent, so each is +X^x Z^z.  Then the Hadamard on the i = 1 hub
    plane swaps the x and z bits under its mask.
    """
    adj = toric3d_rows(L)
    hub = sum(1 << v for v in range(0, L**3, L))
    rows = []
    for i, c in _cells(L):
        x = z = 0
        for v in c[1:4] if i == 0 else (c[0], c[4], c[5]) if i == L - 1 else c[:2]:
            x ^= 1 << v
            z ^= adj[v]
        t = (x ^ z) & hub
        rows.append((x ^ t, z ^ t))
    return rows


def gen_3d_code_derived(L: int) -> StabilizerGroup:
    """gen_3d_code's generators as derived by _derived_rows_3d."""
    return StabilizerGroup(L**3, _derived_rows_3d(L))


def logical_strings(L: int) -> List[Tuple[int, int]]:
    """(x, z) rows of the L Pauli-X strings along the j axis of the i = 1
    hub plane; vertex (1, j + 1, k + 1) is (j + k L) L."""
    return [(sum(1 << (j + k * L) * L for j in range(L)), 0) for k in range(L)]


def _permute(bits: int, p: Sequence[int]) -> int:
    """Move bit v of bits to bit p[v]."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << p[low.bit_length() - 1]
        bits ^= low
    return out


def _orbit(bits: int, perms: Sequence[Sequence[int]]) -> List[int]:
    """Every image of bits under the group the permutations generate."""
    orbit, seen = [bits], {bits}
    for b in orbit:
        for p in perms:
            t = _permute(b, p)
            if t not in seen:
                seen.add(t)
                orbit.append(t)
    return orbit


def _orbit_roots(s: StabilizerGroup) -> List[int]:
    """Least qubit of each orbit of s.symmetries, once each is checked to be
    a permutation that maps the generator set onto itself (signs play no
    part in the scan, so only the x and z bits are compared)."""
    n, gens = s.n, set(s.rows)
    for p in s.symmetries:
        if sorted(p) != list(range(n)):
            raise ValueError(f"symmetry {list(p)} is not a permutation of {n} qubits")
        if {(_permute(x, p), _permute(z, p)) for x, z in gens} != gens:
            raise ValueError(f"symmetry {list(p)} does not map the generators onto themselves")
    roots, covered = [], 0
    for v in range(n):
        if not (covered >> v) & 1:
            roots.append(v)
            covered |= sum(_orbit(1 << v, s.symmetries))  # distinct single bits
    return roots


def normalizer_min_weight(
    s: StabilizerGroup,
    w_max: int,
    deadline: Deadline = NEVER,
) -> Optional[Tuple[int, Pauli]]:
    """Least-weight Pauli commuting with all generators but outside the group.

    Runs on gf2.cluster_xors.  The choices at qubit v are X, Z and Y, each
    one int: its syndrome against the m generators in the low m bits (X_v
    flips generator i iff g_i has Z on v, Z_v iff g_i has X on v), then its
    z bits, then its x bits.  If a proper part of a commuting operator
    commutes with every generator, the operator is the product of two
    lighter commuting ones, one of them outside the group when it is; so a
    least-weight hit has no such part, and the kernel reaches it from its
    least qubit.  Only the operators it yields get the group-membership row
    reduction.  Weight classes go in increasing order; within a class x >> m
    compares as the canonical (x, z) key, and the least operator outside
    the group wins.  Returns None when nothing of weight <= w_max exists.
    The kernel gets no weight-2 count (pairs): no W table shares its build
    here, and at gen_3d_code(8) it would hold C(512, 2) * 9, about 1.2e6,
    syndromes: 2 s and 135 MiB to build, where all of code3d --L 8 takes
    0.13 s.  Without it the kernel drops a node whose syndrome packs more
    checks that no choice flips two of than it has positions left, as each
    needs its own qubit (gf2.cluster_xors): the scan of gen_3d_code(9) to
    weight 9 takes about 0.5 s, against 3.5 s without that bound.

    Operators grow only from the least qubit of each orbit of s.symmetries
    (every qubit when there are none), each checked to be a permutation
    mapping the generator set onto itself (ValueError otherwise); so it
    preserves syndromes, the group and weight.  Let r be the least orbit
    minimum among the orbits an operator's support meets: a symmetry moves
    one of its qubits to r, and the image's other qubits lie in orbits with
    minima at least r, so above r.  Each hit is keyed by the least key over
    its orbit, so the least hit of the class is still the one returned.
    When the deadline runs out, the BudgetExceededError's weight is the
    weight class it was in.
    """
    n, m = s.n, len(s.rows)
    roots = _orbit_roots(s)
    perms = [p + tuple(n + t for t in p) for p in s.symmetries]  # on the key's 2n bits
    sx = [zc | 1 << (m + n + v) for v, zc in enumerate(s._zcols)]
    sz = [xc | 1 << (m + v) for v, xc in enumerate(s._xcols)]
    low, xors = (1 << n) - 1, cluster_xors([(a, b, a ^ b) for a, b in zip(sx, sz)], m)
    reduce = s._ech.reduce
    try:
        for w in range(1, min(w_max, n) + 1):
            keys = [  # of the hits outside the group
                min(_orbit(op >> m, perms)) for op in xors(roots, w, deadline)
                if reduce((op >> (m + n)) | ((op >> m) & low) << n)]
            if keys:
                best = min(keys)
                return w, Pauli(BitString(n, best >> n), BitString(n, best & low))
    except BudgetExceededError as exc:
        exc.weight = w
        raise
    return None


@dataclass(frozen=True)
class Code3DReport:
    L: int
    n: int
    constraints_hold: bool
    rank: int
    logicals_ok: bool
    derivation_ok: bool
    distance: Optional[int]
    distance_operator: Optional[str]
    distance_scanned: bool  # the scan ran to the end
    # on a budget stop in the scan: its message, and the weight class it was
    # in, which bounds the distance from below
    error: Optional[str] = None
    distance_lower_bound: Optional[int] = None

    @property
    def rank_deficiency(self) -> int:
        return self.n - self.rank

    k = rank_deficiency  # logical qubits

    @property
    def code_dim(self) -> int:
        return 1 << self.k

    @property
    def ok(self) -> bool:
        structural = (
            self.constraints_hold
            and self.rank_deficiency == self.L
            and self.logicals_ok
            and self.derivation_ok
        )
        if self.error is not None:
            return False
        if not self.distance_scanned:
            return structural
        return structural and self.distance == self.L

    def params(self) -> str:
        d = self.distance if self.distance_scanned else "?"
        return f"[[{self.n},{self.k},{d}]]"


def verify_3d_code(
    L: int,
    distance_scan: bool = True,
    deadline: Deadline = NEVER,
) -> Code3DReport:
    """Full check of the layered toric code at size L.

    (a) each per-layer product of all generators is +identity;
    (b) symplectic rank is L^3 - L: deficiency L, code dimension 2^L;
    (c) each X string commutes with everything, sits outside the group, and
        the L strings stay independent modulo the group;
    (d) minimum normalizer weight is L (scan skipped when distance_scan is
        off);
    plus the derivation-chain equality against the graph-state construction.
    (a)-(c) and the derivation run on the (x, z) int rows of gen_3d_code and
    of the strings, and only the code's group is built (its constructor
    checks that the generators commute and reduces them, which (b) reads).
    The deadline is checked after the build, (b), (c) and the derivation,
    where a stop raises BudgetExceededError; a stop in the scan leaves a
    report that keeps (a)-(c), with the budget message and the distance's
    lower bound.
    """
    s = gen_3d_code(L)
    deadline.check()
    n, rows = L**3, s.rows
    # generator (i, j, k) is row (i L + j) L + k, so layer k is rows[k::L]
    constraints_hold = all(_product(rows[k::L]) == (0, 0, 0) for k in range(L))

    rank = s.rank()
    deadline.check()

    # Residues modulo the group have no pivot bit set, so they are
    # independent iff the strings are independent modulo the group; a string
    # inside the group leaves residue 0.
    logicals = logical_strings(L)
    residues = Echelon(s._ech.reduce(x | z << n) for x, z in logicals)
    logicals_ok = all(map(s.in_normalizer, logicals)) and len(residues.rows) == L
    deadline.check()

    derivation_ok = tuple(_derived_rows_3d(L)) == rows
    deadline.check()

    distance = dist_op = error = lower = None
    if distance_scan:
        try:
            hit = normalizer_min_weight(s, L, deadline=deadline)
        except BudgetExceededError as exc:
            hit, error, lower = None, str(exc), exc.weight
        if hit is not None:
            distance, op = hit
            dist_op = op.to_text()

    return Code3DReport(L, n, constraints_hold, rank, logicals_ok, derivation_ok, distance,
                        dist_op, distance_scan and error is None, error, lower)
