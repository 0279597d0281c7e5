import dataclasses
import itertools
import random
import time

import pytest

from tqograph.analysis import BudgetExceededError, d_max
from tqograph.gf2 import BitString, Gf2Matrix, cluster_xors, dot, support_xors
from tqograph.graphs import (
    FamilySpec, Graph, complete, gen_family, star, toric, toric3d, toric3d_vertex)
from tqograph import gf2, stabilizer
from tqograph.oracle import build_graph_state, graph_basis_state
from tqograph.stabilizer import (
    Pauli,
    StabilizerGroup,
    code_pair_stabilizers,
    gen_3d_code,
    gen_3d_code_derived,
    logical_strings,
    normalizer_min_weight,
    verify_3d_code,
)

from references import (
    ReferencePauliGroup,
    connected_normalizer_min_weight,
    connected_support_xors,
    graph_stabilizers,
    group_from_paulis,
    hadamard_conjugate,
    pauli_expectation,
    pauli_mul,
    reference_code3d_report,
    reference_code_pair_stabilizers,
    reference_commutation_error,
    reference_gen_3d_code,
    reference_cluster_xors,
    reference_gen_3d_code_derived,
    reference_in_group,
    reference_product,
    reference_reduce,
    reference_reduced_basis,
)

TOL = 1e-12


def commutes(p, q):
    return (dot(p.x, q.z) ^ dot(p.z, q.x)) == 0


def residue(s, p):
    """p's symplectic vector reduced modulo s: zero iff p is in s up to sign."""
    return s._ech.reduce(p.x.bits | p.z.bits << s.n)


def row_paulis(n, rows):
    return [Pauli(BitString(n, x), BitString(n, z)) for x, z in rows]


def random_pauli(rng, n):
    return Pauli(BitString(n, rng.getrandbits(n)), BitString(n, rng.getrandbits(n)))


def seeded_pauli_lists():
    """Commuting lists (products of graph-state generators, some Hadamard
    conjugated), then with 0-2 random Paulis planted at random positions."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(1, 13)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        base = graph_stabilizers(Graph.from_edges(n, edges))
        base = hadamard_conjugate(base, [q for q in range(n) if rng.random() < 0.3])
        gens = []
        for _ in range(rng.randrange(1, 2 * n + 1)):
            p = Pauli.from_text("I" * n)
            for g in rng.sample(base.generators, rng.randrange(1, n + 1)):
                p = pauli_mul(p, g)
            gens.append(p)
        for _ in range(seed % 3):
            gens.insert(rng.randrange(len(gens) + 1), random_pauli(rng, n))
        out.append((n, gens))
    return out


def seeded_commuting_groups(count=240):
    """Random commuting generators grown one at a time (a random Pauli is
    kept when it commutes with those so far), with random signs and products
    of earlier generators (dependent rows) planted among them."""
    out = []
    for seed in range(count):
        rng = random.Random(1000 + seed)
        n = rng.randrange(1, 13)
        gens = []
        for _ in range(rng.randrange(1, 2 * n + 1)):
            p = random_pauli(rng, n)
            if all(commutes(p, g) for g in gens):
                gens.append(Pauli(p.x, p.z, rng.choice((1, -1))))
        for _ in range(rng.randrange(0, 4)):
            p = Pauli.from_text("I" * n)
            for g in rng.sample(gens, rng.randrange(1, len(gens) + 1)):
                p = pauli_mul(p, g)
            gens.insert(rng.randrange(len(gens) + 1), p)
        out.append((rng, group_from_paulis(n, gens)))
    return out


def group_queries(rng, s, count):
    """Random Paulis, and signed products of random generator subsets."""
    out = [random_pauli(rng, s.n) for _ in range(count)]
    for _ in range(count):
        p = Pauli.from_text("I" * s.n)
        for g in s.generators:
            if rng.random() < 0.5:
                p = pauli_mul(p, g)
        out.append(Pauli(p.x, p.z, rng.choice((1, -1))))
    return out


def seeded_row_groups(count=80):
    """(rng, n, generators) of random commuting groups with n <= 12: random
    signed Paulis kept when they commute with those so far and lie outside
    their group (so no product of generators is -I), then signed products of
    earlier generators (dependent rows) planted among them."""
    out = []
    for seed in range(count):
        rng = random.Random(5000 + seed)
        n = rng.randrange(1, 13)
        gens, span = [], {(0, 0)}
        for _ in range(rng.randrange(1, 2 * n + 1)):
            q = random_pauli(rng, n)
            p = Pauli(q.x, q.z, rng.choice((1, -1)))
            if (p.x.bits, p.z.bits) not in span and all(commutes(p, g) for g in gens):
                gens.append(p)
                span |= {(x ^ p.x.bits, z ^ p.z.bits) for x, z in span}
        for _ in range(rng.randrange(0, 4) if gens else 0):
            p = Pauli.from_text("I" * n)
            for g in rng.sample(gens, rng.randrange(1, len(gens) + 1)):
                p = pauli_mul(p, g)
            gens.insert(rng.randrange(len(gens) + 1), p)
        out.append((rng, n, gens))
    return out


def all_supports_normalizer_min_weight(s, w_max):
    """The syndrome-kernel scan over every support, before the restriction
    to connected supports; kept as a fast exhaustive reference."""
    n, m = s.n, len(s.generators)
    choices = []
    for v in range(n):
        sx = sz = 0
        for i, g in enumerate(s.generators):
            sx |= g.z.bit(v) << i
            sz |= g.x.bit(v) << i
        sx, sz = sx | 1 << (m + n + v), sz | 1 << (m + v)
        choices.append((sx, sz, sx ^ sz))
    low = (1 << n) - 1
    for w in range(1, min(w_max, n) + 1):
        best = None
        for op in support_xors(choices, w):
            key = op >> m
            if op & ((1 << m) - 1) or (best is not None and key >= best):
                continue
            p = Pauli(BitString(n, key >> n), BitString(n, key & low))
            if residue(s, p):
                best = key
        if best is not None:
            return w, Pauli(BitString(n, best >> n), BitString(n, best & low))
    return None


def reference_normalizer_min_weight(s, w_max, in_group):
    """Per-operator scan the syndrome kernel replaced, kept as its reference.

    Every Pauli by weight, support and (X, Z, Y) choice goes through
    s.in_normalizer and in_group, membership up to sign; the canonical
    (x, z) least hit of the first weight class with one wins.
    """
    n = s.n
    for w in range(1, min(w_max, n) + 1):
        best = None
        for support in itertools.combinations(range(n), w):
            for choice in itertools.product((1, 2, 3), repeat=w):
                xb = zb = 0
                for pos, c in zip(support, choice):
                    if c & 1:
                        xb |= 1 << pos
                    if c & 2:
                        zb |= 1 << pos
                key = (xb, zb)
                if best is not None and key >= best[0]:
                    continue
                p = Pauli(BitString(n, xb), BitString(n, zb))
                if s.in_normalizer(key) and not in_group(p):
                    best = (key, p)
        if best is not None:
            return w, best[1]
    return None


def hit_text(hit):
    return None if hit is None else (hit[0], hit[1].to_text())


def _seeded_code_pairs():
    """code_pair_stabilizers of 8 seeded random graphs (n <= 10), and a
    Hadamard conjugate of each on a seeded random qubit subset."""
    out = []
    for seed, n in ((1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10)):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        s = code_pair_stabilizers(
            Graph.from_edges(n, edges), BitString(n, rng.randrange(1, 1 << n)))
        out.append(pytest.param(s, (1, 2, 3), True, id=f"pair-n{n}"))
        flip = [q for q in range(n) if rng.random() < 0.5]
        out.append(pytest.param(
            hadamard_conjugate(s, flip), (1, 2, 3), True, id=f"hadamard-n{n}"))
    return out


# (group, w_max values, also against the per-operator scan).  That scan
# takes about 9 s on gen_3d_code(4), so there the all-supports kernel,
# itself checked against it on every other group, is the reference.
DIFF_GROUPS = _seeded_code_pairs() + [
    pytest.param(gen_3d_code(2), (1, 2, 3), True, id="3d-L2"),
    pytest.param(gen_3d_code(3), (1, 2, 3), True, id="3d-L3"),
    pytest.param(gen_3d_code(4), (3,), False, id="3d-L4"),
]


class TestPauli:
    def test_text_round_trip(self):
        for t in ("+XXIZZI", "-IYZX", "+I", "-Z"):
            assert Pauli.from_text(t).to_text() == t
        assert Pauli.from_text("XZ").to_text() == "+XZ"

    def test_from_text_bits(self):
        p = Pauli.from_text("+XYZI")
        assert p.x.to_text() == "1100"
        assert p.z.to_text() == "0110"
        with pytest.raises(ValueError):
            Pauli.from_text("+AB")

    def test_weight_and_identity(self):
        assert Pauli.from_text("+XIYZ").weight() == 3
        assert Pauli.from_text("-III").weight() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Pauli(BitString(2), BitString(3))
        with pytest.raises(ValueError):
            Pauli(BitString(2), BitString(2), sign=2)


class TestPauliAlgebra:
    def test_mul_reordering_sign(self):
        x, z = Pauli.from_text("X"), Pauli.from_text("Z")
        assert pauli_mul(x, z).to_text() == "+Y"
        assert pauli_mul(z, x).to_text() == "-Y"

    def test_mul_self_inverse(self):
        # squaring clears the bits; each Y contributes a reordering sign
        for t, sign in (("+XZ", 1), ("-YI", -1), ("+ZZ", 1), ("+YY", 1)):
            sq = pauli_mul(Pauli.from_text(t), Pauli.from_text(t))
            assert sq.weight() == 0 and sq.sign == sign

    def test_mul_associative(self):
        a, b, c = (Pauli.from_text(t) for t in ("+XY", "-ZX", "+YZ"))
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))

    def test_commutes(self):
        for a, b, want in (("X", "Z", False), ("XX", "ZZ", True), ("XI", "IZ", True),
                           ("XY", "YY", False), ("YY", "ZX", True)):
            p, q = Pauli.from_text(a), Pauli.from_text(b)
            assert commutes(p, q) == want
            assert StabilizerGroup(q.n, [(q.x.bits, q.z.bits)]).in_normalizer(
                (p.x.bits, p.z.bits)) == want


class TestStabilizerGroup:
    def test_frozen_with_identity_equality(self):
        rows = [(0b01, 0b10), (0b10, 0b01)]  # X Z and Z X commute
        s = StabilizerGroup(2, rows)
        for name in ("n", "rows", "signs", "symmetries", "_xcols", "_zcols", "_ech", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        assert s == s and s != StabilizerGroup(2, rows)
        assert len(s._ech.rows) == s.rank() == 2  # the Echelon is built with the group
        assert repr(s).startswith("<tqograph.stabilizer.StabilizerGroup object at ")

    def test_rejects_anticommuting(self):
        with pytest.raises(ValueError, match="do not commute"):
            group_from_paulis(1, [Pauli.from_text("X"), Pauli.from_text("Z")])

    def test_commutation_check_matches_pairwise(self):
        rejected = 0
        for n, gens in seeded_pauli_lists():
            want = reference_commutation_error(gens)
            if want is None:
                group_from_paulis(n, gens)
                continue
            rejected += 1
            with pytest.raises(ValueError) as err:
                group_from_paulis(n, gens)
            assert str(err.value) == want
        assert 20 <= rejected <= 40

    def test_commutation_check_on_flipped_3d_rows(self):
        # one bit of one gen_3d_code generator flipped: the column xor must
        # name the same first bad pair as the pairwise loop
        rng = random.Random(12)
        rejected = 0
        for _ in range(40):
            L = rng.choice((2, 3))
            n, gens = L**3, list(gen_3d_code(L).generators)
            idx, bit = rng.randrange(len(gens)), 1 << rng.randrange(n)
            g = gens[idx]
            gens[idx] = (Pauli(BitString(n, g.x.bits ^ bit), g.z) if rng.random() < 0.5
                         else Pauli(g.x, BitString(n, g.z.bits ^ bit)))
            want = reference_commutation_error(gens)
            if want is None:
                group_from_paulis(n, gens)
                continue
            rejected += 1
            with pytest.raises(ValueError) as err:
                group_from_paulis(n, gens)
            assert str(err.value) == want
        assert rejected >= 30

    def test_in_normalizer_matches_pairwise(self):
        rng = random.Random(5)
        for n, gens in seeded_pauli_lists():
            s = group_from_paulis(n, [g for g in gens if all(commutes(g, h) for h in gens)])
            for _ in range(5):
                p = random_pauli(rng, n)
                assert s.in_normalizer((p.x.bits, p.z.bits)) == all(
                    commutes(p, g) for g in s.generators)

    def test_rank_with_redundancy(self):
        zz1 = Pauli.from_text("ZZI")
        zz2 = Pauli.from_text("IZZ")
        zz3 = pauli_mul(zz1, zz2)  # dependent third generator
        s = group_from_paulis(3, [zz1, zz2, zz3])
        assert s.rank() == 2

    def test_in_normalizer(self):
        s = group_from_paulis(2, [Pauli.from_text("+ZZ")])
        for text, want in (("+XX", True), ("+XI", False)):
            p = Pauli.from_text(text)
            assert s.in_normalizer((p.x.bits, p.z.bits)) == want


class TestIntRowsAgainstPauliObjects:
    """The int-row group against references.ReferencePauliGroup, which lists
    every element of the group as a Pauli object, and sign-sensitive
    membership from the reference reduction against its listed signs.  The
    commutation error text is compared in TestStabilizerGroup, with the same
    reference check."""

    def test_rank_membership_and_normalizer(self):
        counts = [0, 0, 0]
        for rng, n, gens in seeded_row_groups():
            s, ref = group_from_paulis(n, gens), ReferencePauliGroup(n, gens)
            assert s.generators == tuple(gens) and s.rank() == ref.rank()
            basis = reference_reduced_basis(s)
            for p in group_queries(rng, s, 10):
                row = p.x.bits, p.z.bits
                got = (not residue(s, p), reference_in_group(s, basis, p), s.in_normalizer(row))
                assert got == (ref.in_group(p), ref.in_group(p, sign_sensitive=True),
                               ref.in_normalizer(row)), (gens, p)
                counts = [c + b for c, b in zip(counts, got)]
        assert counts[0] > counts[1] >= 300 and counts[2] > counts[0]

    def test_normalizer_min_weight_witness(self):
        hits = 0
        for _, n, gens in seeded_row_groups()[::2]:
            s, ref = group_from_paulis(n, gens), ReferencePauliGroup(n, gens)
            got = hit_text(normalizer_min_weight(s, min(n, 3)))
            want = reference_normalizer_min_weight(ref, min(n, 3), ref.in_group)
            assert got == hit_text(want), gens
            hits += got is not None
        assert hits >= 10


class TestPivotReduction:
    """The pivot-indexed reduction against the insertion-order loop."""

    def assert_same_reduction(self, rng, s, queries):
        basis = reference_reduced_basis(s)
        ech = s._ech
        assert tuple(ech.rows.items()) == tuple((p, r) for p, r, _ in basis)
        assert ech.pivots == sum(1 << p for p, _, _ in basis)
        assert s.rank() == len(basis)
        for p in group_queries(rng, s, queries):
            r = p.x.bits | (p.z.bits << s.n)
            assert ech.reduce(r) == reference_reduce(basis, r)[0]

    def test_seeded_commuting_groups(self):
        groups = seeded_commuting_groups()
        dependent = 0
        for rng, s in groups:
            self.assert_same_reduction(rng, s, 10)
            dependent += s.rank() < len(s.generators)
        assert len(groups) >= 200 and dependent >= 100

    @pytest.mark.parametrize("L", range(2, 9))
    def test_gen_3d_code(self, L):
        s = gen_3d_code(L)
        self.assert_same_reduction(random.Random(L), s, 20)
        basis = reference_reduced_basis(s)
        for x, z in logical_strings(L):
            r = x | (z << s.n)
            assert s._ech.reduce(r) == reference_reduce(basis, r)[0]


class TestGraphStabilizers:
    @pytest.mark.parametrize("build", [lambda: star(4), lambda: complete(4), lambda: toric(2)])
    def test_fix_graph_state(self, build):
        g = build()
        psi = build_graph_state(g)
        s = graph_stabilizers(g)
        assert s.rank() == g.n
        for p in s.generators:
            assert p.sign == 1
            assert abs(pauli_expectation(psi, p.x, p.z) - 1.0) < TOL

    def test_generator_shape(self):
        s = graph_stabilizers(star(3))
        assert s.generators[0].to_text() == "+XZZ"
        assert s.generators[1].to_text() == "+ZXI"


class TestCodePairStabilizers:
    @pytest.mark.parametrize("hb", ["0110", "1100", "1111"])
    def test_fix_both_states(self, hb):
        g = star(4)
        h = BitString.from_text(hb)
        s = code_pair_stabilizers(g, h)
        assert s.rank() == g.n - 1
        psi = build_graph_state(g)
        phi = graph_basis_state(g, h)
        for p in s.generators:
            assert abs(pauli_expectation(psi, p.x, p.z) - p.sign) < TOL
            assert abs(pauli_expectation(phi, p.x, p.z) - p.sign) < TOL

    def test_signs_on_random_graphs(self):
        # adjacent factors give products of sign -1; each sign must be the
        # eigenvalue on both states
        rng = random.Random(21)
        negative = 0
        for _ in range(20):
            n = rng.randrange(2, 7)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
            h = BitString(n, rng.randrange(1, 1 << n))
            psi, phi = build_graph_state(g), graph_basis_state(g, h)
            for p in code_pair_stabilizers(g, h).generators:
                negative += p.sign < 0
                assert abs(pauli_expectation(psi, p.x, p.z) - p.sign) < TOL
                assert abs(pauli_expectation(phi, p.x, p.z) - p.sign) < TOL
        assert negative >= 10

    def test_excluded_combination_flips_label_state(self):
        # a generator product with odd overlap against h keeps the graph
        # state but flips the labelled state
        g = complete(4)
        h = BitString.from_text("1100")
        base = graph_stabilizers(g).generators
        prod = base[0]  # r = 1000, r.h = 1
        psi = build_graph_state(g)
        phi = graph_basis_state(g, h)
        assert abs(pauli_expectation(psi, prod.x, prod.z) - prod.sign) < TOL
        assert abs(pauli_expectation(phi, prod.x, prod.z) + prod.sign) < TOL

    def test_chain_spans_the_pivot_group(self):
        # the same signed group as the pivot pattern, each vertex in the X
        # part of at most two generators
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(2, 11)
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            h = BitString(n, rng.randrange(1, 1 << n))
            s, ref = code_pair_stabilizers(g, h), reference_code_pair_stabilizers(g, h)
            assert s.rank() == ref.rank() == n - 1
            sb, rb = reference_reduced_basis(s), reference_reduced_basis(ref)
            assert all(reference_in_group(s, sb, p) for p in ref.generators)
            assert all(reference_in_group(ref, rb, p) for p in s.generators)
            assert max(c.bit_count() for c in s._xcols) <= 2

    @pytest.mark.parametrize("family, params", [
        ("star", (6,)), ("complete", (6,)), ("toric", (3,)), ("lattice", (3, 2)),
        ("line_of_bipartite", (3,))])
    def test_pair_distance_is_d_max(self, family, params):
        # Knill-Laflamme: h is in C(G, d) iff the pair code of h has
        # distance >= d, so the d_max certificate's pair code has distance
        # exactly d_max
        g = gen_family(FamilySpec(family, params))
        res = d_max(g)
        s = code_pair_stabilizers(g, res.certificate)
        assert s.rank() == g.n - 1
        assert normalizer_min_weight(s, res.value + 1)[0] == res.value

    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            code_pair_stabilizers(star(3), BitString(3))
        with pytest.raises(ValueError):
            code_pair_stabilizers(star(3), BitString(4))


class TestHadamardConjugate:
    def test_swaps_on_subset(self):
        s = group_from_paulis(2, [Pauli.from_text("+XZ")])
        out = hadamard_conjugate(s, [0])
        assert out.generators[0].to_text() == "+ZZ"
        out2 = hadamard_conjugate(s, [0, 1])
        assert out2.generators[0].to_text() == "+ZX"

    def test_involution(self):
        s = graph_stabilizers(star(4))
        back = hadamard_conjugate(hadamard_conjugate(s, [0, 2]), [0, 2])
        assert [p.to_text() for p in back.generators] == [
            p.to_text() for p in s.generators
        ]

    def test_range_check(self):
        with pytest.raises(ValueError):
            hadamard_conjugate(graph_stabilizers(star(3)), [3])


class TestNormalizerScan:
    def test_single_qubit_z(self):
        s = group_from_paulis(1, [Pauli.from_text("Z")])
        assert normalizer_min_weight(s, 1) is None

    def test_bell_pair(self):
        s = group_from_paulis(2, [Pauli.from_text("+XX"), Pauli.from_text("+ZZ")])
        # full rank on 2 qubits: every commuting Pauli is in the group
        assert normalizer_min_weight(s, 2) is None

    def test_repetition_code(self):
        s = group_from_paulis(3, [Pauli.from_text("ZZI"), Pauli.from_text("IZZ")])
        w, p = normalizer_min_weight(s, 3)
        assert w == 1 and p.to_text() == "+ZII"

    @pytest.mark.parametrize("s, w_maxes, per_operator", DIFF_GROUPS)
    def test_kernel_matches_reference(self, s, w_maxes, per_operator):
        for w_max in w_maxes:
            got = hit_text(normalizer_min_weight(s, w_max))
            assert got == hit_text(all_supports_normalizer_min_weight(s, w_max)), w_max
            if per_operator:
                want = reference_normalizer_min_weight(s, w_max, lambda p: not residue(s, p))
                assert got == hit_text(want), w_max


def without_symmetries(s):
    return StabilizerGroup(s.n, s.rows, s.signs)


def torus_code(a, b, pattern, step=1):
    """The pattern {(dx, dy): 'X'|'Y'|'Z'} moved over the a x b torus (qubit
    x + a y) by every multiple of (1, 0) and of (0, step), carrying those two
    shifts; a = 1 gives a ring.  ValueError if the copies anticommute."""
    n = a * b
    gens = []
    for x0 in range(a):
        for y0 in range(0, b, step):
            chars = ["I"] * n
            for (dx, dy), c in pattern.items():
                chars[(x0 + dx) % a + a * ((y0 + dy) % b)] = c
            gens.append(Pauli.from_text("".join(chars)))
    shifts = [[(v % a + 1) % a + v - v % a for v in range(n)],
              [(v + a * step) % n for v in range(n)]]
    return group_from_paulis(n, gens, shifts)


def ring_code(n, pattern, step=1):
    return torus_code(1, n, {(0, dy): c for dy, c in pattern.items()}, step)


def seeded_ring_codes():
    """Commuting codes on rings and tori with n <= 12 from 400 seeded
    patterns (2-4 sites in a window of up to 3 x 3, the second shift 1, 2 or
    3 sites), plus the repetition code and the five-qubit code."""
    out = [ring_code(n, {0: "Z", 1: "Z"}) for n in (3, 6, 12)]
    out.append(ring_code(5, {0: "X", 1: "Z", 2: "Z", 3: "X"}))
    out.append(ring_code(8, {0: "X", 1: "Z", 2: "Z", 3: "X"}))
    dims = [(1, n) for n in range(3, 13)] + [
        (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (3, 4), (4, 3), (2, 6)]
    for seed in range(400):
        rng = random.Random(seed)
        a, b = rng.choice(dims)
        step = rng.choice([t for t in (1, 2, 3) if b % t == 0])
        window = [(dx, dy) for dx in range(min(a, 3)) for dy in range(min(b, 3))]
        sites = [(0, 0)] + rng.sample(window[1:], rng.randrange(1, min(len(window), 4)))
        try:
            out.append(torus_code(a, b, {o: rng.choice("XYZ") for o in sites}, step))
        except ValueError:
            continue
    return out


RING_CODES = seeded_ring_codes()


def random_permutation_codes():
    """Groups invariant under a seeded random qubit permutation p (n <= 10):
    the graph-state generators of a p-invariant graph outside a union D of
    p-cycles, the pairwise products of those on D, and then Hadamard on a
    union of p-cycles.  Cycle minima are not always the least qubit of the
    least hit's orbit here, so these need the orbit-minimum key."""
    out = []
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(3, 11)
        order = rng.sample(range(n), n)
        perm, cycles, i = list(range(n)), [], 0
        while i < n:
            cycle = order[i:i + rng.randrange(1, n - i + 1)]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
            cycles.append(cycle)
            i += len(cycle)
        edges = set()
        for _ in range(rng.randrange(1, n + 2)):
            u0, w0 = u, w = rng.sample(range(n), 2)
            while True:
                edges.add((min(u, w), max(u, w)))
                u, w = perm[u], perm[w]
                if (u, w) == (u0, w0):
                    break
        base = graph_stabilizers(Graph.from_edges(n, sorted(edges))).generators
        drop = sorted(v for c in cycles if rng.random() < 0.4 for v in c)
        if len(drop) < 2:
            continue
        gens = [base[v] for v in range(n) if v not in drop]
        gens += [pauli_mul(base[u], base[w]) for u, w in itertools.combinations(drop, 2)]
        flip = [v for c in cycles if rng.random() < 0.3 for v in c]
        s = hadamard_conjugate(group_from_paulis(n, gens), flip)
        out.append(StabilizerGroup(n, s.rows, s.signs, [perm]))
    return out


def orbit_minima(n, perms):
    roots, seen = [], set()
    for v in range(n):
        if v not in seen:
            roots.append(v)
            orbit = [v]
            seen.add(v)
            for u in orbit:
                for p in perms:
                    if p[u] not in seen:
                        seen.add(p[u])
                        orbit.append(p[u])
    return roots


def permute_bits(bits, p):
    return sum(1 << p[v] for v in range(len(p)) if (bits >> v) & 1)


class TestSymmetryRootedScan:
    """normalizer_min_weight grown from orbit minima against the same
    generators rebuilt without symmetries (grown from every qubit)."""

    def test_gen_3d_code_carries_its_translations(self):
        assert len(gen_3d_code(3).symmetries) == 3
        assert gen_3d_code_derived(3).symmetries == ()
        assert hadamard_conjugate(gen_3d_code(2), [0]).symmetries == ()

    @pytest.mark.parametrize("L, w_maxes", [(2, (1, 2, 3)), (3, (1, 2, 3)), (4, (3, 4))])
    def test_3d_code_matches_unrooted(self, L, w_maxes):
        s = gen_3d_code(L)
        plain = without_symmetries(s)
        for w_max in w_maxes:
            got = hit_text(normalizer_min_weight(s, w_max))
            assert got == hit_text(normalizer_min_weight(plain, w_max)), w_max

    def test_3d_code_L4_has_no_weight_3_logical(self):
        assert normalizer_min_weight(gen_3d_code(4), 3) is None

    def test_ring_codes_match_unrooted(self):
        assert len(RING_CODES) > 100
        for s in RING_CODES:
            plain = without_symmetries(s)
            for w_max in range(1, min(s.n, 4) + 1):
                got = hit_text(normalizer_min_weight(s, w_max))
                assert got == hit_text(normalizer_min_weight(plain, w_max)), (
                    s.generators[0].to_text(), len(s.generators), w_max)

    def test_permutation_codes_match_unrooted(self):
        codes = random_permutation_codes()
        assert len(codes) > 80
        for s in codes:
            plain = without_symmetries(s)
            for w_max in range(1, min(s.n, 4) + 1):
                got = hit_text(normalizer_min_weight(s, w_max))
                assert got == hit_text(normalizer_min_weight(plain, w_max)), (
                    s.symmetries, w_max)

    def test_grows_from_orbit_minima_only(self, monkeypatch):
        roots_seen = []

        def recording(choices, m):
            xors = cluster_xors(choices, m)

            def spy(roots, w, deadline=None):
                roots_seen.append(list(roots))
                return xors(roots, w, deadline)
            return spy

        monkeypatch.setattr(stabilizer, "cluster_xors", recording)
        for s, want in (
            (gen_3d_code(3), [0]),
            (torus_code(3, 4, {(0, 0): "Z", (1, 1): "Z"}), [0]),
            (ring_code(6, {0: "Z", 1: "Z"}, step=2), [0, 1]),
            (without_symmetries(gen_3d_code(2)), list(range(8))),
        ):
            roots_seen.clear()
            normalizer_min_weight(s, 2)
            assert roots_seen and all(r == want for r in roots_seen)

    def test_extra_reflection(self):
        # the reflection v -> -v is a second symmetry of a palindromic
        # pattern; XZZX has least hits of weight 2 and 3 on these rings
        for n in (4, 5, 7, 8, 9):
            s = ring_code(n, {0: "X", 1: "Z", 2: "Z", 3: "X"})
            both = StabilizerGroup(n, s.rows, s.signs, s.symmetries + ([(-v) % n for v in range(n)],))
            for w_max in (1, 2, 3):
                assert hit_text(normalizer_min_weight(both, w_max)) == hit_text(
                    normalizer_min_weight(without_symmetries(s), w_max))

    @pytest.mark.parametrize("s", [
        gen_3d_code(2),
        gen_3d_code(3),
        torus_code(3, 4, {(0, 0): "Z", (1, 1): "Z", (0, 2): "Z"}),
        torus_code(2, 6, {(0, 0): "Z", (1, 0): "Z", (0, 1): "Z"}, step=3),
        ring_code(6, {0: "Z", 1: "Z"}, step=2),
    ] + random_permutation_codes()[:6])
    def test_orbit_minima_and_translates_give_every_support(self, s):
        n, perms = s.n, s.symmetries
        nbrs = [0] * n
        for g in s.generators:
            acted = (g.x | g.z).bits
            for v in range(n):
                if (acted >> v) & 1:
                    nbrs[v] |= acted & ~(1 << v)
        roots = orbit_minima(n, perms)
        choices = [(1 << v,) for v in range(n)]
        for w in range(1, min(n, 4) + 1):
            rooted = list(connected_support_xors(choices, nbrs, roots, w))
            assert len(set(rooted)) == len(rooted)
            assert all((sup & -sup).bit_length() - 1 in roots for sup in rooted)
            closed, todo = set(rooted), list(rooted)
            while todo:
                sup = todo.pop()
                for p in perms:
                    t = permute_bits(sup, p)
                    if t not in closed:
                        closed.add(t)
                        todo.append(t)
            assert closed == set(connected_support_xors(choices, nbrs, range(n), w)), w

    def test_non_symmetry_rejected(self):
        s = gen_3d_code(3)
        swap = list(range(s.n))
        swap[0], swap[1] = 1, 0
        with pytest.raises(ValueError, match="does not map the generators"):
            normalizer_min_weight(StabilizerGroup(s.n, s.rows, symmetries=[swap]), 3)
        ring = ring_code(5, {0: "Z", 1: "Z"})
        with pytest.raises(ValueError, match="does not map the generators"):
            normalizer_min_weight(StabilizerGroup(5, ring.rows, symmetries=[[0, 1, 2, 4, 3]]), 2)
        with pytest.raises(ValueError, match="not a permutation"):
            normalizer_min_weight(StabilizerGroup(5, ring.rows, symmetries=[[1, 2, 3, 4, 4]]), 2)
        with pytest.raises(ValueError, match="not a permutation"):
            normalizer_min_weight(StabilizerGroup(5, ring.rows, symmetries=[[1, 2, 3, 4]]), 2)


TORUS_CODES = [
    torus_code(3, 4, {(0, 0): "Z", (1, 1): "Z", (0, 2): "Z"}),
    torus_code(2, 6, {(0, 0): "Z", (1, 0): "Z", (0, 1): "Z"}, step=3),
    torus_code(3, 4, {(0, 0): "Z", (1, 1): "Z"}),
    torus_code(3, 3, {(0, 0): "X", (1, 0): "Z", (0, 1): "Z", (1, 1): "X"}),
]


class TestKernelMatchesConnectedScan:
    """normalizer_min_weight on gf2.cluster_xors against the connected-support
    scan it replaced (references.connected_normalizer_min_weight): the same
    weight and the same canonical witness."""

    def test_symmetric_codes(self):
        codes = RING_CODES + random_permutation_codes() + TORUS_CODES
        for s in codes:
            w_max = min(s.n, 4)
            assert hit_text(normalizer_min_weight(s, w_max)) == hit_text(
                connected_normalizer_min_weight(s, w_max)), s.generators[0].to_text()

    def test_without_symmetries(self):
        for s in RING_CODES[::8] + TORUS_CODES:
            plain = without_symmetries(s)
            w_max = min(s.n, 4)
            assert hit_text(normalizer_min_weight(plain, w_max)) == hit_text(
                connected_normalizer_min_weight(plain, w_max))

    @pytest.mark.parametrize("L, w_max", [(2, 2), (3, 3), (4, 4), (5, 4)])
    def test_3d_code(self, L, w_max):
        s = gen_3d_code(L)
        assert hit_text(normalizer_min_weight(s, w_max)) == hit_text(
            connected_normalizer_min_weight(s, w_max))

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_3d_code_kernel_sequence(self, L, monkeypatch):
        # the kernel on the scan's choices, from its orbit roots, yields the
        # generator reference's hits in its order at every weight up to L
        made = []

        def recording(choices, m):
            made.append((choices, m))
            return cluster_xors(choices, m)

        monkeypatch.setattr(stabilizer, "cluster_xors", recording)
        s = gen_3d_code(L)
        normalizer_min_weight(s, 1)
        (choices, m), = made
        roots = stabilizer._orbit_roots(s)
        xors, ref = cluster_xors(choices, m), reference_cluster_xors(choices, m)
        hits = 0
        for w in range(1, L + 1):
            got = list(xors(roots, w))
            assert got == list(ref(roots, w)), w
            hits += len(got)
        assert hits

    def test_3d_code_L5_witness(self):
        # the connected scan's answer, from a run of about 10 s: Z along i
        # on qubits 0..4
        assert hit_text(normalizer_min_weight(gen_3d_code(5), 5)) == (5, "+" + "Z" * 5 + "I" * 120)

    def test_3d_code_L9_witness(self):
        # the scan without the check packing took about 3.5 s to the same
        # answer: Z along i on qubits 0..8
        assert hit_text(normalizer_min_weight(gen_3d_code(9), 9)) == (9, "+" + "Z" * 9 + "I" * 720)

    def test_check_packing_cuts_growth_nodes(self, monkeypatch):
        # gen_3d_code(7) at w = 7 from its one orbit root, the deadline
        # checked at the start and at every node: 12,810 checks against the
        # 22,573 of the generator reference, which packs nothing, and the
        # same 3 hits in the same order
        made = []

        def recording(choices, m):
            made.append((choices, m))
            return cluster_xors(choices, m)

        monkeypatch.setattr(stabilizer, "cluster_xors", recording)
        monkeypatch.setattr(gf2, "CHECK_EVERY", 1)
        s = gen_3d_code(7)
        normalizer_min_weight(s, 1)
        (choices, m), = made
        pruned, plain = StopAtCheck(None), StopAtCheck(None)
        got = list(cluster_xors(choices, m)([0], 7, pruned))
        assert len(got) == 3 and got == list(reference_cluster_xors(choices, m)([0], 7, plain))
        assert (pruned.checks, plain.checks) == (12_810, 22_573)


class StopAtCheck:
    """Deadline that raises at its stop-th check (never when stop is None)."""

    MESSAGE = "time budget of 0.000s exhausted"

    def __init__(self, stop):
        self.stop, self.checks = stop, 0

    def check(self):
        self.checks += 1
        if self.checks == self.stop:
            raise BudgetExceededError(self.MESSAGE)


class Test3DCode:
    def test_generator_shape(self):
        for L in (2, 3):
            s = gen_3d_code(L)
            assert len(s.generators) == L**3
            assert {g.weight() for g in s.generators} == {6}
            assert all(g.sign == 1 for g in s.generators)
            # X support is the vertical pair (i, j, k), (i+1, j, k)
            p = s.generators[0]
            assert p.x.support() == [
                toric3d_vertex(1, 1, 1, L),
                toric3d_vertex(2, 1, 1, L),
            ]

    def test_derivation_matches(self):
        for L in (2, 3):
            a = gen_3d_code(L)
            b = gen_3d_code_derived(L)
            assert all(
                p.x == q.x and p.z == q.z
                for p, q in zip(a.generators, b.generators)
            )

    @pytest.mark.parametrize("L", range(2, 7))
    def test_report_and_rows_match_references(self, L):
        # the int-row checks against the Pauli-object ones they replaced
        want = reference_code3d_report(L)
        assert want.constraints_hold and want.derivation_ok and want.logicals_ok
        assert verify_3d_code(L, distance_scan=False) == want
        assert gen_3d_code(L).generators == tuple(reference_gen_3d_code(L))
        assert gen_3d_code_derived(L).generators == reference_gen_3d_code_derived(L).generators

    def test_flipped_derived_bit_fails_derivation(self, monkeypatch):
        rng = random.Random(3)
        for L in (2, 3, 4):
            plain = verify_3d_code(L, distance_scan=False)
            assert plain.derivation_ok
            rows = stabilizer._derived_rows_3d(L)
            for _ in range(6):
                bad = list(rows)
                idx, part, bit = rng.randrange(len(rows)), rng.randrange(2), 1 << rng.randrange(L**3)
                bad[idx] = tuple(r ^ bit if t == part else r for t, r in enumerate(bad[idx]))
                with monkeypatch.context() as m:
                    m.setattr(stabilizer, "_derived_rows_3d", lambda L, bad=bad: bad)
                    rep = verify_3d_code(L, distance_scan=False)
                assert rep == dataclasses.replace(plain, derivation_ok=False)

    def test_layer_product_sign_follows_pauli_mul(self):
        # random ordered products of non-commuting rows: _product gives the
        # x, z and sign of the pauli_mul chain, and a reorder flips the sign
        rng = random.Random(8)
        flips = 0
        for _ in range(200):
            n = rng.randrange(1, 6)
            ps = [random_pauli(rng, n) for _ in range(rng.randrange(1, 7))]
            for order in (ps, ps[::-1]):
                want = reference_product(order)
                got = stabilizer._product([(p.x.bits, p.z.bits) for p in order])
                assert got == (want.x.bits, want.z.bits, int(want.sign < 0))
            flips += reference_product(ps).sign != reference_product(ps[::-1]).sign
        assert flips >= 50
        # layer 0 of gen_3d_code(2) is +identity; so is it times XXZZ on qubit
        # 0, but the reorder XZXZ of the same factors is -identity
        rows = list(gen_3d_code(2).rows[0::2])
        x, z = (1, 0), (0, 1)
        assert stabilizer._product(rows) == (0, 0, 0)
        assert stabilizer._product(rows + [x, x, z, z]) == (0, 0, 0)
        assert stabilizer._product(rows + [x, z, x, z]) == (0, 0, 1)

    def test_layer_products_are_identity(self):
        L = 3
        s = gen_3d_code(L)
        for k in range(1, L + 1):
            prod = Pauli.from_text("I" * L**3)
            for i in range(1, L + 1):
                for j in range(1, L + 1):
                    idx = ((i - 1) * L + (j - 1)) * L + (k - 1)
                    prod = pauli_mul(prod, s.generators[idx])
            assert prod.weight() == 0 and prod.sign == 1

    def test_diagonal_product_is_also_identity(self):
        # beyond the per-layer constraints, full columns along three distinct
        # (j, k) diagonals multiply to +identity as well, which is why the
        # measured rank deficiency exceeds L
        L = 3
        s = gen_3d_code(L)
        prod = Pauli.from_text("I" * 27)
        for j, k in ((1, 2), (2, 1), (3, 3)):
            for i in (1, 2, 3):
                idx = ((i - 1) * L + (j - 1)) * L + (k - 1)
                prod = pauli_mul(prod, s.generators[idx])
        assert prod.weight() == 0 and prod.sign == 1

    def test_generators_stabilize_layered_graph_state(self):
        # undo the hub-plane Hadamard and check expectations on the 8-qubit
        # graph state directly
        L = 2
        g = toric3d(L)
        hub_plane = [
            toric3d_vertex(1, j, k, L) for j in (1, 2) for k in (1, 2)
        ]
        s = hadamard_conjugate(gen_3d_code(L), hub_plane)
        psi = build_graph_state(g)
        for p in s.generators:
            assert abs(pauli_expectation(psi, p.x, p.z) - p.sign) < TOL

    def test_logical_strings(self):
        for L in (2, 3):
            logs = logical_strings(L)
            assert len(logs) == L
            s = gen_3d_code(L)
            for p in row_paulis(L**3, logs):
                assert p.weight() == L and p.z.is_zero()
                assert s.in_normalizer((p.x.bits, p.z.bits))
                assert residue(s, p)

    @staticmethod
    def combined_rank_logicals_ok(s, logicals):
        """The check verify_3d_code replaced: rank of generators plus strings."""
        return all(s.in_normalizer((p.x.bits, p.z.bits)) and residue(s, p)
                   for p in logicals) and (
            group_from_paulis(s.n, list(s.generators) + logicals).rank()
            == s.rank() + len(logicals)
        )

    def test_logicals_ok_matches_combined_rank(self, monkeypatch):
        for L in range(2, 9):
            want = self.combined_rank_logicals_ok(
                gen_3d_code(L), row_paulis(L**3, logical_strings(L)))
            assert verify_3d_code(L, distance_scan=False).logicals_ok == want
            assert want
        # string lists that fail: dependent, inside the group, outside the normalizer
        s = gen_3d_code(3)
        a, b, c = row_paulis(27, logical_strings(3))
        g0 = s.generators[0]
        z = Pauli(BitString(27), BitString(27, 1))
        for logs in ([a, a, c], [a, b, pauli_mul(a, b)], [g0, b, c],
                     [pauli_mul(a, g0), b, c], [z, b, c]):
            with monkeypatch.context() as m:
                rows = [(p.x.bits, p.z.bits) for p in logs]
                m.setattr(stabilizer, "logical_strings", lambda L, rows=rows: rows)
                got = verify_3d_code(3, distance_scan=False).logicals_ok
            assert got == self.combined_rank_logicals_ok(s, logs), logs

    def test_structural_checks_build_no_objects(self, monkeypatch):
        # the checks stay on int rows: no BitString, Pauli or Gf2Matrix
        made = []
        for cls in (BitString, Pauli, Gf2Matrix):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, cls=cls, init=cls.__init__:
                                made.append(cls.__name__) or init(self, *args))
        for L in range(2, 6):
            rep = verify_3d_code(L, distance_scan=False)
            assert rep.constraints_hold and rep.logicals_ok and rep.derivation_ok
        assert made == []
        Pauli.from_text("I")  # the spies do see a construction
        assert made == ["BitString", "BitString", "Pauli"]

    def test_verify_L2(self):
        rep = verify_3d_code(2)
        assert rep.constraints_hold and rep.logicals_ok and rep.derivation_ok
        assert (rep.n, rep.rank, rep.rank_deficiency) == (8, 4, 4)
        assert rep.code_dim == 16 and rep.k == 4
        assert rep.distance == 2
        assert rep.params() == "[[8,4,2]]"
        # measured rank deficiency exceeds L, so the structural target fails
        assert not rep.ok

    def test_budget_stop_keeps_structure_and_bound(self):
        # checks taken by the scan through each weight class of L = 4 (no
        # logical below weight 4), then a deadline that expires at a chosen
        # check after the four structural ones: the report keeps the
        # structural checks and names the class
        s = gen_3d_code(4)
        through = []
        for w in (1, 2, 3):
            dl = StopAtCheck(None)
            assert normalizer_min_weight(s, w, dl) is None
            through.append(dl.checks + 4)
        plain = verify_3d_code(4, distance_scan=False)
        for stop, cls in ((5, 1), (through[0], 1), (through[0] + 1, 2),
                          (through[1] + 1, 3), (through[2], 3), (through[2] + 1, 4)):
            rep = verify_3d_code(4, deadline=StopAtCheck(stop))
            assert (rep.error, rep.distance_lower_bound) == (StopAtCheck.MESSAGE, cls)
            assert not rep.ok and rep.params() == "[[64,8,?]]"
            assert dataclasses.replace(rep, error=None, distance_lower_bound=None) == plain

    def test_budget_stop_between_structural_phases(self, monkeypatch):
        # with or without the scan the deadline is checked after the build,
        # the rank, the logicals and the derivation, and a stop raises before
        # any scan; a deadline that never expires leaves the report as it was
        derived, scans = [], []
        rows_3d, scan_3d = stabilizer._derived_rows_3d, stabilizer.normalizer_min_weight
        monkeypatch.setattr(stabilizer, "_derived_rows_3d",
                            lambda L: derived.append(L) or rows_3d(L))
        monkeypatch.setattr(stabilizer, "normalizer_min_weight",
                            lambda *args, **kwargs: scans.append(1) or scan_3d(*args, **kwargs))
        for scan in (False, True):
            plain = verify_3d_code(4, distance_scan=scan)
            counted = StopAtCheck(None)
            assert verify_3d_code(4, distance_scan=scan, deadline=counted) == plain
            assert (counted.checks > 4) if scan else (counted.checks == 4)
            for stop in (1, 2, 3, 4):
                derived.clear()
                scans.clear()
                with pytest.raises(BudgetExceededError) as info:
                    verify_3d_code(4, distance_scan=scan, deadline=StopAtCheck(stop))
                assert str(info.value) == StopAtCheck.MESSAGE and info.value.weight is None
                assert derived == ([4] if stop == 4 else []) and scans == []

    def test_deadline_checked_within_the_root(self):
        # gen_3d_code(6) grows from qubit 0 alone, yet the scan checks the
        # deadline many times in each of its longer weight classes, and a stop
        # names the class it was in
        s = gen_3d_code(6)
        through = []
        for w in range(1, 7):
            dl = StopAtCheck(None)
            hit = normalizer_min_weight(s, w, dl)
            through.append(dl.checks)
        assert hit_text(hit) == (6, "+" + "Z" * 6 + "I" * 210)
        assert through[5] - through[4] >= 20
        for stop, cls in ((through[3] + 1, 5), (through[4], 5), (through[4] + 1, 6),
                          ((through[4] + through[5]) // 2, 6), (through[5], 6)):
            with pytest.raises(BudgetExceededError) as info:
                normalizer_min_weight(s, 6, StopAtCheck(stop))
            assert info.value.weight == cls, stop

    @pytest.mark.parametrize("L, params", [(6, "[[216,12,6]]"), (7, "[[343,13,7]]")])
    def test_distance_past_L5(self, L, params):
        # d = L with the Z line along i through qubit 0, each under 1 s
        t = time.process_time()
        rep = verify_3d_code(L)
        assert time.process_time() - t < 1.0
        assert rep.params() == params and rep.distance_scanned
        assert rep.distance_operator == "+" + "Z" * L + "I" * (L**3 - L)

    def test_verify_L3(self):
        rep = verify_3d_code(3)
        assert rep.constraints_hold and rep.logicals_ok and rep.derivation_ok
        assert (rep.n, rep.rank, rep.rank_deficiency) == (27, 22, 5)
        assert rep.code_dim == 32 and rep.distance == 3
        assert rep.params() == "[[27,5,3]]"
        assert not rep.ok

    @staticmethod
    def annihilator_dim(L):
        """dim ker of multiplication by (1+y)(z^2+y^-1) on F2[y,z]/(y^L-1, z^L-1).

        The X part 1+x of the generator forces a dependency to be invariant
        under x; the Z part then reduces to z^-1 (1+y)(z^2+y^-1), so the
        dependencies are the annihilator of that product.  Plain GF(2) rank of
        the L^2 x L^2 matrix, one int bitmask per column.
        """
        pivots = {}
        for a in range(L):
            for b in range(L):
                col = 0
                for da, db in ((0, 0), (0, 2), (1, 2), (-1, 0)):
                    col ^= 1 << (((a + da) % L) * L + (b + db) % L)
                while col and col.bit_length() - 1 in pivots:
                    col ^= pivots[col.bit_length() - 1]
                if col:
                    pivots[col.bit_length() - 1] = col
        return L * L - len(pivots)

    def test_rank_deficiency_is_annihilator_dim(self):
        # the measured deficiency is the rank of the generator as written,
        # 2L - (L mod 2), not a rank bug; criterion 10's k = L target fails
        for L in (2, 3, 4, 5):
            want = self.annihilator_dim(L)
            assert want == 2 * L - L % 2
            assert verify_3d_code(L, distance_scan=False).rank_deficiency == want

    def test_scan_skip(self):
        rep = verify_3d_code(2, distance_scan=False)
        assert rep.distance is None and not rep.distance_scanned
        assert rep.params() == "[[8,4,?]]"
