"""The benchmark's workloads: seeded query lists and their reference answers.

A query is one ``tqograph`` CLI invocation (``argv``), or, where the CLI
cannot express it, a call into the public function the CLI wraps (``call``).
Each query carries the answer it must produce.  Answers come from
``reference.json`` (values measured on the seed package) and, for the
oracle workload, from ``brute_c_set`` below, which enumerates the paper's
definition of C directly and shares no code with the program.

Seeds: in ``toric-cset`` and ``family-sweep`` the seed picks a vertex
relabeling of each paper graph (seed 0 keeps the family's own order), and
the relabeled graph reaches the program as an edge-list file through
``custom --graph-file``.  In ``oracle-xcheck`` the seed draws the graphs,
d and h.  ``code3d-scan`` takes no graph and ignores the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("toric-cset", "family-sweep", "code3d-scan", "oracle-xcheck")

# [8,4,4] extended Hamming generator for the classical-code embedding.
HAMMING_8_4_4 = ("11110000", "00111100", "00001111", "10101010")
# [3,1,3] repetition code, for the smoke variant of the embedding query.
REPETITION_3_1_3 = ("111",)

@dataclass
class Query:
    key: str
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None
    expect: Dict[str, object] = field(default_factory=dict)


def warmup_queries(workdir: str) -> List[Query]:
    """Tiny queries that touch every layer once.

    They warm the interpreter and, in a traced run, keep every layer's span
    list non-empty.  Exit codes are those of the seed package (code3d --L 2
    misses its k = L target by design).
    """
    labels = os.path.join(workdir, "warmup.labels")
    with open(labels, "w") as fh:
        fh.write("0110\n")
    runs = (
        (["dmax", "star", "3"], 0),
        (["cset", "star", "4", "--d", "2"], 0),
        (["verify", "star", "4", "--d", "2", "--codewords", labels], 0),
        (["scan", "star", "3", "4"], 0),
        (["oracle", "star", "3", "--h", "011", "--d", "2"], 1),
        (["oracle", "star", "3", "--matrix-elements", "--samples", "2"], 0),
        (["code3d", "--L", "2"], 1),
    )
    return [Query(f"warm-up {i} {argv[0]}", argv, expect={"exit": code})
            for i, (argv, code) in enumerate(runs)]


def bits_to_text(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def text_to_bits(text: str) -> int:
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def permute_text(text: str, perm: List[int]) -> str:
    """Move bit v of a label to position perm[v]."""
    out = ["0"] * len(text)
    for v, c in enumerate(text):
        out[perm[v]] = c
    return "".join(out)


def write_edge_list(path: str, n: int, edges) -> None:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    with open(path, "w") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# Independent reference for C(G, d), used by the oracle workload.

def brute_c_set(n: int, edges, d: int) -> List[int]:
    """Members of C = span(Z)^perp minus W, zero excluded, by the definition.

    Enumerates all 2^n strings; meant for n <= 14.
    """
    col = [0] * n
    for u, v in edges:
        col[u] |= 1 << v
        col[v] |= 1 << u
    size = 1 << n
    av = [0] * size  # av[k] = A.k
    for k in range(1, size):
        low = k & -k
        av[k] = av[k ^ low] ^ col[low.bit_length() - 1]
    basis: List[int] = []  # echelon basis of span(Z), one pivot bit each
    for k in range(1, size):
        if (k | av[k]).bit_count() <= d - 1:
            for b in basis:
                if k & (b & -b):
                    k ^= b
            if k:
                basis.append(k)
    w_set = set()
    for u in range(size):
        if u.bit_count() > d - 1:
            continue
        # each position of u carries X (m only), Z (l only) or Y (both)
        m = u
        while True:
            t = m
            while True:
                w_set.add(av[m] ^ (u ^ m) ^ t)
                if t == 0:
                    break
                t = (t - 1) & m
            if m == 0:
                break
            m = (m - 1) & u
    return [
        h for h in range(1, size)
        if h not in w_set and not any((h & b).bit_count() & 1 for b in basis)
    ]


def random_connected_graph(rng: random.Random, n: int):
    """Random spanning tree plus n extra random edges.

    The edge count is fixed because the state-vector build costs a pass
    over 2^n amplitudes per edge.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = 2 * n - 1
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


# (n, d, label in C) for each label query.  Every slot fixes its verdict,
# so that a query costs about the same on every seed: a member of C makes
# the oracle scan all sum_w C(n,w) 3^w operators of weight <= d-1, and a
# non-member is the syndrome of Z on one vertex (weight one, so in W),
# which the oracle rejects within the first weight class.
ORACLE_SLOTS = tuple(
    (n, d, member)
    for n in range(10, 15)
    for d in ((2, 3, 4) if n <= 11 else (2, 3))
    for member in (True, False)
)
ORACLE_SMOKE_SLOTS = ((10, 2, True), (10, 3, False), (11, 3, True))
MATRIX_ELEMENT_QUERIES = 2  # at n = 14
MATRIX_ELEMENT_SAMPLES = 40


def oracle_plan(seed: int, smoke: bool = False) -> List[dict]:
    """Seeded oracle inputs with their expected verdicts (no program code)."""
    rng = random.Random(f"oracle-xcheck:{seed}")
    plan = []
    for n, d, member in ORACLE_SMOKE_SLOTS if smoke else ORACLE_SLOTS:
        edges = random_connected_graph(rng, n)
        if member:
            members = brute_c_set(n, edges, d)
            while not members:
                edges = random_connected_graph(rng, n)
                members = brute_c_set(n, edges, d)
            h = rng.choice(members)
        else:
            h = 1 << rng.randrange(n)
        plan.append({"n": n, "d": d, "edges": edges, "h": h, "member": member})
    for _ in range(1 if smoke else MATRIX_ELEMENT_QUERIES):
        plan.append({"n": 14, "edges": random_connected_graph(rng, 14),
                     "samples": 4 if smoke else MATRIX_ELEMENT_SAMPLES,
                     "sample_seed": rng.randrange(1 << 30)})
    return plan


# --------------------------------------------------------------------------
# Query lists.

def _relabeling(seed: int, key: str, n: int) -> List[int]:
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}:{key}").shuffle(perm)
    return perm


def _block_relabeling(seed: int, key: str, q: int, m: int):
    """Relabeling of multi_star(q, m) that keeps every hub at a block start.

    Returns (vertex permutation, component permutation); the classical code
    embedded on hubs is relabeled by permuting its columns the same way.
    """
    comp = list(range(q))
    perm = list(range(q * m))
    if seed:
        rng = random.Random(f"{seed}:{key}")
        rng.shuffle(comp)
        for c in range(q):
            leaves = list(range(1, m))
            rng.shuffle(leaves)
            perm[c * m] = comp[c] * m
            for j, t in zip(range(1, m), leaves):
                perm[c * m + j] = comp[c] * m + t
    return perm, comp


class Builder:
    """Builds one workload's queries from the program's graph families."""

    def __init__(self, graphs, workdir: str, seed: int, ref: dict):
        self.graphs = graphs
        self.workdir = workdir
        self.seed = seed
        self.ref = ref
        self.queries: List[Query] = []

    def _expect(self, key: str, perm: Optional[List[int]] = None) -> dict:
        """Reference fields for a query; relabel-dependent ones mapped by perm."""
        entry = self.ref[key]
        expect = dict(entry["expect"])
        if self.seed == 0:
            expect.update(entry.get("seed0", {}))
        for name in entry.get("relabeled", ()):
            value = entry["seed0"][name]
            if perm is not None:
                value = [permute_text(t, perm) for t in value]
                if name == "results.members":
                    value.sort(key=text_to_bits)
            expect[name] = value
        return expect

    def _graph_file(self, key: str, family: str, params, perm=None):
        g = self.graphs.gen_family(self.graphs.FamilySpec(family, tuple(params)))
        if perm is None:
            perm = _relabeling(self.seed, key, g.n)
        path = os.path.join(self.workdir, key.replace(" ", "_") + ".txt")
        write_edge_list(path, g.n, [(perm[u], perm[v]) for u, v in g.edges])
        return path, perm

    def graph_query(self, cmd: str, family: str, params, extra=()):
        key = " ".join([cmd, family, *map(str, params), *extra])
        path, perm = self._graph_file(key, family, params)
        argv = [cmd, "custom", "--graph-file", path, *extra]
        self.queries.append(Query(key, argv, expect=self._expect(key, perm)))

    def plain_query(self, argv: List[str]):
        key = " ".join(argv)
        self.queries.append(Query(key, list(argv), expect=self._expect(key)))

    def ldpc_query(self, q: int, m: int, d: int, generator):
        key = f"verify multi_star {q} {m} --d {d} --ldpc {len(generator[0])}x{len(generator)}"
        perm, comp = _block_relabeling(self.seed, key, q, m)
        path, _ = self._graph_file(key, "multi_star", (q, m), perm)
        code_path = os.path.join(self.workdir, key.replace(" ", "_") + ".code")
        with open(code_path, "w") as fh:
            for row in generator:
                fh.write(permute_text(row, comp) + "\n")
        argv = ["verify", "custom", "--graph-file", path, "--d", str(d),
                "--ldpc", code_path, "--m", str(m)]
        self.queries.append(Query(key, argv, expect=self._expect(key, perm)))


def _normalizer_call(L: int, w: int):
    def call(mods):
        hit = mods.stabilizer.normalizer_min_weight(mods.stabilizer.gen_3d_code(L), w)
        return {"results": {"hit": None if hit is None else [hit[0], hit[1].to_text()]}}
    return call


def build_queries(workload: str, mods, workdir: str, seed: int,
                  ref: dict, plan=None, smoke: bool = False) -> List[Query]:
    b = Builder(mods.graphs, workdir, seed, ref[workload])
    if workload == "toric-cset":
        if smoke:
            b.graph_query("cset", "toric", (3,), ("--d", "3"))
        else:
            b.graph_query("cset", "toric", (5,), ("--d", "5"))
    elif workload == "family-sweep":
        if smoke:
            dmax = [("lattice", (3, 2)), ("toric", (3,)), ("multi_star", (4, 4)),
                    ("line_of_complete", (5,)), ("line_of_bipartite", (3,)),
                    ("star", (3,)), ("complete", (3,))]
        else:
            dmax = [("lattice", (3, 2)), ("lattice", (4, 2)), ("toric", (3,)),
                    ("multi_star", (4, 4)), ("multi_star", (5, 5)),
                    ("line_of_complete", (5,)), ("line_of_complete", (6,)),
                    ("line_of_complete", (7,)), ("line_of_bipartite", (3,)),
                    ("line_of_bipartite", (4,))]
            dmax += [(fam, (n,)) for fam in ("star", "complete") for n in range(3, 13)]
        for family, params in dmax:
            b.graph_query("dmax", family, params)
        if smoke:
            b.plain_query(["scan", "multi_star", "2,2", "3,3"])
            b.graph_query("cset", "toric", (3,), ("--d", "3"))
            b.ldpc_query(3, 3, 3, REPETITION_3_1_3)
        else:
            b.plain_query(["scan", "multi_star", "2,2", "3,3", "4,4", "5,5"])
            b.graph_query("cset", "toric", (3,), ("--d", "4"))
            b.ldpc_query(8, 4, 4, HAMMING_8_4_4)
    elif workload == "code3d-scan":
        b.plain_query(["code3d", "--L", "2"])
        b.plain_query(["code3d", "--L", "3"])
        for L in ((4,) if smoke else (4, 5, 6, 7, 8)):
            b.plain_query(["code3d", "--L", str(L), "--no-distance-scan"])
        L, w = (3, 2) if smoke else (4, 3)
        key = f"normalizer_min_weight gen_3d_code {L} {w}"
        b.queries.append(Query(key, call=_normalizer_call(L, w), expect=b._expect(key)))
    elif workload == "oracle-xcheck":
        seed0 = ref[workload]["seed0"] if seed == 0 and not smoke else {}
        for i, item in enumerate(plan):
            path = os.path.join(b.workdir, f"oracle_{i}.txt")
            write_edge_list(path, item["n"], item["edges"])
            key = f"oracle {i}"
            if "h" in item:
                argv = ["oracle", "custom", "--graph-file", path,
                        "--h", bits_to_text(item["h"], item["n"]), "--d", str(item["d"])]
                member = item["member"]
                expect = {"exit": 0 if member else 1, "results.pass": member,
                          "results.analytic_membership": member,
                          "results.agreement": True}
            else:
                argv = ["oracle", "custom", "--graph-file", path, "--matrix-elements",
                        "--samples", str(item["samples"]), "--seed", str(item["sample_seed"])]
                expect = {"exit": 0, "results.pass": True,
                          "results.samples": item["samples"],
                          "results.max_deviation": {"max": 1e-9}}
            expect.update(seed0.get(key, {}))
            b.queries.append(Query(key, argv, expect=expect))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.queries


# --------------------------------------------------------------------------
# Checking.

def lookup(report, path: str):
    node = report
    for part in path.split("."):
        node = node[part]
    return node


def mismatches(expect: Dict[str, object], code, report) -> List[str]:
    """Differences between a query's outcome and its expected answer."""
    out = []
    if "exit" in expect and code != expect["exit"]:
        out.append(f"exit {code} != {expect['exit']}")
    for path, want in expect.items():
        if path == "exit":
            continue
        try:
            got = lookup(report, path)
        except (KeyError, TypeError):
            out.append(f"{path} missing")
            continue
        if isinstance(want, dict) and "max" in want:
            ok = isinstance(got, (int, float)) and got <= want["max"]
        elif isinstance(want, float):
            ok = isinstance(got, (int, float)) and abs(got - want) <= 1e-9 * max(1.0, abs(want))
        else:
            ok = got == want
        if not ok:
            out.append(f"{path}: {got!r} != {want!r}")
    return out


def strip_timing(report):
    """A report without its only run-dependent field, for run-to-run comparison."""
    if isinstance(report, dict):
        return {k: v for k, v in report.items() if k != "elapsed_ms"}
    return report

