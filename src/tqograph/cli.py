"""Command-line front end: generate graphs, run set analyses, verify codes.

gen writes an edge list.  For every other command main fills the report's
config from the parsed arguments, the command adds the graph size and
returns (results, ok, budget_exceeded), and main writes the one report, as
deterministic JSON (sorted keys) or a table, with the keys schema, version,
command, config, results, ok, budget_exceeded and elapsed_ms (the only
run-dependent field).  A BudgetExceededError that reaches main becomes the
results {"error": ...}.  Exit codes: 2 when the budget was exhausted (env
var TQO_BUDGET_MS, milliseconds >= 0, soft-caps per-command runtime), else
0 if ok, else 1; a rejected input is an error: line on stderr, no report,
and exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import List, Optional, Tuple

from . import __version__
from .gf2 import NEVER, BitString, BudgetExceededError, Deadline
from .graphs import (FAMILIES, FamilySpec, Graph, format_edge_list, gen_family,
                     write_edge_list)
from . import analysis
from .analysis import SetQuery
from . import oracle as qoracle
from . import stabilizer

SCHEMA = "tqograph-report/1"
Outcome = Tuple[dict, bool, bool]  # (results, ok, budget_exceeded)
# parsed arguments that select the command or the output format, kept out of
# the config
_NOT_CONFIG = {"cmd", "func", "format"}

COST_NOTE = (
    "Cost notes: the state-vector check (real amplitudes, n <= 14) takes one transposed "
    "copy, Gram and Sylvester product per window of weight class w <= d-1: w blocks of "
    "two qubits for w <= 2 (7 and 21 copies at n = 14), the support itself above.  W "
    "membership keeps the syndromes of Paulis of weight <= min(d//2, 2) per graph, one "
    "more once peels cost what it would; a query branches on the Paulis flipping its "
    "lowest check.  The Z span and the code3d scan grow each Pauli from its least qubit "
    "onto a check it still flips; a Z class is its hits' x bits, sorted; each Z class is "
    "enumerated once per graph.  With two qubits left, a Z-span Pauli grows only if a weight-2 "
    "Pauli (two at weight 4) has its syndrome, counted once per graph in a table keyed "
    "by W's weight-2 table; the code3d scan keeps no such count (1.2e6 syndromes at "
    "L = 8).  A W peel with two or more levels to go, and a code3d scan node, is "
    "dropped when its syndrome holds more checks that no single choice flips two of "
    "than it has qubits left: each such check needs a qubit of its own, so no answer "
    "changes.  Z^perp is kept per graph and d.  cset and dmax walk the 2^r members of "
    "Z^perp, capped by TQO_BUDGET_MS."
)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table"), default="json")


def _add_graph(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help=f"family name ({', '.join(FAMILIES)})")
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument("--graph-file", default=None,
                   help="edge-list file for the custom family")
    p.add_argument("--open-boundary", action="store_true",
                   help="non-periodic lattice boundaries")


def _graph(args, config: dict) -> Graph:
    """The family graph of args; its size goes into config."""
    g = gen_family(FamilySpec(args.family, tuple(args.params),
                              periodic=not args.open_boundary, path=args.graph_file))
    config.update(n=g.n, edges=g.m)
    return g


def _deadline() -> Deadline:
    """The TQO_BUDGET_MS budget, in milliseconds, or NEVER when it is unset
    or empty; a value that is not a number >= 0 is a ValueError."""
    ms = os.environ.get("TQO_BUDGET_MS")
    if not ms:
        return NEVER
    try:
        budget = float(ms)
        if not budget >= 0:  # NaN fails it too
            raise ValueError
    except ValueError:
        raise ValueError(f"TQO_BUDGET_MS must be a number >= 0, got {ms!r}") from None
    return Deadline(budget / 1000.0)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    walk(f"{prefix}{k}.", obj[k])
            elif isinstance(obj, (list, tuple)):
                for i, v in enumerate(obj):
                    walk(f"{prefix}{i}.", v)
            else:
                print(f"{prefix[:-1]}\t{obj}")
        walk("", report)


def cmd_gen(args) -> int:
    g = _graph(args, {})
    if args.out:
        write_edge_list(g, args.out)
        print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


# Each reporting command builds its graph (if any) before it starts
# enumerating, then returns (results, ok, budget_exceeded) for main to report.

def cmd_cset(args, config: dict) -> Outcome:
    g = _graph(args, config)
    res = analysis.c_set(SetQuery(g, args.d), _deadline(), args.max_members)
    results = {
        "empty": res.empty,
        "exhaustive": res.exhaustive,
        "member_count": len(res.members),
        "members": [b.to_text() for b in res.members],
        "zperp_dim": len(res.zperp_basis),
        "z_span_dim": g.n - len(res.zperp_basis),  # rank-nullity
    }
    return results, True, False


def cmd_dmax(args, config: dict) -> Outcome:
    res = analysis.d_max(_graph(args, config), _deadline())
    results = {
        "d_max": res.value,
        "certificate": res.certificate.to_text() if res.certificate else None,
        "bracket": list(res.bracket) if res.bracket else None,
        "error": res.error,
    }
    return results, res.ok, not res.ok


def cmd_verify(args, config: dict) -> Outcome:
    if args.codewords and args.ldpc:
        raise ValueError("--codewords cannot be combined with --ldpc")
    if args.ldpc and args.m is None:
        raise ValueError("--ldpc requires --m")
    if args.m is not None and not args.ldpc:
        raise ValueError("--m applies only to --ldpc")
    g = _graph(args, config)
    if args.ldpc:
        code = analysis.read_classical_code(args.ldpc)
    elif args.codewords:
        labels = analysis.read_bitstrings(args.codewords, g.n)
        if not labels:
            raise ValueError(f"{args.codewords}: no labels")
    else:
        raise ValueError("need --codewords or --ldpc")
    deadline = _deadline()
    if args.ldpc:
        labels = [b for b in analysis.ldpc_embed(code, args.m, deadline) if not b.is_zero()]
    verdict = analysis.verify_codewords(g, args.d, labels, deadline)
    results = {
        "pass": verdict.ok,
        "witness": verdict.witness,
        "label_count": len(labels),
        "labels": [b.to_text() for b in labels],
    }
    return results, verdict.ok, False


def cmd_oracle(args, config: dict) -> Outcome:
    pair = [opt for opt in ("--h", "--d") if getattr(args, opt[2:]) is not None]
    sampling = [opt for opt in ("--samples", "--seed") if getattr(args, opt[2:]) is not None]
    if args.matrix_elements and pair:
        raise ValueError(f"{' and '.join(pair)} cannot be combined with --matrix-elements")
    if not args.matrix_elements and sampling:
        raise ValueError(f"{' and '.join(sampling)} cannot be used without --matrix-elements")
    g = _graph(args, config)
    deadline = _deadline()
    if args.matrix_elements:
        # unset: 100 samples from seed 0, the values the report's config shows
        samples = 100 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        config.update(samples=samples, seed=seed)
        if samples < 1:
            raise ValueError("--samples must be at least 1")
        rng, a, worst = random.Random(seed), g.adjacency(), 0.0
        for i in range(samples):
            deadline.check()
            h, gg, k, l = (BitString(g.n, rng.getrandbits(g.n)) for _ in range(4))
            if not i % 2:
                # nonzero only when A.k ^ l = h ^ g, which a uniform l meets
                # with odds 2^-n; every other sample meets it
                l = a.mat_vec(k) ^ h ^ gg
            lhs = analysis.graph_basis_inner_analytic(a, h, gg, k, l)
            rhs = qoracle.pauli_matrix_element(
                qoracle.graph_basis_state(g, h),
                qoracle.graph_basis_state(g, gg), k, l)
            worst = max(worst, abs(lhs - rhs))
        ok = worst <= qoracle.DEFAULT_TOL
        return {"samples": samples, "max_deviation": worst, "pass": ok}, ok, False
    if args.h is None:
        raise ValueError("need --h/--d or --matrix-elements")
    if args.d is None:
        raise ValueError("--h requires --d")
    h = BitString.from_text(args.h)
    if h.n != g.n:
        raise ValueError(f"label length {h.n} != {g.n}")
    if h.is_zero():
        raise ValueError("label must be nonzero")
    states = [qoracle.build_graph_state(g), qoracle.graph_basis_state(g, h)]
    verdict = qoracle.brute_force_qecc_check(states, args.d, deadline=deadline)
    analytic = analysis.in_C(SetQuery(g, args.d), h, deadline)
    results = {
        "pass": verdict.ok,
        "analytic_membership": analytic,
        "agreement": verdict.ok == analytic,
        "operators_checked": verdict.operators_checked,
        "witness": None if verdict.witness is None else {
            "i": verdict.witness[0], "j": verdict.witness[1],
            "k": verdict.witness[2].to_text(),
            "l": verdict.witness[3].to_text(),
        },
    }
    return results, bool(verdict) and verdict.ok == analytic, False


def cmd_code3d(args, config: dict) -> Outcome:
    rep = stabilizer.verify_3d_code(
        args.L, distance_scan=args.distance_scan, deadline=_deadline())
    results = {
        "params": rep.params(),
        "n": rep.n,
        "k": rep.k,
        "k_formula": 2 * args.L - args.L % 2,  # derived in gen_3d_code
        "constraints_hold": rep.constraints_hold,
        "rank": rep.rank,
        "rank_deficiency": rep.rank_deficiency,
        "code_dim": rep.code_dim,
        "logicals_ok": rep.logicals_ok,
        "derivation_ok": rep.derivation_ok,
        "distance": rep.distance,
        "distance_operator": rep.distance_operator,
    }
    if rep.error is not None:
        # a budget stop in the scan: the structural checks it had passed, and
        # the first weight class it did not finish
        results.update(error=rep.error, distance_lower_bound=rep.distance_lower_bound)
    return results, rep.ok, rep.error is not None


def cmd_scan(args, config: dict) -> Outcome:
    params_list = []
    for chunk in args.params:
        try:
            params_list.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError:
            raise ValueError(f"scan parameters {chunk!r} are not comma-joined integers") from None
    res = analysis.family_scan(args.family, params_list, _deadline())
    ok = all(e.d_max is not None for e in res.entries)
    results = {
        "entries": [
            {"params": list(e.params), "n": e.n, "d_max": e.d_max, "error": e.error}
            for e in res.entries
        ],
        "exponent": res.exponent,
    }
    return results, ok, not ok


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at its first call and shared by
    every later main call; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="tqograph",
        description="Decide distance properties of graph-state families via "
                    "bitstring-set criteria and verify the derived codes.",
        epilog=COST_NOTE,
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="write a family graph as an edge list")
    _add_graph(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("cset", help="enumerate the set C(G, n, d)")
    _add_graph(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-members", type=int, default=analysis.DEFAULT_MAX_MEMBERS,
                   help="truncate emitted C members at this count (default 1024)")
    _add_format(p)
    p.set_defaults(func=cmd_cset)

    p = sub.add_parser("dmax", help="largest d with C(G, n, d) nonempty")
    _add_graph(p)
    _add_format(p)
    p.set_defaults(func=cmd_dmax)

    p = sub.add_parser("verify", help="check a codeword label set at distance d")
    _add_graph(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--codewords", default=None, help="file of bitstring labels")
    p.add_argument("--ldpc", default=None, help="classical generator-matrix file")
    p.add_argument("--m", type=int, default=None, help="star size for --ldpc")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="state-vector cross-checks")
    _add_graph(p)
    p.add_argument("--h", default=None, help="graph-basis label bitstring")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--matrix-elements", action="store_true",
                   help="compare analytic vs state-vector matrix elements")
    p.add_argument("--samples", type=int, default=None,
                   help="--matrix-elements sample count (default 100)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the --matrix-elements samples (default 0)")
    _add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("code3d", help="verify the 3D toric-layer code")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--no-distance-scan", dest="distance_scan",
                   action="store_false",
                   help="structure checks only (the scan, grown from qubit 0, "
                        "takes about 0.1 s at L = 8 and 0.5 s at L = 9)")
    _add_format(p)
    p.set_defaults(func=cmd_code3d)

    p = sub.add_parser("scan", help="d_max across family sizes with exponent fit")
    p.add_argument("family")
    p.add_argument("params", nargs="+",
                   help="comma-joined parameter tuples, e.g. 2,2 3,3 4,4")
    _add_format(p)
    p.set_defaults(func=cmd_scan)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    try:
        if args.cmd == "gen":
            return cmd_gen(args)
        results, ok, budget = args.func(args, config)
    except BudgetExceededError as exc:
        results, ok, budget = {"error": str(exc)}, False, True
        if exc.weight is not None:
            # a stop in the state-vector check: every operator of a lighter
            # weight class was checked
            results["operator_weight"] = exc.weight
    except (ValueError, OSError, qoracle.QubitCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit({
        "schema": SCHEMA,
        "version": __version__,
        "command": args.cmd,
        "config": config,
        "results": results,
        "ok": ok,
        "budget_exceeded": budget,
        "elapsed_ms": round((time.monotonic() - t0) * 1000, 3),
    }, args.format)
    return 2 if budget else (0 if ok else 1)


if __name__ == "__main__":
    sys.exit(main())
