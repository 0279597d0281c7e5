"""Command-line front end: generate graphs, run set analyses, verify codes.

Reports are deterministic JSON (sorted keys; the only run-dependent field is
elapsed_ms).  Exit codes: 0 all requested checks passed, 1 a check failed
or the input was rejected (an error: line on stderr), 2 budget exhausted
(env var TQO_BUDGET_MS, milliseconds >= 0, soft-caps per-command runtime).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import List, Optional

from . import __version__
from .gf2 import NEVER, BitString, BudgetExceededError, Deadline
from .graphs import FAMILIES, FamilySpec, Graph, format_edge_list, gen_family
from . import analysis
from .analysis import SetQuery
from . import oracle as qoracle
from . import stabilizer

SCHEMA = "tqograph-report/1"

COST_NOTE = (
    "Cost notes: the state-vector check (real amplitudes, n capped at 14) "
    "takes one transposed copy, one Gram product and one Sylvester-matrix "
    "product per support of weight <= d-1.  W membership builds the syndromes "
    "of each Pauli weight up to d//2 once per graph; a query branches only on "
    "the Paulis that flip its lowest check, down to those tables.  The Z span and "
    "the code3d scan grow each Pauli from its least qubit only onto the qubits "
    "of a check it still flips (the toric 5 --d 5 span: about 5 ms; code3d "
    "--L 7: 0.2 s).  cset and dmax walk the 2^r-element orthogonal span, with "
    "no cap but TQO_BUDGET_MS."
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


def _build_graph(args) -> Graph:
    spec = FamilySpec(
        args.family,
        tuple(args.params),
        periodic=not getattr(args, "open_boundary", False),
        path=getattr(args, "graph_file", None),
    )
    return gen_family(spec)


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


def _report(args, command: str, config: dict, results: dict,
            ok: bool, budget: bool, t0: float) -> int:
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "ok": ok,
        "budget_exceeded": budget,
        "elapsed_ms": round((time.monotonic() - t0) * 1000, 3),
    }
    _emit(report, getattr(args, "format", "json"))
    return 2 if budget else (0 if ok else 1)


def _graph_config(args, g: Graph) -> dict:
    return {
        "family": args.family,
        "params": list(args.params),
        "n": g.n,
        "edges": g.m,
    }


def cmd_gen(args) -> int:
    g = _build_graph(args)
    text = format_edge_list(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_cset(args) -> int:
    t0 = time.monotonic()
    g = _build_graph(args)
    config = _graph_config(args, g)
    config.update({"d": args.d, "max_members": args.max_members})
    try:
        res = analysis.c_set(SetQuery(g, args.d), _deadline(), args.max_members)
    except BudgetExceededError as exc:
        return _report(args, "cset", config, {"error": str(exc)}, False, True, t0)
    results = {
        "empty": res.empty,
        "exhaustive": res.exhaustive,
        "member_count": len(res.members),
        "members": [b.to_text() for b in res.members],
        "zperp_dim": len(res.zperp_basis),
        "z_span_dim": len(res.z_basis),
    }
    return _report(args, "cset", config, results, True, False, t0)


def cmd_dmax(args) -> int:
    t0 = time.monotonic()
    g = _build_graph(args)
    config = _graph_config(args, g)
    res = analysis.d_max(g, _deadline())
    results = {
        "d_max": res.value,
        "certificate": res.certificate.to_text() if res.certificate else None,
        "bracket": list(res.bracket) if res.bracket else None,
        "error": res.error,
    }
    return _report(args, "dmax", config, results, res.ok, not res.ok, t0)


def _read_labels(path: str, n: int) -> List[BitString]:
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                b = BitString.from_text(line)
                if b.n != n:
                    raise ValueError(f"label length {b.n} != {n}")
                out.append(b)
    return out


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    g = _build_graph(args)
    config = _graph_config(args, g)
    config.update({"d": args.d, "codewords": args.codewords,
                   "ldpc": args.ldpc, "m": args.m})
    try:
        if args.ldpc:
            if args.m is None:
                raise ValueError("--ldpc requires --m")
            code = analysis.read_classical_code(args.ldpc)
            labels = [b for b in analysis.ldpc_embed(code, args.m) if not b.is_zero()]
        elif args.codewords:
            labels = _read_labels(args.codewords, g.n)
        else:
            raise ValueError("need --codewords or --ldpc")
        verdict = analysis.verify_codewords(g, args.d, labels, _deadline())
    except BudgetExceededError as exc:
        return _report(args, "verify", config, {"error": str(exc)}, False, True, t0)
    results = {
        "pass": verdict.ok,
        "witness": verdict.witness,
        "label_count": len(labels),
        "labels": [b.to_text() for b in labels],
    }
    return _report(args, "verify", config, results, verdict.ok, False, t0)


def cmd_oracle(args) -> int:
    t0 = time.monotonic()
    g = _build_graph(args)
    config = _graph_config(args, g)
    config.update({"d": args.d, "h": args.h, "matrix_elements": args.matrix_elements,
                   "samples": args.samples, "seed": args.seed})
    deadline = _deadline()
    try:
        if args.matrix_elements:
            if args.samples < 1:
                raise ValueError("--samples must be at least 1")
            rng = random.Random(args.seed)
            a = g.adjacency()
            worst = 0.0
            for _ in range(args.samples):
                deadline.check()
                h, gg, k, l = (BitString(g.n, rng.getrandbits(g.n)) for _ in range(4))
                lhs = analysis.graph_basis_inner_analytic(a, h, gg, k, l)
                rhs = qoracle.pauli_matrix_element(
                    qoracle.graph_basis_state(g, h),
                    qoracle.graph_basis_state(g, gg), k, l)
                worst = max(worst, abs(lhs - rhs))
            ok = worst <= qoracle.DEFAULT_TOL
            results = {"samples": args.samples, "max_deviation": worst, "pass": ok}
        elif args.h is not None:
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
            ok = bool(verdict) and verdict.ok == analytic
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
        else:
            raise ValueError("need --h/--d or --matrix-elements")
    except BudgetExceededError as exc:
        results = {"error": str(exc)}
        if exc.weight is not None:
            # a stop in the state-vector check: every operator of a lighter
            # weight class was checked
            results["operator_weight"] = exc.weight
        return _report(args, "oracle", config, results, False, True, t0)
    return _report(args, "oracle", config, results, ok, False, t0)


def cmd_code3d(args) -> int:
    t0 = time.monotonic()
    config = {"L": args.L, "distance_scan": args.distance_scan}
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
    return _report(args, "code3d", config, results, rep.ok, rep.error is not None, t0)


def cmd_scan(args) -> int:
    t0 = time.monotonic()
    params_list = [tuple(int(x) for x in chunk.split(",")) for chunk in args.params]
    config = {"family": args.family, "params": args.params}
    res = analysis.family_scan(args.family, params_list, _deadline())
    ok = all(e.d_max is not None for e in res.entries)
    results = {
        "entries": [
            {"params": list(e.params), "n": e.n, "d_max": e.d_max, "error": e.error}
            for e in res.entries
        ],
        "exponent": res.exponent,
    }
    return _report(args, "scan", config, results, ok, not ok, t0)


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
    p.set_defaults(func=cmd_gen)

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
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the --matrix-elements samples")
    _add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("code3d", help="verify the 3D toric-layer code")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--no-distance-scan", dest="distance_scan",
                   action="store_false",
                   help="structure checks only (the scan, grown from qubit 0, "
                        "takes about 0.2 s at L = 7 and 1 s at L = 8)")
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
    try:
        return args.func(args)
    except (ValueError, OSError, qoracle.QubitCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
