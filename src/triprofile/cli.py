"""Command-line interface.

Subcommands: census, boundary, member, construct, sweep, optimize, verify.
Exit codes: 0 success, 1 domain error, 2 I/O or parse error.  Floats are
serialized with 17 significant digits so CSV output round-trips exactly.

main builds its parser once per process and finds each subcommand's handler,
cmd_<name>, by name when called, so a handler rebound on this module after
import (a tracing wrapper, a test stub) is the one that runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import json
import sys

from . import boundary as bnd
from . import constructions as cons
from . import optimizer as opt
from .census import (census_fast, densities, graphon_densities, read_edge_list,
                     read_step_graphon, write_edge_list)
from .errors import DomainError, InputFormatError

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _verdict_word(v: bnd.MembershipVerdict, tol: float) -> str:
    # the inside/outside decision honors the caller tolerance (10/n for
    # finite graphs); "boundary" is only reported within a tight band so a
    # generous finite-size tolerance does not label everything boundary
    if abs(v.slack) <= min(tol, 1e-9):
        return "boundary"
    return "inside" if v.inside else "outside"


def _print_verdicts(out, d, tol: float) -> None:
    for region, (x, y) in bnd.region_coords(d).items():
        v = bnd.membership(region, x, y, tol)
        out.write(f"{region}: {_verdict_word(v, tol)} slack={_fmt(v.slack)} "
                  f"binding={v.binding}\n")


def cmd_census(args) -> int:
    # written to stdout only once every step has succeeded, so a failure
    # (a bad --tol, say) leaves no partial report
    out = io.StringIO()
    if args.graphon:
        w = read_step_graphon(args.input)
        d = graphon_densities(w)
        tol = args.tol if args.tol is not None else 1e-9
        out.write(f"blocks: {w.num_blocks}\n")
    else:
        g = read_edge_list(args.input)
        c = census_fast(g)
        d = densities(c)
        tol = args.tol if args.tol is not None else 10.0 / g.n
        out.write(f"n: {g.n}\n")
        out.write(f"m: {g.m}\n")
        out.write(f"counts: {c.c0},{c.c1},{c.c2},{c.c3}\n")
    out.write("densities: " + ",".join(_fmt(v) for v in d.profile) + "\n")
    out.write(f"d_e: {_fmt(d.d_e)}\n")
    _print_verdicts(out, d, tol)
    sys.stdout.write(out.getvalue())
    return 0


def _write_lines(lines, out) -> None:
    """Write lines to stdout when out is None or "-", else to the file out.

    Lines are written one at a time, so an iterable of them is never held
    whole.
    """
    if out in (None, "-"):
        sys.stdout.writelines(f"{line}\n" for line in lines)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(f"{line}\n" for line in lines)


def cmd_boundary(args) -> int:
    rows = bnd.sample_boundary(args.region, args.samples)
    lines = itertools.chain(
        ["param,x,y,branch"],
        (f"{_fmt(p)},{_fmt(x)},{_fmt(y)},{branch}" for p, x, y, branch in rows))
    _write_lines(lines, args.out)
    return 0


def cmd_member(args) -> int:
    tol = args.tol if args.tol is not None else 1e-9
    v = bnd.membership(args.region, args.x, args.y, tol)
    sys.stdout.write(f"verdict: {_verdict_word(v, tol)}\n")
    sys.stdout.write(f"slack: {_fmt(v.slack)}\n")
    sys.stdout.write(f"binding: {v.binding}\n")
    return 0


def _keyed(pairs, option: str, form: str):
    """(key, raw value) of each key=... item of a repeated option."""
    for item in pairs or []:
        if "=" not in item:
            raise DomainError(f"{option} expects {form} (got {item!r})")
        key, _, raw = item.partition("=")
        yield key, raw


def _numbers(raw: str, convert, what: str, kind: str) -> list:
    """The comma-separated values of raw, empty items skipped; at least one."""
    try:
        values = [convert(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise DomainError(f"{what} is not a list of {kind}: {raw!r}") from None
    if not values:
        raise DomainError(f"{what} must name at least one value")
    return values


def cmd_construct(args) -> int:
    params = {}
    for key, raw in _keyed(args.param, "--param", "key=value"):
        try:
            params[key.strip()] = float(raw)
        except ValueError:
            raise DomainError(f"parameter {key!r} is not a number: {raw!r}") from None
    spec = cons.FamilySpec(args.family, params, n=args.n, seed=args.seed)
    g = cons.realize(spec)
    write_edge_list(g, args.out)
    lim = graphon_densities(cons.limit_graphon(spec))
    fin = densities(cons.finite_census(spec, g))
    dev = fin.max_deviation(lim)
    summary = {
        "family": spec.family,
        "params": spec.params,
        "n": spec.n,
        "seed": spec.seed,
        "limit": dataclasses.asdict(lim),
        "census": dataclasses.asdict(fin),
        "max_deviation": dev,
    }
    sidecar = args.out + ".summary.json"
    with open(sidecar, "w", encoding="utf-8", newline="\n") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    sys.stdout.write(f"wrote: {args.out} ({g.n} vertices, {g.m} edges)\n")
    sys.stdout.write(f"summary: {sidecar}\n")
    sys.stdout.write(f"max_deviation: {_fmt(dev)}\n")
    return 0


def cmd_sweep(args) -> int:
    grids = {key.strip(): _numbers(raw, float, f"grid for {key!r}", "numbers")
             for key, raw in _keyed(args.param_grid, "--param-grid", "key=v1,v2,...")}
    if not grids:
        raise DomainError("at least one --param-grid is required")
    n_list = _numbers(args.n_list, int, "--n-list", "integers")
    seeds = _numbers(args.seeds or "0", int, "--seeds", "integers")

    keys = sorted(grids)
    combos = [dict(zip(keys, values))
              for values in itertools.product(*(grids[k] for k in keys))]

    lines = ["family,params,n,seed,d0,d1,d2,d3,d_e,"
             "lim_d0,lim_d1,lim_d2,lim_d3,lim_d_e,max_dev"]
    for params in combos:
        lim = graphon_densities(cons.limit_graphon(
            cons.FamilySpec(args.family, params)))
        label = ";".join(f"{k}={_fmt(params[k])}" for k in keys)
        for n in n_list:
            for seed in seeds:
                spec = cons.FamilySpec(args.family, params, n=n, seed=seed)
                fin = densities(cons.finite_census(spec))
                row = [args.family, label, str(n), str(seed)]
                row += [_fmt(v) for v in fin.profile + (fin.d_e,)]
                row += [_fmt(v) for v in lim.profile + (lim.d_e,)]
                row.append(_fmt(fin.max_deviation(lim)))
                lines.append(",".join(row))
    _write_lines(lines, args.out)
    return 0


def cmd_optimize(args) -> int:
    res = opt.maximize_grid(args.alpha, grid=args.grid, refine_tol=args.refine_tol)
    out = sys.stdout
    out.write(f"alpha: {_fmt(args.alpha)}\n")
    out.write(f"analytic_value: {_fmt(res.analytic_value)}\n")
    out.write(f"grid_value: {_fmt(res.value)}\n")
    out.write(f"gap: {_fmt(res.analytic_value - res.value)}\n")
    out.write("best_x: " + ",".join(_fmt(v) for v in res.best.x) + "\n")
    out.write("best_y: " + ",".join(_fmt(v) for v in res.best.y) + "\n")
    out.write(f"stationarity_residual: {_fmt(res.stationarity_residual)}\n")
    out.write("candidates:\n")
    for cand in sorted(res.candidates, key=lambda c: -c.value):
        mark = " (attains max)" if cand.attains_max else ""
        out.write(f"  {_fmt(cand.value)}  {cand.label}{mark}\n")
    return 0


def cmd_verify(args) -> int:
    # imported here so that the other subcommands do not load the checks
    from .verify import run_suite

    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{status} {r.name}: {r.detail} ({r.seconds:.2f} s)\n")
    if failed:
        sys.stderr.write(f"first failing invariant: {failed[0].name}\n")
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triprofile",
        description="3-vertex density profiles, region boundaries, extremal "
                    "constructions and the clique-structure maximization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="census a graph or step-graphon file")
    p.add_argument("input", help="edge-list file (or JSON document with --graphon)")
    p.add_argument("--graphon", action="store_true",
                   help="treat the input as a step-graphon document")
    p.add_argument("--tol", type=float, default=None,
                   help="membership tolerance (default 10/n for graphs, 1e-9 "
                        "for graphons)")

    p = sub.add_parser("boundary", help="sample a region boundary as CSV")
    p.add_argument("--region", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("member", help="test a point against a region")
    p.add_argument("--region", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("construct", help="realize a construction family")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="edge-list output path")

    p = sub.add_parser("sweep", help="finite-vs-limit deviation table")
    p.add_argument("--family", required=True)
    p.add_argument("--param-grid", action="append", metavar="KEY=V1,V2,...")
    p.add_argument("--n-list", required=True)
    p.add_argument("--seeds", default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("optimize", help="grid-verify the clique-structure maximum")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--refine-tol", type=float, default=1e-10)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "census", "boundary", "constructions",
                            "optimizer"])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except DomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (InputFormatError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
