"""Command-line interface.

Exit codes: 0 success, 2 configuration error (a bad config or flag value, or
a --config or --out path that cannot be read or written), 3 computation error
(cross-check mismatches and stabilization failures included).  Any other
exception is a fault of the program and is not caught.
"""

from __future__ import annotations

import argparse
import sys

from . import bifurcation as bif
from .burnside import format_terms
from .degrees import basic_degree
from .errors import ComputationError, ConfigError
from .model_io import (
    bundled_config,
    critical_point_rows,
    isotypic_rows,
    kernel_type,
    load_model,
    model_kernel_mode,
    read_config,
    report_json,
    run_report,
    verdict_row,
)
from .orbit_types import parse_symbol
from .spectrum import BesselZeroTable


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand-position flag from clobbering one given
    # before the subcommand
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a model config JSON, or 'bundled:NAME'")
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path instead of stdout")
    p = argparse.ArgumentParser(prog="equideg", parents=[common],
                                description="Equivariant-degree bifurcation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("decompose", parents=[common],
                   help="isotypic decomposition of the model action")

    b = sub.add_parser("bessel", parents=[common], help="table of squared Bessel zeros")
    b.add_argument("--m-max", type=int, default=10)
    b.add_argument("--n-max", type=int, default=9)

    sub.add_parser("critical-points", parents=[common],
                   help="critical parameter values of the model")

    d = sub.add_parser("basic-degree", parents=[common],
                       help="basic degree of one irreducible block")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--j", type=int, required=True)

    i = sub.add_parser("invariant", parents=[common],
                       help="local bifurcation invariant at a critical point")
    i.add_argument("--id", required=True, help="critical point id n,m,j")
    i.add_argument("--mode", choices=("full", "relative"), default=None)

    g = sub.add_parser("global", parents=[common],
                       help="global verdict for one maximal orbit type")
    g.add_argument("--orbit-type", required=True)

    sub.add_parser("report", parents=[common], help="full bifurcation report")

    k = sub.add_parser("kernel-grid", parents=[common],
                       help="kernel eigenmode sampled on a polar grid (CSV)")
    k.add_argument("--id", required=True, help="critical point id n,m,j")
    k.add_argument("--orbit-type", default=None)
    k.add_argument("--resolution", type=int, default=64)
    return p


def _load(args):
    if not args.config:
        raise ConfigError("--config is required for this command")
    name = args.config.removeprefix("bundled:")
    try:  # a --config value that cannot be read names the flag
        cfg = bundled_config(name) if name != args.config else read_config(args.config)
    except (OSError, ConfigError) as e:
        raise ConfigError(f"--config: {e}") from None
    return load_model(cfg)


def _arg(flag: str, lookup, *args):
    """lookup(*args) on a value given by flag: the KeyError or ValueError with
    which the API refuses an unknown or out-of-range value is a ConfigError
    naming the flag."""
    try:
        return lookup(*args)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"{flag}: {e.args[0] if e.args else e}") from None


def _critical_point(model, text: str):
    """The critical point of model named by --id n,m,j."""
    try:
        n, m, j = (int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--id must be three integers n,m,j, got {text!r}") from None
    return _arg("--id", model.critical_by_id, (n, m, j))


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            raise ConfigError(f"--out: {e}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, default in (("config", None), ("format", "text"), ("out", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ComputationError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "bessel":
        table = _arg("--m-max, --n-max", BesselZeroTable, args.m_max, args.n_max)
        if args.format == "json":
            _emit(args, report_json({"m_max": args.m_max, "n_max": args.n_max,
                                     "entries": table.entries}))
        else:
            lines = ["m\\n " + " ".join(f"{n:>10d}" for n in range(1, args.n_max + 1))]
            for m in range(args.m_max + 1):
                lines.append(f"m={m:<2d} " + " ".join(f"{v:10.3f}" for v in table.entries[m]))
            _emit(args, "\n".join(lines) + "\n")
        return 0

    model = _load(args)

    if cmd == "decompose":
        rows = isotypic_rows(model)
        if args.format == "json":
            _emit(args, report_json(rows))
        else:
            _emit(args, "\n".join(
                f"j={r['j']} {r['label']}: dim {r['irrep_dim']} x{r['multiplicity']}, "
                f"weight {r['weight']:g}" for r in rows) + "\n")
        return 0

    if cmd == "critical-points":
        rows = critical_point_rows(model)
        if args.format == "json":
            _emit(args, report_json(rows))
        else:
            _emit(args, "\n".join(
                f"(n,m,j)=({r['id'][0]},{r['id'][1]},{r['id'][2]}) alpha={r['alpha']:.9f} "
                f"level={r['zeta_level']:.9f}" for r in rows) + "\n")
        return 0

    if cmd == "basic-degree":
        if args.m < 0:
            raise ConfigError(f"--m must be >= 0, got {args.m}")
        _arg("--j", model.ctx.irrep, args.j)
        terms = basic_degree(model.ctx, args.m, args.j).sorted_terms()
        if args.format == "json":
            _emit(args, report_json({"m": args.m, "j": args.j,
                                     "terms": [[s, c] for s, c in terms]}))
        else:
            _emit(args, format_terms(terms) + "\n")
        return 0

    if cmd == "invariant":
        cp = _critical_point(model, args.id)
        inv = bif.local_invariant(model.problem, cp, mode=args.mode)
        terms = inv.value.sorted_terms()
        if args.format == "json":
            _emit(args, report_json({"id": list(cp.id), "mode": inv.mode,
                                     "k_fixed": inv.k_fixed,
                                     "terms": [[s, c] for s, c in terms]}))
        else:
            _emit(args, format_terms(terms) + "\n")
        return 0

    if cmd == "global":
        h = _arg("--orbit-type", parse_symbol, model.ctx, args.orbit_type)
        if all(h.key != t.key for t in model.problem.maximal_pool()):
            raise ConfigError(f"--orbit-type: {h.symbol} is not a maximal orbit type")
        payload = verdict_row(bif.global_verdict(model.problem, h))
        if args.format == "json":
            _emit(args, report_json(payload))
        else:
            _emit(args, f"{payload['orbit_type']}: {payload['conclusion']}"
                        f" (s_bar={payload['s_bar']}, members={payload['members']},"
                        f" symmetry at least {payload['folded']})\n")
        return 0

    if cmd == "report":
        rep = run_report(model)
        bad = [e for e in rep["fast_path_checks"] if e["status"] != "ok"]
        if args.format == "json":
            _emit(args, report_json(rep))
        else:
            lines = [f"model: {rep['model']['name']} (mode {rep['model']['mode']},"
                     f" k_fixed {rep['model']['k_fixed']})"]
            lines.append("critical points: " + ", ".join(
                str(tuple(r["id"])) for r in rep["critical_points"]))
            for inv in rep["invariants"]:
                if inv["mode"] != rep["model"]["mode"]:
                    continue
                lines.append(f"omega{tuple(inv['id'])} = {format_terms(inv['terms'])}")
            for v in rep["verdicts"]:
                lines.append(f"{v['orbit_type']}: {v['conclusion']} -> {v['folded']}")
            lines.append("rabinowitz sum = " + format_terms(rep["rabinowitz_sum"]["terms"]))
            lines.append(f"fast-path checks: {len(rep['fast_path_checks'])} run, "
                         f"{len(bad)} flagged")
            _emit(args, "\n".join(lines) + "\n")
        return 3 if bad else 0

    if cmd == "kernel-grid":
        cp = _critical_point(model, args.id)
        t = (None if args.orbit_type is None
             else _arg("--orbit-type", kernel_type, model, cp, args.orbit_type))
        if args.resolution < 0:
            raise ConfigError(f"--resolution must be >= 0, got {args.resolution}")
        rows = model_kernel_mode(model, cp.id, t).grid(args.resolution)
        k = model.action.dimension
        header = "r,theta," + ",".join(f"u{i+1}" for i in range(k))
        body = "\n".join(",".join(repr(v) for v in row) for row in rows)
        _emit(args, header + "\n" + body + "\n")
        return 0

    raise ConfigError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
