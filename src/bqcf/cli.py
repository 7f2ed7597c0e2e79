"""Command-line front end.

    bqcf critical-strain --M 2000 --N 2 --family cubic --L 5
    bqcf coercivity --M 64 --family one --N 1
    bqcf consistency --N 2
    bqcf deform --force sine --M 2000 --family cubic --L 5
    bqcf scaling --family cubic

Each subcommand writes a CSV (default <scenario>.csv, override with
--out) and prints a one-line summary.  Exit codes: 0 success, 2 bad
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ExperimentConfig, run_scenario
from .potential import MorseParams

_FAMILY_ALIASES = {
    "linear": "linear",
    "cubic": "cubic",
    "quintic": "quintic",
    "one": "constant_one",
    "zero": "constant_zero",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--M", type=int, default=2000, help="half atom count (chain has 2M atoms)")
    sub.add_argument("--N", type=int, default=2, help="interaction range in neighbors")
    sub.add_argument("--alpha", type=float, default=3.0, help="Morse width parameter")
    sub.add_argument("--De", type=float, default=3.0, help="Morse well depth")
    sub.add_argument("--re", type=float, default=1.0, help="Morse equilibrium distance")
    sub.add_argument(
        "--family",
        choices=sorted(_FAMILY_ALIASES),
        default="cubic",
        help="blending family (one/zero = constant profiles)",
    )
    sub.add_argument("--L", type=int, default=5, help="atoms per blend interval")
    sub.add_argument("--oneside", action="store_true", help="single blend interval layout")
    sub.add_argument("--out", default=None, metavar="PATH", help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bqcf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="scenario", required=True)

    p = subs.add_parser("critical-strain", help="critical stretch per family and blend size")
    _add_common(p)
    p.add_argument("--dgamma", type=float, default=1e-5, help="sweep resolution")
    p.add_argument("--gamma-max", type=float, default=1.5, help="upper end of the sweep")
    p.add_argument("--scan-exact", action="store_true", help="walk the fine grid directly")

    p = subs.add_parser("coercivity", help="coercivity constant of the blended operator")
    _add_common(p)

    p = subs.add_parser("consistency", help="atomistic/continuum consistency rates")
    _add_common(p)

    p = subs.add_parser("deform", help="displacement under an external force")
    _add_common(p)
    p.add_argument("--force", choices=["sine", "gaussian"], required=True)
    p.add_argument("--amp-scale", type=float, default=0.2, help="force amplitude scale")
    p.add_argument("--mu", type=float, default=None, help="gaussian center (default 4a)")
    p.add_argument("--sigma", type=float, default=None, help="gaussian width (default 50a)")

    p = subs.add_parser("scaling", help="coercivity across chain sizes")
    _add_common(p)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(
        scenario=args.scenario,
        M=args.M,
        N=args.N,
        potential=MorseParams(D_e=args.De, alpha=args.alpha, r_e=args.re),
        family=_FAMILY_ALIASES[args.family],
        L=args.L,
        force_kind=getattr(args, "force", "none") or "none",
        amp_scale=getattr(args, "amp_scale", 0.2),
        mu=getattr(args, "mu", None),
        sigma=getattr(args, "sigma", None),
        dgamma=getattr(args, "dgamma", 1e-5),
        gamma_max=getattr(args, "gamma_max", 1.5),
        one_sided=args.oneside,
        output_path=args.out,
    )
    if getattr(args, "scan_exact", False):
        cfg.dgamma_coarse = cfg.dgamma
    return cfg


def _summary_line(cfg: ExperimentConfig, table) -> str:
    if cfg.scenario == "critical-strain":
        return (
            f"critical-strain: {len(table.rows)} rows, "
            f"atomistic gamma = {table.metadata['gamma_atomistic']}"
        )
    if cfg.scenario == "coercivity":
        row = table.rows[0]
        return f"coercivity: c_min = {row[table.columns.index('c_min')]:.6g}"
    if cfg.scenario == "consistency":
        return (
            f"consistency: force slope l2 = {table.metadata['force_slope_l2']:.3f}, "
            f"energy slope = {table.metadata['energy_slope']:.3f}"
        )
    if cfg.scenario == "deform":
        return (
            f"deform ({cfg.force_kind}): max|u_N2| = "
            f"{max(abs(v) for v in table.column('u_N2')):.6g}"
        )
    return f"scaling: min c_min = {min(table.column('c_min')):.6g}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        table = run_scenario(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    out = cfg.output_path or f"{cfg.scenario}.csv"
    table.write_csv(out)
    print(f"{_summary_line(cfg, table)}  -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
