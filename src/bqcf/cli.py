"""Command-line front end.

    bqcf critical-strain --M 2000 --N 2
    bqcf coercivity --M 64 --family one --N 1
    bqcf consistency --N 2
    bqcf deform --force sine --M 2000 --family cubic --L 5
    bqcf scaling --family cubic

Each subcommand accepts exactly the settings its runner in
bqcf.experiments reads and passes them straight through; a flag left out
takes the runner's default, and a flag the scenario does not read is
rejected.  Each writes a CSV (default <scenario>.csv, override with
--out) and prints a one-line summary.  Exit codes: 0 success, 2 bad
configuration, a run that does not fit in memory or an output path that
cannot be written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import experiments
from .potential import MorseParams

_FAMILY_ALIASES = {
    "linear": "linear",
    "cubic": "cubic",
    "quintic": "quintic",
    "one": "constant_one",
    "zero": "constant_zero",
}
_MORSE = ("D_e", "alpha", "r_e")

# runner keyword -> (flag, argparse options); the defaults are the runners'
_FLAGS = {
    "M": ("--M", dict(type=int, help="half atom count (chain has 2M atoms)")),
    "N": ("--N", dict(type=int, help="interaction range in neighbors")),
    "alpha": ("--alpha", dict(type=float, help="Morse width parameter")),
    "D_e": ("--De", dict(type=float, help="Morse well depth")),
    "r_e": ("--re", dict(type=float, help="Morse equilibrium distance")),
    "family": (
        "--family",
        dict(choices=sorted(_FAMILY_ALIASES), help="blend family (one/zero = constant profiles)"),
    ),
    "L": ("--L", dict(type=int, help="atoms per blend interval")),
    "one_sided": ("--oneside", dict(action="store_true", help="single blend interval layout")),
    "dgamma": ("--dgamma", dict(type=float, help="sweep resolution")),
    "gamma_max": ("--gamma-max", dict(type=float, help="upper end of the sweep")),
    "coarse": ("--scan-exact", dict(action="store_const", const=0.0, help="walk the dgamma grid")),
    "force_kind": ("--force", dict(choices=["sine", "gaussian"], required=True)),
    "amp_scale": ("--amp-scale", dict(type=float, help="force amplitude scale")),
    "mu": ("--mu", dict(type=float, help="gaussian center (default 4a)")),
    "sigma": ("--sigma", dict(type=float, help="gaussian width (default 50a)")),
}


def _counts(t) -> str:
    """The proven bracket of a coercivity table's least c_min, and the
    factorizations and solves that its rows took."""
    lo, hi = min(t.reports, key=lambda rep: rep.c_min).bracket
    f, s = sum(t.column("factorizations")), sum(t.column("iterations"))
    return f" in [{float(lo)!r}, {float(hi)!r}] ({f} factorizations, {s} solves)"


# scenario -> (help, runner, summary); the runner's parameters other than
# potential are the scenario's flags
SCENARIOS = {
    "critical-strain": (
        "critical stretch per family and blend size",
        experiments.run_critical_strain_table,
        lambda t: (
            f"critical-strain: {len(t.rows)} rows, "
            f"atomistic gamma = {t.metadata['gamma_atomistic']:.10g}"
        ),
    ),
    "coercivity": (
        "coercivity constant of the blended operator",
        experiments.run_coercivity,
        lambda t: f"coercivity: c_min = {t.column('c_min')[0]:.6g}{_counts(t)}",
    ),
    "consistency": (
        "atomistic/continuum consistency rates",
        experiments.run_consistency_sweep,
        lambda t: (
            f"consistency: force slope l2 = {t.metadata['force_slope_l2']:.3f}, "
            f"energy slope = {t.metadata['energy_slope']:.3f}"
        ),
    ),
    "deform": (
        "displacement under an external force",
        experiments.solve_deformation,
        lambda t: (
            f"deform ({t.metadata['force_kind']}): "
            f"max|u_N2| = {max(map(abs, t.column('u_N2'))):.6g}"
        ),
    ),
    "scaling": (
        "coercivity across chain sizes",
        experiments.run_scaling,
        lambda t: f"scaling: min c_min = {min(t.column('c_min')):.6g}{_counts(t)}",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bqcf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="scenario", required=True)
    for scenario, (help_text, runner, _) in SCENARIOS.items():
        p = subs.add_parser(scenario, help=help_text, argument_default=argparse.SUPPRESS)
        keywords = [k for k in inspect.signature(runner).parameters if k != "potential"]
        for key in (*keywords, *_MORSE):
            flag, options = _FLAGS[key]
            p.add_argument(flag, dest=key, **options)
        p.add_argument("--out", metavar="PATH", help="CSV output path")
    return parser


def _is_negative_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return arg.startswith("-")


def _attach_negative_values(argv) -> list:
    """Join a value that starts with '-' and parses as a number to the flag
    before it (--mu -1e-3 becomes --mu=-1e-3): argparse before Python 3.13
    takes a negative number in exponent notation for an option."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        settings = vars(build_parser().parse_args(_attach_negative_values(argv)))
    except SystemExit as exc:  # argparse has printed its usage error (code 2) or --help (0)
        return exc.code
    scenario = settings.pop("scenario")
    out = settings.pop("out", f"{scenario}.csv")
    _, runner, summary = SCENARIOS[scenario]
    if "family" in settings:
        settings["family"] = _FAMILY_ALIASES[settings["family"]]
    try:
        potential = MorseParams(**{k: settings.pop(k) for k in _MORSE if k in settings})
        # called by name, so a wrapper set on the module since import runs too
        table = getattr(experiments, runner.__name__)(potential=potential, **settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {scenario} does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        table.write_csv(out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"{summary(table)}  -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
