"""Experiment runners and CSV emission.

One runner per scenario, each taking exactly the settings it reads:

    run_critical_strain_table  critical stretches per family and blend size,
                               plus the pure-atomistic reference
    run_coercivity             a single coercivity constant
    run_consistency_sweep      force/energy gap between the linearized atomistic
                               and continuum models over a mesh-refinement ladder
    solve_deformation          solve the blended force balance for an external
                               force, for interaction ranges N = 1, 2, 3
    run_scaling                coercivity along an M-ladder, L = ceil(M^(1/3))

Their defaults, in their signatures only, follow the reference setup:
M = 2000, N = 2, Morse well (D_e = 3, alpha = 3, r_e = 1), cubic blending
with L = 5 and sweep resolution dgamma = 1e-5.

Outputs are ResultTables written as CSV: '#'-prefixed metadata lines (the
scenario, version, Morse parameters and the runner's settings, each value
written with str()), a header row, then comma-separated values: a float as
%.17g, 17 significant digits that read back exactly, and an integer or text
as str().  Runs are deterministic, so identical settings produce
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.sparse.linalg import splu

from . import __version__
from .blending import (
    SPLINE_FAMILIES,
    constant_profile,
    one_sided_profile,
    sample_beta,
    symmetric_profile,
)
from .lattice import ChainConfig
from .operators import assemble_linear, energy_linearized
from .potential import Morse, MorseParams
from .stability import (
    StrainSweepError,
    bordered_matrix,
    coercivity_constant,
    critical_strain,
    scaling_study,
    stability_at,
)

TABLE_BLEND_SIZES = (1, 2, 3, 4, 5, 6, 7, 10)


@dataclass
class ResultTable:
    """A scenario's rows and metadata; a NaN or infinity in them raises FloatingPointError."""

    columns: list
    rows: list
    metadata: dict

    def __post_init__(self):
        if any(len(r) != len(self.columns) for r in self.rows):
            raise ValueError("row width does not match column count")
        formats = []  # per column: %.17g if every cell is a float, %s if none is
        for name, values in zip(self.columns, zip(*self.rows)):
            _check_finite(name, values)
            floats = sum(map(isinstance, values, repeat(float)))
            formats.append("%.17g" if floats == len(values) else "%s" if floats == 0 else None)
        for name, value in self.metadata.items():
            _check_finite(name, value)
        self._row_format = None if None in formats else ",".join(formats) + "\n"

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def to_csv_text(self) -> str:
        lines = [f"# {key} = {self.metadata[key]}\n" for key in sorted(self.metadata)]
        lines.append(",".join(self.columns) + "\n")
        if self._row_format is None:  # a column mixes floats with other cells: a format per row
            for r in self.rows:
                fmt = ",".join("%.17g" if isinstance(c, float) else "%s" for c in r)
                lines.append(fmt % tuple(r) + "\n")
        else:
            lines += [self._row_format % tuple(r) for r in self.rows]
        return "".join(lines)

    def write_csv(self, path) -> None:
        text = self.to_csv_text()  # before open, so a failure leaves an existing file whole
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_finite(name, values) -> None:
    """Reject a NaN or infinity in a column or a metadata value: over its float
    array, or over its float cells where text or None give no float array."""
    arr = np.asarray(values)
    if arr.dtype.kind in "OSU":
        arr = np.array([c for c in np.ravel(np.array(values, object)) if isinstance(c, float)])
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise FloatingPointError(f"{name} holds a NaN or infinity")


def _metadata(scenario: str, potential: MorseParams, **settings) -> dict:
    return {
        "scenario": scenario,
        "version": __version__,
        "D_e": potential.D_e,
        "alpha": potential.alpha,
        "r_e": potential.r_e,
        **settings,
    }


def external_force(kind: str, params, config: ChainConfig) -> np.ndarray:
    """The external force at every lattice site, in physical order.

    params is (amp_scale, mu, sigma); only the gaussian reads mu and
    sigma, and needs both, with 2 sigma^2 a positive float.  sine:
    0.01 * s * sin(-pi x); gaussian: 0.01 * s * exp(-(x - mu)^2 / (2 sigma^2)),
    with ((x - mu) / sigma)^2 / 2 in the exponent where 2 sigma^2 overflows.
    """
    amp_scale, mu, sigma = params
    for name, value in (("amp_scale", amp_scale), ("mu", mu), ("sigma", sigma)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    x = config.positions()
    if kind == "sine":
        return 0.01 * amp_scale * np.sin(-x * np.pi)
    if kind == "gaussian":
        if mu is None or sigma is None:
            raise ValueError("the gaussian force needs mu and sigma")
        with np.errstate(over="ignore"):  # an overflow rounds the force to 0 or a constant
            two_var = 2.0 * np.float64(sigma) ** 2  # Python's sigma**2, but inf past the range
            if not (sigma > 0 and two_var > 0.0):
                raise ValueError(f"sigma must be positive with 2 sigma^2 > 0, got {sigma}")
            q = (x - mu) ** 2 / two_var if two_var < math.inf else ((x - mu) / sigma) ** 2 / 2.0
            return 0.01 * amp_scale * np.exp(-q)
    raise ValueError(f"unknown force kind {kind!r}")


def solve_mean_zero(op, rhs: np.ndarray) -> np.ndarray:
    """Solve the force balance on the mean-zero subspace.

    The operator annihilates constants, so the system is posed on
    mean-zero fields via the bordered matrix [[A, e], [e^T, 0]]: the
    border column absorbs the (generally nonzero) mean of A u produced by
    the non-symmetric blend, the border row pins mean(u) = 0.
    """
    sol = splu(bordered_matrix(op.bands)).solve(np.append(rhs, 0.0))
    return sol[: op.config.n_atoms] + 0.0  # a zero entry, not the -0.0 a negative pivot gives


def run_critical_strain_table(
    M: int = 2000, N: int = 2, potential: MorseParams = MorseParams(), *, one_sided: bool = False,
    dgamma: float = 1e-5, gamma_max: float = 1.5, coarse: float = 1e-3,
) -> ResultTable:
    """Critical stretches for each blending family and blend size.

    Rows cover the spline families at blend sizes 1..7 and 10 plus the
    pure atomistic reference; blends that are already unstable at
    gamma = 1 are recorded with a critical stretch of 1 (the value the
    reference table uses for that degenerate row).  dgamma, gamma_max
    and coarse go to every critical_strain sweep; coarse only picks the
    stretches the sweep visits, not its answer, so it is not recorded.
    """
    pot = Morse(potential)
    config = ChainConfig(M=M, N=N)
    make_profile = one_sided_profile if one_sided else symmetric_profile

    def sweep(beta_field):
        def build(gamma):
            return assemble_linear("bqcf", pot, config, beta_field, gamma)

        return critical_strain(build, dgamma, gamma_max, coarse=coarse)

    rows = []
    beta_one = sample_beta(constant_profile("constant_one"), config)
    gamma_atomistic = sweep(beta_one)
    rows.append(("atomistic", "-", 0, gamma_atomistic, 0.0))

    for family in SPLINE_FAMILIES:
        for L in TABLE_BLEND_SIZES:
            beta = sample_beta(make_profile(config, family, L), config)
            try:
                g = sweep(beta)
            except StrainSweepError as exc:
                if exc.reason != "unstable_at_start":
                    raise
                g = 1.0  # the reference table records 1 for such rows
            rows.append(("bqcf", family, L, g, abs(gamma_atomistic - g)))

    meta = _metadata(
        "critical-strain", potential, M=M, N=N, one_sided=one_sided,
        dgamma=dgamma, gamma_max=gamma_max, gamma_atomistic=gamma_atomistic,
    )
    return ResultTable(
        columns=["model", "family", "L", "gamma_crit", "abs_err_vs_atomistic"],
        rows=rows,
        metadata=meta,
    )


# CoercivityReport fields, one row per report; path and the two counts say how
# c_min was found
COERCIVITY_COLUMNS = [
    "M", "N", "family", "L", "gamma", "c_min", "iterations", "path", "factorizations", "residual",
]


def run_coercivity(
    M: int = 2000, N: int = 2, potential: MorseParams = MorseParams(), family: str = "cubic",
    L: int = 5, *, one_sided: bool = False,
) -> ResultTable:
    """c_min of the blended operator at gamma = 1."""
    config = ChainConfig(M=M, N=N)
    make_profile = one_sided_profile if one_sided else symmetric_profile
    beta = sample_beta(make_profile(config, family, L), config)
    op = assemble_linear("bqcf", Morse(potential), config, beta, 1.0)
    rep = coercivity_constant(op, gamma=1.0, L=L, family=family)
    return ResultTable(
        columns=COERCIVITY_COLUMNS,
        rows=[tuple(getattr(rep, c) for c in COERCIVITY_COLUMNS)],
        metadata=_metadata(
            "coercivity", potential, M=M, N=N, family=family, L=L, one_sided=one_sided
        ),
    )


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def run_consistency_sweep(N: int = 2, potential: MorseParams = MorseParams()) -> ResultTable:
    """Force and energy gaps between linearized models as the mesh refines.

    Uses the smooth test displacement u = sin(pi x) at M = 250, 500, 1000
    and 2000; reports l2 and linf force gaps, the energy gap, and their
    fitted log-log slopes in the metadata.  N must be at least 2: for
    N = 1 the two models coincide, and a zero gap has no slope.
    """
    if N < 2:
        raise ValueError(f"consistency needs N >= 2: for N = {N} the models coincide")
    pot = Morse(potential)
    rows = []
    for M in (250, 500, 1000, 2000):
        config = ChainConfig(M=M, N=N)
        u = np.sin(np.pi * config.positions())
        fa = assemble_linear("atomistic", pot, config).apply_values(u)
        fc = assemble_linear("continuum", pot, config).apply_values(u)
        gap = fc - fa
        err_l2 = float(np.sqrt(np.sum(gap**2) * config.a))
        err_linf = float(np.max(np.abs(gap)))
        e_gap = abs(
            energy_linearized(u, pot, config, "continuum")
            - energy_linearized(u, pot, config, "atomistic")
        )
        rows.append((N, M, config.a, err_l2, err_linf, e_gap))

    ms = [r[1] for r in rows]
    meta = _metadata(
        "consistency", potential, N=N,
        force_slope_l2=-loglog_slope(ms, [r[3] for r in rows]),
        force_slope_linf=-loglog_slope(ms, [r[4] for r in rows]),
        energy_slope=-loglog_slope(ms, [r[5] for r in rows]),
    )
    return ResultTable(
        columns=["N", "M", "a", "force_err_l2", "force_err_linf", "energy_err"],
        rows=rows,
        metadata=meta,
    )


def solve_deformation(
    force_kind: str, M: int = 2000, N: int = 2, potential: MorseParams = MorseParams(),
    family: str = "cubic", L: int = 5, *, one_sided: bool = False, amp_scale: float = 0.2,
    mu: float | None = None, sigma: float | None = None,
) -> ResultTable:
    """Blended response to an external force for N = 1, 2, 3.

    force_kind is 'sine' or 'gaussian' (see external_force); only the
    gaussian takes mu and sigma, whose defaults 4a and 50a are recorded
    as values.  Samples the force and the blend, which depend only on M,
    once, projects the force onto mean zero (recording the removed mean),
    checks coercivity at gamma = 1 for the given N, and solves the three
    interaction ranges, whose displacements are the table's u_N1, u_N2 and
    u_N3 columns.
    """
    if force_kind not in ("sine", "gaussian"):
        raise ValueError(f"deform needs force_kind 'sine' or 'gaussian', got {force_kind!r}")
    if N not in (1, 2, 3):
        raise ValueError("deform compares interaction ranges N = 1, 2, 3")
    base = ChainConfig(M=M, N=N)
    shape = {}
    if force_kind == "gaussian":
        a = base.a
        shape = {"mu": 4.0 * a if mu is None else mu, "sigma": 50.0 * a if sigma is None else sigma}
    elif (mu, sigma) != (None, None):
        raise ValueError("the sine force takes no mu or sigma")
    pot = Morse(potential)
    make_profile = one_sided_profile if one_sided else symmetric_profile
    f_vals = external_force(force_kind, (amp_scale, shape.get("mu"), shape.get("sigma")), base)
    # equal values are their own mean, which the float sum need not return
    removed_mean = float(f_vals[0] if np.all(f_vals == f_vals[0]) else f_vals.mean())
    f0 = f_vals - removed_mean
    beta = sample_beta(make_profile(base, family, L), base)
    u = {}
    for n in (1, 2, 3):
        op = assemble_linear("bqcf", pot, ChainConfig(M=M, N=n), beta, 1.0)
        if n == N:
            rec = stability_at(op, 1.0)
            if not rec.stable:
                raise StrainSweepError(
                    f"blended operator not coercive at gamma = 1 ({rec.detail()})",
                    "unstable_at_start",
                )
        u[n] = solve_mean_zero(op, f0)

    arrays = (base.logical_indices(), base.positions(), u[1], u[2], u[3], f_vals)
    meta = _metadata(
        "deform", potential, force_kind=force_kind, M=M, N=N, family=family, L=L,
        one_sided=one_sided, amp_scale=amp_scale, **shape,
        removed_mean=removed_mean,
        gap_linf_N1_N2=float(np.max(np.abs(u[1] - u[2]))),
        gap_linf_N2_N3=float(np.max(np.abs(u[2] - u[3]))),
    )
    return ResultTable(
        columns=["ell", "x", "u_N1", "u_N2", "u_N3", "f_ext"],
        rows=list(zip(*(c.tolist() for c in arrays))),
        metadata=meta,
    )


def run_scaling(
    family: str = "cubic", N: int = 2, potential: MorseParams = MorseParams()
) -> ResultTable:
    """Coercivity at M = 500, 1000, 2000 and 4000 with blend size L = ceil(M^(1/3))."""
    rule = "M^(1/3)"
    reports = scaling_study(family, rule, [500, 1000, 2000, 4000], Morse(potential), N)
    return ResultTable(
        columns=COERCIVITY_COLUMNS,
        rows=[tuple(getattr(r, c) for c in COERCIVITY_COLUMNS) for r in reports],
        metadata=_metadata("scaling", potential, family=family, N=N, L_rule=rule),
    )
