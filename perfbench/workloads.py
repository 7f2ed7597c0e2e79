"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

All workloads use the Morse well D_e = 3, alpha = 3, r_e = 1, interaction
range N = 2 and the symmetric cubic blend.  Seed 0 gives the reference
inputs below; any other seed draws the deform force parameters and the
ladder stretch from fixed ranges (the sweep has no free input).

    sweep-ref    one critical_strain sweep at M = 2000, L = 5, dgamma = 1e-5,
                 coarse step 1e-3, gamma_max = 1.5; the dominant row type of
                 the critical-strain table.  One operation = one gamma
                 evaluation (operator build plus coercivity decision).
    cmin-ladder  one coercivity_constant per M in 500 .. 8000 through
                 scaling_study, L = ceil(M^(1/3)), plus a fixed near-critical
                 rung at M = 8000; eigen-solver cost across working-set sizes
                 with no sweep logic.  One operation = one pass.
    deform-cli   the two `bqcf deform` commands of the README at M = 2000,
                 run in-process through cli.main; one operation = one call.

`host_normalized` says whether a workload's pass and operation times are
divided by the host factor (hostspeed.py): yes where the time is mostly
interpreted Python-level code, which the factor tracks; no for cmin-ladder,
whose time is mostly compiled SuperLU and threaded BLAS work, which it
does not.

A pass records the duration of every operation it runs, calls after_op()
after each (the runner takes a host-speed sample there, outside the
operation's time), and returns what the checks need; the checks run after
the pass, outside the timed part.  Each check returns one boolean per
operation.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from pathlib import Path

import numpy as np

import bqcf
from bqcf import blending, cli, operators, stability

MORSE = dict(D_e=3.0, alpha=3.0, r_e=1.0)
N_REF = 2
FAMILY = "cubic"

SWEEP = dict(M=2000, L=5, dgamma=1e-5, coarse=1e-3, gamma_max=1.5)
SWEEP_SMALL = dict(M=64, L=5, dgamma=1e-4, coarse=1e-2, gamma_max=1.5)
# the reference sweep's answer, in the sweep's own grid arithmetic
SWEEP_GAMMA_C = 1.0 + 19085 * 1e-5

LADDER_M = (500, 1000, 2000, 4000, 8000)
# seed-0 values (gamma = 1) at the commit that defined the benchmark
LADDER_CMIN = {
    500: 43.86414699577427,
    1000: 43.85406199320653,
    2000: 43.89234577880873,
    4000: 43.899567612957966,
    8000: 43.92469604827278,
}
# Near-critical stretches make the M = 8000 solve fall back, now and then,
# to a Rayleigh-shifted refactorization whose pivoting fills the LU (tens
# of millions of nonzeros: ~9 s and ~1 GB more on a 2-core machine).
# Which stretches do so is erratic; a scan of [1, 1.15] met it only above
# gamma ~ 1.13.  So the seeded stretch stays below that, and one stretch
# that does so is a fixed rung of every pass.
LADDER_GAMMA_RANGE = (1.0, 1.12)
NEAR_CRITICAL = (8000, 1.1414584158358552)

DEFORM_M = 2000
DEFORM_SINE_AMP_RANGE = (0.1, 0.3)
DEFORM_GAUSS_AMP_RANGE = (0.1, 0.3)
DEFORM_MU_RANGE = (-0.01, 0.01)
DEFORM_SIGMA_RANGE = (0.01, 0.05)


def _morse():
    return bqcf.Morse(bqcf.MorseParams(**MORSE))


def _beta(config, L):
    return bqcf.sample_beta(bqcf.symmetric_profile(config, FAMILY, L), config)


def _apply_plain(op, v):
    """A v straight from the stored diagonals (not the program's apply)."""
    return sum(d * np.roll(v, -o) for o, d in op.diagonals.items())


def _apply_plain_transpose(op, v):
    return sum(np.roll(d * v, o) for o, d in op.diagonals.items())


def pencil_residual(op, v, c):
    """|P S v - c G v| / |G v| recomputed from the operator's diagonals."""
    a = op.config.a
    sv = 0.5 * a * (_apply_plain(op, v) + _apply_plain_transpose(op, v))
    sv = sv - sv.mean()
    gv = (2.0 * v - np.roll(v, -1) - np.roll(v, 1)) / a
    return float(np.linalg.norm(sv - c * gv) / np.linalg.norm(gv))


def residual_ok(op, rep):
    bound = 1e-8 * (abs(rep.c_min) + 1.0)
    return (
        math.isfinite(rep.c_min)
        and rep.residual <= bound
        and pencil_residual(op, rep.mode, rep.c_min) <= bound
    )


class SweepRef:
    """One critical-strain sweep at the reference settings."""

    name = "sweep-ref"
    host_normalized = True

    def __init__(self, seed, out_dir, small=False):
        self.p = SWEEP_SMALL if small else SWEEP
        self.pinned = None if small else SWEEP_GAMMA_C
        self.pot = _morse()
        self.config = bqcf.ChainConfig(M=self.p["M"], N=N_REF)
        self.beta = _beta(self.config, self.p["L"])

    def build(self, gamma):
        return operators.assemble_linear("bqcf", self.pot, self.config, self.beta, gamma)

    def run_pass(self, ops, after_op):
        started = []

        def build(gamma):
            started.append(time.perf_counter())
            return self.build(gamma)

        def sink(rep):
            ops.append(time.perf_counter() - started[-1])
            after_op()

        p = self.p
        return stability.critical_strain(
            build, p["dgamma"], p["gamma_max"], coarse=p["coarse"], report_sink=sink
        )

    def check(self, gamma_c, n_ops):
        """gamma_c as pinned, coercive at gamma_c and not one grid step above."""
        dgamma = self.p["dgamma"]
        units = round((gamma_c - 1.0) / dgamma)
        ok = 1.0 + units * dgamma == gamma_c
        if self.pinned is not None:
            ok = ok and gamma_c == self.pinned
        for i, want_positive in ((units, True), (units + 1, False)):
            op = self.build(1.0 + i * dgamma)
            rep = stability.coercivity_constant(op)
            ok = ok and residual_ok(op, rep) and (rep.c_min > 0.0) == want_positive
        return [ok] * n_ops

    def describe(self):
        return {"M": self.p["M"], "L": self.p["L"], "dgamma": self.p["dgamma"]}


@contextlib.contextmanager
def counting_splu():
    """Count the sparse factorizations coercivity_constant makes.

    A count above one on a rung means the Rayleigh-shifted refactorization
    ran; the near-critical rung is there to measure it, so a change in its
    count explains a change in the rung's time.
    """
    original = stability.splu
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    stability.splu = counted
    try:
        yield count
    finally:
        stability.splu = original


class CminLadder:
    """coercivity_constant per rung of an M-ladder, through scaling_study.

    One operation is one pass over every rung; the rung times and factorization
    counts are kept in rung_seconds and rung_factorizations, one list per pass.
    """

    name = "cmin-ladder"
    host_normalized = False

    def __init__(self, seed, out_dir, small=False):
        if seed == 0:
            gamma = 1.0
        else:
            gamma = float(np.random.default_rng(seed).uniform(*LADDER_GAMMA_RANGE))
        # the small ladder takes the exact Fourier path of the constant profile
        self.family = "constant_one" if small else FAMILY
        if small:
            self.rungs = [(64, gamma), (300, gamma)]
        else:
            self.rungs = [(M, gamma) for M in LADDER_M] + [NEAR_CRITICAL]
        self.pinned = LADDER_CMIN if (seed == 0 and not small) else {}
        self.pot = _morse()
        self.rung_seconds = []
        self.rung_factorizations = []  # stability.splu calls per rung, per pass

    def rung_names(self):
        return [f"M{M}" if (M, g) != NEAR_CRITICAL else f"M{M}.near_critical" for M, g in self.rungs]

    def run_pass(self, ops, after_op):
        t_pass = time.perf_counter()
        reports, seconds, factorizations = [], [], []
        for M, gamma in self.rungs:
            t0 = time.perf_counter()
            with counting_splu() as count:
                (rep,) = stability.scaling_study(
                    self.family, "M^(1/3)", [M], self.pot, N_REF, gamma=gamma
                )
            seconds.append(time.perf_counter() - t0)
            factorizations.append(count[0])
            reports.append(rep)
        ops.append(time.perf_counter() - t_pass)
        after_op()
        self.rung_seconds.append(seconds)
        self.rung_factorizations.append(factorizations)
        return reports

    def check(self, reports, n_ops):
        ok = len(reports) == len(self.rungs)
        for (M, gamma), rep in zip(self.rungs, reports):
            config = bqcf.ChainConfig(M=M, N=N_REF)
            if self.family == FAMILY:
                beta = _beta(config, stability.blend_size_for_rule("M^(1/3)", M))
            else:
                beta = bqcf.sample_beta(blending.constant_profile(self.family), config)
            op = operators.assemble_linear("bqcf", self.pot, config, beta, gamma)
            ok = ok and rep.M == M and rep.gamma == gamma and residual_ok(op, rep)
            if (M, gamma) != NEAR_CRITICAL and M in self.pinned:
                ok = ok and abs(rep.c_min - self.pinned[M]) <= 1e-10 * (abs(rep.c_min) + 1.0)
        return [ok] * n_ops

    def describe(self):
        return {"family": self.family, "rungs": [{"M": M, "gamma": g} for M, g in self.rungs]}


class DeformCli:
    """The README's two deform commands through cli.main, writing CSVs."""

    name = "deform-cli"
    host_normalized = True

    def __init__(self, seed, out_dir, small=False):
        self.M = 300 if small else DEFORM_M
        if seed == 0:
            sine_amp, gauss = 0.2, (0.2, 0.002, 0.025)
        else:
            rng = np.random.default_rng(seed)
            sine_amp = float(rng.uniform(*DEFORM_SINE_AMP_RANGE))
            gauss = (
                float(rng.uniform(*DEFORM_GAUSS_AMP_RANGE)),
                float(rng.uniform(*DEFORM_MU_RANGE)),
                float(rng.uniform(*DEFORM_SIGMA_RANGE)),
            )
        out_dir = Path(out_dir)
        common = ["--M", str(self.M), "--N", str(N_REF), "--family", FAMILY, "--L", "5"]
        self.commands = [
            ["deform", "--force", "sine", "--amp-scale", repr(sine_amp), *common,
             "--out", str(out_dir / "deform-sine.csv")],
            ["deform", "--force", "gaussian", "--amp-scale", repr(gauss[0]),
             "--mu", repr(gauss[1]), "--sigma", repr(gauss[2]), *common,
             "--out", str(out_dir / "deform-gaussian.csv")],
        ]
        self.first_bytes = {}
        self.checked = {}

    def run_pass(self, ops, after_op):
        results = []
        for argv in self.commands:
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            ops.append(time.perf_counter() - t0)
            after_op()
            results.append((argv[-1], code, out.getvalue()))
            if code != 0:
                break
        return results

    def _csv_ok(self, text):
        """mean(u) = 0 and A u = f - mean(f) for N = 1, 2, 3, from the CSV."""
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines or lines[0] != "ell,x,u_N1,u_N2,u_N3,f_ext":
            return False
        try:
            data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        except ValueError:
            return False
        if data.shape != (2 * self.M, 6):
            return False
        f = data[:, 5]
        f_inf = np.max(np.abs(f))
        pot = _morse()
        for N in (1, 2, 3):
            config = bqcf.ChainConfig(M=self.M, N=N)
            op = operators.assemble_linear("bqcf", pot, config, _beta(config, 5), 1.0)
            u = data[:, 1 + N]
            r = _apply_plain(op, u) - (f - f.mean())
            if not (abs(u.mean()) <= 1e-9 * np.max(np.abs(u)) and np.max(np.abs(r)) <= 1e-8 * f_inf):
                return False
        return True

    def check(self, results, n_ops):
        """Exit 0, CSV identical to the run's first one and physically right."""
        flags = []
        for path, code, stdout in results:
            if code != 0 or not stdout.rstrip().endswith(path):
                flags.append(False)
                continue
            data = Path(path).read_bytes()
            first = self.first_bytes.setdefault(path, data)
            if data not in self.checked:
                self.checked[data] = self._csv_ok(data.decode("utf-8"))
            flags.append(data == first and self.checked[data])
        return flags + [False] * (n_ops - len(flags))

    def describe(self):
        return {"M": self.M, "commands": [" ".join(c[:-2]) for c in self.commands]}


WORKLOADS = {w.name: w for w in (SweepRef, CminLadder, DeformCli)}


def make(name, seed, out_dir, small=False):
    return WORKLOADS[name](seed, out_dir, small)
