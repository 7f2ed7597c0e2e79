"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines.  The critical-strain table (criterion 1) runs the full
M = 2000 sweep grid once and is shared between its subtests; it takes
about 1 s on two cores.  Its 4,789 stretches cost 72 factorizations
and 25 band builds: each blended row factors two shifts for the one
eigenvalue at gamma = 1 that decides all its stretches, gamma = 1
included, from their coefficients alone, and one count that proves that
eigenvalue's lower end.  The atomistic row factors nothing: its
eigenvalue is the quotient of the least Fourier mode at gamma = 1.
The fixture records the sweeps' warnings and counts the factorizations,
so the single-sign-change assumption and the budget are checked on the
table too.  The same table for N = 3 is pinned beside it; its rows take
a few eigenvalues each, about 2 s in all.
"""

import warnings

import numpy as np
import pytest
from oracles import (
    bilinear,
    decompose_bilinear_n2,
    dense_cmin,
    dense_matrix,
    energy_atomistic,
    force_nonlinear_atomistic,
    l2_norm,
    stability_constant,
    summation_by_parts_residual,
)
from scipy.optimize import brentq

from bqcf import stability
from bqcf.blending import constant_profile, sample_beta, symmetric_profile
from bqcf.experiments import (
    external_force,
    run_consistency_sweep,
    run_critical_strain_table,
    solve_deformation,
    solve_mean_zero,
)
from bqcf.lattice import ChainConfig, forward_diff
from bqcf.operators import assemble_linear
from bqcf.potential import Morse, MorseParams
from bqcf.stability import (
    coercivity_constant,
    critical_strain,
    scaling_study,
)


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")


@pytest.fixture(scope="module")
def morse():
    return Morse(MorseParams(3.0, 3.0, 1.0))


def counting_factorizations(monkeypatch):
    """Count the sparse factorizations bqcf.stability makes from now on."""
    count = []
    splu = stability.splu
    monkeypatch.setattr(stability, "splu", lambda *a, **k: count.append(1) or splu(*a, **k))
    return count


@pytest.fixture(scope="module")
def table1_run():
    """The table, the warnings its sweeps raised and its factorizations."""
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("always")
        count = counting_factorizations(mp)
        table = run_critical_strain_table(M=2000, N=2)
    return table, [str(w.message) for w in caught], len(count)


@pytest.fixture(scope="module")
def table1(table1_run):
    return table1_run[0]


def _column_map(table):
    out = {}
    for model, family, L, gamma, gap in table.rows:
        out[(model, family, L)] = gamma
    return out


def atomistic_sweep(alpha, M=2000, N=2, dgamma=1e-5):
    pot = Morse(MorseParams(3.0, alpha, 1.0))
    config = ChainConfig(M=M, N=N)
    beta = sample_beta(constant_profile("constant_one"), config)

    def build(gamma):
        return assemble_linear("bqcf", pot, config, beta, gamma)

    return critical_strain(build, dgamma, 1.5, coarse=1e-3)


def test_criterion_1_table_structure(table1):
    """Cubic column monotone, cubic >= linear, cubic L=10 in band."""
    vals = _column_map(table1)
    sizes = [2, 3, 4, 5, 6, 7, 10]
    cubic = [vals[("bqcf", "cubic", L)] for L in sizes]
    failures = []
    if not all(b >= a - 1e-12 for a, b in zip(cubic, cubic[1:])):
        failures.append(f"cubic column not nondecreasing: {cubic}")
    for L in [3, 4, 5, 6, 7, 10]:
        if vals[("bqcf", "cubic", L)] < vals[("bqcf", "linear", L)]:
            failures.append(f"cubic < linear at L={L}")
    c10 = vals[("bqcf", "cubic", 10)]
    if abs(c10 - 1.1950) > 0.002:
        failures.append(f"cubic L=10 = {c10:.5f} outside 1.1950 +- 0.002")
    announce(
        "1 (table structure)",
        not failures,
        f"cubic column {cubic}, L=10 -> {c10:.5f}",
    )
    assert not failures, failures


def long_wave_zero(pot, N):
    """Zero of A_N(gamma) = sum k^2 phi_xx(k gamma) on the sweep range (1, 1.5)."""
    return brentq(lambda g: stability_constant(pot, N, g), 1.0, 1.5, xtol=1e-14)


# gamma_crit of every table row in units of dgamma = 1e-5, as computed by
# the eigen-solve sweep before stretches were decided by inertia
TABLE1_GRID_UNITS = {("atomistic", "-", 0): 19720}
for _family, _units in (
    ("linear", (16607, 15372, 17370, 17670, 18116, 18383, 18572, 18916)),
    ("cubic", (16607, 18520, 18779, 18933, 19085, 19199, 19294, 19475)),
    ("quintic", (16607, 16789, 18580, 18805, 18953, 19072, 19171, 19385)),
):
    for _L, _u in zip((1, 2, 3, 4, 5, 6, 7, 10), _units):
        TABLE1_GRID_UNITS[("bqcf", _family, _L)] = _u


def test_criterion_1_table_values_pinned(table1):
    """Every gamma_crit equals its pinned grid point exactly."""
    vals = _column_map(table1)
    assert len(vals) == len(TABLE1_GRID_UNITS) == 25
    wrong = {
        key: vals.get(key)
        for key, units in TABLE1_GRID_UNITS.items()
        if vals.get(key) != 1.0 + units * 1e-5
    }
    announce("1 (pinned table)", not wrong, f"{len(wrong)} rows differ")
    assert not wrong, wrong


def test_criterion_1_table_factorizations(table1_run):
    """The N = 2 table stays within its budget of 72 factorizations."""
    count = table1_run[2]
    announce("1 (table factorizations)", count <= 72, f"{count} factorizations")
    assert count <= 72


# gamma_crit of every N = 3 table row (M = 2000) in units of dgamma = 1e-5,
# as computed by the sweep that decided every stretch by inertia
TABLE1_N3_GRID_UNITS = {("atomistic", "-", 0): 19492}
for _family, _units in (
    ("linear", (15921, 15012, 16924, 17342, 17788, 18072, 18276, 18642)),
    ("cubic", (15921, 18128, 18477, 18636, 18794, 18916, 19017, 19214)),
    ("quintic", (15921, 16270, 18215, 18507, 18663, 18786, 18890, 19116)),
):
    for _L, _u in zip((1, 2, 3, 4, 5, 6, 7, 10), _units):
        TABLE1_N3_GRID_UNITS[("bqcf", _family, _L)] = _u


def test_criterion_1_n3_table_pinned(monkeypatch):
    """The N = 3 table: every gamma_crit at its pinned grid point, within
    213 factorizations, and no single-sign-change warning."""
    count = counting_factorizations(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals = _column_map(run_critical_strain_table(M=2000, N=3))
    assert len(vals) == len(TABLE1_N3_GRID_UNITS) == 25
    wrong = {
        key: vals.get(key)
        for key, units in TABLE1_N3_GRID_UNITS.items()
        if vals.get(key) != 1.0 + units * 1e-5
    }
    ok = not wrong and len(count) <= 213 and not caught
    announce("1 (pinned N = 3 table)", ok, f"{len(wrong)} rows differ, {len(count)} factorizations")
    assert not wrong, wrong
    assert len(count) <= 213
    assert not caught, [str(w.message) for w in caught]


def test_criterion_1_single_sign_change(table1_run):
    """No sweep of the table saw a negative count fall or a c_min rise."""
    caught = table1_run[1]
    announce("1 (single sign change)", not caught, f"{len(caught)} warnings")
    assert not caught, caught


def test_criterion_1_atomistic_band(table1):
    """Atomistic reference row at the long-wave zero; 1.195 +- 0.002 on N = 3.

    A pure chain loses stability at the zero gamma* of the long-wave
    constant A_N(gamma), so the sweep must return the last grid point
    below it: 0 <= gamma* - gamma < dgamma.  This is checked twice:

    - the table's atomistic row (its pinned chain, N = 2, alpha = 3)
      against the zero of A_2, gamma* = 1.1972089;
    - an M = 2000 sweep of the three-neighbor chain (N = 3, alpha = 3)
      against the zero of A_3, gamma* = 1.1949253, and that sweep
      against the stated band 1.195 +- 0.002.

    The band holds the zero only for N >= 3 (A_4: 1.1948113,
    A_10: 1.1948061); the N = 2 zero lies 2.1e-4 above it.  PAPER.md
    holds only the abstract and does not settle which N the reference
    1.195 was computed with.
    """
    meta = table1.metadata
    dgamma = meta["dgamma"]
    pot = Morse(MorseParams(meta["D_e"], meta["alpha"], meta["r_e"]))
    g3 = atomistic_sweep(meta["alpha"], N=3, dgamma=dgamma)
    rows = [
        (meta["N"], meta["gamma_atomistic"], long_wave_zero(pot, meta["N"])),
        (3, g3, long_wave_zero(pot, 3)),
    ]
    failures = [
        f"N={N}: {gamma:.5f} is not the last grid point below {zero:.7f}"
        for N, gamma, zero in rows
        if not 0.0 <= zero - gamma < dgamma
    ]
    if abs(g3 - 1.195) > 0.002:
        failures.append(f"N=3: {g3:.5f} outside 1.195 +- 0.002")
    detail = "; ".join(f"N={N}: {gamma:.5f} (A_{N} zero {zero:.7f})" for N, gamma, zero in rows)
    announce("1 (atomistic band)", not failures, detail)
    assert not failures, failures


def test_criterion_2_consistency_rates():
    ok = True
    details = []
    for N in (2, 3):
        table = run_consistency_sweep(N=N)
        slopes = (
            table.metadata["force_slope_l2"],
            table.metadata["force_slope_linf"],
            table.metadata["energy_slope"],
        )
        details.append(f"N={N}: slopes {tuple(round(s, 3) for s in slopes)}")
        ok = ok and all(1.85 <= s <= 2.15 for s in slopes)
    announce("2 (consistency rates)", ok, "; ".join(details))
    assert ok, details


def test_criterion_3_exact_identities(morse):
    failures = []

    # summation by parts on random periodic pairs
    rng = np.random.default_rng(2024)
    for M in (8, 128, 2000):
        config = ChainConfig(M=M, N=2)
        for _ in range(10):
            u = rng.standard_normal(config.n_atoms)
            v = rng.standard_normal(config.n_atoms)
            bound = 1e-12 * (np.abs(u).max() * np.abs(v).max() * config.n_atoms)
            if summation_by_parts_residual(u, v) > bound:
                failures.append(f"summation-by-parts residual above bound at M={M}")

    # blend degenerations, exact in coefficients
    config = ChainConfig(M=64, N=3)
    beta1 = sample_beta(constant_profile("constant_one"), config)
    beta0 = sample_beta(constant_profile("constant_zero"), config)
    for gamma in (1.0, 1.1):
        bq1 = assemble_linear("bqcf", morse, config, beta1, gamma)
        at = assemble_linear("atomistic", morse, config, gamma=gamma)
        bq0 = assemble_linear("bqcf", morse, config, beta0, gamma)
        co = assemble_linear("continuum", morse, config, gamma=gamma)
        for lhs, rhs, tag in ((bq1, at, "beta=1"), (bq0, co, "beta=0")):
            offs = set(lhs.diagonals) | set(rhs.diagonals)
            for o in offs:
                z = np.zeros(config.n_atoms)
                if not np.array_equal(
                    lhs.diagonals.get(o, z), rhs.diagonals.get(o, z)
                ):
                    failures.append(f"{tag} degeneration differs at offset {o}")

    # N=1 Rayleigh quotient exactly constant
    config1 = ChainConfig(M=64, N=1)
    beta = rng.uniform(0, 1, config1.n_atoms)
    op1 = assemble_linear("bqcf", morse, config1, beta, 1.0)
    quots = []
    for _ in range(100):
        w = rng.standard_normal(config1.n_atoms)
        w -= w.mean()
        quots.append(bilinear(op1, w, w) / l2_norm(forward_diff(w, config1), config1) ** 2)
    spread = (max(quots) - min(quots)) / abs(np.mean(quots))
    if spread > 1e-9:
        failures.append(f"N=1 quotient spread {spread:.2e} above 1e-9")

    # every assembled operator annihilates constants
    config2 = ChainConfig(M=500, N=2)
    betas = {
        "one": sample_beta(constant_profile("constant_one"), config2),
        "cubic": sample_beta(symmetric_profile(config2, "cubic", 5), config2),
    }
    c = np.full(config2.n_atoms, 2.5)
    for which in ("atomistic", "continuum", "bqcf"):
        op = assemble_linear(which, morse, config2, betas["cubic"], 1.1)
        if np.max(np.abs(op.apply_values(c))) > 1e-11:
            failures.append(f"{which} operator does not annihilate constants")

    announce("3 (exact identities)", not failures, f"{len(failures)} issue(s)")
    assert not failures, failures


def test_criterion_4_oracle_equivalence(morse):
    failures = []
    config = ChainConfig(M=64, N=2)
    beta = sample_beta(symmetric_profile(config, "cubic", 5), config)
    op = assemble_linear("bqcf", morse, config, beta, 1.1)
    A = dense_matrix(op)
    rng = np.random.default_rng(77)
    u = rng.standard_normal(config.n_atoms)
    v = rng.standard_normal(config.n_atoms)

    # banded apply vs dense
    gap = np.max(np.abs(op.apply_values(u) - A @ u))
    if gap > 1e-8 * (np.max(np.abs(A @ u)) + 1):
        failures.append(f"apply vs dense gap {gap:.2e}")

    # bilinear vs dense
    bd = config.a * float(v @ (A @ u))
    if abs(bilinear(op, u, v) - bd) > 1e-8 * (abs(bd) + 1):
        failures.append("bilinear vs dense mismatch")

    # coercivity: sliced Lanczos vs dense full-spectrum solve
    c_dense = dense_cmin(op)
    rep = coercivity_constant(op)
    if abs(c_dense - rep.c_min) > 1e-8:
        failures.append(f"coercivity dense {c_dense} vs {rep.path} {rep.c_min}")

    # deformation solve vs dense oracle on the mean-zero complement
    from scipy.linalg import null_space

    f = external_force("sine", (0.2, None, None), config)
    f0 = f - f.mean()
    u_sol = solve_mean_zero(op, f0)
    Q = null_space(np.ones((1, config.n_atoms)))
    expected = Q @ np.linalg.solve(Q.T @ A @ Q, Q.T @ f0)
    if np.max(np.abs(u_sol - expected)) > 1e-8 * (np.max(np.abs(expected)) + 1):
        failures.append("deformation solve vs dense oracle mismatch")

    # nonlinear force vs finite-difference energy gradient
    config8 = ChainConfig(M=8, N=2)
    w = 0.01 * rng.standard_normal(config8.n_atoms)
    force = force_nonlinear_atomistic(w, morse, config8)
    h = 1e-7
    fd = np.zeros(config8.n_atoms)
    for p in range(config8.n_atoms):
        up = w.copy()
        up[p] += h
        um = w.copy()
        um[p] -= h
        fd[p] = (
            energy_atomistic(up, morse, config8) - energy_atomistic(um, morse, config8)
        ) / (2 * h * config8.a)
    rel = np.max(np.abs(force - fd)) / (np.max(np.abs(fd)) + 1e-12)
    if rel > 1e-6:
        failures.append(f"nonlinear force vs gradient rel {rel:.2e}")

    announce("4 (oracle equivalence)", not failures, f"{len(failures)} issue(s)")
    assert not failures, failures


def test_criterion_5_bilinear_decomposition(morse):
    config = ChainConfig(M=64, N=2)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(config.n_atoms)

    failures = []
    residuals = []
    for name, profile in (
        ("beta=1", constant_profile("constant_one")),
        ("beta=0", constant_profile("constant_zero")),
        ("cubic L=5", symmetric_profile(config, "cubic", 5)),
    ):
        rep = decompose_bilinear_n2(u, sample_beta(profile, config), morse, config)
        residuals.append(f"{name} {rep.identity_residual:.2e}")
        if rep.identity_residual > 1e-10:
            failures.append(f"{name} residual {rep.identity_residual:.2e}: {rep}")
    detail = "residuals: " + ", ".join(residuals)

    announce("5 (bilinear decomposition)", not failures, detail)
    assert not failures, failures


def test_criterion_6_scaling_law(morse):
    threshold = 0.5 * stability_constant(morse, 2, 1.0)  # half of A_2(1)
    ms = [500, 1000, 2000, 4000]
    cube = scaling_study("cubic", "M^(1/3)", ms, morse, 2)
    fifth = scaling_study("cubic", "M^(1/5)", ms, morse, 2)
    failures = []
    for rep in cube:
        if rep.c_min < threshold:
            failures.append(
                f"M^(1/3) rule: c_min {rep.c_min:.3f} < {threshold:.3f} at M={rep.M}"
            )
    for rep in fifth:
        if not rep.c_min > 0:
            failures.append(f"M^(1/5) rule: c_min {rep.c_min:.3f} <= 0 at M={rep.M}")
    detail = (
        "M^(1/3): " + ", ".join(f"{r.c_min:.2f}" for r in cube)
        + " | M^(1/5): " + ", ".join(f"{r.c_min:.2f}" for r in fifth)
    )
    announce("6 (scaling law)", not failures, detail)
    assert not failures, failures


def test_criterion_7_deformation(morse):
    failures = []
    details = []
    for kind in ("sine", "gaussian"):
        table = solve_deformation(kind, M=2000, N=2, family="cubic", L=5)
        gap12 = table.metadata["gap_linf_N1_N2"]
        gap23 = table.metadata["gap_linf_N2_N3"]
        if not gap23 < gap12:
            failures.append(f"{kind}: interaction-range gaps out of order")
        for col in ("u_N1", "u_N2", "u_N3"):
            if abs(np.mean(table.column(col))) > 1e-10:
                failures.append(f"{kind}: {col} not mean-zero")

        # blended vs pure atomistic response
        config = ChainConfig(M=2000, N=2)
        beta1 = sample_beta(constant_profile("constant_one"), config)
        op_atom = assemble_linear("bqcf", morse, config, beta1, 1.0)
        f = external_force(kind, (0.2, 4.0 * config.a, 50.0 * config.a), config)
        u_atom = solve_mean_zero(op_atom, f - f.mean())
        rel = np.max(np.abs(np.array(table.column("u_N2")) - u_atom)) / np.max(
            np.abs(u_atom)
        )
        if rel > 0.05:
            failures.append(f"{kind}: blended vs atomistic gap {rel:.3%} > 5%")
        details.append(f"{kind}: gaps {gap12:.3e} > {gap23:.3e}, blend gap {rel:.3%}")

    announce("7 (deformation)", not failures, "; ".join(details))
    assert not failures, failures
