import itertools
import warnings
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    bilinear,
    decompose_bilinear_n2,
    dense_bordered,
    dense_cmin,
    dense_critical_strain,
    dense_gram,
    dense_matrix,
    dense_negative_count,
    dense_sym,
    l2_norm,
    reference_sweep,
    stability_constant,
)

from bqcf import operators, stability
from bqcf.blending import constant_profile, one_sided_profile, sample_beta, symmetric_profile
from bqcf.lattice import ChainConfig, forward_diff
from bqcf.operators import BandedPeriodicOperator, OperatorRecipe, assemble_linear
from bqcf.stability import (
    EigenSolveError,
    StabilityRecord,
    StrainSweepError,
    _LANCZOS_STEPS,
    _shifted_ldl,
    blend_size_for_rule,
    bordered_matrix,
    coercivity_constant,
    critical_strain,
    scaling_study,
    stability_at,
)


def cubic_beta(cfg, L):
    return sample_beta(symmetric_profile(cfg, "cubic", L), cfg)


def beta_one(cfg):
    return sample_beta(constant_profile("constant_one"), cfg)


def beta_zero(cfg):
    return sample_beta(constant_profile("constant_zero"), cfg)


# ------------------------------------------------------------- closed forms


def test_nearest_neighbor_constant_quotient(morse):
    cfg = ChainConfig(M=64, N=1)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 4)))
    assert rep.c_min == pytest.approx(54.0, rel=1e-6)


@pytest.mark.parametrize("M", [500, 2000, 8000])
@pytest.mark.parametrize("gamma", [1.0, 1.1])
@pytest.mark.parametrize("make_beta", [beta_zero, beta_one])
def test_nearest_neighbor_circulant_is_phi_xx(morse, make_beta, gamma, M):
    # an N = 1 chain is phi''(gamma) G / a whatever the blend, so every
    # mode's quotient is phi''(gamma); the Fourier symbol's ratio of small
    # terms near theta = 0 was off by 4.7e-10 relative at M = 8000
    cfg = ChainConfig(M=M, N=1)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, make_beta(cfg), gamma))
    assert rep.path == "circulant"
    assert rep.c_min == pytest.approx(morse.phi_xx(gamma), rel=1e-12, abs=0.0)


def test_continuum_equals_stability_constant(morse):
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, beta_zero(cfg), 1.0)
    rep = coercivity_constant(op)
    assert rep.c_min == pytest.approx(stability_constant(morse, 2, 1.0), rel=1e-10)


def test_atomistic_matches_dense_oracle(morse):
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.0)
    rep = coercivity_constant(op)
    assert rep.c_min > 0
    assert rep.c_min == pytest.approx(dense_cmin(op), abs=1e-8)


def test_iterative_matches_dense(morse):
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), 1.15)
    rep = coercivity_constant(op)
    assert rep.c_min == pytest.approx(dense_cmin(op), abs=1e-8)
    assert rep.path == "sliced" and rep.iterations > 0 and rep.factorizations > 0


def test_report_invariants(morse):
    cfg = ChainConfig(M=64, N=2)
    G = dense_gram(cfg)
    for beta in (cubic_beta(cfg, 4), beta_one(cfg)):
        op = assemble_linear("bqcf", morse, cfg, beta, 1.1)
        rep = coercivity_constant(op)
        assert abs(np.mean(rep.mode)) < 1e-10
        assert rep.mode @ (G @ rep.mode) == pytest.approx(1.0, rel=1e-12)
        assert rep.residual <= 1e-8 * (abs(rep.c_min) + 1.0)
        assert rep.c_min == pytest.approx(dense_cmin(op), abs=1e-8)


def test_quotient_exactly_constant_for_n1(morse):
    cfg = ChainConfig(M=48, N=1)
    rng = np.random.default_rng(13)
    beta = rng.uniform(0, 1, cfg.n_atoms)
    op = assemble_linear("bqcf", morse, cfg, beta, 1.0)
    quotients = []
    for _ in range(100):
        v = rng.standard_normal(cfg.n_atoms)
        v -= v.mean()
        quotients.append(bilinear(op, v, v) / l2_norm(forward_diff(v, cfg), cfg) ** 2)
    spread = (max(quotients) - min(quotients)) / abs(np.mean(quotients))
    assert spread <= 1e-9


# ------------------------------------------------------------ strain sweeps


def test_critical_strain_small_chain(morse):
    cfg = ChainConfig(M=48, N=2)
    beta = cubic_beta(cfg, 4)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    dg = 1e-4
    g = critical_strain(build, dgamma=dg, gamma_max=1.3, coarse=1e-2)
    assert 1.0 < g < 1.3
    # grid semantics: stable at the returned point, unstable one step later
    assert coercivity_constant(build(g)).c_min > 0
    assert coercivity_constant(build(g + dg)).c_min <= 0


def test_critical_strain_scan_exact_agrees(morse):
    cfg = ChainConfig(M=32, N=2)
    beta = cubic_beta(cfg, 3)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    g_bisect = critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-2)
    g_exact = critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-3)
    assert g_bisect == pytest.approx(g_exact, abs=1e-12)
    # gamma_max ends inside the coarse cell (1.19, 1.20] that holds the loss
    g_last = critical_strain(build, dgamma=1e-3, gamma_max=1.1975, coarse=1e-2)
    assert g_last == dense_critical_strain(build, 1e-3, 1.1975, 1e-2)[0] == 1.196


def test_critical_strain_warns_on_nonmonotone(morse):
    # stretch mapped backwards: coercivity grows along the scan, which the
    # sweep flags before running out of road
    cfg = ChainConfig(M=32, N=2)
    beta = beta_one(cfg)

    def build_backwards(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, 2.15 - gamma)

    with pytest.warns(RuntimeWarning, match="increased"):
        with pytest.raises(StrainSweepError, match="still positive"):
            critical_strain(build_backwards, dgamma=1e-3, gamma_max=1.1)


def test_critical_strain_errors(morse):
    cfg = ChainConfig(M=32, N=2)
    beta = beta_one(cfg)

    def build_unstable(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, 1.25 * gamma)

    with pytest.raises(StrainSweepError, match="not coercive"):
        critical_strain(build_unstable, dgamma=1e-3, gamma_max=1.3)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    with pytest.raises(StrainSweepError, match="still positive"):
        critical_strain(build, dgamma=1e-3, gamma_max=1.05)

    with pytest.raises(ValueError):
        critical_strain(build, dgamma=0.0, gamma_max=1.3)


def test_critical_strain_reports_each_gamma_once(morse):
    cfg = ChainConfig(M=32, N=2)
    beta = cubic_beta(cfg, 3)
    built, records = [], []

    def build(gamma):
        built.append(gamma)
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    def sink(rec):
        assert rec.gamma == built[-1] and len(records) == len(built) - 1
        records.append(rec)

    g = critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-2, report_sink=sink)
    assert [r.gamma for r in records] == built
    assert len(set(built)) == len(built)
    assert {r.path for r in records} == {"pencil"}
    by_units = {round((r.gamma - 1.0) / 1e-3): r for r in records}
    units = round((g - 1.0) / 1e-3)
    assert by_units[units].stable and not by_units[units + 1].stable


def stretch_bump(gamma):
    # inside one coarse cell the stretch overshoots far past criticality
    # and falls back to just past it, so a bisection midpoint is more
    # unstable than the cell's upper end
    units = round((gamma - 1.0) / 1e-3)
    if units <= 100:
        return gamma
    return 1.25 if units < 110 else 1.197


def test_critical_strain_warns_when_count_falls(morse):
    # N = 2: the pencil decides every bumped stretch and sees c_min rise
    # from the midpoint (many negative modes) to the cell's upper end
    cfg = ChainConfig(M=32, N=2)
    beta = cubic_beta(cfg, 3)

    def build_bump(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, stretch_bump(gamma))

    with pytest.warns(RuntimeWarning, match="coercivity increased"):
        g = critical_strain(build_bump, dgamma=1e-3, gamma_max=1.3, coarse=1e-2)
    assert g == 1.0 + 100 * 1e-3

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-2)


def test_critical_strain_compares_gamma_one_with_later_stretches(morse):
    # gamma = 1 assembled at stretch 1.15 has a lower c_min than the later
    # stretches, which nu, now gamma = 1's own record, must show
    cfg = ChainConfig(M=32, N=2)
    beta = cubic_beta(cfg, 3)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, 1.15 if gamma == 1.0 else gamma)

    with pytest.warns(RuntimeWarning, match=r"coercivity increased from gamma=1\.000000"):
        critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-2)


@pytest.mark.parametrize("N", [3, 4])
def test_critical_strain_warns_when_count_falls_by_inertia(morse, N):
    # N = 3: the eigencurve decides every stretch, and the bracket of the
    # cell's upper end lies wholly above the midpoint's.  N = 4: inertia
    # decides every stretch, and the negative-eigenvalue count falls from
    # the midpoint to the upper end.
    cfg = ChainConfig(M=32, N=N)
    beta = cubic_beta(cfg, 3)
    records = []

    def build_bump(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, stretch_bump(gamma))

    match, paths = ("coercivity increased", {"pencil"}) if N == 3 else ("count falls", {"inertia"})
    with pytest.warns(RuntimeWarning, match=match):
        g = critical_strain(
            build_bump, dgamma=1e-3, gamma_max=1.3, coarse=1e-2, report_sink=records.append
        )
    assert g == 1.0 + 100 * 1e-3
    assert {r.path for r in records} == paths


def test_neighbour_rule_matches_reference(monkeypatch):
    # stubbed sweeps whose records carry either measure and change sign at
    # random: the sweep keeps two records per measure, and must raise the
    # warnings, in the same order and from the caller's line, and give the
    # answers of a reference that keeps every record
    rng = np.random.default_rng(2024)
    monkeypatch.setattr(stability, "stability_at", lambda op, gamma: op.record)
    stub_config = ChainConfig(M=5, N=4)  # N = 4: no eigencurve
    dgamma = 1e-3
    kinds = set()
    for _ in range(2000):
        units = int(rng.integers(1, 60))
        gamma_max = 1.0 + (units + 0.5) * dgamma
        coarse = int(rng.integers(1, 20)) * dgamma
        stable = (np.arange(units + 1) <= rng.integers(-1, units + 2)) ^ (rng.random(units + 1) < 0.15)
        by_inertia = rng.random(units + 1) < 0.5
        neg = rng.integers(1, 4, units + 1)
        c = rng.exponential(1.0, units + 1)

        def decide(i):
            gamma = 1.0 + i * dgamma
            if by_inertia[i]:
                n = 0 if stable[i] else int(neg[i])
                return StabilityRecord(gamma, bool(stable[i]), n, None, "inertia")
            return StabilityRecord(gamma, bool(stable[i]), None, c[i] if stable[i] else -c[i], "sliced")

        def build(gamma):
            return SimpleNamespace(config=stub_config, record=decide(round((gamma - 1.0) / dgamma)))

        want, messages, order = reference_sweep(decide, dgamma, gamma_max, coarse)
        reported = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = critical_strain(build, dgamma, gamma_max, coarse=coarse, report_sink=reported.append)
            except StrainSweepError as exc:
                got = exc.reason
        assert got == want
        assert [r.gamma for r in reported] == [1.0 + i * dgamma for i in order]
        assert [str(w.message) for w in caught] == messages
        assert {w.filename for w in caught} <= {__file__}
        kinds.update(m.split(" ")[0] for m in messages)
    assert kinds == {"negative-eigenvalue", "coercivity"}


@pytest.mark.parametrize(
    "name, bad",
    [pytest.param(n, b, id=f"{b}-{n}") for b in (np.nan, np.inf, -np.inf)
     for n in ("dgamma", "gamma_max", "coarse")]
    # finite, but no grid stretch above 1; the last falls 1e-6 of a grid step
    # short of one, far more than the rounding a gamma_max on the grid carries
    + [("dgamma", 0.6), ("gamma_max", 1.000001), ("gamma_max", 1.000999999)],
)
def test_critical_strain_rejects_non_finite(morse, name, bad):
    cfg = ChainConfig(M=32, N=2)
    beta = beta_one(cfg)
    kwargs = dict(dgamma=1e-3, gamma_max=1.3, coarse=1e-2)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=name):
        critical_strain(lambda g: assemble_linear("bqcf", morse, cfg, beta, g), **kwargs)


@pytest.mark.parametrize("dgamma, gamma_max", [(0.1, 1.2), (1e-5, 1.00003), (1e-6, 1.000001)])
def test_critical_strain_reaches_gamma_max_on_the_grid(morse, dgamma, gamma_max):
    # (gamma_max - 1) / dgamma falls just short of an integer here, as
    # 1.9999999999999996, 2.99999999999745 and 0.99999999992: the sweep must
    # still end its grid at gamma_max, as the oracle counts it in exact
    # decimal arithmetic (the N = 2 chain is unstable at 1.2)
    cfg = ChainConfig(M=32, N=2)
    beta = beta_one(cfg)
    records = []

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    want, evaluated = dense_critical_strain(build, dgamma, gamma_max, 1e-3)
    try:
        got = critical_strain(build, dgamma, gamma_max, coarse=1e-3, report_sink=records.append)
    except StrainSweepError as exc:
        assert exc.reason == "no_instability"
        got = None
    assert got == want
    assert [r.gamma for r in records] == list(evaluated)
    assert max(evaluated) == pytest.approx(gamma_max, abs=1e-12)


def test_atomistic_critical_strain_matches_long_wave_zero(morse):
    # the pure chain loses stability at the long-wave zero of A_N(gamma);
    # locate that zero independently by bisecting the closed form
    cfg = ChainConfig(M=512, N=2)
    beta = beta_one(cfg)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    g = critical_strain(build, dgamma=1e-4, gamma_max=1.3, coarse=1e-2)
    lo, hi = 1.0, 1.3
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stability_constant(morse, 2, mid) > 0:
            lo = mid
        else:
            hi = mid
    assert g == pytest.approx(lo, abs=2e-4)


# ------------------------------------------------------------ pencil path


@pytest.mark.parametrize("make_profile", [symmetric_profile, one_sided_profile])
@pytest.mark.parametrize("family", ["linear", "cubic", "quintic"])
def test_pencil_sweep_matches_dense_oracle(morse, family, make_profile):
    # every eigencurve record against the dense pencil (its bracket holds the
    # dense c_min, and for N = 2 its c_min is that eigenvalue), and the whole
    # sweep against a scan that decides each stretch by the dense count
    pencil_records = {2: 0, 3: 0}
    for N, L in itertools.product((2, 3), (1, 4, 10)):
        cfg = ChainConfig(M=64, N=N)
        beta = sample_beta(make_profile(cfg, family, L), cfg)
        ops, records = {}, []

        def build(gamma):
            ops[gamma] = assemble_linear("bqcf", morse, cfg, beta, gamma)
            return ops[gamma]

        g = critical_strain(
            build, dgamma=1e-3, gamma_max=1.3, coarse=2e-2, report_sink=records.append
        )
        want, evaluated = dense_critical_strain(ops.__getitem__, 1e-3, 1.3, 2e-2)
        assert g == want
        assert [r.gamma for r in records] == list(evaluated)
        for rec in records:
            if rec.path == "pencil":
                eigenvalues = evaluated[rec.gamma]
                c = eigenvalues[0]
                tol = 1e-8 * (abs(c) + 1.0)
                lo, hi = rec.bracket
                assert lo - tol <= c <= hi + tol and rec.c_min == hi, (N, family, L, rec.gamma)
                if N == 2:
                    assert abs(rec.c_min - c) <= tol, (family, L, rec.gamma)
                assert rec.stable == (np.count_nonzero(eigenvalues < 0.0) == 0)
                pencil_records[N] += 1
    assert pencil_records[2] >= 36 and pencil_records[3] >= 36, pencil_records


@pytest.mark.parametrize("M", [16, 64])
@pytest.mark.parametrize("which", ["bqcf", "atomistic", "continuum"])
def test_pencil_affine_identity(morse, which, M):
    # the identity the eigencurve reads off each stretch's coefficients:
    # with c_k = phi''(k gamma) and t = c_3 / |c_2| (0 for N = 2),
    # A(gamma) = c_1 G/a + |c_2| A(0, -1, t), A(c) being the same recipe
    # with coefficients c
    for N in (2, 3):
        cfg = ChainConfig(M=M, N=N)
        # G/a is the constant blend's k = 1 stencil, exact for w = 1
        unit_k1 = OperatorRecipe(beta_one(cfg), (1.0, 0.0, 0.0)[:N])
        gram = BandedPeriodicOperator(cfg, recipe=unit_k1).bands
        betas = [beta_one(cfg), beta_zero(cfg)]
        for make_profile in (symmetric_profile, one_sided_profile):
            for family in ("linear", "cubic", "quintic"):
                betas.append(sample_beta(make_profile(cfg, family, 3), cfg))
        gammas = np.random.default_rng(M).uniform(1.0, 1.3, 4)
        for beta in betas:
            for gamma in gammas:
                op = assemble_linear(which, morse, cfg, beta, gamma)
                c1, c2, *c3 = op.recipe.coefficients
                assert c2 < 0
                t = c3[0] / abs(c2) if c3 else 0.0
                unit = replace(op.recipe, coefficients=(0.0, -1.0, t)[:N])
                g_op = BandedPeriodicOperator(cfg, recipe=unit)
                err = np.max(np.abs(op.bands - (c1 * gram + abs(c2) * g_op.bands)))
                assert err <= 1e-13 * np.max(np.abs(op.bands)), (which, N, gamma)


@pytest.mark.parametrize("copy", ["raw_bands", "distinct_beta"])
def test_stretches_outside_the_recipe_go_to_inertia(morse, copy):
    # a raw-band operator carries no coefficients, so every stretch is
    # decided by inertia; a blend equal in value to gamma = 1's but not the
    # same object is not known to be the same blend, so every stretch past
    # gamma = 1 is.  Either way the sweep gives the pencil sweep's answer
    cfg = ChainConfig(M=64, N=2)
    beta = cubic_beta(cfg, 4)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    def build_copy(gamma):
        if copy == "raw_bands":
            return BandedPeriodicOperator(cfg, build(gamma).bands.copy())
        return assemble_linear("bqcf", morse, cfg, beta.copy(), gamma)

    want_records, records = [], []
    want = critical_strain(build, 1e-3, 1.3, coarse=1e-2, report_sink=want_records.append)
    assert "pencil" in {r.path for r in want_records}
    assert critical_strain(build_copy, 1e-3, 1.3, coarse=1e-2, report_sink=records.append) == want
    assert records[0].path == ("inertia" if copy == "raw_bands" else "pencil")
    assert {r.path for r in records[1:]} == {"inertia"}


def test_reference_sweep_builds_one_band_array(morse, monkeypatch):
    # the sweep-ref pass: gamma = 1 (nu, which decides it, and nu's count)
    # is the only stretch whose bands are built, and it makes 3 factorizations
    cfg = ChainConfig(M=2000, N=2)
    beta = cubic_beta(cfg, 5)
    built, factorizations, records = [], [], []
    recipe_bands = operators._recipe_bands
    monkeypatch.setattr(
        operators, "_recipe_bands", lambda *a: built.append(1) or recipe_bands(*a)
    )
    splu = stability.splu
    monkeypatch.setattr(stability, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    g = critical_strain(build, 1e-5, 1.5, coarse=1e-3, report_sink=records.append)
    assert g == 1.0 + 19085 * 1e-5
    assert (len(built), len(records)) == (1, 199)
    assert len(factorizations) <= 3


def test_n3_sweep_takes_the_eigencurve_n4_does_not(morse):
    # the eigencurve decides every N = 3 stretch of these sweeps, gamma = 1
    # included, and no N = 4 stretch
    for N in (3, 4):
        cfg = ChainConfig(M=32, N=N)
        for beta, first in ((cubic_beta(cfg, 3), "inertia"), (beta_one(cfg), "circulant")):
            records = []

            def build(gamma):
                return assemble_linear("bqcf", morse, cfg, beta, gamma)

            critical_strain(build, 1e-3, 1.3, coarse=1e-2, report_sink=records.append)
            assert {r.path for r in records} == ({"pencil"} if N == 3 else {first})


@pytest.mark.parametrize(
    "N, nu_error",
    [pytest.param(2, e, id=str(e)) for e in (5.0, -5.0, 1e3, "raise")]
    + [pytest.param(3, e, id=f"n3-{e}") for e in (2.0, "raise")],
)
def test_pencil_failure_falls_back_to_inertia(morse, monkeypatch, N, nu_error):
    # N = 2: nu's reported c_min is off by +-5 or 1e3; N = 3: the sample at
    # t = 0 is off by 2.  The eigencurve reads each sample off its mode, so
    # the answer does not depend on the reported value.  A sample that does
    # not converge ends the eigencurve, and inertia decides every later
    # stretch.  Either way each stretch is evaluated once, with the dense
    # answer.
    cfg = ChainConfig(M=64, N=N)
    beta = cubic_beta(cfg, 4)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    want, evaluated = dense_critical_strain(build, 1e-3, 1.3, 1e-2)
    exact = stability.coercivity_constant

    def wrong_nu(op, **kwargs):
        if N == 3 and op.recipe.coefficients != (0.0, -1.0, 0.0):
            return exact(op, **kwargs)
        if nu_error == "raise":
            raise EigenSolveError("forced")
        rep = exact(op, **kwargs)
        rep.c_min += nu_error
        return rep

    monkeypatch.setattr(stability, "coercivity_constant", wrong_nu)
    records = []
    with warnings.catch_warnings(record=True):  # a wrong sample can also read as a rising c_min
        warnings.simplefilter("always")
        g = critical_strain(build, 1e-3, 1.3, coarse=1e-2, report_sink=records.append)
    assert g == want
    gammas = [r.gamma for r in records]
    assert len(set(gammas)) == len(gammas)
    assert not any(r.path.startswith("rerun-") for r in records)
    if nu_error == "raise":  # N = 3 decides gamma = 1 by nu, then fails at t = 0
        assert records[0].path == ("inertia" if N == 2 else "pencil")
        assert {r.path for r in records[1:]} == {"inertia"}
    else:
        assert "pencil" in {r.path for r in records}


@pytest.mark.parametrize("N", [2, 3])
def test_wrong_sample_mode_is_rejected_by_its_count(morse, monkeypatch, N):
    # the solver returns a higher Fourier mode in place of the lowest one:
    # for N = 2 at nu, for N = 3 at the sample t = 0.  Its quotient lies far
    # above c_min, so the count at its lower end finds eigenvalues below
    # it, the eigencurve ends, and inertia decides every later stretch (for
    # N = 3, every stretch but gamma = 1, which nu decides)
    cfg = ChainConfig(M=64, N=N)
    beta = cubic_beta(cfg, 4)
    wrong = np.cos(7.0 * np.pi * cfg.positions())
    wrong -= wrong.mean()
    wrong /= np.sqrt(wrong @ dense_gram(cfg) @ wrong)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    want, evaluated = dense_critical_strain(build, 1e-3, 1.3, 1e-2)
    exact = stability.coercivity_constant
    taken = []

    def wrong_mode(op, **kwargs):
        rep = exact(op, **kwargs)
        if N == 2 or op.recipe.coefficients == (0.0, -1.0, 0.0):
            taken.append(op.recipe.coefficients)
            rep.mode = wrong.copy()
        return rep

    monkeypatch.setattr(stability, "coercivity_constant", wrong_mode)
    records = []
    g = critical_strain(build, 1e-3, 1.3, coarse=1e-2, report_sink=records.append)
    assert len(taken) == 1
    assert g == want
    assert [r.gamma for r in records] == list(evaluated)
    assert records[0].path == ("inertia" if N == 2 else "pencil")
    assert {r.path for r in records[1:]} == {"inertia"}


def test_atomistic_sweep_takes_the_pencil_without_factorizing(morse, monkeypatch):
    # the atomistic nu is the least Fourier mode's quotient at gamma = 1 and
    # skips its count, so the sweep factors nothing while nu decides every
    # stretch; deciding each by the Fourier route instead gives the same
    # answer
    cfg = ChainConfig(M=2000, N=2)
    beta = beta_one(cfg)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    factorizations = []
    splu = stability.splu
    monkeypatch.setattr(stability, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    records = []
    g = critical_strain(build, 1e-5, 1.5, coarse=1e-3, report_sink=records.append)
    assert {r.path for r in records} == {"pencil"}
    assert factorizations == []
    monkeypatch.setattr(stability._Eigencurve, "record", lambda self, op, gamma: None)
    records = []
    assert critical_strain(build, 1e-5, 1.5, coarse=1e-3, report_sink=records.append) == g
    assert {r.path for r in records} == {"circulant"}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("which, make_beta", [("atomistic", beta_one), ("continuum", beta_zero)])
def test_pure_kind_sweep_takes_the_fourier_route(morse, stability_lu, which, make_beta, N):
    # assemble_linear(which) reads a fresh constant blend at each call, so
    # the eigencurve qualifies no stretch past gamma = 1, and stability_at
    # decides each by its least Fourier mode: the answer of the sweep over
    # one constant blend, and no factorization
    cfg = ChainConfig(M=500, N=N)
    beta = make_beta(cfg)
    records = []
    g = critical_strain(
        lambda gamma: assemble_linear(which, morse, cfg, gamma=gamma),
        1e-5, 1.5, coarse=1e-3, report_sink=records.append,
    )
    assert stability_lu.factorizations == 0
    assert records[0].path == "pencil" and {r.path for r in records[1:]} == {"circulant"}
    assert g == critical_strain(lambda gamma: assemble_linear("bqcf", morse, cfg, beta, gamma))


# ------------------------------------------------------- inertia predicate


def test_inertia_count_matches_dense_oracle(morse):
    rng = np.random.default_rng(20240)
    cases = 0
    for N in (1, 2, 3):
        cfg = ChainConfig(M=64, N=N)
        for make_profile in (symmetric_profile, one_sided_profile):
            for family in ("linear", "cubic", "quintic"):
                for L in (1, 4, 10):
                    beta = sample_beta(make_profile(cfg, family, L), cfg)
                    gamma = float(rng.uniform(1.0, 1.3))
                    op = assemble_linear("bqcf", morse, cfg, beta, gamma)
                    rec = stability_at(op, gamma)
                    assert rec.stable == (coercivity_constant(op).c_min > 0.0)
                    if rec.path == "circulant":  # N = 1 blends can be exactly constant
                        continue
                    assert rec.path == "inertia"
                    assert rec.neg_count == dense_negative_count(op), (N, family, L, gamma)
                    assert rec.stable == (rec.neg_count == 0)
                    cases += 1
    assert cases >= 36


@pytest.mark.parametrize("leading", [0.0, 1e-4, 1e-300])
def test_inertia_falls_back_on_untrusted_pivots(morse, leading):
    # against diagonal entries ~3.6e5: a zero leading entry makes SuperLU
    # pivot, 1e-4 leaves a chain pivot below n * eps * max|d|, and 1e-300
    # overflows the next pivot into an exactly singular factor.  Each
    # time the sliced solver decides.
    cfg = ChainConfig(M=64, N=2)
    for gamma in (1.0, 1.25):
        base = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), gamma)
        bands = base.bands.copy()
        bands[cfg.N, 0] = leading
        op = BandedPeriodicOperator(cfg, bands)
        rec = stability_at(op, gamma)
        assert rec.path == "sliced" and rec.neg_count is None
        assert rec.c_min == coercivity_constant(op).c_min
        assert rec.stable == (dense_negative_count(op) == 0)


def test_stability_record_paths(morse):
    cfg = ChainConfig(M=32, N=2)
    rec = stability_at(assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.1), 1.1)
    assert (rec.path, rec.neg_count, rec.stable) == ("circulant", None, True)
    assert rec.c_min > 0
    rec = stability_at(assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 3), 1.1), 1.1)
    assert (rec.path, rec.neg_count, rec.c_min, rec.stable) == ("inertia", 0, None, True)
    with pytest.raises(FrozenInstanceError):
        rec.stable = False


# ---------------------------------------------------- bordered matrices


@pytest.mark.parametrize("make_profile", [symmetric_profile, one_sided_profile])
@pytest.mark.parametrize("family", ["linear", "cubic", "quintic"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_bordered_matrix_matches_dense(morse, N, family, make_profile, monkeypatch):
    # the K(sigma) _shifted_ldl factors, refilled on the cached pattern,
    # against K built densely from the diagonals, a (A + A^T) / 2 and a
    # second-difference G
    cfg = ChainConfig(M=64, N=N)
    beta = sample_beta(make_profile(cfg, family, 5), cfg)
    G = dense_gram(cfg)
    seeded = float(np.random.default_rng(N).uniform(-200.0, 200.0))
    factored, splu = [], stability.splu
    monkeypatch.setattr(stability, "splu", lambda K, **kw: factored.append(K) or splu(K, **kw))
    for gamma in (1.0, 1.1, 1.2):
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        for sigma in (0.0, seeded):
            _shifted_ldl(op, sigma)
            K = factored.pop()
            assert K.format == "csc" and K.nnz == (2 * N + 3) * cfg.n_atoms
            np.testing.assert_array_equal(K.toarray(), dense_bordered(dense_sym(op) - sigma * G))
        # the deform solve's K carries A itself
        K = bordered_matrix(op.bands).toarray()
        np.testing.assert_array_equal(K, dense_bordered(dense_matrix(op)))


# ------------------------------------------------------ sliced c_min solver


def count_below(op, sigma):
    """Pencil eigenvalues below sigma on mean-zero fields, by inertia."""
    factored = _shifted_ldl(op, sigma)
    assert factored is not None, sigma
    return factored[1]


@pytest.mark.parametrize("gamma", [1.0, 1.07, 1.14, 1.21])
@pytest.mark.parametrize("L", [1, 4, 10])
@pytest.mark.parametrize("family", ["linear", "cubic", "quintic"])
def test_sliced_matches_dense_oracle(morse, family, L, gamma):
    cfg = ChainConfig(M=64, N=2)
    beta = sample_beta(symmetric_profile(cfg, family, L), cfg)
    op = assemble_linear("bqcf", morse, cfg, beta, gamma)
    rep = coercivity_constant(op, gamma=gamma)
    c = dense_cmin(op)
    assert rep.path == "sliced"
    assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0)
    assert rep.residual <= 1e-8 * (abs(rep.c_min) + 1.0)


@pytest.mark.parametrize("gamma", [1.0, 1.07, 1.14, 1.21])
@pytest.mark.parametrize("L", [1, 4, 10])
@pytest.mark.parametrize("family", ["linear", "cubic", "quintic"])
@pytest.mark.parametrize("layout, N", [("one_sided", 2), ("symmetric", 3)])
def test_sliced_matches_dense_oracle_other_spectra(morse, layout, N, family, L, gamma):
    # the symmetric N = 2 layout above has a near-degenerate bottom pair (the
    # two mirror interface modes); the one-sided layout has a single
    # interface, and N = 3 adds a third neighbour
    cfg = ChainConfig(M=64, N=N)
    make_profile = one_sided_profile if layout == "one_sided" else symmetric_profile
    op = assemble_linear("bqcf", morse, cfg, sample_beta(make_profile(cfg, family, L), cfg), gamma)
    rep = coercivity_constant(op, gamma=gamma)
    c = dense_cmin(op)
    assert rep.path == "sliced"
    assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0)
    assert rep.residual <= 1e-8 * (abs(rep.c_min) + 1.0)


def test_sliced_oracle_sweep_reaches_negative_cmin(morse):
    # the M = 64 sweep above is only worth its name if some cases have lost
    # coercivity (cubic L = 4 turns unstable between gamma = 1.14 and 1.21)
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 4), 1.21)
    assert coercivity_constant(op).c_min < 0.0


@pytest.mark.parametrize("leading", [0.0, 1e-4, 1e-300])
def test_sliced_matches_dense_on_untrusted_pivots(morse, leading):
    # the operators whose pivots at sigma = 0 cannot be trusted: c_min = -901
    # at gamma = 1 lies far below the form-bound shift, which inertia widens
    cfg = ChainConfig(M=64, N=2)
    for gamma in (1.0, 1.25):
        base = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), gamma)
        bands = base.bands.copy()
        bands[cfg.N, 0] = leading
        op = BandedPeriodicOperator(cfg, bands)
        rep = coercivity_constant(op)
        c = dense_cmin(op)
        assert rep.c_min < 0.0
        assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0)


@pytest.mark.parametrize("M", [64, 500, 1000, 2000, 4000])
def test_sliced_factorization_counts(morse, stability_lu, M):
    # the scaling ladder's budget (cubic, L = ceil(M^(1/3))): one far shift,
    # then one a tenth of a residual below the quotient, with Lanczos on each
    (rep,) = scaling_study("cubic", "M^(1/3)", [M], morse, 2)
    assert rep.path == "sliced"
    assert rep.factorizations == stability_lu.factorizations <= 2
    assert rep.iterations == stability_lu.solves <= 30
    cfg = ChainConfig(M=M, N=2)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.0))
    assert (rep.path, rep.factorizations, rep.iterations) == ("circulant", 0, 0)


def test_ladder_rung_runs_lanczos_on_a_count_one_factor(morse, stability_lu):
    # the second shift of the M = 64 rung lands just above c_min: its factor
    # counts one eigenvalue below it, and the solve finishes on it
    (rep,) = scaling_study("cubic", "M^(1/3)", [64], morse, 2)
    assert stability_lu.counts == [0, 1]
    assert rep.iterations > _LANCZOS_STEPS  # more than the first factor's run


def test_sliced_matches_dense_oracle_across_counts(morse, stability_lu):
    # cubic blends at M = 64 whose second factors count 0, 1 (Lanczos on
    # both sides of c_min) or 2 (c_min is not T's least eigenvalue there, so
    # that factor must bisect)
    cases = itertools.product(
        (2, 3), (symmetric_profile, one_sided_profile), (4, 7), (1.0, 1.1, 1.19)
    )
    for N, make_profile, L, gamma in cases:
        cfg = ChainConfig(M=64, N=N)
        beta = sample_beta(make_profile(cfg, "cubic", L), cfg)
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        rep = coercivity_constant(op, gamma=gamma)
        c = dense_cmin(op)
        assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0), (N, make_profile, L, gamma)
    assert {0, 1, 2} <= set(stability_lu.counts)


def test_sliced_returns_no_mode_above_a_counted_shift(morse, monkeypatch):
    # with T's negative Ritz values dropped, a count-1 factor follows the
    # largest, and the next (count-0) factor converges to the second mode,
    # whose quotient lies above the count-1 shift that proved c_min below it
    eigh_tridiagonal = stability.eigh_tridiagonal

    def nonnegative_ritz(d, e):
        theta, s = eigh_tridiagonal(d, e)
        return theta[theta >= 0.0], s[:, theta >= 0.0]

    monkeypatch.setattr(stability, "eigh_tridiagonal", nonnegative_ritz)
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 4), 1.1)
    rep = coercivity_constant(op)
    c = dense_cmin(op)
    assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0)


def test_non_finite_solve_raises(morse, stability_lu):
    # a NaN from a trusted factor is a numerical failure, and must not reach
    # the Ritz problem, whose LinAlgError would read as a bad configuration
    stability_lu.corrupt = lambda x: np.full_like(x, np.nan)
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), 1.0)
    with pytest.raises(EigenSolveError, match="non-finite"):
        coercivity_constant(op)
    assert stability_lu.solves == 1


# c_min of the scaling ladder at gamma = 1 (cubic, L = ceil(M^(1/3)), N = 2),
# as computed by the shift-invert Lanczos solver this one replaced
LADDER_CMIN = {
    500: 43.86414699577427,
    1000: 43.85406199320653,
    2000: 43.89234577880873,
    4000: 43.899567612957966,
}


def test_scaling_ladder_pinned_and_certified(morse):
    reports = scaling_study("cubic", "M^(1/3)", list(LADDER_CMIN), morse, 2)
    for rep in reports:
        c = rep.c_min
        tol = 1e-10 * (abs(c) + 1.0)
        assert abs(c - LADDER_CMIN[rep.M]) <= tol, rep.M
        # certified by inertia: nothing below c_min, the mode just above it
        cfg = ChainConfig(M=rep.M, N=2)
        op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, rep.L), 1.0)
        gap = 1e-8 * (abs(c) + 1.0)
        assert count_below(op, c - gap) == 0
        assert count_below(op, c + gap) >= 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_operator_raises(morse, bad):
    # raw bands are checked when the operator is made, before any solver runs
    cfg = ChainConfig(M=64, N=2)
    base = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), 1.0)
    bands = base.bands.copy()
    bands[cfg.N, 3] = bad
    with pytest.raises(FloatingPointError, match="NaN or infinity"):
        BandedPeriodicOperator(cfg, bands)


def test_non_finite_blend_raises_when_bands_are_made(morse, stability_lu):
    # a recipe's bands are checked when they are built, before any factorization
    cfg = ChainConfig(M=64, N=2)
    beta = cubic_beta(cfg, 5)
    beta[3] = float("nan")
    op = assemble_linear("bqcf", morse, cfg, beta, 1.0)
    with pytest.raises(FloatingPointError, match="NaN or infinity"):
        coercivity_constant(op)
    with pytest.raises(FloatingPointError, match="NaN or infinity"):
        stability_at(op)
    assert stability_lu.factorizations == 0


# ------------------------------------------------------------ decomposition


def test_decomposition_closes(morse):
    """T1 + T2 + W equals <F_2 u, u> to roundoff for every blend, layout,
    chain size and stretch, constant blends included."""
    checked = 0
    for M in (16, 64, 500):
        cfg = ChainConfig(M=M, N=2)
        u = np.random.default_rng(M).standard_normal(cfg.n_atoms)
        betas = [beta_one(cfg), beta_zero(cfg)]
        for make_profile in (symmetric_profile, one_sided_profile):
            for family in ("linear", "cubic", "quintic"):
                for L in (1, 3, 5, 10):
                    if make_profile is symmetric_profile and M // 2 + L > M:
                        continue  # the layout does not fit the chain
                    betas.append(sample_beta(make_profile(cfg, family, L), cfg))
        for beta in betas:
            for gamma in (1.0, 1.15):
                rep = decompose_bilinear_n2(u, beta, morse, cfg, gamma)
                assert rep.identity_residual <= 1e-10, (M, gamma, rep)
                assert rep.via_identity == rep.T1 + rep.T2 + rep.W
                checked += 1
    # 3 chains x 26 blends, less the 3 layouts that do not fit, at 2 stretches
    assert checked == 150


# ------------------------------------------------------------------ scaling


def test_scaling_study_constant_one_equals_atomistic(morse):
    reports = scaling_study("constant_one", "M^(1/3)", [32, 64], morse, 2)
    for rep in reports:
        cfg = ChainConfig(M=rep.M, N=2)
        direct = coercivity_constant(
            assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.0)
        )
        assert rep.c_min == pytest.approx(direct.c_min, rel=1e-12)


def test_scaling_study_small_grid_positive(morse):
    reports = scaling_study("cubic", "M^(1/3)", [64, 128], morse, 2)
    assert [r.M for r in reports] == [64, 128]
    for rep in reports:
        assert rep.c_min > 0
        assert rep.L == int(np.ceil(rep.M ** (1 / 3)))


def test_scaling_study_takes_a_generator(morse):
    reports = scaling_study("cubic", "M^(1/3)", (M for M in (64, 128)), morse, 2)
    assert [r.M for r in reports] == [64, 128]
    with pytest.raises(ValueError, match="sorted"):
        scaling_study("cubic", "M^(1/3)", (M for M in (128, 64)), morse, 2)


def test_blend_size_rule_is_exact_on_perfect_powers():
    # the float root of a perfect power can land just above it (3125 ** 0.2
    # is 5.000000000000001): L is the least integer with L^p >= M
    for rule, p, top in (("M^(1/3)", 3, 200), ("M^(1/5)", 5, 40)):
        for L in range(1, top + 1):
            assert blend_size_for_rule(rule, L**p) == L
            assert blend_size_for_rule(rule, L**p + 1) == L + 1
            if L > 1:
                assert blend_size_for_rule(rule, L**p - 1) == L


def test_scaling_study_validation(morse):
    with pytest.raises(ValueError):
        scaling_study("cubic", "M^(1/3)", [128, 64], morse, 2)
    with pytest.raises(ValueError):
        scaling_study("cubic", "M^(1/7)", [64], morse, 2)
    with pytest.raises(ValueError):
        scaling_study("cubic", "fixed", [64], morse, 2)
