import copy
import itertools
import warnings
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from oracles import (
    apply_fresh,
    bilinear,
    decompose_bilinear_n2,
    dense_bordered,
    dense_cmin,
    dense_critical_strain,
    dense_eigenvalues,
    dense_gram,
    dense_matrix,
    dense_negative_count,
    dense_sym,
    gram_extended,
    l2_norm,
    reference_sweep,
    stability_constant,
)

from bqcf import cli, experiments, operators, stability
from bqcf.blending import constant_profile, one_sided_profile, sample_beta, symmetric_profile
from bqcf.lattice import ChainConfig, forward_diff
from bqcf.operators import BandedPeriodicOperator, OperatorRecipe, assemble_linear
from bqcf.potential import MorseParams
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
    # mode's quotient is phi''(gamma); a Fourier symbol's ratio of small
    # terms near theta = 0 is off by 4.7e-10 relative at M = 8000
    cfg = ChainConfig(M=M, N=1)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, make_beta(cfg), gamma))
    assert rep.path == "sliced"
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
    # cell's upper end lies wholly above the midpoint's.  N = 4: the builder
    # passes raw bands, which carry no recipe, so inertia decides every
    # stretch, and the negative-eigenvalue count falls from the midpoint to
    # the upper end.
    cfg = ChainConfig(M=32, N=N)
    beta = cubic_beta(cfg, 3)
    records = []

    def build_bump(gamma):
        op = assemble_linear("bqcf", morse, cfg, beta, stretch_bump(gamma))
        return op if N == 3 else BandedPeriodicOperator(cfg, op.bands)

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
    stub_config = ChainConfig(M=5, N=4)
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
            # recipe None, as for raw bands: no eigencurve
            record = decide(round((gamma - 1.0) / dgamma))
            return SimpleNamespace(config=stub_config, recipe=None, record=record)

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
    pencil_records = {2: 0, 3: 0, 4: 0, 5: 0}
    for N, L in itertools.product(pencil_records, (1, 4, 10)):
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
    assert min(pencil_records.values()) >= 36, pencil_records


@pytest.mark.parametrize("M", [16, 64])
@pytest.mark.parametrize("which", ["bqcf", "atomistic", "continuum"])
def test_pencil_affine_identity(morse, which, M):
    # the identity the eigencurve reads off each stretch's coefficients:
    # with c_k = phi''(k gamma) and t = (c_3, ..., c_N) / |c_2|,
    # A(gamma) = c_1 G/a + |c_2| A(0, -1, t), A(c) being the same recipe
    # with coefficients c
    for N in (2, 3, 5):
        cfg = ChainConfig(M=M, N=N)
        # G/a is the constant blend's k = 1 stencil, exact for w = 1
        unit_k1 = OperatorRecipe(beta_one(cfg), (1.0,) + (0.0,) * (N - 1))
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
                unit = replace(op.recipe, coefficients=(0.0, -1.0, *(c / abs(c2) for c in c3)))
                g_op = BandedPeriodicOperator(cfg, recipe=unit)
                err = np.max(np.abs(op.bands - (c1 * gram + abs(c2) * g_op.bands)))
                assert err <= 1e-13 * np.max(np.abs(op.bands)), (which, N, gamma)


@pytest.mark.parametrize("copy", ["raw_bands", "distinct_beta"])
def test_stretches_outside_the_recipe_go_to_inertia(morse, copy):
    # a raw-band operator carries no coefficients, so every stretch is
    # decided by inertia; a blend one ulp away from gamma = 1's at one site
    # is not the same blend, so every stretch past gamma = 1 is.  Either
    # way the sweep gives the pencil sweep's answer
    cfg = ChainConfig(M=64, N=2)
    beta = cubic_beta(cfg, 4)
    nudged = beta.copy()
    nudged[cfg.M] = np.nextafter(nudged[cfg.M], 0.0)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    def build_copy(gamma):
        if copy == "raw_bands":
            return BandedPeriodicOperator(cfg, build(gamma).bands.copy())
        return assemble_linear("bqcf", morse, cfg, beta if gamma == 1.0 else nudged, gamma)

    want_records, records = [], []
    want = critical_strain(build, 1e-3, 1.3, coarse=1e-2, report_sink=want_records.append)
    assert "pencil" in {r.path for r in want_records}
    assert critical_strain(build_copy, 1e-3, 1.3, coarse=1e-2, report_sink=records.append) == want
    assert records[0].path == ("inertia" if copy == "raw_bands" else "pencil")
    assert {r.path for r in records[1:]} == {"inertia"}


def test_equal_blend_copies_take_the_eigencurve(morse, stability_lu):
    # a fresh copy of the blend at each stretch is the same blend by value,
    # so the eigencurve decides every stretch as it does for one object,
    # with the same factorizations and the same answer
    cfg = ChainConfig(M=64, N=2)
    beta = cubic_beta(cfg, 4)
    runs = []
    for blend in (lambda: beta, beta.copy):
        stability_lu.factorizations, records = 0, []
        g = critical_strain(
            lambda gamma: assemble_linear("bqcf", morse, cfg, blend(), gamma),
            1e-3, 1.3, coarse=1e-2, report_sink=records.append,
        )
        runs.append((g, stability_lu.factorizations, [(r.gamma, r.path) for r in records]))
    assert runs[0] == runs[1]
    assert {path for _, path in runs[1][2]} == {"pencil"}


def test_reference_sweep_builds_one_band_array(morse, monkeypatch):
    # the sweep-ref pass: gamma = 1 (nu, which decides it, and nu's count)
    # is the only stretch whose bands are built, and it makes 2 factorizations
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
    assert len(factorizations) <= 2


def test_every_n_sweep_takes_the_eigencurve(morse):
    # the eigencurve decides every stretch of these sweeps, gamma = 1
    # included, whatever N
    for N in (2, 3, 4, 5):
        cfg = ChainConfig(M=32, N=N)
        for beta in (cubic_beta(cfg, 3), beta_one(cfg)):
            records = []

            def build(gamma):
                return assemble_linear("bqcf", morse, cfg, beta, gamma)

            critical_strain(build, 1e-3, 1.3, coarse=1e-2, report_sink=records.append)
            assert {r.path for r in records} == {"pencil"}, (N, beta[0])


def test_long_range_sweep_folds_its_tail(morse, monkeypatch):
    # N = 60 at M = 300: t_j = c_(j+2) / |c_2| falls like e^(-3j), so all
    # but about a dozen coordinates are folded.  The sweep takes at most
    # 20 samples, none on the full range, and gives the answer of the sweep
    # that decided every stretch by inertia
    cfg = ChainConfig(M=300, N=60)
    beta = cubic_beta(cfg, 5)
    ranges, records = [], []
    add = stability._Eigencurve._add
    monkeypatch.setattr(
        stability._Eigencurve, "_add", lambda self, op: ranges.append(op.config.N) or add(self, op)
    )
    g = critical_strain(
        lambda gamma: assemble_linear("bqcf", morse, cfg, beta, gamma), report_sink=records.append
    )
    assert g == 1.0 + 19235 * 1e-5
    assert {r.path for r in records} == {"pencil"}
    assert len(ranges) <= 20 and max(ranges) < cfg.N, ranges


def fresh_record(record, curve, op, gamma):
    """record(fresh, op, gamma) for a fresh eigencurve handed curve's samples
    and simplices, which keeps no bounds; it must decide without a sample of
    its own."""
    fresh = stability._Eigencurve(op)
    fresh.recipe = curve.recipe
    for name in ("samples", "points", "roots", "kept", "folded"):
        setattr(fresh, name, copy.deepcopy(getattr(curve, name)))
    rec = record(fresh, op, gamma)
    assert len(fresh.samples) == len(curve.samples)
    return rec


@pytest.mark.parametrize(
    "M, N, alpha", [(64, 2, 3.0), (64, 3, 3.0), (64, 4, 3.0), (32, 3, 30.0), (32, 10, 100.0)]
)
def test_kept_bounds_match_a_fresh_eigencurve(monkeypatch, M, N, alpha):
    # a record keeps h's bounds at the last u until its samples or simplices
    # change; every record of a table's sweeps equals a fresh eigencurve's
    # for that stretch, the stretches right after a sample (nu's, a Kuhn
    # vertex's or a split's) among them.  alpha = 30 and 100 fold every
    # coordinate, so every stretch is at u = () and widens the kept bounds
    # by its own eps
    record = stability._Eigencurve.record
    seen = {"records": 0, "after_add": 0, "splits": 0, "folded": 0, "added": False}

    def checked(curve, op, gamma):
        before, simplices = len(curve.samples), len(curve.roots)
        rec = record(curve, op, gamma)
        added = len(curve.samples) > before
        if rec is not None and rec.path == "pencil":
            assert fresh_record(record, curve, op, gamma) == rec, (N, gamma)
            seen["records"] += 1
            seen["after_add"] += added or seen["added"]
            seen["splits"] += added and simplices == len(curve.roots) > 0
            seen["folded"] += bool(curve.folded)
        seen["added"] = added
        return rec

    monkeypatch.setattr(stability._Eigencurve, "record", checked)
    experiments.run_critical_strain_table(
        M=M, N=N, potential=MorseParams(alpha=alpha), dgamma=1e-4, coarse=1e-2
    )
    assert seen["records"] >= 200 and seen["after_add"] >= 50, seen
    assert (seen["splits"] > 0) == (N > 2 and alpha == 3.0), seen
    assert (seen["folded"] > 0) == (alpha > 3.0), seen


def test_each_stretch_widens_the_kept_bounds_by_its_own_eps():
    # a Morse chain's folded tail is too small to move a bracket's bits, so
    # these recipes fold c_3 = 1e-13 |c_2| with c_1 and |c_2| alike: eps,
    # about 4e-10, shows in the bits of each bracket, and every stretch
    # after the first reuses the bounds kept at u = () with its own eps
    cfg = ChainConfig(M=32, N=3)
    beta = cubic_beta(cfg, 3)

    def op(c1, c3):
        return BandedPeriodicOperator(cfg, recipe=OperatorRecipe(beta, (c1, -1.0, c3)))

    curve = stability._Eigencurve(op(60.0, -1e-13))
    assert curve.record(op(60.0, -1e-13), 1.0).path == "pencil" and curve.kept == []
    for c1, c3 in ((50.0, -5e-14), (40.0, -2e-13), (20.0, -1e-14), (10.0, -1e-13)):
        rec = curve.record(op(c1, c3), 1.1)
        assert rec == fresh_record(stability._Eigencurve.record, curve, op(c1, c3), 1.1)
        assert len(curve.samples) == 1


@pytest.mark.parametrize("M", [8, 16])
def test_fold_bound_tops_every_unit_quotient(morse, M):
    # rho_j, read off the recipe, bounds |a <A(e_j) v, v>| over G-normalized
    # mean-zero v: no eigenvalue of the dense pencil of A(e_j) lies beyond
    # it, for blends in [0, 1] and beyond
    N = M - 1
    cfg = ChainConfig(M=M, N=N)
    rng = np.random.default_rng(M)
    blends = [cubic_beta(cfg, 2), beta_one(cfg), beta_zero(cfg), rng.uniform(-0.5, 1.5, cfg.n_atoms)]
    for beta in blends:
        op = assemble_linear("bqcf", morse, cfg, beta, 1.0)
        curve = stability._Eigencurve(op)
        curve._frame((0.0,) * (N - 2))  # of no effect, so every coordinate is folded
        assert [j for j, _ in curve.folded] == list(range(N - 2))
        for j, rho in curve.folded:
            unit = replace(op.recipe, coefficients=tuple(float(k == j + 2) for k in range(N)))
            eigenvalues = dense_eigenvalues(BandedPeriodicOperator(cfg, recipe=unit))
            assert np.max(np.abs(eigenvalues)) <= rho, (j, beta[0])


@pytest.mark.parametrize(
    "N, nu_error",
    [pytest.param(2, e, id=str(e)) for e in (5.0, -5.0, 1e3, "raise")]
    + [pytest.param(N, e, id=f"n{N}-{e}") for N in (3, 4) for e in (2.0, "raise")],
)
def test_pencil_failure_falls_back_to_inertia(morse, monkeypatch, N, nu_error):
    # N = 2: nu's reported c_min is off by +-5 or 1e3; N = 3 and 4: the
    # sample at t = 0 is off by 2.  The eigencurve reads each sample off its mode, so
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
        if N > 2 and op.recipe.coefficients != (0.0, -1.0) + (0.0,) * (N - 2):
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
    assert {r.path for r in records} <= {"pencil", "inertia"}
    if nu_error == "raise":  # N > 2 decides gamma = 1 by nu, then fails at t = 0
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
    # the atomistic nu takes one factorization for its solve, the longest
    # waves being its mode, and one for the count that proves its lower
    # end; nu then decides every stretch, which factors nothing more.
    # Deciding each stretch by inertia instead gives the same answer
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
    assert len(factorizations) == 2
    monkeypatch.setattr(stability._Eigencurve, "record", lambda self, op, gamma: None)
    records = []
    assert critical_strain(build, 1e-5, 1.5, coarse=1e-3, report_sink=records.append) == g
    assert {r.path for r in records} == {"inertia"}


@pytest.mark.parametrize("make_profile", [symmetric_profile, one_sided_profile])
def test_n1_sweep_is_decided_by_c1_alone(morse, stability_lu, make_profile):
    # an N = 1 stretch is c_1 G/a whatever the blend, so c_min = c_1 decides
    # every stretch, above and below c_1 = 0, with no factorization, each
    # bracket holding the dense c_min, and the sweep gives the dense answer,
    # exactly constant blends included
    cfg = ChainConfig(M=64, N=1)
    blends = [sample_beta(make_profile(cfg, f, L), cfg) for f, L in (("linear", 1), ("cubic", 4))]
    for beta in (*blends, beta_one(cfg), beta_zero(cfg)):
        ops, records = {}, []

        def build(gamma):
            ops[gamma] = assemble_linear("bqcf", morse, cfg, beta, gamma)
            return ops[gamma]

        before = stability_lu.factorizations
        g = critical_strain(build, 1e-3, 1.3, coarse=2e-2, report_sink=records.append)
        want, evaluated = dense_critical_strain(ops.__getitem__, 1e-3, 1.3, 2e-2)
        assert g == want and [r.gamma for r in records] == list(evaluated)
        assert stability_lu.factorizations - before == 0
        assert {r.path for r in records} == {"pencil"}
        assert {r.stable for r in records} == {True, False}
        for rec in records:
            c = evaluated[rec.gamma][0]
            tol = 1e-8 * (abs(c) + 1.0)
            lo, hi = rec.bracket
            assert lo - tol <= c <= hi + tol and rec.c_min == hi, rec.gamma
            assert rec.stable == (c > 0.0)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("which, make_beta", [("atomistic", beta_one), ("continuum", beta_zero)])
def test_pure_kind_sweep_is_decided_by_the_eigencurve(morse, stability_lu, which, make_beta, N):
    # assemble_linear(which) reads a fresh constant blend at each call,
    # equal in value to gamma = 1's, so the eigencurve decides every
    # stretch: the answer of the sweep over one constant blend, for one
    # solve and one count per sample (one sample for N = 2, two for N = 3)
    cfg = ChainConfig(M=500, N=N)
    beta = make_beta(cfg)
    records = []
    g = critical_strain(
        lambda gamma: assemble_linear(which, morse, cfg, gamma=gamma),
        1e-5, 1.5, coarse=1e-3, report_sink=records.append,
    )
    assert stability_lu.factorizations == 2 * (N - 1)
    assert {r.path for r in records} == {"pencil"}
    assert g == critical_strain(lambda gamma: assemble_linear("bqcf", morse, cfg, beta, gamma))


# ------------------------------------------------------- inertia predicate


def test_inertia_count_matches_dense_oracle(morse):
    rng = np.random.default_rng(20240)
    paths = []
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
                    paths.append(rec.path)
                    if rec.path == "sliced":  # S 1 = 0 exactly, a zero pivot that SuperLU permutes
                        c = dense_cmin(op)
                        assert abs(rec.c_min - c) <= 1e-10 * (abs(c) + 1.0), (N, family, L)
                        continue
                    assert rec.path == "inertia"
                    assert rec.neg_count == dense_negative_count(op), (N, family, L, gamma)
                    assert rec.stable == (rec.neg_count == 0)
    assert paths.count("inertia") >= 36


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
    op = assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.1)
    rec = stability_at(op, 1.1)
    assert (rec.path, rec.neg_count, rec.c_min, rec.stable) == ("inertia", 0, None, True)
    assert coercivity_constant(op).c_min > 0
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
            dense = dense_bordered(dense_sym(op) - sigma * G)
            # the stability K stores exactly the oracle's nonzeros, and no zero
            assert K.format == "csc" and K.nnz == np.count_nonzero(dense)
            assert np.all(K.data != 0.0)
            np.testing.assert_array_equal(K.toarray(), dense)
        # the deform solve's K carries A itself, on the full cached pattern
        K = bordered_matrix(op.bands)
        assert K.nnz == (2 * N + 3) * cfg.n_atoms
        np.testing.assert_array_equal(K.toarray(), dense_bordered(dense_matrix(op)))


def test_pruned_zero_chain_diagonal_keeps_the_count(morse, monkeypatch):
    # a shift that makes one chain diagonal of K(sigma) exactly 0.0, so the
    # stability K drops it from its structure: each count is the dense one,
    # or None, never another.  At M = 64, sigma = S_pp a / 2 takes S_pp off
    # exactly, 2 / a = 128 being a power of two.  A row whose diagonal no
    # other row shares (the one-sided blend's transition rows) loses that
    # one entry; row 0 takes every atomistic row's, the first pivot among them
    cfg = ChainConfig(M=64, N=2)
    factored, splu = [], stability.splu
    monkeypatch.setattr(stability, "splu", lambda K, **kw: factored.append(K) or splu(K, **kw))
    trusted = 0
    for gamma in (1.0, 1.15):
        beta = sample_beta(one_sided_profile(cfg, "cubic", 5), cfg)
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        diagonal = cfg.a * op.symmetric_part().bands[cfg.N]
        eigenvalues = dense_eigenvalues(op)
        own = [p for p in range(cfg.n_atoms) if np.count_nonzero(diagonal == diagonal[p]) == 1]
        assert len(own) >= 8
        for p in [0, *own]:
            sigma = diagonal[p] * cfg.a / 2.0
            got = _shifted_ldl(op, sigma)
            K = factored.pop()
            assert p not in K.indices[K.indptr[p] : K.indptr[p + 1]]
            if got is not None:
                assert got[1] == np.count_nonzero(eigenvalues < sigma), (gamma, p)
                trusted += p != 0
    assert trusted >= 14


@pytest.mark.parametrize("M", [64, 300])
def test_pruned_counts_bracket_the_ladder_cmin(morse, M):
    # on the ladder's blend (cubic, L = ceil(M^(1/3))), the pruned K's
    # counts just below and just above c_min are the dense pencil's
    cfg = ChainConfig(M=M, N=2)
    beta = cubic_beta(cfg, blend_size_for_rule("M^(1/3)", M))
    for gamma in (1.0, 1.1):
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        eigenvalues = dense_eigenvalues(op)
        c = eigenvalues[0]
        for sigma in (c - 1e-8 * (abs(c) + 1.0), c + 1e-8 * (abs(c) + 1.0)):
            assert count_below(op, sigma) == np.count_nonzero(eigenvalues < sigma)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_kept_invariants_give_the_same_bits(morse, N):
    # the kept row sums and the in-place G v give bit for bit what their
    # plain formulas give, on random fields
    cfg = ChainConfig(M=40, N=N)
    rng = np.random.default_rng(N)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 4), 1.1)
    raw = BandedPeriodicOperator(cfg, rng.standard_normal((2 * N + 1, cfg.n_atoms)))
    for A in (op, op.symmetric_part(), raw):
        for _ in range(3):
            v = rng.standard_normal(cfg.n_atoms)
            np.testing.assert_array_equal(A.apply_values(v), apply_fresh(A, v))
            np.testing.assert_array_equal(stability._gram(v, cfg.a), gram_extended(v, cfg.a))
        with pytest.raises(ValueError, match="read-only"):
            A._sums[0] = 1.0
    for n in (2, 3):  # the shortest periodic fields, whose ends meet
        v = rng.standard_normal(n)
        np.testing.assert_array_equal(stability._gram(v, 0.5), gram_extended(v, 0.5))


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
    # at gamma = 1 lies far below the rest of the spectrum
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


@pytest.mark.parametrize(
    "M, gamma",
    [pytest.param(M, 1.0, id=str(M)) for M in (64, 500, 1000, 2000, 4000, 8000)]
    + [pytest.param(8000, 1.1414584158358552, id="8000-near-critical")],
)
def test_sliced_factorization_counts(morse, stability_lu, M, gamma):
    # the scaling ladder's budget (cubic, L = ceil(M^(1/3))), its near-critical
    # rung included: the estimate places the one shift just below c_min, and
    # Lanczos converges on it
    (rep,) = scaling_study("cubic", "M^(1/3)", [M], morse, 2, gamma=gamma)
    assert rep.path == "sliced"
    assert rep.factorizations == stability_lu.factorizations == 1
    assert rep.iterations == stability_lu.solves <= 12
    cfg = ChainConfig(M=M, N=2)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.0))
    assert (rep.path, rep.factorizations, rep.iterations) == ("sliced", 1, 1)


# c_min of wide blends at gamma = 1 (N = 2), whose long-wave band the blend
# splits by 6e-4 to 0.1, as the solver found it from a far first shift in 4
# to 12 factorizations
CLUSTERED_CMIN = {
    (2000, "cubic", 80): 44.30454857882389,
    (2000, "linear", 80): 44.05137970738788,
    (2000, "linear", 320): 44.25457010467304,
    (8000, "cubic", 80): 44.292563044603696,
    (8000, "cubic", 320): 44.315352142270015,
}


@pytest.mark.parametrize("M, family, L", list(CLUSTERED_CMIN))
def test_sliced_clustered_spectra_factorizations(morse, stability_lu, M, family, L):
    cfg = ChainConfig(M=M, N=2)
    beta = sample_beta(symmetric_profile(cfg, family, L), cfg)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, beta, 1.0))
    c = CLUSTERED_CMIN[M, family, L]
    assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0)
    assert rep.factorizations == stability_lu.factorizations <= 2


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("make_beta", [beta_zero, beta_one])
def test_sliced_matches_circulant_on_constant_blends(morse, stability_lu, make_beta, N):
    # the longest waves are eigenvectors here, so the estimate's Lanczos
    # breaks down (beta_j ~ 0) at its first step, without a warning or a NaN
    cfg = ChainConfig(M=64, N=N)
    op = assemble_linear("bqcf", morse, cfg, make_beta(cfg), 1.0)
    c = dense_cmin(op)
    rep = coercivity_constant(op)
    assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0)
    assert rep.residual <= 1e-10 * (abs(c) + 1.0)
    assert rep.factorizations == stability_lu.factorizations == 1


@pytest.mark.parametrize("M", [500, 2000, 8000])
@pytest.mark.parametrize("gamma", [1.0, 1.19])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("make_beta", [beta_zero, beta_one])
def test_sliced_resolves_constant_blends_at_their_start(morse, stability_lu, make_beta, N, gamma, M):
    # the estimate starts from the longest waves, an exact eigenvector here
    # with its residual already at the eps M^2 floor; a first check that
    # does not halve it is accepted, where a run that goes on divides by a
    # roundoff-sized beta_j, climbs to 1e-4 and fails after 40 factors.
    # The m = 1 Fourier quotient, sum_k phi''(k gamma) sin^2(k theta / 2)
    # / sin^2(theta / 2) at theta = pi / M, is c_min for beta = 1 (and
    # sum_k k^2 phi''(k gamma), every eigenvalue, for beta = 0)
    cfg = ChainConfig(M=M, N=N)
    op = assemble_linear("bqcf", morse, cfg, make_beta(cfg), gamma)
    k = np.arange(1, N + 1)
    phi = morse.phi_xx(k * gamma)
    if make_beta is beta_one:
        half = np.pi / (2.0 * M)
        want = float(phi @ np.sin(k * half) ** 2 / np.sin(half) ** 2)
    else:
        want = float(phi @ k**2)
    rep = coercivity_constant(op)
    assert rep.factorizations == stability_lu.factorizations <= 2
    assert rep.residual <= 1e-8 * (abs(rep.c_min) + 1.0)
    assert abs(rep.c_min - want) <= 1e-12 * abs(want)


def test_atomistic_n2_solve_at_the_constant_blend_floor(morse, stability_lu):
    # beta = 1 at gamma = 1 and M = 16,000: the start's residual sits at its
    # eps M^2 floor, 2.2e-7, which the 1e-8 (|c| + 1) contract, 4.5e-7, still
    # accepts on the first factor; at M = 32,000 the floor passes the contract
    cfg = ChainConfig(M=16000, N=2)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.0))
    assert rep.factorizations == stability_lu.factorizations == 1
    assert rep.residual <= 1e-8 * (abs(rep.c_min) + 1.0)
    half = np.pi / (2.0 * cfg.M)
    k = np.arange(1, 3)
    want = float(morse.phi_xx(k * 1.0) @ np.sin(k * half) ** 2 / np.sin(half) ** 2)
    assert abs(rep.c_min - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("M", [8, 64, 4000])
def test_solve_gram_inverts_gram_on_mean_zero_fields(M):
    # to roundoff: G x - b within a few ulps of the terms G sums, and the
    # solve of G x within the n eps of a running sum
    cfg = ChainConfig(M=M, N=2)
    a, eps = cfg.a, np.finfo(float).eps
    rng = np.random.default_rng(M)
    b, x = (stability._project(rng.standard_normal(cfg.n_atoms)) for _ in range(2))
    solved = stability._solve_gram(b, a)
    assert abs(solved.mean()) <= cfg.n_atoms * eps * np.abs(solved).max()
    residual = np.abs(stability._gram(solved, a) - b).max()
    assert residual <= 10.0 * eps * (4.0 / a) * np.abs(solved).max()
    error = np.abs(stability._solve_gram(stability._gram(x, a), a) - x).max()
    assert error <= 10.0 * cfg.n_atoms * eps * np.abs(x).max()


def g_normalized(v, a):
    """v on mean-zero fields with unit G-norm: a start for _lanczos."""
    v = stability._project(v)
    return v / np.sqrt(v @ stability._gram(v, a))


@pytest.mark.parametrize("M", [16, 32, 64])
def test_lanczos_basis_and_extreme_ritz_value(morse, M):
    # the routine on both of its operators: the estimate's G^-1 P S from the
    # longest waves, and the shift-invert T = (S - sigma G)^-1 G half a unit
    # below c_min (the one-sided blend leaves a clear gap above it) from a
    # random start.  Each basis is G-orthonormal and mean-zero, and T's
    # largest Ritz value gives the dense c_min as sigma + 1 / theta
    cfg = ChainConfig(M=M, N=2)
    n, a = cfg.n_atoms, cfg.a
    beta = sample_beta(one_sided_profile(cfg, "cubic", 4), cfg)
    op = assemble_linear("bqcf", morse, cfg, beta, 1.1)
    c = dense_cmin(op)
    sigma = c - 0.5
    lu, neg = _shifted_ldl(op, sigma)
    assert neg == 0
    sym = op.symmetric_part()
    wave = 2.0 * np.pi * np.arange(n) / n
    runs = {
        "estimate": (
            lambda q, gq: stability._solve_gram(stability._project(a * sym.apply_values(q)), a),
            g_normalized(np.cos(wave) + np.sin(wave), a),
        ),
        "shift-invert": (
            lambda q, gq: lu.solve(np.append(gq, 0.0))[:n],
            g_normalized(np.random.default_rng(M).standard_normal(n), a),
        ),
    }
    G = dense_gram(cfg)
    for name, (apply, start) in runs.items():
        steps = list(stability._lanczos(apply, start, a, _LANCZOS_STEPS))
        assert len(steps) == _LANCZOS_STEPS, name
        alpha, beta, Q = steps[-1]
        np.testing.assert_array_equal(Q[0], start)
        np.testing.assert_allclose(Q @ G @ Q.T, np.eye(_LANCZOS_STEPS), rtol=0, atol=1e-12)
        assert np.abs(Q.sum(axis=1)).max() <= 1e-12, name
    theta = eigh_tridiagonal(alpha, beta[:-1], eigvals_only=True)
    assert abs(sigma + 1.0 / theta[-1] - c) <= 1e-12 * abs(c)


@pytest.mark.parametrize("M", [16, 64])
def test_lanczos_stops_on_an_invariant_space(M):
    # q = (e_0 - e_2) / (2 sqrt(M)) has G-norm 1 exactly, so the image 2 q
    # leaves exactly nothing after orthogonalization: beta = 0 ends the run
    # after its one step
    cfg = ChainConfig(M=M, N=2)
    q = np.zeros(cfg.n_atoms)
    q[0], q[2] = 1.0, -1.0
    q /= 2.0 * np.sqrt(M)
    ((alpha, beta, Q),) = stability._lanczos(lambda q, gq: 2.0 * q, q, cfg.a, 8)
    assert (list(alpha), list(beta)) == ([2.0], [0.0])
    np.testing.assert_array_equal(Q, [q])


@pytest.mark.parametrize("M", [16, 32, 64])
def test_lanczos_stops_at_a_roundoff_breakdown(M):
    # from a random G-normalized start the image 2 q leaves only roundoff
    # after orthogonalization, beta ~ 5e-17 rather than 0 on about half the
    # starts: the run ends after its one step instead of normalizing it
    cfg = ChainConfig(M=M, N=2)
    rng = np.random.default_rng(M)
    for _ in range(15):
        start = g_normalized(rng.standard_normal(cfg.n_atoms), cfg.a)
        ((alpha, beta, Q),) = stability._lanczos(lambda q, gq: 2.0 * q, start, cfg.a, 8)
        assert abs(alpha[0] - 2.0) <= 1e-14 and beta[0] <= 1e-14
        np.testing.assert_array_equal(Q, [start])


def test_lanczos_basis_stays_orthonormal_through_a_breakdown(morse):
    # the estimate's G^-1 P S of a cubic L = 4 blend at M = 32 (gamma = 1.1)
    # from the longest waves spans an invariant space after 50 steps (beta
    # 3e-14, then 3e-15); a run that went on normalized roundoff and lost
    # G-orthogonality entirely by step 57
    cfg = ChainConfig(M=32, N=2)
    n, a = cfg.n_atoms, cfg.a
    sym = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 4), 1.1).symmetric_part()
    wave = 2.0 * np.pi * np.arange(n) / n
    steps = list(
        stability._lanczos(
            lambda q, gq: stability._solve_gram(stability._project(a * sym.apply_values(q)), a),
            g_normalized(np.cos(wave) + np.sin(wave), a),
            a,
            63,
        )
    )
    alpha, beta, Q = steps[-1]
    assert len(steps) < 63
    np.testing.assert_allclose(Q @ dense_gram(cfg) @ Q.T, np.eye(len(alpha)), rtol=0, atol=1e-10)


@pytest.mark.parametrize("M", [16, 64, 300])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_shifted_ldl_panel_matches_superlu_defaults(morse, monkeypatch, N, M):
    # the factor's panel width only sets SuperLU's blocking: on the same
    # pruned K, the default options give the same count, or the same None,
    # at sigma = 0, 40 and next to each of the three least pencil
    # eigenvalues, where the count changes.  The one exception is the
    # roundoff-sized last chain pivot of an operator with S 1 = 0 up to
    # roundoff (a constant blend, or N = 1): one blocking can leave it at
    # exactly 0, which SuperLU permutes (None), the other at 1e-21; the
    # count it then trusts is the dense one.  The solve the shifted Lanczos
    # makes, [G q, 0], agrees in G-norm on mean-zero fields to 1e-10
    # relative plus its condition (|sigma| + 1) / gap times 1e-14: the two
    # differ by ~1e-7 at 1e-9 from an eigenvalue, as two backward-stable
    # solves of a matrix that near singular do
    cfg = ChainConfig(M=M, N=N)
    n, a = cfg.n_atoms, cfg.a
    splu = stability.splu

    def default_panel(*args, panel_size, **kwargs):
        return splu(*args, **kwargs)

    def g_norm(v):
        return np.sqrt(v @ stability._gram(v, a))

    blends = {
        "cubic": cubic_beta(cfg, 4),
        "linear": sample_beta(symmetric_profile(cfg, "linear", 4), cfg),
        "zero": beta_zero(cfg),
        "one": beta_one(cfg),
    }
    q = stability._project(np.random.default_rng(M).standard_normal(n))
    rhs = np.append(stability._gram(q, a), 0.0)
    for name, beta in blends.items():
        op = assemble_linear("bqcf", morse, cfg, beta, 1.0)
        eigenvalues = dense_eigenvalues(op)
        near = [lam * (1.0 + s) for lam in eigenvalues[:3] for s in (-1e-9, 1e-9)]
        for sigma in (0.0, 40.0, *near):
            got = _shifted_ldl(op, sigma)
            with monkeypatch.context() as patched:
                patched.setattr(stability, "splu", default_panel)
                want = _shifted_ldl(op, sigma)
            case = (name, sigma)
            if (got is None) != (want is None):
                assert N == 1 or name in ("zero", "one"), case
                assert (got or want)[1] == np.count_nonzero(eigenvalues < sigma), case
            elif got is not None:
                assert got[1] == want[1], case
                x, y = (stability._project(f[0].solve(rhs)[:n]) for f in (got, want))
                condition = (abs(sigma) + 1.0) / np.abs(eigenvalues - sigma).min()
                assert g_norm(x - y) <= (1e-10 + 1e-14 * condition) * g_norm(y), case


def test_non_finite_lanczos_steps_raise(morse, monkeypatch):
    # the routine raises on a non-finite step; the estimate names itself
    cfg = ChainConfig(M=16, N=2)
    start = g_normalized(np.cos(2.0 * np.pi * np.arange(cfg.n_atoms) / cfg.n_atoms), cfg.a)
    steps = stability._lanczos(lambda q, gq: np.full_like(q, np.nan), start, cfg.a, 8)
    with pytest.raises(EigenSolveError, match="^non-finite Lanczos step$"):
        next(steps)
    monkeypatch.setattr(stability, "_solve_gram", lambda b, a: np.full_like(b, np.nan))
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 4), 1.0)
    with pytest.raises(EigenSolveError, match="^non-finite Lanczos step in the first shift's estimate$"):
        stability._first_shift(op)


def test_untrusted_factors_end_at_the_factorization_limit(morse, monkeypatch, capsys, tmp_path):
    # with no factor trusted the shift is nudged on every one, and the solve
    # gives up after exactly 40; the CLI reports it as a numerical failure
    shifts = []

    def untrusted(op, sigma):
        shifts.append(sigma)

    monkeypatch.setattr(stability, "_shifted_ldl", untrusted)
    cfg = ChainConfig(M=64, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), 1.0)
    with pytest.raises(EigenSolveError, match="not resolved within 40 shifted factorizations"):
        coercivity_constant(op)
    assert len(shifts) == 40
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["coercivity", "--M", "64"]) == 3
    err = capsys.readouterr().err
    assert "not resolved within 40 shifted factorizations" in err
    assert not (tmp_path / "coercivity.csv").exists()


def far_start(op):
    """The solver's start before its estimate: a shift below every spectrum
    here and a seed-7 random vector."""
    return -200.0, np.random.default_rng(7).standard_normal(op.config.n_atoms)


def test_ladder_rung_runs_lanczos_on_a_count_one_factor(morse, stability_lu, monkeypatch):
    # from the far start, the second shift of the M = 64 rung lands just
    # above c_min: its factor counts one eigenvalue below it, and the solve
    # finishes on it
    monkeypatch.setattr(stability, "_first_shift", far_start)
    (rep,) = scaling_study("cubic", "M^(1/3)", [64], morse, 2)
    assert stability_lu.counts == [0, 1]
    assert rep.iterations > _LANCZOS_STEPS  # more than the first factor's run


def test_sliced_matches_dense_oracle_across_counts(morse, stability_lu, monkeypatch):
    # cubic blends at M = 64, each solved from three first shifts.  From the
    # far start the second factors count 1 (Lanczos on both sides of c_min)
    # or 2 (c_min is not T's least eigenvalue there, so that factor must
    # bisect).  The estimate's vector at a shift between the least two or
    # the second and third eigenvalues makes the first factor count 1 or 2,
    # and with no lower end known the solver widens
    first_shift = stability._first_shift
    cases = itertools.product(
        (2, 3), (symmetric_profile, one_sided_profile), (4, 7), (1.0, 1.1, 1.19)
    )
    after_far = set()
    for N, make_profile, L, gamma in cases:
        cfg = ChainConfig(M=64, N=N)
        beta = sample_beta(make_profile(cfg, "cubic", L), cfg)
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        lam = dense_eigenvalues(op)
        c = lam[0]
        starts = [far_start] + [
            lambda op, i=i: (0.5 * (lam[i - 1] + lam[i]), first_shift(op)[1]) for i in (1, 2)
        ]
        for count, start in enumerate(starts):
            monkeypatch.setattr(stability, "_first_shift", start)
            stability_lu.counts.clear()
            rep = coercivity_constant(op, gamma=gamma)
            assert abs(rep.c_min - c) <= 1e-10 * (abs(c) + 1.0), (N, make_profile, L, gamma, count)
            assert stability_lu.counts[0] == count
            if count == 0:
                after_far.update(stability_lu.counts[1:])
    assert {1, 2} <= after_far


def test_sliced_returns_no_mode_above_a_counted_shift(morse, monkeypatch):
    # with T's negative Ritz values dropped, a count-1 factor follows the
    # largest, and the next (count-0) factor converges to the second mode,
    # whose quotient lies above the count-1 shift that proved c_min below it
    eigh_tridiagonal = stability.eigh_tridiagonal

    def nonnegative_ritz(d, e, **options):
        theta, s = eigh_tridiagonal(d, e, **options)
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


def test_n1_rung_resolves_below_the_long_wave_floor(morse, stability_lu):
    # an N = 1 operator is c_1 G/a, so every mean-zero field is a mode; the
    # longest waves, the estimate's start, carry a residual floor of about
    # eps (2M / pi)^2 c_1, 1e-7 at M = 32,000.  The estimate's image of them
    # is exact up to a roundoff beta_1 of ~2e-10, above _lanczos's 1e-12
    # relative breakdown, so the estimate runs its 8 steps and its Ritz
    # vector leaves that floor: one bordered solve takes it to ~2e-11.  An
    # estimate that stopped at beta <= 1e-8 (|alpha| + 1) kept the longest
    # waves and their 1.2e-7
    (rep,) = scaling_study("cubic", "M^(1/3)", [32000], morse, 1)
    assert rep.residual <= 1e-10 * (abs(rep.c_min) + 1.0)
    assert rep.factorizations == stability_lu.factorizations == 1
    assert rep.iterations == stability_lu.solves == 1


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


def test_blend_size_rule_brackets_every_M():
    # L^p >= M > (L - 1)^p for both rules over M = 2..10^5
    Ms = np.arange(2, 100_001)
    for rule, p in (("M^(1/3)", 3), ("M^(1/5)", 5)):
        Ls = np.array([blend_size_for_rule(rule, int(M)) for M in Ms])
        assert np.all(Ls**p >= Ms) and np.all((Ls - 1) ** p < Ms), rule
    # the cmin-ladder's blend sizes
    ladder = [blend_size_for_rule("M^(1/3)", M) for M in (500, 1000, 2000, 4000, 8000)]
    assert ladder == [8, 10, 13, 16, 20]


def test_scaling_study_validation(morse):
    with pytest.raises(ValueError):
        scaling_study("cubic", "M^(1/3)", [128, 64], morse, 2)
    with pytest.raises(ValueError):
        scaling_study("cubic", "M^(1/7)", [64], morse, 2)
    with pytest.raises(ValueError):
        scaling_study("cubic", "fixed", [64], morse, 2)
