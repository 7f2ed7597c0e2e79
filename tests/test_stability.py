import warnings
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    dense_bordered,
    dense_cmin,
    dense_critical_strain,
    dense_gram,
    dense_negative_count,
    dense_sym,
    reference_sweep,
)

from bqcf import stability
from bqcf.blending import constant_profile, one_sided_profile, sample_beta, symmetric_profile
from bqcf.lattice import ChainConfig, PeriodicField, h1_seminorm
from bqcf.operators import BandedPeriodicOperator, assemble_linear, bilinear
from bqcf.potential import stability_constant
from bqcf.stability import (
    EigenSolveError,
    StabilityRecord,
    StrainSweepError,
    _h1_gram,
    _shifted_ldl,
    bordered_matrix,
    coercivity_constant,
    critical_strain,
    decompose_bilinear_n2,
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
    beta = PeriodicField(cfg, rng.uniform(0, 1, cfg.n_atoms))
    op = assemble_linear("bqcf", morse, cfg, beta, 1.0)
    quotients = []
    for _ in range(100):
        v = rng.standard_normal(cfg.n_atoms)
        v -= v.mean()
        u = PeriodicField(cfg, v)
        quotients.append(bilinear(op, u, u) / h1_seminorm(u) ** 2)
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
    assert records[0].path == "inertia"
    assert {r.path for r in records[1:]} == {"pencil"}
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


def test_critical_strain_warns_when_count_falls_by_inertia(morse):
    # N = 3: no stretch fits span{G, S(1)}, so inertia decides the bump and
    # the negative-eigenvalue count falls from the midpoint to the upper end
    cfg = ChainConfig(M=32, N=3)
    beta = cubic_beta(cfg, 3)
    records = []

    def build_bump(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, stretch_bump(gamma))

    with pytest.warns(RuntimeWarning, match="count falls"):
        g = critical_strain(
            build_bump, dgamma=1e-3, gamma_max=1.3, coarse=1e-2, report_sink=records.append
        )
    assert g == 1.0 + 100 * 1e-3
    assert {r.path for r in records} == {"inertia"}


def test_neighbour_rule_matches_reference(monkeypatch):
    # stubbed sweeps whose records carry either measure and change sign at
    # random: the sweep keeps two records per measure, and must raise the
    # warnings, in the same order and from the caller's line, and give the
    # answers of a reference that keeps every record
    rng = np.random.default_rng(2024)
    monkeypatch.setattr(stability, "stability_at", lambda op, gamma: op.record)
    stub_config = ChainConfig(M=4, N=3)  # N != 2: no pencil
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
            return StabilityRecord(gamma, bool(stable[i]), None, c[i] if stable[i] else -c[i], "eigen")

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


@pytest.mark.parametrize("name", ["dgamma", "gamma_max", "coarse"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_critical_strain_rejects_non_finite(morse, name, bad):
    cfg = ChainConfig(M=32, N=2)
    beta = beta_one(cfg)
    kwargs = dict(dgamma=1e-3, gamma_max=1.3, coarse=1e-2)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=name):
        critical_strain(lambda g: assemble_linear("bqcf", morse, cfg, beta, g), **kwargs)


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
    # every pencil record against the dense pencil, and the whole sweep
    # against a scan that decides each stretch by the dense count
    cfg = ChainConfig(M=64, N=2)
    pencil_records = 0
    for L in (1, 4, 10):
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
                assert abs(rec.c_min - c) <= 1e-8 * (abs(c) + 1.0), (family, L, rec.gamma)
                assert rec.stable == (np.count_nonzero(eigenvalues < 0.0) == 0)
                pencil_records += 1
    assert pencil_records >= 36


def test_n3_sweep_takes_no_pencil(morse):
    cfg = ChainConfig(M=32, N=3)
    for beta, paths in ((cubic_beta(cfg, 3), {"inertia"}), (beta_one(cfg), {"circulant"})):
        records = []

        def build(gamma):
            return assemble_linear("bqcf", morse, cfg, beta, gamma)

        critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-2, report_sink=records.append)
        assert {r.path for r in records} == paths


@pytest.mark.parametrize("nu_error", [5.0, -5.0, 1e3, "raise"])
def test_pencil_failure_reruns_by_inertia(morse, monkeypatch, nu_error):
    # a wrong nu moves the pencil's root by a few coarse cells (+-5), or past
    # gamma_max (1e3), so inertia contradicts it at a certified stretch; an
    # unconverged nu leaves nothing to certify.  Either way the scan is run
    # again by inertia alone and returns the inertia answer.
    cfg = ChainConfig(M=64, N=2)
    beta = cubic_beta(cfg, 4)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    want, evaluated = dense_critical_strain(build, 1e-3, 1.3, 1e-2)
    exact = stability.coercivity_constant

    def wrong_nu(op, **kwargs):
        if nu_error == "raise":
            raise EigenSolveError("forced", 1.0)
        rep = exact(op, **kwargs)
        rep.c_min += nu_error
        return rep

    monkeypatch.setattr(stability, "coercivity_constant", wrong_nu)
    records = []
    g = critical_strain(build, dgamma=1e-3, gamma_max=1.3, coarse=1e-2, report_sink=records.append)
    assert g == want
    first = next(k for k, r in enumerate(records) if r.path.startswith("rerun-"))
    rerun = records[first:]
    assert {r.path for r in rerun} == {"rerun-inertia"}
    assert [r.gamma for r in rerun] == list(evaluated)
    if nu_error != "raise":
        assert "pencil" in {r.path for r in records[:first]}


def test_atomistic_sweep_takes_the_pencil_without_factorizing(morse, monkeypatch):
    # the atomistic nu is the exact Fourier minimum at gamma = 1, and the
    # Fourier route certifies, so the sweep factors nothing; deciding every
    # stretch by the Fourier route instead gives the same answer
    cfg = ChainConfig(M=2000, N=2)
    beta = beta_one(cfg)

    def build(gamma):
        return assemble_linear("bqcf", morse, cfg, beta, gamma)

    factorizations = []
    splu = stability.splu
    monkeypatch.setattr(stability, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    records = []
    g = critical_strain(build, 1e-5, 1.5, coarse=1e-3, report_sink=records.append)
    assert records[0].path == "circulant"
    assert {r.path for r in records[1:]} == {"pencil"}
    assert factorizations == []
    monkeypatch.setattr(stability._Pencil, "record", lambda self, op, gamma: None)
    records = []
    assert critical_strain(build, 1e-5, 1.5, coarse=1e-3, report_sink=records.append) == g
    assert {r.path for r in records} == {"circulant"}


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
    # time the eigen path decides.
    cfg = ChainConfig(M=64, N=2)
    for gamma in (1.0, 1.25):
        base = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), gamma)
        bands = base.bands.copy()
        bands[cfg.N, 0] = leading
        op = BandedPeriodicOperator(cfg, bands)
        rec = stability_at(op, gamma)
        assert rec.path == "eigen" and rec.neg_count is None
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
def test_bordered_matrix_matches_dense(morse, N, family, make_profile):
    # K(sigma) refilled on the cached pattern against K built densely from
    # to_dense(), a (A + A^T) / 2 and a second-difference G
    cfg = ChainConfig(M=64, N=N)
    beta = sample_beta(make_profile(cfg, family, 5), cfg)
    G = dense_gram(cfg)
    seeded = float(np.random.default_rng(N).uniform(-200.0, 200.0))
    for gamma in (1.0, 1.1, 1.2):
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        S = cfg.a * op.symmetric_part().bands
        for sigma in (0.0, seeded):
            K = bordered_matrix(S - sigma * _h1_gram(cfg).bands)
            assert K.format == "csc" and K.nnz == (2 * N + 3) * cfg.n_atoms
            np.testing.assert_array_equal(K.toarray(), dense_bordered(dense_sym(op) - sigma * G))
        # the deform solve's K carries A itself
        K = bordered_matrix(op.bands).toarray()
        np.testing.assert_array_equal(K, dense_bordered(op.to_dense()))


# ------------------------------------------------------ sliced c_min solver


def count_below(op, sigma):
    """Pencil eigenvalues below sigma on mean-zero fields, by inertia."""
    S = op.config.a * op.symmetric_part().bands
    factored = _shifted_ldl(S - sigma * _h1_gram(op.config).bands)
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


@pytest.mark.parametrize("M", [64, 2000])
def test_sliced_factorization_counts(morse, M):
    cfg = ChainConfig(M=M, N=2)
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), 1.0))
    assert rep.path == "sliced"
    assert 0 < rep.factorizations < 40
    assert rep.iterations >= 1
    rep = coercivity_constant(assemble_linear("bqcf", morse, cfg, beta_one(cfg), 1.0))
    assert (rep.path, rep.factorizations, rep.iterations) == ("circulant", 0, 0)


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
    cfg = ChainConfig(M=64, N=2)
    base = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 5), 1.0)
    bands = base.bands.copy()
    bands[cfg.N, 3] = bad
    op = BandedPeriodicOperator(cfg, bands)
    with pytest.raises(EigenSolveError, match="40 shifted factorizations"):
        coercivity_constant(op)
    with pytest.raises(EigenSolveError):
        stability_at(op)


# ------------------------------------------------------------ decomposition


def test_decomposition_closes(morse):
    """T1 + T2 + W equals <F_2 u, u> to roundoff for every blend, layout,
    chain size and stretch, constant blends included."""
    checked = 0
    for M in (16, 64, 500):
        cfg = ChainConfig(M=M, N=2)
        u = PeriodicField(cfg, np.random.default_rng(M).standard_normal(cfg.n_atoms))
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
                assert rep.identity_residual <= 1e-10, (M, gamma, rep.term_table())
                checked += 1
    # 3 chains x 26 blends, less the 3 layouts that do not fit, at 2 stretches
    assert checked == 150


def test_decomposition_reports_both_sides(morse):
    cfg = ChainConfig(M=64, N=2)
    rng = np.random.default_rng(4)
    u = PeriodicField(cfg, rng.standard_normal(cfg.n_atoms))
    rep = decompose_bilinear_n2(u, cubic_beta(cfg, 5), morse, cfg)
    assert rep.identity_residual <= 1e-10
    assert rep.via_identity == rep.T1 + rep.T2 + rep.W
    table = rep.term_table()
    assert "direct" in table and "residual" in table


def test_decomposition_requires_n2(morse):
    cfg = ChainConfig(M=16, N=3)
    u = PeriodicField.zeros(cfg)
    with pytest.raises(ValueError, match="N = 2"):
        decompose_bilinear_n2(u, beta_one(cfg), morse, cfg)


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


def test_scaling_study_validation(morse):
    with pytest.raises(ValueError):
        scaling_study("cubic", "M^(1/3)", [128, 64], morse, 2)
    with pytest.raises(ValueError):
        scaling_study("cubic", "M^(1/7)", [64], morse, 2)
    with pytest.raises(ValueError):
        scaling_study("cubic", "fixed", [64], morse, 2)
