import numpy as np
import pytest

from oracles import (
    at,
    bilinear,
    dense_matrix,
    energy_atomistic,
    force_nonlinear_atomistic,
    l2_norm,
    neighbor_operator,
    pure_model_mismatch,
)

from bqcf import operators
from bqcf.blending import constant_profile, sample_beta, symmetric_profile
from bqcf.experiments import loglog_slope
from bqcf.lattice import ChainConfig, forward_diff
from bqcf.operators import BandedPeriodicOperator, assemble_linear, energy_linearized


def random_field(cfg, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(cfg.n_atoms)


def cubic_beta(cfg, L=3):
    return sample_beta(symmetric_profile(cfg, "cubic", L), cfg)


def brute_force_energy(u, pot, cfg, gamma=1.0):
    """Literal double sum over ell and k = -N..N, k != 0."""
    total = 0.0
    ells = cfg.logical_indices()
    for ell in ells:
        for k in range(-cfg.N, cfg.N + 1):
            if k == 0:
                continue
            bond = gamma * k + (at(u, ell + k) - at(u, ell)) / cfg.a
            total += 0.5 * cfg.a * float(pot.phi(bond))
    return total


# ---------------------------------------------------------------- operators


def test_apply_annihilates_constants_exactly(morse):
    for which, gamma in (("atomistic", 1.0), ("continuum", 1.2), ("bqcf", 1.1)):
        cfg = ChainConfig(M=20, N=2)
        op = assemble_linear(which, morse, cfg, cubic_beta(cfg), gamma)
        c = np.full(cfg.n_atoms, -3.7)
        assert np.max(np.abs(op.apply_values(c))) == 0.0


def test_apply_matches_dense_oracle(morse):
    cfg = ChainConfig(M=8, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 2), 1.05)
    u = random_field(cfg, 3)
    dense = dense_matrix(op) @ u
    banded = op.apply_values(u)
    scale = np.max(np.abs(dense)) + 1.0
    assert np.max(np.abs(dense - banded)) / scale < 1e-13


def test_apply_linearity(morse):
    cfg = ChainConfig(M=8, N=2)
    op = assemble_linear("atomistic", morse, cfg)
    u, v = random_field(cfg, 1), random_field(cfg, 2)
    lhs = op.apply_values(2.5 * u - 0.5 * v)
    rhs = 2.5 * op.apply_values(u) - 0.5 * op.apply_values(v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


def test_transpose_and_symmetric_part_match_dense(morse):
    cfg = ChainConfig(M=8, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 2), 1.0)
    A = dense_matrix(op)
    sym = dense_matrix(op.symmetric_part())
    np.testing.assert_allclose(sym, 0.5 * (A + A.T), atol=1e-12)


def test_bandwidth_within_interaction_range(morse):
    cfg = ChainConfig(M=10, N=3)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 2), 1.0)
    assert op.bands.shape == (2 * cfg.N + 1, cfg.n_atoms)
    assert sorted(op.diagonals) == list(range(-cfg.N, cfg.N + 1))
    with pytest.raises(ValueError):
        BandedPeriodicOperator(cfg, np.ones((2 * cfg.N + 3, cfg.n_atoms)))
    with pytest.raises(TypeError):
        op.diagonals[4] = np.ones(cfg.n_atoms)


def test_assembled_operator_carries_its_recipe(morse, monkeypatch):
    # the coefficients are evaluated at assembly, the bands once, on first access
    cfg = ChainConfig(M=10, N=3)
    beta = cubic_beta(cfg, 2)
    built = []
    recipe_bands = operators._recipe_bands
    monkeypatch.setattr(
        operators, "_recipe_bands", lambda *a: built.append(1) or recipe_bands(*a)
    )
    for which, constant in (("bqcf", None), ("atomistic", 1.0), ("continuum", 0.0)):
        op = assemble_linear(which, morse, cfg, beta, 1.1)
        r = op.recipe
        if constant is None:
            assert r.beta is beta
        else:  # the pure kinds are the constant blend, whatever beta is passed
            assert r.beta.dtype == np.float64 and r.beta.shape == (cfg.n_atoms,)
            assert np.all(r.beta == constant)
        assert r.coefficients == tuple(float(morse.phi_xx(k * 1.1)) for k in (1, 2, 3))
        assert built == []
        assert op.bands is op.bands and len(built) == 1
        assert op.symmetric_part() is op.symmetric_part()  # built once, then kept
        built.clear()
    raw = BandedPeriodicOperator(cfg, op.bands)  # raw bands are copied
    assert raw.recipe is None and raw.bands is not op.bands
    np.testing.assert_array_equal(raw.bands, op.bands)
    with pytest.raises(ValueError, match="either"):
        BandedPeriodicOperator(cfg)
    with pytest.raises(ValueError, match="either"):
        BandedPeriodicOperator(cfg, op.bands, recipe=op.recipe)


def test_bands_built_from_a_recipe_are_read_only(morse):
    # the N = 2 sweep decides a stretch from its recipe, so its bands must not change
    cfg = ChainConfig(M=10, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 2), 1.1)
    with pytest.raises(ValueError, match="read-only"):
        op.diagonals[0][3] = 0.0
    # raw bands are a read-only copy, so the kept symmetric part cannot go stale
    given = op.bands.copy()
    raw = BandedPeriodicOperator(cfg, given)
    with pytest.raises(ValueError, match="read-only"):
        raw.diagonals[0][3] = 0.0
    given[cfg.N, 3] = 0.0
    assert raw.bands[cfg.N, 3] == op.bands[cfg.N, 3] != 0.0


def test_beta_one_degenerates_to_atomistic(morse):
    cfg = ChainConfig(M=12, N=3)
    beta1 = sample_beta(constant_profile("constant_one"), cfg)
    bq = assemble_linear("bqcf", morse, cfg, beta1, 1.07)
    assert pure_model_mismatch(bq, "atomistic", morse, 1.07) == []


def test_beta_zero_degenerates_to_continuum(morse):
    cfg = ChainConfig(M=12, N=3)
    beta0 = sample_beta(constant_profile("constant_zero"), cfg)
    bq = assemble_linear("bqcf", morse, cfg, beta0, 1.07)
    assert pure_model_mismatch(bq, "continuum", morse, 1.07) == []


def test_per_neighbor_sum_is_full_operator(morse):
    cfg = ChainConfig(M=10, N=3)
    beta = cubic_beta(cfg, 2)
    parts = [neighbor_operator("bqcf", morse, cfg, beta, 1.1, k) for k in (1, 2, 3)]
    full = assemble_linear("bqcf", morse, cfg, beta, 1.1)
    total = sum(p.bands for p in parts)
    off = np.arange(-cfg.N, cfg.N + 1) != 0
    assert np.array_equal(total[off], full.bands[off])
    np.testing.assert_allclose(total[cfg.N], full.bands[cfg.N], rtol=1e-14)
    ones = np.ones(cfg.n_atoms)
    for op in parts + [full]:
        assert np.all(op.apply_values(ones) == 0.0)


def test_bqcf_matches_brute_force_formula(morse):
    # row-by-row evaluation of the blended stencil as written
    cfg = ChainConfig(M=8, N=2)
    beta = cubic_beta(cfg, 2)
    u = random_field(cfg, 7)
    op = assemble_linear("bqcf", morse, cfg, beta, 1.0)
    got = op.apply_values(u)
    ells = cfg.logical_indices()
    a2 = cfg.a**2
    b, v = beta, u
    expected = np.zeros(cfg.n_atoms)
    for p, ell in enumerate(ells):
        acc = 0.0
        for k in range(1, cfg.N + 1):
            c = float(morse.phi_xx(float(k)))
            w = (at(b, ell - k) + 2 * at(b, ell) + at(b, ell + k)) / 4.0
            acc -= w * c * (at(v, ell + k) - 2 * at(v, ell) + at(v, ell - k)) / a2
            acc -= (
                (1 - w) * c * k * k * (at(v, ell + 1) - 2 * at(v, ell) + at(v, ell - 1)) / a2
            )
        expected[p] = acc
    scale = np.max(np.abs(expected)) + 1.0
    assert np.max(np.abs(got - expected)) / scale < 1e-12


def test_assemble_validation(morse):
    cfg = ChainConfig(M=8, N=2)
    with pytest.raises(ValueError):
        assemble_linear("bqcf", morse, cfg)  # beta missing
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            assemble_linear("atomistic", morse, cfg, gamma=gamma)
    with pytest.raises(ValueError):
        assemble_linear("magic", morse, cfg)


# ------------------------------------------------------------------ energies


def test_energy_reference_is_zero(morse):
    cfg = ChainConfig(M=16, N=1)
    u = np.zeros(cfg.n_atoms)
    assert energy_atomistic(u, morse, cfg) == pytest.approx(0.0, abs=1e-14)


def test_energy_uniform_stretch_closed_form(morse):
    cfg = ChainConfig(M=16, N=2)
    u = np.zeros(cfg.n_atoms)
    gamma = 1.13
    expected = 2.0 * (float(morse.phi(gamma)) + float(morse.phi(2 * gamma)))
    assert energy_atomistic(u, morse, cfg, gamma) == pytest.approx(expected, rel=1e-13)


def test_energy_matches_brute_force(morse):
    cfg = ChainConfig(M=8, N=2)
    u = random_field(cfg, 12, scale=0.02)
    got = energy_atomistic(u, morse, cfg)
    expected = brute_force_energy(u, morse, cfg)
    assert got == pytest.approx(expected, rel=1e-12)


def test_energy_rejects_crossing(morse):
    cfg = ChainConfig(M=8, N=1)
    values = np.zeros(cfg.n_atoms)
    values[3] = -1.5 * cfg.a  # pushes one bond argument negative
    with pytest.raises(ValueError, match="bond"):
        energy_atomistic(values, morse, cfg)


def test_linearized_energy_constant_is_zero(morse):
    cfg = ChainConfig(M=8, N=2)
    c = np.full(cfg.n_atoms, 0.4)
    assert energy_linearized(c, morse, cfg, "atomistic") == 0.0
    assert energy_linearized(c, morse, cfg, "continuum") == 0.0


def test_linearized_energy_hand_field(morse):
    cfg = ChainConfig(M=4, N=2)
    u = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0])
    a = cfg.a
    # atomistic: per k, sum_ell (a/2) ((u_{l+k}-u_l)/a)^2 phi_xx(k)
    d1 = (np.roll(u, -1) - u) / a
    d2 = (np.roll(u, -2) - u) / a
    exp_atom = 0.5 * a * float(morse.phi_xx(1.0)) * np.sum(d1**2) + 0.5 * a * float(
        morse.phi_xx(2.0)
    ) * np.sum(d2**2)
    assert energy_linearized(u, morse, cfg, "atomistic") == pytest.approx(
        exp_atom, rel=1e-13
    )
    coef = float(morse.phi_xx(1.0)) + 4 * float(morse.phi_xx(2.0))
    exp_cont = 0.5 * a * coef * np.sum(d1**2)
    assert energy_linearized(u, morse, cfg, "continuum") == pytest.approx(
        exp_cont, rel=1e-13
    )


def test_energy_consistency_rate(morse):
    ms = [250, 500, 1000, 2000]
    gaps = []
    for M in ms:
        cfg = ChainConfig(M=M, N=2)
        u = np.sin(np.pi * cfg.positions())
        gaps.append(
            abs(
                energy_linearized(u, morse, cfg, "continuum")
                - energy_linearized(u, morse, cfg, "atomistic")
            )
        )
    slope = -loglog_slope(ms, gaps)
    assert 1.9 <= slope <= 2.1


# -------------------------------------------------------------------- forces


def test_nonlinear_force_zero_at_reference(morse):
    cfg = ChainConfig(M=12, N=3)
    f = force_nonlinear_atomistic(np.zeros(cfg.n_atoms), morse, cfg)
    assert np.max(np.abs(f)) == 0.0


def test_nonlinear_force_is_energy_gradient(morse):
    cfg = ChainConfig(M=8, N=2)
    u = random_field(cfg, 21, scale=0.01)
    f = force_nonlinear_atomistic(u, morse, cfg)
    h = 1e-7
    fd = np.zeros(cfg.n_atoms)
    for p in range(cfg.n_atoms):
        up = u.copy()
        up[p] += h
        um = u.copy()
        um[p] -= h
        fd[p] = (
            energy_atomistic(up, morse, cfg) - energy_atomistic(um, morse, cfg)
        ) / (2 * h * cfg.a)
    scale = np.max(np.abs(fd)) + 1e-12
    assert np.max(np.abs(f - fd)) / scale < 1e-6


def test_nonlinear_force_linearization(morse):
    # the gap to the linearized force is quadratic in the displacement,
    # so the relative error shrinks linearly with the amplitude
    cfg = ChainConfig(M=16, N=2)

    def rel_gap(eps):
        u = random_field(cfg, 5, scale=eps)
        f_nl = force_nonlinear_atomistic(u, morse, cfg)
        f_lin = assemble_linear("atomistic", morse, cfg).apply_values(u)
        return np.max(np.abs(f_nl - f_lin)) / (np.max(np.abs(f_lin)) + 1e-12)

    r1, r2 = rel_gap(1e-6), rel_gap(1e-7)
    assert r1 < 1e-3
    assert 5.0 < r1 / r2 < 20.0


def test_nonlinear_force_rejects_crossing(morse):
    cfg = ChainConfig(M=8, N=1)
    values = np.zeros(cfg.n_atoms)
    values[2] = -2.0 * cfg.a
    with pytest.raises(ValueError, match="bond"):
        force_nonlinear_atomistic(values, morse, cfg)


def test_force_consistency_rate(morse):
    for N in (2, 3):
        ms = [100, 200, 400, 800]
        errs = []
        for M in ms:
            cfg = ChainConfig(M=M, N=N)
            u = np.sin(np.pi * cfg.positions())
            fa = assemble_linear("atomistic", morse, cfg).apply_values(u)
            fc = assemble_linear("continuum", morse, cfg).apply_values(u)
            errs.append(np.max(np.abs(fa - fc)))
        slope = -loglog_slope(ms, errs)
        assert 1.8 <= slope <= 2.2


# ------------------------------------------------------------------ bilinear


def test_bilinear_nearest_neighbor_identity(morse):
    # with one neighbor the blended rows coincide with the atomistic ones
    # for any blending field, and <F u, u> = phi_xx(gamma) |u'|^2
    cfg = ChainConfig(M=32, N=1)
    rng = np.random.default_rng(8)
    beta = rng.uniform(0, 1, cfg.n_atoms)
    for gamma in (1.0, 1.1):
        op = assemble_linear("bqcf", morse, cfg, beta, gamma)
        u = random_field(cfg, 17)
        expected = float(morse.phi_xx(gamma)) * l2_norm(forward_diff(u, cfg), cfg) ** 2
        assert bilinear(op, u, u) == pytest.approx(expected, rel=1e-11)


def test_bilinear_constant_is_zero(morse):
    cfg = ChainConfig(M=8, N=2)
    op = assemble_linear("bqcf", morse, cfg, cubic_beta(cfg, 2), 1.0)
    c = np.full(cfg.n_atoms, 1.3)
    u = random_field(cfg, 2)
    assert bilinear(op, c, u) == 0.0


def test_bilinear_matches_dense_oracle(morse):
    cfg = ChainConfig(M=8, N=2)
    beta = cubic_beta(cfg, 2)
    op = assemble_linear("bqcf", morse, cfg, beta, 1.1)
    A = dense_matrix(op)
    u, v = random_field(cfg, 31), random_field(cfg, 32)
    expected = cfg.a * float(v @ (A @ u))
    assert bilinear(op, u, v) == pytest.approx(expected, rel=1e-12)


def test_bilinear_per_neighbor_decomposition(morse):
    cfg = ChainConfig(M=16, N=3)
    beta = cubic_beta(cfg, 3)
    u = random_field(cfg, 6)
    parts = [neighbor_operator("bqcf", morse, cfg, beta, 1.0, k) for k in (1, 2, 3)]
    full = assemble_linear("bqcf", morse, cfg, beta, 1.0)
    total = sum(bilinear(p, u, u) for p in parts)
    assert total == pytest.approx(bilinear(full, u, u), rel=1e-12)
