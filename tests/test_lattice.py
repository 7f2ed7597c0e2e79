import numpy as np
import pytest

from oracles import at, backward_diff, higher_diff, inner, l2_norm, summation_by_parts_residual

from bqcf.blending import constant_profile, sample_beta
from bqcf.experiments import loglog_slope
from bqcf.lattice import ChainConfig, forward_diff
from bqcf.operators import assemble_linear, energy_linearized


def test_config_invariants():
    cfg = ChainConfig(M=100, N=3)
    assert cfg.a * cfg.M == pytest.approx(1.0, abs=1e-15)
    assert cfg.n_atoms == 200
    assert cfg.positions()[0] == pytest.approx(-1.0 + cfg.a)
    assert cfg.positions()[-1] == pytest.approx(1.0)


def test_config_rejects_bad_range():
    with pytest.raises(ValueError):
        ChainConfig(M=4, N=4)
    with pytest.raises(ValueError):
        ChainConfig(M=4, N=0)
    with pytest.raises(ValueError):
        ChainConfig(M=1, N=1)


def test_config_rejects_integer_valued_floats():
    # an 8.0 would compare equal to ChainConfig(M=8) and fail deep in assembly
    for M, N in ((8.0, 2), (8, 2.0)):
        with pytest.raises(ValueError, match="integer"):
            ChainConfig(M=M, N=N)
    assert ChainConfig(M=np.int64(8), N=np.int32(2)) == ChainConfig(M=8, N=2)


def test_field_wraparound_random_indices():
    cfg = ChainConfig(M=16, N=2)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(cfg.n_atoms)
    ells = rng.integers(-1000, 1000, size=200)
    assert np.array_equal(at(u, ells), at(u, ells + 2 * cfg.M))
    assert np.array_equal(at(u, ells), at(u, ells - 6 * cfg.M))


def test_field_shape_validation(morse):
    # a field is 2M site values: a blend, displacement or force of another
    # length is rejected where it enters, never broadcast
    cfg = ChainConfig(M=4, N=1)
    for wrong in (np.zeros(7), np.zeros(1), np.zeros((1, 8)), np.zeros(10)):
        with pytest.raises(ValueError, match="shape"):
            assemble_linear("bqcf", morse, cfg, wrong)
        with pytest.raises(ValueError, match="shape"):
            assemble_linear("atomistic", morse, cfg).apply_values(wrong)
        for which in ("atomistic", "continuum"):
            with pytest.raises(ValueError, match="shape"):
                energy_linearized(wrong, morse, cfg, which)
    # beta depends only on M, so one sampled for another N fits
    beta = sample_beta(constant_profile("constant_one"), ChainConfig(M=4, N=3))
    assert assemble_linear("bqcf", morse, cfg, beta).recipe.beta is beta


def test_forward_diff_constant_is_zero():
    cfg = ChainConfig(M=13, N=2)
    u = np.full(cfg.n_atoms, 2.375)
    assert np.all(forward_diff(u, cfg) == 0.0)


def test_forward_diff_hand_example():
    # M=2, a=1/2, u = (0, 1, 0, -1) at ell = -1..2
    cfg = ChainConfig(M=2, N=1)
    u = np.array([0.0, 1.0, 0.0, -1.0])
    np.testing.assert_array_equal(forward_diff(u, cfg), [2.0, -2.0, -2.0, 2.0])


def test_forward_diff_first_order_rate():
    errs = []
    ms = [250, 500, 1000, 2000]
    for M in ms:
        cfg = ChainConfig(M=M, N=1)
        u = np.sin(np.pi * cfg.positions())
        exact = np.pi * np.cos(np.pi * cfg.positions())
        errs.append(np.max(np.abs(forward_diff(u, cfg) - exact)))
    slope = loglog_slope(ms, errs)
    assert -1.1 < slope < -0.9


def test_higher_diff_constant_zero_all_orders():
    cfg = ChainConfig(M=9, N=2)
    u = np.full(cfg.n_atoms, -4.2)
    for order in (2, 3, 4):
        assert np.all(higher_diff(u, cfg, order) == 0.0)


def test_higher_diff_quadratic_exact_inside():
    # second difference of x^2 is exactly 2 away from the periodic seam
    cfg = ChainConfig(M=32, N=2)
    u = cfg.positions() ** 2
    d2 = higher_diff(u, cfg, 2)
    interior = slice(4, cfg.n_atoms - 4)
    np.testing.assert_allclose(d2[interior], 2.0, rtol=1e-9)


def test_higher_diff_order4_rate():
    # coarse meshes only: the fourth difference amplifies roundoff by
    # eps/a^4, which would swamp the O(a^2) truncation beyond M ~ 500
    errs = []
    ms = [25, 50, 100, 200]
    for M in ms:
        cfg = ChainConfig(M=M, N=1)
        u = np.sin(np.pi * cfg.positions())
        exact = np.pi**4 * np.sin(np.pi * cfg.positions())
        errs.append(np.max(np.abs(higher_diff(u, cfg, 4) - exact)))
    slope = loglog_slope(ms, errs)
    assert -2.2 < slope < -1.8


def test_higher_diff_composition():
    cfg = ChainConfig(M=11, N=2)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(cfg.n_atoms)
    direct = higher_diff(u, cfg, 2)
    composed = backward_diff(forward_diff(u, cfg), cfg)
    np.testing.assert_array_equal(direct, composed)


def test_higher_diff_rejects_bad_order():
    cfg = ChainConfig(M=4, N=1)
    u = np.zeros(cfg.n_atoms)
    with pytest.raises(ValueError):
        higher_diff(u, cfg, 5)


def test_norms_constant_field():
    cfg = ChainConfig(M=37, N=2)
    u = np.ones(cfg.n_atoms)
    l2, ip, h1 = l2_norm(u, cfg), inner(u, u, cfg), l2_norm(forward_diff(u, cfg), cfg)
    assert l2 == pytest.approx(np.sqrt(2.0), rel=1e-14)  # domain measure is 2
    assert ip == pytest.approx(l2**2, rel=1e-14)
    assert h1 == 0.0


def test_norms_hand_example():
    cfg = ChainConfig(M=2, N=1)
    u = np.array([0.0, 1.0, 0.0, -1.0])
    l2, ip = l2_norm(u, cfg), inner(u, u, cfg)
    assert l2**2 == pytest.approx(1.0, rel=1e-14)
    assert ip == pytest.approx(1.0, rel=1e-14)


def test_inner_is_l2_squared():
    cfg = ChainConfig(M=8, N=2)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(cfg.n_atoms)
    l2, ip = l2_norm(u, cfg), inner(u, u, cfg)
    assert ip == pytest.approx(l2**2, rel=1e-13)


def test_summation_by_parts_zero_field():
    cfg = ChainConfig(M=6, N=1)
    z = np.zeros(cfg.n_atoms)
    assert summation_by_parts_residual(z, z) == 0.0


def test_summation_by_parts_random_pairs():
    rng = np.random.default_rng(42)
    for M in (8, 64, 500):
        cfg = ChainConfig(M=M, N=1)
        for _ in range(20):
            u = rng.standard_normal(cfg.n_atoms)
            v = rng.standard_normal(cfg.n_atoms)
            bound = 1e-12 * (np.max(np.abs(u)) * np.max(np.abs(v)) * cfg.n_atoms)
            assert summation_by_parts_residual(u, v) <= bound


def test_summation_by_parts_alternating():
    cfg = ChainConfig(M=4, N=1)
    u = np.array([1.0, -1.0] * 4)
    bound = 1e-12 * (1.0 * 1.0 * cfg.n_atoms)
    assert summation_by_parts_residual(u, u) <= bound


def test_periodicity_preserved_by_operations():
    cfg = ChainConfig(M=10, N=2)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(cfg.n_atoms)
    for produced in (forward_diff(u, cfg), higher_diff(u, cfg, 2), higher_diff(u, cfg, 3)):
        ells = rng.integers(-50, 50, size=40)
        assert np.array_equal(at(produced, ells), at(produced, ells + cfg.n_atoms))
