import numpy as np
import pytest

from bqcf.blending import (
    constant_profile,
    one_sided_profile,
    pair_weight_field,
    sample_beta,
    spline_shape,
    symmetric_profile,
)
from bqcf.lattice import ChainConfig
from oracles import at, derivative_sup_bounds, pair_weight


def test_spline_endpoints_exact():
    for fam in ("linear", "cubic", "quintic"):
        assert spline_shape(fam, 0.0) == 1.0
        assert spline_shape(fam, 1.0) == 0.0


def test_spline_midpoints():
    assert spline_shape("cubic", 0.5) == pytest.approx(0.5, abs=1e-15)
    assert spline_shape("quintic", 0.5) == pytest.approx(0.5, abs=1e-15)
    assert spline_shape("linear", 0.5) == pytest.approx(0.5, abs=1e-15)


def test_constant_profiles():
    cfg = ChainConfig(M=12, N=2)
    ones = sample_beta(constant_profile("constant_one"), cfg)
    zeros = sample_beta(constant_profile("constant_zero"), cfg)
    for beta in (ones, zeros):
        assert beta.dtype == np.float64 and beta.shape == (cfg.n_atoms,)
    assert np.all(ones == 1.0)
    assert np.all(zeros == 0.0)


def test_symmetric_layout_trichotomy():
    cfg = ChainConfig(M=64, N=2)
    for fam in ("linear", "cubic", "quintic"):
        profile = symmetric_profile(cfg, fam, L=6)
        beta = sample_beta(profile, cfg)
        labels = np.empty(cfg.n_atoms, dtype=object)
        ells = cfg.logical_indices()
        n_a = round(0.5 * cfg.M)
        core = np.abs(ells) <= n_a
        blend = (np.abs(ells) > n_a) & (np.abs(ells) <= n_a + 6)
        cont = np.abs(ells) > n_a + 6
        assert np.all(beta[core] == 1.0)
        assert np.all(beta[cont] == 0.0)
        assert np.all((beta[blend] > 0.0) & (beta[blend] < 1.0))


def test_symmetric_layout_mirror_symmetry():
    cfg = ChainConfig(M=40, N=2)
    ells = np.arange(1, cfg.M)  # beta(-ell) == beta(ell), bit for bit
    for fam in ("linear", "cubic", "quintic"):
        beta = sample_beta(symmetric_profile(cfg, fam, L=5), cfg)
        np.testing.assert_array_equal(at(beta, ells), at(beta, -ells))


def test_blend_values_follow_spline():
    cfg = ChainConfig(M=50, N=2)
    L = 4
    j = np.arange(1, L + 1)
    expected = spline_shape("quintic", j / (L + 1))
    beta = sample_beta(symmetric_profile(cfg, "quintic", L), cfg)
    n_a = round(0.5 * cfg.M)
    np.testing.assert_array_equal(at(beta, n_a + j), expected)  # descending blend
    np.testing.assert_array_equal(at(beta, -(n_a + j)), expected)  # ascending blend
    one_sided = sample_beta(one_sided_profile(cfg, "quintic", L), cfg)
    np.testing.assert_array_equal(at(one_sided, j), expected)


def test_one_sided_profile_has_seam_jump():
    cfg = ChainConfig(M=32, N=2)
    beta = sample_beta(one_sided_profile(cfg, "cubic", L=4), cfg)
    # first logical site is atomistic, last is continuum: the step sits at the seam
    assert beta[0] == 1.0
    assert beta[-1] == 0.0


def test_pair_weight_constants():
    cfg = ChainConfig(M=8, N=2)
    ones = np.ones(cfg.n_atoms)
    zeros = np.zeros(cfg.n_atoms)
    for k in (1, 2, 3):
        assert np.all(pair_weight_field(ones, k) == 1.0)
        assert np.all(pair_weight_field(zeros, k) == 0.0)


def test_pair_weight_step_profile_hand_value():
    # beta = (0, 0, 1, 1) at ell = -1..2 on M=2, stored at p = ell + 1
    cfg = ChainConfig(M=2, N=1)
    beta = np.array([0.0, 0.0, 1.0, 1.0])
    w = pair_weight_field(beta, 1)
    # at ell = 1 (first 1-site): (beta_0 + 2 beta_1 + beta_2)/4 = (0 + 2 + 1)/4
    assert w[2] == pytest.approx(3.0 / 4.0)
    # at ell = 0 (last 0-site): (beta_-1 + 0 + beta_1)/4 = (0 + 0 + 1)/4
    assert w[1] == pytest.approx(1.0 / 4.0)


def test_pair_weight_symmetric_in_k():
    cfg = ChainConfig(M=16, N=3)
    rng = np.random.default_rng(4)
    beta = v = rng.uniform(0, 1, cfg.n_atoms)
    for ell in (-10, 0, 7):
        p = ell + cfg.M - 1
        for k in (1, 2, 3):
            direct = (at(v, ell - k) + 2 * at(v, ell) + at(v, ell + k)) / 4.0
            mirrored = (at(v, ell + k) + 2 * at(v, ell) + at(v, ell - k)) / 4.0
            assert pair_weight_field(beta, k)[p] == pytest.approx(direct, rel=1e-15)
            assert direct == pytest.approx(mirrored, rel=1e-15)


def test_pair_weight_field_matches_scalar():
    cfg = ChainConfig(M=12, N=2)
    rng = np.random.default_rng(11)
    beta = rng.uniform(0, 1, cfg.n_atoms)
    w = pair_weight_field(beta, 2)
    ells = cfg.logical_indices()
    for p in range(0, cfg.n_atoms, 3):
        assert w[p] == pytest.approx(pair_weight(beta, int(ells[p]), 2), rel=1e-15)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_pair_weight_rejects_bad_k():
    cfg = ChainConfig(M=4, N=1)
    beta = np.zeros(cfg.n_atoms)
    with pytest.raises(ValueError):
        pair_weight_field(beta, 0)


def test_derivative_bounds_constant_profile():
    cfg = ChainConfig(M=32, N=2)
    ones = np.ones(cfg.n_atoms)
    assert derivative_sup_bounds(ones, cfg, L=4) == (0.0, 0.0, 0.0)


def test_derivative_bounds_smooth_families_bounded():
    # under the practical growth rule L ~ M^(1/3) the smooth blends keep
    # c1 and c2 uniformly bounded; the quintic blend is C2, so its c3 is
    # bounded too (by the interior max of the third derivative, 60)
    for M in (500, 1000, 2000):
        cfg = ChainConfig(M=M, N=2)
        L = int(np.ceil(M ** (1.0 / 3.0)))
        for fam, c3_cap in (("cubic", None), ("quintic", 75.0)):
            beta = sample_beta(symmetric_profile(cfg, fam, L), cfg)
            c1, c2, c3 = derivative_sup_bounds(beta, cfg, L)
            assert c1 < 3.0
            assert c2 < 8.0
            if c3_cap is not None:
                assert c3 < c3_cap


def test_derivative_bounds_linear_family_blows_up():
    # the kinks make the second and third differences grow with the
    # blend size, which is what rules the linear family out of the
    # smooth-blend stability estimates
    c2s, c3s = [], []
    for M in (500, 1000, 2000):
        cfg = ChainConfig(M=M, N=2)
        L = int(np.ceil(M ** (1.0 / 3.0)))
        beta = sample_beta(symmetric_profile(cfg, "linear", L), cfg)
        _, c2, c3 = derivative_sup_bounds(beta, cfg, L)
        c2s.append(c2)
        c3s.append(c3)
    assert c2s[-1] > 1.5 * c2s[0]
    assert c3s[-1] > 2.5 * c3s[0]


def test_derivative_bounds_cubic_c3_grows_with_kink():
    # the cubic blend is only C1: its second difference jumps at the
    # junctions, so the scaled third difference grows ~ L rather than
    # staying M-uniform (the quintic family is the one that stays flat)
    c3s = []
    for M in (500, 4000):
        cfg = ChainConfig(M=M, N=2)
        L = int(np.ceil(M ** (1.0 / 3.0)))
        beta = sample_beta(symmetric_profile(cfg, "cubic", L), cfg)
        c3s.append(derivative_sup_bounds(beta, cfg, L)[2])
    assert c3s[1] > 1.5 * c3s[0]


def test_profile_validation():
    cfg = ChainConfig(M=16, N=2)
    with pytest.raises(ValueError):
        symmetric_profile(cfg, "cubic", L=0)
    with pytest.raises(ValueError):
        symmetric_profile(cfg, "septic", L=2)
    with pytest.raises(ValueError):
        symmetric_profile(cfg, "cubic", L=12)  # does not fit beside the core


def test_spline_profile_is_sampled_only_at_its_own_M():
    # a layout's core edge is round(M/2) of the M it was made for, so on
    # another chain it would put the core in the wrong place (here, everywhere)
    made, other = ChainConfig(M=2000), ChainConfig(M=500)
    for make_profile in (symmetric_profile, one_sided_profile):
        profile = make_profile(made, "cubic", 5)
        with pytest.raises(ValueError, match="M=2000, sampled at M=500"):
            sample_beta(profile, other)
        assert sample_beta(profile, ChainConfig(M=2000, N=3)).shape == (made.n_atoms,)
    for family in ("constant_one", "constant_zero"):  # constants fit every M
        assert sample_beta(constant_profile(family), other).shape == (other.n_atoms,)
