"""Property tests over small chains (M <= 64): drawn deterministically
(derandomize=True), so every run checks the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_cmin, dense_matrix, dense_negative_count, pure_model_mismatch

from bqcf.blending import (
    SPLINE_FAMILIES,
    constant_profile,
    one_sided_profile,
    sample_beta,
    symmetric_profile,
)
from bqcf.lattice import ChainConfig
from bqcf.operators import assemble_linear
from bqcf.stability import StrainSweepError, critical_strain, stability_at

small = settings(derandomize=True, database=None, deadline=1000, max_examples=50)


@st.composite
def blends(draw, N=st.integers(1, 3)):
    """(config, beta) for a spline blend that fits the chain."""
    M = draw(st.integers(8, 64))
    config = ChainConfig(M=M, N=draw(N))
    one_sided = draw(st.booleans())
    room = M - 2 if one_sided else M - round(0.5 * M) - 2
    make_profile = one_sided_profile if one_sided else symmetric_profile
    profile = make_profile(config, draw(st.sampled_from(SPLINE_FAMILIES)), draw(st.integers(1, room)))
    return config, sample_beta(profile, config)


gammas = st.floats(1.0, 1.3)
kinds = st.sampled_from(["atomistic", "continuum", "bqcf"])


@small
@given(blends(), kinds, gammas, st.floats(-10.0, 10.0))
def test_constants_are_annihilated_exactly(morse, blend, which, gamma, c):
    config, beta = blend
    op = assemble_linear(which, morse, config, beta, gamma)
    assert not np.any(op.apply_values(np.full(config.n_atoms, c)))


@small
@given(blends(), gammas)
def test_constant_blends_are_the_pure_models(morse, blend, gamma):
    # both the blend at beta = 1 or 0 and the kind assembled by name are
    # the oracle's pure model, summed over k
    config, beta = blend
    for family, which in (("constant_one", "atomistic"), ("constant_zero", "continuum")):
        constant = sample_beta(constant_profile(family), config)
        for op in (
            assemble_linear("bqcf", morse, config, constant, gamma),
            assemble_linear(which, morse, config, beta, gamma),  # which ignores beta
        ):
            assert pure_model_mismatch(op, which, morse, gamma) == [], (which, config)


@small
@given(blends(), kinds, gammas)
def test_symmetric_part_matches_dense(morse, blend, which, gamma):
    config, beta = blend
    op = assemble_linear(which, morse, config, beta, gamma)
    A = dense_matrix(op)
    np.testing.assert_array_equal(dense_matrix(op.symmetric_part()), (A + A.T) / 2)


@small
@given(blends(), gammas)
def test_inertia_count_matches_dense(morse, blend, gamma):
    config, beta = blend
    op = assemble_linear("bqcf", morse, config, beta, gamma)
    rec = stability_at(op, gamma)
    count = dense_negative_count(op)
    assert rec.stable == (count == 0)
    if rec.neg_count is not None:
        assert rec.neg_count == count


@settings(small, max_examples=25)
@given(blends(N=st.sampled_from([2, 3])))
def test_pencil_records_match_dense_cmin(morse, blend):
    # an eigencurve record's bracket holds the dense c_min, and for N = 2
    # its c_min is that eigenvalue
    config, beta = blend
    ops, records = {}, []

    def build(gamma):
        ops[gamma] = assemble_linear("bqcf", morse, config, beta, gamma)
        return ops[gamma]

    try:
        critical_strain(build, 1e-3, 1.3, coarse=2e-2, report_sink=records.append)
    except StrainSweepError:
        pass
    for rec in records:
        if rec.path == "pencil":
            c = dense_cmin(ops[rec.gamma])
            tol = 1e-8 * (abs(c) + 1.0)
            assert rec.bracket[0] - tol <= c <= rec.bracket[1] + tol, rec
            if config.N == 2:
                assert abs(rec.c_min - c) <= tol, rec
