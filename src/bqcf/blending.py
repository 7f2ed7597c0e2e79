"""Blending profiles: domain decomposition and transition splines.

The periodic domain (-1, 1] is split into an atomistic region (beta = 1),
a continuum region (beta = 0) and blend regions where beta transitions
smoothly.  On a descending blend the transition follows one of three
shape functions of the normalized coordinate t in [0, 1]:

    linear   1 - t
    cubic    1 + 2 t^3 - 3 t^2
    quintic  1 - 6 t^5 + 15 t^4 - 10 t^3

all equal to 1 at t = 0, 1/2 at t = 1/2, and 0 at t = 1.  Ascending
blends use the mirror image.  "Blend size L" counts the lattice sites
strictly between the two plateaus; sample j of L gets t = j/(L+1), so
the transition spans a length of (L+1)*a between the last 1-site and
the first 0-site.

The default layout is symmetric: a centered atomistic core flanked by
one descending and one ascending blend of L atoms each, with the
continuum region wrapping around the periodic seam.  A single-sided
layout (one blend interval only) is also available; it necessarily
leaves a 0-to-1 jump at the seam and exists to show why the symmetric
construction is the right one on a periodic domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ChainConfig, PeriodicField, forward_diff, higher_diff, linf_norm

SPLINE_FAMILIES = ("linear", "cubic", "quintic")
CONSTANT_FAMILIES = ("constant_one", "constant_zero")

ATOMISTIC = "atomistic"
CONTINUUM = "continuum"
BLEND_DOWN = "blend-down"
BLEND_UP = "blend-up"
_LABELS = (ATOMISTIC, CONTINUUM, BLEND_DOWN, BLEND_UP)


def spline_shape(family: str, t):
    """Descending transition value at normalized coordinate t in [0, 1]."""
    t = np.asarray(t, dtype=float)
    if family == "linear":
        return 1.0 - t
    if family == "cubic":
        return 1.0 + 2.0 * t**3 - 3.0 * t**2
    if family == "quintic":
        return 1.0 - 6.0 * t**5 + 15.0 * t**4 - 10.0 * t**3
    raise ValueError(f"unknown spline family {family!r}")


@dataclass(frozen=True)
class LabeledInterval:
    """Half-open x-interval (x_lo, x_hi] with a region label."""

    label: str
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValueError(f"unknown interval label {self.label!r}")
        if not self.x_hi > self.x_lo:
            raise ValueError(f"empty interval ({self.x_lo}, {self.x_hi}]")


@dataclass(frozen=True)
class BlendingProfile:
    """Spline family plus a labeled tiling of the periodic domain.

    L is the atom count per blend interval (0 for the constant
    families, which have no blend interval).
    """

    family: str
    layout: tuple
    L: int

    def __post_init__(self):
        if self.family not in SPLINE_FAMILIES + CONSTANT_FAMILIES:
            raise ValueError(f"unknown blending family {self.family!r}")


def constant_profile(family: str) -> BlendingProfile:
    """beta identically one (pure atomistic) or zero (pure continuum)."""
    if family not in CONSTANT_FAMILIES:
        raise ValueError(f"expected a constant family, got {family!r}")
    label = ATOMISTIC if family == "constant_one" else CONTINUUM
    return BlendingProfile(family, (LabeledInterval(label, -1.0, 1.0),), 0)


def symmetric_profile(
    config: ChainConfig, family: str, L: int, core_fraction: float = 0.5
) -> BlendingProfile:
    """Centered atomistic core, two blends of L atoms, continuum elsewhere.

    The core covers the sites |ell| <= n_a with n_a chosen so the
    atomistic region spans roughly `core_fraction` of the domain.
    """
    if family in CONSTANT_FAMILIES:
        return constant_profile(family)
    if L < 1:
        raise ValueError(f"blend size L must be >= 1, got {L}")
    if not 0 < core_fraction < 1:
        raise ValueError(f"core_fraction must be in (0, 1), got {core_fraction}")
    a = config.a
    n_a = max(1, int(round(core_fraction * config.M)))  # core half-width in sites
    if n_a + L + 1 >= config.M:
        raise ValueError(
            f"layout does not fit: core half-width {n_a} plus blend {L} exceeds M={config.M}"
        )
    layout = (
        LabeledInterval(CONTINUUM, -1.0, -(n_a + L + 1) * a),
        LabeledInterval(BLEND_UP, -(n_a + L + 1) * a, -(n_a + 1) * a),
        LabeledInterval(ATOMISTIC, -(n_a + 1) * a, n_a * a),
        LabeledInterval(BLEND_DOWN, n_a * a, (n_a + L) * a),
        LabeledInterval(CONTINUUM, (n_a + L) * a, 1.0),
    )
    return BlendingProfile(family, layout, L)


def one_sided_profile(
    config: ChainConfig, family: str, L: int, core_fraction: float = 0.5
) -> BlendingProfile:
    """Single blend interval; beta jumps from 0 back to 1 at the seam.

    A periodic domain cannot host exactly one smooth 1-to-0 transition,
    so this layout is intentionally defective at the seam.
    """
    if family in CONSTANT_FAMILIES:
        return constant_profile(family)
    if L < 1:
        raise ValueError(f"blend size L must be >= 1, got {L}")
    a = config.a
    n_core = max(1, int(round(core_fraction * config.n_atoms)))
    lo = -config.M + 1  # first logical site, adjacent to the seam
    core_hi = lo + n_core - 1
    if core_hi + L + 1 >= config.M:
        raise ValueError("layout does not fit: core plus blend exceeds the chain")
    layout = (
        LabeledInterval(ATOMISTIC, -1.0, core_hi * a),
        LabeledInterval(BLEND_DOWN, core_hi * a, (core_hi + L) * a),
        LabeledInterval(CONTINUUM, (core_hi + L) * a, 1.0),
    )
    return BlendingProfile(family, layout, L)


def _site_interval_map(profile: BlendingProfile, config: ChainConfig) -> np.ndarray:
    """Index of the layout interval owning each site; validates the tiling."""
    x = config.positions()
    owner = np.full(config.n_atoms, -1, dtype=int)
    for i, iv in enumerate(profile.layout):
        # bounds are lattice-aligned; the 1e-12 slack absorbs rounding of a*ell
        inside = (x > iv.x_lo + 1e-12) & (x <= iv.x_hi + 1e-12)
        if np.any(owner[inside] >= 0):
            raise ValueError("layout intervals overlap; not a tiling of (-1, 1]")
        owner[inside] = i
    if np.any(owner < 0):
        raise ValueError("layout leaves lattice sites uncovered; not a tiling of (-1, 1]")
    return owner


def sample_beta(profile: BlendingProfile, config: ChainConfig) -> PeriodicField:
    """Sample the blending function at every lattice site.

    Blend intervals must contain at least one site; the j-th of the L
    sites in a blend gets the spline value at t = j/(L+1) (descending)
    or its mirror (ascending).
    """
    if profile.family == "constant_one":
        return PeriodicField(config, np.ones(config.n_atoms))
    if profile.family == "constant_zero":
        return PeriodicField.zeros(config)

    owner = _site_interval_map(profile, config)
    beta = np.zeros(config.n_atoms)
    for i, iv in enumerate(profile.layout):
        sites = np.nonzero(owner == i)[0]
        if iv.label == ATOMISTIC:
            beta[sites] = 1.0
        elif iv.label == CONTINUUM:
            beta[sites] = 0.0
        else:
            n = sites.size
            if n < 1:
                raise ValueError(
                    f"blend interval ({iv.x_lo}, {iv.x_hi}] shorter than one lattice spacing"
                )
            if profile.L and n != profile.L:
                raise ValueError(
                    f"blend interval holds {n} sites, expected L = {profile.L}"
                )
            j = np.arange(1, n + 1, dtype=float)
            t = j / (n + 1)
            if iv.label == BLEND_UP:
                t = t[::-1]
            beta[sites] = spline_shape(profile.family, t)
    return PeriodicField(config, beta)


def pair_weight_field(beta: PeriodicField, k: int) -> np.ndarray:
    """Pair weights for all sites at once (physical storage order)."""
    if k < 1:
        raise ValueError(f"neighbor index k must be >= 1, got {k}")
    v = beta.values
    return (np.roll(v, k) + 2.0 * v + np.roll(v, -k)) / 4.0


def derivative_sup_bounds(beta: PeriodicField, config: ChainConfig, L: int):
    """Scaled sup norms c_j = max|beta^(j)| * (L a)^j for j = 1, 2, 3.

    For a smooth blend of L atoms these stay O(1) as the chain grows;
    kinks (the linear family) make c2 and c3 blow up, which is exactly
    what disqualifies that family from the stability estimates.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    la = L * config.a
    c1 = linf_norm(forward_diff(beta)) * la
    c2 = linf_norm(higher_diff(beta, 2)) * la**2
    c3 = linf_norm(higher_diff(beta, 3)) * la**3
    return c1, c2, c3
