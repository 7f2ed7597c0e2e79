"""Blending profiles: where the blend sits, in lattice sites, and its spline.

The blending function beta is 1 on the atomistic core, 0 on the
continuum region, and follows a transition spline on the L blend sites
between them.  On a descending blend the transition follows one of
three shape functions of the normalized coordinate t in [0, 1]:

    linear   1 - t
    cubic    1 + 2 t^3 - 3 t^2
    quintic  1 - 6 t^5 + 15 t^4 - 10 t^3

all equal to 1 at t = 0, 1/2 at t = 1/2, and 0 at t = 1.  The site at
distance d = 1..L past the last atomistic site `edge` gets t = d/(L+1),
so beta at every site is one entry of the table

    [1, spline(1/(L+1)), ..., spline(L/(L+1)), 0]

indexed by d clipped to [0, L+1].

The default layout is symmetric: a centered atomistic core |ell| <= edge
with edge = round(M/2), flanked by two mirror-image blends of L sites
(d = |ell| - edge), with the continuum region wrapping around the
periodic seam.  The one-sided layout (d = ell - edge with edge = 0) has
a single descending blend; it necessarily leaves a 0-to-1 jump at the
seam and exists to show why the symmetric construction is the right one
on a periodic domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ChainConfig

SPLINE_FAMILIES = ("linear", "cubic", "quintic")
CONSTANT_FAMILIES = ("constant_one", "constant_zero")


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
class BlendingProfile:
    """Spline family, blend size L and the last atomistic site `edge`.

    A symmetric profile puts a site at distance |ell| - edge from the
    core, a one-sided profile at ell - edge.  The constant families have
    no blend (L = 0).
    """

    family: str
    L: int = 0
    edge: int = 0
    one_sided: bool = False

    def __post_init__(self):
        if self.family not in SPLINE_FAMILIES + CONSTANT_FAMILIES:
            raise ValueError(f"unknown blending family {self.family!r}")


def constant_profile(family: str) -> BlendingProfile:
    """beta identically one (pure atomistic) or zero (pure continuum)."""
    if family not in CONSTANT_FAMILIES:
        raise ValueError(f"expected a constant family, got {family!r}")
    return BlendingProfile(family)


def _blend_profile(config: ChainConfig, family, L, edge, one_sided) -> BlendingProfile:
    if family in CONSTANT_FAMILIES:
        return constant_profile(family)
    if L < 1:
        raise ValueError(f"blend size L must be >= 1, got {L}")
    if edge + L + 1 >= config.M:
        raise ValueError(
            f"layout does not fit: atomistic edge {edge} plus blend {L} exceeds M={config.M}"
        )
    return BlendingProfile(family, L, edge, one_sided)


def symmetric_profile(config: ChainConfig, family: str, L: int) -> BlendingProfile:
    """Atomistic core |ell| <= round(M/2), two blends of L sites, continuum elsewhere."""
    return _blend_profile(config, family, L, round(0.5 * config.M), False)


def one_sided_profile(config: ChainConfig, family: str, L: int) -> BlendingProfile:
    """Atomistic for ell <= 0, one blend of L sites; beta jumps from 0 to 1 at the seam.

    A periodic domain cannot host exactly one smooth 1-to-0 transition,
    so this layout is intentionally defective at the seam.
    """
    return _blend_profile(config, family, L, 0, True)


def sample_beta(profile: BlendingProfile, config: ChainConfig) -> np.ndarray:
    """The blending function at every lattice site, in physical order."""
    if profile.family == "constant_one":
        return np.ones(config.n_atoms)
    if profile.family == "constant_zero":
        return np.zeros(config.n_atoms)
    L = profile.L
    ell = config.logical_indices()
    d = (ell if profile.one_sided else np.abs(ell)) - profile.edge
    t = np.arange(1, L + 1) / (L + 1)
    table = np.concatenate(([1.0], spline_shape(profile.family, t), [0.0]))
    return table[np.clip(d, 0, L + 1)]


def pair_weight_field(beta: np.ndarray, k: int) -> np.ndarray:
    """Pair weights for all sites at once (physical storage order)."""
    if k < 1:
        raise ValueError(f"neighbor index k must be >= 1, got {k}")
    n = beta.shape[0]
    ext = np.concatenate((beta[n - k :], beta, beta[:k]))  # ext[k + p] = beta[p], periodically
    return (ext[:n] + 2.0 * beta + ext[2 * k : 2 * k + n]) / 4.0
