"""Blended force-based atomistic/continuum coupling on a periodic 1D chain."""

__version__ = "0.1.0"

from .lattice import ChainConfig
from .potential import Morse, MorseParams
from .blending import BlendingProfile, sample_beta, symmetric_profile
from .operators import BandedPeriodicOperator, assemble_linear

__all__ = [
    "ChainConfig",
    "Morse",
    "MorseParams",
    "BlendingProfile",
    "sample_beta",
    "symmetric_profile",
    "BandedPeriodicOperator",
    "assemble_linear",
    "__version__",
]
