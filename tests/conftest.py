import os

# The dense oracles' small generalized eigh runs several times faster on one
# BLAS thread; this must be set before numpy loads, and a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from bqcf.potential import Morse, MorseParams  # noqa: E402


@pytest.fixture(scope="session")
def morse():
    return Morse(MorseParams(D_e=3.0, alpha=3.0, r_e=1.0))

