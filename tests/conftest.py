import os

# The dense oracles' small generalized eigh runs several times faster on one
# BLAS thread; this must be set before numpy loads, and a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bqcf.potential import Morse, MorseParams  # noqa: E402


@pytest.fixture(scope="session")
def morse():
    return Morse(MorseParams(D_e=3.0, alpha=3.0, r_e=1.0))


def loglog_slope(xs, ys):
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])
