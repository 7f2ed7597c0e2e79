import os

# The dense oracles' small generalized eigh runs several times faster on one
# BLAS thread; this must be set before numpy loads, and a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from types import SimpleNamespace  # noqa: E402

import pytest  # noqa: E402

from bqcf import stability  # noqa: E402
from bqcf.potential import Morse, MorseParams  # noqa: E402


@pytest.fixture(scope="session")
def morse():
    return Morse(MorseParams(D_e=3.0, alpha=3.0, r_e=1.0))



@pytest.fixture
def stability_lu(monkeypatch):
    """Count the factorizations bqcf.stability makes and the solves on them.

    .counts logs what each shifted factorization read: its number of
    pencil eigenvalues below the shift, or None when its signs were not
    trusted.  Setting .corrupt to a function makes every later solve
    return corrupt(x) in place of its solution x.
    """
    probe = SimpleNamespace(factorizations=0, solves=0, counts=[], corrupt=None)
    splu = stability.splu
    shifted_ldl = stability._shifted_ldl

    class Factor:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            return getattr(self._lu, name)

        def solve(self, b):
            probe.solves += 1
            x = self._lu.solve(b)
            return x if probe.corrupt is None else probe.corrupt(x)

    def factor(*args, **kwargs):
        probe.factorizations += 1
        return Factor(splu(*args, **kwargs))

    def count(op, sigma):
        factored = shifted_ldl(op, sigma)
        probe.counts.append(None if factored is None else factored[1])
        return factored

    monkeypatch.setattr(stability, "splu", factor)
    monkeypatch.setattr(stability, "_shifted_ldl", count)
    return probe
