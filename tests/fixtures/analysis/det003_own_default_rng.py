"""Known-good corpus for DET003: a module's own ``default_rng`` is no RNG.

The bare name below resolves to this module's definition, not to numpy's
constructor, so calling it without arguments builds no unseeded generator;
DET003 reads it as SEED101 does.
"""

import numpy as np

SEED = 7


def default_rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def draws() -> np.ndarray:
    return default_rng().random(3)
