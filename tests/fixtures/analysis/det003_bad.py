"""Known-bad corpus for DET003: RNGs built without a seed."""

import numpy as np
from numpy.random import default_rng


def os_entropy_generator():
    return np.random.default_rng()  # expect: DET003


def explicit_none_seed():
    return np.random.default_rng(None)  # expect: DET003


def none_seed_keyword():
    return np.random.default_rng(seed=None)  # expect: DET003


def unseeded_bit_generator():
    return np.random.Generator(np.random.PCG64())  # expect: DET003


def imported_constructor():
    return default_rng()  # expect: DET003


class ClassLevelGenerator:
    RNG = np.random.default_rng()  # expect: DET003


def default_argument_generator(rng=np.random.default_rng()):  # expect: DET003
    return rng
