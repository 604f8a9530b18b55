"""Known-bad corpus for DET001: every entropy source the rule must flag."""

import os
import random
import time
from datetime import datetime
from os import urandom
from random import choice
from time import time as now

import numpy as np


def stdlib_global_rng():
    value = random.random()  # expect: DET001
    pick = random.choice([1, 2, 3])  # expect: DET001
    return value, pick


def imported_name():
    return choice([1, 2, 3])  # expect: DET001


def numpy_legacy_global():
    np.random.seed(7)  # expect: DET001
    return np.random.uniform(0.0, 1.0)  # expect: DET001


def os_entropy():
    return os.urandom(16)  # expect: DET001


def salted_hash(key):
    return hash(key) % 100  # expect: DET001


def time_as_seed():
    rng = np.random.default_rng(int(time.time()))  # expect: DET001
    return rng


def clocks_as_seeds():
    by_name = np.random.default_rng(int(now()))  # expect: DET001
    calendar = np.random.default_rng(int(datetime.now().timestamp()))  # expect: DET001
    cpu = np.random.default_rng(int(time.process_time()))  # expect: DET001
    return by_name, calendar, cpu


def os_entropy_by_name():
    return urandom(16)  # expect: DET001


def default_argument_draw(jitter=random.uniform(0.9, 1.1)):  # expect: DET001
    return jitter


class ClassBodyDraw:
    JITTER = random.uniform(0.9, 1.1)  # expect: DET001


def tagged(weight):
    def wrap(function):
        return function

    return wrap


@tagged(random.random())  # expect: DET001
def decorated_draw():
    return 1


def defined_in_a_block(flag):
    if flag:
        def draw():
            return random.random()  # expect: DET001

        return draw
    return None


def class_in_a_function():
    class Local:
        def draw(self):
            return random.random()  # expect: DET001

    return Local


class Identity:
    def __hash__(self):
        return hash(("identity",))  # exempt: in-process __hash__ only
