"""Fixture: the same DET violations, each excused by a noqa comment."""

import os
import random
import time


def derive_key(params):
    return hash(params)  # repro: noqa[DET]


def identity(obj):
    return id(obj)  # repro: noqa[DET002]


def stamp():
    return time.time()  # repro: noqa


def jitter():
    return random.random()  # repro: noqa[DET005]


def entropy():
    return os.urandom(8)  # repro: noqa[DET, ERR]
