"""Fixture: every banned-call DET violation (linted with det_all=True)."""

import os
import random
import time


def derive_key(params):
    return hash(params)  # DET001


def identity(obj):
    return id(obj)  # DET002


def stamp():
    return time.time()  # DET003


def jitter():
    return random.random()  # DET005


def entropy():
    return os.urandom(8)  # DET004
