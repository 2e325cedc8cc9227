"""Keyed random streams.

A master seed fans out to independent streams keyed by arbitrary tuples
(repetition, scale, vertex, ...), so draws are reproducible regardless of
iteration order or internal parallelism.
"""
from __future__ import annotations

import hashlib
import random

import numpy as np


def stream(master_seed: int, *keys) -> random.Random:
    """Deterministic random.Random derived from (master_seed, *keys)."""
    material = repr((master_seed,) + keys).encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def plain(x):
    """x, or int(x) for a numpy integer, whose ``repr`` is not an int's."""
    return int(x) if isinstance(x, np.integer) else x
