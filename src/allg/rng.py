"""Deterministic RNG substreams derived from one root seed.

Every source of randomness in the package draws from a named substream so
that adding or removing one consumer (a selector, an extra run) never
perturbs the random numbers seen by the others.
"""

import hashlib

import numpy as np


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Generator for the substream `name` under `root_seed`."""
    if root_seed < 0:
        raise ValueError(f"root seed must be non-negative, got {root_seed}")
    return np.random.default_rng(np.random.SeedSequence([root_seed, _name_key(name)]))


def derive_seed(root_seed: int, name: str) -> int:
    """Stable non-negative integer seed for the substream `name`."""
    if root_seed < 0:
        raise ValueError(f"root seed must be non-negative, got {root_seed}")
    return _name_key(f"{root_seed}:{name}") >> 1
