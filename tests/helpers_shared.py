"""Shared helpers for the test suite."""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro.trees.generate import random_tree
from repro.trees.unranked import UnrankedStructure


def random_structures(seed: int, count: int, max_size: int = 12, labels=("a", "b")):
    """A list of random (tree, structure) pairs for equivalence sweeps."""
    generator = random.Random(seed)
    out = []
    for _ in range(count):
        tree = random_tree(generator, generator.randint(1, max_size), labels=labels)
        out.append((tree, UnrankedStructure(tree)))
    return out


def best_time(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time of ``fn()``, with the cyclic GC
    paused: its full collections grow with the live heap, not with the
    algorithm under test."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeat):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best


def assert_scales_linearly(label: str, small, large) -> None:
    """Fail unless ``large`` (size 4n) costs under 8x ``small`` (size n).

    Linear work grows ~4x and quadratic ~16x.  A busy machine can
    stretch one timing, so the check passes when any of three attempts
    stays under the bound; work that costs microseconds is judged
    against a 0.5 ms floor, so timer jitter cannot fail it.
    """
    attempts = []
    for _ in range(3):
        t_small = best_time(small, repeat=3)
        t_large = best_time(large, repeat=2)
        ratio = t_large / max(t_small, 5e-4)
        if ratio < 8.0:
            return
        attempts.append((round(ratio, 1), t_small, t_large))
    pytest.fail(f"{label}: t(4n)/t(n) >= 8 on every attempt {attempts}")
