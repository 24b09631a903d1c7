"""Deterministic random source for workloads and failure injection.

A thin wrapper over :class:`random.Random` that (a) forces an explicit
seed so experiments are reproducible by construction, and (b) adds the
sampling helpers the workload generator and fault injectors need
(weighted choice, zipf-ish skew, bernoulli).
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from repro.errors import ValidationError

T = TypeVar("T")


class DeterministicRng:
    """Seeded RNG with workload-oriented sampling helpers."""

    def __init__(self, seed: int | str) -> None:
        self._rng = random.Random(seed)
        self._seed = seed

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValidationError(f"probability must be in [0,1], got {probability}")
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        if not items:
            raise ValidationError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Sample *count* distinct items."""
        if count > len(items):
            raise ValidationError(
                f"cannot sample {count} items from a sequence of {len(items)}"
            )
        return self._rng.sample(list(items), count)

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a shuffled copy of *items*."""
        copied = list(items)
        self._rng.shuffle(copied)
        return copied

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choice with explicit weights."""
        if len(items) != len(weights):
            raise ValidationError("items and weights must have equal length")
        if not items:
            raise ValidationError("cannot choose from an empty sequence")
        return self._rng.choices(list(items), weights=list(weights), k=1)[0]

    def zipf_index(self, size: int, skew: float = 1.1) -> int:
        """Index in [0, size) with zipf-like skew (0 is the hottest).

        Used to model hot patients/keywords: a small set of records gets
        most of the accesses, matching real EHR access patterns.
        """
        if size <= 0:
            raise ValidationError("size must be positive")
        if skew <= 0:
            raise ValidationError("skew must be positive")
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(size)]
        return self.weighted_choice(list(range(size)), weights)

    def bytes(self, count: int) -> bytes:
        """Deterministic pseudo-random bytes."""
        if count < 0:
            raise ValidationError("count must be non-negative")
        return self._rng.randbytes(count)

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent, reproducible child stream."""
        return DeterministicRng(f"{self._seed}/{label}")
