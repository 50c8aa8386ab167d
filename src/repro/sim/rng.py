"""Reproducible random number streams.

Every component that needs randomness asks the simulator for a stream keyed
by a stable label. Streams are independent of each other and of the order in
which other components draw numbers, so adding a new component never perturbs
existing runs with the same seed.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequence:
    """Derives child seeds from a root seed plus a string label."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)

    def child_seed(self, label: str) -> int:
        digest = hashlib.sha256(
            "{}/{}".format(self.root_seed, label).encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, label: str) -> "RngStream":
        return RngStream(self.child_seed(label), label=label)


class RngStream:
    """A labelled wrapper over :class:`random.Random` with workload helpers."""

    def __init__(self, seed: int, label: str = "") -> None:
        self.label = label
        self._random = random.Random(seed)

    def random(self) -> float:
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, population, k: int) -> list:
        return self._random.sample(population, k)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def poisson(self, mean: float) -> int:
        """Poisson-distributed count with the given ``mean``.

        Exact (Knuth multiplication) for small means; for large means a
        normal approximation keeps the draw O(1) instead of O(mean) — the
        population arrival generator draws one of these per tick, so the
        cost must not scale with the simulated population. Both branches
        consume only this stream, so runs stay reproducible.
        """
        if mean <= 0.0:
            return 0
        if mean < 64.0:
            import math

            threshold = math.exp(-mean)
            count = 0
            product = self._random.random()
            while product > threshold:
                count += 1
                product *= self._random.random()
            return count
        value = self._random.gauss(mean, mean ** 0.5)
        return max(0, int(value + 0.5))
