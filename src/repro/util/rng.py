"""Deterministic random-number streams.

Every stochastic component of the reproduction (trace generators, arrival
processes, deadline assignment) draws from a :class:`DeterministicRng`.
Streams are derived from a parent seed plus a string label, so adding a
new consumer of randomness never perturbs the draws seen by existing
consumers — a property we rely on for regression-stable experiments.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from typing import List, Sequence, TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a stream ``label``.

    The derivation hashes ``(parent_seed, label)`` with SHA-256 so that
    child streams are statistically independent, stable across Python
    versions (unlike ``hash()``), and insensitive to derivation order.
    """
    payload = f"{parent_seed}:{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & _MASK_64


class DeterministicRng:
    """A named, seedable random stream.

    Wraps :class:`random.Random` (Mersenne Twister) with convenience
    draws used by the simulator, and supports cheap forking of
    independent child streams via :meth:`stream`.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed & _MASK_64
        self.label = label
        self._random = random.Random(self.seed)

    def stream(self, label: str) -> "DeterministicRng":
        """Return an independent child stream named ``label``.

        Child streams depend only on this stream's *seed* and the label,
        never on how many values have already been drawn, so components
        can be created in any order.
        """
        return DeterministicRng(derive_seed(self.seed, label), label)

    # -- scalar draws -----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a float uniformly from ``[low, high)``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def exponential(self, mean: float) -> float:
        """Draw from an exponential distribution with the given mean.

        Used for Poisson inter-arrival times (Section 6 of the paper).
        """
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def zipf_index(self, n: int, alpha: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with Zipf(alpha) popularity.

        Implemented by inverse-CDF over the truncated harmonic weights;
        the CDF is cached per ``(n, alpha)`` pair because trace
        generators draw millions of indices from the same distribution.
        """
        return self.zipf_indices(n, alpha, 1)[0]

    def zipf_indices(self, n: int, alpha: float, k: int) -> List[int]:
        """``k`` draws of :meth:`zipf_index`, one ``random()`` each.

        A draw ``u`` maps to the first index whose CDF reaches it; the
        search stops at ``n - 1``, so a ``u`` above ``cdf[-1]`` (which
        floating-point summation can leave a hair below 1.0) clamps to
        the last index.
        """
        cdf = self._zipf_cdf(n, alpha)
        draw = self._random.random
        last = n - 1
        return [bisect_left(cdf, draw(), 0, last) for _ in range(k)]

    def _zipf_cdf(self, n: int, alpha: float) -> List[float]:
        key = (n, alpha)
        cache = getattr(self, "_zipf_cache", None)
        if cache is None:
            cache = {}
            self._zipf_cache = cache
        if key not in cache:
            weights = [1.0 / ((i + 1) ** alpha) for i in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w
                cdf.append(acc / total)
            cache[key] = cdf
        return cache[key]

    # -- collection draws -------------------------------------------------

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given relative weights."""
        if len(items) != len(weights):
            raise ValueError(
                f"items ({len(items)}) and weights ({len(weights)}) must "
                "have the same length"
            )
        return self._random.choices(items, weights=weights, k=1)[0]

    def weighted_indices(
        self, cum_weights: Sequence[float], k: int
    ) -> List[int]:
        """``k`` indices drawn by cumulative weight, one ``random()`` each.

        The same draws :meth:`weighted_choice` makes with the matching
        (non-cumulative) weights — ``random.choices`` accumulates them
        and bisects exactly like this — minus rebuilding the cumulative
        list on every call.
        """
        return self._random.choices(
            range(len(cum_weights)), cum_weights=cum_weights, k=k
        )

    def randoms(self, k: int) -> List[float]:
        """``k`` draws of :meth:`uniform` over ``[0, 1)``."""
        draw = self._random.random
        return [draw() for _ in range(k)]

    def sample_without_replacement(self, population: Sequence[T], k: int) -> List[T]:
        """Draw ``k`` distinct elements."""
        return self._random.sample(list(population), k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRng(seed={self.seed:#x}, label={self.label!r})"
