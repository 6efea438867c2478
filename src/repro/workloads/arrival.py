"""Job arrivals and deadline assignment (Section 6, "Workload Composition").

The paper assumes Poisson arrivals at the rate of a fully-utilised
128-CMP server: on a 4-core CMP, 4 × 128 jobs arrive (and probe the
LAC) per job wall-clock time.  Deadlines are assigned pseudo-randomly:
50% tight (``td - ta = 1.05 tw``), 30% moderate (``2 tw``), 20% relaxed
(``3 tw``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List

from repro.util.rng import DeterministicRng
from repro.util.validation import check_fraction, check_positive


class DeadlineClass(enum.Enum):
    """The paper's three deadline tightness classes."""

    TIGHT = "tight"
    MODERATE = "moderate"
    RELAXED = "relaxed"


#: ``(td - ta) / tw`` per class (Section 6).
DEADLINE_MULTIPLIERS = {
    DeadlineClass.TIGHT: 1.05,
    DeadlineClass.MODERATE: 2.0,
    DeadlineClass.RELAXED: 3.0,
}


@dataclass(frozen=True)
class DeadlinePolicy:
    """Pseudo-random deadline-class assignment with the paper's mix."""

    tight_fraction: float = 0.5
    moderate_fraction: float = 0.3
    relaxed_fraction: float = 0.2

    def __post_init__(self) -> None:
        check_fraction("tight_fraction", self.tight_fraction)
        check_fraction("moderate_fraction", self.moderate_fraction)
        check_fraction("relaxed_fraction", self.relaxed_fraction)
        total = (
            self.tight_fraction + self.moderate_fraction + self.relaxed_fraction
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"deadline fractions must sum to 1, got {total}")

    def assign(self, count: int, rng: DeterministicRng) -> List[DeadlineClass]:
        """Draw ``count`` deadline classes with the configured mix."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        classes = [
            DeadlineClass.TIGHT,
            DeadlineClass.MODERATE,
            DeadlineClass.RELAXED,
        ]
        fractions = (
            self.tight_fraction,
            self.moderate_fraction,
            self.relaxed_fraction,
        )
        picks = rng.weighted_indices(list(accumulate(fractions)), count)
        return [classes[i] for i in picks]

    @staticmethod
    def multiplier(deadline_class: DeadlineClass) -> float:
        """``(td - ta) / tw`` for the class."""
        return DEADLINE_MULTIPLIERS[deadline_class]

    @staticmethod
    def is_auto_downgradable(deadline_class: DeadlineClass) -> bool:
        """All-Strict+AutoDown downgrades moderate/relaxed jobs only.

        Table 2: "jobs with moderate or relaxed deadlines are
        automatically downgraded" — tight jobs have too little slack to
        run Opportunistically first.
        """
        return deadline_class in (DeadlineClass.MODERATE, DeadlineClass.RELAXED)


class PoissonArrivals:
    """Poisson process over probe/arrival instants."""

    def __init__(self, mean_interarrival: float, rng: DeterministicRng) -> None:
        check_positive("mean_interarrival", mean_interarrival)
        self.mean_interarrival = mean_interarrival
        self._rng = rng

    def next_gap(self) -> float:
        """Draw one exponential inter-arrival gap."""
        return self._rng.exponential(self.mean_interarrival)

    def times(self, count: int, *, start: float = 0.0) -> List[float]:
        """The first ``count`` arrival instants after ``start``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        times = []
        now = start
        for _ in range(count):
            now += self.next_gap()
            times.append(now)
        return times

    def stream(self, *, start: float = 0.0) -> Iterator[float]:
        """Unbounded arrival instants (generator)."""
        now = start
        while True:
            now += self.next_gap()
            yield now


def saturation_interarrival(
    job_wall_clock: float, *, cores_per_cmp: int = 4, cmp_count: int = 128
) -> float:
    """Mean inter-arrival at full server utilisation (Section 6).

    ``cores_per_cmp * cmp_count`` jobs arrive per job wall-clock time,
    so the mean gap is ``tw / (cores * cmps)`` — ``tw / 512`` for the
    paper's setup.
    """
    check_positive("job_wall_clock", job_wall_clock)
    check_positive("cores_per_cmp", cores_per_cmp)
    check_positive("cmp_count", cmp_count)
    return job_wall_clock / (cores_per_cmp * cmp_count)
