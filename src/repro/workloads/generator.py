"""Trace generation from weighted pattern mixtures.

A benchmark's L2 access stream is modelled as a weighted interleaving
of pattern primitives (loops, Zipf pools, streams).  Each component gets
a private, non-overlapping address region; per access, one component is
drawn by weight and asked for its next address.

Generation is batched: the component picks, the write flags and each
pattern's addresses come from independent child streams, so a batch of
``n`` draws each stream in bulk and then interleaves.  Every draw — and
so every address — is the one the per-access loop would make, and
consecutive batches continue each other exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

from repro.cpu.core import MemoryAccess
from repro.util.rng import DeterministicRng
from repro.util.validation import check_fraction, check_positive
from repro.workloads.patterns import AccessPattern


@dataclass(frozen=True)
class MixtureComponent:
    """One weighted component of a benchmark's access mixture."""

    pattern: AccessPattern
    weight: float

    def __post_init__(self) -> None:
        check_positive("weight", self.weight)


class TraceGenerator:
    """Generates a benchmark's L2 access trace for one job instance.

    Parameters
    ----------
    components:
        Weighted pattern mixture.  Patterns are bound lazily to the
        geometry passed to :meth:`bind`.
    write_fraction:
        Probability that an access is a write (creates dirty blocks and
        hence write-back traffic).
    """

    # Regions are spaced on large power-of-two boundaries so different
    # jobs' and components' addresses can never collide.
    REGION_ALIGNMENT = 1 << 26  # 64 MB

    def __init__(
        self,
        components: Sequence[MixtureComponent],
        *,
        write_fraction: float = 0.2,
    ) -> None:
        if not components:
            raise ValueError("a trace needs at least one mixture component")
        check_fraction("write_fraction", write_fraction)
        self.components: List[MixtureComponent] = list(components)
        self.write_fraction = write_fraction
        self._bound = False

    def bind(
        self,
        *,
        num_sets: int,
        block_bytes: int,
        rng: DeterministicRng,
        base_address: int = 0,
    ) -> None:
        """Bind all components to a geometry and private regions.

        ``base_address`` offsets the whole job's address space, letting
        multiple jobs share one cache without address collisions.
        """
        self._rng = rng
        region = base_address
        for index, component in enumerate(self.components):
            component.pattern.bind(
                num_sets=num_sets,
                block_bytes=block_bytes,
                region_base=region,
                rng=rng.stream(f"component-{index}"),
            )
            needed = component.pattern.region_bytes()
            slots = (needed + self.REGION_ALIGNMENT - 1) // self.REGION_ALIGNMENT
            region += max(1, slots) * self.REGION_ALIGNMENT
        # A pattern object shared by several components is one stream,
        # so it gets one slot and one batch serves all of them.
        patterns = {id(c.pattern): c.pattern for c in self.components}
        slot_of_pattern = {key: slot for slot, key in enumerate(patterns)}
        self._patterns = list(patterns.values())
        self._slot_of = [slot_of_pattern[id(c.pattern)] for c in self.components]
        self._cum_weights = list(
            accumulate(component.weight for component in self.components)
        )
        self._pick_rng = rng.stream("component-pick")
        self._write_rng = rng.stream("write-pick")
        self._bound = True

    @property
    def footprint_ways(self) -> float:
        """Total footprint of all components, in ways-worth of blocks."""
        return sum(component.pattern.footprint_ways for component in self.components)

    def accesses(self, count: int) -> Iterator[MemoryAccess]:
        """Yield ``count`` accesses from the bound mixture."""
        return (
            MemoryAccess(address, is_write=is_write)
            for address, is_write in self.address_stream(count)
        )

    def address_stream(self, count: int) -> Iterator[Tuple[int, bool]]:
        """``count`` ``(address, is_write)`` tuples (lighter than dataclasses)."""
        if not self._bound:
            raise RuntimeError("bind() must be called before generating")
        check_positive("count", count)
        components = self.components
        if len(components) == 1:
            addresses = components[0].pattern.next_addresses(count)
        else:
            picks = self._pick_rng.weighted_indices(self._cum_weights, count)
            # Each pattern emits its whole share in one batch, consumed
            # in pick order.
            shares = [0] * len(self._patterns)
            for index, slot in enumerate(self._slot_of):
                shares[slot] += picks.count(index)
            batches = [
                iter(pattern.next_addresses(share)).__next__
                for pattern, share in zip(self._patterns, shares)
            ]
            next_of = [batches[slot] for slot in self._slot_of]
            addresses = [next_of[pick]() for pick in picks]
        write_fraction = self.write_fraction
        writes = [u < write_fraction for u in self._write_rng.randoms(count)]
        return zip(addresses, writes)
