"""Access-pattern primitives for synthetic traces.

Each pattern emits block-aligned byte addresses inside its own private
region of the address space.  Footprints are specified in *ways-worth of
blocks*: a footprint of 6.0 means the pattern touches
``6.0 * num_sets`` distinct blocks spread evenly over the sets, i.e. it
needs 6 ways per set to be fully cache-resident.  Specifying footprints
this way makes miss-ratio curves (misses vs allocated ways) invariant
to the set count, so profiling can run on a scaled-down geometry.

Three primitives cover the behaviours needed to reproduce the paper's
sensitivity classes (Figure 4):

- :class:`LoopPattern` — cyclic sweep over its footprint.  Under LRU it
  is all-or-nothing: hits when the footprint fits the allocation,
  misses when it does not (the classic LRU cliff).
- :class:`ZipfPattern` — popularity-skewed random accesses.  Produces
  smooth, concave miss-ratio curves; the workhorse for cache-sensitive
  benchmarks.
- :class:`StreamingPattern` — ever-advancing addresses with no reuse.
  Misses at any allocation; the workhorse for cache-insensitive
  benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.util.rng import DeterministicRng
from repro.util.validation import check_positive


class AccessPattern(ABC):
    """A stateful generator of block addresses within a private region.

    ``bind`` fixes the cache geometry (set count, block size) and the
    region base address; ``next_address`` then yields addresses one at a
    time and ``next_addresses`` a batch of them.  A batch of ``k`` is
    exactly the next ``k`` single addresses — same draws from the
    pattern's own stream, same final state — so trace generators can
    pull in bulk without changing a single address.
    """

    def __init__(self, footprint_ways: float) -> None:
        check_positive("footprint_ways", footprint_ways)
        self.footprint_ways = footprint_ways
        self._bound = False

    def bind(
        self,
        *,
        num_sets: int,
        block_bytes: int,
        region_base: int,
        rng: DeterministicRng,
    ) -> None:
        """Materialise the pattern for a concrete geometry and region."""
        check_positive("num_sets", num_sets)
        check_positive("block_bytes", block_bytes)
        self.num_sets = num_sets
        self.block_bytes = block_bytes
        self.region_base = region_base
        self.rng = rng
        self.num_blocks = max(1, round(self.footprint_ways * num_sets))
        self._bound = True
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclass state initialisation after binding."""

    def region_bytes(self) -> int:
        """Size of the private address region this pattern needs."""
        if not self._bound:
            raise RuntimeError("pattern must be bound before use")
        return self.num_blocks * self.block_bytes

    def _block_to_address(self, block_index: int) -> int:
        """Map a logical block index to a byte address in the region.

        Consecutive logical blocks map to consecutive sets, so a
        footprint of W ways occupies exactly W blocks in every set —
        the property that makes footprints way-denominated.
        """
        return self.region_base + block_index * self.block_bytes

    @abstractmethod
    def next_address(self) -> int:
        """Return the next byte address of the pattern."""

    def next_addresses(self, k: int) -> List[int]:
        """The next ``k`` addresses, as ``k`` calls to :meth:`next_address`."""
        next_address = self.next_address
        return [next_address() for _ in range(k)]

    def _cyclic_run(self, k: int, stride: int = 1) -> List[int]:
        """``k`` cursor steps of ``stride`` blocks, wrapping; advances ``_cursor``."""
        base, block_bytes, num_blocks = (
            self.region_base, self.block_bytes, self.num_blocks
        )
        start = self._cursor
        self._cursor = (start + k * stride) % num_blocks
        return [
            base + (index % num_blocks) * block_bytes
            for index in range(start, start + k * stride, stride)
        ]


class LoopPattern(AccessPattern):
    """Cyclic sequential sweep over the footprint (LRU cliff behaviour)."""

    def _on_bind(self) -> None:
        self._cursor = 0

    def next_address(self) -> int:
        address = self._block_to_address(self._cursor)
        self._cursor = (self._cursor + 1) % self.num_blocks
        return address

    def next_addresses(self, k: int) -> List[int]:
        return self._cyclic_run(k)


class ZipfPattern(AccessPattern):
    """Zipf-popular random accesses over the footprint.

    ``alpha`` controls skew: larger alpha concentrates accesses on a
    hotter head, making the pattern *more* tolerant of small
    allocations (the hot head fits first).
    """

    def __init__(self, footprint_ways: float, *, alpha: float = 1.0) -> None:
        super().__init__(footprint_ways)
        check_positive("alpha", alpha)
        self.alpha = alpha

    def _on_bind(self) -> None:
        # Scatter popularity ranks over the region so that hot blocks are
        # spread across sets rather than clustered in the first sets.
        rank_to_block = list(range(self.num_blocks))
        self.rng.shuffle(rank_to_block)
        self._rank_to_address = [
            self._block_to_address(block) for block in rank_to_block
        ]

    def next_address(self) -> int:
        rank = self.rng.zipf_index(self.num_blocks, self.alpha)
        return self._rank_to_address[rank]

    def next_addresses(self, k: int) -> List[int]:
        rank_to_address = self._rank_to_address
        return [
            rank_to_address[rank]
            for rank in self.rng.zipf_indices(self.num_blocks, self.alpha, k)
        ]


class PhasedPattern(AccessPattern):
    """Alternates between sub-patterns every ``phase_length`` accesses.

    Models program *phases* — e.g. a build phase streaming through a
    structure followed by a compute phase looping over a hot set.
    Phase changes are what stress the resource-stealing controller's
    cancel path: capacity that looked excess in one phase becomes hot
    in the next, the shadow tags register the miss surge, and the
    stolen ways snap back.

    The pattern's footprint is the maximum of its phases' footprints
    (phases reuse one region, as a real program's address space does).
    """

    def __init__(
        self,
        phases: Sequence[AccessPattern],
        *,
        phase_length: int = 2_048,
    ) -> None:
        if not phases:
            raise ValueError("PhasedPattern needs at least one phase")
        check_positive("phase_length", phase_length)
        super().__init__(max(p.footprint_ways for p in phases))
        self.phases = list(phases)
        self.phase_length = phase_length

    def _on_bind(self) -> None:
        for index, phase in enumerate(self.phases):
            phase.bind(
                num_sets=self.num_sets,
                block_bytes=self.block_bytes,
                region_base=self.region_base,
                rng=self.rng.stream(f"phase-{index}"),
            )
        self._current = 0
        self._remaining = self.phase_length

    @property
    def current_phase(self) -> int:
        """Index of the phase currently generating accesses."""
        return self._current

    def next_address(self) -> int:
        if self._remaining == 0:
            self._current = (self._current + 1) % len(self.phases)
            self._remaining = self.phase_length
        self._remaining -= 1
        return self.phases[self._current].next_address()

    def next_addresses(self, k: int) -> List[int]:
        # Whole runs per phase: each phase draws only from its own
        # stream, so batching a run changes no address.
        addresses: List[int] = []
        while k > 0:
            if self._remaining == 0:
                self._current = (self._current + 1) % len(self.phases)
                self._remaining = self.phase_length
            run = min(k, self._remaining)
            addresses += self.phases[self._current].next_addresses(run)
            self._remaining -= run
            k -= run
        return addresses


class StreamingPattern(AccessPattern):
    """No-reuse streaming: advances forever through a wrapping window.

    The footprint sets the wrap window (kept much larger than any
    realistic allocation), so by the time the stream wraps, its old
    blocks have long been evicted — every access misses regardless of
    the partition size.
    """

    def __init__(self, footprint_ways: float = 256.0) -> None:
        super().__init__(footprint_ways)

    def _on_bind(self) -> None:
        self._cursor = 0
        # Stride by an odd number of blocks so consecutive accesses land
        # in different sets (like a real streaming kernel's cache walk).
        self._stride = 1

    def next_address(self) -> int:
        address = self._block_to_address(self._cursor)
        self._cursor = (self._cursor + self._stride) % self.num_blocks
        return address

    def next_addresses(self, k: int) -> List[int]:
        return self._cyclic_run(k, self._stride)
