"""Tests for the mixture trace generator."""

import pytest

from repro.util.rng import DeterministicRng
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.generator import MixtureComponent, TraceGenerator
from repro.workloads.patterns import (
    LoopPattern,
    PhasedPattern,
    StreamingPattern,
    ZipfPattern,
)


def make_generator(write_fraction=0.2):
    return TraceGenerator(
        [
            MixtureComponent(LoopPattern(2.0), 0.5),
            MixtureComponent(ZipfPattern(1.0), 0.3),
            MixtureComponent(StreamingPattern(8.0), 0.2),
        ],
        write_fraction=write_fraction,
    )


def bind(generator, *, num_sets=8, seed=1, base=0):
    generator.bind(
        num_sets=num_sets,
        block_bytes=64,
        rng=DeterministicRng(seed, "test"),
        base_address=base,
    )
    return generator


class TestConstruction:
    def test_needs_components(self):
        with pytest.raises(ValueError):
            TraceGenerator([])

    def test_write_fraction_validated(self):
        with pytest.raises(ValueError):
            TraceGenerator(
                [MixtureComponent(LoopPattern(1.0), 1.0)], write_fraction=1.5
            )

    def test_component_weight_positive(self):
        with pytest.raises(ValueError):
            MixtureComponent(LoopPattern(1.0), 0.0)

    def test_footprint_sums_components(self):
        assert make_generator().footprint_ways == pytest.approx(11.0)


class TestGeneration:
    def test_unbound_generator_rejects(self):
        with pytest.raises(RuntimeError):
            list(make_generator().accesses(1))

    def test_generates_requested_count(self):
        generator = bind(make_generator())
        assert len(list(generator.accesses(100))) == 100

    def test_deterministic_given_seed(self):
        a = bind(make_generator(), seed=3)
        b = bind(make_generator(), seed=3)
        assert list(a.address_stream(200)) == list(b.address_stream(200))

    def test_write_fraction_approximated(self):
        generator = bind(make_generator(write_fraction=0.3))
        writes = sum(
            1 for access in generator.accesses(3000) if access.is_write
        )
        assert 0.2 < writes / 3000 < 0.4

    def test_zero_write_fraction(self):
        generator = bind(make_generator(write_fraction=0.0))
        assert not any(a.is_write for a in generator.accesses(500))


class TestRegionIsolation:
    def test_components_never_share_addresses(self):
        generator = bind(make_generator())
        regions = []
        for component in generator.components:
            base = component.pattern.region_base
            regions.append((base, base + component.pattern.region_bytes()))
        regions.sort()
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2

    def test_two_jobs_with_different_bases_do_not_collide(self):
        a = bind(make_generator(), base=0)
        b = bind(make_generator(), base=1 << 32)
        addresses_a = {access.address for access in a.accesses(500)}
        addresses_b = {access.address for access in b.accesses(500)}
        assert not addresses_a & addresses_b

    def test_single_component_fast_path(self):
        generator = TraceGenerator(
            [MixtureComponent(LoopPattern(1.0), 1.0)]
        )
        bind(generator, num_sets=4)
        addresses = [a.address for a in generator.accesses(8)]
        assert addresses[:4] == addresses[4:]


def per_access_stream(generator, count):
    """The per-access generation loop, kept as the draw-identity oracle.

    One weighted pick, one ``next_address()`` and one write draw per
    access, interleaved — what :meth:`TraceGenerator.address_stream`
    did before it drew each child stream in bulk.
    """
    components = generator.components
    weights = [component.weight for component in components]
    stream = []
    for _ in range(count):
        if len(components) == 1:
            component = components[0]
        else:
            component = generator._pick_rng.weighted_choice(
                components, weights
            )
        stream.append(
            (
                component.pattern.next_address(),
                generator._write_rng.uniform() < generator.write_fraction,
            )
        )
    return stream


def phased_generator():
    return TraceGenerator(
        [
            MixtureComponent(
                PhasedPattern(
                    [ZipfPattern(3.0, alpha=0.8), LoopPattern(2.0)],
                    phase_length=37,
                ),
                0.6,
            ),
            MixtureComponent(StreamingPattern(16.0), 0.4),
        ],
        write_fraction=0.35,
    )


def single_zipf_generator():
    return TraceGenerator([MixtureComponent(ZipfPattern(4.0), 1.0)])


def shared_pattern_generator():
    shared = ZipfPattern(2.0)
    return TraceGenerator(
        [
            MixtureComponent(shared, 0.5),
            MixtureComponent(LoopPattern(1.0), 0.2),
            MixtureComponent(shared, 0.3),
        ]
    )


GENERATORS = {
    "mixture": make_generator,
    "phased": phased_generator,
    "single-zipf": single_zipf_generator,
    "single-loop": lambda: TraceGenerator(
        [MixtureComponent(LoopPattern(3.0), 1.0)], write_fraction=0.5
    ),
    "shared-pattern": shared_pattern_generator,
}
GENERATORS.update(
    (f"profile-{name}", profile.make_generator)
    for name, profile in BENCHMARKS.items()
)


class TestBatchedDrawIdentity:
    """Batched generation makes exactly the per-access loop's draws."""

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_batch_equals_per_access_loop(self, kind):
        batched = bind(GENERATORS[kind](), num_sets=16, seed=11)
        looped = bind(GENERATORS[kind](), num_sets=16, seed=11)
        for count in (1, 700, 2_300):
            assert list(batched.address_stream(count)) == per_access_stream(
                looped, count
            )

    @pytest.mark.parametrize("kind", ["mixture", "phased", "profile-mcf"])
    @pytest.mark.parametrize("first,second", [(1, 1), (1_024, 1_024), (5, 997)])
    def test_chunks_continue_each_other(self, kind, first, second):
        chunked = bind(GENERATORS[kind](), seed=4)
        whole = bind(GENERATORS[kind](), seed=4)
        assert list(chunked.address_stream(first)) + list(
            chunked.address_stream(second)
        ) == list(whole.address_stream(first + second))

    def test_accesses_wrap_the_batched_stream(self):
        a = bind(phased_generator(), seed=9)
        b = bind(phased_generator(), seed=9)
        assert [
            (access.address, access.is_write) for access in a.accesses(600)
        ] == list(b.address_stream(600))

    def test_count_validated(self):
        with pytest.raises(ValueError):
            bind(make_generator()).address_stream(0)
