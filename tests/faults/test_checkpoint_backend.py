"""Checkpoint v2 compatibility without a session-wide backend switch.

v2 checkpoints carry a ``cache_backend`` field naming the kernel the
session's switch selected (including a numpy kernel since deleted),
and their pickled ``MachineConfig`` carried a ``cache_backend`` field
of its own.  The analytic simulator builds no cache, so neither value
can change a replay: these tests pin that such files still load and
resume exactly, that new checkpoints keep the v2 layout, and the
version gate that keeps pre-backend (v1) checkpoints from being
resumed silently.
"""

import dataclasses
import pickle

import pytest

from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    SimulationCheckpoint,
    checkpoint_simulator,
    load_checkpoint,
    resume_simulator,
)
from repro.sim.config import MachineConfig, SimulationConfig
from repro.core.config import ALL_STRICT
from repro.sim.engine import RunBudget
from repro.sim.system import QoSSystemSimulator
from repro.workloads.composer import single_benchmark_workload

from tests.faults.test_system_faults import signature

SIM = SimulationConfig()


def make_simulator(fake_curves):
    workload = single_benchmark_workload("bzip2", ALL_STRICT)
    return QoSSystemSimulator(workload, curves=fake_curves, sim_config=SIM)


def write_legacy_checkpoint(simulator, backend, path):
    """Pickle a v2 checkpoint of ``simulator`` the way it used to be
    written: ``backend`` on the checkpoint, and the machine's old
    ``cache_backend`` field as an attribute the class no longer has."""
    machine = MachineConfig()
    object.__setattr__(machine, "cache_backend", backend)
    legacy = dataclasses.replace(
        checkpoint_simulator(simulator),
        machine=machine,
        cache_backend=backend,
    )
    with open(path, "wb") as handle:
        pickle.dump(legacy, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


class TestLegacyCheckpoints:
    @pytest.mark.parametrize("backend", ["reference", "fast", "fast-vec"])
    def test_legacy_v2_checkpoint_resumes_exactly(
        self, fake_curves, tmp_path, backend
    ):
        uninterrupted = make_simulator(fake_curves).run()
        simulator = make_simulator(fake_curves)
        simulator.run(budget=RunBudget(max_events=80))
        path = write_legacy_checkpoint(
            simulator, backend, tmp_path / f"{backend}.ckpt"
        )

        loaded = load_checkpoint(path)
        assert loaded.version == 2
        assert loaded.cache_backend == backend
        assert loaded.machine.__dict__["cache_backend"] == backend
        resumed = resume_simulator(loaded, curves=fake_curves)
        assert signature(resumed.run()) == signature(uninterrupted)

    def test_new_checkpoints_record_fast(self, fake_curves):
        simulator = make_simulator(fake_curves)
        simulator.run(budget=RunBudget(max_events=40))
        checkpoint = checkpoint_simulator(simulator)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.cache_backend == "fast"
        assert "cache_backend" not in checkpoint.machine.__dict__


class TestVersionGate:
    def test_pre_backend_checkpoints_are_rejected(self, fake_curves, tmp_path):
        simulator = make_simulator(fake_curves)
        simulator.run(budget=RunBudget(max_events=40))
        stale = dataclasses.replace(
            checkpoint_simulator(simulator), version=1
        )
        path = tmp_path / "stale.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(stale, handle)
        with pytest.raises(ValueError, match="version 1"):
            load_checkpoint(path)

    def test_current_version_is_two(self):
        assert CHECKPOINT_VERSION == 2
        assert SimulationCheckpoint.__dataclass_fields__[
            "cache_backend"
        ].default == "reference"
