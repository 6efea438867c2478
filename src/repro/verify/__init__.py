"""Standing verification methodology: differential, metamorphic, fuzz.

The repo deliberately maintains redundant ways to compute the same
answer — one-pass stack-distance miss curves and per-way cache
simulation, a reference and a fast cache backend, serial and ``--jobs N``
sweeps, an inert-when-zero fault layer.  Redundancy only buys trust
when agreement is *checked*, continuously and mechanically (the
argument of the simulator-validation literature in PAPERS.md).  This
package is that check, three layers deep:

- :mod:`repro.verify.differential` — paired executions of one scenario
  (backend pair, jobs pair, faults pair, policy pair) with byte-level
  or tolerance-classed comparison of every scalar observable and
  artifact stream.
- :mod:`repro.verify.laws` — metamorphic paper-level laws that need no
  oracle: miss curves never rise with more ways, the mode-downgrade
  ladder never raises a QoS job's throughput floor, partitioned caches
  are symmetric under core permutation, the fair-queue bus conserves
  bandwidth — plus the policy conformance suite (``--policy all``):
  throughput floor, capacity conservation, actuation idempotence for
  every registered adaptive policy.
- :mod:`repro.verify.oracle` — the per-way cache-simulation oracle the
  profiler's one-pass stack-distance curves are checked against.
- :mod:`repro.verify.fuzz` — a seeded scenario fuzzer composing random
  workloads and configurations, shrinking any failure to a minimal
  replayable ``verify-case.json`` (:mod:`repro.verify.cases`).

All of it is reachable as ``repro verify {diff,laws,fuzz,replay}``.
"""

from repro.verify.cases import VerifyCase, load_case, save_case
from repro.verify.differential import (
    PAIR_NAMES,
    Scenario,
    run_diff,
    run_pair,
)
from repro.verify.fuzz import parse_budget, replay_case, run_fuzz
from repro.verify.laws import (
    LAWS,
    POLICY_LAWS,
    run_laws,
    run_policy_laws,
)
from repro.verify.oracle import simulated_miss_rates
from repro.verify.report import CheckResult, PairReport, VerifyReport

__all__ = [
    "CheckResult",
    "LAWS",
    "PAIR_NAMES",
    "POLICY_LAWS",
    "PairReport",
    "Scenario",
    "VerifyCase",
    "VerifyReport",
    "load_case",
    "parse_budget",
    "replay_case",
    "run_diff",
    "run_fuzz",
    "run_laws",
    "run_pair",
    "run_policy_laws",
    "save_case",
    "simulated_miss_rates",
]
