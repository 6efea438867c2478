"""The serve-burst workload: a fresh ``repro serve`` driven open-loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import openloop
from common import (
    Probe,
    median,
    nearest_rank,
    search_max_rate,
    tail_percentile,
)

HOST = "127.0.0.1"
#: Deployment: the CLI defaults, except the modelled in-flight limit is
#: lifted so that only queue depth and loop lag can shed.
SERVER_ARGS = ["--port", "0", "--max-inflight", "1000000"]
CONNECTIONS = 2
LOW_RPS = 400.0
HIGH_RPS = 1000.0
#: The latency limit ``max_rate_rps`` is searched against.
P99_LIMIT_MS = 25.0
RATE_REQUESTS = 1200  # >= 1000, so at least ten samples lie beyond p99
SEARCH_LOW_RPS = 500.0
SEARCH_HIGH_RPS = 4000.0
SEARCH_STEPS = 5
BURST_REQUESTS = 2000
SHED_REASONS = ("queue-full", "overload", "breaker", "deadline", "draining")


def schedule(seed: int, rate: float, requests: int,
             burst: bool = False) -> List[Tuple[float, bytes]]:
    """Requests from ``repro.serve.loadgen.build_schedule`` (Zipf
    tenants, on/off bursts) at ``rate``; ``burst`` makes every request
    due at once."""
    from repro.serve.loadgen import LoadConfig, build_schedule

    items = build_schedule(
        LoadConfig(seed=seed, requests=requests, mean_rate=rate)
    )
    return [(0.0 if burst else item.at, openloop.encode_admit(item.payload))
            for item in items]


@dataclass
class RateResult:
    name: str
    rate: float
    replay: openloop.Replay
    pct: float = 0.0
    p50_ms: float = 0.0
    tail_ms: float = 0.0
    late_p99_ms: float = 0.0
    valid: bool = True

    @classmethod
    def of(cls, name: str, rate: float, replay: openloop.Replay):
        result = cls(name, rate, replay)
        if replay.latencies_s:
            result.pct, tail, _n = tail_percentile(replay.latencies_s)
            result.tail_ms = tail * 1e3
            result.p50_ms = nearest_rank(replay.latencies_s, 50) * 1e3
            result.late_p99_ms = nearest_rank(replay.lateness_s, 99) * 1e3
        # A generator that fell further behind than the latency limit
        # measured itself, not the server.
        result.valid = result.late_p99_ms <= P99_LIMIT_MS
        return result


@dataclass
class ServeRun:
    setup_s: List[float] = field(default_factory=list)
    maxrss_mb: float = 0.0
    bursts: List[openloop.Replay] = field(default_factory=list)
    rates: Dict[str, RateResult] = field(default_factory=dict)
    probes: List[Probe] = field(default_factory=list)
    max_rate_rps: float = 0.0
    ledger: openloop.Replay = field(default_factory=openloop.Replay)
    problems: List[str] = field(default_factory=list)

    @property
    def burst_wall_s(self) -> float:
        return median(b.wall_s for b in self.bursts)


def start(run: ServeRun, env, work: Path, traced: bool = False,
          timed: bool = True) -> harness.Server:
    server = harness.start_server(SERVER_ARGS, env, work, traced)
    if timed:
        run.setup_s.append(server.started_s)
    return server


def stop(run: ServeRun, server: harness.Server, offered: int) -> None:
    """Drain the server and check its ledger against the client's."""
    stats = openloop.fetch_stats(HOST, server.port)
    code, rss, tail = server.stop()
    run.maxrss_mb = max(run.maxrss_mb, rss)
    if code != 0:
        run.problems.append(f"server exit {code}: {tail[-200:]}")
    if offered == 0:
        return
    if stats is None:
        run.problems.append("no /stats answer")
        return
    acct = stats["accounting"]
    client = run.ledger
    if not acct["conserves"] or not client.conserves:
        run.problems.append("admitted + rejected + shed != offered")
    if acct["unhandled_errors"] != 0:
        run.problems.append(f"{acct['unhandled_errors']} unhandled errors")
    server_view = tuple(acct[k] for k in ("offered", "admitted", "rejected",
                                          "shed"))
    client_view = (offered, client.admitted, client.rejected, client.shed)
    if server_view != client_view:
        run.problems.append(
            f"server ledger {server_view} != client ledger {client_view}"
        )


def offer(run: ServeRun, server: harness.Server,
          items) -> openloop.Replay:
    replay = openloop.run_replay(HOST, server.port, items,
                                 connections=CONNECTIONS)
    run.ledger.add(replay)
    return replay


def burst_items(seed: int, index: int):
    return schedule(seed * 1000 + 100 + index, HIGH_RPS, BURST_REQUESTS,
                    burst=True)


def measure(seed: int, seconds: float, work: Path,
            setups: int) -> ServeRun:
    """Untraced run: set-up times, the two fixed rates, the rate search
    and a fixed number of saturating bursts between those steps, so the
    bursts sample the whole run.  ``seconds`` sets the burst count."""
    run = ServeRun()
    env = harness.child_env(work)
    per_step = max(1, int(seconds // 20))

    def bursts() -> None:
        for _ in range(per_step):
            run.bursts.append(
                offer(run, server, burst_items(seed, len(run.bursts))))

    # The first start also writes bytecode caches; users pay that once.
    stop(run, start(run, env, work, timed=False), 0)
    early = setups // 2 + 1
    for _ in range(early - 1):
        stop(run, start(run, env, work), 0)
    server = start(run, env, work)
    try:
        bursts()
        for name, rate, offset in (("low", LOW_RPS, 1), ("high", HIGH_RPS, 2)):
            replay = offer(run, server,
                           schedule(seed * 1000 + offset, rate, RATE_REQUESTS))
            run.rates[name] = RateResult.of(name, rate, replay)
            bursts()

        probed: List[RateResult] = []

        def probe(rate: float) -> Probe:
            replay = offer(run, server, schedule(
                seed * 1000 + 10 + len(probed), rate, RATE_REQUESTS))
            result = RateResult.of("probe", rate, replay)
            probed.append(result)
            bursts()
            failed = (replay.shed + replay.transport_errors) / replay.offered
            return Probe(rate, result.tail_ms, failed,
                         openloop.lateness_growing(replay.lateness_s,
                                                   P99_LIMIT_MS / 10))

        run.max_rate_rps, run.probes = search_max_rate(
            probe, low=SEARCH_LOW_RPS, high=SEARCH_HIGH_RPS,
            steps=SEARCH_STEPS, p99_limit_ms=P99_LIMIT_MS,
        )
        # A search that stops early still leaves the same burst count,
        # so the server's memory is compared after the same work.
        while len(run.bursts) < per_step * (4 + SEARCH_STEPS):
            bursts()
    finally:
        stop(run, server, run.ledger.offered)
    # The rest of the set-ups at the end, so they sample the whole run.
    for _ in range(setups - early):
        stop(run, start(run, env, work), 0)
    return run


def measure_traced(seed: int, work: Path, bursts: int,
                   spans_path: Path) -> Tuple[ServeRun, ServeRun]:
    """The same bursts against an untraced and then a traced server, so
    the traced one's spans can be clipped to its burst windows."""
    plain = ServeRun()
    env = harness.child_env(work)
    stop(plain, start(plain, env, work, timed=False), 0)
    server = start(plain, env, work)
    try:
        for name, rate, offset in (("low", LOW_RPS, 1), ("high", HIGH_RPS, 2)):
            replay = offer(plain, server,
                           schedule(seed * 1000 + offset, rate, RATE_REQUESTS))
            plain.rates[name] = RateResult.of(name, rate, replay)
        for index in range(bursts):
            plain.bursts.append(
                offer(plain, server, burst_items(seed, index)))
    finally:
        stop(plain, server, plain.ledger.offered)

    traced = ServeRun()
    env = harness.child_env(work, PERFBENCH_TRACE_OUT=str(spans_path))
    server = start(traced, env, work, traced=True)
    try:
        for index in range(bursts):
            traced.bursts.append(
                offer(traced, server, burst_items(seed, index)))
    finally:
        stop(traced, server, traced.ledger.offered)
    return plain, traced


def shed_counts(replay: openloop.Replay) -> Dict[str, int]:
    return {reason: replay.by_outcome.get(f"shed-{reason}", 0)
            for reason in SHED_REASONS}


def percentile_ms(values: List[float], pct: float) -> float:
    return nearest_rank(values, pct) * 1e3 if values else 0.0
