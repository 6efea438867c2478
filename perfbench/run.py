"""End-to-end and per-layer benchmark of the figure pipeline and the
admission server.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figs-warm --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload untraced once and traced once and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
fuller record, with the host, goes to ``.perfbench/results/``.
README.md in this directory defines every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"

WORKLOADS = ("fig7-cold", "figs-warm", "serve-burst")
SETUP_REPEATS = 5
MIN_PASSES = 2
TRACED_BURSTS = 5

Measured = Dict[str, Tuple[float, str]]


class Outcome:
    """Everything one workload run reports."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Measured = {}  # the gated ones, in the JSON line
        self.printed: Measured = {}  # printed with units, not gated
        self.details: Dict[str, object] = {}  # the record file only

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def to_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def traced_metrics(metrics: Dict[str, float]) -> Measured:
    from layers import METRICS

    return {name: (metrics.get(name, 0.0), unit) for name, unit in METRICS}


# -- figure workloads -------------------------------------------------------------


def fig_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> Outcome:
    import figs
    import harness
    from common import median
    from layers import load, per_layer

    out = Outcome(workload)
    commands = list(figs.WORKLOADS[workload])
    # The seed only rotates the command order: the figure configurations
    # are the paper's, and their outputs are pinned by references.
    shift = seed % len(commands)
    commands = commands[shift:] + commands[:shift]

    setup_work = scratch / "setup"
    setup_work.mkdir()
    env = harness.child_env(setup_work)
    harness.time_cli_ready(env, setup_work)  # writes bytecode caches
    warm = (None if workload == "fig7-cold"
            else figs.warm_store(STATE_DIR, scratch))

    def one_pass(index: int, traced: bool) -> "figs.Pass":
        result = figs.run_pass(workload, commands, scratch / f"pass{index}",
                               warm, traced)
        out.attempted += len(result.commands)
        for run in result.commands:
            if run.problems:
                out.failed += 1
                out.problems += [f"{run.command.slug}: {p}"
                                 for p in run.problems]
        return result

    if trace:
        plain = one_pass(0, False)
        traced = one_pass(1, True)
        out.metrics = traced_metrics(per_layer(
            load(run.spans_path for run in traced.commands),
            traced.windows, traced.wall_s, plain.wall_s,
        ))
        return out

    # Set-up samples are taken before each pass and topped up at the
    # end, so they sample the whole run rather than its first seconds.
    setups = []
    passes = []
    began = time.perf_counter()
    while True:
        setups.append(harness.time_cli_ready(env, setup_work)[0])
        passes.append(one_pass(len(passes), False))
        shutil.rmtree(scratch / f"pass{len(passes) - 1}")
        elapsed = time.perf_counter() - began
        if (len(passes) >= MIN_PASSES
                and elapsed + passes[-1].wall_s > seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(harness.time_cli_ready(env, setup_work)[0])

    sims = [figs.sim_outcome(p.commands) for p in passes]
    sim = sims[0]
    if any(other != sim for other in sims):
        out.problems.append("simulated outcomes differ between passes")
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (max(p.maxrss_mb for p in passes), "MB"),
    }
    out.printed = {
        "qos_deadline_hit_rate": (sim.hit_rate, "ratio"),
        "deadline_jobs": (sim.considered, "count"),
        "sim_makespan_mcycles": (sim.makespan_mcycles, "Mcycles"),
    }
    out.details = {"setup_s": setups,
                   "pass_wall_s": [p.wall_s for p in passes]}
    return out


# -- serve workload -----------------------------------------------------------------


def serve_workload(seed: int, seconds: float, trace: bool,
                   scratch: Path) -> Outcome:
    import serveburst as sb
    from common import median
    from layers import load, per_layer

    out = Outcome("serve-burst")
    if trace:
        spans = scratch / "server-spans.json"
        plain, traced = sb.measure_traced(seed, scratch, TRACED_BURSTS, spans)
        for run in (plain, traced):
            out.attempted += run.ledger.offered
            out.failed += run.ledger.transport_errors + run.ledger.shed
            out.problems += run.problems
        metrics = per_layer(
            load([spans]), [b.window for b in traced.bursts],
            sum(b.wall_s for b in traced.bursts),
            sum(b.wall_s for b in plain.bursts),
        )
        high = plain.rates["high"]
        metrics["serve.server_ms_p99"] = sb.percentile_ms(
            high.replay.server_latencies_s, 99)
        metrics["serve.transport_ms_p99"] = sb.percentile_ms(
            high.replay.transport_s, 99)
        metrics["loadgen.late_ms_p99"] = high.late_p99_ms
        for run in (plain, traced):
            for reason, count in sb.shed_counts(run.ledger).items():
                key = f"serve.shed.{reason}"
                metrics[key] = metrics.get(key, 0) + count
        out.metrics = traced_metrics(metrics)
        return out

    run = sb.measure(seed, seconds, scratch, SETUP_REPEATS)
    out.problems += run.problems
    out.attempted = run.ledger.offered
    # Sheds while probing above the knee are how the search finds it.
    measured = [r.replay for r in run.rates.values()] + run.bursts
    out.failed = run.ledger.transport_errors + sum(r.shed for r in measured)
    out.metrics = {
        "setup_s": (median(run.setup_s), "s"),
        "wall_s": (run.burst_wall_s, "s"),
        "peak_rss_mb": (run.maxrss_mb, "MB"),
    }
    for name, result in run.rates.items():
        out.printed[f"lat_p50_ms.{name}"] = (result.p50_ms, "ms")
        out.printed[f"lat_p{result.pct:g}_ms.{name}"] = (result.tail_ms, "ms")
        out.printed[f"lat_samples.{name}"] = (
            len(result.replay.latencies_s), "count")
        out.printed[f"loadgen.late_ms_p99.{name}"] = (result.late_p99_ms,
                                                      "ms")
        if not result.valid:
            out.details[f"invalid.{result.name}"] = (
                f"generator p99 lateness {result.late_p99_ms:.1f} ms exceeds "
                f"the {sb.P99_LIMIT_MS} ms limit"
            )
    out.printed["max_rate_rps"] = (run.max_rate_rps, "req/s")
    out.details.update({
        "setup_s": run.setup_s,
        "offered_rps": {name: r.rate for name, r in run.rates.items()},
        "max_rate_p99_limit_ms": sb.P99_LIMIT_MS,
        "probes": [p.__dict__ for p in run.probes],
        "burst_requests": sb.BURST_REQUESTS,
        "burst_wall_s": [b.wall_s for b in run.bursts],
    })
    return out


# -- driver --------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool
            ) -> Outcome:
    scratch = STATE_DIR / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if workload == "serve-burst":
            return serve_workload(seed, seconds, trace, scratch)
        return fig_workload(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(out: Outcome, args: argparse.Namespace, host: Dict) -> None:
    """Print every metric with its unit and keep the full record."""
    print(f"== {out.workload} (seed {args.seed}, trace {args.trace}) ==")
    printed = dict(out.metrics)
    printed.update(out.printed)
    printed["failed_fraction"] = (out.failed / max(out.attempted, 1),
                                  "ratio")
    for name, (value, unit) in printed.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"operations = {out.attempted} attempted, {out.failed} failed")
    if args.trace:
        selves = sum(value for name, (value, _unit) in out.metrics.items()
                     if name.endswith(".self_s"))
        print(f"check: sum of self_s + unaccounted_s = "
              f"{selves + out.metrics['unaccounted_s'][0]:.6g} s, "
              f"trace.wall_s = {out.metrics['trace.wall_s'][0]:.6g} s")
    for problem in out.problems:
        print(f"PROBLEM: {problem}")
    record = dict(out.to_json(), workload=out.workload, host=host,
                  printed={k: {"value": v, "unit": u}
                           for k, (v, u) in printed.items()},
                  details=out.details, problems=out.problems,
                  seconds=args.seconds, trace=args.trace)
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{out.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The harness itself uses the checkout's loadgen schedule builder and
    # obs validators.
    sys.path.insert(0, str(ROOT / "src"))
    from common import host_record

    host = host_record(str(ROOT), args.seed)
    print("host: " + json.dumps(host, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        outcomes.append(run_one(name, args.seed, args.seconds,
                                bool(args.trace)))
        report(outcomes[-1], args, host)
    if len(outcomes) == 1:
        final = outcomes[0].to_json()
    else:
        final = {
            "correct": all(o.correct for o in outcomes),
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {
                f"{o.workload}/{name}": {"value": value, "unit": unit}
                for o in outcomes for name, (value, unit) in o.metrics.items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
