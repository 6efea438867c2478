#!/usr/bin/env python
"""Performance trajectory bench for the simulation kernel.

Times the pieces of the performance layer on a fixed workload:

1. **Kernel** — the same generated trace pushed through the reference
   object-model L2 and the fast flat-state kernel (accesses/sec each,
   and the counters are asserted identical while we're at it).
2. **Vectorised kernel** — the numpy batch LRU kernel (``fast-vec``)
   against reference and fast on single caches, at a narrow and a wide
   geometry, because its win is regime-dependent: rounds are as wide as
   the number of distinct sets touched, so it pays off on wide caches
   and loses to the scalar kernel on narrow ones.  Counters are gated,
   speed is reported honestly but not gated.
3. **Parallel executor** — a multi-benchmark sweep of per-way
   cache-simulation profiles (the oracle of
   :mod:`repro.verify.oracle`, on the reference kernel) run through the
   persistent worker pool at jobs ∈ {1, 2, 4, 8} (clamped to the
   affinity-visible CPU count), with per-jobs speedup and efficiency.
   Scaling floors only apply when the runner actually has more than
   one visible CPU; on a cpuset-limited single-CPU container only the
   serial/parallel identity check is meaningful.
4. **Miss-curve cache** — a cold profiling pass vs a warm re-run
   served from the on-disk store.
5. **Profiling** — the one-pass stack-distance profiler against the
   per-way cache oracle (reference and fast kernels) on mcf, gcc and
   libquantum, with an exact-equality gate; the same sweep as (3)
   through the one-pass profiler at jobs=2; and the wall time of a
   cold ``repro fig7 Mix-1`` in a fresh interpreter on empty stores
   (and, with ``--baseline-src``, of the same command on another
   checkout's ``src/`` for a before/after pair), with the host.

Writes ``BENCH_perf.json`` so successive commits leave a perf
trajectory, and exits non-zero when a gated number regresses — CI runs
``--smoke`` so a kernel regression fails the build.  With ``--stamp``
(epoch seconds) and ``--git-rev`` the run is also appended as one
history-schema record to ``BENCH_history.jsonl``, so the trajectory is
plottable with the ``repro.obs.timeseries`` loaders; both values are
passed in rather than read in-process, keeping the bench clock-free.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py [--smoke] \\
        [--baseline-src OTHER_CHECKOUT/src] \\
        [--stamp "$(date +%s)" --git-rev "$(git rev-parse HEAD)"]
"""

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import misscache
from repro.analysis.parallel import parallel_map, visible_cpu_count
from repro.obs.timeseries import HistoryWriter, history_point
from repro.cache.backend import make_cache, make_partitioned_cache
from repro.cache.fastsim_vec import HAS_NUMPY
from repro.cache.geometry import CacheGeometry
from repro.cache.partitioned import PartitionClass
from repro.util.rng import DeterministicRng
from repro.verify.oracle import simulated_miss_rates
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.profiler import (
    clear_curve_cache,
    get_curve,
    measure_miss_rates,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks spanning the paper's three sensitivity groups.
SWEEP_BENCHMARKS = ("bzip2", "hmmer", "gobmk", "sjeng")

#: Candidate worker counts for the jobs sweep, clamped to visible CPUs.
JOBS_CANDIDATES = (1, 2, 4, 8)

#: Profiles the profiling section times: the slowest curves to build
#: (large Zipf pools, many components) and a streaming-heavy one.
PROFILING_BENCHMARKS = ("mcf", "gcc", "libquantum")


def generate_trace(accesses, num_sets, block_bytes, num_cores, seed=2024):
    """A deterministic multi-core trace from the bzip2 mixture."""
    profile = get_benchmark("bzip2")
    addresses, writes, cores = [], [], []
    for core in range(num_cores):
        generator = profile.make_generator()
        generator.bind(
            num_sets=num_sets,
            block_bytes=block_bytes,
            rng=DeterministicRng(seed, f"bench-core-{core}"),
            base_address=core << 26,
        )
        for address, is_write in generator.address_stream(
            accesses // num_cores
        ):
            addresses.append(address)
            writes.append(is_write)
            cores.append(core)
    return addresses, writes, cores


def build_l2(backend, num_sets, block_bytes, num_cores):
    geometry = CacheGeometry.from_sets(num_sets, 8, block_bytes)
    l2 = make_partitioned_cache(geometry, num_cores, backend=backend)
    for core in range(num_cores):
        l2.set_target(core, 8 // num_cores)
        l2.set_class(core, PartitionClass.RESERVED)
    return l2


def _timed_block(cache, addresses, writes, cores):
    gc.disable()  # keep collector pauses out of the timed region
    try:
        start = time.perf_counter()
        counters = cache.access_block(addresses, writes, cores)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return counters, elapsed


def bench_kernel(accesses, num_sets=512, block_bytes=64, num_cores=4):
    """Reference vs fast accesses/sec on one trace; counters must match."""
    trace = generate_trace(accesses, num_sets, block_bytes, num_cores)
    addresses, writes, cores = trace
    results = {}
    counters = {}
    for backend in ("reference", "fast"):
        l2 = build_l2(backend, num_sets, block_bytes, num_cores)
        counters[backend], elapsed = _timed_block(
            l2, addresses, writes, cores
        )
        results[f"{backend}_accesses_per_sec"] = round(
            len(addresses) / elapsed
        )
        results[f"{backend}_seconds"] = round(elapsed, 4)
    if counters["fast"] != counters["reference"]:
        raise SystemExit(
            "FAIL: fast kernel counters diverge from reference:\n"
            f"  reference: {counters['reference']}\n"
            f"  fast:      {counters['fast']}"
        )
    results["accesses"] = len(addresses)
    results["speedup"] = round(
        results["fast_accesses_per_sec"]
        / results["reference_accesses_per_sec"],
        2,
    )
    return results


def generate_uniform_trace(
    accesses, num_sets, block_bytes, num_cores, seed=2024
):
    """A miss-heavy trace spread uniformly over sets.

    The vec kernel's round count equals the *maximum accesses landing
    on any one set*, so a skewed mixture trace (hot sets) serialises it
    while a uniform spread lets every round stay wide.  Benching both
    keeps the regime boundary visible.
    """
    rng = DeterministicRng(seed, "bench-uniform")
    addresses, writes, cores = [], [], []
    for index in range(accesses):
        set_index = rng.randint(0, num_sets - 1)
        tag = rng.randint(0, 1023)
        addresses.append((tag * num_sets + set_index) * block_bytes)
        writes.append(rng.uniform() < 0.3)
        cores.append(index % num_cores)
    return addresses, writes, cores


def bench_vec_kernel(accesses, cases, block_bytes=64, num_cores=4):
    """fast-vec vs reference/fast batch throughput on single LRU caches.

    Counters (totals and per-core) are asserted identical across all
    three backends; throughput is reported per (geometry, trace shape)
    case so the narrow-vs-wide / skewed-vs-uniform regime stays visible
    in the trajectory.
    """
    if not HAS_NUMPY:
        return {"skipped": "numpy not installed"}
    results = {}
    for label, num_sets, shape in cases:
        make_trace = (
            generate_uniform_trace if shape == "uniform" else generate_trace
        )
        addresses, writes, cores = make_trace(
            accesses, num_sets, block_bytes, num_cores
        )
        geometry = CacheGeometry.from_sets(num_sets, 8, block_bytes)
        per_backend = {}
        snapshots = {}
        for backend in ("reference", "fast", "fast-vec"):
            cache = make_cache(
                geometry, name=f"bench-{backend}", backend=backend
            )
            _, elapsed = _timed_block(cache, addresses, writes, cores)
            per_backend[f"{backend}_accesses_per_sec"] = round(
                len(addresses) / elapsed
            )
            snapshots[backend] = (
                cache.stats.snapshot(),
                dict(cache.stats.per_core),
            )
        for backend in ("fast", "fast-vec"):
            if snapshots[backend] != snapshots["reference"]:
                raise SystemExit(
                    f"FAIL: {backend} counters diverge from reference at "
                    f"{num_sets} sets:\n"
                    f"  reference: {snapshots['reference']}\n"
                    f"  {backend}: {snapshots[backend]}"
                )
        per_backend["num_sets"] = num_sets
        per_backend["trace"] = shape
        per_backend["accesses"] = len(addresses)
        per_backend["vec_vs_fast"] = round(
            per_backend["fast-vec_accesses_per_sec"]
            / per_backend["fast_accesses_per_sec"],
            2,
        )
        per_backend["vec_vs_reference"] = round(
            per_backend["fast-vec_accesses_per_sec"]
            / per_backend["reference_accesses_per_sec"],
            2,
        )
        results[label] = per_backend
    return results


def _oracle_point(payload):
    name, num_sets, accesses = payload
    return name, simulated_miss_rates(
        get_benchmark(name),
        backend="reference",
        num_sets=num_sets,
        accesses=accesses,
    )


def _one_pass_point(payload):
    name, num_sets, accesses = payload
    return name, measure_miss_rates(
        get_benchmark(name), num_sets=num_sets, accesses=accesses
    )


def _timed_map(point, payloads, jobs):
    start = time.perf_counter()
    output = parallel_map(point, payloads, jobs=jobs)
    return output, time.perf_counter() - start


def bench_parallel(num_sets, accesses, jobs_values):
    """Jobs sweep over SWEEP_BENCHMARKS; every level must match serial.

    Each point is a per-way cache-simulation profile: 16 way counts
    times the whole trace, the same number of simulated accesses per
    point as the profiler this sweep timed before profiling became one
    stack-distance pass.  That keeps the pool's scaling measured on
    CPU-bound points of the old size.  One-pass points are now too
    cheap for a pool to pay at these sizes; their jobs=2 number is
    reported, ungated, in the profiling section.
    """
    payloads = [(name, num_sets, accesses) for name in SWEEP_BENCHMARKS]
    expected, serial_seconds = _timed_map(_oracle_point, payloads, 1)
    sweep = []
    for jobs in jobs_values:
        output, elapsed = _timed_map(_oracle_point, payloads, jobs)
        if output != expected:
            raise SystemExit(
                f"FAIL: jobs={jobs} sweep output differs from serial"
            )
        speedup = round(serial_seconds / max(elapsed, 1e-9), 2)
        sweep.append(
            {
                "jobs": jobs,
                "seconds": round(elapsed, 4),
                "speedup": speedup,
                "efficiency": round(speedup / jobs, 2),
            }
        )
    by_jobs = {entry["jobs"]: entry for entry in sweep}
    headline = by_jobs.get(2, sweep[-1])
    return {
        "points": len(payloads),
        "serial_seconds": round(serial_seconds, 4),
        "jobs_sweep": sweep,
        "speedup": headline["speedup"],
        "speedup_jobs": headline["jobs"],
    }


def bench_misscache(num_sets, accesses):
    """Cold profiling pass vs warm re-run from the on-disk store."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        misscache.set_cache_dir(tmp)
        misscache.set_enabled(True)
        try:
            for label in ("cold", "warm"):
                clear_curve_cache()  # drop the in-memory layer
                misscache.reset_stats()
                start = time.perf_counter()
                for name in SWEEP_BENCHMARKS:
                    get_curve(
                        get_benchmark(name),
                        num_sets=num_sets,
                        accesses=accesses,
                    )
                results[f"{label}_seconds"] = round(
                    time.perf_counter() - start, 4
                )
                stats = misscache.stats()
                lookups = stats["hits"] + stats["misses"]
                results[f"{label}_hit_rate"] = round(
                    stats["hits"] / lookups, 3
                ) if lookups else 0.0
        finally:
            misscache.set_cache_dir(None)
            misscache.set_enabled(None)
            misscache.reset_stats()
            clear_curve_cache()
    results["speedup"] = round(
        results["cold_seconds"] / max(results["warm_seconds"], 1e-9), 2
    )
    return results


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, round(time.perf_counter() - start, 4)


def bench_curves(sizing):
    """One-pass profiling vs the per-way cache oracle, per benchmark.

    Exits non-zero unless the one-pass points equal the oracle's on
    both kernels, point for point.  The oracle generates its trace
    once and simulates it per way count; the profiler that preceded
    the one-pass pass also regenerated the trace per way count, so
    ``speedup_vs_fast_oracle`` understates the gain over it.
    """
    results = {}
    for name in PROFILING_BENCHMARKS:
        profile = get_benchmark(name)
        points, one_pass_seconds = _timed(measure_miss_rates, profile, **sizing)
        row = {"one_pass_seconds": one_pass_seconds}
        for backend in ("fast", "reference"):
            oracle, row[f"oracle_{backend}_seconds"] = _timed(
                simulated_miss_rates, profile, backend=backend, **sizing
            )
            if oracle != points:
                raise SystemExit(
                    f"FAIL: one-pass {name} curve diverges from the "
                    f"{backend}-kernel oracle:\n"
                    f"  oracle:   {oracle}\n"
                    f"  one-pass: {points}"
                )
        row["speedup_vs_fast_oracle"] = round(
            row["oracle_fast_seconds"] / max(one_pass_seconds, 1e-9), 1
        )
        results[name] = row
    return results


def _cold_fig7_once(src):
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            REPRO_MISS_CACHE_DIR=os.path.join(tmp, "curves"),
            REPRO_RESULT_STORE_DIR=os.path.join(tmp, "results"),
        )
        env.pop("REPRO_MISS_CACHE", None)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "fig7", "Mix-1", "--jobs", "1"],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - start


def cold_fig7_seconds(sources, repeats):
    """Median wall time of a cold ``repro fig7 Mix-1`` per source tree.

    ``sources`` maps a label to a ``src/`` directory.  Each run is a
    fresh interpreter with the miss-curve store and the results store
    pointed at empty directories, so it profiles every curve it needs,
    as a first run on a new machine does.  Runs alternate between the
    sources, and which one goes first flips every repeat, so host drift
    hits both sides alike.
    """
    samples = {label: [] for label in sources}
    order = list(sources)
    for _ in range(repeats):
        for label in order:
            samples[label].append(_cold_fig7_once(sources[label]))
        order.reverse()
    return {
        label: round(statistics.median(runs), 3)
        for label, runs in samples.items()
    }


def bench_profiling(sizing, sweep, cache, *, repeats, baseline_src):
    """The profiling section: curves, one-pass sweep, cold fig7, store."""
    payloads = [
        (name, sweep["num_sets"], sweep["accesses"])
        for name in SWEEP_BENCHMARKS
    ]
    expected, serial = _timed_map(_one_pass_point, payloads, 1)
    output, parallel = _timed_map(_one_pass_point, payloads, 2)
    if output != expected:
        raise SystemExit("FAIL: jobs=2 one-pass sweep differs from serial")
    sources = {"after_seconds": REPO_ROOT / "src"}
    if baseline_src is not None:
        sources["before_seconds"] = baseline_src
    fig7 = {
        "command": "repro fig7 Mix-1 --jobs 1, empty stores",
        "repeats": repeats,
        **cold_fig7_seconds(sources, repeats),
    }
    if baseline_src is not None:
        fig7["speedup"] = round(
            fig7["before_seconds"] / max(fig7["after_seconds"], 1e-9), 2
        )
    return {
        "sizing": dict(sizing, ways=16),
        "curves": bench_curves(sizing),
        "one_pass_sweep": {
            "points": len(payloads),
            "serial_seconds": round(serial, 4),
            "jobs2_seconds": round(parallel, 4),
            "jobs2_speedup": round(serial / max(parallel, 1e-9), 2),
        },
        "cold_fig7": fig7,
        # The curve store's cold and warm passes from the miss_cache
        # section, beside the one-pass cost they save.
        "miss_cache_cold_seconds": cache["cold_seconds"],
        "miss_cache_warm_seconds": cache["warm_seconds"],
        "miss_cache_curves": len(SWEEP_BENCHMARKS),
    }


def flatten_series(payload, prefix=""):
    """Flatten the nested results dict into dotted finite-number series.

    Non-numeric leaves (labels, skip notes) and non-finite values are
    dropped — the history schema only admits finite numbers in
    ``series`` — and booleans are excluded so flags don't masquerade
    as measurements.
    """
    series = {}
    for key, value in payload.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            series.update(flatten_series(value, f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)) and math.isfinite(value):
            series[dotted] = value
    return series


def append_history(path, payload, *, stamp, git_rev):
    """Append one run's gated numbers to the perf-trajectory stream.

    ``stamp`` (epoch seconds) and ``git_rev`` come in as arguments —
    the bench itself never reads a clock or shells out to git, so a
    re-run with the same inputs appends an identical record (modulo
    the measured timings themselves).
    """
    series = flatten_series(
        {
            key: payload[key]
            for key in (
                "kernel", "kernel_vec", "parallel", "miss_cache", "profiling"
            )
        }
    )
    point = history_point(
        stamp,
        "bench.perf_kernel",
        series=series,
        mode=payload["mode"],
        git_rev=git_rev,
        visible_cpus=payload["visible_cpus"],
    )
    with HistoryWriter(path) as writer:
        record = writer.write(point)
    return record["seq"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small trace sizes for CI; relaxed speedup thresholds",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=0,
        help="cap for the jobs sweep (0 = affinity-visible CPU count)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--baseline-src",
        type=Path,
        default=None,
        help=(
            "another checkout's src/ (e.g. the parent commit's) to time "
            "the same cold fig7 against, for a before/after pair"
        ),
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "BENCH_history.jsonl",
        help="perf-trajectory stream to append this run to",
    )
    parser.add_argument(
        "--stamp",
        type=float,
        default=None,
        help=(
            "epoch-seconds timestamp recorded in the history stream "
            "(with --git-rev, enables the append)"
        ),
    )
    parser.add_argument(
        "--git-rev",
        default="",
        help="git revision recorded in the history stream",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        kernel_accesses, sweep_sets, sweep_accesses = 40_000, 16, 4_000
        profiling_sizing = dict(num_sets=16, accesses=4_000, warmup=1_500)
        fig7_repeats = 1
        vec_cases = [
            ("narrow-skewed", 64, "mixture"),
            ("wide-uniform", 512, "uniform"),
        ]
        min_kernel_speedup, min_jobs_speedup = 2.0, 1.2
    else:
        kernel_accesses, sweep_sets, sweep_accesses = 400_000, 64, 40_000
        profiling_sizing = dict(num_sets=64, accesses=40_000, warmup=15_000)
        fig7_repeats = 3
        vec_cases = [
            ("narrow-skewed", 64, "mixture"),
            ("wide-skewed", 2048, "mixture"),
            ("wide-uniform", 2048, "uniform"),
        ]
        min_kernel_speedup, min_jobs_speedup = 5.0, 1.5

    visible = visible_cpu_count()
    max_jobs = args.max_jobs if args.max_jobs > 0 else visible
    # Always exercise jobs=2 so the pool path and the serial/parallel
    # identity check run even on a single-CPU container; never spawn
    # more workers than sweep points (parallel_map would cap anyway).
    jobs_values = sorted(
        {n for n in JOBS_CANDIDATES if 1 < n <= max_jobs}
        | {2}
    )
    jobs_values = [min(n, len(SWEEP_BENCHMARKS)) for n in jobs_values]
    jobs_values = sorted(set(jobs_values))

    print(f"kernel: {kernel_accesses} accesses, reference vs fast ...")
    kernel = bench_kernel(kernel_accesses)
    print(
        f"  reference {kernel['reference_accesses_per_sec']:,} acc/s, "
        f"fast {kernel['fast_accesses_per_sec']:,} acc/s "
        f"({kernel['speedup']}x, counters identical)"
    )

    print("vec kernel: single-cache batch, all backends ...")
    vec = bench_vec_kernel(kernel_accesses, vec_cases)
    if "skipped" in vec:
        print(f"  skipped: {vec['skipped']}")
    else:
        for label, row in vec.items():
            print(
                f"  {label} ({row['num_sets']} sets, {row['trace']}): "
                f"vec {row['fast-vec_accesses_per_sec']:,} acc/s — "
                f"{row['vec_vs_fast']}x vs fast, "
                f"{row['vec_vs_reference']}x vs reference "
                "(counters identical)"
            )

    print(
        f"parallel: {len(SWEEP_BENCHMARKS)}-point sweep, "
        f"jobs in {jobs_values} ({visible} visible CPU(s)) ..."
    )
    parallel = bench_parallel(sweep_sets, sweep_accesses, jobs_values)
    print(f"  serial {parallel['serial_seconds']}s")
    for entry in parallel["jobs_sweep"]:
        print(
            f"  jobs={entry['jobs']}: {entry['seconds']}s "
            f"({entry['speedup']}x, efficiency {entry['efficiency']}, "
            "output identical)"
        )

    print("miss-cache: cold vs warm profiling pass ...")
    cache = bench_misscache(sweep_sets, sweep_accesses)
    print(
        f"  cold {cache['cold_seconds']}s, warm {cache['warm_seconds']}s "
        f"({cache['speedup']}x, warm hit rate "
        f"{cache['warm_hit_rate']:.0%})"
    )

    print(
        "profiling: one pass vs per-way oracle on "
        f"{', '.join(PROFILING_BENCHMARKS)} ..."
    )
    profiling = bench_profiling(
        profiling_sizing,
        {"num_sets": sweep_sets, "accesses": sweep_accesses},
        cache,
        repeats=fig7_repeats,
        baseline_src=args.baseline_src,
    )
    for name, row in profiling["curves"].items():
        print(
            f"  {name}: one pass {row['one_pass_seconds']}s, oracle "
            f"{row['oracle_fast_seconds']}s fast / "
            f"{row['oracle_reference_seconds']}s reference "
            f"({row['speedup_vs_fast_oracle']}x vs fast, points identical)"
        )
    sweep = profiling["one_pass_sweep"]
    print(
        f"  one-pass sweep: serial {sweep['serial_seconds']}s, jobs=2 "
        f"{sweep['jobs2_seconds']}s ({sweep['jobs2_speedup']}x)"
    )
    fig7 = profiling["cold_fig7"]
    print(
        f"  cold fig7 Mix-1: {fig7['after_seconds']}s"
        + (
            f" (baseline {fig7['before_seconds']}s, {fig7['speedup']}x)"
            if "before_seconds" in fig7
            else ""
        )
    )

    payload = {
        "bench": "perf_kernel",
        "mode": "smoke" if args.smoke else "standard",
        "cpu_count": os.cpu_count(),
        "visible_cpus": visible,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "kernel": kernel,
        "kernel_vec": vec,
        "parallel": parallel,
        "miss_cache": cache,
        "profiling": profiling,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.stamp is not None:
        seq = append_history(
            args.history, payload, stamp=args.stamp, git_rev=args.git_rev
        )
        print(f"appended seq={seq} to {args.history}")

    failures = []
    if kernel["speedup"] < min_kernel_speedup:
        failures.append(
            f"fast kernel speedup {kernel['speedup']}x is below the "
            f"{min_kernel_speedup}x floor"
        )
    if cache["warm_hit_rate"] < 0.5:
        failures.append(
            f"warm miss-cache hit rate {cache['warm_hit_rate']:.0%} "
            "is below 50%"
        )
    if visible >= 2:
        if parallel["speedup"] < min_jobs_speedup:
            failures.append(
                f"jobs={parallel['speedup_jobs']} speedup "
                f"{parallel['speedup']}x is below the "
                f"{min_jobs_speedup}x floor"
            )
        if not args.smoke:
            largest = parallel["jobs_sweep"][-1]
            if largest["efficiency"] < 0.6:
                failures.append(
                    f"jobs={largest['jobs']} efficiency "
                    f"{largest['efficiency']} is below the 0.6 floor"
                )
    else:
        print(
            "note: 1 visible CPU — parallel scaling floors skipped "
            "(identity checks still enforced)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
