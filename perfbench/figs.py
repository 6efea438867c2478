"""The figure workloads: command lists, passes and output checks."""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import harness
from common import normalise_stdout

REFERENCE_DIR = harness.BENCH_DIR / "reference"
GOLDEN_PATH = harness.ROOT / "tests" / "data" / "golden_results.json"

ADAPTIVE_POLICY = "bandwidth-steal"
OBS_FLAGS = ("metrics", "events", "trace")


@dataclass(frozen=True)
class Command:
    """One fig command; every one runs serially (``--jobs 1``)."""

    figure: str
    target: str
    observed: bool = False  # adaptive policy plus all three obs exports

    @property
    def slug(self) -> str:
        name = f"{self.figure}-{self.target}"
        return f"{name}-{ADAPTIVE_POLICY}" if self.observed else name

    def args(self, out_dir: Path) -> List[str]:
        args = [self.figure, self.target, "--jobs", "1"]
        if self.observed:
            args += ["--policy", ADAPTIVE_POLICY]
            for kind in OBS_FLAGS:
                args += [f"--{kind}-out", str(out_dir / f"{kind}.jsonl")]
        return args


PLAIN_WARM = tuple(
    Command(figure, target) for figure, target in (
        ("fig5", "bzip2"), ("fig5", "hmmer"), ("fig5", "gobmk"),
        ("fig5", "Mix-1"), ("fig5", "Mix-2"),
        ("fig7", "Mix-1"), ("fig7", "Mix-2"),
    )
)
OBSERVED = tuple(
    Command(figure, target, observed=True) for figure, target in (
        ("fig5", "Mix-1"), ("fig7", "Mix-1"), ("fig7", "Mix-2"),
    )
)
WORKLOADS = {
    "fig7-cold": (Command("fig7", "Mix-1"),),
    "figs-warm": PLAIN_WARM + OBSERVED,
}


# -- warm store ------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program's sources: store keys carry a code
    fingerprint, so a warm store is only valid for the code that
    filled it."""
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(harness.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def warm_store(cache_root: Path, scratch: Path) -> Path:
    """A miss-curve store filled by the code under test, built once per
    checkout and source digest by running the warm command list."""
    target = cache_root / f"warm-{source_digest()}"
    if target.is_dir():
        return target
    work = scratch / "fill"
    work.mkdir(parents=True)
    env = harness.child_env(work)
    for command in PLAIN_WARM:
        child = harness.run(harness.cli_argv(command.args(work), False),
                            env, work)
        if child.returncode != 0:
            raise RuntimeError(f"store fill failed: {child.stderr[-500:]}")
    cache_root.mkdir(parents=True, exist_ok=True)
    staging = cache_root / f".staging-{target.name}"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.copytree(work / "misscache", staging)
    staging.rename(target)
    shutil.rmtree(work)
    return target


# -- one pass ---------------------------------------------------------------------


@dataclass
class CommandRun:
    command: Command
    child: harness.Child
    out_dir: Path
    spans_path: Optional[Path]
    problems: List[str] = field(default_factory=list)


@dataclass
class Pass:
    commands: List[CommandRun]

    @property
    def wall_s(self) -> float:
        return sum(run.child.wall_s for run in self.commands)

    @property
    def maxrss_mb(self) -> float:
        return max(run.child.maxrss_mb for run in self.commands)

    @property
    def windows(self) -> List[Tuple[float, float]]:
        return [run.child.window for run in self.commands]


def run_pass(workload: str, commands: Sequence[Command], work: Path,
             warm: Optional[Path], traced: bool) -> Pass:
    """Run the workload's command list once, each in a fresh interpreter,
    against a store of its own (empty when cold, a copy of ``warm``)."""
    work.mkdir(parents=True)
    if warm is not None:
        shutil.copytree(warm, work / "misscache")
    runs = []
    for index, command in enumerate(commands):
        out_dir = work / f"cmd{index}"
        out_dir.mkdir()
        extra = {}
        spans_path = None
        if traced:
            spans_path = out_dir / "spans.json"
            extra["PERFBENCH_TRACE_OUT"] = str(spans_path)
        env = harness.child_env(work, **extra)
        child = harness.run(
            harness.cli_argv(command.args(out_dir), traced), env, out_dir,
        )
        runs.append(CommandRun(command, child, out_dir, spans_path))
    result = Pass(runs)
    check_pass(workload, result, work)
    return result


# -- correctness ------------------------------------------------------------------


def reference_text(slug_name: str) -> str:
    return (REFERENCE_DIR / f"{slug_name}.txt").read_text(encoding="utf-8")


def jsonl_digests(out_dir: Path) -> Dict[str, str]:
    return {
        kind: hashlib.sha256((out_dir / f"{kind}.jsonl").read_bytes())
        .hexdigest()
        for kind in OBS_FLAGS
    }


def check_pass(workload: str, result: Pass, work: Path) -> None:
    """Attach every problem found to the command that produced it."""
    goldens = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for run in result.commands:
        if run.child.returncode != 0:
            run.problems.append(
                f"exit {run.child.returncode}: {run.child.stderr[-300:]}"
            )
            continue
        slug_name = run.command.slug
        if normalise_stdout(run.child.stdout) != reference_text(slug_name):
            run.problems.append("stdout differs from the reference")
        if slug_name == "fig5-bzip2":
            run.problems += golden_figure5_problems(
                run.child.stdout, goldens["figure5_bzip2"]
            )
        if run.command.observed:
            run.problems += observed_problems(run)
    if workload == "fig7-cold":
        result.commands[0].problems += golden_curve_problems(
            work / "misscache", goldens["table1_curves"]
        )


def observed_problems(run: CommandRun) -> List[str]:
    """Schema-validate the three JSONL exports and pin their bytes."""
    from repro.obs.events import validate_jsonl
    from repro.obs.export import load_metrics_jsonl

    problems = []
    try:
        validate_jsonl(run.out_dir / "events.jsonl")
        load_metrics_jsonl(run.out_dir / "metrics.jsonl")
        trace_keys = {"trace_id", "span_id", "parent_id", "name", "start",
                      "end", "attrs"}
        with open(run.out_dir / "trace.jsonl", encoding="utf-8") as handle:
            for line in handle:
                if set(json.loads(line)) != trace_keys:
                    raise ValueError(f"trace record keys: {line[:80]}")
    except (OSError, ValueError) as error:
        problems.append(f"JSONL invalid: {error}")
        return problems
    expected = json.loads(
        (REFERENCE_DIR / "jsonl_digests.json").read_text(encoding="utf-8")
    )[run.command.slug]
    if jsonl_digests(run.out_dir) != expected:
        problems.append("JSONL bytes differ from the reference")
    return problems


def _close(measured: float, expected: float, *, rel: float = 0.0,
           abs_: float = 0.0) -> bool:
    return math.isclose(measured, expected, rel_tol=rel, abs_tol=abs_)


def golden_figure5_problems(stdout: str, golden: Dict) -> List[str]:
    """Compare the printed Figure 5 bzip2 tables with the goldens, with
    the tolerances ``tests/test_golden_results.py`` uses."""
    problems = []
    hit = {row[0]: float(row[2]) for row in table_rows(stdout, "Figure 5a")}
    fig5b = {row[0]: row for row in table_rows(stdout, "Figure 5b")}
    for config, expected in golden["makespan_mcycles"].items():
        if not _close(float(fig5b[config][1]), expected, rel=0.005):
            problems.append(f"golden makespan {config}")
    for config, expected in golden["normalised_throughput"].items():
        if not _close(float(fig5b[config][2]), expected, rel=0.005):
            problems.append(f"golden throughput {config}")
    for config, expected in golden["deadline_hit_rate"].items():
        if not _close(hit[config], expected, abs_=0.101):
            problems.append(f"golden deadline hit rate {config}")
    return problems


def golden_curve_problems(store: Path, golden: Dict) -> List[str]:
    """The curves a cold run profiled, against Table 1's goldens."""
    curves = {}
    for path in store.glob("*.json"):
        entry = json.loads(path.read_text(encoding="utf-8"))
        curves[entry["benchmark"]] = entry["curve"]
    problems = []
    for name, stats in golden.items():
        curve = curves.get(name)
        if curve is None:
            problems.append(f"no stored curve for {name}")
            continue
        miss7 = curve["points"]["7"]
        mpi7 = miss7 * curve["l2_accesses_per_instruction"]
        if not _close(miss7, stats["miss_rate_7"], abs_=0.004):
            problems.append(f"golden miss rate at 7 ways for {name}")
        if not _close(mpi7, stats["mpi_7"], rel=0.05):
            problems.append(f"golden MPI at 7 ways for {name}")
    return problems


# -- simulated outcomes read from stdout ------------------------------------------


def tables(text: str, title_prefix: str) -> List[Tuple[List[str], List[List[str]]]]:
    """``(header, rows)`` of every ``format_table`` block whose title
    starts with ``title_prefix`` (title, ``===``, header, ``---+---``,
    rows, then a blank line)."""
    lines = text.splitlines()
    found = []
    for index, line in enumerate(lines):
        if not line.startswith(title_prefix):
            continue
        header = [cell.strip() for cell in lines[index + 2].split("|")]
        rows = []
        for row in lines[index + 4:]:
            if not row.strip() or "|" not in row:
                break
            rows.append([cell.strip() for cell in row.split("|")])
        found.append((header, rows))
    return found


def table_rows(text: str, title_prefix: str) -> List[List[str]]:
    return [row for _header, rows in tables(text, title_prefix)
            for row in rows]


@dataclass
class SimOutcome:
    considered: int = 0
    met: int = 0
    makespan_mcycles: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.met / self.considered if self.considered else 1.0


def sim_outcome(runs: Sequence[CommandRun]) -> SimOutcome:
    """Deadline hits and makespans summed over a pass's commands."""
    outcome = SimOutcome()
    for run in runs:
        stdout = run.child.stdout
        if run.command.figure == "fig5":
            for row in table_rows(stdout, "Figure 5a"):
                jobs, rate = int(row[1]), float(row[2])
                outcome.considered += jobs
                outcome.met += round(jobs * rate)
            for row in table_rows(stdout, "Figure 5b"):
                outcome.makespan_mcycles += float(row[1])
            continue
        for line in stdout.splitlines():
            if line.startswith("makespan: "):
                outcome.makespan_mcycles += float(line.split()[1])
        for config in ("All-Strict", "All-Strict+AutoDown"):
            for header, rows in tables(stdout, f"{config} — job details"):
                met_col = header.index("met deadline")
                for cells in rows:
                    if cells[met_col] in ("yes", "no"):
                        outcome.considered += 1
                        outcome.met += cells[met_col] == "yes"
    # Inputs carry at most three decimals; rounding makes the sum
    # independent of the command order.
    outcome.makespan_mcycles = round(outcome.makespan_mcycles, 3)
    return outcome
