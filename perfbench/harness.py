"""Child processes: start them, time them, reap them with their peak RSS."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACED_CLI = BENCH_DIR / "traced_cli.py"


def child_env(work: Path, **extra: str) -> Dict[str, str]:
    """The program's environment: the checkout's ``src`` on the path and
    both stores in the run's own directory, never in ``~/.cache``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_MISS_CACHE_DIR"] = str(work / "misscache")
    env["REPRO_RESULT_STORE_DIR"] = str(work / "results")
    env.update(extra)
    return env


def cli_argv(args: List[str], traced: bool) -> List[str]:
    if traced:
        return [sys.executable, str(TRACED_CLI), *args]
    return [sys.executable, "-m", "repro.cli", *args]


@dataclass
class Child:
    argv: List[str]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    window: Tuple[float, float]  # perf_counter at spawn and at exit
    maxrss_mb: float


def _reap(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout_s``); return its exit
    code and peak resident set in MB."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


def run(argv: List[str], env: Dict[str, str], work: Path,
        timeout_s: float = 170.0) -> Child:
    """Run one command to completion with its output in files."""
    out_path = work / "stdout.txt"
    err_path = work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=str(work))
        code, rss = _reap(proc, timeout_s)
        ended = time.perf_counter()
    return Child(
        argv=argv,
        returncode=code,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=ended - began,
        window=(began, ended),
        maxrss_mb=rss,
    )


READY_SCRIPT = (
    "import repro.cli as c; c.build_parser(); print('ready', flush=True)"
)


def time_cli_ready(env: Dict[str, str], work: Path) -> Tuple[float, float]:
    """Seconds from spawning an interpreter until ``repro.cli`` is
    imported and its parser built; also the process's peak RSS in MB."""
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY_SCRIPT],
                            stdout=subprocess.PIPE, env=env, cwd=str(work))
    line = proc.stdout.readline()
    ready = time.perf_counter() - began
    proc.stdout.close()
    code, rss = _reap(proc, 60.0)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"cli readiness probe failed (exit {code})")
    return ready, rss


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    started_s: float  # spawn until a TCP connect succeeds

    def stop(self, timeout_s: float = 60.0) -> Tuple[int, float, str]:
        """SIGTERM (graceful drain); return exit code, peak RSS, stdout."""
        self.proc.send_signal(signal.SIGTERM)
        code, rss = _reap(self.proc, timeout_s)
        rest = self.proc.stdout.read().decode("utf-8", errors="replace")
        self.proc.stdout.close()
        return code, rss, rest


def start_server(args: List[str], env: Dict[str, str], work: Path,
                 traced: bool = False) -> Server:
    """Start ``repro serve`` and wait until it accepts connections."""
    began = time.perf_counter()
    proc = subprocess.Popen(cli_argv(["serve", *args], traced),
                            stdout=subprocess.PIPE, env=env, cwd=str(work))
    banner = proc.stdout.readline().decode("utf-8", errors="replace")
    if "serving on http://" not in banner:
        proc.kill()
        _reap(proc, 30.0)
        raise RuntimeError(f"server did not start: {banner!r}")
    address = banner.split("http://", 1)[1].split()[0]
    port = int(address.rsplit(":", 1)[1])
    deadline = began + 30.0
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            break
        except OSError:
            if time.perf_counter() > deadline:
                proc.kill()
                _reap(proc, 30.0)
                raise RuntimeError("server never accepted a connection")
            time.sleep(0.001)
    return Server(proc, port, time.perf_counter() - began)

