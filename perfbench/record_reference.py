"""Re-record the fig commands' reference outputs.

Run from the root of a checkout after a change that is meant to alter a
figure's output: ``python3 perfbench/record_reference.py``.  It writes
each command's normalised stdout to ``reference/<slug>.txt`` and the
digests of the observed commands' JSONL exports to
``reference/jsonl_digests.json``; review the diff before committing it.
"""

import json
import shutil
import sys

import figs
import harness
from common import normalise_stdout


def main() -> int:
    scratch = harness.ROOT / ".perfbench" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        warm = figs.warm_store(harness.ROOT / ".perfbench", scratch)
        figs.REFERENCE_DIR.mkdir(exist_ok=True)
        digests = {}
        for index, command in enumerate(figs.WORKLOADS["figs-warm"]):
            work = scratch / f"cmd{index}"
            work.mkdir()
            shutil.copytree(warm, work / "misscache")
            child = harness.run(
                harness.cli_argv(command.args(work), False),
                harness.child_env(work), work,
            )
            if child.returncode != 0:
                print(child.stderr, file=sys.stderr)
                return 1
            (figs.REFERENCE_DIR / f"{command.slug}.txt").write_text(
                normalise_stdout(child.stdout), encoding="utf-8")
            if command.observed:
                digests[command.slug] = figs.jsonl_digests(work)
            print(f"recorded {command.slug}")
        (figs.REFERENCE_DIR / "jsonl_digests.json").write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
