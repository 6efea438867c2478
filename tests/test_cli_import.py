"""CLI start-up cost: what ``import repro.cli`` must not pull in.

Every fig command and ``repro serve`` pays for the CLI's imports.  numpy
serves only the optional ``fast-vec`` cache backend, so it is imported
when that backend is built, never at start-up.  Checked in a fresh
interpreter, since this test session may already have numpy loaded.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "False"
