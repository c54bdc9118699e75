"""Running the CLI in a child process, bounded in time and memory."""

import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The parent's environment with the repo's ``src`` first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only its own process, so a
    child started by a test would not find the package otherwise.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(*argv, timeout=10):
    """The CLI in a child process, under a 1 GiB address-space limit and a timeout."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "braidpoly.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=limit_memory,
        env=child_env(),
    )
