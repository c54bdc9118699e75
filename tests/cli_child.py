"""Running the CLI in a child process, bounded in time and memory."""

import resource
import subprocess
import sys


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
    )
