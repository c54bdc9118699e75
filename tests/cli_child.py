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


_LIST_MODULES = """\
import sys
try:
    {code}
finally:
    sys.stdout.flush()
    sys.stderr.write("\\0" + " ".join(sys.modules))
"""


def modules_after(code, *argv, timeout=10):
    """Run one line of ``code`` in a child and list the modules it loaded.

    The names are the child's ``sys.modules`` once ``code`` returned or
    raised, ``SystemExit`` included.  Returns the finished process, its
    stderr stripped of the list, and the names as a set.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES.format(code=code), *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
    )
    proc.stderr, _, names = proc.stderr.rpartition("\0")
    return proc, set(names.split())


def cli_modules(*argv, timeout=10):
    """``python -m braidpoly.cli *argv`` in a child, with the modules it loaded."""
    code = "import runpy; runpy.run_module('braidpoly.cli', run_name='__main__', alter_sys=True)"
    return modules_after(code, *argv, timeout=timeout)
