"""Replay checked-in CLI outputs through ``cli.run``, byte for byte.

Text outputs are stored whole in ``golden/cli_text.json``; the much
larger ``--format json`` outputs are stored as one sha256 per command
in ``golden/cli_json_sha256.json``.  Each record is
``[argv, exit code, stdout or its sha256]``.  Regenerate both files
(only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from braidpoly.cli import run

from words import corpus_words

GOLDEN = Path(__file__).parent / "golden"
TEXT_FILE = GOLDEN / "cli_text.json"
JSON_FILE = GOLDEN / "cli_json_sha256.json"

LARGE_WORDS = (
    "s1^40 s2^40",
    "s1^-20 s2^-20 s3^-20",
    "s1^5 s2^5 s3^5 s4^5 s5^5 s6^5 s7^5 s8^5",
    "s1^90",
)


def _corpus_texts() -> list[str]:
    return [word.to_text() for word in corpus_words()]


def text_commands() -> list[list[str]]:
    out = []
    for braid in _corpus_texts():
        out.append(["jones", "--braid", braid])
        out.append(["bracket", "--braid", braid])
        out.append(["matrix", "--braid", braid, "--symbolic"])
        out.append(["matrix", "--braid", braid])
        out.append(["graph", "--braid", braid, "--kind", "overlay"])
    for braid in LARGE_WORDS:
        out.append(["jones", "--braid", braid])
        out.append(["bracket", "--braid", braid])
    out.append(["verify", "--corpus"])
    for method in ("skein", "prop", "closed"):
        out.append(["kauffman", "--q", "9", "--method", method])
    return out


def json_commands() -> list[list[str]]:
    out = []
    for braid in _corpus_texts():
        out.append(["jones", "--braid", braid, "--format", "json"])
        out.append(["bracket", "--braid", braid, "--format", "json"])
        out.append(["matrix", "--braid", braid, "--symbolic", "--format", "json"])
        out.append(["matrix", "--braid", braid, "--format", "json"])
        out.append(["graph", "--braid", braid, "--kind", "overlay", "--format", "json"])
    return out


def replay(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return code, stdout.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load(path: Path) -> list:
    return json.loads(path.read_text())


def test_golden_covers_every_command():
    assert [argv for argv, _, _ in _load(TEXT_FILE)] == text_commands()
    assert [argv for argv, _, _ in _load(JSON_FILE)] == json_commands()


@pytest.mark.parametrize("kind", ["jones", "bracket", "matrix", "graph", "verify", "kauffman"])
def test_text_outputs_match_golden(kind):
    for argv, code, stdout in _load(TEXT_FILE):
        if argv[0] == kind:
            assert replay(argv) == (code, stdout), argv


@pytest.mark.parametrize("kind", ["jones", "bracket", "matrix", "graph"])
def test_json_outputs_match_golden_hashes(kind):
    for argv, code, digest in _load(JSON_FILE):
        if argv[0] == kind:
            got_code, stdout = replay(argv)
            assert (got_code, sha256(stdout)) == (code, digest), argv


def _write(path: Path, records: list) -> None:
    # one record per line keeps diffs of a regenerated file readable
    lines = ",\n".join(json.dumps(r) for r in records)
    path.write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _write(TEXT_FILE, [[argv, *replay(argv)] for argv in text_commands()])
    _write(
        JSON_FILE,
        [[argv, code, sha256(out)] for argv in json_commands() for code, out in [replay(argv)]],
    )
