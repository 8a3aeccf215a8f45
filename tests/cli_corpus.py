"""Byte-exact CLI corpus: re-record every case and print the ones that changed.

`cli_corpus.json` lists argv cases for `jaco`, each with its exit code and
the byte count and sha256 of its stdout and stderr, plus those of every file
it writes.  An argv item may contain `{out}`, which names a fresh empty
directory for the case; the directory's path reads back as `{out}` in
messages, so the record does not depend on where it lay.
`test_cli_corpus.py` runs each case through `cli.main` and compares.

Run from the repository root after a change that is meant to alter output:

    PYTHONPATH=src python tests/cli_corpus.py

It rewrites the file only when a case changed, and then records the commit
it ran at.  To add a case, append an entry with only its "argv" and run it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")
OUT = "{out}"


def _digest(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def run_case(argv: list[str]) -> dict:
    """The record of one case: exit code, stdout, stderr and written files."""
    from jaco_gutman.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        out.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([item.replace(OUT, str(out)) for item in argv])
        record = {"exit": code}
        for name, stream in (("stdout", stdout), ("stderr", stderr)):
            record[name] = _digest(stream.getvalue().replace(str(out), OUT).encode())
        files = {
            path.relative_to(out).as_posix(): _digest(path.read_bytes())
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    if files:
        record["files"] = files
    return record


def _commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip()


def main() -> int:
    corpus = json.loads(CORPUS.read_text())
    cases = [{"argv": case["argv"], **run_case(case["argv"])} for case in corpus["cases"]]
    changed = [" ".join(new["argv"]) for old, new in zip(corpus["cases"], cases) if old != new]
    for argv in changed:
        print(f"changed: {argv}")
    if changed:
        # One line per case, so that a diff of the file names the cases that changed.
        lines = ",\n".join(json.dumps(case) for case in cases)
        CORPUS.write_text(f'{{"recorded_at": {json.dumps(_commit())}, "cases": [\n{lines}\n]}}\n')
    print(f"{len(changed)} of {len(cases)} cases changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
