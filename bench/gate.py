"""Correctness gate for CLI reports.

An input (argv plus the text of any file it names) is identified by a digest.
For inputs recorded from a known-good commit, ``expected/index.json`` maps
the digest to a stored report, and the output must match it byte for byte.
For any other input the report must parse, say ``"passed": true``, fail no
check and carry exactly the check names recorded for its variant. In both
cases the exit code must be 0.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"
INDEX = EXPECTED / "index.json"


def input_digest(argv, files):
    blob = json.dumps([list(argv), sorted(files.items())], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def content_name(report: bytes):
    return hashlib.sha256(report).hexdigest()[:16] + ".json"


class Gate:
    def __init__(self, index=None):
        if index is None:
            index = json.loads(INDEX.read_text())
        self.inputs = index["inputs"]            # digest -> report file name
        self.check_names = index["check_names"]  # variant key -> [names]
        self._reports = {}

    def stored(self, digest):
        """The stored report for an input, or None."""
        name = self.inputs.get(digest)
        if name is None:
            return None
        if name not in self._reports:
            self._reports[name] = (EXPECTED / "reports" / name).read_bytes()
        return self._reports[name]

    def check(self, digest, variant, rc, out: bytes):
        """None if the invocation is correct, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        stored = self.stored(digest)
        if stored is not None:
            if out != stored:
                return "report differs from the stored report"
            return None
        return structural_problem(out, self.check_names[variant])


def structural_problem(out: bytes, names):
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if report.get("passed") is not True:
        return '"passed" is not true'
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    if failed:
        return f"failed checks {failed[:3]}"
    got = sorted(c["name"] for c in report["checks"])
    if got != sorted(names):
        return "check names differ from the recorded set"
    return None
