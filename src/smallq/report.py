"""Structured pass/fail reports shared by the verification suites."""

from __future__ import annotations


class Check:
    def __init__(self, name: str, status: str, details: str = "",
                 counterexample: str | None = None):
        self.name = name
        self.status = status    # "pass" | "fail" | "skip"
        self.details = details
        self.counterexample = counterexample

    def to_dict(self):
        out = {"name": self.name, "status": self.status, "details": self.details}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class Report:
    def __init__(self, context: str):
        self.context = context
        self.checks = []

    def ok(self, name, details=""):
        self.checks.append(Check(name, "pass", details))

    def fail(self, name, details="", counterexample=""):
        # a failure always carries a counterexample
        self.checks.append(Check(name, "fail", details, counterexample or details))

    def skip(self, name, details=""):
        self.checks.append(Check(name, "skip", details))

    def extend(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else f"{other.context}/{c.name}"
            self.checks.append(Check(name, c.status, c.details, c.counterexample))

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self):
        return {"context": self.context,
                "checks": [c.to_dict() for c in self.checks]}

    def __repr__(self):
        n_fail = len(self.failures())
        return f"Report({self.context}: {len(self.checks)} checks, {n_fail} failures)"
