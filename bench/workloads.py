"""The benchmark's workloads: CLI inputs generated from a seed.

Every workload has two variants, and every measured round runs each variant
once, in an order drawn from the seed. A run therefore always measures the
same mix, and its medians do not jump between the costs of the variants
from one seed to the next. The seed draws the round orders and, for
triple-verify, the relabelling and row order of both group tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from groups import group_table

# Sized so that one call takes about 2 s on a 2-core shared machine: a run
# of 35 s then holds enough rounds for a steady median. (0..30 takes ~11 s;
# --max-tensor 6 doubles frobenius-check.)
LINKAGE_WINDOW = "0..18"
FROB_CATALOG = ("--max-weyl", "12", "--max-tensor", "5")


@dataclass(frozen=True)
class Invocation:
    """One CLI call. ``argv`` may name a file as ``{key}``; ``files`` holds
    the text of each such file."""
    variant: str
    argv: tuple
    files: tuple = ()           # ((key, text), ...)

    def file_map(self):
        return dict(self.files)


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple

    def invocation(self, variant, seed):
        return _BUILD[self.name](variant, seed)

    def setup_spec(self, files):
        """What a fresh interpreter builds to measure set-up time, given the
        paths of the input files the workload's invocations read."""
        if files:
            return {"kind": "group", "files": files}
        return {"kind": "root", "type": "A1",
                "ells": [int(v[len("ell"):]) for v in self.variants]}


def _linkage(variant, seed):
    ell = variant[len("ell"):]
    return Invocation(f"a1-linkage/{variant}",
                      ("linkage", "--type", "A1", "--ell", ell, "--suite", "verify",
                       "--window", LINKAGE_WINDOW))


def _frob(variant, seed):
    ell = variant[len("ell"):]
    return Invocation(f"frob-catalog/{variant}",
                      ("frobenius-check", "--ell", ell) + FROB_CATALOG)


def _triple(variant, seed):
    text, _ = group_table(variant, seed)
    return Invocation(f"triple-verify/{variant}",
                      ("triple-verify", "--group", "{group}"), (("group", text),))


_BUILD = {"a1-linkage": _linkage, "frob-catalog": _frob, "triple-verify": _triple}

WORKLOADS = {
    "a1-linkage": Workload("a1-linkage", ("ell4", "ell6")),
    "frob-catalog": Workload("frob-catalog", ("ell4", "ell6")),
    "triple-verify": Workload("triple-verify", ("D4", "Q8")),
}

# Frobenius-check on the default catalog with one module entry perturbed:
# the program exits 1, and the gate must count it as a failure.
CONTROL = Invocation("control/ell4", ("frobenius-check", "--ell", "4"))
CORRUPT = Invocation("control/ell4", ("frobenius-check", "--ell", "4", "--corrupt"))

# Seeds whose reports are stored in expected/.
DEFAULT_SEEDS = range(0, 11)
