"""Benchmark of the smallq CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload
    python3 bench/run.py --record                              # re-store reports

Run from a checkout of the repository; the program is imported from its
``src`` directory. A closed loop with one client: each CLI call is a fresh
single-threaded subprocess (cli_child.py, which also reads its peak RSS),
started when the previous one has ended. Every
report goes through the correctness gate (gate.py); each run also makes the
self-tests of selftest.py and two negative controls of the gate, and any
problem they find makes the result incorrect. Rounds run each of the
workload's variants once, in an order drawn from the seed, until S seconds
have passed: a round is started only if it should end by half a round
past S seconds.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` and
``cpu_s`` (the median per variant, averaged over the variants), the peak RSS
of any call, and ``setup_s`` (median over fresh interpreters, three started
after each call). Times are rescaled to a reference machine speed measured
around each call (reference.py); the unscaled medians are printed too. With
``--trace 1`` each round also makes a traced in-process run of every
variant (trace_child.py) and prints the per-layer metrics, medians over
rounds of the round totals. Metric names and units are BENCHMARK.json's;
layers.py says how each per-layer metric is read from a traced run.
Generated inputs, stderr of the last call and the spans of the last traced
run of each variant go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run exits 2,
printing no result, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate as gate_mod
import layers
import selftest
from reference import NOMINAL_S, reference_time, rescale
from workloads import CONTROL, CORRUPT, DEFAULT_SEEDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170       # every run ends well within 180 s
SETUPS_PER_CALL = 3


@dataclass
class Call:
    wall: float
    cpu: float
    rc: int
    out: bytes
    rss_mb: float = 0.0     # peak RSS of a CLI call (cli_child.py)
    ref: float = 0.0        # reference task time around the call


class Runner:
    """Starts the program's processes inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.out = root / ".bench_out"
        self.out.mkdir(exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # Children cache bytecode, as an installed package does; the warm-up
        # call writes the cache, so no measured call compiles the sources.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = time.monotonic() + RUN_LIMIT_S     # reset per workload

    def materialise(self, inv, tag):
        """(argv, paths): the invocation's argv with each ``{key}`` replaced
        by the path of a file written with its text, and those paths."""
        paths = {}
        for key, text in inv.files:
            path = self.out / f"{tag}-{key}.txt"
            path.write_text(text)
            paths["{" + key + "}"] = str(path)
        return [paths.get(a, a) for a in inv.argv], list(paths.values())

    def spawn(self, cmd):
        """Run ``cmd`` to completion; the child is killed at the deadline."""
        with open(self.out / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                     proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(wall, usage.ru_utime + usage.ru_stime, proc.returncode, out)

    def cli(self, args):
        peak = self.out / "peak_kib.txt"
        peak.unlink(missing_ok=True)
        call = self.spawn([sys.executable, str(BENCH / "cli_child.py"), str(peak), *args])
        if peak.exists():
            call.rss_mb = int(peak.read_text()) / 1024.0
        return call

    def traced(self, args, spans_path):
        call = self.spawn([sys.executable, str(BENCH / "trace_child.py"),
                           str(spans_path), *args])
        try:
            result = json.loads(call.out)
        except ValueError:
            result = None
        return call, result

    def setup_time(self, spec):
        call = self.spawn([sys.executable, str(BENCH / "setup_child.py"),
                           json.dumps(spec)])
        return float(call.out) if call.rc == 0 else None

    def module_path(self):
        call = self.spawn([sys.executable, "-c",
                           "import smallq.cli; print(smallq.cli.__file__)"])
        return call.out.decode().strip()


class Tally:
    def __init__(self, gate):
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, inv, digest, rc, out):
        self.attempted += 1
        problem = self.gate.check(digest, inv.variant, rc, out)
        if problem:
            self.failed += 1
            self.problems.append(f"{inv.variant}: {problem}")


def median_of_variants(samples, field, scaled=True):
    """Mean over variants of the per-variant median of ``field``, rescaled
    to the reference speed unless ``scaled`` is false."""
    def value(c):
        return rescale(getattr(c, field), c.ref) if scaled else getattr(c, field)
    return statistics.fmean(statistics.median(value(c) for c in calls)
                            for calls in samples.values())


def negative_controls(runner, gate, inv, digest, rng):
    """Both controls must be counted as failures by the gate."""
    problems = []
    call = runner.cli(list(CORRUPT.argv))
    clean = gate_mod.input_digest(CONTROL.argv, {})
    if gate.check(clean, CONTROL.variant, call.rc, call.out) is None:
        problems.append("frobenius-check --corrupt passed the gate")
    stored = gate.stored(digest)
    if stored is None:
        digest, inv, stored = clean, CONTROL, gate.stored(clean)
    pos = rng.randrange(len(stored))
    flipped = stored[:pos] + bytes([stored[pos] ^ 0x01]) + stored[pos + 1:]
    if gate.check(digest, inv.variant, 0, flipped) is None:
        problems.append(f"a stored report perturbed at byte {pos} passed the gate")
    return problems


def run_workload(runner, gate, spec, wl, seed, seconds, trace):
    """(correct, tally, metrics, notes, problems) for one workload; the
    metric names and units are those of ``spec`` (BENCHMARK.json)."""
    rng = random.Random(f"{wl.name}/{seed}")
    invs = {v: wl.invocation(v, seed) for v in wl.variants}
    argvs, files = {}, []
    for v in wl.variants:
        argvs[v], paths = runner.materialise(invs[v], f"{wl.name}-{v}")
        files += paths
    digests = {v: gate_mod.input_digest(invs[v].argv, invs[v].file_map())
               for v in wl.variants}
    tally = Tally(gate)
    notes = []
    problems = selftest.run_all(spec)

    module = runner.module_path()
    if not module.startswith(str(runner.root / "src")):
        problems.append(f"smallq imported from {module!r}, not from the checkout")
    inputs = wl.setup_spec(files)
    runner.setup_time(inputs)       # warm-up: byte-compiles the package
    problems += negative_controls(runner, gate, invs[wl.variants[0]],
                                  digests[wl.variants[0]], rng)

    samples = {v: [] for v in wl.variants}
    traces = {v: [] for v in wl.variants}
    setups = []
    t0 = time.monotonic()
    ref = reference_time()
    while True:
        r0 = time.monotonic()
        for v in rng.sample(wl.variants, len(wl.variants)):
            call = runner.cli(argvs[v])
            # set-ups share the call's reference times: one set-up takes a
            # fraction of the reference task, so a reference time per set-up
            # would cost more than the set-ups
            new = [] if trace else [runner.setup_time(inputs)
                                    for _ in range(SETUPS_PER_CALL)]
            after = reference_time()
            call.ref, ref = (ref + after) / 2, after
            if None in new:
                problems.append("set-up child failed")
            setups += [rescale(s, call.ref) for s in new if s is not None]
            tally.check(invs[v], digests[v], call.rc, call.out)
            samples[v].append(call)
            if trace:
                spans = runner.out / f"spans-{wl.name}-{v}.tsv"
                tcall, result = runner.traced(argvs[v], spans)
                if result is None:
                    tally.check(invs[v], digests[v], tcall.rc or 1, tcall.out)
                    result = {}
                else:
                    tally.check(invs[v], digests[v], result["rc"],
                                result["report"].encode())
                    if result["layer_self_s"] > result["main_s"]:
                        problems.append(f"{v}: layer self times exceed the traced wall time")
                traces[v].append((tcall.wall - result.get("post_s", 0.0), result))
        # start another round only if it should end by half a round past
        # the measuring time, and well before the deadline
        now = time.monotonic()
        if now + (now - r0) / 2 - t0 >= seconds or now + 2 * (now - r0) > runner.deadline:
            break

    n = {v: len(c) for v, c in samples.items()}
    if trace:
        rounds = []
        for i in range(min(len(t) for t in traces.values())):
            raws = [traces[v][i][1].get("raw", {}) for v in wl.variants]
            untraced = sum(samples[v][i].wall for v in wl.variants)
            traced = sum(traces[v][i][0] for v in wl.variants)
            rounds.append(layers.combine(raws, traced / untraced))
        values = {m["name"]: statistics.median(r[m["name"]] for r in rounds)
                  for m in spec["per_layer"]}
        notes.append(f"per-layer values: median over {len(rounds)} rounds of the "
                     f"totals over {', '.join(wl.variants)}")
    else:
        values = {
            "wall_s": median_of_variants(samples, "wall"),
            "cpu_s": median_of_variants(samples, "cpu"),
            "peak_rss_mb": max(c.rss_mb for cs in samples.values() for c in cs),
            "setup_s": statistics.median(setups) if setups else 0.0,
        }
        counts = ", ".join(f"{v}: {k}" for v, k in n.items())
        refs = [c.ref for cs in samples.values() for c in cs]
        notes.append(f"wall_s, cpu_s: median per variant ({counts}), averaged over "
                     f"variants, at reference speed")
        notes.append(f"unscaled: wall {median_of_variants(samples, 'wall', False):.4f} s, "
                     f"cpu {median_of_variants(samples, 'cpu', False):.4f} s; reference "
                     f"task median {statistics.median(refs):.4f} s (nominal {NOMINAL_S} s)")
        notes.append(f"peak_rss_mb: max over {sum(n.values())} calls; "
                     f"setup_s: median of {len(setups)} fresh interpreters")
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["per_layer" if trace else "end_to_end"]}
    notes.append(f"fail_rate {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / max(tally.attempted, 1):.4f}")
    problems += tally.problems
    return not problems and tally.failed == 0, tally, metrics, notes, problems


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_workload(name, metrics, notes, problems):
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:40s} {value:14.6g} {unit}")
    for note in notes:
        print(f"{name:14s} {note}")
    for problem in problems:
        print(f"{name:14s} PROBLEM {problem}")


def record(runner):
    """Store the current program's report for every input of the default
    seeds. Meant for a commit whose reports are known to be right."""
    index = {"inputs": {}, "check_names": {}}
    reports = gate_mod.EXPECTED / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    invs = [CONTROL]
    for wl in WORKLOADS.values():
        for seed in DEFAULT_SEEDS:
            invs += [wl.invocation(v, seed) for v in wl.variants]
    for inv in invs:
        digest = gate_mod.input_digest(inv.argv, inv.file_map())
        if digest in index["inputs"]:
            continue
        call = runner.cli(runner.materialise(inv, "record")[0])
        report = json.loads(call.out)
        names = sorted(c["name"] for c in report["checks"])
        if call.rc != 0 or gate_mod.structural_problem(call.out, names):
            raise SystemExit(f"{inv.argv}: not a passing report")
        if index["check_names"].setdefault(inv.variant, names) != names:
            raise SystemExit(f"{inv.variant}: check names vary between seeds")
        name = gate_mod.content_name(call.out)
        (reports / name).write_bytes(call.out)
        index["inputs"][digest] = name
        print(f"{inv.variant:22s} {name}")
    gate_mod.INDEX.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smallq" / "cli.py").is_file():
        sys.stderr.write(f"error: no program at {ROOT / 'src' / 'smallq'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))      # the self-tests use its parser
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(ROOT)
    if args.record:
        record(runner)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    gate = gate_mod.Gate()
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        runner.deadline = time.monotonic() + RUN_LIMIT_S
        ok, tally, metrics, notes, problems = run_workload(
            runner, gate, spec, WORKLOADS[name], args.seed, args.seconds, args.trace)
        print_workload(name, metrics, notes, problems)
        correct &= ok
        attempted += tally.attempted
        failed += tally.failed
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}/{k}": v for k, v in metrics.items()})
    print(result_line(correct, attempted, failed, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
