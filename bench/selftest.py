"""Self-tests of the benchmark's own parts; none of them runs the program.

* tracer: self time = duration - child coverage, parent ids, outermost-span
  inclusive times, and exact counts from count-only wrappers, on synthetic
  spans with a scripted clock; ``install`` on a synthetic package, including
  a function imported by name into another module and a reflected dunder
  (``__rmul__ = __mul__``);
* groups: one seed gives identical bytes, and the package's own parser reads
  a relabelled table as the same group under its relabelling (and D4 and Q8
  are told apart);
* gate: a stored report passes, and the same report with one byte changed, a
  non-zero exit code or a wrong set of check names does not;
* every per-layer metric of BENCHMARK.json has a source in layers.py.

``run_all`` returns a list of problems, empty when every test passes.
"""

from __future__ import annotations

import json
import sys
import types

import gate as gate_mod
import groups
import layers
import tracer


def _expect(problems, cond, what):
    if not cond:
        problems.append(what)


def _scripted(times):
    it = iter(times)
    return lambda: float(next(it))


def test_tracer_spans():
    p = []
    tr = tracer.Tracer(clock=_scripted([0, 1, 2, 3, 5, 6, 7, 10]))
    a = tr.name_id("m.a", "L1")
    b = tr.name_id("m.b", "L2")
    s0 = tr.open(a)             # t=0
    s1 = tr.open(b)             # t=1
    s2 = tr.open(a)             # t=2, a inside a: not outermost
    tr.close(s2)                # t=3
    tr.close(s1)                # t=5
    s3 = tr.open(b)             # t=6
    tr.close(s3)                # t=7
    tr.close(s0)                # t=10
    _expect(p, list(tr.parent) == [tracer.ROOT, s0, s1, s0], "tracer: parent ids")
    _expect(p, tr.self_times() == [5.0, 3.0, 1.0, 1.0], "tracer: self times")
    s = tr.summary()
    _expect(p, s["by_layer"] == {"L1": 6.0, "L2": 4.0}, "tracer: layer self times")
    _expect(p, s["by_name"]["m.a"] == {"calls": 2, "self_s": 6.0, "incl_s": 10.0},
            "tracer: recursion counted once in inclusive time")
    _expect(p, s["root_s"] == 10.0 == sum(s["by_layer"].values()),
            "tracer: layer self times sum to the root duration")

    # overlapping children and a child running past its parent's end
    tr = tracer.Tracer(clock=_scripted([]))
    for parent, start, end in ((tracer.ROOT, 0, 10), (0, 1, 4), (0, 3, 6), (0, 9, 12)):
        tr.parent.append(parent)
        tr.name.append(0)
        tr.start.append(start)
        tr.end.append(end)
        tr.outer.append(1)
    _expect(p, tr.self_times()[0] == 10 - (5 + 1), "tracer: child coverage is a union")

    tr = tracer.Tracer()
    inc = tr.count_wrapper(lambda x: x + 1, "inc")
    _expect(p, [inc(i) for i in range(1000)] == list(range(1, 1001)),
            "tracer: count-only wrapper changes results")
    _expect(p, tr.counts == {"inc": 1000}, "tracer: count-only wrapper miscounts")
    _expect(p, len(tr) == 0, "tracer: count-only wrapper recorded spans")
    return p


_M1 = '''
def leaf(x):
    return x + 1

def _private(x):
    return x

class K:
    def meth(self):
        return 7
    def __bool__(self):
        return True
    def __mul__(self, other):
        return 7 * other
    __rmul__ = __mul__
'''

_M2 = '''
from fakepkg.m1 import leaf, K

def top(n):
    k = K()
    return (sum(leaf(i) for i in range(n)) + sum(k.meth() for _ in range(n) if k)
            + sum(k * 1 + 1 * k for _ in range(n)))
'''


def test_install():
    p = []
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    sys.modules["fakepkg"] = pkg
    try:
        for short, code in (("m1", _M1), ("m2", _M2)):
            mod = types.ModuleType(f"fakepkg.{short}")
            sys.modules[mod.__name__] = mod
            exec(compile(code, mod.__name__, "exec"), mod.__dict__)
        tr = tracer.Tracer()
        seen = []
        wrapped = tracer.install(
            tr, "fakepkg", {"m1": "L1", "m2": "L2"}, count_only=("m1.K.meth",),
            dunders=("m1.K.__bool__", "m1.K.__mul__"),
            probes={"m1.leaf": lambda t, args, res: seen.append((args, res))})
        _expect(p, sorted(wrapped)
                == ["m1.K.__bool__", "m1.K.__mul__", "m1.K.meth", "m1.leaf", "m2.top"],
                f"install: wrapped {sorted(wrapped)}")
        m2 = sys.modules["fakepkg.m2"]
        _expect(p, m2.top(50) == sum(range(1, 51)) + 21 * 50, "install: results changed")
        names = [tr.names[n] for n in tr.name]
        _expect(p, names == ["m2.top"] + ["m1.leaf"] * 50,
                "install: a name imported into another module is not traced")
        _expect(p, all(tr.parent[i] == 0 for i in range(1, len(tr))),
                "install: parent of an imported-name call")
        _expect(p, tr.counts == {"m1.K.meth": 50, "m1.K.__bool__": 50, "m1.K.__mul__": 100},
                f"install: counts {tr.counts}")
        _expect(p, seen[3] == ((3,), 4), "install: probe arguments")
    finally:
        for name in ("fakepkg", "fakepkg.m1", "fakepkg.m2"):
            sys.modules.pop(name, None)
    return p


def test_groups():
    from smallq.hopfcore import parse_group_text
    p = []
    for g in groups.GROUPS:
        elems, mul, sub = groups.BUILDERS[g]()
        _expect(p, len(elems) == 8 and len(sub) == 4, f"{g}: orders")
        ident = elems[0]
        involutions = sum(1 for x in elems if x != ident and mul(x, x) == ident)
        _expect(p, involutions == {"D4": 5, "Q8": 1}[g], f"{g}: involution count")
        _expect(p, all(mul(mul(x, y), z) == mul(x, mul(y, z))
                       for x in elems for y in elems for z in elems), f"{g}: associativity")
        _expect(p, any(mul(x, x) != ident and mul(mul(x, x), mul(x, x)) == ident
                       for x in sub), f"{g}: subgroup is not cyclic of order 4")
        for seed in (0, 1, 12345):
            text, label = groups.group_table(g, seed)
            _expect(p, text == groups.group_table(g, seed)[0],
                    f"{g}/{seed}: one seed, different bytes")
            try:
                table, sub_names = parse_group_text(text)
            except ValueError as exc:
                p.append(f"{g}/{seed}: the program rejects the table: {exc}")
                continue
            _expect(p, sorted(table.names) == sorted(label.values()),
                    f"{g}/{seed}: header is not a relabelling")
            _expect(p, sorted(sub_names) == sorted(label[x] for x in sub),
                    f"{g}/{seed}: subgroup line")
            _expect(p, all(
                table.names[table.mult[table.index[label[x]]][table.index[label[y]]]]
                == label[mul(x, y)] for x in elems for y in elems),
                f"{g}/{seed}: the program reads another group than the relabelled one")
        _expect(p, groups.group_table(g, 0)[0] != groups.group_table(g, 1)[0],
                f"{g}: seeds 0 and 1 give the same table")
    return p


def test_gate():
    p = []
    gate = gate_mod.Gate()
    index = json.loads(gate_mod.INDEX.read_text())
    digest, name = sorted(index["inputs"].items())[0]
    stored = gate.stored(digest)
    variant = next(v for v in index["check_names"])
    report = json.loads(stored)
    names = sorted(c["name"] for c in report["checks"])
    _expect(p, gate.check(digest, variant, 0, stored) is None, "gate: stored report fails")
    for pos in (0, len(stored) // 2, len(stored) - 1):
        bad = stored[:pos] + bytes([stored[pos] ^ 0x01]) + stored[pos + 1:]
        _expect(p, gate.check(digest, variant, 0, bad) is not None,
                f"gate: byte {pos} changed and passed")
    _expect(p, gate.check(digest, variant, 1, stored) is not None, "gate: exit 1 passed")
    _expect(p, gate_mod.structural_problem(stored, names) is None,
            "gate: structural check rejects a stored report")
    _expect(p, gate_mod.structural_problem(stored, names[1:]) is not None,
            "gate: structural check misses a changed name set")
    failing = json.dumps(dict(report, passed=False)).encode()
    _expect(p, gate_mod.structural_problem(failing, names) is not None,
            "gate: structural check misses passed=false")
    return p


def test_benchmark_json(spec):
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers.SOURCES]
    return [f"BENCHMARK.json: no source in layers.py for {name}" for name in missing]


def run_all(spec):
    return (test_tracer_spans() + test_install() + test_groups() + test_gate()
            + test_benchmark_json(spec))
