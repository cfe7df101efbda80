"""Command-line entry point: verification suites and block tables.

Subcommands:

  linkage          predicted blocks for a weight window (plus observed
                   Weyl-module linkage and the inclusion check for A1 with
                   --suite verify, the default; rank 2 takes --suite predict)
  frobenius-check  relation checks on the Weyl/tensor catalog, the
                   commutator identity, pullback/reconstruct round trips and
                   Hecke structures
  triple-verify    conditions (i)-(iv), the equivalence, the block bijection
                   and twisting coherence for a finite-group triple

Reports are emitted as JSON (default) or text.  With a fixed config and seed
the JSON output is byte-identical across runs; timing is only included when
--timing is passed, precisely so that default reports stay stable.  No
computation draws random numbers: --seed only sets params.seed in the report.

frobenius-check checks its catalog as a stream: it keeps the tensor factors
W(0..max(max-tensor, 1)) and builds, checks and drops every other entry in
turn, so peak memory no longer grows with the catalog (VmHWM 20-21 MB with
both caps, against a 15 MB floor for an empty catalog).  It refuses a
catalog beyond its budget with exit 2: --max-weyl at most 40, --max-tensor
at most 8 and --ell at most 16 (MAX_ELL), whether the value comes from a
flag or from --config.  At ell 6 each cap alone takes about 0.5-0.7 s
(W(0..40)) and 1.0 s (every W(a) (x) W(b) with a, b <= 8) on a shared
2-core x86 VM; both together take 1.4 s at ell 6, 2.6 s at ell 10 and
5.5 s at ell 16 (single runs), and the cost grows steeply with the size.  Past the ell budget the
generic binomials of the commutator identity dominate: at ell 120 the
catalog W(0..1) alone took 100 s.  In the same way linkage --type A1 --suite
verify refuses a window whose top is above 320 (MAX_A1_WINDOW).  The window
0..320 takes about 1.5 s at ell 4, 2 s at ell 6 and 2.3 s at ell 10 on the
same VM (0..160: 0.5 s, 0.7 s and 0.6 s); building the Weyl modules is most
of it, as the composition series is peeled on index sets.  Every linkage call, --suite predict included,
refuses a window of more than 20,000 weights (MAX_WINDOW_WEIGHTS; an empty
window has none) before doing any work.  At the budget the prediction takes
about 1.4 s for A1, 2.8 s for A2, 3.0 s for B2 and 3.3 s for G2 on the same
VM and writes 6-7.5 MB of JSON.
triple-verify takes about 0.14 s on the D4 table of
tests/golden/triple-verify_D4_seed0.group and 0.33 s on --fixture d6_centre
on the same VM (medians of 15 runs).  It refuses, with exit 2, a table of more
than 32 elements (hopfcore.MAX_GROUP_ORDER, counted from its header: Z/32
over Z/16 takes 4-5 s, Z/48 13-17 s), one that repeats a header, element
or pair, and a subgroup that names an element twice.  A --config file that
gives a key twice (type and cartan_type are one key) exits 2 too.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
input error, a report that --out cannot write included (no traceback).  A
StructureError that the triple engine raises once the triple is built is the
failed check "structure-error" with its message (exit 1).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from importlib import resources

from . import blocks as blocks_mod
from . import frobenius as frob
from . import hopfcore as hc
from .linalg import mat_eq
from .repcore import (
    corrupt_module,
    relation_check,
    tensor_product,
    weyl_module,
)
from .report import Report
from .rootdata import build_root_datum
from .scalars import QParams

SCHEMA_VERSION = 1

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    pass


def parse_window(text: str, rank: int):
    parts = text.split("x")
    if len(parts) != rank:
        raise UsageError(f"window {text!r} has {len(parts)} ranges, rank is {rank}")
    out = []
    for p in parts:
        if ".." not in p:
            raise UsageError(f"bad window range {p!r} (use lo..hi)")
        lo, hi = p.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise UsageError(f"bad window range {p!r}") from exc
        # hi < lo is an empty range: legal, yields an empty table
        out.append((lo_i, hi_i))
    return out


def load_config_file(path):
    """The (key, value) pairs of a config file, in file order."""
    out = []
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {raw!r}")
                key, val = line.split("=", 1)
                out.append((key.strip(), val.strip()))
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return out


def build_parser():
    parser = argparse.ArgumentParser(prog="smallq")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads: any other is a
    # usage error (exit 2), and so is such a key in a --config file
    def common(p, root_datum):
        if root_datum:
            p.add_argument("--type", default=None, dest="cartan_type")
            p.add_argument("--ell", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--timing", action="store_true")

    p = sub.add_parser("linkage", help="block tables from the dot action")
    common(p, root_datum=True)
    p.add_argument("--window", default=None)
    p.add_argument("--suite", default=None)

    p = sub.add_parser("frobenius-check", help="Frobenius/small-group suites")
    common(p, root_datum=True)
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one module entry (negative control)")
    p.add_argument("--max-weyl", type=int, default=None)
    p.add_argument("--max-tensor", type=int, default=None)

    p = sub.add_parser("triple-verify", help="(O, A, a) triple verification")
    common(p, root_datum=False)
    # one source of the group table: both given is a usage error (exit 2)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--group", default=None, help="path to a group table file")
    source.add_argument("--fixture", default=None,
                        help="bundled fixture name (z4_z2, s3_a3, d6_centre)")
    p.add_argument("--subgroup", default=None,
                   help="comma-separated element names overriding the file")
    return parser


SUITES = ("verify", "predict")
FORMATS = ("json", "text")

# frobenius-check budget: a larger catalog size or ell is refused with exit 2
MAX_WEYL = 40
MAX_TENSOR = 8
MAX_ELL = 16
# linkage --type A1 --suite verify budget: a larger window top exits 2
MAX_A1_WINDOW = 320
# linkage budget for every type and suite: a window of more weights exits 2
MAX_WINDOW_WEIGHTS = 20_000

_DEFAULTS = {"cartan_type": "A1", "ell": 4, "format": "json", "seed": 0,
             "suite": "verify", "window": None, "out": None,
             "max_weyl": 4, "max_tensor": 2}


def resolve_config(args):
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
        renames = {"type": "cartan_type"}
        given = {}
        for k, v in file_cfg:
            key = renames.get(k, k)
            # the keys are the flags the subcommand registers
            if key not in _DEFAULTS or not hasattr(args, key):
                raise UsageError(f"config key {k!r} is not read by {args.command}")
            if key in given:
                alias = f" (as {given[key]!r} before)" if given[key] != k else ""
                raise UsageError(f"config key {k!r} given twice{alias}")
            given[key] = k
            if key in ("ell", "seed", "max_weyl", "max_tensor"):
                try:
                    v = int(v)
                except ValueError:
                    raise UsageError(f"{k} must be an integer") from None
            cfg[key] = v
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["suite"] not in SUITES:
        raise UsageError(f"unknown suite {cfg['suite']!r} (use {' or '.join(SUITES)})")
    if cfg["format"] not in FORMATS:
        raise UsageError(f"unknown format {cfg['format']!r} (use {' or '.join(FORMATS)})")
    for key in ("max_weyl", "max_tensor"):
        if cfg[key] < 0:
            raise UsageError(f"--{key.replace('_', '-')} must be non-negative")
    return cfg


def make_params(cfg, datum):
    try:
        return QParams(cfg["ell"], datum.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def emit(payload, cfg, started):
    if cfg.get("timing"):
        payload["timing_ms"] = int((time.time() - started) * 1000)
    if cfg["format"] == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"command: {payload['command']}"]
        for c in payload["checks"]:
            lines.append(f"[{c['status'].upper():4s}] {c['name']}"
                         + (f" -- {c['details']}" if c["details"] else ""))
        lines.append(f"result: {'pass' if payload['passed'] else 'fail'}")
        text = "\n".join(lines) + "\n"
    if cfg.get("out"):
        try:
            with open(cfg["out"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def payload_from_report(command, cfg, report: Report, artifacts=None):
    params = {k: cfg[k] for k in ("cartan_type", "ell", "window", "suite", "seed")
              if cfg.get(k) is not None}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "checks": [c.to_dict() for c in report.checks],
        "passed": report.passed,
    }
    if artifacts:
        payload["artifacts"] = artifacts
    return payload


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_linkage(args):
    started = time.time()
    cfg = resolve_config(args)
    cfg["timing"] = args.timing
    datum = _datum(cfg)
    if datum.rank > 1 and cfg["suite"] == "verify":
        raise UsageError(f"linkage --suite verify observes type A1 only; use "
                         f"--suite predict for {datum.cartan_type}")
    params = make_params(cfg, datum)
    if cfg["window"] is None:
        raise UsageError("linkage requires --window")
    window = parse_window(cfg["window"], datum.rank)
    weights = math.prod(max(0, hi - lo + 1) for lo, hi in window)
    if weights > MAX_WINDOW_WEIGHTS:
        raise UsageError(f"--window {cfg['window']} has {weights} weights, above "
                         f"the budget of {MAX_WINDOW_WEIGHTS}")
    observe = cfg["suite"] == "verify"
    if observe and window[0][1] < max(window[0][0], 0):
        raise UsageError(f"--window {cfg['window']} has no dominant weight for the "
                         f"A1 verify suite to observe; use --suite predict")
    if observe and window[0][1] > MAX_A1_WINDOW:
        raise UsageError(f"--window top {window[0][1]} is above the A1 verify "
                         f"budget of {MAX_A1_WINDOW}")
    rep = Report("linkage")
    table = blocks_mod.predicted_blocks(window, params, datum)
    rep.ok("predicted-blocks", f"{len(table.blocks())} blocks in the window")
    if observe:
        obs = blocks_mod.linkage_report(window, params, datum)
        rep.extend(obs, prefix="observed/")
    emit(payload_from_report("linkage", cfg, rep,
                             artifacts={"block_table": table.to_dict()}),
         cfg, started)
    return 0 if rep.passed else CHECK_FAILED


def _datum(cfg):
    try:
        return build_root_datum(cfg["cartan_type"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_frobenius_check(args):
    started = time.time()
    cfg = resolve_config(args)
    cfg["timing"] = args.timing
    datum = _datum(cfg)
    if datum.cartan_type != "A1":
        raise UsageError("frobenius-check runs on type A1")
    max_weyl = int(cfg["max_weyl"])
    max_tensor = int(cfg["max_tensor"])
    for key, size, cap in (("ell", cfg["ell"], MAX_ELL),
                           ("max_weyl", max_weyl, MAX_WEYL),
                           ("max_tensor", max_tensor, MAX_TENSOR)):
        if size > cap:
            raise UsageError(f"--{key.replace('_', '-')} {size} is above the "
                             f"frobenius-check budget of {cap}")
    params = make_params(cfg, datum)
    rep = Report("frobenius-check")

    # only the tensor factors are kept (W(1) also serves the Hecke
    # structure); every other entry is built, checked and dropped in turn
    weyl = [weyl_module(lam, params, datum) for lam in range(max(max_tensor, 1) + 1)]

    def catalog():
        for lam in range(max_weyl + 1):
            yield weyl[lam] if lam < len(weyl) else weyl_module(lam, params, datum)
        for lam in range(max_tensor + 1):
            for mu in range(max_tensor + 1):
                yield tensor_product(weyl[lam], weyl[mu])

    # --corrupt checks a corrupted copy of the first entry on which some
    # generator acts (never W(0)), so the shared factors stay clean
    corrupt = args.corrupt
    for m in catalog():
        if corrupt:
            try:
                m = corrupt_module(m)
                corrupt = False
            except ValueError:
                pass
        r = relation_check(m)
        _summarize(rep, r, f"relations[{m.name}]")
        r = frob.verify_commutator_identity(m)
        _summarize(rep, r, f"commutator[{m.name}]")
        del m       # dropped before the generator builds the next entry
    if corrupt:
        raise UsageError("--corrupt: nothing in the catalog can be corrupted "
                         "(every generator acts by zero on every entry)")

    # pullback / reconstruct round trips
    reps_adj = [frob.trivial_rep(params, datum),
                frob.dual_irrep_sl2(2, params, datum, form="adjoint")]
    for V in reps_adj:
        M = frob.frobenius_pullback(V)
        r = relation_check(M)
        _summarize(rep, r, f"relations[{M.name}]")
        back = frob.factorization_reconstruct(M)
        if frob.pullback_roundtrip_equal(back, M):
            rep.ok(f"roundtrip[{V.name}]")
        else:
            rep.fail(f"roundtrip[{V.name}]", "reconstruction does not round-trip",
                     counterexample=V.name)
    # Hecke structures
    h, hrep = frob.build_hecke_structure(weyl[1], reps_adj)
    _summarize(rep, hrep, "hecke[W(1)]")
    if h is None:
        rep.fail("hecke-exists", "no Hecke structure on W(1)",
                 counterexample="W(1)")
    else:
        rep.ok("hecke-exists")
    emit(payload_from_report("frobenius-check", cfg, rep), cfg, started)
    return 0 if rep.passed else CHECK_FAILED


def _summarize(rep, inner, name):
    fails = inner.failures()
    if not fails:
        rep.ok(name, f"{len(inner.checks)} checks")
    else:
        rep.fail(name, fails[0].details or fails[0].name,
                 counterexample=fails[0].name)


def cmd_triple_verify(args):
    started = time.time()
    cfg = resolve_config(args)
    cfg["timing"] = args.timing
    if args.group:
        try:
            with open(args.group) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read group file: {exc}") from exc
    elif args.fixture:
        try:
            text = resources.files("smallq").joinpath(
                f"fixtures/{args.fixture}.group").read_text()
        except OSError as exc:
            raise UsageError(f"unknown fixture {args.fixture!r}") from exc
    else:
        raise UsageError("triple-verify requires --group or --fixture")
    try:
        table, sub_names = hc.parse_group_text(text)
    except hc.StructureError as exc:
        raise UsageError(f"group table does not parse: {exc}") from exc
    if args.subgroup:
        sub_names = [s for s in args.subgroup.split(",") if s]
    if not sub_names:
        raise UsageError("no subgroup given (file 'subgroup:' line or --subgroup)")
    try:
        T = hc.finite_group_triple(table, sub_names)
    except hc.StructureError as exc:
        raise UsageError(str(exc)) from exc

    rep = Report("triple-verify")
    try:
        _triple_checks(T, rep)
    except hc.StructureError as exc:
        # the table parsed and the triple was built: an engine fault from
        # here on is a failed check, reported with what ran before it
        rep.fail("structure-error", str(exc))
    emit(payload_from_report("triple-verify", cfg, rep), cfg, started)
    return 0 if rep.passed else CHECK_FAILED


def _triple_checks(T, rep):
    """The triple-verify suites on T, appended to rep."""
    rep.extend(hc.check_conditions(T, catalog=hc.simples(T.a)), prefix="cond/")
    ver = hc.verify_equivalence(T)
    _summarize(rep, ver, "equivalence")
    bij = blocks_mod.finite_block_bijection(T)
    _summarize(rep, bij, "block-bijection")
    ideal = hc.verify_ideal_prop(T)
    _summarize(rep, ideal, "ideal-prop")
    # twisting coherence over all points: twist(g, N) depends on one point,
    # so it is built once per point; g1 * g2 is itself a point
    pts = hc.points_of_O(T)
    objs = [hc.object_O(T), hc.object_A(T)]
    twisted = {tuple(g): [hc.twist(T, g, N) for N in objs] for g in pts}
    coherent = True
    for g1, g2 in itertools.product(pts, pts):
        g12 = tuple(hc.point_convolution(T, g1, g2))
        for inner, rhs in zip(twisted[tuple(g1)], twisted[g12]):
            lhs = hc.twist(T, g2, inner)
            if not all(mat_eq(lhs.act[i], rhs.act[i]) for i in range(T.O.dim)):
                coherent = False
    if coherent:
        rep.ok("twist-coherence", f"{len(pts)} points checked")
    else:
        rep.fail("twist-coherence", "composition law fails",
                 counterexample="twist")


def _bind_negative_window(argv):
    """argv with ``--window -3..3`` joined into ``--window=-3..3``.

    argparse reads a value that starts with a minus sign and is not a plain
    number as an option, so a window with a negative start would be a usage
    error in the separate form.  Joined, both forms parse alike.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--window" and len(arg) > 1 and arg[0] == "-" and arg[1].isdigit():
            out[-1] = f"--window={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_negative_window(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        if args.command == "linkage":
            return cmd_linkage(args)
        if args.command == "frobenius-check":
            return cmd_frobenius_check(args)
        if args.command == "triple-verify":
            return cmd_triple_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
