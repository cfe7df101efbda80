"""CLI behaviour: reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import smallq
from smallq import blocks, cli, hopfcore
from smallq.cli import MAX_A1_WINDOW, MAX_WINDOW_WEIGHTS, main, parse_window, UsageError
from smallq.hopfcore import MAX_GROUP_ORDER


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_window():
    assert parse_window("0..7", 1) == [(0, 7)]
    assert parse_window("-2..2x0..4", 2) == [(-2, 2), (0, 4)]
    assert parse_window("7..0", 1) == [(7, 0)]      # empty range is legal
    with pytest.raises(UsageError):
        parse_window("0..7", 2)
    with pytest.raises(UsageError):
        parse_window("abc", 1)


def test_linkage_empty_window(capsys):
    code, out, _ = run_cli(["linkage", "--type", "A1", "--ell", "4",
                            "--window", "5..2", "--suite", "predict"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["artifacts"]["block_table"]["rows"] == []
    assert data["artifacts"]["block_table"]["blocks"] == []


def test_linkage_blocks(capsys):
    code, out, _ = run_cli(["linkage", "--type", "A1", "--ell", "4",
                            "--window", "0..7"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["passed"] is True
    blocks = data["artifacts"]["block_table"]["blocks"]
    assert blocks == [[[0], [6]], [[1], [5]], [[2], [4]], [[3]], [[7]]]


def test_linkage_prediction_only_rank2(capsys):
    code, out, _ = run_cli(["linkage", "--type", "A2", "--ell", "6",
                            "--window", "0..3x0..3", "--suite", "predict"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    assert data["artifacts"]["block_table"]["cartan_type"] == "A2"
    assert len(data["artifacts"]["block_table"]["rows"]) == 16


def test_linkage_verify_on_rank2_exit_2(capsys, monkeypatch):
    # verify observes A1 only; on rank 2, named or by default, it is refused
    # before any work rather than reporting the prediction as "verify"
    def reached(window, params, datum):
        raise AssertionError("the prediction ran")

    monkeypatch.setattr(blocks, "predicted_blocks", reached)
    for cartan_type in ("A2", "B2", "G2"):
        argv = ["linkage", "--type", cartan_type, "--ell", "6", "--window", "0..3x0..3"]
        for suite in (["--suite", "verify"], []):
            code, out, err = run_cli(argv + suite, capsys)
            assert code == 2 and out == "", (cartan_type, suite)
            assert "--suite predict" in err and cartan_type in err


def test_linkage_verify_on_negative_window_exit_2(capsys, monkeypatch):
    # an A1 window whose top is negative or below its bottom holds no Weyl
    # module to observe: verify, named or by default, is refused before any
    # work rather than reporting the prediction alone as "verify"
    argv = ["linkage", "--type", "A1", "--ell", "4"]
    with monkeypatch.context() as m:
        m.setattr(blocks, "predicted_blocks", lambda *a: 1 / 0)
        for window in ("--window=-5..-1", "--window=-1..-1", "--window=2..-3",
                       "--window=5..2"):
            for suite in (["--suite", "verify"], []):
                code, out, err = run_cli(argv + [window] + suite, capsys)
                assert code == 2 and out == "", (window, suite)
                assert window.split("=")[1] in err and "--suite predict" in err
    code, out, _ = run_cli(argv + ["--window=-5..-1", "--suite", "predict"], capsys)
    assert code == 0 and json.loads(out)["params"]["suite"] == "predict"
    # a window that reaches 0 is still observed, with the same bytes
    code, out, _ = run_cli(argv + ["--window=-3..3"], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "7254142f19ea20514e49b77474f0f3f8"


def test_linkage_negative_window_joined_form(capsys):
    code, out, _ = run_cli(["linkage", "--type", "A1", "--ell", "4",
                            "--window=-3..3"], capsys)
    assert code == 0
    rows = json.loads(out)["artifacts"]["block_table"]["rows"]
    assert [r["weight"] for r in rows] == [[lam] for lam in range(-3, 4)]


def test_linkage_negative_window_separate_form(capsys):
    # argparse alone reads -3..3 as an option and exits 2
    joined = run_cli(["linkage", "--type", "A1", "--ell", "4", "--window=-3..3"], capsys)
    separate = run_cli(["linkage", "--type", "A1", "--ell", "4", "--window", "-3..3"], capsys)
    assert separate == joined and separate[0] == 0
    rank2 = ["linkage", "--type", "A2", "--ell", "6", "--suite", "predict"]
    assert (run_cli(rank2 + ["--window", "-2..1x0..1"], capsys)
            == run_cli(rank2 + ["--window=-2..1x0..1"], capsys))
    # only a window value is joined: a flag after --window is still a usage error
    code, out, _ = run_cli(["linkage", "--type", "A1", "--window", "--ell", "4"], capsys)
    assert code == 2 and out == ""


def test_linkage_requires_window(capsys):
    code, _, err = run_cli(["linkage", "--type", "A1", "--ell", "4"], capsys)
    assert code == 2
    assert "window" in err


def test_bad_type_exit_2(capsys):
    code, _, err = run_cli(["linkage", "--type", "E8", "--ell", "4",
                            "--window", "0..7"], capsys)
    assert code == 2


def test_bad_ell_exit_2(capsys):
    code, _, err = run_cli(["linkage", "--type", "A1", "--ell", "3",
                            "--window", "0..7"], capsys)
    assert code == 2


def test_unknown_suite_exit_2(capsys):
    code, out, err = run_cli(["linkage", "--type", "A1", "--ell", "4",
                              "--window", "0..7", "--suite", "bogus"], capsys)
    assert code == 2
    assert out == ""
    assert "suite" in err


def test_negative_catalog_size_exit_2(capsys):
    for flag in ("--max-weyl", "--max-tensor"):
        code, out, err = run_cli(["frobenius-check", "--ell", "4", flag, "-1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert flag in err


def test_non_integer_config_value_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ell=4\nmax_weyl=abc\n")
    code, out, err = run_cli(["frobenius-check", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "max_weyl" in err


def test_frobenius_check_passes(capsys):
    code, out, _ = run_cli(["frobenius-check", "--ell", "4",
                            "--max-weyl", "3", "--max-tensor", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_frobenius_check_corrupt_negative_control(capsys):
    code, out, _ = run_cli(["frobenius-check", "--ell", "4", "--corrupt",
                            "--max-weyl", "2", "--max-tensor", "0"], capsys)
    assert code == 1
    data = json.loads(out)
    fails = [c for c in data["checks"] if c["status"] == "fail"]
    assert fails
    assert any("commutator" in c.get("counterexample", "") or
               "commutator" in c["name"] for c in fails)


def test_frobenius_check_corrupt_leaves_shared_weyl_clean(capsys):
    # W(1) is built once and shared by the catalog, the tensor factors and
    # the Hecke structure: only the catalog entry may be corrupted
    code, out, _ = run_cli(["frobenius-check", "--ell", "4", "--corrupt",
                            "--max-weyl", "2", "--max-tensor", "1"], capsys)
    assert code == 1
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert sorted(n for n, s in status.items() if s == "fail") == [
        "commutator[W(1)+corrupted]", "relations[W(1)+corrupted]"]
    assert status["relations[W(1)(x)W(1)]"] == "pass"
    assert status["commutator[W(1)(x)W(1)]"] == "pass"
    assert status["hecke[W(1)]"] == "pass"


def test_frobenius_check_corrupt_empty_catalog_exit_2(capsys):
    # W(0) and W(0) (x) W(0): every generator acts by zero, nothing to corrupt
    code, out, err = run_cli(["frobenius-check", "--ell", "4", "--corrupt",
                              "--max-weyl", "0", "--max-tensor", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "nothing in the catalog can be corrupted" in err
    # with a tensor factor W(1) the first entry a generator acts on is corrupted
    code, out, _ = run_cli(["frobenius-check", "--ell", "4", "--corrupt",
                            "--max-weyl", "0", "--max-tensor", "1"], capsys)
    assert code == 1
    fails = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert fails == ["relations[W(0)(x)W(1)+corrupted]",
                     "commutator[W(0)(x)W(1)+corrupted]"]


@pytest.mark.parametrize("corrupt", [False, True])
def test_frobenius_check_streams_its_catalog(capsys, monkeypatch, corrupt):
    # only the tensor factors W(0..2) are kept: a W(lam) above them is dead
    # before the next entry is built, and so is every earlier tensor product
    max_weyl, max_tensor = 6, 2
    weyls, tensors = [], []

    def assert_dropped():
        assert [lam for lam, ref in weyls if lam > max_tensor and ref()] == []
        assert [k for k, ref in enumerate(tensors) if ref()] == []

    def weyl_module(lam, *args, **kwargs):
        assert_dropped()
        module = build_weyl(lam, *args, **kwargs)
        weyls.append((lam, weakref.ref(module)))
        return module

    def tensor_product(M, N, *args, **kwargs):
        assert_dropped()
        module = build_tensor(M, N, *args, **kwargs)
        tensors.append(weakref.ref(module))
        return module

    build_weyl, build_tensor = cli.weyl_module, cli.tensor_product
    monkeypatch.setattr(cli, "weyl_module", weyl_module)
    monkeypatch.setattr(cli, "tensor_product", tensor_product)
    code, out, _ = run_cli(["frobenius-check", "--ell", "4", "--max-weyl", str(max_weyl),
                            "--max-tensor", str(max_tensor)]
                           + ["--corrupt"] * corrupt, capsys)
    assert code == (1 if corrupt else 0)
    assert [lam for lam, _ in weyls] == list(range(max_weyl + 1))
    assert len(tensors) == (max_tensor + 1) ** 2
    assert_dropped()
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names[:4] == ["relations[W(0)]", "commutator[W(0)]",
                         "relations[W(1)+corrupted]" if corrupt else "relations[W(1)]",
                         "commutator[W(1)+corrupted]" if corrupt else "commutator[W(1)]"]
    assert names[2 * (max_weyl + 1)] == "relations[W(0)(x)W(0)]"


def _refused_linkage(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--window" in err and str(MAX_A1_WINDOW) in err


def test_linkage_window_above_budget_flag_exit_2(capsys):
    top = MAX_A1_WINDOW + 1
    _refused_linkage(capsys, ["linkage", "--type", "A1", "--ell", "4",
                              "--window", f"0..{top}"])
    _refused_linkage(capsys, ["linkage", "--type", "A1", "--ell", "6", "--suite",
                              "verify", "--window", f"{top}..{top}"])
    # the budget itself is accepted (a one-weight window keeps this quick)
    code, _, _ = run_cli(["linkage", "--type", "A1", "--ell", "4", "--window",
                          f"{MAX_A1_WINDOW}..{MAX_A1_WINDOW}"], capsys)
    assert code == 0
    # prediction alone has no A1 budget
    code, _, _ = run_cli(["linkage", "--type", "A1", "--ell", "4", "--suite",
                          "predict", "--window", f"0..{top}"], capsys)
    assert code == 0


def test_linkage_window_above_budget_config_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"type=A1\nell=4\nsuite=verify\nwindow=0..{MAX_A1_WINDOW + 1}\n")
    _refused_linkage(capsys, ["linkage", "--config", str(cfg)])


class ReachedPrediction(Exception):
    """Raised in place of the prediction: the window passed the budget."""


def test_linkage_window_above_weight_budget_exit_2(capsys, monkeypatch):
    def reached(window, params, datum):
        raise ReachedPrediction

    # the budget is checked before any work: no window here is computed
    monkeypatch.setattr(blocks, "predicted_blocks", reached)
    for argv in (["--type", "A2", "--window", "0..1000x0..1000"],
                 ["--type", "A1", "--window", f"0..{MAX_WINDOW_WEIGHTS}"],
                 ["--type", "G2", "--ell", "6", "--window", "-100..100x0..100"]):
        code, out, err = run_cli(["linkage", "--suite", "predict"] + argv, capsys)
        assert code == 2 and out == ""
        assert "weights" in err and str(MAX_WINDOW_WEIGHTS) in err
    # a window of exactly the budget, and an empty one, are let through
    for argv in (["--type", "A1", "--window", f"1..{MAX_WINDOW_WEIGHTS}"],
                 ["--type", "B2", "--window", "0..99x0..199"],
                 ["--type", "A2", "--window", "5..2x0..100000000"]):
        with pytest.raises(ReachedPrediction):
            main(["linkage", "--suite", "predict"] + argv)


def test_out_to_an_unwritable_path_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["linkage", "--window", "0..3", "--out", str(target)],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write report:") and "Traceback" not in err
    assert not target.parent.exists()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each costs a cold start on every call; dataclasses pulls in inspect,
    # ast, dis and tokenize, and fractions pulls in decimal
    probe = ("import sys, smallq.cli; print(sorted(m for m in "
             "('dataclasses', 'inspect', 'fractions', 'decimal') if m in sys.modules))")
    src = str(Path(smallq.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def _refused_catalog(capsys, tmp_path, key, size, cap):
    """A catalog size above its cap exits 2 from a flag and from --config."""
    flag = f"--{key.replace('_', '-')}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"ell=6\n{key}={size}\n")
    for argv in (["frobenius-check", "--ell", "6", flag, str(size)],
                 ["frobenius-check", "--config", str(cfg)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert flag in err and str(cap) in err


def test_max_weyl_above_budget_exit_2(capsys, tmp_path):
    _refused_catalog(capsys, tmp_path, "max_weyl", 41, 40)


def test_max_tensor_above_budget_exit_2(capsys, tmp_path):
    _refused_catalog(capsys, tmp_path, "max_tensor", 9, 8)


def test_ell_above_budget_exit_2(capsys, tmp_path, monkeypatch):
    # without the budget, ell 120 with only W(0..1) ran for 100 s (the
    # generic binomials of the commutator identity); the budget is read
    # before any module is built, from a flag and from --config
    code, _, _ = run_cli(["frobenius-check", "--ell", str(cli.MAX_ELL), "--max-weyl", "1",
                          "--max-tensor", "0"], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "weyl_module", None)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ell=120\nmax_weyl=1\nmax_tensor=0\n")
    for argv in (["frobenius-check", "--ell", "18", "--max-weyl", "0", "--max-tensor", "0"],
                 ["frobenius-check", "--ell", "120", "--max-weyl", "1", "--max-tensor", "0"],
                 ["frobenius-check", "--config", str(cfg)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--ell" in err and str(cli.MAX_ELL) in err
    assert cli.MAX_ELL == 16


def test_triple_verify_fixture(capsys):
    code, out, _ = run_cli(["triple-verify", "--fixture", "z4_z2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "equivalence" in names
    assert "block-bijection" in names
    assert "twist-coherence" in names


def test_triple_verify_s3_fixture(capsys):
    code, out, _ = run_cli(["triple-verify", "--fixture", "s3_a3"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_twist_coherence_builds_each_inner_twist_once(capsys, monkeypatch):
    # d6_centre: 6 points, 2 objects; one inner twist per point and object,
    # one outer twist per pair of points and object, and the same report
    calls = []
    real = hopfcore.twist

    def counting(T, gamma, N, name=""):
        calls.append((tuple(gamma), N.name))
        return real(T, gamma, N, name)

    monkeypatch.setattr(hopfcore, "twist", counting)
    code, out, _ = run_cli(["triple-verify", "--fixture", "d6_centre"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    assert len(calls) == 6 * 2 + 6 * 6 * 2
    inner = [c for c in calls if not c[1].startswith("twist(")]
    assert len(inner) == len(set(inner)) == 6 * 2
    golden = Path(__file__).parent / "golden" / "triple-verify_d6_centre.json"
    assert out.encode() == golden.read_bytes()


def test_triple_verify_engine_fault_is_a_failed_check(capsys, monkeypatch):
    # a StructureError after the table parsed: a failed check carrying its
    # message, the checks before it kept, exit 1 and no traceback
    def broken(T):
        raise hopfcore.StructureError("engine fault for the test")

    monkeypatch.setattr(hopfcore, "verify_equivalence", broken)
    code, out, err = run_cli(["triple-verify", "--fixture", "z4_z2"], capsys)
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["passed"] is False
    assert data["checks"][-1] == {"name": "structure-error", "status": "fail",
                                  "details": "engine fault for the test",
                                  "counterexample": "engine fault for the test"}
    assert [c["name"] for c in data["checks"][:-1]] == [
        "cond/i", "cond/ii", "cond/iii", "cond/iv_a", "cond/iv_b"]


def test_triple_verify_non_normal_exit_2(capsys):
    code, _, err = run_cli(["triple-verify", "--fixture", "s3_bad"], capsys)
    assert code == 2
    assert "normal" in err


def test_triple_verify_missing_input_exit_2(capsys):
    code, _, err = run_cli(["triple-verify"], capsys)
    assert code == 2


def test_triple_verify_group_and_fixture_exit_2(capsys):
    # two sources of the group table: refused whichever comes first, not
    # one of them silently ignored
    group = str(Path(__file__).parent / "golden" / "triple-verify_D4_seed0.group")
    for argv in (["--fixture", "z4_z2", "--group", group],
                 ["--group", group, "--fixture", "z4_z2"]):
        code, out, err = run_cli(["triple-verify"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err and "Traceback" not in err


def _z4_text():
    return (Path(smallq.__file__).parent / "fixtures" / "z4_z2.group").read_text()


def _triple_verify_text(text, tmp_path, capsys):
    path = tmp_path / "t.group"
    path.write_text(text)
    code, out, err = run_cli(["triple-verify", "--group", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: group table does not parse: ") and "Traceback" not in err
    return err


def test_triple_verify_refuses_a_pair_given_twice(capsys, tmp_path):
    # an extra line ahead of the true one: the last line used to win
    text = _z4_text().replace("a a -> b\n", "a a -> c\na a -> b\n")
    assert "product a a given twice" in _triple_verify_text(text, tmp_path, capsys)


@pytest.mark.parametrize("header", ["elements: e a b c", "subgroup: e"])
def test_triple_verify_refuses_a_second_header(header, capsys, tmp_path):
    text = _z4_text() + header + "\n"
    key = header.split()[0]
    assert f"second '{key}' header" in _triple_verify_text(text, tmp_path, capsys)


def test_triple_verify_refuses_an_element_named_twice(capsys, tmp_path):
    text = _z4_text().replace("elements: e a b c", "elements: e a b c a")
    err = _triple_verify_text(text, tmp_path, capsys)
    assert "element a named twice" in err and "missing product" not in err


@pytest.mark.parametrize("source", ["file", "flag"])
def test_triple_verify_refuses_a_subgroup_that_names_an_element_twice(source, capsys,
                                                                      tmp_path):
    # the subgroup was deduplicated before: e b e ran as e b and exited 0
    path = tmp_path / "t.group"
    text = _z4_text()
    argv = ["triple-verify", "--group", str(path)]
    if source == "file":
        (header,) = [ln for ln in text.splitlines() if ln.startswith("subgroup:")]
        text = text.replace(header, "subgroup: e b e")
    else:
        argv += ["--subgroup", "e,b,e"]
    path.write_text(text)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "element 'e' named twice in subgroup" in err and "Traceback" not in err


@pytest.mark.parametrize("value, entry", [("", 1), ("e,,b", 2), ("e,b,", 3)])
def test_triple_verify_refuses_an_empty_subgroup_entry(value, entry, capsys):
    # "" used to run the file's subgroup line and exit 0, and e,,b to drop
    # the empty name without a word
    code, out, err = run_cli(["triple-verify", "--fixture", "z4_z2", "--subgroup", value],
                             capsys)
    assert code == 2 and out == ""
    assert f"--subgroup {value!r}: entry {entry} is empty" in err and "Traceback" not in err


def test_triple_verify_refuses_a_table_over_the_budget(capsys, tmp_path):
    # counted from the header alone, before any product is looked for
    names = " ".join(f"g{i}" for i in range(MAX_GROUP_ORDER + 1))
    err = _triple_verify_text(f"elements: {names}\nsubgroup: g0\n", tmp_path, capsys)
    assert f"{MAX_GROUP_ORDER + 1} elements, more than the budget of {MAX_GROUP_ORDER}" in err
    assert "missing product" not in err


def test_group_order_budget_admits_its_bound():
    # a cyclic group of the budget's order parses
    n = MAX_GROUP_ORDER
    lines = [f"elements: {' '.join(f'g{i}' for i in range(n))}"]
    lines += [f"g{i} g{j} -> g{(i + j) % n}" for i in range(n) for j in range(n)]
    assert hopfcore.parse_group_text("\n".join(lines))[0].n == n


def test_reports_byte_identical(capsys, tmp_path):
    argv = ["linkage", "--type", "A1", "--ell", "4", "--window", "0..10",
            "--seed", "7"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli(argv + ["--out", str(out_a)], capsys)
    run_cli(argv + ["--out", str(out_b)], capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("type=A1\nell=4\nwindow=0..7\nformat=json\n")
    code, out, _ = run_cli(["linkage", "--config", str(cfg)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["params"]["ell"] == 4
    # flags override the file
    code, out, _ = run_cli(["linkage", "--config", str(cfg),
                            "--window", "0..3"], capsys)
    rows = json.loads(out)["artifacts"]["block_table"]["rows"]
    assert len(rows) == 4


def test_config_key_a_subcommand_does_not_read_exit_2(capsys, tmp_path):
    # a misspelt key, a key another subcommand reads, and a setting that is
    # no flag are refused before any work, not ignored
    cfg = tmp_path / "run.cfg"
    for command, line in (("linkage", "windwo=0..900"),
                          ("linkage", "max_weyl=3"),
                          ("linkage", "timing=1"),
                          ("frobenius-check", "window=0..3"),
                          ("frobenius-check", "suite=predict"),
                          ("triple-verify", "ell=7"),
                          ("triple-verify", "type=G2")):
        cfg.write_text(f"{line}\n")
        argv = [command, "--config", str(cfg)]
        if command == "triple-verify":
            argv += ["--fixture", "z4_z2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", line
        key = line.split("=")[0]
        assert f"config key {key!r} is not read by {command}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("lines,message", [
    (["window=0..7", "ell=4", "ell=6"], "config key 'ell' given twice"),
    (["window=0..7", "window=0..3"], "config key 'window' given twice"),
    (["window=0..7", "type=A1", "cartan_type=A2"],
     "config key 'cartan_type' given twice (as 'type' before)"),
    (["window=0..7", "cartan_type=A1", "type=A1"],
     "config key 'type' given twice (as 'cartan_type' before)"),
])
def test_config_key_given_twice_exit_2(lines, message, capsys, tmp_path):
    # the last line used to win: ell=4 then ell=6 ran at ell 6
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["linkage", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_config_unknown_format_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=0..7\nformat=xml\n")
    code, out, err = run_cli(["linkage", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "unknown format 'xml'" in err


def test_flag_a_subcommand_does_not_read_exit_2(capsys):
    for argv in (["triple-verify", "--fixture", "z4_z2", "--type", "G2"],
                 ["triple-verify", "--fixture", "z4_z2", "--ell", "7"],
                 ["triple-verify", "--fixture", "z4_z2", "--window", "0..3"],
                 ["triple-verify", "--fixture", "z4_z2", "--suite", "verify"],
                 ["frobenius-check", "--ell", "4", "--window", "0..3"],
                 ["frobenius-check", "--ell", "4", "--suite", "predict"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv
        assert "unrecognized arguments" in err


def test_text_format(capsys):
    code, out, _ = run_cli(["linkage", "--type", "A1", "--ell", "4",
                            "--window", "0..7", "--format", "text"], capsys)
    assert code == 0
    assert "result: pass" in out
