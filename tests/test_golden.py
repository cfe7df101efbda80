"""CLI reports against stored golden files, byte for byte.

The linkage and frobenius-check files under tests/golden/ were written by
the CLI before the divided powers were rebuilt from their closed forms; the
windows reach modules well beyond the bench's (A1 Weyl modules up to W(40),
tensor products of W(0..2)), so any change in a matrix entry that reaches a
report shows up here. The triple-verify files were written before the triple
engine stored its induced objects; the D4 table next to them is a seeded
relabelling of the dihedral group over its rotations.
"""

from pathlib import Path

import pytest

from smallq.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("linkage_A1_ell4_0-40.json",
     ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..40", "--ell", "4"]),
    ("linkage_A1_ell6_0-40.json",
     ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..40", "--ell", "6"]),
    ("frobenius-check_ell4.json", ["frobenius-check", "--ell", "4"]),
    ("triple-verify_z4_z2.json", ["triple-verify", "--fixture", "z4_z2"]),
    ("triple-verify_s3_a3.json", ["triple-verify", "--fixture", "s3_a3"]),
    ("triple-verify_D4_seed0.json",
     ["triple-verify", "--group", str(GOLDEN / "triple-verify_D4_seed0.group")]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
