"""CLI reports against stored golden files, byte for byte.

The linkage and frobenius-check files under tests/golden/ were written by
the CLI before the divided powers were rebuilt from their closed forms; the
windows reach modules well beyond the bench's (A1 Weyl modules up to W(40),
tensor products of W(0..2)), so any change in a matrix entry that reaches a
report shows up here. The ell 10 linkage file (W(0..60), ell_i = 10) was
written while every binomial at zeta was the generic Gaussian polynomial
evaluated there and every field inverse an extended Euclid in Fractions.
The ell 6 linkage file for the window 0..160 was written while the
composition series was still peeled over the field (spun closures,
restricted submodules and quotients), before it was peeled on index sets.
The ell 8 frobenius-check file (Weyl modules up to
W(20), tensor products of W(0..6)) was written while Laurent polynomials
still boxed every integer coefficient into the cyclotomic field; it is the
one report that builds generic families of high degree. The ell 6
frobenius-check file is the catalog at both budget caps (W(0..40), tensor
products of W(0..8)); it was written while the whole catalog was built
before its first entry was checked. The ell 12 frobenius-check file (Weyl
modules up to W(24), tensor products of W(0..5)) was written while the
divided-power and generic commutator identities were still decided in
Laurent matrix arithmetic. The triple-verify files were written before the triple
engine stored its induced objects; the D4 table next to them is a seeded
relabelling of the dihedral group over its rotations. The D6 report was
written when ``twist`` moved the point to the last Sweedler factor; D6 over
its centre is the one fixture with a nonabelian quotient. The Q8 table is the
seed-0 relabelling of the quaternion group over <i> that the bench draws
(``group_table("Q8", 0)`` in bench/groups.py); its report, byte-identical to
the D4 one, was written while Ind still restricted all |A| coaction matrices
of A, before it derived them along the walk of the generating set.
The Z/16 over Z/8 report and its triple-details.json entry were written
while ``intertwiner_space`` still turned every diagonal generator pair into
equations and every comodule and object was validated on each construction;
every simple there is a character, so that fold carries the most.
triple-details.json holds every check of the triple engine's suites on the
six triples of ``TRIPLE_CASES``; its first three were written before the
triple engine's restrictions and comodule-map checks went through the
``linalg.restrict`` / ``intertwines`` kernels. Its Q8 and D6 entries were
added while condition (iv b) still built Ind of every direct sum in full,
before it read only their carriers.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from smallq import blocks, hopfcore
from smallq.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("linkage_A1_ell4_0-40.json",
     ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..40", "--ell", "4"]),
    ("linkage_A1_ell6_0-40.json",
     ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..40", "--ell", "6"]),
    ("linkage_A1_ell6_0-160.json",
     ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..160", "--ell", "6"]),
    ("linkage_A1_ell10_0-60.json",
     ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..60", "--ell", "10"]),
    ("frobenius-check_ell4.json", ["frobenius-check", "--ell", "4"]),
    ("frobenius-check_ell8_20-6.json",
     ["frobenius-check", "--ell", "8", "--max-weyl", "20", "--max-tensor", "6"]),
    ("frobenius-check_ell6_40-8.json",
     ["frobenius-check", "--ell", "6", "--max-weyl", "40", "--max-tensor", "8"]),
    ("frobenius-check_ell12_24-5.json",
     ["frobenius-check", "--ell", "12", "--max-weyl", "24", "--max-tensor", "5"]),
    ("triple-verify_z4_z2.json", ["triple-verify", "--fixture", "z4_z2"]),
    ("triple-verify_s3_a3.json", ["triple-verify", "--fixture", "s3_a3"]),
    ("triple-verify_D4_seed0.json",
     ["triple-verify", "--group", str(GOLDEN / "triple-verify_D4_seed0.group")]),
    ("triple-verify_d6_centre.json", ["triple-verify", "--fixture", "d6_centre"]),
    ("triple-verify_Q8_seed0.json",
     ["triple-verify", "--group", str(GOLDEN / "triple-verify_Q8_seed0.group")]),
    ("triple-verify_Z16_Z8.json",
     ["triple-verify", "--group", str(GOLDEN / "triple-verify_Z16_Z8.group")]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# Every check of the triple engine's suites, details included. The CLI folds
# verify_equivalence, finite_block_bijection and verify_ideal_prop into one
# "N checks" line each, so a wrong Hom or Ind dimension that still passes
# would not change the triple-verify reports above; it changes this file.
TRIPLE_DETAILS = GOLDEN / "triple-details.json"
TRIPLE_CASES = {
    "z4_z2": lambda: resources.files("smallq").joinpath("fixtures/z4_z2.group").read_text(),
    "s3_a3": lambda: resources.files("smallq").joinpath("fixtures/s3_a3.group").read_text(),
    "D4_seed0": lambda: (GOLDEN / "triple-verify_D4_seed0.group").read_text(),
    "Q8_seed0": lambda: (GOLDEN / "triple-verify_Q8_seed0.group").read_text(),
    "d6_centre": lambda: resources.files("smallq").joinpath("fixtures/d6_centre.group").read_text(),
    "Z16_Z8": lambda: (GOLDEN / "triple-verify_Z16_Z8.group").read_text(),
}


def triple_details(case):
    """{suite: [[name, status, details], ...]} for one triple."""
    table, sub = hopfcore.parse_group_text(TRIPLE_CASES[case]())
    T = hopfcore.finite_group_triple(table, sub)
    reports = {
        "check_conditions": hopfcore.check_conditions(T, catalog=hopfcore.simples(T.a)),
        "verify_equivalence": hopfcore.verify_equivalence(T),
        "finite_block_bijection": blocks.finite_block_bijection(T),
        "verify_ideal_prop": hopfcore.verify_ideal_prop(T),
    }
    return {suite: [[c.name, c.status, c.details] for c in rep.checks]
            for suite, rep in reports.items()}


@pytest.mark.parametrize("case", sorted(TRIPLE_CASES))
def test_triple_details_match_golden(case):
    stored = json.loads(TRIPLE_DETAILS.read_text())
    assert triple_details(case) == stored[case]
