"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact (integer/cyclotomic equality); there are no
numerical tolerances to tune.  Each test prints a single PASS line on
success (visible with pytest -s or in the failure report otherwise).
"""

import json

import pytest

from smallq.blocks import (
    finite_block_bijection,
    linkage_report,
    observed_blocks_A1,
    predicted_blocks,
    steinberg_verify,
)
from smallq.cli import main as cli_main
from smallq.frobenius import (
    build_hecke_structure,
    dual_irrep_sl2,
    factorization_reconstruct,
    frobenius_pullback,
    pullback_roundtrip_equal,
    rep_direct_sum,
    restrict_to_small,
    trivial_rep,
    verify_commutator_identity,
)
from smallq.hopfcore import (
    check_conditions,
    finite_group_triple,
    identity_point,
    object_A,
    object_O,
    parse_group_text,
    point_convolution,
    points_of_O,
    simples,
    twist,
    verify_equivalence,
)
from smallq.linalg import inverse, mat_eq
from smallq.repcore import relation_check, tensor_product, weyl_module
from smallq.rootdata import DotOrbits, build_root_datum, steinberg_decompose
from smallq.scalars import QParams, qbinom, qint
from smallq.repcore import simple_module

A1 = build_root_datum("A1")
P4 = QParams(4)
P6 = QParams(6)

WEYL_MAX = 12
TENSOR_MAX = 6


def announce(num, description):
    print(f"ACCEPTANCE {num}: PASS  {description}")


@pytest.fixture(scope="module")
def catalogs():
    """The Weyl/tensor module catalog, built once per ell."""
    out = {}
    for params in (P4, P6):
        weyls = {lam: weyl_module(lam, params) for lam in range(WEYL_MAX + 1)}
        tensors = {}
        for lam in range(TENSOR_MAX + 1):
            for mu in range(TENSOR_MAX + 1):
                tensors[(lam, mu)] = tensor_product(weyls[lam], weyls[mu])
        out[params.ell] = (params, weyls, tensors)
    return out


@pytest.fixture(scope="module")
def triples():
    from importlib import resources
    out = {}
    for name in ("z4_z2", "s3_a3"):
        text = resources.files("smallq").joinpath(f"fixtures/{name}.group").read_text()
        table, sub = parse_group_text(text)
        out[name] = finite_group_triple(table, sub)
    return out


def test_criterion_1_q_combinatorics():
    for params in (P4, P6):
        ring = params.vring
        for i, d in enumerate(params.d):
            assert not qint(params.ell_i[i], d, ring).eval_zeta()
        ell = params.ell
        for t in range(1, ell):
            assert not qbinom(ell, t, 1, ring).eval_zeta(), (ell, t)
    ring = P4.vring
    v = ring.v
    for m in range(-20, 21):
        for t in range(0, 11):
            lhs = qbinom(m, t, 1, ring)
            rhs = v.shift(t - 1) * qbinom(m - 1, t, 1, ring)
            if t >= 1:
                rhs = rhs + qbinom(m - 1, t - 1, 1, ring).shift(-(m - t))
            assert lhs == rhs, (m, t)
    announce(1, "q-combinatorics: vanishing at zeta and the Pascal identity, exact")


def test_criterion_2_presentation_consistency(catalogs):
    count = 0
    for ell, (params, weyls, tensors) in catalogs.items():
        for lam, module in weyls.items():
            rep = relation_check(module)
            assert rep.passed, (ell, lam, rep.failures())
            count += 1
        for (lam, mu), module in tensors.items():
            rep = relation_check(module)
            assert rep.passed, (ell, lam, mu, rep.failures())
            count += 1
    announce(2, f"defining relations exact on {count} modules "
                f"(W(lam) lam<={WEYL_MAX}, tensors lam,mu<={TENSOR_MAX}, ell in 4,6)")


def test_criterion_3_commutator_identity(catalogs):
    count = 0
    for ell, (params, weyls, tensors) in catalogs.items():
        for module in list(weyls.values()) + list(tensors.values()):
            rep = verify_commutator_identity(module)
            assert rep.passed, (ell, module.name, rep.failures())
            count += 1
    announce(3, f"divided-power commutator identity exact on {count} modules")


def test_criterion_4_frobenius_roundtrip():
    reps = []
    for m in (0, 2, 4):
        reps.append((dual_irrep_sl2(m, P4, form="adjoint"), False))
    for m in (0, 1, 2, 3, 4):
        reps.append((dual_irrep_sl2(m, P4, form="sc"), True))
    reps.append((rep_direct_sum(dual_irrep_sl2(2, P4, form="adjoint"),
                                trivial_rep(P4)), False))
    for V, sc in reps:
        assert V.dim <= 5
        M = frobenius_pullback(V)
        assert relation_check(M).passed
        back = factorization_reconstruct(M, sc=sc)
        assert pullback_roundtrip_equal(back, M), V.name
        assert restrict_to_small(M, sc=sc).is_trivial(), V.name
    announce(4, "reconstruct . pullback = id and trivial small-group action "
                f"on {len(reps)} dual representations (dims <= 5)")


def test_criterion_5_hecke_structures():
    f = P4.field
    reps_adj = [trivial_rep(P4), dual_irrep_sl2(2, P4, form="adjoint")]
    reps_sc = [trivial_rep(P4, form="sc"), dual_irrep_sl2(1, P4, form="sc"),
               dual_irrep_sl2(2, P4, form="sc")]
    built = 0
    for lam in range(0, 7):
        W = weyl_module(lam, P4)
        h, rep = build_hecke_structure(W, reps_adj)
        assert h is not None and rep.passed, (lam, rep.failures())
        for alpha in h.alphas:
            assert inverse(alpha, len(alpha), f) is not None
        built += 1
    h, rep = build_hecke_structure(weyl_module(1, P4), reps_sc, sc=True)
    assert h is not None and rep.passed, rep.failures()
    announce(5, f"Hecke structures on W(lam) lam<=6: invertible alphas, unit, "
                "naturality and tensor compatibility exact")


def test_criterion_6_generator_theorem(triples):
    z4 = triples["z4_z2"]
    s3 = triples["s3_a3"]
    assert (z4.O.dim, z4.A.dim, z4.a.dim) == (2, 4, 2)
    assert len(simples(s3.a)) == 3
    for name, T in triples.items():
        cond = check_conditions(T, catalog=simples(T.a))
        statuses = {c.name: c.status for c in cond.checks}
        assert statuses["i"] == statuses["ii"] == statuses["iii"] == "pass", name
        assert statuses["iv_a"] == "pass", name
        rep = verify_equivalence(T)
        assert rep.passed, (name, rep.failures()[:3])
    announce(6, "category equivalence at finite scale: conditions, freeness "
                "witness, bijective adjunctions on the full catalog, "
                "simple-count cross-checks")


def test_criterion_7_twisting_coherence(triples):
    import itertools
    for name, T in triples.items():
        pts = points_of_O(T)
        objs = [object_O(T), object_A(T)]
        ident = identity_point(T)
        for N in objs:
            t_id = twist(T, ident, N)
            assert all(mat_eq(t_id.act[i], N.act[i]) for i in range(T.O.dim))
        for g1, g2 in itertools.product(pts, pts):
            g12 = point_convolution(T, g1, g2)
            for N in objs:
                lhs = twist(T, g2, twist(T, g1, N))
                rhs = twist(T, g12, N)
                assert all(mat_eq(lhs.act[i], rhs.act[i])
                           for i in range(T.O.dim)), name
        for g1, g2, g3 in itertools.product(pts, repeat=3):
            left = point_convolution(T, point_convolution(T, g1, g2), g3)
            right = point_convolution(T, g1, point_convolution(T, g2, g3))
            assert left == right
            N = objs[1]
            seq = twist(T, g3, twist(T, g2, twist(T, g1, N)))
            direct = twist(T, left, N)
            assert all(mat_eq(seq.act[i], direct.act[i])
                       for i in range(T.O.dim)), name
    announce(7, "twisting: composition law and triple coherence for all "
                "points of both test groups")


def test_criterion_8_linkage_window():
    window = [(0, 30)]
    rep = linkage_report(window, P4, A1)
    assert rep.passed, rep.failures()[:3]
    # the observed partition refines the prediction; chains exist in-window
    # exactly on the regular weights, where the partitions agree.  Singular
    # Weyl modules are simple (dim W = dim L(lam1) * dim V there), so their
    # orbit is never linked through a Weyl module: observed singletons.
    orb = DotOrbits(A1, P4)
    graph = observed_blocks_A1(window, P4)
    observed = graph.components()
    by_key = {}
    for node in graph.nodes:
        by_key.setdefault(orb.orbit_key(node), set()).add(node)
    for comp in observed:
        key = orb.orbit_key(comp[0])
        if orb.is_singular(comp[0]):
            assert set(comp) == {comp[0]}, comp
        else:
            assert set(comp) == by_key[key], (comp, sorted(by_key[key]))
    table = predicted_blocks([(0, 7)], P4, A1)
    assert table.blocks() == [[(0,), (6,)], [(1,), (5,)], [(2,), (4,)],
                              [(3,)], [(7,)]]
    announce(8, "A1 linkage at ell=4 on 0..30: observed refines predicted, "
                "equality on regular weights; mod-8 blocks "
                "{0,6},{1,5},{2,4},{3},{7}")


def test_criterion_9_steinberg():
    for lam in range(0, 21):
        rep = steinberg_verify(lam, P4)
        assert rep.passed, (lam, rep.failures())
        lam1, mu = steinberg_decompose((lam,), P4, A1)
        assert simple_module(lam, P4).dim == \
            simple_module(lam1[0], P4).dim * (mu[0] + 1)
    announce(9, "Steinberg: dimension rule and explicit isomorphism "
                "L(lam) = L(lam1) (x) Fr*_sc(V^mu) for lam <= 20")


def test_criterion_10_block_bijection(triples):
    for name, T in triples.items():
        rep = finite_block_bijection(T)
        assert rep.passed, (name, rep.failures())
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["clause-a"] == "pass"
        assert statuses["clause-b"] == "pass"
        assert statuses["regular-block"] == "pass"
    announce(10, "block bijection on both triples: Res/Ind clauses and the "
                 "regular block correspondence")


def test_criterion_11_determinism(capsys, tmp_path):
    argv = ["linkage", "--type", "A1", "--ell", "4", "--window", "0..10",
            "--seed", "3"]
    cli_main(argv)
    out1 = capsys.readouterr().out
    cli_main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2 and out1
    json.loads(out1)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    cli_main(["frobenius-check", "--ell", "4", "--max-weyl", "2",
              "--max-tensor", "1", "--seed", "3", "--out", str(a)])
    cli_main(["frobenius-check", "--ell", "4", "--max-weyl", "2",
              "--max-tensor", "1", "--seed", "3", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    announce(11, "byte-identical JSON reports for identical configs and seeds")
