"""Frobenius pullback, small quantum group, factorization, Hecke structures."""

import itertools

import pytest
from dense import rows, sparse

from smallq import frobenius
from smallq.frobenius import (
    DualTorusPoint,
    build_hecke_structure,
    dual_irrep_sl2,
    factorization_reconstruct,
    frobenius_pullback,
    hom_big,
    hom_small,
    pullback_roundtrip_equal,
    rep_direct_sum,
    rep_tensor,
    restrict_to_small,
    small_invariants,
    trivial_rep,
    twist_hecke,
    verify_commutator_identity,
)
from smallq.linalg import inverse, mat_eq
from smallq.repcore import (
    corrupt_module,
    relation_check,
    tensor_product,
    trivial_module,
    weyl_module,
)
from smallq.scalars import QParams

P4 = QParams(4)
P6 = QParams(6)


def test_pullback_examples():
    triv = frobenius_pullback(trivial_rep(P4))
    assert triv.dim == 1 and triv.weights == [(0,)]
    std = frobenius_pullback(dual_irrep_sl2(1, P4, form="sc"))
    assert std.dim == 2
    assert std.weights == [(4,), (-4,)]
    # divided E maps the -4 line to the +4 line
    div_e = rows(std.z.div_e(0), 2, P4.field.zero)
    assert div_e[0][1]
    assert not div_e[1][0]


def test_pullback_relation_check():
    for params in (P4, P6):
        for m, form in ((2, "adjoint"), (4, "adjoint"), (1, "sc"), (3, "sc")):
            mod = frobenius_pullback(dual_irrep_sl2(m, params, form=form))
            rep = relation_check(mod)
            assert rep.passed, (params.ell, m, form, rep.failures())


def test_pullback_monoidal():
    # Fr*(V1 (x) V2) equals Fr*(V1) (x) Fr*(V2) on the nose in this basis
    for m1, m2 in ((1, 1), (1, 2), (2, 1)):
        V1 = dual_irrep_sl2(m1, P4, form="sc")
        V2 = dual_irrep_sl2(m2, P4, form="sc")
        lhs = tensor_product(frobenius_pullback(V1), frobenius_pullback(V2))
        rhs = frobenius_pullback(rep_tensor(V1, V2))
        assert lhs.weights == rhs.weights
        for a in range(P4.ell_i[0] + 1):
            assert mat_eq(lhs.z.efam[0][a], rhs.z.efam[0][a]), (m1, m2, a)
            assert mat_eq(lhs.z.ffam[0][a], rhs.z.ffam[0][a]), (m1, m2, a)


def test_restriction_triviality():
    # restriction of a pullback to the small group factors through vector spaces
    assert restrict_to_small(frobenius_pullback(dual_irrep_sl2(2, P4, form="adjoint"))).is_trivial()
    assert restrict_to_small(frobenius_pullback(dual_irrep_sl2(1, P4, form="sc")), sc=True).is_trivial()
    assert restrict_to_small(trivial_module(P4)).is_trivial()
    assert not restrict_to_small(weyl_module(1, P4)).is_trivial()
    # the sc-pullback is not trivial for the adjoint-form small group
    assert not restrict_to_small(frobenius_pullback(dual_irrep_sl2(1, P4, form="sc"))).is_trivial()


def test_small_invariants():
    M = frobenius_pullback(dual_irrep_sl2(2, P4, form="adjoint"))
    assert small_invariants(M).dim == M.dim
    assert small_invariants(weyl_module(1, P4)).dim == 0
    assert small_invariants(trivial_module(P4)).dim == 1


def test_small_invariants_of_mixed_tensor():
    # invariants of W(lam) (x) Fr*(V) contain (invariants of W(lam)) (x) V
    from smallq.linalg import RowBasis
    V = dual_irrep_sl2(2, P4, form="adjoint")
    for lam in (0, 1, 2):
        W = weyl_module(lam, P4)
        M = tensor_product(W, frobenius_pullback(V))
        inv_w = small_invariants(W)
        inv_m = small_invariants(M)
        assert inv_m.dim >= inv_w.dim * V.dim, (lam, inv_m.dim, inv_w.dim)
        # exact containment of the embedded tensor-factor invariants
        f = P4.field
        rb = RowBasis(f)
        for row in inv_m.basis:
            rb.add(list(row))
        for w_vec in inv_w.basis:
            for j in range(V.dim):
                vec = [f.zero] * M.dim
                for i, c in w_vec:
                    vec[i * V.dim + j] = c
                assert rb.contains(sparse(vec)), lam


def test_mixed_tensor_zeta_route_consistency():
    # tensors with a specialized factor (no generic layer) still satisfy all
    # relations and the commutator identity
    from smallq.repcore import simple_module
    L1 = simple_module(1, P4)
    V = dual_irrep_sl2(1, P4, form="sc")
    M = tensor_product(L1, frobenius_pullback(V))
    assert relation_check(M).passed
    assert verify_commutator_identity(M).passed


def test_commutator_identity_catalog():
    assert verify_commutator_identity(trivial_module(P4)).passed
    for lam in range(0, 9):
        assert verify_commutator_identity(weyl_module(lam, P4)).passed, lam
    # on pullbacks the identity reduces to [e, f] = h
    for m, form in ((2, "adjoint"), (1, "sc")):
        mod = frobenius_pullback(dual_irrep_sl2(m, P4, form=form))
        assert verify_commutator_identity(mod).passed


def test_factorization_reconstruct_roundtrip():
    V = dual_irrep_sl2(2, P4, form="adjoint")
    M = frobenius_pullback(V)
    back = factorization_reconstruct(M)
    assert back.weights == V.weights
    assert pullback_roundtrip_equal(back, M)
    # trivial module reconstructs to the trivial representation
    triv = factorization_reconstruct(trivial_module(P4))
    assert triv.dim == 1
    # direct sums reconstruct blockwise
    DS = rep_direct_sum(dual_irrep_sl2(2, P4, form="adjoint"), trivial_rep(P4))
    MD = frobenius_pullback(DS)
    assert pullback_roundtrip_equal(factorization_reconstruct(MD), MD)


def test_factorization_reconstruct_rejects_nontrivial():
    with pytest.raises(ValueError):
        factorization_reconstruct(weyl_module(1, P4))


def test_hecke_structure_adjoint():
    reps = [trivial_rep(P4), dual_irrep_sl2(2, P4, form="adjoint")]
    for lam in (0, 1, 2, 3):
        h, rep = build_hecke_structure(weyl_module(lam, P4), reps)
        assert h is not None and rep.passed, (lam, rep.failures())
        f = P4.field
        for alpha in h.alphas:
            assert inverse(alpha, len(alpha), f) is not None


def test_hecke_structure_negative_control(monkeypatch):
    # a corrupted target: the identity is no longer a small intertwiner, and
    # the report fails on alpha[V] for the first V alone, with the dimension
    # of the Hom space as the counterexample
    underline = frobenius._underline_tensor
    monkeypatch.setattr(frobenius, "_underline_tensor",
                        lambda V, M: corrupt_module(underline(V, M)))
    reps = [trivial_rep(P4), dual_irrep_sl2(2, P4, form="adjoint")]
    module = weyl_module(1, P4)
    h, rep = build_hecke_structure(module, reps)
    assert h is None and not rep.passed
    assert [c.name for c in rep.failures()] == [f"alpha[{reps[0].name}]"]
    fail = rep.failures()[0]
    assert fail.details == "the identity is not a small intertwiner"
    src = tensor_product(frobenius_pullback(reps[0]), module)
    dim = len(hom_small(src, frobenius._underline_tensor(reps[0], module)))
    assert fail.counterexample == f"dim Hom = {dim}"


def test_hecke_structure_sc():
    reps = [trivial_rep(P4, form="sc"), dual_irrep_sl2(1, P4, form="sc"),
            dual_irrep_sl2(2, P4, form="sc")]
    h, rep = build_hecke_structure(weyl_module(1, P4), reps, sc=True)
    assert h is not None and rep.passed, rep.failures()


def test_hecke_twist_composition():
    reps = [trivial_rep(P4, form="sc"), dual_irrep_sl2(1, P4, form="sc")]
    h, _ = build_hecke_structure(weyl_module(1, P4), reps, sc=True)
    z = P4.field.zeta(1)
    t_a = twist_hecke(h, DualTorusPoint(z, 1))
    t_ab = twist_hecke(t_a, DualTorusPoint(z, 2))
    t_c = twist_hecke(h, DualTorusPoint(z, 3))
    for a, b in zip(t_ab.alphas, t_c.alphas):
        assert mat_eq(a, b)


def test_hom_big_simple_modules():
    # Hom between a Weyl module and itself is one-dimensional
    w = weyl_module(2, P4)
    assert len(hom_big(w, w)) == 1


def test_phi_preimage_rank_two_round_trip():
    # mu -> phi(mu) -> mu over a small box of Y for A2, B2 and G2, by the
    # integer Cramer rule; a weight of phi_sc(Y_sc) outside phi(Y), and one
    # outside both, are refused
    from smallq.rootdata import EllForm, build_root_datum
    cases = (("A2", QParams(6, (1, 1))), ("B2", QParams(4, (1, 2))),
             ("G2", QParams(6, (1, 3))))
    for cartan, params in cases:
        form = EllForm(build_root_datum(cartan), params)
        for mu in itertools.product(range(-3, 4), repeat=2):
            assert frobenius._solve_phi_preimage(form, form.phi(mu)) == mu, (cartan, mu)
        with pytest.raises(ValueError, match="not in phi"):
            frobenius._solve_phi_preimage(form, (1, 0))
    # Y has index 3 (A2) and 2 (B2) in Y_sc: omega_1 of A2 and omega_2 of B2
    # are no coroot combinations
    for (cartan, params), coweight in zip(cases, ((1, 0), (0, 1))):
        form = EllForm(build_root_datum(cartan), params)
        with pytest.raises(ValueError, match="not in phi"):
            frobenius._solve_phi_preimage(form, form.phi_sc(coweight))
