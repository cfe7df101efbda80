"""Weyl modules, relation checking, tensor products, composition series."""

import pytest

from smallq import repcore
from smallq.linalg import RowBasis, mat_eq, mat_pow
from smallq.repcore import (
    composition_factors,
    corrupt_module,
    direct_sum,
    maximal_proper_submodule,
    quotient_module,
    relation_check,
    simple_module,
    submodule_as_module,
    submodule_closure,
    tensor_product,
    trivial_module,
    weyl_module,
)
from smallq.repcore import _tensor_zeta_gens
from smallq.rootdata import DotOrbits, build_root_datum
from smallq.scalars import QParams, matrix_divide_exact, qfact

P4 = QParams(4)
P6 = QParams(6)
A1 = build_root_datum("A1")


def basis_vector(module, k):
    f = module.params.field
    return [f.one if i == k else f.zero for i in range(module.dim)]


def test_weyl_module_basics():
    w0 = weyl_module(0, P4)
    assert w0.dim == 1
    assert all(not w0.z.e(0)[r][c] for r in range(1) for c in range(1))
    w1 = weyl_module(1, P4)
    assert w1.dim == 2
    # highest-weight vector killed by E and its divided power (postcondition,
    # asserted again here)
    w5 = weyl_module(5, P4)
    assert all(not w5.z.e(0)[r][0] for r in range(6))
    assert all(not w5.z.div_e(0)[r][0] for r in range(6))
    with pytest.raises(ValueError):
        weyl_module(-1, P4)


def test_relation_check_passes_spot():
    for params in (P4, P6):
        for lam in (0, 1, 2, 5, 8):
            rep = relation_check(weyl_module(lam, params))
            assert rep.passed, (params.ell, lam, rep.failures())


def test_relation_check_negative_control():
    rep = relation_check(corrupt_module(weyl_module(5, P4)))
    assert not rep.passed
    names = [c.name for c in rep.failures()]
    assert any("commutator" in n for n in names)


def test_corrupt_module_leaves_its_input_clean():
    # frobenius-check corrupts a W(1) that tensor products and the Hecke
    # structure share: the corrupted module must be a copy
    w = weyl_module(1, P4)
    before = [[list(row) for row in m] for fam in w.z.efam + w.z.ffam for m in fam]
    assert not relation_check(corrupt_module(w)).passed
    after = [m for fam in w.z.efam + w.z.ffam for m in fam]
    assert all(mat_eq(a, b) for a, b in zip(before, after))
    assert relation_check(w).passed


def test_tensor_with_trivial_is_identity():
    w3 = weyl_module(3, P4)
    t = tensor_product(w3, trivial_module(P4))
    assert t.dim == w3.dim
    assert t.weights == w3.weights
    for a in range(P4.ell_i[0] + 1):
        assert mat_eq(t.z.efam[0][a], w3.z.efam[0][a])
        assert mat_eq(t.z.ffam[0][a], w3.z.ffam[0][a])


def test_tensor_dims_and_weights():
    t = tensor_product(weyl_module(1, P4), weyl_module(1, P4))
    assert t.dim == 4
    assert sorted(w[0] for w in t.weights) == [-2, 0, 0, 2]


def test_tensor_relation_check():
    rep = relation_check(tensor_product(weyl_module(2, P4), weyl_module(3, P4)))
    assert rep.passed, rep.failures()
    rep = relation_check(tensor_product(weyl_module(2, P6), weyl_module(2, P6)))
    assert rep.passed, rep.failures()


def test_matrix_divide_exact_tensor_oracle():
    # (E_tensor)^4 / [4]! on W(1) (x) W(1) at ell=4 lies in the localization,
    # and agrees with the incremental divided-power route
    M = tensor_product(weyl_module(1, P4), weyl_module(1, P4))
    ring = P4.vring
    e4 = mat_pow(M.g.e(0), 4, ring.one, ring.zero)
    divided = matrix_divide_exact(e4, qfact(4, 1, ring))
    for r in range(M.dim):
        for c in range(M.dim):
            assert divided[r][c].is_polynomial()
            assert divided[r][c].as_poly() == M.g.div_e(0)[r][c]


def test_zeta_route_matches_division_route():
    for params in (P4, P6):
        M, N = weyl_module(2, params), weyl_module(1, params)
        gen_route = tensor_product(M, N)
        z = _tensor_zeta_gens(M, N)
        for a in range(params.ell_i[0] + 1):
            assert mat_eq(z.efam[0][a], gen_route.z.efam[0][a])
            assert mat_eq(z.ffam[0][a], gen_route.z.ffam[0][a])


def test_submodule_closure_examples():
    w4 = weyl_module(4, P4)
    assert submodule_closure(w4, [basis_vector(w4, 0)]).dim == 5   # cyclicity
    assert submodule_closure(w4, []).dim == 0
    # the maximal submodule L(2) is generated by any of the middle lines
    for k in (1, 2, 3):
        cl = submodule_closure(w4, [basis_vector(w4, k)])
        assert cl.dim == 3
        assert sorted(w[0] for w in cl.basis_weights) == [-2, 0, 2]
    # the lowest line survives to the head L(4) (weights +-4), so it generates
    # everything; cross-checked against the composition series below
    assert submodule_closure(w4, [basis_vector(w4, 4)]).dim == 5


def test_maximal_proper_submodule():
    assert maximal_proper_submodule(weyl_module(0, P4)).dim == 0
    assert maximal_proper_submodule(weyl_module(2, P4)).dim == 0   # simple
    ms = maximal_proper_submodule(weyl_module(4, P4))
    assert ms.dim == 3
    assert max(w[0] for w in ms.basis_weights) == 2
    # the quotient is the simple head of dimension 2
    q, _ = quotient_module(weyl_module(4, P4), ms)
    assert q.dim == 2
    assert sorted(w[0] for w in q.weights) == [-4, 4]


def test_submodule_as_module_passes_relations():
    w4 = weyl_module(4, P4)
    sub = maximal_proper_submodule(w4)
    m = submodule_as_module(sub)
    rep = relation_check(m)
    assert rep.passed, rep.failures()


def test_submodule_as_module_unreduced_basis():
    # basis rows 2*e_i span all of W; in those coordinates the generators act
    # by W's own matrices, so restricting must give them back unchanged
    w = weyl_module(3, P4)
    two = w.params.field.from_int(2)
    rows = [[two * x for x in basis_vector(w, k)] for k in range(w.dim)]
    m = submodule_as_module(repcore.Submodule(w, rows, list(w.weights)))
    for fam, sub_fam in ((w.z.efam, m.z.efam), (w.z.ffam, m.z.ffam)):
        assert len(sub_fam) == len(fam)
        for mats, sub_mats in zip(fam, sub_fam):
            assert len(sub_mats) == len(mats)
            assert all(mat_eq(a, b) for a, b in zip(mats, sub_mats))


def test_composition_factors():
    assert composition_factors(weyl_module(2, P4)) == [((2,), 3)]
    assert composition_factors(weyl_module(4, P4)) == [((2,), 3), ((4,), 2)]
    w6 = weyl_module(6, P4)
    assert composition_factors(w6) == [((0,), 1), ((6,), 6)]
    for lam in range(0, 9):
        factors = composition_factors(weyl_module(lam, P4))
        assert sum(d for _, d in factors) == lam + 1


def test_composition_factors_additive_on_direct_sums():
    a = weyl_module(4, P4)
    b = weyl_module(2, P4)
    combo = composition_factors(direct_sum(a, b))
    assert combo == sorted(composition_factors(a) + composition_factors(b))
    same = direct_sum(weyl_module(4, P4), weyl_module(4, P4))
    assert composition_factors(same) == sorted(composition_factors(a) * 2)


def test_factors_lie_in_dot_orbit():
    orb = DotOrbits(A1, P4)
    for lam in range(0, 13):
        for hw, _ in composition_factors(weyl_module(lam, P4)):
            assert orb.same_block(hw, (lam,)), (lam, hw)


def test_simple_module_dims():
    # dim L(lam) = dim L(lam1) * (mu+1) by the Steinberg rule; spot values
    assert simple_module(0, P4).dim == 1
    assert simple_module(2, P4).dim == 3
    assert simple_module(4, P4).dim == 2
    assert simple_module(5, P4).dim == 4
    assert simple_module(6, P4).dim == 6


def test_quotient_relations():
    w8 = weyl_module(8, P4)
    ms = maximal_proper_submodule(w8)
    q, _ = quotient_module(w8, ms)
    assert relation_check(q).passed


def _field_path_maximal_submodule(module):
    """Sum of the field closures of the basis lines that miss the top."""
    top = max(range(module.dim), key=lambda b: sum(module.weights[b]))
    basis = RowBasis(module.params.field)
    for b in range(module.dim):
        closure = submodule_closure(module, [basis_vector(module, b)])
        if not any(row[top] for row in closure.basis):
            for row in closure.basis:
                basis.add(row)
    return basis.sorted_rows()


def test_composition_factors_closed_form(monkeypatch):
    # Lusztig (1990): with lam = lam0 + l' lam1 and 0 <= lam0 < l', W(lam)
    # is simple when lam1 = 0 or lam0 = l' - 1; otherwise its factors are
    # L(lam) and L(l' lam1 - lam0 - 2), and dim L(mu) = (mu0 + 1)(mu1 + 1)
    seen = []

    def recording(module):
        seen.append(module)
        return maximal_proper_submodule(module)

    # record every module the peel splits: the Weyl modules and their
    # peeled quotients and submodules
    monkeypatch.setattr(repcore, "maximal_proper_submodule", recording)
    for ell in (4, 6, 8, 10):
        params = QParams(ell)
        lp = params.ell_i[0]

        def dim_simple(mu):
            return (mu % lp + 1) * (mu // lp + 1)

        seen.clear()
        for lam in range(31):
            lam0, lam1 = lam % lp, lam // lp
            if lam1 == 0 or lam0 == lp - 1:
                expected = [((lam,), lam + 1)]
            else:
                mu = lp * lam1 - lam0 - 2
                expected = sorted([((lam,), dim_simple(lam)), ((mu,), dim_simple(mu))])
            assert composition_factors(weyl_module(lam, params)) == expected, (ell, lam)
        if ell not in (4, 6):
            continue
        # the reachability result equals the field path on each of them
        assert len(seen) > 31
        for module in seen:
            sub = maximal_proper_submodule(module)
            assert mat_eq(sub.basis, _field_path_maximal_submodule(module)), module.name
            one = module.params.field.one
            assert sub.basis_weights == [module.weights[row.index(one)] for row in sub.basis]


def test_maximal_proper_submodule_rejects_repeated_weights():
    with pytest.raises(ValueError):
        maximal_proper_submodule(direct_sum(weyl_module(2, P4), weyl_module(2, P4)))
