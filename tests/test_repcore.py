"""Weyl modules, relation checking, tensor products, composition series."""

from functools import reduce

import pytest
from dense import columns, entries, rows, sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from smallq import repcore, scalars
from smallq.cli import main
from smallq.linalg import (
    RowBasis,
    kron,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sum,
)
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
from smallq.repcore import _coproduct_families, _specialize, _twist_columns
from smallq.rootdata import DotOrbits, build_root_datum
from smallq.scalars import LatticeError, LaurentPoly, QParams, qfact

P4 = QParams(4)
P6 = QParams(6)
A1 = build_root_datum("A1")


def basis_vector(module, k):
    f = module.params.field
    return sparse([f.one if i == k else f.zero for i in range(module.dim)])


def test_weyl_module_basics():
    w0 = weyl_module(0, P4)
    assert w0.dim == 1
    assert all(not col for col in w0.z.e(0))
    w1 = weyl_module(1, P4)
    assert w1.dim == 2
    # highest-weight vector killed by E and its divided power (postcondition,
    # asserted again here)
    w5 = weyl_module(5, P4)
    assert not w5.z.e(0)[0]
    assert not w5.z.div_e(0)[0]
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
    before = [[list(col) for col in m] for fam in w.z.efam + w.z.ffam for m in fam]
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
    # X^a / [a]! on W(1) (x) W(1) at ell=4 is the coproduct expansion X^(a),
    # a = 0..4: Z[v, v^-1] is a domain, so [a]! X^(a) = X^a says exactly that
    W1 = weyl_module(1, P4)
    G = _coproduct_families(W1, W1, "g")
    ring = P4.vring
    for fam in (G.efam[0], G.ffam[0]):
        for a in range(5):
            assert _is_power_over_factorial(fam[a], fam[1], a, 1, ring), a


def _is_power_over_factorial(div, mat, a, d, ring):
    """div = mat^a / [a]_d!, checked without dividing: [a]_d! div = mat^a,
    which decides it in the domain Z[v, v^-1]."""
    return mat_eq(mat_pow(mat, a, ring.one), mat_scale(div, qfact(a, d, ring)))


@pytest.mark.parametrize("ell", [4, 6])
def test_divided_powers_match_exact_division(ell):
    # the Weyl closed form and the generic coproduct expansion against the
    # plain power: [a]! X^(a) = X^a for every a = 0..ell_i
    params = QParams(ell)
    ring = params.vring
    d, li = params.d[0], params.ell_i[0]
    weyl = [weyl_module(lam, params) for lam in range(21)]
    tensors = [tensor_product(weyl[a], weyl[b]) for a in range(5) for b in range(5)]
    # a tensor product's generic layer holds Lusztig's generators only: the
    # oracle reads the full coproduct expansion
    generic = [w.g for w in weyl] + [_coproduct_families(weyl[a], weyl[b], "g")
                                     for a in range(5) for b in range(5)]
    for m, g in zip(weyl + tensors, generic):
        for fam in (g.efam[0], g.ffam[0]):
            for a in range(li + 1):
                assert _is_power_over_factorial(fam[a], fam[1], a, d, ring), (m.name, a)
        specialized = _specialize(g)
        for fam, spec in ((m.z.efam, specialized.efam), (m.z.ffam, specialized.ffam)):
            assert all(mat_eq(x, y) for x, y in zip(fam[0], spec[0])), m.name
    # the relation check still re-derives the divided powers generically
    for m in (weyl[20], tensors[-1]):
        rep = relation_check(m)
        names = {c.name for c in rep.checks}
        assert {"divided-power[E_0]", "divided-power[F_0]",
                "commutator-generic[E_0,F_0]"} <= names
        assert rep.passed, (m.name, rep.failures())


def test_divided_power_oracle_negative_control():
    # one doubled entry of a divided power, on the closed form and on the
    # coproduct expansion, breaks [a]! X^(a) = X^a
    ring = P4.vring
    w6 = weyl_module(6, P4)
    expansion = _coproduct_families(weyl_module(2, P4), weyl_module(3, P4), "g")
    for name, g in (("W(6)", w6.g), ("W(2)(x)W(3)", expansion)):
        for fam in (g.efam[0], g.ffam[0]):
            for a in (2, 4):
                assert _is_power_over_factorial(fam[a], fam[1], a, 1, ring)
                div = [list(col) for col in fam[a]]
                c = next(c for c, col in enumerate(div) if col)
                r, x = div[c][0]
                div[c][0] = (r, x + x)
                assert not _is_power_over_factorial(div, fam[1], a, 1, ring), (name, a)


def _catalog_tensors(params):
    """The tensor products of the frobenius-check catalog, W(0..5)^2, with
    their factors."""
    weyl = [weyl_module(lam, params) for lam in range(6)]
    return [(tensor_product(M, N), M, N) for M in weyl for N in weyl]


def test_zeta_route_matches_division_route():
    # on every tensor of the frobenius-check catalog, the zeta layer,
    # expanded at zeta, is the full generic expansion at v = zeta on every
    # family; the generic layer is that expansion on Lusztig's generators and
    # holds no other family
    for ell in (4, 6, 12):
        params = QParams(ell)
        li = params.ell_i[0]
        for t, M, N in _catalog_tensors(params):
            full = _coproduct_families(M, N, "g")
            specialized = _specialize(full)
            assert t.z.efam == specialized.efam and t.z.ffam == specialized.ffam, t.name
            g = t.g
            for fam, ref in ((g.efam[0], full.efam[0]), (g.ffam[0], full.ffam[0])):
                assert [a for a, m in enumerate(fam) if m is not None] == [0, 1, li]
                assert all(fam[a] == ref[a] for a in (0, 1, li)), (ell, t.name)


def test_tensor_layers_wrong_zeta_twist_negative_control(monkeypatch):
    # zeta^-k in place of zeta^k in the column twist of the zeta expansion
    # must break the agreement with the specialized generic expansion.  The
    # catalog's factors keep the twists their tensor products read, so the
    # patched expansion runs on fresh factors, whose twists are built under
    # the patch
    field = type(P4.field)
    tensors = _catalog_tensors(P4)
    disagree = []
    for t, M, N in tensors:
        specialized = _specialize(_coproduct_families(M, N, "g"))
        fresh = [weyl_module(X.dim - 1, P4) for X in (M, N)]
        with monkeypatch.context() as m:
            m.setattr(field, "zeta", lambda self, k, real=field.zeta: real(self, -k))
            twisted = _coproduct_families(*fresh, "z")
        assert t.z.efam == specialized.efam and t.z.ffam == specialized.ffam
        if (twisted.efam, twisted.ffam) != (specialized.efam, specialized.ffam):
            disagree.append(t.name)
    # a twist moves every expansion in which both factors have a weight
    # other than 0
    assert disagree == [t.name for t, M, N in tensors if M.dim > 1 and N.dim > 1]


def _fresh_twist(M, layer, sym, i, a, b):
    """``M.twisted(layer, sym, i, a, b)`` from its formula, with no store."""
    d = M.params.d[i]
    ws = [w[i] for w in M.weights]
    if layer == "g":
        gens, twist = M.g, LaurentPoly.shift
    else:
        gens, twist = M.z, lambda x, k: x * M.params.field.zeta(k)
    if sym == "E":
        return _twist_columns(gens.efam[i][a], [d * b * (a + w) for w in ws], twist)
    return _twist_columns(gens.ffam[i][b], [d * a * (b - w) for w in ws], twist)


def _expansion_oracle(M, N, layer):
    """Every family of M (x) N in one layer as a sum of whole Kronecker
    products of fresh twists: the coproduct expansion with no store and no
    kron_sum."""
    li = M.params.ell_i[0]
    mg, ng = (M.g, N.g) if layer == "g" else (M.z, N.z)
    efam = [reduce(mat_sum, (kron(_fresh_twist(M, layer, "E", 0, a, n - a), ng.efam[0][n - a])
                             for a in range(n + 1))) for n in range(li + 1)]
    ffam = [reduce(mat_sum, (kron(mg.ffam[0][a], _fresh_twist(N, layer, "F", 0, a, n - a))
                             for a in range(n + 1))) for n in range(li + 1)]
    return efam, ffam


def _twist_keys(orders):
    return {(sym, 0, a, n - a) for sym in "EF" for n in orders for a in range(n + 1)}


def test_twist_store_holds_fresh_twists():
    # after the catalog's tensor products are built and their generic layers
    # read, each factor keeps the zeta twist of every term a + b <= ell_i and
    # the generic twist of every term of Lusztig's generators, each equal to
    # _twist_columns applied afresh
    for ell in (4, 6):
        params = QParams(ell)
        li = params.ell_i[0]
        tensors = _catalog_tensors(params)
        for t, _, _ in tensors:
            t.g
        for M in {id(M): M for _, M, _ in tensors}.values():
            store = M._twists
            for layer, orders in (("z", range(li + 1)), ("g", (0, 1, li))):
                assert {k[1:] for k in store if k[0] == layer} == _twist_keys(orders)
            for key, mat in store.items():
                assert mat == _fresh_twist(M, *key), (ell, M.name, key)
                assert M.twisted(*key) is mat


@pytest.mark.parametrize("ell", [4, 6, 12])
def test_tensor_from_warm_factors_matches_fresh_factors(ell):
    # W(a) (x) W(b) on factors whose stores every other product of the
    # catalog has filled equals the product of fresh factors, and both equal
    # the storeless expansion, in both layers
    params = QParams(ell)
    li = params.ell_i[0]
    weyl = [weyl_module(lam, params) for lam in range(6)]
    for M in weyl:
        for N in weyl:
            tensor_product(M, N).g
    for a, M in enumerate(weyl):
        for b, N in enumerate(weyl):
            warm = tensor_product(M, N)
            fresh = tensor_product(weyl_module(a, params), weyl_module(b, params))
            z = _expansion_oracle(M, N, "z")
            g = [[fam[n] if n in (0, 1, li) else None for n in range(li + 1)]
                 for fam in _expansion_oracle(M, N, "g")]
            for t in (warm, fresh):
                assert (t.z.efam[0], t.z.ffam[0]) == z, (ell, t.name)
                assert [t.g.efam[0], t.g.ffam[0]] == g, (ell, t.name)


def test_twist_store_key_without_b_negative_control(monkeypatch):
    # a store keyed on (layer, sym, i, a) alone hands the twist of
    # E^(a) K^b to E^(a) K^b' as well, and that of F^(b) K^-a to
    # F^(b') K^-a
    real = repcore.WeightModule.twisted

    def without_b(self, layer, sym, i, a, b):
        store = self.__dict__.setdefault("_by_a", {})
        if (layer, sym, i, a) not in store:
            store[layer, sym, i, a] = real(self, layer, sym, i, a, b)
        return store[layer, sym, i, a]

    monkeypatch.setattr(repcore.WeightModule, "twisted", without_b)
    li = P4.ell_i[0]
    M, N = weyl_module(2, P4), weyl_module(3, P4)
    # an E twist keeps its family E^(a) and takes a wrong power of v
    assert _coproduct_families(M, N, "z").efam[0] != _expansion_oracle(M, N, "z")[0]
    assert any(M.twisted("z", *k) != _fresh_twist(M, "z", *k)
               for k in _twist_keys(range(li + 1)) if k[0] == "E")
    # an F twist is of F^(b): it takes a wrong family, and the grading check
    # refuses the product
    with pytest.raises(LatticeError, match="F_0"):
        tensor_product(weyl_module(2, P4), weyl_module(3, P4))


def test_lusztig_only_generic_layer():
    # the middle families of a tensor product's generic layer are never
    # built: reading them as a whole raises, the grading check skips them,
    # and a tensor product with such a factor goes by the zeta route
    w2, w3 = weyl_module(2, P4), weyl_module(3, P4)
    t = tensor_product(w2, w3)
    g = t.g
    assert g.efam[0][2] is None and g.ffam[0][3] is None and not g.complete()
    for read in (g.matrices, lambda: g.reshaped([])):
        with pytest.raises(ValueError, match="not built"):
            read()
    assert relation_check(t).passed
    for left, right in ((t, w2), (w2, t)):
        tt = tensor_product(left, right)
        assert not tt.has_generic() and tt.z.complete()
        assert relation_check(tt).passed


@pytest.mark.parametrize("ell", [4, 6])
def test_zeta_layer_coproduct_matches_generic_route(ell):
    # a direct-sum factor has no generic layer, so its tensor products take
    # the zeta route; (A (+) B) (x) C and C (x) (A (+) B) are, up to the
    # order of the basis, direct sums of generic-route tensor products
    params = QParams(ell)
    weyl = [weyl_module(lam, params) for lam in range(4)]
    for a, b, c in ((1, 2, 3), (3, 0, 2), (2, 2, 1)):
        A, B, C = weyl[a], weyl[b], weyl[c]
        left = tensor_product(direct_sum(A, B), C)
        right = tensor_product(C, direct_sum(A, B))
        assert not left.has_generic() and not right.has_generic()
        expected = direct_sum(tensor_product(A, C), tensor_product(B, C))
        _assert_same_families(left, expected, list(range(left.dim)))
        expected = direct_sum(tensor_product(C, A), tensor_product(C, B))
        # basis vector (i, j) of C (x) (A (+) B) sits in C (x) A or C (x) B
        perm = [i * A.dim + j if j < A.dim else C.dim * A.dim + i * B.dim + j - A.dim
                for i in range(C.dim) for j in range(A.dim + B.dim)]
        _assert_same_families(right, expected, perm)


def _assert_same_families(M, N, perm):
    for fam_m, fam_n in ((M.z.efam[0], N.z.efam[0]), (M.z.ffam[0], N.z.ffam[0])):
        for a, (x, y) in enumerate(zip(fam_m, fam_n)):
            y = rows(y, N.dim, M.params.field.zero)
            moved = [[y[perm[r]][perm[c]] for c in range(M.dim)] for r in range(M.dim)]
            assert mat_eq(x, columns(moved)), (M.name, a)


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
    rows = [[(j, two * x) for j, x in basis_vector(w, k)] for k in range(w.dim)]
    m = submodule_as_module(repcore.Submodule(w, rows, list(w.weights)))
    for fam, sub_fam in ((w.z.efam, m.z.efam), (w.z.ffam, m.z.ffam)):
        assert len(sub_fam) == len(fam)
        for mats, sub_mats in zip(fam, sub_fam):
            assert len(sub_mats) == len(mats)
            assert all(mat_eq(a, b) for a, b in zip(mats, sub_mats))


def test_restriction_and_quotient_reject_unstable_subspace():
    # the top line of W(2) is not stable under F: neither the subspace nor
    # the quotient by it is a module
    w = weyl_module(2, P4)
    top = repcore.Submodule(w, [basis_vector(w, 0)], [w.weights[0]])
    with pytest.raises(LatticeError, match="not stable under a generator"):
        submodule_as_module(top)
    with pytest.raises(LatticeError, match="not stable under a generator"):
        quotient_module(w, top)
    # the bottom line is killed by F and by F^(ell) but sent up by E
    bottom = repcore.Submodule(w, [basis_vector(w, 2)], [w.weights[2]])
    with pytest.raises(LatticeError):
        submodule_as_module(bottom)


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
        if not any(j == top for row in closure.basis for j, _ in row):
            for row in closure.basis:
                basis.add(row)
    return basis.sorted_rows()


def _field_factors(module):
    """composition_factors by the field path, called directly."""
    factors = []
    repcore._peel(module, factors)
    return sorted(factors)


def test_composition_factors_closed_form(monkeypatch):
    # Lusztig (1990): with lam = lam0 + l' lam1 and 0 <= lam0 < l', W(lam)
    # is simple when lam1 = 0 or lam0 = l' - 1; otherwise its factors are
    # L(lam) and L(l' lam1 - lam0 - 2), and dim L(mu) = (mu0 + 1)(mu1 + 1)
    for ell in (4, 6, 8, 10):
        params = QParams(ell)
        lp = params.ell_i[0]

        def dim_simple(mu):
            return (mu % lp + 1) * (mu // lp + 1)

        for lam in range(61):
            lam0, lam1 = lam % lp, lam // lp
            if lam1 == 0 or lam0 == lp - 1:
                expected = [((lam,), lam + 1)]
            else:
                mu = lp * lam1 - lam0 - 2
                expected = sorted([((lam,), dim_simple(lam)), ((mu,), dim_simple(mu))])
            assert composition_factors(weyl_module(lam, params)) == expected, (ell, lam)

    # the index path against the field path, factor by factor, on the Weyl
    # modules and on direct sums, recording every module the field path
    # splits: the Weyl modules and their peeled quotients and submodules
    seen = []

    def recording(module):
        seen.append(module)
        return maximal_proper_submodule(module)

    monkeypatch.setattr(repcore, "maximal_proper_submodule", recording)
    for params in (P4, P6):
        seen.clear()
        modules = [weyl_module(lam, params) for lam in range(61)]
        modules += [direct_sum(weyl_module(a, params), weyl_module(b, params))
                    for a, b in ((4, 4), (13, 13), (13, 5))]
        for module in modules:
            assert composition_factors(module) == _field_factors(module), module.name
        # the reachability result equals the field closures on each split
        # module up to dimension 31 (the field path spins a closure per
        # basis line)
        assert len(seen) > 64
        for module in (m for m in seen if m.dim <= 31):
            sub = maximal_proper_submodule(module)
            assert mat_eq(sub.basis, _field_path_maximal_submodule(module)), module.name
            assert sub.basis_weights == [module.weights[row[0][0]] for row in sub.basis]


def _count_field_calls(monkeypatch):
    """Counters of the calls to submodule_closure and RowBasis.add."""
    counts = {"closure": 0, "add": 0}
    closure, add = repcore.submodule_closure, RowBasis.add

    def counting_closure(*args):
        counts["closure"] += 1
        return closure(*args)

    def counting_add(self, vec):
        counts["add"] += 1
        return add(self, vec)

    monkeypatch.setattr(repcore, "submodule_closure", counting_closure)
    monkeypatch.setattr(RowBasis, "add", counting_add)
    return counts


def test_index_path_does_no_field_arithmetic(monkeypatch):
    counts = _count_field_calls(monkeypatch)
    for params in (P4, P6):
        for lam in range(61):
            composition_factors(weyl_module(lam, params))
    assert counts == {"closure": 0, "add": 0}
    # the counters see the field path
    _field_factors(weyl_module(4, P4))
    assert counts["closure"] > 0 and counts["add"] > 0


def _simple_weights(mu, lp):
    """Weights of L(mu) by the Steinberg tensor product theorem:
    L(mu) = L(mu0) (x) L(mu1)^[Fr] with mu = mu0 + lp mu1, 0 <= mu0 < lp, and
    the Frobenius twist multiplies the weights of the classical L(mu1) by lp."""
    mu0, mu1 = mu % lp, mu // lp
    return [mu0 - 2 * i + lp * (mu1 - 2 * j) for i in range(mu0 + 1) for j in range(mu1 + 1)]


def test_tensor_products_take_the_field_path(monkeypatch):
    # a tensor product has generator columns with two entries, so it is
    # peeled over the field; the characters of its factors must add up to
    # its own
    counts = _count_field_calls(monkeypatch)
    lp = P4.ell_i[0]
    for a, b in ((1, 1), (2, 3), (3, 5), (4, 4)):
        T = tensor_product(weyl_module(a, P4), weyl_module(b, P4))
        before = counts["closure"]
        factors = composition_factors(T)
        assert counts["closure"] > before, (a, b)
        assert all(dim == len(_simple_weights(mu, lp)) for (mu,), dim in factors), (a, b)
        chars = [w for (mu,), _ in factors for w in _simple_weights(mu, lp)]
        assert sorted(chars) == sorted(w for (w,) in T.weights), (a, b)
        if (a, b) == (3, 5):
            assert len(factors) == 7


def _monomial_module_with_repeated_weight(params):
    """Basis v0..v3 of weights 2, 0, 0, -2 with F v0 = v1, F v1 = v3 and
    E v3 = v2 (the other generators zero): every generator column has at
    most one nonzero entry, and the closure of the top v0 holds both weight-0
    lines."""
    one = params.field.one
    ident = [[(c, one)] for c in range(4)]
    zeros = [[[] for _ in range(4)]] * (params.ell_i[0] - 1)
    e = [[], [], [], [(2, one)]]
    f = [[(1, one)], [(3, one)], [], []]
    gens = repcore.GenSet([[ident, e] + zeros], [[ident, f] + zeros])
    return repcore.WeightModule(A1, params, [(2,), (0,), (0,), (-2,)], gens,
                                name="repeated-weight")


def test_repeated_weight_in_a_closure_raises_on_both_paths(monkeypatch):
    module = _monomial_module_with_repeated_weight(P4)
    counts = _count_field_calls(monkeypatch)
    with pytest.raises(ValueError, match="one-dimensional"):
        composition_factors(module)
    assert counts["closure"] == 0
    with pytest.raises(ValueError, match="one-dimensional"):
        _field_factors(module)


def test_maximal_proper_submodule_rejects_repeated_weights():
    with pytest.raises(ValueError):
        maximal_proper_submodule(direct_sum(weyl_module(2, P4), weyl_module(2, P4)))


# (ell, a, b): on W(a) (x) W(b) the first nonzero entry of E in row-major
# order, (0, b + 1), is not the first in column order, (1, 2), since the
# entry (0, 1) of K (x) E is [b] = 0 at zeta.  On W(7) (x) W(6) the entry
# corrupted is -1, so it becomes zero.
CORRUPT_CASES = {
    (4, 1, 4): ("1", "2", [
        ("commutator[E_0,F_0]", "fail", "nonzero residual matrix", "entry (0,0) = -1"),
        ("identity[vertex 0]", "fail", "matrix mismatch", "first differing entry at (1,5)")]),
    (4, 2, 4): ("1*z + -1*z^3", "1 + 1*z + -1*z^3", [
        ("commutator[E_0,F_0]", "fail", "nonzero residual matrix", "entry (0,0) = -1")]),
    (6, 1, 6): ("1", "2", [
        ("commutator[E_0,F_0]", "fail", "nonzero residual matrix", "entry (0,0) = -1"),
        ("identity[vertex 0]", "fail", "matrix mismatch", "first differing entry at (1,7)")]),
    (6, 7, 6): ("-1", "0", [
        ("commutator[E_0,F_0]", "fail", "nonzero residual matrix", "entry (0,0) = -1"),
        ("identity[vertex 0]", "fail", "matrix mismatch", "first differing entry at (1,7)")]),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CASES), ids=str)
def test_corrupt_module_failure_details(case):
    # the frobenius-check report keeps only check names: this pins where
    # corrupt_module acts and what every failing check then says
    from smallq.frobenius import verify_commutator_identity
    ell, a, b = case
    before, after, expected = CORRUPT_CASES[case]
    params = QParams(ell)
    module = tensor_product(weyl_module(a, params), weyl_module(b, params))
    bad = corrupt_module(module)
    old, new = entries(module.z.e(0)), entries(bad.z.e(0))
    changed = [rc for rc in set(old) | set(new)
               if old.get(rc, params.field.zero) != new.get(rc, params.field.zero)]
    assert changed == [(0, b + 1)]
    assert (repr(old[0, b + 1]), repr(new.get((0, b + 1), params.field.zero))) == (before, after)
    failures = [(c.name, c.status, c.details, c.counterexample)
                for rep in (relation_check(bad), verify_commutator_identity(bad))
                for c in rep.failures()]
    assert failures == expected


def _raise_generic(module, sym, a=1):
    """module with the first nonzero entry (row-major) of its generic
    E_0^(a) (sym "E") or F_0^(a) (sym "F") raised by v; the zeta layer is
    left as it is."""
    ring = module.params.vring
    efam = [list(fam) for fam in module.g.efam]
    ffam = [list(fam) for fam in module.g.ffam]
    fam = efam if sym == "E" else ffam
    target = fam[0][a]
    r, c = repcore._first_entry(target)
    raised = [(r, target[c][0][1] + ring.v)] + target[c][1:]
    fam[0][a] = target[:c] + [raised] + target[c + 1:]
    return repcore.WeightModule(module.datum, module.params, module.weights, module.z,
                                repcore.GenSet(efam, ffam), name=module.name)


# (ell, module, raised generator): every failing check of relation_check.
# corrupt_module drops the generic layer, so these are the only failure
# strings that print generic entries. At ell 6 the plain sixth powers vanish
# on both modules (their weights span less than 12), so the divided-power
# checks still pass there.
_COMM_E = ("commutator-generic[E_0,F_0]", "fail", "generic commutator fails",
           "entry (0,0) = v")
GENERIC_CASES = {
    (4, "W(4)", "E"): [
        _COMM_E,
        ("divided-power[E_0]", "fail", "divided power disagrees with plain power",
         "entry (0,4) = v^4 + (2)*v^2 + 2 + v^-2")],
    (4, "W(4)", "F"): [
        ("commutator-generic[E_0,F_0]", "fail", "generic commutator fails",
         "entry (0,0) = v^4 + v^2 + 1 + v^-2"),
        ("divided-power[F_0]", "fail", "divided power disagrees with plain power",
         "entry (4,0) = v^7 + (3)*v^5 + (5)*v^3 + (6)*v + (5)*v^-1 + (3)*v^-3 + v^-5")],
    (4, "W(2)(x)W(3)", "E"): [
        _COMM_E,
        ("divided-power[E_0]", "fail", "divided power disagrees with plain power",
         "entry (0,7) = v^7 + (3)*v^5 + (4)*v^3 + (3)*v + v^-1")],
    (4, "W(2)(x)W(3)", "F"): [
        ("commutator-generic[E_0,F_0]", "fail", "generic commutator fails",
         "entry (0,0) = v^5 + v^3 + v"),
        ("divided-power[F_0]", "fail", "divided power disagrees with plain power",
         "entry (7,0) = v^7 + (3)*v^5 + (5)*v^3 + (5)*v + (3)*v^-1 + v^-3")],
    (6, "W(4)", "E"): [_COMM_E],
    (6, "W(4)", "F"): [
        ("commutator-generic[E_0,F_0]", "fail", "generic commutator fails",
         "entry (0,0) = v^4 + v^2 + 1 + v^-2")],
    (6, "W(2)(x)W(3)", "E"): [_COMM_E],
    (6, "W(2)(x)W(3)", "F"): [
        ("commutator-generic[E_0,F_0]", "fail", "generic commutator fails",
         "entry (0,0) = v^5 + v^3 + v")],
}


@pytest.mark.parametrize("case", sorted(GENERIC_CASES), ids=str)
def test_generic_layer_failure_details(case):
    ell, label, sym = case
    params = QParams(ell)
    module = (weyl_module(4, params) if label == "W(4)"
              else tensor_product(weyl_module(2, params), weyl_module(3, params)))
    bad = _raise_generic(module, sym)
    failures = [(c.name, c.status, c.details, c.counterexample)
                for c in relation_check(bad).failures()]
    assert failures == GENERIC_CASES[case]


# (ell, module, raised generator): every failing check of relation_check when
# the first entry of the top divided power E_0^(ell) or F_0^(ell) is raised
# by v. The plain power and the commutator are untouched, so divided-power
# fails alone, and its residual is -v [ell]!. The modules are the smallest
# ones on which the top divided power acts: their weights span at least
# 2 ell. The strings were written before the generic identities were decided
# on packed integers.
_TOP4 = ("(-1)*v^7 + (-3)*v^5 + (-5)*v^3 + (-6)*v + (-5)*v^-1 + (-3)*v^-3 + "
         "(-1)*v^-5")
_TOP6 = ("(-1)*v^16 + (-5)*v^14 + (-14)*v^12 + (-29)*v^10 + (-49)*v^8 + "
         "(-71)*v^6 + (-90)*v^4 + (-101)*v^2 + -101 + (-90)*v^-2 + (-71)*v^-4 + "
         "(-49)*v^-6 + (-29)*v^-8 + (-14)*v^-10 + (-5)*v^-12 + (-1)*v^-14")
_TOP12 = ("(-1)*v^67 + (-11)*v^65 + (-65)*v^63 + (-274)*v^61 + (-923)*v^59 + "
          "(-2640)*v^57 + (-6655)*v^55 + (-15159)*v^53 + (-31758)*v^51 + "
          "(-61997)*v^49 + (-113906)*v^47 + (-198497)*v^45 + (-330121)*v^43 + "
          "(-526581)*v^41 + (-808896)*v^39 + (-1200626)*v^37 + (-1726701)*v^35 + "
          "(-2411747)*v^33 + (-3277965)*v^31 + (-4342688)*v^29 + (-5615807)*v^27 + "
          "(-7097310)*v^25 + (-8775209)*v^23 + (-10624132)*v^21 + "
          "(-12604826)*v^19 + (-14664752)*v^17 + (-16739858)*v^15 + "
          "(-18757500)*v^13 + (-20640357)*v^11 + (-22311069)*v^9 + "
          "(-23697232)*v^7 + (-24736324)*v^5 + (-25380120)*v^3 + (-25598186)*v + "
          "(-25380120)*v^-1 + (-24736324)*v^-3 + (-23697232)*v^-5 + "
          "(-22311069)*v^-7 + (-20640357)*v^-9 + (-18757500)*v^-11 + "
          "(-16739858)*v^-13 + (-14664752)*v^-15 + (-12604826)*v^-17 + "
          "(-10624132)*v^-19 + (-8775209)*v^-21 + (-7097310)*v^-23 + "
          "(-5615807)*v^-25 + (-4342688)*v^-27 + (-3277965)*v^-29 + "
          "(-2411747)*v^-31 + (-1726701)*v^-33 + (-1200626)*v^-35 + "
          "(-808896)*v^-37 + (-526581)*v^-39 + (-330121)*v^-41 + (-198497)*v^-43 + "
          "(-113906)*v^-45 + (-61997)*v^-47 + (-31758)*v^-49 + (-15159)*v^-51 + "
          "(-6655)*v^-53 + (-2640)*v^-55 + (-923)*v^-57 + (-274)*v^-59 + "
          "(-65)*v^-61 + (-11)*v^-63 + (-1)*v^-65")
_DIV = "divided power disagrees with plain power"
GENERIC_TOP_CASES = {
    (4, (4,), "E"): [("divided-power[E_0]", "fail", _DIV, "entry (0,4) = " + _TOP4)],
    (4, (4,), "F"): [("divided-power[F_0]", "fail", _DIV, "entry (4,0) = " + _TOP4)],
    (4, (2, 3), "E"): [("divided-power[E_0]", "fail", _DIV, "entry (0,7) = " + _TOP4)],
    (4, (2, 3), "F"): [("divided-power[F_0]", "fail", _DIV, "entry (7,0) = " + _TOP4)],
    (6, (6,), "E"): [("divided-power[E_0]", "fail", _DIV, "entry (0,6) = " + _TOP6)],
    (6, (6,), "F"): [("divided-power[F_0]", "fail", _DIV, "entry (6,0) = " + _TOP6)],
    (6, (2, 5), "E"): [("divided-power[E_0]", "fail", _DIV, "entry (0,11) = " + _TOP6)],
    (6, (2, 5), "F"): [("divided-power[F_0]", "fail", _DIV, "entry (11,0) = " + _TOP6)],
    (12, (5, 7), "E"): [("divided-power[E_0]", "fail", _DIV, "entry (0,47) = " + _TOP12)],
    (12, (5, 7), "F"): [("divided-power[F_0]", "fail", _DIV, "entry (47,0) = " + _TOP12)],
}


@pytest.mark.parametrize("case", sorted(GENERIC_TOP_CASES), ids=str)
def test_generic_top_family_failure_details(case):
    # (lam,) is W(lam), (a, b) is W(a)(x)W(b)
    ell, lams, sym = case
    params = QParams(ell)
    module = reduce(tensor_product, [weyl_module(lam, params) for lam in lams])
    bad = _raise_generic(module, sym, params.ell_i[0])
    failures = [(c.name, c.status, c.details, c.counterexample)
                for c in relation_check(bad).failures()]
    assert failures == GENERIC_TOP_CASES[case]
    fact = qfact(params.ell_i[0], 1, params.vring)
    assert failures[0][3].endswith(repr(-(params.vring.v * fact)))


# ---------------------------------------------------------------------------
# the generic identities at v = 2^k against Laurent matrix arithmetic
# ---------------------------------------------------------------------------

RING = P4.vring


@st.composite
def laurent(draw, zero_ok=True):
    """A LaurentPoly with exponents in -30..30 and coefficients +-1 up to
    +-10^30; zero when zero_ok allows it."""
    size = draw(st.integers(0 if zero_ok else 1, 4))
    exps = draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size, unique=True))
    coeffs = {e: draw(st.sampled_from([1, -1]) | st.integers(-10**30, 10**30).filter(bool))
              for e in exps}
    return LaurentPoly(RING, coeffs)


@st.composite
def laurent_matrix(draw, n):
    """An n x n Laurent matrix with zero entries and empty columns."""
    cols = []
    for _ in range(n):
        col = [(r, draw(laurent())) for r in range(n) if draw(st.booleans())]
        cols.append([(r, p) for r, p in col if p])
    return cols


def laurent_residual(terms, n):
    """sum_t c_t A_t1 ... A_tm in Laurent matrix arithmetic; a power of one
    matrix through mat_pow."""
    acc = [[] for _ in range(n)]
    for c, mats in terms:
        if all(A is mats[0] for A in mats):
            prod = mat_pow(mats[0], len(mats), RING.one)
        else:
            prod = reduce(mat_mul, mats)
        acc = mat_sum(acc, mat_scale(prod, c))
    return acc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_residual_matches_laurent_arithmetic(data):
    n = data.draw(st.integers(1, 3))
    pool = [data.draw(laurent_matrix(n)) for _ in range(data.draw(st.integers(1, 3)))]
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        terms.append((data.draw(laurent(zero_ok=False)), picks))
    if data.draw(st.booleans()):
        # a power of one matrix, as X^ell_i in the divided-power check
        terms.append((data.draw(laurent(zero_ok=False)), [pool[0]] * data.draw(st.integers(2, 4))))
    if data.draw(st.booleans()):
        # subtract every term again, premultiplied: an identity that holds,
        # with terms at other offsets
        terms += [(-c, [reduce(mat_mul, mats)]) for c, mats in terms]
    expected = laurent_residual(terms, n)
    R, k, o = repcore.packed_residual(terms)
    assert all(type(x) is int for col in R for _, x in col)
    assert mat_is_zero(R) == mat_is_zero(expected)
    assert [[(r, repcore._unpack(x, k, o, RING)) for r, x in col] for col in R] == expected


def test_packed_residual_width_separates_v_from_2():
    # negative control: at v = 2^1, v and 2 pack to the same int, so k = 1
    # would call v - 2 = 0; the bound 2^(k-1) > 2 forbids that width
    v, two, one = RING.v, RING.from_int(2), RING.one
    assert repcore._pack(v, 1, 0) == repcore._pack(two, 1, 0)
    R, k, o = repcore.packed_residual([(one, [[[(0, v)]]]), (-one, [[[(0, two)]]])])
    assert k == 3
    assert repcore._unpack(R[0][0][1], k, o, RING) == v - two


# ---------------------------------------------------------------------------
# the generic layer of a Weyl module is built on the first read of g
# ---------------------------------------------------------------------------

def _record_generic_qbinom(monkeypatch, *callers):
    """(m, t, d) of every call of the generic qbinom from the given modules:
    scalars for qbinom_zeta, repcore for the generic layer of weyl_module."""
    real = scalars.qbinom
    calls = []

    def recording(m, t, d, ring):
        calls.append((m, t, d))
        return real(m, t, d, ring)

    for module in callers:
        monkeypatch.setattr(module, "qbinom", recording)
    return calls


@pytest.mark.parametrize("ell", [4, 6])
def test_linkage_expands_only_binomials_below_ell_i(ell, monkeypatch, capsys):
    # the peel reads the zeta layer alone, and at zeta [m over t] needs the
    # generic polynomial only for the base-ell_i digits of m and t
    params = QParams(ell)
    monkeypatch.setattr(params.vring, "_qbinom_zeta", {})
    calls = _record_generic_qbinom(monkeypatch, scalars, repcore)
    argv = ["linkage", "--type", "A1", "--suite", "verify", "--window", "0..18",
            "--ell", str(ell)]
    assert main(argv) == 0
    capsys.readouterr()
    li = params.ell_i[0]
    assert calls and all(0 <= m < li and t < li for m, t, _ in calls), calls


def test_frobenius_check_reads_generic_binomials_in_pascal_range(monkeypatch, capsys):
    # qbinom fills O(m t) Pascal entries per (m, t): cheap only while no
    # caller asks for m far above t.  The generic layer of W(0..12) reads
    # m <= 12 and qbinom_zeta reads m < ell_i, each with t <= ell_i
    params = QParams(6)
    monkeypatch.setattr(params.vring, "_qbinom_zeta", {})
    calls = _record_generic_qbinom(monkeypatch, scalars, repcore)
    argv = ["frobenius-check", "--ell", "6", "--max-weyl", "12", "--max-tensor", "5"]
    assert main(argv) == 0
    capsys.readouterr()
    li = params.ell_i[0]
    assert max(m for m, _, _ in calls) == 12
    assert all(0 <= m <= 12 and t <= li for m, t, _ in calls), calls


def test_frobenius_check_expands_generic_tensor_families_of_lusztig_generators_only(
        monkeypatch, capsys):
    # every tensor of the catalog expands its zeta layer in full, at zeta,
    # and its generic layer on a in {0, 1, ell_i} only; no layer is
    # specialized from the generic one
    li = QParams(6).ell_i[0]
    real, real_kron_sum = repcore._coproduct_families, repcore.kron_sum
    sums, built = [], []

    def recording(M, N, layer, lusztig_only=False):
        before = len(sums)
        gens = real(M, N, layer, lusztig_only)
        families = [[a for a, m in enumerate(fam) if m is not None]
                    for fam in gens.efam + gens.ffam]
        built.append((layer, families, sums[before:]))
        return gens

    def specialize(gens):
        raise AssertionError("a generic layer was specialized")

    monkeypatch.setattr(repcore, "_coproduct_families", recording)
    monkeypatch.setattr(repcore, "kron_sum",
                        lambda pairs: sums.append(len(pairs)) or real_kron_sum(pairs))
    monkeypatch.setattr(repcore, "_specialize", specialize)
    argv = ["frobenius-check", "--ell", "6", "--max-weyl", "12", "--max-tensor", "5"]
    assert main(argv) == 0
    capsys.readouterr()
    generic = [b for b in built if b[0] == "g"]
    # one kron_sum per expanded E^(n) and F^(n), handed one term per a + b = n
    lusztig = [1, 2, li + 1]
    assert generic and all(b == ("g", [[0, 1, li]] * 2, lusztig * 2) for b in generic)
    assert len(generic) == 36
    full = [n + 1 for n in range(li + 1)]
    assert all(b[1:] == ([list(range(li + 1))] * 2, full * 2)
               for b in built if b[0] == "z")


def test_weyl_generic_layer_is_built_on_first_read(monkeypatch):
    calls = _record_generic_qbinom(monkeypatch, repcore)
    w = weyl_module(12, P4)
    assert w.has_generic() and not calls
    g = w.g
    assert {m for m, _, _ in calls} == set(range(13))
    assert w.g is g and relation_check(w).passed


def test_generic_layer_that_breaks_the_grading_raises_on_first_read():
    w = weyl_module(4, P4)
    good = w.g
    # E_0 and its divided powers in the place of F_0's: they raise the weight
    bad = repcore.GenSet(good.efam, good.efam)
    built = []

    def build():
        built.append(bad)
        return bad

    lazy = repcore.WeightModule(A1, P4, w.weights, w.z, build, name="W(4)")
    assert lazy.has_generic() and not built
    for _ in range(2):
        with pytest.raises(LatticeError, match=r"F_0\^\(1\) entry \(\d+,\d+\) violates "
                                               r"the grading on W\(4\)"):
            lazy.g
    with pytest.raises(LatticeError, match="violates the grading"):
        repcore.WeightModule(A1, P4, w.weights, w.z, bad, name="W(4)")


def test_relation_check_reads_a_lazy_generic_layer_first():
    # a lazily built generic layer is checked on every read until it passes,
    # so relation_check, which reads it, raises on a broken one
    w = weyl_module(4, P4)
    bad = repcore.GenSet(w.g.efam, w.g.efam)
    lazy = repcore.WeightModule(A1, P4, w.weights, w.z, lambda: bad, name="W(4)")
    with pytest.raises(LatticeError, match=r"F_0\^\(1\) entry \(\d+,\d+\) violates"):
        repcore.relation_check(lazy)
    assert repcore.relation_check(w).passed
