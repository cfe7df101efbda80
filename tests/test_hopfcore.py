"""The (O, A, a) triple engine on finite-group instances."""

import functools
import hashlib
import itertools
from importlib import resources
from pathlib import Path

import pytest
from dense import DenseRowBasis, columns, entries, rows, sparse

from smallq import blocks, hopfcore
from smallq.cli import main
from smallq.hopfcore import (
    CoalgebraFD,
    ComoduleFD,
    EquivariantObject,
    GroupTable,
    HopfAlgebraFD,
    StructureError,
    TripleObject,
    adjunction_counit,
    adjunction_unit,
    check_conditions,
    coaction_matrices,
    comodule_direct_sum,
    comodule_hom_space,
    comodule_tensor,
    cotensor,
    degenerate_triple_aac,
    degenerate_triple_all_equal,
    equivariant_of,
    equivariant_reconstruct,
    find_iso,
    finite_group_triple,
    group_simples,
    hom_cat,
    hopf_of_functions,
    identity_point,
    induce,
    object_A,
    object_O,
    object_O_tensor,
    parse_group_text,
    point_convolution,
    points_of_O,
    psi,
    regular_a_comodule,
    res_a_comodule,
    shrunk_triple,
    simples,
    standard_catalogs,
    trivial_A_comodule,
    trivial_a_comodule,
    twist,
    verify_equivalence,
    verify_ideal_prop,
)
from smallq.linalg import (
    combine,
    identity,
    intertwiner_space,
    intertwines,
    inverse,
    kron,
    mat_eq,
    mat_mul,
    mat_scale,
    spin,
)
from smallq.scalars import CycloField


def load_fixture(name):
    text = resources.files("smallq").joinpath(f"fixtures/{name}.group").read_text()
    return parse_group_text(text)


@pytest.fixture(scope="module")
def z4_triple():
    table, sub = load_fixture("z4_z2")
    return finite_group_triple(table, sub)


@pytest.fixture(scope="module")
def s3_triple():
    table, sub = load_fixture("s3_a3")
    return finite_group_triple(table, sub)


def test_triple_dimensions(z4_triple, s3_triple):
    assert (z4_triple.O.dim, z4_triple.A.dim, z4_triple.a.dim) == (2, 4, 2)
    assert (s3_triple.O.dim, s3_triple.A.dim, s3_triple.a.dim) == (2, 6, 3)


def test_non_normal_rejected():
    table, sub = load_fixture("s3_bad")
    with pytest.raises(StructureError):
        finite_group_triple(table, sub)


def test_trivial_subgroup_boundary():
    table, _ = load_fixture("z4_z2")
    T = finite_group_triple(table, ["e"])
    assert T.a.dim == 1
    rep = check_conditions(T, catalog=[trivial_a_comodule(T)])
    assert all(c.status != "fail" for c in rep.checks)
    # a = ground field: Ind(C) recovers all of A = O here
    ind = induce(T, trivial_a_comodule(T))
    assert ind.dim == T.O.dim


def test_coalgebra_axioms_enforced():
    f = CycloField(4)
    # valid: one group-like element
    CoalgebraFD(f, [{(0, 0): f.one}], [f.one])
    # broken counit
    with pytest.raises(StructureError):
        CoalgebraFD(f, [{(0, 0): f.one}], [f.zero])
    # broken coassociativity alone: the dual of the unital algebra on 1, a, b
    # with a a = b, b a = a and a b = 0, so (a a) a = a != a (a a) = 0, while
    # both counit laws hold
    delta = [{(0, 0): f.one},
             {(0, 1): f.one, (1, 0): f.one, (2, 1): f.one},
             {(0, 2): f.one, (2, 0): f.one, (1, 1): f.one}]
    with pytest.raises(StructureError, match="comultiplication not coassociative"):
        CoalgebraFD(f, delta, [f.one, f.zero, f.zero])


def test_cotensor_examples():
    f = CycloField(4)
    # over the ground field: full tensor product
    triv = CoalgebraFD(f, [{(0, 0): f.one}], [f.one])
    rho_r = [{(0, 0): f.one}, {(0, 1): f.one}]
    rho_l = [{(0, 0): f.one}, {(0, 1): f.one}]
    basis = cotensor(_columns_of(rho_r, triv.dim, f), _columns_of(rho_l, triv.dim, f), 2, 2, f)
    assert len(basis) == 4
    # functions on Z/2: graded lines pair iff the degrees match
    z2 = CoalgebraFD(f, [{(0, 0): f.one, (1, 1): f.one},
                         {(0, 1): f.one, (1, 0): f.one}],
                     [f.one, f.zero], name="O(Z/2)")
    for d1 in (0, 1):
        for d2 in (0, 1):
            # right comodule line of degree d1: rho(x) = x (x) delta_{d1};
            # left line of degree d2
            rr = [{(d1, 0): f.one}]
            ll = [{(d2, 0): f.one}]
            got = len(cotensor(_columns_of(rr, z2.dim, f), _columns_of(ll, z2.dim, f), 1, 1, f))
            assert got == (1 if d1 == d2 else 0)


def _columns_of(rho, cdim, f):
    """The coaction matrices of a literal coaction, rho[x] = {(c, y): v} for
    x -> sum v c (x) y (y (x) c for a right one)."""
    return coaction_matrices(rho, cdim)


def test_conditions_pass_on_fixtures(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        rep = check_conditions(T, catalog=simples(T.a))
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses["i"] == "pass"
        assert statuses["ii"] == "pass"
        assert statuses["iii"] == "pass"
        assert statuses["iv_a"] == "pass"
        assert statuses["iv_b"] == "pass"


def test_degenerate_triple_aaa_fails_iii(z4_triple):
    rep = check_conditions(degenerate_triple_all_equal(z4_triple.A))
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["iii"] == "fail"


def test_degenerate_triple_aac_passes(z4_triple):
    T = degenerate_triple_aac(z4_triple.A)
    rep = check_conditions(T, catalog=[trivial_a_comodule(T)])
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["i"] == "pass" and statuses["ii"] == "pass"
    assert statuses["iii"] == "pass"
    # Cat_(A,A,C) is equivalent to vector spaces: unit/counit bijective
    N = object_A(T)
    mat, ind, urep = adjunction_unit(T, N)
    assert urep.passed and ind.dim == N.dim
    assert inverse(mat, ind.dim, T.field) is not None
    M = trivial_a_comodule(T)
    cmat, Q2, crep = adjunction_counit(T, M)
    assert crep.passed and Q2.dim == M.dim
    assert inverse(cmat, M.dim, T.field) is not None


def test_induce_examples(z4_triple):
    T = z4_triple
    f = T.field
    # Ind(a) is A as an object of Cat
    ind_a = induce(T, regular_a_comodule(T))
    assert ind_a.dim == T.A.dim
    iso = find_iso([X for X in _cat_homs(T, ind_a, object_A(T))], T.A.dim, f)
    assert iso is not None
    # Ind(C) is O
    ind_c = induce(T, trivial_a_comodule(T))
    assert ind_c.dim == T.O.dim
    iso = find_iso([X for X in _cat_homs(T, ind_c, object_O(T))], T.O.dim, f)
    assert iso is not None
    # Ind(Res(N)) is O (x) N
    N = simples(T.A)[1]
    ind_res = induce(T, res_a_comodule(T, N))
    target = object_O_tensor(T, N)
    assert ind_res.dim == target.dim
    iso = find_iso([X for X in _cat_homs(T, ind_res, target)], target.dim, f)
    assert iso is not None


def _cat_homs(T, N1, N2):
    from smallq.hopfcore import hom_cat
    return hom_cat(T, N1, N2)


def test_psi_examples(z4_triple):
    T = z4_triple
    Q, _ = psi(T, object_O(T))
    assert Q.dim == 1
    Q2, _ = psi(T, object_A(T))
    assert Q2.dim == T.a.dim
    assert find_iso(comodule_hom_space(Q2, regular_a_comodule(T)), T.a.dim, T.field) is not None
    N = simples(T.A)[1]
    Q3, _ = psi(T, object_O_tensor(T, N))
    assert find_iso(comodule_hom_space(Q3, res_a_comodule(T, N)), N.dim, T.field) is not None


def test_find_iso_negative_control(z4_triple, s3_triple):
    # distinct one-dimensional characters of Z/4: simple, same dimension,
    # not isomorphic -- the answer must be a certified None
    T = z4_triple
    chars = simples(T.A)
    assert len(chars) == 4 and all(S.dim == 1 for S in chars)
    for S1, S2 in itertools.permutations(chars, 2):
        assert find_iso(comodule_hom_space(S1, S2), S2.dim, T.field) is None
    # a simple into a larger object: the Hom space is nonzero, no iso, though
    # the first basis map's only entry sits in its top row
    S = chars[1]
    homs = comodule_hom_space(S, comodule_direct_sum(S, S))
    assert len(homs) == 2 and find_iso(homs, 2 * S.dim, T.field) is None
    # the two-dimensional simple of S3 and a copy in another basis: the
    # isomorphism found is invertible and intertwines the coactions
    T = s3_triple
    f = T.field
    V = next(s for s in group_simples(T.A) if s.dim == 2)
    P = columns([[f.one, f.one], [f.zero, f.one]])
    P_inv = inverse(P, 2, f)
    W = ComoduleFD(T.A, [mat_mul(mat_mul(P_inv, m), P) for m in V.mats], name="V'")
    X = find_iso(comodule_hom_space(V, W), W.dim, f)
    assert X is not None and inverse(X, W.dim, f) is not None
    for R1, R2 in zip(V.mats, W.mats):
        assert mat_eq(mat_mul(X, R1), mat_mul(R2, X))


def test_comodule_hom_space_character_oracle(z4_triple, s3_triple):
    # dim Hom(M1, M2) = (1/|G|) sum_g chi1(g^-1) chi2(g).  g acts on a
    # comodule over functions on G as R_{g^-1}, so the character of a simple
    # is g -> tr R_{g^-1}; a direct sum adds characters, a tensor multiplies
    for T in (z4_triple, s3_triple):
        f, G = T.field, T.A.group
        simples = [(c, [sum((entries(c.mats[G.inverse[g]]).get((i, i), f.zero)
                             for i in range(c.dim)), f.zero) for g in range(G.n)])
                   for c in group_simples(T.A)]
        objs = list(simples)
        for (c1, chi1), (c2, chi2) in itertools.combinations_with_replacement(simples, 2):
            objs.append((comodule_direct_sum(c1, c2), [x + y for x, y in zip(chi1, chi2)]))
        # the last simple is the largest: 2 (x) 2 = 1 + 1' + 2 on S3
        c, chi = simples[-1]
        objs.append((comodule_tensor(c, c, T.A), [x * x for x in chi]))
        order_inv = f.from_int(G.n).inverse()
        for c1, chi1 in objs:
            for c2, chi2 in objs:
                inner = sum((chi1[G.inverse[g]] * chi2[g] for g in range(G.n)),
                            f.zero) * order_inv
                assert f.from_int(len(comodule_hom_space(c1, c2))) == inner


def test_verify_equivalence_fixtures(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        rep = verify_equivalence(T)
        assert rep.passed, rep.failures()[:3]


def test_simple_counts(z4_triple, s3_triple):
    assert len(simples(z4_triple.A)) == 4
    assert len(simples(z4_triple.a)) == 2
    assert len(simples(s3_triple.a)) == 3          # conjugacy classes of Z/3
    s3_dims = sorted(s.dim for s in simples(s3_triple.A))
    assert s3_dims == [1, 1, 2]


def test_twist_identity_and_composition(z4_triple):
    T = z4_triple
    pts = points_of_O(T)
    assert len(pts) == 2
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
            assert all(mat_eq(lhs.act[i], rhs.act[i]) for i in range(T.O.dim))


def test_twist_triple_coherence(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        pts = points_of_O(T)
        N = object_A(T)
        for g1, g2, g3 in itertools.product(pts, repeat=3):
            p_left = point_convolution(T, point_convolution(T, g1, g2), g3)
            p_right = point_convolution(T, g1, point_convolution(T, g2, g3))
            assert p_left == p_right
            seq = twist(T, g3, twist(T, g2, twist(T, g1, N)))
            direct = twist(T, p_left, N)
            assert all(mat_eq(seq.act[i], direct.act[i]) for i in range(T.O.dim))


def _first_factor_twist(T, gamma, N):
    """The O-action twisted with gamma on the first Sweedler factor,
    f . m = sum gamma(f_1) f_2 . m."""
    return [N.act_sum((k, c * gamma[j]) for (j, k), c in T.O.delta[i].items() if gamma[j])
            for i in range(T.O.dim)]


def test_twist_acts_on_the_last_sweedler_factor(z4_triple):
    # D6 over its centre has the nonabelian quotient S3: every point but the
    # identity breaks the compatibility law when it acts on the first
    # Sweedler factor, and none does on the last
    T = finite_group_triple(*load_fixture("d6_centre"))
    assert T.O.group.commutator_subgroup() != [T.O.group.identity]
    ident = identity_point(T)
    for N in (object_O(T), object_A(T)):
        for gamma in points_of_O(T):
            twist(T, gamma, N)
            act = _first_factor_twist(T, gamma, N)
            if gamma == ident:
                TripleObject(T, act, N.comodule)
            else:
                with pytest.raises(StructureError, match="action/coaction compatibility fails"):
                    TripleObject(T, act, N.comodule)
    # over an abelian quotient Delta_O is cocommutative and the two agree
    T = z4_triple
    for N in (object_O(T), object_A(T)):
        for gamma in points_of_O(T):
            assert all(mat_eq(x, y) for x, y in
                       zip(twist(T, gamma, N).act, _first_factor_twist(T, gamma, N)))


def test_twist_rejects_non_multiplicative(z4_triple):
    T = z4_triple
    f = T.field
    bad = [f.one, f.one]       # not an algebra map (1 at two idempotents)
    with pytest.raises(StructureError):
        twist(T, bad, object_O(T))
    # each law alone: (2, -1) sums to 1 on the unit, (0, 0) is multiplicative
    with pytest.raises(StructureError, match="gamma is not multiplicative"):
        twist(T, [f.from_int(2), -f.one], object_O(T))
    with pytest.raises(StructureError, match="gamma does not preserve the unit"):
        twist(T, [f.zero, f.zero], object_O(T))


def test_points_need_a_function_algebra(z4_triple):
    # k[Z/2] on the basis g, 1 - g has no basis of orthogonal idempotents
    T = degenerate_triple_aac(_z2_group_algebra(z4_triple.field, 1))
    with pytest.raises(StructureError, match="O is not a function algebra on points"):
        points_of_O(T)
    assert points_of_O(z4_triple) == [[ONE, ZERO], [ZERO, ONE]]


def test_counit_action_fails_compatibility(z4_triple, s3_triple):
    # f . a = eps_O(f) a is a valid O-action on A's carrier (eps_O is an
    # algebra map), so only the compatibility check can reject it:
    # rho(f . a) = eps_O(f) rho(a), while Delta(f) . rho(a) = iota(f) a_(1) (x) a_(2)
    for T in (z4_triple, s3_triple):
        f = T.field
        A = object_A(T)
        TripleObject(T, A.act, A.comodule, name="A")
        unit = identity(A.dim, f.one)
        act = [mat_scale(unit, T.O.eps[i]) for i in range(T.O.dim)]
        with pytest.raises(StructureError, match="action/coaction compatibility fails"):
            TripleObject(T, act, A.comodule, name="A with the counit action")


def test_equivariant_round_trips(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        f = T.field
        regular_A = ComoduleFD(T.A, coaction_matrices(T.A.delta, T.A.dim), name="A-reg")
        catalog = simples(T.A) + [regular_A]
        distinct = 0
        seen = []
        for P in catalog:
            E = equivariant_of(T, P)
            Q, _ = equivariant_reconstruct(T, E)
            assert Q.dim == P.dim
            assert find_iso(comodule_hom_space(Q, P), P.dim, f) is not None
            if P.dim < T.A.dim or P is regular_A:
                pass
        # count of reconstructed simples matches the simple count of the group
        recon = [equivariant_reconstruct(T, equivariant_of(T, P))[0] for P in simples(T.A)]
        for i, Q in enumerate(recon):
            for j, Q2 in enumerate(recon):
                has_hom = any(any(any(r) for r in X)
                              for X in comodule_hom_space(Q, Q2))
                assert has_hom == (i == j)


def test_equivariant_rejects_incompatible_data(z4_triple):
    T = z4_triple
    P = simples(T.A)[1]
    E = equivariant_of(T, P)
    from smallq.hopfcore import EquivariantObject
    EquivariantObject(E.N, E.gamma)
    # tamper with the Gamma-structure: one matrix entry breaks the comodule law
    bad = [_perturbed(E.gamma.mats[0], E.gamma.dim, T.field)] + E.gamma.mats[1:]
    with pytest.raises(StructureError):
        EquivariantObject(E.N, ComoduleFD(T.O, bad))


def test_equivariant_of_refuses_a_nonabelian_quotient():
    # D6 over its centre: the quotient S3 is nonabelian, Delta_O is not
    # cocommutative, and equivariant_of says so up front for every simple
    T = finite_group_triple(*load_fixture("d6_centre"))
    for P in simples(T.A):
        with pytest.raises(StructureError, match="Delta_O is not cocommutative"):
            equivariant_of(T, P)


def test_ideal_prop(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        rep = verify_ideal_prop(T)
        assert rep.passed, rep.failures()
    # (A,A,C): m.A is the augmentation ideal itself
    T = degenerate_triple_aac(z4_triple.A)
    rep = verify_ideal_prop(T, a_catalog=[trivial_a_comodule(T)])
    assert rep.passed
    # shrunk O: report flags (ii) failure upstream
    rep = verify_ideal_prop(shrunk_triple(z4_triple))
    assert not rep.passed
    assert any(c.name == "hypotheses" for c in rep.failures())


def test_hom_adjunction_spot(z4_triple):
    T = z4_triple
    N = object_O(T)
    for M in simples(T.a):
        ind = induce(T, M)
        lhs = len(_cat_homs(T, N, ind))
        Q, _ = psi(T, N)
        rhs = len(comodule_hom_space(Q, M))
        assert lhs == rhs


def test_group_simples_sum_of_squares():
    table, _ = load_fixture("s3_a3")
    f = CycloField(6)
    simples = group_simples(hopf_of_functions(table, f))
    assert sum(s.dim ** 2 for s in simples) == 6


def quaternion_table():
    # signed quaternion units: (sign, axis) with axis in e,i,j,k
    axes = "eijk"
    mul_axis = {("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"),
                ("e", "k"): (1, "k"), ("i", "e"): (1, "i"), ("j", "e"): (1, "j"),
                ("k", "e"): (1, "k"), ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"),
                ("k", "k"): (-1, "e"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
                ("i", "k"): (-1, "j")}
    elems = [(s, a) for a in axes for s in (1, -1)]
    names = [("" if s == 1 else "m") + a for s, a in elems]
    index = {x: i for i, x in enumerate(elems)}
    mult = []
    for s1, a1 in elems:
        row = []
        for s2, a2 in elems:
            s3, a3 = mul_axis[(a1, a2)]
            row.append(index[(s1 * s2 * s3, a3)])
        mult.append(row)
    from smallq.hopfcore import GroupTable
    return GroupTable(names, mult)


def test_quaternion_triple_stress():
    # Q8 over its normal Z/4 = <i>: nonabelian side with a two-dimensional
    # simple of multiplicity two in the regular module
    table = quaternion_table()
    assert table.exponent() == 4
    f = CycloField(4)
    found = group_simples(hopf_of_functions(table, f))
    assert sorted(s.dim for s in found) == [1, 1, 1, 1, 2]
    T = finite_group_triple(table, ["e", "i", "me", "mi"])
    assert (T.O.dim, T.A.dim, T.a.dim) == (2, 8, 4)
    rep = check_conditions(T, catalog=simples(T.a))
    assert all(c.status != "fail" for c in rep.checks), rep.failures()
    rep = verify_equivalence(T)
    assert rep.passed, rep.failures()[:3]


# ---------------------------------------------------------------------------
# the per-triple Ind store
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _coaction_key(M):
    """The value of a comodule's coaction, computed apart from ``induce``."""
    return (M.dim, tuple(frozenset((y, x, v) for (y, x), v in entries(R).items())
                         for R in M.mats))


def _count_builds(monkeypatch):
    """Count ``induce`` calls, their distinct coactions and the objects built."""
    seen = {"calls": 0, "builds": 0, "keys": set()}
    build, ind = hopfcore._build_induced, hopfcore.induce

    def counting_build(*args, **kwargs):
        seen["builds"] += 1
        return build(*args, **kwargs)

    def counting_induce(T, M):
        seen["calls"] += 1
        seen["keys"].add(_coaction_key(M))
        return ind(T, M)

    monkeypatch.setattr(hopfcore, "_build_induced", counting_build)
    monkeypatch.setattr(hopfcore, "induce", counting_induce)
    monkeypatch.setattr(blocks, "induce", counting_induce)
    return seen


def test_ind_store_builds_each_coaction_once_s3(monkeypatch):
    table, sub = load_fixture("s3_a3")
    T = finite_group_triple(table, sub)
    seen = _count_builds(monkeypatch)
    assert verify_equivalence(T).passed
    assert seen["builds"] == len(seen["keys"]) < seen["calls"]


def test_ind_store_builds_each_coaction_once_d4(monkeypatch, capsys):
    # one relabelled D4 table through the CLI: 6 distinct coactions, where
    # a build per call made 166 objects; the direct sums of (iv b) are
    # carriers only, not Ind objects
    seen = _count_builds(monkeypatch)
    assert main(["triple-verify", "--group", str(GOLDEN / "triple-verify_D4_seed0.group")]) == 0
    capsys.readouterr()
    assert seen["builds"] == len(seen["keys"]) == 6
    assert seen["calls"] > seen["builds"]


def _assert_same_induced(got, fresh):
    assert len(got.act) == len(fresh.act)
    assert all(mat_eq(x, y) for x, y in zip(got.act, fresh.act))
    assert got.comodule.mats == fresh.comodule.mats
    assert got.carrier_basis == fresh.carrier_basis


def test_ind_store_hit_equals_fresh_build(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        a_cat, _ = standard_catalogs(T)
        for M in a_cat:
            induce(T, M)
        stored = len(T._induced)
        for M in a_cat:
            # an equal-valued twin under a new name hits the store and gets
            # the one stored object
            twin = ComoduleFD(M.coalg, [[list(row) for row in R] for R in M.mats],
                              name=f"twin-{M.name}")
            got = induce(T, M)
            assert induce(T, twin) is got
            for src in (M, twin):
                _assert_same_induced(got, hopfcore._build_induced(T, src))
        assert len(T._induced) == stored


def test_ind_store_negative_control():
    # over a = functions on Z/2 the trivial and the sign comodule differ in
    # exactly one coefficient: the second must miss and induce differently
    table, sub = load_fixture("z4_z2")
    T = finite_group_triple(table, sub)
    C = trivial_a_comodule(T)
    ind_c = induce(T, C)
    (c, v), = [(c, entries(R)[0, 0]) for c, R in enumerate(C.mats)
               if R[0] and c != T.a.group.identity]
    mats = [[list(col) for col in R] for R in C.mats]
    mats[c][0] = [(0, -v)]
    sign = ComoduleFD(T.a, mats, name="sign")
    ind_s = induce(T, sign)
    assert len(T._induced) == 2
    assert ind_s.comodule.mats != ind_c.comodule.mats
    _assert_same_induced(ind_s, hopfcore._build_induced(T, sign))
    _assert_same_induced(induce(T, C), ind_c)


class _NoStore(dict):
    def __setitem__(self, key, value):
        pass


def test_ind_store_leaves_reports_unchanged():
    # every check of the equivalence report, details included, is the same
    # whether induce builds each call or hits the store
    table, sub = load_fixture("s3_a3")
    stored, unstored = finite_group_triple(table, sub), finite_group_triple(table, sub)
    unstored._induced = _NoStore()
    reps = [verify_equivalence(T) for T in (stored, unstored)]
    assert len(stored._induced) > 0 and len(unstored._induced) == 0
    assert ([(c.name, c.status, c.details) for c in reps[0].checks]
            == [(c.name, c.status, c.details) for c in reps[1].checks])


def test_simples_built_once_per_coalgebra(monkeypatch, capsys):
    table, sub = load_fixture("s3_a3")
    T = finite_group_triple(table, sub)
    calls = []
    real = hopfcore.group_simples
    monkeypatch.setattr(hopfcore, "group_simples",
                        lambda *args: calls.append(args) or real(*args))
    for C in (T.a, T.A):
        first = simples(C)
        first.append(None)
        again = simples(C)
        assert None not in again and again is not first
        assert all(x is y for x, y in zip(first, again))
    assert [C for C, in calls] == [T.a, T.A]
    # a triple-verify run finds the simples of O, A and a once each
    calls.clear()
    assert main(["triple-verify", "--fixture", "s3_a3"]) == 0
    capsys.readouterr()
    assert len(calls) == 3 and len({id(C) for C, in calls}) == 3


def test_simples_of_a_coalgebra_without_a_group_is_refused(z4_triple):
    # the one-dimensional C of (A, A, C) is no function coalgebra of a
    # recorded group: it has no catalog, and asking for one says so
    C = degenerate_triple_aac(z4_triple.A).a
    with pytest.raises(StructureError, match="C: no simple catalog"):
        simples(C)


def _suite_checks(T):
    """(name, status, details) of every check of the four triple suites."""
    reps = [check_conditions(T, catalog=simples(T.a)), verify_equivalence(T),
            blocks.finite_block_bijection(T), verify_ideal_prop(T)]
    return [[(c.name, c.status, c.details) for c in rep.checks] for rep in reps]


@pytest.mark.parametrize("name", ["z4_z2", "D4_seed0"])
def test_engine_reads_no_group_table(name):
    # with the catalogs found, a triple whose coalgebras forget their group
    # tables gives every check of an untouched triple, iv_a included
    stripped, untouched = (finite_group_triple(*GROUP_TRIPLES[name]()) for _ in range(2))
    for C in (stripped.O, stripped.A, stripped.a):
        simples(C)
        del C.group
    got, want = _suite_checks(stripped), _suite_checks(untouched)
    assert all(want) and got == want
    assert ("iv_a", "pass") == got[0][3][:2] and "'section[0]'" in got[0][3][2]


# ---------------------------------------------------------------------------
# the restrict / descend / intertwines kernels in the triple engine
# ---------------------------------------------------------------------------

def _perturbed(mat, m, field):
    """A copy of mat, a matrix with m rows, with its first nonzero entry
    raised by one."""
    out = rows(mat, m, field.zero)
    r, c = next((r, c) for r, row in enumerate(out) for c, x in enumerate(row) if x)
    out[r][c] = out[r][c] + field.one
    return columns(out)


def test_intertwines_rejects_perturbed_unit_and_counit(z4_triple, s3_triple):
    for T in (z4_triple, s3_triple):
        f = T.field
        N = object_A(T)
        mat, ind, rep = adjunction_unit(T, N)
        assert rep.passed
        coact_N = N.comodule.mats
        coact_ind = ind.comodule.mats
        assert intertwines(mat, N.act, ind.act)
        assert intertwines(mat, coact_N, coact_ind)
        assert not intertwines(_perturbed(mat, ind.dim, f), coact_N, coact_ind)
        M = regular_a_comodule(T)
        cmat, Q2, crep = adjunction_counit(T, M)
        assert crep.passed
        coact_Q2 = Q2.mats
        coact_M = M.mats
        assert intertwines(cmat, coact_Q2, coact_M)
        assert not intertwines(_perturbed(cmat, M.dim, f), coact_Q2, coact_M)


def test_twist_reuses_the_validated_coaction(z4_triple, monkeypatch):
    # the coaction of a twist is its source's comodule, checked once when
    # the source was built; twisting re-checks only the action laws
    T = z4_triple
    N = object_A(T)
    checked = []
    real = ComoduleFD._validate
    monkeypatch.setattr(ComoduleFD, "_validate",
                        lambda self: checked.append(self) or real(self))
    for gamma in points_of_O(T):
        tw = twist(T, gamma, N)
        assert tw.comodule is N.comodule and tw.comodule.mats is N.comodule.mats
    assert checked == []


def test_induce_names_the_family_that_leaves_the_cotensor(s3_triple):
    # with O = A acting by left product, the O-action does not keep the
    # cotensor (A (x) M)^a while the coaction still does
    T = s3_triple
    bad = hopfcore.TripleFD(T.A, T.A, T.a, identity(T.A.dim, T.field.one), T.pi, T.ract)
    with pytest.raises(StructureError, match=r"O-action does not preserve .* \(ii\) fails"):
        induce(bad, regular_a_comodule(T))


# ---------------------------------------------------------------------------
# one message per module law: each input below breaks exactly that law
# ---------------------------------------------------------------------------

F4 = CycloField(4)
ONE, ZERO = F4.one, F4.zero


def _primitive_coalgebra():
    """Delta(g) = g (x) g, Delta(x) = x (x) g + g (x) x."""
    return CoalgebraFD(F4, [{(0, 0): ONE}, {(1, 0): ONE, (0, 1): ONE}], [ONE, ZERO])


def _nonassociative_coalgebra():
    """The dual of the unital algebra on 1, a, b with a a = b, a b = a and
    b a = 0: both counit laws hold, (a a) a = 0 != a (a a) = a."""
    delta = [{(0, 0): ONE},
             {(0, 1): ONE, (1, 0): ONE, (1, 2): ONE},
             {(0, 2): ONE, (2, 0): ONE, (1, 1): ONE}]
    return CoalgebraFD(F4, delta, [ONE, ZERO, ZERO])


def _swap_coaction():
    """R_g = I, R_x = [[0, 1], [1, 0]] over the primitive coalgebra: the
    counit law holds, but R_x R_x = I though no product of the dual algebra
    has a coefficient at the pair (x, x)."""
    return ComoduleFD(_primitive_coalgebra(),
                      [columns([[ONE, ZERO], [ZERO, ONE]]), columns([[ZERO, ONE], [ONE, ZERO]])])


def _loop_algebra():
    """The algebra of the smallest nonassociative loop (order 5, every
    element its own inverse), its elements group-like: every Hopf law holds
    except associativity, as (1 1) 2 = 2 and 1 (1 2) = 4."""
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    n = len(loop)
    mult = {(i, j): {loop[i][j]: ONE} for i in range(n) for j in range(n)}
    # every element is its own inverse: the antipode is the identity
    return HopfAlgebraFD(F4, [{(g, g): ONE} for g in range(n)], [ONE] * n,
                         mult, {0: ONE}, identity(n, ONE))


def _unitless_algebra():
    """k with 1 = 0 claimed: the only broken law is the unit law (antipode 0
    makes S(b) b = 0 = eps(b) 1)."""
    return HopfAlgebraFD(F4, [{(0, 0): ONE}], [ONE], {(0, 0): {0: ONE}}, {}, columns([[ZERO]]))


LAW_CASES = [
    ("comultiplication not coassociative", _nonassociative_coalgebra),
    (": counit law fails", lambda: CoalgebraFD(F4, [{(0, 0): ONE}], [ZERO])),
    ("coaction not coassociative", _swap_coaction),
    ("coaction counit law fails",
     lambda: ComoduleFD(CoalgebraFD(F4, [{(0, 0): ONE}], [ONE]), [columns([[ZERO]])])),
    (": unit law fails", _unitless_algebra),
    ("multiplication not associative", _loop_algebra),
]


@pytest.mark.parametrize("message,build", LAW_CASES, ids=[c[0] for c in LAW_CASES])
def test_each_law_has_its_message(message, build):
    with pytest.raises(StructureError, match=message):
        build()


def test_each_action_law_has_its_message(z4_triple):
    # O = functions on Z/2 acting on a line with the trivial coaction: the
    # compatibility law forces act[0] = act[1], so the zero action breaks
    # only the unit law and act[0] = act[1] = 1/2 only associativity
    T = z4_triple
    f = T.field
    line = trivial_A_comodule(T)
    half = f.from_int(2).inverse()
    with pytest.raises(StructureError, match=": unit does not act as identity"):
        TripleObject(T, [columns([[f.zero]]), columns([[f.zero]])], line)
    with pytest.raises(StructureError, match=": action not associative"):
        TripleObject(T, [columns([[half]]), columns([[half]])], line)


def test_freeness_witnesses(z4_triple, s3_triple):
    # O = A in the degenerate triples: no basis vector spans A over O, the
    # unit does (O.1_A = A); group triples keep their coset sections and the
    # shrunk triple, O = k, its basis vectors
    for T in (z4_triple, s3_triple):
        for D in (degenerate_triple_aac(T.A), degenerate_triple_all_equal(T.A)):
            iv_a = next(c for c in check_conditions(D).checks if c.name == "iv_a")
            assert (iv_a.status, iv_a.details) == ("pass", "A is O-free on basis elements ['unit']")
        witness = {c.name: c for c in check_conditions(T).checks}["iv_a"].details
        assert witness.startswith("A is O-free on basis elements ['section[0]'")
        shrunk = {c.name: c for c in check_conditions(shrunk_triple(T)).checks}["iv_a"]
        assert shrunk.status == "pass" and "'basis[0]'" in shrunk.details


# ---------------------------------------------------------------------------
# one message per law of a triple, a Hopf algebra and an equivariant object:
# each input breaks that law and none checked before it.  Every structure
# map comes from a builder, so the inputs do not depend on the form a
# structure map is stored in.
# ---------------------------------------------------------------------------

def _z2_functions(f, identity_first=True):
    """Functions on Z/2; with identity_first False its basis lists the
    non-identity element first."""
    if identity_first:
        return hopf_of_functions(GroupTable(["e", "g"], [[0, 1], [1, 0]]), f)
    return hopf_of_functions(GroupTable(["g", "e"], [[1, 0], [0, 1]]), f)


def _z2_group_algebra(f, k):
    """k[Z/2] on the basis g, b = (1 - g)/k: 1 = g + k b, g g = g + k b,
    g b = b g = -b, b b = (2/k) b and Delta(b) = g (x) b + b (x) g + k b (x) b.
    Its antipode is the identity, as on functions on Z/2."""
    one, kk = f.one, f.from_int(k)
    return HopfAlgebraFD(
        f, [{(0, 0): one}, {(0, 1): one, (1, 0): one, (1, 1): kk}], [one, f.zero],
        {(0, 0): {0: one, 1: kk}, (0, 1): {1: -one}, (1, 0): {1: -one},
         (1, 1): {1: f.from_int(2) * kk.inverse()}},
        {0: one, 1: kk}, _z2_functions(f).antipode)


def _unit_not_preserved(T):
    """O = k into k[Z/2] on the basis g, (1 - g)/2 by 1 -> g + b: an
    idempotent, so multiplicative, but not the unit g + 2 b."""
    f = T.field
    Z = finite_group_triple(GroupTable(["e", "g"], [[0, 1], [1, 0]]), ["e", "g"], field=f)
    return hopfcore.TripleFD(Z.O, _z2_group_algebra(f, 2), Z.a, Z.iota, Z.pi, Z.ract)


def _triple_aaa(T):
    return degenerate_triple_all_equal(T.A)


TRIPLE_LAW_CASES = [
    # right product by delta_e on A has rank one
    ("iota is not injective",
     lambda T: hopfcore.TripleFD(T.A, T.A, _triple_aaa(T).a, _triple_aaa(T).ract[0],
                                 _triple_aaa(T).pi, _triple_aaa(T).ract)),
    ("pi is not surjective",
     lambda T: hopfcore.TripleFD(T.A, T.A, _triple_aaa(T).a, _triple_aaa(T).iota,
                                 _triple_aaa(T).ract[0], _triple_aaa(T).ract)),
    # k[Z/2] on the basis g, 1 - g: iota(g) is the idempotent delta_e +
    # delta_b, but g g = 1; iota(g + (1 - g)) = 1 still
    ("iota is not multiplicative",
     lambda T: hopfcore.TripleFD(_z2_group_algebra(T.field, 1), T.A, T.a, T.iota, T.pi,
                                 T.ract)),
    ("iota does not preserve the unit", _unit_not_preserved),
    # the identity coset's function sent to the other point of O
    ("iota is not a coalgebra map",
     lambda T: hopfcore.TripleFD(_z2_functions(T.field, identity_first=False), T.A, T.a,
                                 T.iota, T.pi, T.ract)),
    # delta_e restricted to the subgroup sent to the non-identity point of a
    ("pi is not a coalgebra map",
     lambda T: hopfcore.TripleFD(T.O, T.A, _z2_functions(T.field, identity_first=False),
                                 T.iota, T.pi, T.ract)),
    # the right action of delta_g moved to delta_{g a^-1}
    ("pi does not respect the right module structure",
     lambda T: hopfcore.TripleFD(T.O, T.A, T.a, T.iota, T.pi, T.ract[1:] + T.ract[:1])),
]


def _z3_table():
    return GroupTable(["e", "a", "b"], [[(i + j) % 3 for j in range(3)] for i in range(3)])


def _functions_coproduct_on_group_algebra(T):
    """k[Z/3]'s product with the coproduct of functions on Z/3: Delta(e)
    has three terms and Delta(e) Delta(e) nine."""
    f = T.field
    table, fun = _z3_table(), hopf_of_functions(_z3_table(), T.field)
    mult = {(i, j): {table.mult[i][j]: f.one} for i in range(3) for j in range(3)}
    return HopfAlgebraFD(f, fun.delta, fun.eps, mult, {0: f.one}, fun.antipode)


def _group_likes_on_idempotents(T):
    """Two orthogonal idempotents, both group-like: Delta is multiplicative,
    eps(e_0 e_1) = 0 != 1."""
    f, one = T.field, T.field.one
    return HopfAlgebraFD(f, [{(0, 0): one}, {(1, 1): one}], [one, one],
                         {(0, 0): {0: one}, (1, 1): {1: one}}, {0: one, 1: one},
                         _z2_functions(f).antipode)


def _primitive_on_idempotents(T):
    """Delta(e_0) = e_0 (x) e_0, Delta(e_1) = e_0 (x) e_1 + e_1 (x) e_0 on two
    orthogonal idempotents: Delta and eps are multiplicative, and
    Delta(e_0 + e_1) misses e_1 (x) e_1."""
    f, one = T.field, T.field.one
    return HopfAlgebraFD(f, [{(0, 0): one}, {(0, 1): one, (1, 0): one}], [one, f.zero],
                         {(0, 0): {0: one}, (1, 1): {1: one}}, {0: one, 1: one},
                         _z2_functions(f).antipode)


HOPF_LAW_CASES = [
    ("comultiplication is not an algebra map", _functions_coproduct_on_group_algebra),
    ("counit is not an algebra map", _group_likes_on_idempotents),
    (r"Delta\(1\) != 1 \(x\) 1", _primitive_on_idempotents),
    # the identity map (iota of the triple (A, A, A)) is not the inversion of Z/4
    ("antipode identity fails",
     lambda T: HopfAlgebraFD(T.field, T.A.delta, T.A.eps, T.A.mult, T.A.unit,
                             _triple_aaa(T).iota)),
]


def _regular_equivariant(T):
    return equivariant_of(T, ComoduleFD(T.A, coaction_matrices(T.A.delta, T.A.dim)))


def _trivial_gamma(T):
    """The O-coaction n -> 1 (x) n on O (x) A: an O-comodule that commutes
    with the A-coaction and ignores the O-action."""
    E = _regular_equivariant(T)
    unit = identity(E.N.dim, T.field.one)
    return EquivariantObject(
        E.N, ComoduleFD(T.O, [mat_scale(unit, T.O.unit.get(o, T.field.zero))
                              for o in range(T.O.dim)]))


def _swapped_gamma(T):
    """Delta_O on the first factor of O (x) A times Z/2 acting on A by
    swapping delta_e <-> delta_a and delta_b <-> delta_c: still a Hopf module,
    but the swap is no translation of Z/4."""
    E = _regular_equivariant(T)
    one = T.field.one
    swap = [[(1, one)], [(0, one)], [(3, one)], [(2, one)]]
    mats = [kron(R, S) for R, S in zip(coaction_matrices(T.O.delta, T.O.dim),
                                       [identity(4, one), swap])]
    return EquivariantObject(E.N, ComoduleFD(T.O, mats))


EQUIVARIANT_LAW_CASES = [
    ("Hopf-module law fails", _trivial_gamma),
    ("coactions do not commute", _swapped_gamma),
]

STRUCTURE_LAW_CASES = TRIPLE_LAW_CASES + HOPF_LAW_CASES + EQUIVARIANT_LAW_CASES


@pytest.mark.parametrize("message,build", STRUCTURE_LAW_CASES,
                         ids=[c[0] for c in STRUCTURE_LAW_CASES])
def test_each_structure_law_has_its_message(z4_triple, message, build):
    with pytest.raises(StructureError, match=message):
        build(z4_triple)


def test_a_coalgebra_map_keeps_the_counit(z4_triple):
    # pi(f) = (f(e) + f(b)) / 2 onto a = k: Delta(pi(f)) = (pi (x) pi) Delta(f),
    # as the averaging idempotent of {e, b} is idempotent under convolution,
    # but eps(pi(delta_e)) = 1/2 != eps(delta_e)
    T = z4_triple
    f = T.field
    half = f.from_int(2).inverse()
    C = CoalgebraFD(f, [{(0, 0): f.one}], [f.one])
    pi = [[(0, half)], [], [(0, half)], []]
    with pytest.raises(StructureError, match="pi is not a coalgebra map"):
        hopfcore.TripleFD(T.O, T.A, C, T.iota, pi, [[[(0, f.one)]]] * T.A.dim)


def test_structure_law_inputs_are_otherwise_valid(z4_triple):
    # negative control: the pieces the cases reassemble build on their own
    T = z4_triple
    hopfcore.TripleFD(T.O, T.A, T.a, T.iota, T.pi, T.ract)
    for k in (1, 2):
        _z2_group_algebra(T.field, k)
    E = _regular_equivariant(T)
    EquivariantObject(E.N, E.gamma)


# ---------------------------------------------------------------------------
# module laws on a generating set of the dual algebra
# ---------------------------------------------------------------------------

def _golden_d4():
    return parse_group_text((GOLDEN / "triple-verify_D4_seed0.group").read_text())


GROUP_TRIPLES = {
    "z4_z2": lambda: load_fixture("z4_z2"),
    "s3_a3": lambda: load_fixture("s3_a3"),
    "d6_centre": lambda: load_fixture("d6_centre"),
    "D4_seed0": _golden_d4,
}


@pytest.fixture(scope="module", params=sorted(GROUP_TRIPLES))
def group_triple(request):
    return finite_group_triple(*GROUP_TRIPLES[request.param]())


def _module_verdict(mats, C, gens):
    """The message ``_check_module`` raises on the coaction matrices ``mats``
    over C with the product law checked for the right factors ``gens``, or
    None."""
    try:
        hopfcore._check_module(mats, C.dual_mult, list(enumerate(C.eps)), C.field.one,
                               "product", "unit", gens)
    except StructureError as exc:
        return str(exc)
    return None


def test_generating_set_generates_the_group(group_triple):
    # for functions on a group the dual algebra is the group algebra
    # (opposite product): J must generate the group, from the identity
    T = group_triple
    for C, table in ((T.A, T.A.group), (T.a, T.a.group), (T.O, T.O.group)):
        gens = C.gens
        assert gens is not None and table.identity not in gens
        assert table.generated(gens) == list(range(table.n))
        assert gens == sorted(gens)


def test_sections_are_the_rows_of_iota(group_triple):
    # the fibres of G -> G/N are the columns of iota, each in increasing
    # order; section j takes the j-th member of every fibre
    T = group_triple
    G, f = T.A.group, T.field
    sub = [h for h, col in enumerate(T.pi) if col]
    fibres = sorted({tuple(sorted(G.mult[g][h] for h in sub)) for g in range(G.n)})
    assert sorted(tuple(r for r, _ in col) for col in T.iota) == fibres
    assert len(T.sections) == len(sub)
    for j, vec in enumerate(T.sections):
        assert vec == [(r, f.one) for r in sorted(col[j][0] for col in T.iota)]
        assert sorted(r for r, _ in vec) == sorted(fibre[j] for fibre in fibres)


def test_d4_comodules_are_checked_on_two_generators():
    # D4 is not cyclic: J has two elements, so a D4 comodule's product law
    # is checked on 8 x 2 pairs instead of 8 x 8
    T = finite_group_triple(*_golden_d4())
    assert len(T.A.gens) == 2


def test_reduced_module_check_agrees_with_every_pair(group_triple):
    # every a/A simple, regular and induced comodule passes both checks, and
    # one perturbed matrix, generator or not, fails both with the same law
    T = group_triple
    regular_A = ComoduleFD(T.A, coaction_matrices(T.A.delta, T.A.dim), name="A")
    a_cat = simples(T.a) + [regular_a_comodule(T)]
    comodules = (a_cat + simples(T.A) + [regular_A]
                 + [induce(T, M).comodule for M in a_cat])
    for M in comodules:
        C = M.coalg
        assert _module_verdict(M.mats, C, C.gens) is None
        assert _module_verdict(M.mats, C, None) is None
        unit_index = C.eps.index(C.field.one)
        outside = set(range(C.dim)) - set(C.gens) - {unit_index}
        for c in {C.gens[0], max(outside, default=C.gens[0])}:
            if not any(M.mats[c]):
                continue
            mats = list(M.mats)
            mats[c] = _perturbed(mats[c], M.dim, C.field)
            assert _module_verdict(mats, C, C.gens) == _module_verdict(mats, C, None) == "product"


def test_corrupted_non_generator_coaction_is_refused(group_triple):
    T = group_triple
    regular_A = ComoduleFD(T.A, coaction_matrices(T.A.delta, T.A.dim), name="A")
    outside = [c for c in range(T.A.dim) if c not in T.A.gens and c != T.A.group.identity]
    assert outside
    c = outside[-1]
    mats = list(regular_A.mats)
    mats[c] = _perturbed(mats[c], regular_A.dim, T.field)
    with pytest.raises(StructureError, match="A': coaction not coassociative"):
        ComoduleFD(T.A, mats, name="A'")


def test_coalgebra_corrupted_at_a_non_generator_is_refused():
    # functions on Z/3: the dual algebra k[Z/3] has J = [1], and index 2 is
    # reached as 1 * 1.  Adding b_2 (x) b_2 to Delta(b_2) keeps both counit
    # laws (eps(b_2) = 0) and changes Delta at index 2 only; the coalgebra
    # checks coassociativity with every pair and refuses it
    f = CycloField(3)
    clean = hopf_of_functions(_z3_table(), f)
    assert clean.gens == [1]
    delta = [dict(d) for d in clean.delta]
    delta[2][(2, 2)] = f.one
    assert [d == e for d, e in zip(delta, clean.delta)] == [True, True, False]
    with pytest.raises(StructureError, match="comultiplication not coassociative"):
        CoalgebraFD(f, delta, clean.eps)
    CoalgebraFD(f, clean.delta, clean.eps)


def test_generating_set_falls_back_to_every_pair(group_triple):
    # O's pointwise product has the unit sum_i e_i: no single basis element,
    # so no reduced check; a unit with coefficient other than 1 neither
    O = group_triple.O
    f = O.field
    assert hopfcore._generating_set(O.mult, O.unit.items(), O.dim) is None
    assert hopfcore._generating_set(O.dual_mult, [(0, f.from_int(2))], O.dim) is None
    # the dual algebra of O, the group algebra of the quotient, has one
    assert hopfcore._generating_set(O.dual_mult, list(enumerate(O.eps)), O.dim) == O.gens


# ---------------------------------------------------------------------------
# the compatibility law without Kronecker sums
# ---------------------------------------------------------------------------

def _respects_action_by_kron(act, coact, O, left):
    """The compatibility law as first written: rho intertwines act with
    sum c left[f1] (x) act[f2] over the terms of Delta(e_i)."""
    n = len(act[0])
    rho = [[(c * n + y, v) for c, R in enumerate(coact) for y, v in R[x]] for x in range(n)]
    on_tensor = [combine(enumerate(d.values()), [kron(left[f1], act[f2]) for f1, f2 in d])
                 for d in O.delta]
    return intertwines(rho, act, on_tensor)


def _cat_objects(T):
    _, cat = standard_catalogs(T)
    a_cat = simples(T.a) + [regular_a_comodule(T)]
    return cat + [induce(T, M) for M in a_cat]


def test_respects_action_matches_the_kronecker_sum(group_triple):
    T = group_triple
    for N in _cat_objects(T):
        for gamma in points_of_O(T):
            tw = twist(T, gamma, N)
            for act in (N.act, tw.act):
                assert hopfcore._respects_action(act, N.comodule.mats, T.O, T.iota_left)
                assert _respects_action_by_kron(act, N.comodule.mats, T.O, T.iota_left)
    # A's own multiplicativity and the Hopf-module law of an equivariant
    # object (``equivariant_of`` builds one over an abelian quotient only)
    A = T.A
    coact = coaction_matrices(A.delta, A.dim)
    assert hopfcore._respects_action(A.left_products, coact, A, A.left_products)
    if T.O.group.commutator_subgroup() == [T.O.group.identity]:
        E = equivariant_of(T, simples(T.A)[-1])
        for law in (hopfcore._respects_action, _respects_action_by_kron):
            assert law(E.N.act, E.gamma.mats, T.O, T.O.left_products)


def test_respects_action_negative_controls(group_triple):
    # one perturbed action entry breaks the law for both formulations
    T = group_triple
    f = T.field
    for N in _cat_objects(T)[:3]:
        for i in range(T.O.dim):
            act = list(N.act)
            act[i] = _perturbed(act[i], N.dim, f)
            assert not hopfcore._respects_action(act, N.comodule.mats, T.O, T.iota_left)
            assert not _respects_action_by_kron(act, N.comodule.mats, T.O, T.iota_left)


def test_first_factor_twist_breaks_compatibility_on_d6_centre():
    # D6 over its centre: the quotient S3 is nonabelian, so twisting on the
    # first Sweedler factor breaks the law at every point but the identity,
    # by both formulations
    T = finite_group_triple(*load_fixture("d6_centre"))
    ident = identity_point(T)
    for N in (object_O(T), object_A(T)):
        for gamma in points_of_O(T):
            act = _first_factor_twist(T, gamma, N)
            expected = gamma == ident
            assert hopfcore._respects_action(act, N.comodule.mats, T.O, T.iota_left) == expected
            assert _respects_action_by_kron(act, N.comodule.mats, T.O, T.iota_left) == expected


# ---------------------------------------------------------------------------
# Hom spaces, cotensors and spins on a generating set
# ---------------------------------------------------------------------------

def test_hom_spaces_and_cotensors_on_gens_equal_every_matrix(group_triple):
    # the generating set J gives the same bases as every coaction matrix:
    # the cotensor behind each Ind(M), Hom_Cat(N, Ind(M)) and Hom_a(Psi(N), M)
    # on every pair the equivalence check visits, and Hom_a between catalog
    # members
    T = group_triple
    f = T.field
    assert len(T.A.gens) < T.A.dim - 1 and len(T.a.gens) < T.a.dim
    a_cat, cat = standard_catalogs(T)
    S = hopfcore.a_right_comodule_of_A(T)
    inds = [induce(T, M) for M in a_cat]
    for M, ind in zip(a_cat, inds):
        assert ind.carrier_basis == cotensor(S, M.mats, T.A.dim, M.dim, f)
        for M2 in a_cat:
            assert comodule_hom_space(M, M2) == intertwiner_space(M.mats, M2.mats, M.dim,
                                                                  M2.dim, f)
    for N in cat:
        Q, _ = psi(T, N)
        for M, ind in zip(a_cat, inds):
            assert hom_cat(T, N, ind) == intertwiner_space(
                N.comodule.mats + N.act, ind.comodule.mats + ind.act, N.dim, ind.dim, f)
            assert comodule_hom_space(Q, M) == intertwiner_space(Q.mats, M.mats, Q.dim,
                                                                 M.dim, f)


def _dense_cotensor(T, M):
    """The RREF null basis of S_c (x) I - I (x) R_c stacked over every basis
    element c of a, each Kronecker product written out densely."""
    f, n, m = T.field, T.A.dim, M.dim
    basis = DenseRowBasis(f)
    for S, R in zip(T.right_coact, M.mats, strict=True):
        S, R = rows(S, n, f.zero), rows(R, m, f.zero)
        for y in range(n):
            for z in range(m):
                basis.add([(S[y][x] if z == w else f.zero) - (R[z][w] if y == x else f.zero)
                           for x in range(n) for w in range(m)])
    return [sparse(v) for v in basis.null_basis(n * m)]


@pytest.mark.parametrize("case,sums", [("z4_z2", True), ("s3_a3", True), ("D4_seed0", False)])
def test_carrier_equals_the_dense_kronecker_null_basis(case, sums):
    # the stored carrier of Ind(M), flattened at x * dim M + w, is the null
    # basis of the full Kronecker system over every c, not only J: for each
    # catalog member and, on the small triples, each sum (iv b) reads
    T = finite_group_triple(*GROUP_TRIPLES[case]())
    a_cat, _ = standard_catalogs(T)
    mods = list(a_cat)
    if sums:
        mods += [comodule_direct_sum(M1, M2)
                 for M1, M2 in itertools.combinations_with_replacement(a_cat, 2)]
    for M in mods:
        assert hopfcore._stored(T, M)[0] == _dense_cotensor(T, M), M.name


def test_group_modules_on_gens_equal_every_matrix(group_triple):
    # group modules are comodules over functions on the group: their Hom
    # spaces, and the spins that split the regular one, read the matrices at
    # the generating set of the dual algebra only
    T = group_triple
    f = T.field
    for table, C in ((T.A.group, T.A), (T.a.group, T.a)):
        assert table.generated(C.gens) == list(range(table.n))
        reg = ComoduleFD(C, coaction_matrices(C.delta, C.dim), name="regular")
        mods = group_simples(C) + [reg]
        for W in mods:
            for V in mods:
                assert comodule_hom_space(W, V) == intertwiner_space(W.mats, V.mats, W.dim,
                                                                     V.dim, f)
        for x in range(table.n):
            seed = [(0, f.one), (x, f.one)] if x else [(0, f.one)]
            assert (spin(C.at_gens(reg.mats), [seed], f).sorted_rows()
                    == spin(reg.mats, [seed], f).sorted_rows())


def _s3_character(T, sign):
    # a character with chi(g^-1) = chi(g), so R_g = chi(g)
    A3 = {g for g, col in enumerate(T.pi) if col}
    mats = [[[(0, T.field.one if g in A3 or not sign else -T.field.one)]]
            for g in range(T.A.group.n)]
    return ComoduleFD(T.A, mats, name="sign" if sign else "1")


def test_a_set_that_does_not_generate_gives_larger_answers(s3_triple):
    # negative control: the rotation r alone generates A3, not S3.  On it the
    # sign character looks trivial: a nonzero Hom from sign to trivial, and a
    # cotensor over functions on S3 twice the size
    T = s3_triple
    f = T.field
    r, i = T.A.group.index["r"], T.A.group.index["i"]
    assert T.A.gens == [r, i]
    sign, triv = _s3_character(T, True), _s3_character(T, False)
    assert comodule_hom_space(sign, triv) == []
    assert len(intertwiner_space([sign.mats[r]], [triv.mats[r]], 1, 1, f)) == 1
    # A as a right A-comodule: the (A, A, A) triple has a = A and pi = id
    AAA = degenerate_triple_all_equal(T.A)
    S = hopfcore.a_right_comodule_of_A(AAA)
    assert AAA.a.gens == [r, i]
    assert len(cotensor(AAA.a.at_gens(S), AAA.a.at_gens(sign.mats), T.A.dim, 1, f)) == 1
    assert len(cotensor(S, sign.mats, T.A.dim, 1, f)) == 1
    assert len(cotensor([S[r]], [sign.mats[r]], T.A.dim, 1, f)) == 2


def test_hom_space_over_the_one_dimensional_coalgebra():
    # J is empty: every map between comodules over k is a comodule map
    f = CycloField(4)
    C = CoalgebraFD(f, [{(0, 0): f.one}], [f.one])
    assert C.gens == []
    M2 = ComoduleFD(C, [identity(2, f.one)])
    M3 = ComoduleFD(C, [identity(3, f.one)])
    units = [[[(t, f.one)] if s == s0 else [] for s in range(2)]
             for t in range(3) for s0 in range(2)]
    assert comodule_hom_space(M2, M3) == units
    assert len(cotensor([], [], 2, 3, f)) == 6
    # the trivial group: no generators, the one simple is the trivial comodule
    trivial = GroupTable(["e"], [[0]])
    k = hopf_of_functions(trivial, f)
    assert trivial.gens == k.gens == []
    assert [s.dim for s in group_simples(k)] == [1]
    reg = ComoduleFD(k, coaction_matrices(k.delta, k.dim))
    assert len(comodule_hom_space(reg, reg)) == 1


def _dihedral_table(m):
    # r^k s^b, with s r = r^-1 s
    elems = [(k, b) for b in (0, 1) for k in range(m)]
    index = {x: n for n, x in enumerate(elems)}
    mult = [[index[((k1 - k2 if b1 else k1 + k2) % m, b1 ^ b2)] for k2, b2 in elems]
            for k1, b1 in elems]
    return GroupTable([f"r{k}" + "s" * b for k, b in elems], mult)


def _a4_table():
    # the even permutations of 0..3, closed from a 3-cycle and a double
    # transposition in the order the closure meets them
    def mul(p, q):          # apply q first, then p
        return tuple(p[q[i]] for i in range(4))
    elems, frontier = [(0, 1, 2, 3)], [(0, 1, 2, 3)]
    while frontier:
        new = [mul(x, g) for x in frontier for g in ((1, 2, 0, 3), (1, 0, 3, 2))]
        frontier = [y for n, y in enumerate(new) if y not in elems and y not in new[:n]]
        elems += frontier
    index = {x: n for n, x in enumerate(elems)}
    return GroupTable(["".join(map(str, x)) for x in elems],
                      [[index[mul(x, y)] for y in elems] for x in elems])


SIMPLE_TABLES = {"Q8": quaternion_table, "A4": _a4_table,
                 **{f"D{m}": (lambda m=m: _dihedral_table(m)) for m in range(3, 13)}}


@functools.lru_cache(maxsize=None)
def _simples_of(name):
    table = SIMPLE_TABLES[name]()
    return table, group_simples(hopf_of_functions(table, CycloField(table.exponent())))


SIMPLE_DIMS = {
    "Q8": [1, 1, 1, 1, 2], "A4": [1, 1, 1, 3],
    "D3": [1, 1, 2], "D4": [1, 1, 1, 1, 2], "D5": [1, 1, 2, 2],
    "D6": [1, 1, 1, 1, 2, 2], "D7": [1, 1, 2, 2, 2], "D8": [1, 1, 1, 1, 2, 2, 2],
    "D9": [1, 1, 2, 2, 2, 2], "D10": [1, 1, 1, 1, 2, 2, 2, 2],
    "D11": [1, 1, 2, 2, 2, 2, 2], "D12": [1, 1, 1, 1, 2, 2, 2, 2, 2],
}


@pytest.mark.parametrize("name", sorted(SIMPLE_TABLES))
def test_group_simples_dimensions_and_schur(name):
    # the split of the regular comodule: sum d^2 = |G|, a one-dimensional
    # End per simple and no map between two of them
    table, simples = _simples_of(name)
    if name == "D8":
        assert table.gens == [1, 8]
    assert [s.dim for s in simples] == SIMPLE_DIMS[name]
    assert sum(s.dim ** 2 for s in simples) == table.n
    for s, t in itertools.product(simples, repeat=2):
        assert len(comodule_hom_space(s, t)) == (1 if s is t else 0)


# sha256 of repr of every simple's name and coaction matrices, per table: the
# bases the split picks, which the induced coactions and reports build on
SIMPLES_DIGEST = {
    "A4": "8c62c3d56f1d72edd197566b73ac39e8e9670fe6c6bee751eb8f7567e0a5f52f",
    "D10": "2f9e2170531ca10118ca822465e44753f92d0c7d10a61aee801e6572effb9123",
    "D11": "df5b58d74868cdf996cd4b2e4ab924f182ff550d5bd5b77f9cc0b4bcf39c1efc",
    "D12": "7cdf42e3b73237efb81d4598d59bc1c5569d67a4d3bd09a7d96e33d455f1b956",
    "D3": "71fd337fe4ad1c928975591373f7939c8ac10fbe8f45620da072bf8b8204d740",
    "D4": "548b45f909d4f5e16e3ade5aa3c6be35021371e75387adb3940ee2f72fb54340",
    "D5": "49c513fa63136fa38e49bcc79bc688f3296796f3a53c889b6894bbb3f3c51254",
    "D6": "ebe91ab83a07c74f640bbd5a0c4c969416e7be0a8d0ac4bee2aa10578d92afd1",
    "D7": "0387c21a781a2f7cfbb99f74e11934de11852faf1236cacc5798b7022c9c562c",
    "D8": "9cf807ba108f6c7471719212c7d8a68c6284e58660b89334e7f9687612791743",
    "D9": "220b34ecd30ad404c2d3cb2dffcbb5cb148beb795b598519a2d68deed17a7a4b",
    "Q8": "5edd2cf84519d6f329459658bcb8886704469267dbe498f8764e1da284d092ad",
}


@pytest.mark.parametrize("name", sorted(SIMPLE_TABLES))
def test_group_simples_digest(name):
    _, simples = _simples_of(name)
    text = repr([(s.name, s.mats) for s in simples])
    assert hashlib.sha256(text.encode()).hexdigest() == SIMPLES_DIGEST[name]


def test_function_coalgebra_generators_are_the_group_generators():
    # the generating set J of the dual of functions on a group is the
    # greedy generating set of the group, so comodule spins and Hom spaces
    # read the group elements a group-module computation would read
    tables = [quaternion_table()] + [_dihedral_table(m) for m in range(3, 13)]
    sources = [load_fixture(n) for n in ("z4_z2", "s3_a3", "d6_centre", "s3_bad")]
    for table, sub in sources + [_golden_d4()]:
        idx = table.subgroup_indices(sub)
        tables += [table, table.subgroup_table(idx)]
        if table.is_normal(idx):
            tables.append(table.quotient(idx)[0])
    for table in tables:
        f = CycloField(table.exponent())
        assert hopf_of_functions(table, f).gens == table.gens


# ---------------------------------------------------------------------------
# Ind restricted at the generating set, the rest along the walk
# ---------------------------------------------------------------------------

INDUCE_CASES = {
    **GROUP_TRIPLES,
    "Q8_seed0": lambda: parse_group_text((GOLDEN / "triple-verify_Q8_seed0.group").read_text()),
}


def _induced_by_every_matrix(T, M, basis):
    """(coaction, action) of Ind(M) as first built: every one of the |A|
    regular coaction matrices of A, and the O-action, each tensored with
    I_M and restricted to the carrier basis."""
    f = T.field
    ident = identity(M.dim, f.one)
    regular = coaction_matrices(T.A.delta, T.A.dim)
    return (hopfcore.restrict([kron(R, ident) for R in regular], basis, f),
            hopfcore.restrict([kron(L, ident) for L in T.iota_left], basis, f))


def _capture_builds(monkeypatch):
    """The (M, object) pairs ``_build_induced`` returns from now on."""
    built = []
    real = hopfcore._build_induced
    monkeypatch.setattr(hopfcore, "_build_induced",
                        lambda T, M, *args: built.append((M, real(T, M, *args))) or built[-1][1])
    return built


def _mismatches(T, built):
    """The names of the built objects that differ from the oracle."""
    out = []
    for M, obj in built:
        coact, act = _induced_by_every_matrix(T, M, obj.carrier_basis)
        if obj.comodule.mats != coact or obj.act != act:
            out.append(M.name)
    return out


@pytest.mark.parametrize("case", sorted(INDUCE_CASES))
def test_induced_coaction_along_the_walk_equals_every_matrix(case, monkeypatch):
    # every object the equivalence check induces: the coaction matrices
    # derived along the walk are those restrict gives on all |A| matrices
    T = finite_group_triple(*INDUCE_CASES[case]())
    built = _capture_builds(monkeypatch)
    assert verify_equivalence(T).passed
    # and Ind of every pairwise sum of the catalog, the largest objects
    for M1, M2 in itertools.combinations_with_replacement(standard_catalogs(T)[0], 2):
        induce(T, comodule_direct_sum(M1, M2))
    assert len(built) >= len(standard_catalogs(T)[0])
    assert len(T.A.walk) == T.A.dim - 1 - len(T.A.gens) > 0
    assert _mismatches(T, built) == []


@pytest.mark.parametrize("case,differs", [("z4_z2", False), ("s3_a3", True),
                                          ("D4_seed0", True)])
def test_reversed_walk_product_negative_control(case, differs, monkeypatch):
    # R_s R_i in place of R_i R_s: on a nonabelian group some induced
    # coaction differs from the oracle (and fails its comodule law, checked
    # off here so the oracle sees it); on the abelian z4_z2 nothing changes
    T = finite_group_triple(*INDUCE_CASES[case]())
    T.A.walk = [(k, s, i, c) for k, i, s, c in T.A.walk]
    monkeypatch.setattr(ComoduleFD, "_validate", lambda self: None)
    monkeypatch.setattr(TripleObject, "_validate", lambda self: None)
    built = _capture_builds(monkeypatch)
    for M in standard_catalogs(T)[0]:
        induce(T, M)
    assert bool(_mismatches(T, built)) == differs


def _rescaled_triple(T, lam):
    """T with A's basis b_g replaced by lam[g] b_g (lam at the unit 1): the
    structure maps of A, iota, pi and the right action rewritten in it.  The
    dual algebra's walk then has R_i R_s = c R_k with c != 1."""
    f, A = T.field, T.A
    inv = [f.one / x for x in lam]
    delta = [{(x, y): c * lam[g] * inv[x] * inv[y] for (x, y), c in d.items()}
             for g, d in enumerate(A.delta)]
    eps = [e * x for e, x in zip(A.eps, lam)]
    mult = {(i, j): {k: c * lam[i] * lam[j] * inv[k] for k, c in p.items()}
            for (i, j), p in A.mult.items()}
    unit = {k: u * inv[k] for k, u in A.unit.items()}
    antipode = [[(r, s * lam[g] * inv[r]) for r, s in col] for g, col in enumerate(A.antipode)]
    A2 = HopfAlgebraFD(f, delta, eps, mult, unit, antipode, name="A'")
    iota = [[(r, v * inv[r]) for r, v in col] for col in T.iota]
    pi = [mat_scale([col], x)[0] for col, x in zip(T.pi, lam)]
    ract = [mat_scale(R, x) for R, x in zip(T.ract, lam)]
    return hopfcore.TripleFD(T.O, A2, T.a, iota, pi, ract, name="rescaled")


def test_walk_scales_by_the_inverse_coefficient(s3_triple, monkeypatch):
    # functions on S3 with every basis element but the unit doubled: each
    # step of the walk has c = 1/2, and Ind(M) still equals the oracle;
    # leaving c^-1 out breaks that equality
    T = s3_triple
    f = T.field
    e = T.A.group.identity
    two = f.from_int(2)
    T2 = _rescaled_triple(T, [f.one if g == e else two for g in range(T.A.dim)])
    assert T2.A.gens == T.A.gens
    assert [c for *_, c in T2.A.walk] == [f.one / two] * len(T.A.walk)
    a_cat, _ = standard_catalogs(T)
    built = _capture_builds(monkeypatch)
    assert check_conditions(T2, catalog=a_cat).passed
    for M in a_cat:
        induce(T2, M)
    for M1, M2 in itertools.combinations_with_replacement(a_cat, 2):
        induce(T2, comodule_direct_sum(M1, M2))
    assert len(built) > len(a_cat) and _mismatches(T2, built) == []
    # negative control: the product without its scale
    T3 = _rescaled_triple(T, [f.one if g == e else two for g in range(T.A.dim)])
    monkeypatch.setattr(hopfcore, "mat_scale", lambda mat, s: mat)
    monkeypatch.setattr(ComoduleFD, "_validate", lambda self: None)
    monkeypatch.setattr(TripleObject, "_validate", lambda self: None)
    del built[:]
    for M in a_cat:
        induce(T3, M)
    assert _mismatches(T3, built) == [M.name for M, _ in built]


@pytest.mark.parametrize("case", sorted(INDUCE_CASES))
def test_iv_b_carrier_equals_a_fresh_build(case, monkeypatch):
    # (iv b) reads only the carrier of each sum M1 (+) M2, and builds Ind of
    # the catalog members only: the carrier's length is the dimension of
    # Ind(M1 (+) M2) built in full on a fresh triple
    T = finite_group_triple(*INDUCE_CASES[case]())
    a_cat, _ = standard_catalogs(T)
    sums, real_sum = [], hopfcore.comodule_direct_sum
    monkeypatch.setattr(hopfcore, "comodule_direct_sum",
                        lambda M1, M2: sums.append(real_sum(M1, M2)) or sums[-1])
    built = _capture_builds(monkeypatch)
    assert check_conditions(T, catalog=a_cat).passed
    n = len(a_cat)
    assert len(sums) == n * (n + 1) // 2 and 0 < len(built) <= n
    fresh = finite_group_triple(*INDUCE_CASES[case]())
    for S in sums:
        assert len(hopfcore._stored(T, S)[0]) == hopfcore._build_induced(fresh, S).dim


@pytest.mark.parametrize("case", ["z4_z2", "D4_seed0"])
def test_iv_b_solves_each_sum_negative_control(case, monkeypatch):
    # a direct sum that returns M1 (+) M1 for M1 (+) M2 fails (iv b) on
    # chi (+) regular: the check solves the sum's own cotensor rather than
    # adding up the dimensions it already knows
    T = finite_group_triple(*INDUCE_CASES[case]())
    a_cat, _ = standard_catalogs(T)
    real_sum = hopfcore.comodule_direct_sum
    monkeypatch.setattr(hopfcore, "comodule_direct_sum", lambda M1, M2: real_sum(M1, M1))
    (iv_b,) = [c for c in check_conditions(T, catalog=a_cat).checks if c.name == "iv_b"]
    chi, reg = a_cat[0], a_cat[-2]
    assert reg.name == regular_a_comodule(T).name
    assert iv_b.status == "fail"
    assert f"Ind not additive on {chi.name}(+){reg.name}" in iv_b.details


def test_d4_induce_traffic(monkeypatch, capsys):
    # one relabelled D4 table through the CLI, 6 Ind builds: each restricts
    # |J| + dim O = 2 + 2 generators; A's regular coaction matrices are
    # built once per coalgebra, A as a right a-comodule once per triple
    seen = {"restrict": [], "in_build": [], "coaction": [], "coalgebras": [],
            "right": 0, "triples": 0}
    real_restrict, real_build = hopfcore.restrict, hopfcore._build_induced
    real_coaction, real_right = hopfcore.coaction_matrices, hopfcore.a_right_comodule_of_A
    real_dual, real_triple = hopfcore._dual_mult, hopfcore.TripleFD._validate

    def build(T, M, *args):
        start = len(seen["restrict"])
        obj = real_build(T, M, *args)
        seen["in_build"].append(seen["restrict"][start:])
        return obj

    def right(T):
        seen["right"] += 1
        return real_right(T)

    def triple(self):
        seen["triples"] += 1
        return real_triple(self)

    monkeypatch.setattr(hopfcore, "restrict",
                        lambda gens, *args: seen["restrict"].append(len(gens))
                        or real_restrict(gens, *args))
    monkeypatch.setattr(hopfcore, "_build_induced", build)
    monkeypatch.setattr(hopfcore, "coaction_matrices",
                        lambda rho, *args: seen["coaction"].append(rho)
                        or real_coaction(rho, *args))
    monkeypatch.setattr(hopfcore, "_dual_mult",
                        lambda C: seen["coalgebras"].append(C) or real_dual(C))
    monkeypatch.setattr(hopfcore, "a_right_comodule_of_A", right)
    monkeypatch.setattr(hopfcore.TripleFD, "_validate", triple)
    assert main(["triple-verify", "--group", str(GOLDEN / "triple-verify_D4_seed0.group")]) == 0
    capsys.readouterr()
    assert seen["in_build"] == [[4]] * 6
    deltas = [rho for rho in seen["coaction"]
              if any(rho is C.delta for C in seen["coalgebras"])]
    assert len(deltas) == len(seen["coalgebras"]) > 0
    assert seen["right"] == seen["triples"] == 1


# ---------------------------------------------------------------------------
# each comodule value is validated once per coalgebra, each object value
# once per triple
# ---------------------------------------------------------------------------

def _law_checks(monkeypatch):
    """The product messages of the ``_check_module`` calls, in order: a
    comodule's begin with its name and ': coaction', an object's with its
    name and ': action'."""
    seen, real = [], hopfcore._check_module

    def check(cols, mult, unit, one, product_msg, *args, **kwargs):
        seen.append(product_msg)
        return real(cols, mult, unit, one, product_msg, *args, **kwargs)

    monkeypatch.setattr(hopfcore, "_check_module", check)
    return seen


def _copy(mats):
    return [[list(col) for col in R] for R in mats]


def _one_entry_changed(mats, field):
    """mats with the first nonzero entry of its first nonempty column raised
    by one."""
    out = _copy(mats)
    for R in out:
        for col in R:
            if col:
                r, v = col[0]
                col[0] = (r, v + field.one)
                return out
    raise AssertionError("no nonzero entry")


def test_comodule_laws_checked_once_per_value_per_coalgebra(monkeypatch):
    table, sub = load_fixture("s3_a3")
    T, T2 = finite_group_triple(table, sub), finite_group_triple(table, sub)
    # a's coaction on itself; building the triple made no comodule
    mats = T.a.regular
    seen = _law_checks(monkeypatch)
    for name in ("first", "second", "third"):
        ComoduleFD(T.a, _copy(mats), name=name)
    # an equal value over another coalgebra, with equal structure, is checked
    ComoduleFD(T2.a, _copy(mats), name="other")
    assert seen == ["first: coaction not coassociative", "other: coaction not coassociative"]
    # one coaction entry changed: refused, and checked, on every construction
    bad = _one_entry_changed(mats, T.field)
    for name in ("bad1", "bad2"):
        with pytest.raises(StructureError, match=f"{name}: coaction"):
            ComoduleFD(T.a, _copy(bad), name=name)
    assert len(seen) == 4
    assert not any(key[1] == tuple(tuple(map(tuple, R)) for R in bad)
                   for key in T.a._valid_comodules)


def test_object_laws_checked_once_per_value_per_triple(monkeypatch):
    table, sub = load_fixture("z4_z2")
    T, T2 = finite_group_triple(table, sub), finite_group_triple(table, sub)
    N = object_A(T)
    seen = _law_checks(monkeypatch)
    TripleObject(T, _copy(N.act), N.comodule, name="again")
    for gamma in points_of_O(T):
        twist(T, gamma, N, name="twisted")
    # the identity point gives N back, the other point a new action
    assert [m for m in seen if m.startswith("twisted")] == ["twisted: action not associative"]
    # the same value on another triple is checked there
    comodule = ComoduleFD(T2.A, _copy(N.comodule.mats), name="A2")
    TripleObject(T2, _copy(N.act), comodule, name="other")
    assert [m for m in seen if ": action" in m] == ["twisted: action not associative",
                                                      "other: action not associative"]
    # one action entry changed: refused, and checked, on every construction
    bad = _one_entry_changed(N.act, T.field)
    for name in ("bad1", "bad2"):
        with pytest.raises(StructureError, match=f"{name}: "):
            TripleObject(T, _copy(bad), N.comodule, name=name)
    assert sum(m.startswith("bad") for m in seen) == 2
    assert len(T._valid_objects) == 2


def test_ind_store_and_validation_store_read_one_key(monkeypatch):
    # the key is built once, in the constructor: an equal-valued twin hits
    # the Ind store and the validation store alike
    table, sub = load_fixture("s3_a3")
    T = finite_group_triple(table, sub)
    catalog = standard_catalogs(T)[0]
    seen = _law_checks(monkeypatch)
    for M in catalog:
        assert M.key == (M.dim, tuple(tuple(map(tuple, R)) for R in M.mats))
        assert M.key in T.a._valid_comodules
        assert hopfcore._stored(T, M) is T._induced[M.key]
        twin = ComoduleFD(T.a, _copy(M.mats), name=f"twin-{M.name}")
        assert twin.key == M.key
        assert hopfcore._stored(T, twin) is hopfcore._stored(T, M)
    assert seen == []


def test_d4_validates_each_distinct_value_once(monkeypatch, capsys):
    # the D4 golden through the CLI: 107 comodules of 42 distinct
    # (coalgebra, value) pairs, 27 objects of 13 distinct values
    made = {"comodules": [], "objects": []}
    com_init, obj_init = ComoduleFD.__init__, TripleObject.__init__

    def comodule(self, coalg, *args, **kwargs):
        com_init(self, coalg, *args, **kwargs)
        made["comodules"].append((id(coalg), self.key))

    def obj(self, T, *args, **kwargs):
        obj_init(self, T, *args, **kwargs)
        made["objects"].append((id(T), self.key))

    monkeypatch.setattr(ComoduleFD, "__init__", comodule)
    monkeypatch.setattr(TripleObject, "__init__", obj)
    seen = _law_checks(monkeypatch)
    assert main(["triple-verify", "--group", str(GOLDEN / "triple-verify_D4_seed0.group")]) == 0
    capsys.readouterr()
    coaction = [m for m in seen if m.endswith(": coaction not coassociative")]
    action = [m for m in seen if m.endswith(": action not associative")]
    assert (len(made["comodules"]), len(set(made["comodules"])), len(coaction)) == (107, 42, 42)
    assert (len(made["objects"]), len(set(made["objects"])), len(action)) == (27, 13, 13)


@pytest.mark.parametrize("build,message", [
    (lambda T, M, N: ComoduleFD(T.a, M.mats[:-1], name="short"),
     "short: 1 coaction matrices for a coalgebra of dimension 2"),
    (lambda T, M, N: ComoduleFD(T.a, M.mats + [M.mats[0]], name="long"),
     "long: 3 coaction matrices for a coalgebra of dimension 2"),
    (lambda T, M, N: TripleObject(T, N.act[:-1], N.comodule, name="short"),
     "short: 1 action matrices for O of dimension 2"),
    (lambda T, M, N: TripleObject(T, N.act + [N.act[0]], N.comodule),
     "object: 3 action matrices for O of dimension 2"),
], ids=["comodule-short", "comodule-long", "object-short", "object-long"])
def test_wrong_number_of_structure_matrices_is_refused(z4_triple, build, message):
    T = z4_triple
    with pytest.raises(StructureError, match=message):
        build(T, regular_a_comodule(T), object_A(T))
