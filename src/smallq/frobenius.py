"""Quantum Frobenius pullback, the small quantum group, and Hecke structures.

The dual-side input is a finite-dimensional representation of the Langlands
dual Lie algebra, recorded as a weight grading plus Chevalley operator
matrices.  Pulling back along the Frobenius turns it into a WeightModule on
which E_i, F_i act by zero and the divided powers act as e_i, f_i, with the
torus acting through phi (adjoint form) or phi_sc (simply-connected form).

Restriction to the small quantum group keeps the matrices of K_i E_i and F_i
together with the character grading modulo the image of phi; invariants,
the factorization reconstruction, the commutator-identity engine and the
module-level Hecke structures alpha_V all live here.
"""

from __future__ import annotations

from .linalg import (
    RowBasis,
    block_diag,
    combine,
    identity,
    intertwiner_space,
    intertwines,
    kron,
    kron_sum,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_sub,
    restrict,
    sparse_nullspace,
    transpose,
)
from .repcore import GenSet, Submodule, WeightModule, tensor_product
from .repcore import _diag, _first_entry, _generator_matrices
from .report import Report
from .rootdata import EllForm, build_root_datum


class DualGroupRep:
    """Representation of the dual Lie algebra: weights plus e_i, f_i matrices,
    each as its sparse columns.

    form = "adjoint": weights in Y, coroot coordinates (representations of
    the adjoint dual group); form = "sc": weights in the dual weight lattice,
    fundamental-coweight coordinates (simply-connected dual group).
    """

    def __init__(self, datum, params, weights, e, f, form="adjoint", name=""):
        self.datum = datum
        self.params = params
        self.weights = [tuple(w) for w in weights]
        self.e = e
        self.f = f
        self.form = form
        self.name = name or f"V(dim={len(self.weights)})"
        self.ell_form = EllForm(datum, params)
        self._validate()

    @property
    def dim(self):
        return len(self.weights)

    def h_pairing(self, i, b) -> int:
        """<weight of basis vector b, alpha_i> = eigenvalue of h_i."""
        mu = self.weights[b]
        if self.form == "sc":
            return mu[i]
        a = self.datum.a
        return sum(mu[j] * a[j][i] for j in range(self.datum.rank))

    def h_diag(self, i):
        f = self.params.field
        return _diag([f.from_int(self.h_pairing(i, b)) for b in range(self.dim)])

    def x_weights(self):
        """Images of the weights in X under phi (adjoint) or phi_sc (sc)."""
        form = self.ell_form
        if self.form == "sc":
            return [form.phi_sc(mu) for mu in self.weights]
        return [form.phi(mu) for mu in self.weights]

    def _validate(self):
        r = self.datum.rank
        for i in range(r):
            e, fi = self.e[i], self.f[i]
            comm = mat_sub(mat_mul(e, fi), mat_mul(fi, e))
            if not mat_eq(comm, self.h_diag(i)):
                raise ValueError(f"[e_{i}, f_{i}] != h_{i}")
            # integrability: e and f are nilpotent
            for mat, sym in ((e, "e"), (fi, "f")):
                p = mat
                for _ in range(self.dim):
                    p = mat_mul(p, mat)
                if not mat_is_zero(p):
                    raise ValueError(f"{sym}_{i} is not nilpotent")
        # grading: e_i raises the weight by the i-th simple coroot
        weights = self.weights
        for i in range(r):
            shift = self._coroot_shift(i)
            for mats, sign, sym in ((self.e, 1, "e"), (self.f, -1, "f")):
                for c, col in enumerate(mats[i]):
                    expect = tuple(a + sign * b for a, b in zip(weights[c], shift))
                    if any(weights[rr] != expect for rr, _ in col):
                        raise ValueError(f"{sym}-grading violated")

    def _coroot_shift(self, i):
        r = self.datum.rank
        if self.form == "sc":
            return tuple(self.datum.a[i][j] for j in range(r))
        return tuple(1 if j == i else 0 for j in range(r))

    def __repr__(self):
        return f"DualGroupRep({self.name}, {self.form}, dim={self.dim})"


def trivial_rep(params, datum=None, form="adjoint") -> DualGroupRep:
    if datum is None:
        datum = build_root_datum("A1")
    z = [[]]
    return DualGroupRep(datum, params, [(0,) * datum.rank],
                        [z] * datum.rank, [z] * datum.rank, form=form,
                        name="C")


def dual_irrep_sl2(m: int, params, datum=None, form="sc") -> DualGroupRep:
    """Irreducible sl2-representation of highest weight m (dimension m+1).

    For the adjoint form m must be even (weights land in the coroot lattice).
    """
    if datum is None:
        datum = build_root_datum("A1")
    if datum.cartan_type != "A1":
        raise ValueError("dual sl2 irreps are for A1 only")
    if m < 0:
        raise ValueError("highest weight must be dominant")
    if form == "adjoint" and m % 2 != 0:
        raise ValueError("adjoint-form weights must lie in the coroot lattice")
    f = params.field
    n = m + 1
    # e v_k = (m - k + 1) v_{k-1}, f v_k = (k + 1) v_{k+1}
    e = [[]] + [[(k - 1, f.from_int(m - k + 1))] for k in range(1, n)]
    fm = [[(k + 1, f.from_int(k + 1))] for k in range(m)] + [[]]
    if form == "sc":
        weights = [(m - 2 * k,) for k in range(n)]
    else:
        weights = [((m - 2 * k) // 2,) for k in range(n)]
    return DualGroupRep(datum, params, weights, [e], [fm], form=form,
                        name=f"V^{m}" + ("sc" if form == "sc" else ""))


def rep_direct_sum(V1: DualGroupRep, V2: DualGroupRep) -> DualGroupRep:
    assert V1.form == V2.form
    return DualGroupRep(V1.datum, V1.params, V1.weights + V2.weights,
                        [block_diag(a, b) for a, b in zip(V1.e, V2.e)],
                        [block_diag(a, b) for a, b in zip(V1.f, V2.f)],
                        form=V1.form, name=f"{V1.name}(+){V2.name}")


def rep_tensor(V1: DualGroupRep, V2: DualGroupRep) -> DualGroupRep:
    """Classical tensor product: e acts by e(x)1 + 1(x)e."""
    assert V1.form == V2.form
    one = V1.params.field.one
    id1 = identity(V1.dim, one)
    id2 = identity(V2.dim, one)
    weights = [tuple(a + b for a, b in zip(w1, w2))
               for w1 in V1.weights for w2 in V2.weights]
    e = [kron_sum([(V1.e[i], id2), (id1, V2.e[i])]) for i in range(V1.datum.rank)]
    fm = [kron_sum([(V1.f[i], id2), (id1, V2.f[i])]) for i in range(V1.datum.rank)]
    return DualGroupRep(V1.datum, V1.params, weights, e, fm, form=V1.form,
                        name=f"{V1.name}(x){V2.name}")


# ---------------------------------------------------------------------------
# Frobenius pullback and restriction
# ---------------------------------------------------------------------------

def frobenius_pullback(V: DualGroupRep) -> WeightModule:
    """The WeightModule with E, F acting by zero and divided powers by e, f."""
    params = V.params
    n = V.dim
    zero_m = [[] for _ in range(n)]
    ident = identity(n, params.field.one)
    efam, ffam = [], []
    for i in range(V.datum.rank):
        li = params.ell_i[i]
        fam_e = [ident] + [zero_m] * (li - 1) + [V.e[i]]
        fam_f = [ident] + [zero_m] * (li - 1) + [V.f[i]]
        efam.append(fam_e)
        ffam.append(fam_f)
    return WeightModule(V.datum, params, V.x_weights(), GenSet(efam, ffam),
                        None, name=f"Fr*({V.name})")


class SmallQuantumView:
    """Module data seen by the small quantum group: K_iE_i, F_i, characters."""

    def __init__(self, module: WeightModule, sc: bool = False):
        self.module = module
        self.sc = sc
        self.ke = []
        self.f = []
        for i in range(module.datum.rank):
            self.ke.append(mat_mul(module.k_diag_zeta(i), module.z.e(i)))
            self.f.append(module.z.f(i))
        self.classes = [module.weight_class(b, sc=sc) for b in range(module.dim)]

    def is_trivial(self) -> bool:
        """All generators act as the counit: K_iE_i, F_i by 0, characters trivially."""
        for m in self.ke + self.f:
            if not mat_is_zero(m):
                return False
        ref = _zero_class(self.module, self.sc)
        return all(c == ref for c in self.classes)

    def gens(self):
        return self.ke + self.f


def _zero_class(module, sc):
    from .repcore import _class_orbits
    return _class_orbits(module, sc)._coset_rep((0,) * module.datum.rank)


def restrict_to_small(module: WeightModule, sc: bool = False) -> SmallQuantumView:
    return SmallQuantumView(module, sc=sc)


def small_invariants(module: WeightModule, sc: bool = False) -> Submodule:
    """Joint kernel of K_iE_i and F_i inside the trivial-character component,
    checked to be stable under all big-quantum-group generators."""
    view = restrict_to_small(module, sc=sc)
    f = module.params.field
    zero_class = _zero_class(module, sc)
    # g x = 0 row by row for every generator g
    equations = [row for g in view.gens() for row in transpose(g, module.dim)]
    # characters: coordinates outside the trivial class must vanish
    equations += [[(b, f.one)] for b in range(module.dim) if view.classes[b] != zero_class]
    sub_rows = RowBasis(f, sparse_nullspace(equations, module.dim, f)).sorted_rows()
    # invariant vectors may mix weights within the trivial class; weight-split
    # them to honour the Submodule contract
    from .repcore import _weight_components
    split = RowBasis(f)
    weights = []
    for row in sub_rows:
        for w, comp in _weight_components(module, row):
            if split.add(comp):
                weights.append(w)
    # torus stability of the invariants makes the split lossless; a dimension
    # jump would mean a convention bug upstream
    if split.dim != len(sub_rows):
        raise AssertionError("invariant subspace is not weight-homogeneous")
    sub = Submodule(module, split.sorted_rows(), weights)
    # part (1) of the factorization statement: the subspace is stable under
    # every big-group generator matrix
    if restrict(_generator_matrices(module), sub.basis, f) is None:
        raise AssertionError(
            "small-quantum-group invariants are not stable under the big group")
    return sub


def verify_commutator_identity(module: WeightModule, i: int = 0) -> Report:
    """[E^(l), F^(l)] = sum_{0<=k<l} (1/[k]!)^2 F^k [K; -2k over l-k] E^k at zeta.

    This is the expansion of the divided-power commutator through the
    K-binomial elements; only the k = 0 term [K; 0 over l] survives on
    modules where E and F act by zero, which is how h is read off there.
    The terms are evaluated through the divided-power families, i.e. as
    F^(k) [K; -2k over l-k] E^(k).
    """
    rep = Report(f"commutator-identity[{module.name}]")
    li = module.params.ell_i[i]
    one = module.params.field.one
    z = module.z
    # E^(l) F^(l) against F^(l) E^(l) plus the sum, added up by one combine
    mats = [mat_mul(z.div_f(i), z.div_e(i))]
    mats += [mat_mul(z.ffam[i][k], mat_mul(module.kbinom_diag(i, -2 * k, li - k),
                                           z.efam[i][k])) for k in range(li)]
    lhs = mat_mul(z.div_e(i), z.div_f(i))
    rhs = combine([(k, one) for k in range(len(mats))], mats)
    if mat_eq(lhs, rhs):
        rep.ok(f"identity[vertex {i}]",
               f"sum over k < {li} matches the divided-power commutator exactly")
    else:
        r, c = _first_entry(mat_sub(lhs, rhs))
        rep.fail(f"identity[vertex {i}]", "matrix mismatch",
                 counterexample=f"first differing entry at ({r},{c})")
    return rep


def factorization_reconstruct(module: WeightModule, sc: bool = False) -> DualGroupRep:
    """Rebuild the dual-group representation from a module with trivial
    small-quantum-group action."""
    inv = small_invariants(module, sc=sc)
    if inv.dim != module.dim:
        raise ValueError("small quantum group does not act trivially")
    params = module.params
    datum = module.datum
    form = module.form
    r = datum.rank
    weights = []
    for b in range(module.dim):
        lam = module.weights[b]
        if sc:
            mu = tuple(lam[i] // params.ell_i[i] for i in range(r))
            if form.phi_sc(mu) != lam:
                raise ValueError(f"weight {lam} is not in the image of phi_sc")
        else:
            mu = _solve_phi_preimage(form, lam)
        weights.append(mu)
    e = [module.z.div_e(i) for i in range(r)]
    f = [module.z.div_f(i) for i in range(r)]
    V = DualGroupRep(datum, params, weights, e, f,
                     form="sc" if sc else "adjoint",
                     name=f"reconstruct({module.name})")
    # the K-binomial scalar [K_i; 0 over ell_i] must act as h_i
    for i in range(r):
        kb = module.kbinom_diag(i, 0, params.ell_i[i])
        if not mat_eq(kb, V.h_diag(i)):
            raise ValueError("K-binomial scalar disagrees with the reconstructed h")
    return V


def _solve_phi_preimage(form: EllForm, lam):
    """mu in Y (coroot coordinates) with phi(mu) = lam, exact and integral."""
    r = form.datum.rank
    # phi matrix: rows phi(coroot_j)
    rows = [form.phi(tuple(1 if k == j else 0 for k in range(r)))
            for j in range(r)]
    # solve x * rows = lam by Cramer at rank <= 2; a remainder means x is
    # not integral
    if r == 1:
        den = rows[0][0]
        if lam[0] % den:
            raise ValueError(f"weight {lam} is not in phi(Y)")
        return (lam[0] // den,)
    if r == 2:
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        x0, r0 = divmod(lam[0] * rows[1][1] - lam[1] * rows[1][0], det)
        x1, r1 = divmod(rows[0][0] * lam[1] - rows[0][1] * lam[0], det)
        if r0 or r1:
            raise ValueError(f"weight {lam} is not in phi(Y)")
        return (x0, x1)
    raise NotImplementedError("rank > 2 not needed")


def pullback_roundtrip_equal(V: DualGroupRep, module: WeightModule) -> bool:
    """frobenius_pullback(V) equals the module via the identity matrix."""
    back = frobenius_pullback(V)
    return back.weights == module.weights and back.z.matrices() == module.z.matrices()


# ---------------------------------------------------------------------------
# Hecke structures
# ---------------------------------------------------------------------------

class HeckeStructure:
    """Family of small-group intertwiners Fr*(V) (x) M -> V_underline (x) M."""

    def __init__(self, module: WeightModule, reps, alphas, sc=False):
        self.module = module
        self.reps = list(reps)
        self.alphas = list(alphas)      # matrices, one per rep
        self.sc = sc


def _underline_tensor(V: DualGroupRep, M: WeightModule) -> WeightModule:
    """V_underline (x) M: dim V copies of M, basis ordered like the kron."""
    params = M.params
    idv = identity(V.dim, params.field.one)
    weights = [M.weights[j] for _ in range(V.dim) for j in range(M.dim)]
    efam = [[kron(idv, m) for m in fam] for fam in M.z.efam]
    ffam = [[kron(idv, m) for m in fam] for fam in M.z.ffam]
    return WeightModule(M.datum, params, weights, GenSet(efam, ffam), None,
                        name=f"underline({V.name})(x){M.name}")


def hom_small(src: WeightModule, tgt: WeightModule, sc=False):
    """Basis of the space of small-quantum-group intertwiners src -> tgt."""
    f = src.params.field
    vsrc = restrict_to_small(src, sc=sc)
    vtgt = restrict_to_small(tgt, sc=sc)
    return intertwiner_space(vsrc.gens(), vtgt.gens(), src.dim, tgt.dim, f,
                             src_blocks=vsrc.classes, tgt_blocks=vtgt.classes)


def hom_big(src: WeightModule, tgt: WeightModule):
    """Basis of big-quantum-group intertwiners (weight preserving)."""
    f = src.params.field
    return intertwiner_space(_generator_matrices(src), _generator_matrices(tgt),
                             src.dim, tgt.dim, f, src_blocks=src.weights, tgt_blocks=tgt.weights)


def hom_dual_group(V1: DualGroupRep, V2: DualGroupRep):
    """Basis of dual-group morphisms V1 -> V2 (e, f and grading equivariant)."""
    f = V1.params.field
    return intertwiner_space(V1.e + V1.f, V2.e + V2.f, V1.dim, V2.dim, f,
                             src_blocks=V1.weights, tgt_blocks=V2.weights)


def build_hecke_structure(module: WeightModule, reps, sc=False) -> tuple:
    """Solve for the alpha_V family and verify the coherence axioms.

    Returns (HeckeStructure or None, Report).  alpha_V is the identity on
    the underlying space (the small group cannot see the Frobenius-twisted
    grading), so it is invertible; when the identity is not a small
    intertwiner, alpha[V] fails with the dimension of the full intertwiner
    space and no other candidate is tried.  The report records that
    dimension, the unit axiom, naturality squares for a basis of every
    morphism space, and the tensor-compatibility composite.
    """
    rep_report = Report(f"hecke[{module.name}]")
    one = module.params.field.one
    alphas = []
    for V in reps:
        src = tensor_product(frobenius_pullback(V), module)
        tgt = _underline_tensor(V, module)
        cand = identity(src.dim, one)
        space = hom_small(src, tgt, sc=sc)
        rep_report.ok(f"hom-space[{V.name}]",
                      f"dim Hom_small = {len(space)}")
        if not _is_small_intertwiner(cand, src, tgt, sc):
            rep_report.fail(f"alpha[{V.name}]",
                            "the identity is not a small intertwiner",
                            counterexample=f"dim Hom = {len(space)}")
            return None, rep_report
        rep_report.ok(f"alpha[{V.name}]", "canonical intertwiner, invertible")
        alphas.append(cand)

    # unit axiom: for the trivial representation alpha is the identity map
    triv = [V for V in reps if V.dim == 1 and all(not x for w in V.weights for x in w)]
    for V in triv:
        idx = reps.index(V)
        if mat_eq(alphas[idx], identity(module.dim, one)):
            rep_report.ok("unit-axiom", "alpha_C is the identity")
        else:
            rep_report.fail("unit-axiom", "alpha_C differs from the identity",
                            counterexample=V.name)

    # naturality squares for a basis of each dual-group morphism space
    idm = identity(module.dim, one)
    for a, Va in enumerate(reps):
        for b, Vb in enumerate(reps):
            homs = hom_dual_group(Va, Vb)
            for k, u in enumerate(homs):
                left = mat_mul(kron(u, idm), alphas[a])
                right = mat_mul(alphas[b], kron(u, idm))
                name = f"naturality[{Va.name}->{Vb.name}#{k}]"
                if mat_eq(left, right):
                    rep_report.ok(name)
                else:
                    rep_report.fail(name, "square does not commute",
                                    counterexample=name)

    # tensor compatibility on ordered pairs
    for a, Va in enumerate(reps):
        for b, Vb in enumerate(reps):
            ok, detail = _tensor_compat(module, Va, Vb, alphas[a], alphas[b], sc)
            name = f"tensor-compat[{Va.name},{Vb.name}]"
            if ok:
                rep_report.ok(name, detail)
            else:
                rep_report.fail(name, detail, counterexample=name)

    return HeckeStructure(module, reps, alphas, sc=sc), rep_report


def _is_small_intertwiner(X, src, tgt, sc):
    vs = restrict_to_small(src, sc=sc)
    vt = restrict_to_small(tgt, sc=sc)
    if not intertwines(X, vs.gens(), vt.gens()):
        return False
    return all(vs.classes[s] == vt.classes[t] for s, col in enumerate(X) for t, _ in col)


def _swap_matrix(n1, n2, field):
    """Permutation matrix for V1 (x) V2 -> V2 (x) V1 on kron-ordered bases:
    column i*n2 + j has its one at row j*n1 + i."""
    return [[(j * n1 + i, field.one)] for i in range(n1) for j in range(n2)]


def _tensor_compat(module, V1, V2, a1, a2, sc):
    """The displayed composite through alpha_{V1 (x) V2} equals the one-leg-at-
    a-time composite ending in V2_underline (x) V1_underline (x) M."""
    f = module.params.field
    V12 = rep_tensor(V1, V2)
    back = frobenius_pullback(V12)
    # Fr* is monoidal on the nose in this basis: check it, then use it
    fr12 = tensor_product(frobenius_pullback(V1), frobenius_pullback(V2))
    if fr12.z.matrices() != back.z.matrices():
        return False, "Fr* fails to be monoidal on the nose"
    # alpha for V12: canonical identity candidate, verified directly
    src = tensor_product(back, module)
    tgt = _underline_tensor(V12, module)
    alpha12 = identity(src.dim, f.one)
    if not _is_small_intertwiner(alpha12, src, tgt, sc):
        return False, "no canonical alpha for the tensor representation"
    swap = kron(_swap_matrix(V1.dim, V2.dim, f), identity(module.dim, f.one))
    lhs = mat_mul(swap, alpha12)
    # right-hand composite: id (x) alpha_2, the same swap of the first two
    # factors, id (x) alpha_1
    step1 = kron(identity(V1.dim, f.one), a2)
    step3 = kron(identity(V2.dim, f.one), a1)
    rhs = mat_mul(step3, mat_mul(swap, step1))
    if mat_eq(lhs, rhs):
        return True, "composite identities agree as matrices"
    return False, "tensor-compatibility composites disagree"


# ---------------------------------------------------------------------------
# twisting a Hecke structure by a dual-group point
# ---------------------------------------------------------------------------

class DualTorusPoint:
    """Point of the dual maximal torus: acts on weight mu by t^<mu-exponent>."""

    def __init__(self, value, power: int = 1):
        self.value = value          # invertible CycloElem
        self.power = power

    def matrix(self, V: DualGroupRep):
        return _diag([self.value ** (V.h_pairing(0, b) * self.power) for b in range(V.dim)])


def twist_hecke(h: HeckeStructure, point) -> HeckeStructure:
    """Compose every alpha_V with the point acting on the multiplicity space."""
    idm = identity(h.module.dim, h.module.params.field.one)
    new_alphas = []
    for V, alpha in zip(h.reps, h.alphas):
        new_alphas.append(mat_mul(kron(point.matrix(V), idm), alpha))
    return HeckeStructure(h.module, h.reps, new_alphas, sc=h.sc)
