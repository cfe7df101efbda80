"""Span coordinates, intertwiner spaces and the restrict / descend /
intertwines kernels over the cyclotomic fields at ell 4 and 6, the
sparse-column matrix kernels against naive dense references, and the
sparse-row RowBasis with everything built on it against the dense row basis
it replaced.  Every kernel output is checked to be in the one stored form of
a vector and a matrix column: indices strictly increasing and no zero
entry.  The dense oracles take dense lists; the kernels get the same vectors
through ``dense.sparse``."""

import pytest
from dense import (
    DenseRowBasis,
    canonical,
    columns,
    dense_basis,
    dense_coords,
    dense_spin,
    rows,
    sparse,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallq.linalg import (
    Quotient,
    RowBasis,
    Span,
    block_diag,
    combine,
    identity,
    intertwiner_space,
    intertwines,
    inverse,
    kron,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_sum,
    rank,
    restrict,
    sparse_nullspace,
    spin,
    transpose,
)
from smallq.repcore import GenSet, _specialize
from smallq.scalars import LaurentPoly, QParams

FIELDS = {ell: QParams(ell).field for ell in (4, 6)}
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def elems(draw, field):
    if draw(st.integers(0, 2)) == 0:
        return field.zero
    nums = draw(st.lists(st.integers(-3, 3), min_size=field.degree,
                         max_size=field.degree))
    return field.elem(nums, draw(st.integers(1, 3)))


@st.composite
def vectors(draw, field, n):
    return [draw(elems(field)) for _ in range(n)]


@st.composite
def span_case(draw, min_k=0, spare=0):
    """(field, n, independent vectors b_0..b_{k-1}) with k <= n - spare."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(max(1, min_k + spare), 5))
    k = draw(st.integers(min_k, n - spare))
    basis = [draw(vectors(field, n)) for _ in range(k)]
    assume(rank(sparse_all(basis), field) == k)
    return field, n, basis


def sparse_all(vecs):
    return [sparse(v) for v in vecs]


def combination(field, n, basis, coeffs):
    out = [field.zero] * n
    for c, b in zip(coeffs, basis):
        for j, x in enumerate(b):
            out[j] = out[j] + c * x
    return out


def assert_canonical(mat):
    """The stored form: per column, rows strictly increasing, no zero entry."""
    for col in mat:
        assert canonical(col), col


def coords_or_none(vec):
    return None if vec is None else sparse(vec)


@SETTINGS
@given(st.data())
def test_coords_recovers_coefficients(data):
    field, n, basis = data.draw(span_case())
    coeffs = data.draw(vectors(field, len(basis)))
    got = Span(sparse_all(basis), n, field).coords(sparse(combination(field, n, basis, coeffs)))
    assert_canonical([got])
    assert got == sparse(coeffs)


@SETTINGS
@given(st.data())
def test_coords_outside_span_is_none(data):
    field, n, basis = data.draw(span_case(spare=1))
    coeffs = data.draw(vectors(field, len(basis)))
    rb = RowBasis(field)
    for b in basis:
        rb.add(sparse(b))
    # a coordinate vector outside the span exists because len(basis) < n
    outside = next(e for e in ([field.one if i == j else field.zero for i in range(n)]
                               for j in range(n)) if not rb.contains(sparse(e)))
    scale = data.draw(elems(field))
    assume(scale)
    vec = combination(field, n, basis + [outside], coeffs + [scale])
    assert Span(sparse_all(basis), n, field).coords(sparse(vec)) is None


@SETTINGS
@given(st.data())
def test_dependent_inputs_raise(data):
    field, n, basis = data.draw(span_case())
    coeffs = data.draw(vectors(field, len(basis)))
    at = data.draw(st.integers(0, len(basis)))
    dependent = basis[:at] + [combination(field, n, basis, coeffs)] + basis[at:]
    with pytest.raises(ValueError):
        Span(sparse_all(dependent), n, field)


@pytest.mark.parametrize("ell", sorted(FIELDS))
def test_empty_span(ell):
    field = FIELDS[ell]
    span = Span([], 2, field)
    assert span.coords([]) == []
    assert span.coords(sparse([field.zero, field.zero])) == []
    assert span.coords([(1, field.one)]) is None


@pytest.mark.parametrize("ell", sorted(FIELDS))
def test_inverse_rejects_non_square(ell):
    field = FIELDS[ell]
    one = field.one
    # [[1], [1]] once came back with an "inverse": its pivots fill [0, n)
    assert inverse(columns([[one], [one]]), 2, field) is None
    assert inverse(columns([[one, one]]), 1, field) is None
    # a square block on top of zero rows is still not square
    assert inverse(columns([[one], [field.zero]]), 2, field) is None
    assert inverse(columns([[one, field.zero], [one, one]]), 2, field) is not None


@SETTINGS
@given(st.data())
def test_coords_match_rref_solve_on_nullspace_basis(data):
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 5))
    A = [data.draw(vectors(field, n)) for _ in range(m)]
    basis = dense_basis(field, A)[0].null_basis(n)
    null = sparse_nullspace(sparse_all(A), n, field)
    assert null == sparse_all(basis)
    span = Span(null, n, field)
    coeffs = data.draw(vectors(field, len(basis)))
    inside = combination(field, n, basis, coeffs)
    assert span.coords(sparse(inside)) == sparse(dense_coords(basis, inside, field)) == sparse(coeffs)
    anything = data.draw(vectors(field, n))
    assert span.coords(sparse(anything)) == coords_or_none(dense_coords(basis, anything, field))


# ---------------------------------------------------------------------------
# intertwiner_space against the dense Kronecker system, over Q(zeta_8)
# ---------------------------------------------------------------------------

ZETA8 = FIELDS[4]


@st.composite
def sparse_square(draw, field, n):
    """An n x n matrix with about two thirds of its entries zero."""
    return [[draw(elems(field)) if draw(st.integers(0, 2)) == 0 else field.zero
             for _ in range(n)] for _ in range(n)]


@st.composite
def intertwiner_case(draw):
    field = ZETA8
    ns, nt = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        S = draw(sparse_square(field, ns))
        # equal generators on both sides make the identity an intertwiner
        T = S if ns == nt and draw(st.booleans()) else draw(sparse_square(field, nt))
        pairs.append((S, T))
    blocks = None, None
    if draw(st.booleans()):
        blocks = (draw(st.lists(st.integers(0, 1), min_size=ns, max_size=ns)),
                  draw(st.lists(st.integers(0, 1), min_size=nt, max_size=nt)))
    return field, ns, nt, pairs, blocks


@SETTINGS
@given(intertwiner_case())
def test_intertwiner_space_matches_kronecker_nullity(case):
    field, ns, nt, pairs, (src_blocks, tgt_blocks) = case
    zero, one = field.zero, field.one
    homs = intertwiner_space([columns(S) for S, _ in pairs], [columns(T) for _, T in pairs],
                             ns, nt, field, src_blocks=src_blocks, tgt_blocks=tgt_blocks)
    allowed = [t * ns + s for t in range(nt) for s in range(ns)
               if src_blocks is None or src_blocks[s] == tgt_blocks[t]]
    dense_homs = []
    for X in homs:
        assert_canonical(X)
        assert len(X) == ns and all(t < nt for col in X for t, _ in col)
        X = rows(X, nt, zero)
        dense_homs.append(X)
        for S, T in pairs:
            assert naive_mul(X, S, zero) == naive_mul(T, X, zero)
        flat = [x for row in X for x in row]
        assert not any(flat[i] for i in range(nt * ns) if i not in allowed)
    assert rank([sparse([x for row in X for x in row]) for X in dense_homs], field) == len(homs)
    # vec(X S - T X) = (kron(I, S^T) - kron(T, I)) vec(X), X flattened row-major
    system = []
    for S, T in pairs:
        K = naive_sub(naive_kron(dense_identity(nt, one, zero), [list(c) for c in zip(*S)]),
                      naive_kron(T, dense_identity(ns, one, zero)))
        system.extend([row[i] for i in allowed] for row in K)
    assert len(homs) == len(allowed) - rank(sparse_all(system), field)


# ---------------------------------------------------------------------------
# the sparse-column kernels against naive all-entries references on dense
# rows, over Q(zeta_8) and over the Laurent ring
# ---------------------------------------------------------------------------

LAURENT = QParams(4).vring


@st.composite
def laurents(draw):
    """A Laurent polynomial with integer coefficients, zero (the shared
    ``ring.zero`` or a fresh zero) a third of the time."""
    ring = LAURENT
    pick = draw(st.integers(0, 5))
    if pick == 0:
        return ring.zero
    if pick == 1:
        return LaurentPoly(ring, {})
    exps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    return ring.from_int_dict({e: draw(st.integers(-3, 3)) for e in exps})


@st.composite
def scalar_kind(draw):
    """(scalar strategy, zero, one): Q(zeta_8) or its Laurent ring."""
    if draw(st.booleans()):
        return elems(ZETA8), ZETA8.zero, ZETA8.one
    return laurents(), LAURENT.zero, LAURENT.one


@st.composite
def matrices(draw, entries, zero, m, n):
    """An m x n matrix; some rows and some columns are zero throughout."""
    zero_rows = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    zero_cols = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [[zero if zero_rows[i] or zero_cols[j] else draw(entries)
             for j in range(n)] for i in range(m)]


def naive_mul(A, B, zero):
    out = [[zero] * len(B[0]) for _ in A]
    for i, row in enumerate(A):
        for j in range(len(B[0])):
            for t, a in enumerate(row):
                out[i][j] = out[i][j] + a * B[t][j]
    return out


def naive_kron(A, B):
    mb, nb = len(B), len(B[0])
    return [[A[r // mb][c // nb] * B[r % mb][c % nb]
             for c in range(len(A[0]) * nb)] for r in range(len(A) * mb)]


def naive_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def dense_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


@SETTINGS
@given(st.data())
def test_mat_mul_matches_naive(data):
    entries, zero, _ = data.draw(scalar_kind())
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = data.draw(matrices(entries, zero, n, k))
    B = data.draw(matrices(entries, zero, k, m))
    product = mat_mul(columns(A), columns(B))
    assert_canonical(product)
    assert mat_eq(product, columns(naive_mul(A, B, zero)))
    # A - A cancels entry by entry: the product with it has no entries
    assert mat_is_zero(mat_mul(mat_sub(columns(A), columns(A)), columns(B)))


@SETTINGS
@given(st.data())
def test_kron_matches_naive(data):
    # A rectangular, B square: kron reads the row count of B from its columns
    entries, zero, _ = data.draw(scalar_kind())
    ma, na, nb = (data.draw(st.integers(1, 3)) for _ in range(3))
    A = data.draw(matrices(entries, zero, ma, na))
    B = data.draw(matrices(entries, zero, nb, nb))
    K = kron(columns(A), columns(B))
    assert_canonical(K)
    assert mat_eq(K, columns(naive_kron(A, B)))


@pytest.mark.parametrize("ell", sorted(FIELDS))
def test_kron_of_full_matrices(ell):
    # every column of both factors has several entries, so the rows of a
    # column of the product come from several rows of each factor
    f = FIELDS[ell]
    A = [[f.from_int(r + c + 1) for c in range(2)] for r in range(3)]
    B = [[f.from_int(2 * r - c + 3) for c in range(2)] for r in range(2)]
    K = kron(columns(A), columns(B))
    assert_canonical(K)
    assert mat_eq(K, columns(naive_kron(A, B)))


@SETTINGS
@given(st.data())
def test_entrywise_helpers_match_naive(data):
    entries, zero, _ = data.draw(scalar_kind())
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A = data.draw(matrices(entries, zero, m, n))
    B = data.draw(matrices(entries, zero, m, n))
    s = data.draw(entries)
    ca, cb = columns(A), columns(B)
    outputs = {
        "sub": (mat_sub(ca, cb), naive_sub(A, B)),
        "sum": (mat_sum(ca, cb), [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]),
        "scale": (mat_scale(ca, s), [[s * a for a in row] for row in A]),
        "cancel": (mat_sub(ca, ca), [[zero] * n for _ in range(m)]),
        "zero-scale": (mat_scale(ca, zero), [[zero] * n for _ in range(m)]),
    }
    for name, (got, expected) in outputs.items():
        assert_canonical(got)
        assert mat_eq(got, columns(expected)), name
    assert mat_is_zero(mat_sub(ca, ca)) and mat_is_zero(mat_scale(ca, zero))
    assert mat_is_zero(ca) == (not any(a for row in A for a in row))
    # mat_eq is list equality, exact on canonical columns: zeros, shared or
    # fresh, match each other
    assert mat_eq(ca, cb) == all((not a and not b) or (a and b and a == b)
                                 for ra, rb in zip(A, B) for a, b in zip(ra, rb))


@SETTINGS
@given(st.data())
def test_mat_pow_matches_naive(data):
    entries, zero, one = data.draw(scalar_kind())
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    A = data.draw(matrices(entries, zero, n, n))
    expected = dense_identity(n, one, zero)
    for _ in range(k):
        expected = naive_mul(expected, A, zero)
    cols = columns(A)
    power = mat_pow(cols, k, one)
    assert_canonical(power)
    assert mat_eq(power, columns(expected))
    assert power is not cols
    assert mat_eq(identity(n, one), columns(dense_identity(n, one, zero)))


@SETTINGS
@given(st.data())
def test_transpose_and_block_diag_match_naive(data):
    entries, zero, _ = data.draw(scalar_kind())
    m, n, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = data.draw(matrices(entries, zero, m, n))
    At = transpose(columns(A), m)
    assert_canonical(At)
    assert mat_eq(At, columns([list(c) for c in zip(*A)]))
    S = data.draw(matrices(entries, zero, n, n))
    T = data.draw(matrices(entries, zero, k, k))
    D = block_diag(columns(S), columns(T))
    assert_canonical(D)
    assert mat_eq(D, columns([row + [zero] * k for row in S] + [[zero] * n + row for row in T]))


@SETTINGS
@given(st.data())
def test_combine_matches_naive(data):
    entries, zero, _ = data.draw(scalar_kind())
    n = data.draw(st.integers(1, 4))
    mats = [data.draw(matrices(entries, zero, n, n)) for _ in range(data.draw(st.integers(1, 3)))]
    terms = [(data.draw(st.integers(0, len(mats) - 1)), data.draw(entries))
             for _ in range(data.draw(st.integers(0, 4)))]
    # a term and its negative: every entry it adds cancels
    if terms:
        terms.append((terms[0][0], -terms[0][1]))
    expected = [[zero] * n for _ in range(n)]
    for k, c in terms:
        expected = [[x + c * a for x, a in zip(re, rm)] for re, rm in zip(expected, mats[k])]
    got = combine(terms, [columns(M) for M in mats])
    assert_canonical(got)
    assert mat_eq(got, columns(expected))


def test_pairing_kernels_refuse_unequal_lengths():
    # a bare zip pairs the common prefix and drops the rest: mat_sum would
    # return one column, and intertwines would never look at the second
    # source generator
    f = FIELDS[4]
    two, one = [[(0, f.one)], [(1, f.one)]], [[(0, f.one)]]
    ident = identity(2, f.one)
    calls = [lambda: mat_sum(two, one), lambda: mat_sub(one, two),
             lambda: combine([(0, f.one), (1, f.one)], [two, one]),
             lambda: intertwines(ident, [ident, two], [ident]),
             lambda: intertwiner_space([ident, two], [ident], 2, 2, f)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@SETTINGS
@given(st.data())
def test_specialize_matches_eval_zeta(data):
    ring = LAURENT
    n = data.draw(st.integers(1, 3))
    fams = [[[data.draw(matrices(laurents(), ring.zero, n, n))
              for _ in range(data.draw(st.integers(1, 3)))]
             for _ in range(data.draw(st.integers(1, 2)))] for _ in range(2)]
    out = _specialize(GenSet(*[[[columns(M) for M in fam] for fam in fams_i]
                               for fams_i in fams]))
    for fam_in, fam_out in zip(fams, (out.efam, out.ffam)):
        assert len(fam_in) == len(fam_out)
        for mats_in, mats_out in zip(fam_in, fam_out):
            assert len(mats_in) == len(mats_out)
            for M, Z in zip(mats_in, mats_out):
                # entries that vanish at zeta leave the columns
                assert_canonical(Z)
                assert mat_eq(Z, columns([[p.eval_zeta() for p in row] for row in M]))


# ---------------------------------------------------------------------------
# restrict, Quotient.induced and intertwines, against dense matrix oracles
# ---------------------------------------------------------------------------

@st.composite
def spun_case(draw):
    """(field, dense generators, the sorted rows of the spin of some seeds)."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 4))
    gens = [draw(sparse_square(field, n)) for _ in range(draw(st.integers(1, 2)))]
    seeds = [draw(vectors(field, n)) for _ in range(draw(st.integers(1, 2)))]
    basis = spin([columns(g) for g in gens], sparse_all(seeds), field).sorted_rows()
    assume(basis)
    return field, gens, basis


@SETTINGS
@given(spun_case())
def test_restrict_matches_matrix_oracle(case):
    # the spin is stable, so every generator restricts: g B^T = B^T Y
    field, gens, basis = case
    Bt = rows(basis, len(gens[0]), field.zero)
    ys = restrict([columns(g) for g in gens], basis, field)
    assert ys is not None and len(ys) == len(gens)
    for g, Y in zip(gens, ys):
        assert len(Y) == len(basis)
        assert_canonical(Y)
        Y = rows(Y, len(basis), field.zero)
        assert naive_mul(g, Bt, field.zero) == naive_mul(Bt, Y, field.zero)


@SETTINGS
@given(spun_case())
def test_quotient_induced_matches_matrix_oracle(case):
    # g e_f - sum_r Y[r][j] e_{free r} lies in the subspace, for f = free[j]
    field, gens, basis = case
    n = len(gens[0])
    quot = Quotient(basis, n, field)
    for g in gens:
        Y = quot.induced(columns(g))
        assert Y is not None and len(Y) == len(quot.free)
        assert_canonical(Y)
        Y = rows(Y, len(quot.free), field.zero)
        for j, fcol in enumerate(quot.free):
            diff = [g[r][fcol] for r in range(n)]
            for r, frow in enumerate(quot.free):
                diff[frow] = diff[frow] - Y[r][j]
            assert rank(basis + [sparse(diff)], field) == len(basis)


def _shift(field, n):
    """e_c -> e_{c+1}, e_{n-1} -> 0: no coordinate line but the last is stable."""
    return [[field.one if r == c + 1 else field.zero for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("ell", sorted(FIELDS))
def test_restrict_rejects_unstable_span(ell):
    field = FIELDS[ell]
    first = sparse([field.one, field.zero, field.zero])
    cols = [identity(3, field.one), columns(_shift(field, 3))]
    assert restrict(cols[:1], [first], field) == [[[(0, field.one)]]]
    assert restrict(cols, [first], field) is None


@pytest.mark.parametrize("ell", sorted(FIELDS))
def test_quotient_induced_rejects_unstable_subspace(ell):
    field = FIELDS[ell]
    shift = columns(_shift(field, 3))
    # the last coordinate line is stable under the shift, the first is not
    stable = Quotient([sparse([field.zero, field.zero, field.one])], 3, field)
    assert mat_eq(stable.induced(shift),
                  columns([[field.zero, field.zero], [field.one, field.zero]]))
    assert Quotient([sparse([field.one, field.zero, field.zero])], 3, field).induced(shift) is None


@SETTINGS
@given(intertwiner_case())
def test_intertwines_matches_intertwiner_space(case):
    # every basis element of the intertwiner space intertwines; with X[0][0]
    # raised by one, X S - T X changes by E_00 S - T E_00, which is zero
    # exactly when S[0][s] = 0 for s > 0, T[t][0] = 0 for t > 0 and
    # S[0][0] = T[0][0]
    field, ns, nt, pairs, _ = case
    src, tgt = [columns(S) for S, _ in pairs], [columns(T) for _, T in pairs]
    moved = any(any(S[0][1:]) or any(row[0] for row in T[1:]) or S[0][0] != T[0][0]
                for S, T in pairs)
    for X in intertwiner_space(src, tgt, ns, nt, field):
        assert intertwines(X, src, tgt)
        bad = rows(X, nt, field.zero)
        bad[0][0] = bad[0][0] + field.one
        assert intertwines(columns(bad), src, tgt) == (not moved)


@SETTINGS
@given(st.data())
def test_inverse_matches_naive(data):
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    n = data.draw(st.integers(1, 4))
    A = data.draw(sparse_square(field, n))
    inv = inverse(columns(A), n, field)
    if inv is None:
        assert rank(sparse_all(A), field) < n
    else:
        assert_canonical(inv)
        ident = dense_identity(n, field.one, field.zero)
        assert naive_mul(A, rows(inv, n, field.zero), field.zero) == ident
    # with a zero row below, A is not square
    assert inverse(columns(A + [[field.zero] * n]), n + 1, field) is None


def test_block_diag():
    f = ZETA8
    a = [[f.one, f.from_int(2)], [f.zero, f.from_int(3)]]
    b = [[f.from_int(5)]]
    assert mat_eq(block_diag(columns(a), columns(b)),
                  columns([[f.one, f.from_int(2), f.zero], [f.zero, f.from_int(3), f.zero],
                           [f.zero, f.zero, f.from_int(5)]]))


# ---------------------------------------------------------------------------
# the sparse-row RowBasis against the dense one it replaced, over Q(zeta_8)
# and Q(zeta_12)
# ---------------------------------------------------------------------------

# back-substitution faults show only on some inputs: draw more of them
ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


def dense_induced(field, vectors, n, gen):
    """The reference for ``Quotient.induced``: None unless gen maps the span
    into itself, otherwise the columns, dense, column j the projection of
    gen e_{free j}."""
    sub, _ = dense_basis(field, vectors)
    for row in sub.rows:
        img = [sum((gen[r][c] * row[c] for c in range(n)), field.zero) for r in range(n)]
        if not sub.contains(img):
            return None
    return [sub.project([gen[r][j] for r in range(n)], n) for j in sub.free(n)]


@st.composite
def sparse_elems(draw, field):
    """About two thirds zero: the shared field.zero or a fresh zero."""
    pick = draw(st.integers(0, 3))
    if pick == 0:
        return field.zero
    if pick == 1:
        return field.elem([0] * field.degree)
    return draw(elems(field))


@st.composite
def oracle_case(draw):
    """(field, n, vectors): sparse vectors, with all-zero ones and
    combinations of earlier ones among them."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 7))
    vecs = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            vecs.append([field.zero] * n)
        elif kind == 1 and vecs:
            coeffs = [draw(sparse_elems(field)) for _ in vecs]
            vecs.append(combination(field, n, vecs, coeffs))
        else:
            vecs.append([draw(sparse_elems(field)) for _ in range(n)])
    return field, n, vecs


@st.composite
def probes(draw, field, n, vecs):
    """Vectors to test against a span: the inputs, the unit vectors, a
    combination of the inputs and a random sparse vector."""
    coeffs = [draw(sparse_elems(field)) for _ in vecs]
    units = [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]
    return (vecs + units + [combination(field, n, vecs, coeffs)]
            + [[draw(sparse_elems(field)) for _ in range(n)]])


@ORACLE_SETTINGS
@given(st.data())
def test_rowbasis_matches_dense_oracle(data):
    field, n, vecs = data.draw(oracle_case())
    dense, accepted = dense_basis(field, vecs)
    rb = RowBasis(field)
    assert [rb.add(sparse(v)) for v in vecs] == accepted
    assert rb.pivots == dense.pivots and rb.dim == len(dense.rows)
    assert rb.sorted_rows() == sparse_all(dense.sorted_rows())
    for vec in data.draw(probes(field, n, vecs)):
        assert rb.contains(sparse(vec)) == dense.contains(vec)
        assert rb.reduce(sparse(vec)) == {j: a for j, a in enumerate(dense.reduce(vec)) if a}
    copy = rb.copy()
    copy.add(sparse([field.one] * n))
    assert rb.sorted_rows() == sparse_all(dense.sorted_rows())


@ORACLE_SETTINGS
@given(st.data())
def test_span_coords_match_dense_oracle(data):
    field, n, vecs = data.draw(oracle_case())
    _, accepted = dense_basis(field, vecs)
    independent = [v for v, ok in zip(vecs, accepted) if ok]
    span = Span(sparse_all(independent), n, field)
    for vec in data.draw(probes(field, n, vecs)):
        assert span.coords(sparse(vec)) == coords_or_none(dense_coords(independent, vec, field))


@ORACLE_SETTINGS
@given(st.data())
def test_quotient_matches_dense_oracle(data):
    field, n, vecs = data.draw(oracle_case())
    dense, _ = dense_basis(field, vecs)
    quot = Quotient(sparse_all(vecs), n, field)
    assert quot.free == dense.free(n)
    for vec in data.draw(probes(field, n, vecs)):
        got = quot.project(sparse(vec))
        assert_canonical([got])
        assert got == sparse(dense.project(vec, n))
    gens = [data.draw(sparse_square(field, n)) for _ in range(2)]
    # a subspace stable under the generators, spun with the dense basis
    stable = dense_spin(field, gens, vecs)
    for subspace in (vecs, stable.rows):
        for g in gens:
            expected = dense_induced(field, subspace, n, g)
            got = Quotient(sparse_all(subspace), n, field).induced(columns(g))
            if expected is None:
                assert got is None
            else:
                assert_canonical(got)
                assert got == [sparse(col) for col in expected]
    assert all(Quotient(sparse_all(stable.rows), n, field).induced(columns(g)) is not None
               for g in gens)


@ORACLE_SETTINGS
@given(st.data())
def test_nullspaces_match_dense_oracle(data):
    field, n, vecs = data.draw(oracle_case())
    expected = sparse_all(dense_basis(field, vecs)[0].null_basis(n))
    assert sparse_nullspace(sparse_all(vecs), n, field) == expected
    # each equation as (column, coefficient) pairs, one column split in two
    equations = []
    for vec in vecs:
        eq = [(c, a) for c, a in enumerate(vec) if a]
        if eq:
            c, a = eq[0]
            eq = [(c, a - field.one), (c, field.one)] + eq[1:]
        equations.append(eq)
    assert sparse_nullspace(equations, n, field) == expected


@ORACLE_SETTINGS
@given(st.data())
def test_sparse_nullspace_reads_no_equation_past_full_rank(data):
    field, n, vecs = data.draw(oracle_case())
    if data.draw(st.booleans()):
        # reach rank n, then keep the equations coming
        unit = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
        vecs = vecs + unit + vecs
    seen = DenseRowBasis(field)

    def equations():
        for vec in vecs:
            if len(seen.rows) == n:
                raise AssertionError("an equation was read past rank n")
            seen.add(vec)
            yield [(c, a) for c, a in enumerate(vec) if a]

    expected = sparse_all(dense_basis(field, vecs)[0].null_basis(n))
    assert sparse_nullspace(equations(), n, field) == expected


def assert_one_form(got, expected):
    """The vectors a kernel returned are in the one stored form and equal
    the dense oracle's vectors."""
    for vec in got:
        assert canonical(vec), vec
    assert got == sparse_all(expected)


@ORACLE_SETTINGS
@given(st.data())
def test_vector_kernels_return_the_one_form(data):
    field, n, vecs = data.draw(oracle_case())
    dense, accepted = dense_basis(field, vecs)
    independent = [v for v, ok in zip(vecs, accepted) if ok]
    gens = [data.draw(sparse_square(field, n)) for _ in range(2)]
    # each equation with its first column split in two
    equations = []
    for vec in sparse_all(vecs):
        if vec:
            (c, a), rest = vec[0], vec[1:]
            vec = [(c, a - field.one), (c, field.one)] + rest
        equations.append(vec)
    span = Span(sparse_all(independent), n, field)
    quot = Quotient(sparse_all(vecs), n, field)
    probe_vecs = data.draw(probes(field, n, vecs))
    coords = [(span.coords(sparse(v)), dense_coords(independent, v, field)) for v in probe_vecs]
    outputs = [
        (RowBasis(field, sparse_all(vecs)).sorted_rows(), dense.sorted_rows()),
        (sparse_nullspace(equations, n, field), dense.null_basis(n)),
        ([c for c, _ in coords if c is not None], [x for _, x in coords if x is not None]),
        ([quot.project(sparse(v)) for v in probe_vecs], [dense.project(v, n) for v in probe_vecs]),
        (spin([columns(g) for g in gens], sparse_all(vecs), field).sorted_rows(),
         dense_spin(field, gens, vecs).sorted_rows()),
    ]
    assert [c is None for c, _ in coords] == [x is None for _, x in coords]
    for got, expected in outputs:
        assert_one_form(got, expected)
        # negative controls: an unsorted vector and a kept zero entry fail
        for k, vec in enumerate(got):
            if len(vec) > 1:
                with pytest.raises(AssertionError):
                    assert_one_form(got[:k] + [vec[::-1]] + got[k + 1:], expected)
            j = min(set(range(n + 1)) - {i for i, _ in vec})
            padded = sorted(vec + [(j, field.zero)], key=lambda e: e[0])
            with pytest.raises(AssertionError):
                assert_one_form(got[:k] + [padded] + got[k + 1:], expected)
