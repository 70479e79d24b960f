from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sweil.scalars import QI, ZERO, ONE, I
from sweil.liealg import (
    StructureError,
    abelian,
    builtin_sl2_orthonormal,
    dense_rank,
    loop_backend,
)
from sweil.fock import Box, FockVector, GenKey, VACUUM, enumerate_box
from sweil.fieldops import (
    build_differential_d,
    build_s2alpha_family,
    build_sl2_EHF,
    hodge_form,
)
from sweil import cohomology
from sweil.cohomology import (
    GradedPiece,
    Matrix,
    _completing_units,
    adjoint_matrix,
    assemble_matrix,
    cohomology_table,
    exact_rank_kernel,
    gram_matrix,
    harmonic_lefschetz_report,
    hermitian_signature,
    kahler_matrix_checks,
    koszul_single_pair_report,
    piece_basis,
    slice_monomials,
    solve_in_span,
)

SL2 = loop_backend(builtin_sl2_orthonormal())
AB1 = loop_backend(abelian(1, with_form=True))


# -- exact linear algebra ----------------------------------------------


def dense_rank_oracle(mat: Matrix) -> int:
    """Independent naive dense elimination, for cross-checking ranks."""
    return dense_rank(
        [[mat.get(i, j) for j in range(mat.ncols)] for i in range(mat.nrows)]
    )


def mat(rows):
    m = Matrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            m.set(i, j, QI(c) if not isinstance(c, QI) else c)
    return m


def test_matrix_matmul_and_identity():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    ab = a @ b
    assert ab.get(0, 0) == QI(2) and ab.get(0, 1) == ONE
    assert ab.get(1, 0) == QI(4) and ab.get(1, 1) == QI(3)
    ident = Matrix.identity(2)
    assert (a @ ident).cols == a.cols


def test_conj_transpose():
    a = Matrix(2, 1)
    a.set(0, 0, I)
    a.set(1, 0, QI(2))
    at = a.conj_transpose()
    assert at.nrows == 1 and at.ncols == 2
    assert at.get(0, 0) == -I and at.get(0, 1) == QI(2)


def test_rank_kernel_fixture():
    a = mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    rank, kernel = exact_rank_kernel(a)
    assert rank == 2
    assert len(kernel) == 1
    # kernel vector really annihilates the matrix
    (vec,) = kernel
    for i in range(3):
        s = ZERO
        for j, c in vec.items():
            s = s + a.get(i, j) * c
        assert s == ZERO


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_matches_dense_oracle(rows):
    a = mat(rows)
    rank, kernel = exact_rank_kernel(a)
    assert rank == dense_rank_oracle(a)
    assert rank + len(kernel) == a.ncols


def test_solve_in_span():
    basis = mat([[1, 0], [0, 2], [1, 1]])
    sol = solve_in_span(basis, mat([[1, 0], [4, 0], [3, 0]]))
    assert sol == mat([[1, 0], [2, 0]])
    assert solve_in_span(basis, mat([[1, 1], [4, 0], [3, 0]])) is None
    assert solve_in_span(basis, Matrix(3, 0)) == Matrix(2, 0)
    with pytest.raises(StructureError):
        solve_in_span(basis, Matrix(2, 1))


gaussian = st.builds(
    QI,
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.integers(-2, 2),
) | st.sampled_from([ZERO, ONE])


def draw_matrix(data, nrows, ncols):
    rows = data.draw(
        st.lists(
            st.lists(gaussian, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return mat(rows) if ncols else Matrix(nrows, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_in_span_matches_dense_rank(data):
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(0, 4))
    ntargets = data.draw(st.integers(0, 3))
    basis = draw_matrix(data, nrows, ncols)
    if ncols and data.draw(st.booleans()):
        # targets inside the span
        targets = basis @ draw_matrix(data, ncols, ntargets)
    else:
        targets = draw_matrix(data, nrows, ntargets)
    aug = Matrix(nrows, ncols + ntargets, basis.cols + targets.cols)
    sol = solve_in_span(basis, targets)
    if dense_rank_oracle(aug) > dense_rank_oracle(basis):
        assert sol is None
    else:
        assert sol is not None
        assert (sol.nrows, sol.ncols) == (ncols, ntargets)
        assert basis @ sol == targets


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_completing_units_match_greedy_rank(data):
    nrows = data.draw(st.integers(1, 5))
    basis = draw_matrix(data, nrows, data.draw(st.integers(0, 3)))
    free = nrows - dense_rank_oracle(basis)
    count = data.draw(st.integers(0, free))
    # reference: add e_j whenever it raises the rank, as a fresh
    # elimination per candidate
    expect = []
    work = basis
    for j in range(nrows):
        if len(expect) == count:
            break
        trial = Matrix(nrows, work.ncols + 1, work.cols + [{j: ONE}])
        if dense_rank_oracle(trial) > dense_rank_oracle(work):
            expect.append(j)
            work = trial
    assert _completing_units(basis, count) == expect


def test_hermitian_signature_fixtures():
    assert hermitian_signature(mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == (
        1,
        1,
        1,
    )
    # hyperbolic planes have split signature
    assert hermitian_signature(mat([[0, 1], [1, 0]])) == (1, 1, 0)
    h = Matrix(2, 2)
    h.set(0, 1, I)
    h.set(1, 0, -I)
    assert hermitian_signature(h) == (1, 1, 0)


# -- graded pieces ------------------------------------------------------


def test_slice_monomials_finite_and_graded():
    """The Deg_Lambda buckets of one (E, Deg_S) slice partition the box
    monomials of exact energy E and S-degree Deg_S, in enumeration order,
    and every bucket's monomials carry its Deg_Lambda."""
    cases = [(AB1, 2), (SL2, 1)]
    for (backend, emax), relative in product(cases, (True, False)):
        for energy, deg_s in product(range(emax + 1), range(-emax - 2, emax + 1)):
            buckets = slice_monomials(backend, energy, deg_s, relative)
            box = Box(energy, max(0, energy - deg_s), not relative)
            expected = [
                m
                for m in enumerate_box(backend.dim, box)
                if m.degrees()[:2] == (energy, deg_s)
            ]
            assert sum(len(ms) for ms in buckets.values()) == len(expected)
            for deg_l, monos in buckets.items():
                assert monos
                assert all(m.degrees()[:3] == (energy, deg_s, deg_l) for m in monos)
                assert list(monos) == [m for m in expected if m.degrees()[2] == deg_l]
    bucket = slice_monomials(AB1, 2, 0, True)[0]
    assert bucket and all(m.degrees()[3] == m.degrees()[4] for m in bucket)


def test_absolute_table_reaches_every_deg_lambda():
    # at E = 0 the absolute slice is the exterior algebra on the five
    # mode-0 t's, so Deg_Lambda runs down to -5 with binomial dimensions
    rows, _ = cohomology_table(
        loop_backend(abelian(5, with_form=True)), [0], [0], False
    )
    assert [(r.deg_l, r.dim) for r in rows] == [
        (-5, 1), (-4, 5), (-3, 10), (-2, 10), (-1, 5), (0, 1)
    ]


def test_relative_vacuum_piece():
    piece = piece_basis(SL2, 0, 0, 0, True)
    assert piece.dim == 1
    assert piece.vector(0).terms == {VACUUM: ONE}


def test_relative_piece_is_invariant_subspace():
    # single loop-mode gamma states form the adjoint module; it has no
    # invariant vector, so the relative piece at E=1, Deg_S=1 is empty
    piece = piece_basis(SL2, 1, 1, 0, True)
    assert len(piece.ambient) == 3
    assert piece.dim == 0


def test_abelian_relative_pieces_are_full_slices():
    for deg_l in (-1, 0, 1):
        piece = piece_basis(AB1, 1, 0, deg_l, True)
        assert piece.dim == len(piece.ambient)


# -- cohomology tables --------------------------------------------------


def test_differential_squares_to_zero_on_pieces():
    d = build_differential_d(SL2)
    pieces = {
        deg_l: piece_basis(SL2, 2, 0, deg_l, True) for deg_l in range(-2, 3)
    }
    for deg_l in range(-2, 1):
        a = assemble_matrix(d, pieces[deg_l], pieces[deg_l + 1])
        b = assemble_matrix(d, pieces[deg_l + 1], pieces[deg_l + 2])
        ba = b @ a
        assert all(not col for col in ba.cols)


def test_abelian_relative_cohomology_is_everything():
    # the differential vanishes identically on the relative abelian model
    rows, matrices = cohomology_table(AB1, range(0, 3), range(-2, 3), True)
    assert rows
    for row in rows:
        assert row.coh_dim == row.dim
        assert row.rank_in == 0 and row.rank_out == 0
    for m in matrices:
        assert all(not col for col in m.cols)


def test_sl2_full_table_has_consistent_ranks():
    rows, _ = cohomology_table(SL2, range(0, 2), range(-1, 2), False)
    assert rows
    for row in rows:
        assert 0 <= row.coh_dim <= row.dim
        assert row.rank_in + row.rank_out <= row.dim


def test_koszul_contraction_acyclicity():
    assert koszul_single_pair_report(AB1) == []
    assert koszul_single_pair_report(SL2, max_excitation=3, mode_range=1) == []


def bigraded_slice(backend, energy, deg_s, a, b, ambient=None):
    """Relative piece with fixed fermionic bidegree (a, b); ``ambient`` is
    as for ``piece_basis`` at Deg_Lambda = a - b."""
    piece = piece_basis(backend, energy, deg_s, a - b, True, ambient)
    keep = []
    for j in range(piece.dim):
        v = piece.vector(j)
        ok = True
        for m, _ in v.terms.items():
            _, _, _, am, bm = m.degrees()
            if (am, bm) != (a, b):
                ok = False
                break
        if ok:
            keep.append(j)
    # degree-zero invariance commutes with the bidegree split, so the
    # kernel basis decomposes; verify rather than assume
    split = {}
    for j in range(piece.dim):
        v = piece.vector(j)
        for m, c in v.terms.items():
            _, _, _, am, bm = m.degrees()
            split.setdefault((am, bm), set()).add(j)
    for key, js in split.items():
        for key2, js2 in split.items():
            if key != key2 and js & js2:
                raise StructureError(
                    "invariant basis mixes fermionic bidegrees"
                )
    amb = piece.ambient
    cols = [piece.basis.cols[j] for j in keep]
    basis = Matrix(len(amb), len(cols))
    for j, c in enumerate(cols):
        basis.cols[j] = dict(c)
    out = GradedPiece(backend, energy, deg_s, a - b, True, amb, basis)
    return out


def test_bigraded_slice_refines_piece():
    bucket = slice_monomials(SL2, 2, 0, True)[0]
    piece = piece_basis(SL2, 2, 0, 0, True, bucket)
    # a held bucket gives the piece the standalone call enumerates
    alone = piece_basis(SL2, 2, 0, 0, True)
    assert alone.ambient == piece.ambient and alone.basis == piece.basis
    total = 0
    for a in range(0, 4):
        b = a  # deg_l = 0 means a == b
        sub = bigraded_slice(SL2, 2, 0, a, b, bucket)
        total += sub.dim
    assert total == piece.dim


# -- Gram matrices and adjoints ----------------------------------------


def test_hodge_gram_is_diagonal_positive():
    piece = piece_basis(SL2, 2, 0, 1, True)
    assert piece.dim > 0
    g = gram_matrix(piece, form=hodge_form)
    pos, neg, zero = hermitian_signature(g)
    assert (pos, neg, zero) == (piece.dim, 0, 0)


def test_homotopy_operator_adjoint_identity():
    h0 = build_s2alpha_family(SL2, ZERO, "h", 0)
    p0 = build_s2alpha_family(SL2, ZERO, "p", 0)
    src = piece_basis(SL2, 2, 0, 0, True)
    tgt = piece_basis(SL2, 2, 1, -1, True)
    assert src.dim > 0 and tgt.dim > 0
    a = assemble_matrix(h0, src, tgt)
    g_src = gram_matrix(src, form=hodge_form)
    g_tgt = gram_matrix(tgt, form=hodge_form)
    adj = adjoint_matrix(a, g_src, g_tgt)
    plus_p = assemble_matrix(p0, tgt, src)
    assert not plus_p.is_zero()
    assert adj.cols == plus_p.scale(QI(-1)).cols
    # negative controls: the sign of p0 and the source weights both matter
    assert adj.cols != plus_p.cols
    assert adjoint_matrix(a, g_src.scale(QI(2)), g_tgt).cols != adj.cols


def test_raising_lowering_adjoint_identity():
    EE = build_sl2_EHF(AB1, "EE")
    FF = build_sl2_EHF(AB1, "FF")
    src = piece_basis(AB1, 3, 0, 0, True)
    tgt = piece_basis(AB1, 3, 0, 2, True)
    assert src.dim > 0 and tgt.dim > 0
    a = assemble_matrix(EE, src, tgt)
    adj = adjoint_matrix(
        a, gram_matrix(src, form=hodge_form), gram_matrix(tgt, form=hodge_form)
    )
    assert adj.cols == assemble_matrix(FF, tgt, src).cols


# -- operator package and harmonic report ------------------------------


def test_kahler_package_brackets_abelian():
    checks = kahler_matrix_checks(AB1, emax=2, b0max=1)
    assert checks
    for c in checks:
        assert c.passed, (c.name, c.witness)


def test_central_term_is_required():
    # dropping the central correction in the raising/lowering bracket of
    # the classical package must produce a witness: negative control
    from sweil.cohomology import classical_operator
    from sweil.verify import FastEngine, FastOp, fast_bracket_check, s2a_builder

    engine = FastEngine(relative=True)
    box = Box(emax=1, b0max=1, zero_fermions_allowed=False)
    box_ids = [engine.intern(m) for m in enumerate_box(AB1.dim, box)]
    build = s2a_builder(AB1, ZERO)
    L = FastOp(engine, classical_operator(build, "L"))
    Lam = FastOp(engine, classical_operator(build, "Lam"))
    H = FastOp(engine, classical_operator(build, "H"))
    bad = fast_bracket_check(
        engine, L, Lam, False, [(ONE, H)], None, box_ids
    )
    assert bad is not None
    ok = fast_bracket_check(
        engine, L, Lam, False, [(ONE, H)], QI(Fraction(-1, 2)), box_ids
    )
    assert ok is None


def piece_ranks(rows):
    """The rank columns of cohomology rows: the report's ranks must be
    those of the relative cohomology table."""
    return [(r.key(), r.dim, r.rank_in, r.rank_out, r.coh_dim) for r in rows]


def test_harmonic_lefschetz_report_abelian():
    rows, checks = harmonic_lefschetz_report(AB1, emax=2)
    assert rows and checks
    for c in checks:
        assert c.passed, (c.name, c.witness)
    for row in rows:
        assert row.gram_signature == f"+{row.dim}-0" + "00"
        assert row.harmonic_dim == str(row.coh_dim)
    table, _ = cohomology_table(AB1, range(3), range(-2, 3), True)
    assert piece_ranks(rows) == piece_ranks(table)


def test_harmonic_lefschetz_report_sl2_ranks(monkeypatch):
    # sl2 at E = 2 has nonzero differentials; the package bracket checks
    # are tested on their own and skipped here
    monkeypatch.setattr(
        cohomology, "kahler_matrix_checks", lambda b, emax, **ops: []
    )
    rows, checks = harmonic_lefschetz_report(SL2, emax=2, s_range=1)
    for c in checks:
        assert c.passed, (c.name, c.witness)
    assert any(r.rank_in and r.rank_out for r in rows)
    table, _ = cohomology_table(SL2, range(3), range(-1, 2), True)
    assert piece_ranks(rows) == piece_ranks(table)
