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
    parse_backend,
)
from sweil.fock import Box, FockVector, GenKey, VACUUM, enumerate_box
from sweil.fieldops import (
    FieldOperator,
    build_differential_d,
    build_s2alpha_family,
    build_sl2_EHF,
    hodge_form,
    sl2_triple,
)
from sweil import cohomology, stats
from sweil.cohomology import (
    GradedPiece,
    Matrix,
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

import lefschetz_reference
from lefschetz_reference import _completing_units

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


class AmbientMatrix:
    """The operator with matrix ``mat`` from the ambient ("s", j) of a
    synthetic source piece to the ambient ("t", i) of a target piece."""

    name = "A"

    def __init__(self, mat):
        self.mat = mat

    def apply(self, v, relative=False):
        out = FockVector()
        for (_, j), c in v.terms.items():
            for i, a in self.mat.cols[j].items():
                out.add_term(("t", i), a * c)
        return out


def synthetic_piece(tag, basis):
    ambient = tuple((tag, i) for i in range(basis.nrows))
    return GradedPiece(None, 0, 0, 0, True, ambient, basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_assemble_matrix_matches_solve_in_span(data):
    """On a target basis that is the identity or a kernel basis of
    ``exact_rank_kernel``, assemble_matrix reads the coordinates of every
    image in the span as solve_in_span solves for them, with no solve; a
    seeded image outside the span still raises."""
    n = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        basis = Matrix.identity(n)
    else:
        _, kernel = exact_rank_kernel(
            draw_matrix(data, data.draw(st.integers(1, 3)), n)
        )
        basis = Matrix(n, len(kernel), kernel)
    nsrc = data.draw(st.integers(0, 3))
    coords = Matrix(basis.ncols, nsrc)
    if basis.ncols and nsrc:
        coords = draw_matrix(data, basis.ncols, nsrc)
    images = basis @ coords
    src = synthetic_piece("s", Matrix.identity(nsrc))
    tgt = synthetic_piece("t", basis)
    solves = stats.snapshot()["counts"].get("cohomology.solve_in_span", 0)
    got = assemble_matrix(AmbientMatrix(images), src, tgt)
    assert stats.snapshot()["counts"].get("cohomology.solve_in_span", 0) == solves
    assert got == solve_in_span(basis, images) == coords
    # add a unit vector outside the span to one image
    units = [Matrix(n, 1, [{i: ONE}]) for i in range(n)]
    outside = [i for i, e in enumerate(units) if solve_in_span(basis, e) is None]
    if outside and nsrc:
        i = data.draw(st.sampled_from(outside))
        j = data.draw(st.integers(0, nsrc - 1))
        unit = Matrix(n, nsrc, [{i: ONE} if k == j else {} for k in range(nsrc)])
        seeded = images + unit
        assert solve_in_span(basis, seeded) is None
        with pytest.raises(StructureError, match="image leaves the target basis span"):
            assemble_matrix(AmbientMatrix(seeded), src, tgt)


def test_assemble_matrix_raises_on_a_seeded_image_outside_the_span():
    """The kernel of [1 1] is spanned by (-1, 1), led at row 1; the image
    e_1 has the right entry there, and only the check catches it."""
    _, kernel = exact_rank_kernel(mat([[1, 1]]))
    basis = Matrix(2, 1, kernel)
    assert basis == mat([[-1], [1]])
    src, tgt = synthetic_piece("s", Matrix.identity(1)), synthetic_piece("t", basis)
    with pytest.raises(StructureError, match="A image leaves the target basis span"):
        assemble_matrix(AmbientMatrix(mat([[0], [1]])), src, tgt)
    good = assemble_matrix(AmbientMatrix(mat([[-2], [2]])), src, tgt)
    assert good == mat([[2]])


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


# -- the Lefschetz criterion on cohomology -------------------------------


def report_strips(backend, emax, s_range=2):
    """(complex, E, DegS, Deg_Lambda values) of every sl(2) strip of the
    Kähler report, sharing one complex as the report does."""
    cx = cohomology._Complex(backend, True)
    keys = cx.keys(range(emax + 1), range(-s_range, s_range + 1))
    for energy, deg_s in sorted({(e, s) for e, s, _ in keys}):
        ls = [l for e, s, l in keys if (e, s) == (energy, deg_s)]
        yield cx, energy, deg_s, ls


STRIP_REPORTS = (
    ("loop:abelian:1", 2),
    ("loop:abelian:2", 1),
    ("loop:abelian:2", 2),
    ("loop:sl2", 1),
    ("loop:sl2", 2),
)


@pytest.mark.parametrize("name,emax", STRIP_REPORTS)
def test_lefschetz_strips_match_reference(name, emax):
    backend = parse_backend(name)
    ee = sl2_triple(backend)["EE"]
    for strip in report_strips(backend, emax):
        cx, energy, deg_s, ls = strip
        assert cohomology._lefschetz_strip(
            cx, ee, energy, deg_s, ls
        ) == lefschetz_reference._lefschetz_strip(cx, ee, energy, deg_s, ls)


def seeded_raising(backend, seed):
    """A raising operator in place of EE = sum_a sum_{m>0} i m e_a(-m) e_a(m):
    zero, EE without its m = 1 terms, or EE plus sum_a e_a(-1) e_a(1), an
    e.e term with zero E and DegS shift that does not descend."""
    terms = sl2_triple(backend)["EE"].terms
    if seed == "zero":
        terms = ()
    elif seed == "no-m1":
        terms = tuple(
            t._replace(coeff=lambda vs: I * QI(vs[0]) if vs[0] > 1 else ZERO)
            for t in terms
        )
    else:
        terms += tuple(
            t._replace(coeff=lambda vs: ONE if vs[0] == 1 else ZERO)
            for t in terms
        )
    return FieldOperator(terms, name="EE")


@pytest.mark.parametrize(
    "name,emax,seed,witness",
    (
        ("loop:abelian:1", 2, "zero", "no lowering action"),
        ("loop:sl2", 1, "zero", "no lowering action"),
        ("loop:abelian:1", 2, "no-m1", "no lowering action"),
        ("loop:sl2", 1, "no-m1", "no lowering action"),
        ("loop:sl2", 2, "plus-e-e", "raising operator does not descend"),
    ),
)
def test_seeded_raising_operator_fails_with_reference_witness(
    name, emax, seed, witness, monkeypatch
):
    backend = parse_backend(name)
    triple = sl2_triple(backend)
    triple["EE"] = seeded_raising(backend, seed)
    monkeypatch.setattr(cohomology, "sl2_triple", lambda b: dict(triple))
    monkeypatch.setattr(
        cohomology, "kahler_matrix_checks", lambda b, emax, **ops: []
    )

    def action():
        _, checks = harmonic_lefschetz_report(backend, emax=emax)
        (check,) = [c for c in checks if c.name == "lefschetz:cohomology-action"]
        return check

    got = action()
    monkeypatch.setattr(
        cohomology, "_lefschetz_strip", lefschetz_reference._lefschetz_strip
    )
    assert got == action()
    assert not got.passed and got.witness.startswith(witness)


class SyntheticComplex:
    """A strip given by piece dimensions {Deg_Lambda: dim} and
    differentials {Deg_Lambda: Matrix}, with identity piece bases, standing
    in for the report's complex."""

    def __init__(self, dims, d=None):
        self.dims = dims
        self.d = d or {}

    def piece(self, energy, deg_s, deg_l):
        n = self.dims.get(deg_l, 0)
        ambient = tuple((deg_l, i) for i in range(n))
        return GradedPiece(
            None, energy, deg_s, deg_l, True, ambient, Matrix.identity(n)
        )

    def d_matrix(self, energy, deg_s, deg_l):
        zero = Matrix(self.dims.get(deg_l + 1, 0), self.dims.get(deg_l, 0))
        return self.d.get(deg_l, zero)

    def cocycles(self, energy, deg_s, deg_l):
        _, kernel = exact_rank_kernel(self.d_matrix(energy, deg_s, deg_l))
        return Matrix(self.dims.get(deg_l, 0), len(kernel), kernel)

    def rank(self, energy, deg_s, deg_l):
        return exact_rank_kernel(self.d_matrix(energy, deg_s, deg_l))[0]


class MatrixRaising:
    """The degree-2 operator with matrices {Deg_Lambda: Matrix} on the
    pieces of a SyntheticComplex."""

    name = "E"

    def __init__(self, mats):
        self.mats = mats

    def apply(self, v, relative=False):
        out = FockVector()
        for (deg_l, j), c in v.terms.items():
            mat = self.mats.get(deg_l)
            for i, a in (mat.cols[j] if mat else {}).items():
                out.add_term((deg_l + 2, i), a * c)
        return out


def lowering_solvable(dims, mats) -> bool:
    """Whether some F of degree -2 has [E, F] = H, H acting by Deg_Lambda,
    by dense ranks of the linear system in F's entries."""
    var = {}
    for deg_l, n in dims.items():
        for r in range(dims.get(deg_l - 2, 0)):
            for c in range(n):
                var[(deg_l, r, c)] = len(var)

    def e(deg_l, i, j):
        mat = mats.get(deg_l)
        return mat.get(i, j) if mat else ZERO

    rows = []
    for deg_l, n in dims.items():
        for i in range(n):
            for c in range(n):
                # (E F)_l - (F E)_l = l Id in entry (i, c)
                row = [ZERO] * (len(var) + 1)
                for r in range(dims.get(deg_l - 2, 0)):
                    v = var[(deg_l, r, c)]
                    row[v] = row[v] + e(deg_l - 2, i, r)
                for r in range(dims.get(deg_l + 2, 0)):
                    v = var[(deg_l + 2, i, r)]
                    row[v] = row[v] - e(deg_l, r, c)
                row[-1] = QI(deg_l) if i == c else ZERO
                rows.append(row)
    return dense_rank([row[:-1] for row in rows]) == dense_rank(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lefschetz_criterion_matches_dense_sl2_solvability(data):
    """With d = 0, cohomology is the graded space itself: the criterion
    passes exactly when [E, F] = H has a solution F."""
    half = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    dims = {l: half[abs(l)] for l in range(-3, 4)}
    if data.draw(st.integers(0, 3)) == 0:
        dims[data.draw(st.integers(-3, 3))] = data.draw(st.integers(0, 2))
    dims = {l: n for l, n in dims.items() if n}
    if not dims:
        dims = {0: 1}
    entry = st.sampled_from([ZERO, ONE, -ONE, QI(2), I])
    mats = {}
    for deg_l, n in dims.items():
        m = dims.get(deg_l + 2, 0)
        if m:
            rows = data.draw(
                st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m)
            )
            mats[deg_l] = mat(rows)
    cx = SyntheticComplex(dims)
    args = (cx, MatrixRaising(mats), 0, 0, sorted(dims))
    got = cohomology._lefschetz_strip(*args)
    assert got == lefschetz_reference._lefschetz_strip(*args)
    assert (got is None) == lowering_solvable(dims, mats)
    if got is not None:
        assert got.startswith("no lowering action")


def test_raising_operator_must_map_boundaries_to_boundaries():
    """H^-1 = <p, p'> (y = dx is exact) and H^1 = <q, r>, with E p = q and
    E p' = E y = r.  E maps cocycles to cocycles but the boundary y to the
    class r, so it does not descend.  The representatives that the old
    strip picked, p and p', happened to make E look bijective on
    cohomology; p' - y would not have."""
    dims = {-2: 1, -1: 3, 1: 2}
    d = {-2: mat([[0], [0], [1]])}  # x -> y in the basis (p, p', y)
    raising = MatrixRaising({-1: mat([[1, 0, 0], [0, 1, 1]])})
    args = (SyntheticComplex(dims, d), raising, 0, 0, sorted(dims))
    assert lefschetz_reference._lefschetz_strip(*args) is None
    assert cohomology._lefschetz_strip(*args) == (
        "raising operator does not descend at E=0 DegS=0 DegL=-1"
    )


# -- one graded complex per report ---------------------------------------


def test_table_matrices_follow_rows_for_descending_ranges():
    """Rows come out ascending whatever the order of the ranges, and each
    matrix is the differential out of its own row's piece."""
    rows, matrices = cohomology_table(SL2, range(1, -1, -1), range(1, -2, -1), False)
    want_rows, want_matrices = cohomology_table(SL2, range(2), range(-1, 2), False)
    assert rows == want_rows
    assert matrices == want_matrices
    for row, m in zip(rows, matrices):
        src = piece_basis(SL2, row.energy, row.deg_s, row.deg_l, False)
        assert (m.nrows, m.ncols) == (
            piece_basis(SL2, row.energy, row.deg_s, row.deg_l + 1, False).dim,
            src.dim,
        )


def independent_ranks(backend, row, relative):
    """A row's (dim, rank_in, rank_out) from freshly built pieces and the
    dense-rank oracle, without the report's shared complex."""
    d = build_differential_d(backend)
    pieces = [
        piece_basis(backend, row.energy, row.deg_s, row.deg_l + k, relative)
        for k in (-1, 0, 1)
    ]
    rank_in = dense_rank_oracle(assemble_matrix(d, pieces[0], pieces[1]))
    rank_out = dense_rank_oracle(assemble_matrix(d, pieces[1], pieces[2]))
    return pieces[1].dim, rank_in, rank_out


def assert_independent_ranks(backend, rows, relative):
    assert rows
    for row in rows:
        dim, rank_in, rank_out = independent_ranks(backend, row, relative)
        assert (row.dim, row.rank_in, row.rank_out) == (dim, rank_in, rank_out)
        assert row.coh_dim == dim - rank_in - rank_out


def test_table_ranks_match_independent_oracle():
    rows, _ = cohomology_table(AB1, range(3), range(-2, 3), True)
    assert_independent_ranks(AB1, rows, True)
    rows, _ = cohomology_table(SL2, range(2), range(-1, 2), False)
    assert any(r.rank_in or r.rank_out for r in rows)
    assert_independent_ranks(SL2, rows, False)


def test_report_ranks_match_independent_oracle(monkeypatch):
    monkeypatch.setattr(
        cohomology, "kahler_matrix_checks", lambda b, emax, **ops: []
    )
    rows, _ = harmonic_lefschetz_report(SL2, emax=2, s_range=1)
    assert any(r.rank_in and r.rank_out for r in rows)
    assert_independent_ranks(SL2, rows, True)


def test_each_differential_is_eliminated_once(monkeypatch):
    """Within one report no matrix is eliminated twice and no piece is
    built twice.  The wrappers keep every argument alive, so an object id
    is never reused."""
    eliminated = []
    built = []
    exact_rank_kernel_ = cohomology.exact_rank_kernel
    piece_basis_ = cohomology.piece_basis

    def rank_kernel(mat):
        eliminated.append(mat)
        return exact_rank_kernel_(mat)

    def basis(backend, energy, deg_s, deg_l, relative, ambient=None):
        built.append((energy, deg_s, deg_l, relative))
        return piece_basis_(backend, energy, deg_s, deg_l, relative, ambient)

    monkeypatch.setattr(cohomology, "exact_rank_kernel", rank_kernel)
    monkeypatch.setattr(cohomology, "piece_basis", basis)
    backend = parse_backend("loop:abelian:2")
    reports = (
        lambda: harmonic_lefschetz_report(backend, emax=1),
        lambda: cohomology_table(backend, range(2), range(-3, 2), True),
        lambda: cohomology_table(backend, range(2), range(-3, 2), False),
    )
    for report in reports:
        eliminated.clear()
        built.clear()
        report()
        assert eliminated and built
        assert len({id(m) for m in eliminated}) == len(eliminated)
        assert len(set(built)) == len(built)
