"""Exact finite-piece linear algebra: operators as sparse matrices over
the Gaussian rationals, ranks and kernels, graded cohomology tables,
Gram signatures, harmonic spaces, the Lefschetz sl(2) reports, and the
single-pair Koszul acyclicity check."""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from .scalars import QI, ZERO, ONE
from .liealg import GradedBackend, StructureError
from .fock import (
    Box,
    FockVector,
    GenKey,
    VACUUM,
    enumerate_box,
    format_monomial,
)
from .fieldops import (
    Operator,
    build_differential_d,
    build_koszul_h,
    build_theta_adjoint,
    hermitian_form,
    hodge_form,
    sl2_triple,
)

# -- exact sparse matrices ---------------------------------------------


class Matrix:
    """Column-sparse exact matrix: cols[j] is a dict row -> QI."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = [dict(c) for c in cols] if cols else [
            {} for _ in range(ncols)
        ]

    def set(self, i, j, c):
        c = QI.of(c)
        if c.is_zero():
            self.cols[j].pop(i, None)
        else:
            self.cols[j][i] = c

    def get(self, i, j) -> QI:
        return self.cols[j].get(i, ZERO)

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise StructureError("matrix shape mismatch")
        out = Matrix(self.nrows, other.ncols)
        for j, col in enumerate(other.cols):
            acc = {}
            for k, c in col.items():
                for i, a in self.cols[k].items():
                    cur = acc.get(i, ZERO) + a * c
                    if cur.is_zero():
                        acc.pop(i, None)
                    else:
                        acc[i] = cur
            out.cols[j] = acc
        return out

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise StructureError("matrix shape mismatch")
        out = Matrix(self.nrows, self.ncols, self.cols)
        for j, col in enumerate(other.cols):
            for i, c in col.items():
                cur = out.cols[j].get(i, ZERO) + c
                if cur.is_zero():
                    out.cols[j].pop(i, None)
                else:
                    out.cols[j][i] = cur
        return out

    def scale(self, c) -> "Matrix":
        c = QI.of(c)
        out = Matrix(self.nrows, self.ncols)
        if not c.is_zero():
            for j, col in enumerate(self.cols):
                out.cols[j] = {i: a * c for i, a in col.items()}
        return out

    def conj_transpose(self) -> "Matrix":
        out = Matrix(self.ncols, self.nrows)
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                out.cols[i][j] = c.conj()
        return out

    def apply_coords(self, vec: dict) -> dict:
        acc = {}
        for j, c in vec.items():
            for i, a in self.cols[j].items():
                cur = acc.get(i, ZERO) + a * c
                if cur.is_zero():
                    acc.pop(i, None)
                else:
                    acc[i] = cur
        return acc

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix(n, n)
        for i in range(n):
            m.cols[i][i] = ONE
        return m


def _sub_scaled(acc: dict, f: QI, col: dict):
    """acc -= f * col in place, dropping zero entries."""
    for i, c in col.items():
        cur = acc.get(i, ZERO) - f * c
        if cur.is_zero():
            acc.pop(i, None)
        else:
            acc[i] = cur


def _eliminate(cols):
    """Exact Gaussian elimination of ``cols`` in order, with deterministic
    pivoting (lowest row index first).  Yields, for each column j, None
    when it is independent of the columns before it, else the vanishing
    combination of columns (coefficient 1 at j) that it reduced to."""
    reduced = []
    combo = []
    pivots = {}  # row -> column
    for j, c in enumerate(cols):
        col = dict(c)
        cmb = {j: ONE}
        while col:
            r = min(col)
            p = pivots.get(r)
            if p is None:
                break
            f = col[r] / reduced[p][r]
            _sub_scaled(col, f, reduced[p])
            _sub_scaled(cmb, f, combo[p])
        reduced.append(col)
        combo.append(cmb)
        if col:
            pivots[min(col)] = j
        yield None if col else cmb


def exact_rank_kernel(mat: Matrix):
    """(rank, kernel basis) by exact Gaussian elimination with
    deterministic pivoting (lowest row index first)."""
    kernel = [cmb for cmb in _eliminate(mat.cols) if cmb is not None]
    return mat.ncols - len(kernel), kernel


def solve_in_span(basis: Matrix, targets: Matrix) -> Optional[Matrix]:
    """X with basis @ X == targets, or None when some target column lies
    outside the span of the basis columns.  One elimination runs over the
    basis columns and then the targets, so each target is reduced against
    the basis pivots only; each column of X is supported on those pivot
    columns, so X is the unique solution when the basis is independent."""
    if targets.nrows != basis.nrows:
        raise StructureError("matrix shape mismatch")
    n = basis.ncols
    out = Matrix(n, targets.ncols)
    for j, cmb in enumerate(_eliminate(basis.cols + targets.cols)):
        if j >= n:
            if cmb is None:
                return None
            out.cols[j - n] = {k: -c for k, c in cmb.items() if k != j}
    return out


def hermitian_signature(gram: Matrix):
    """(positives, negatives, zeros) of a Hermitian matrix by exact
    congruence diagonalization."""
    n = gram.ncols
    g = [[gram.get(i, j) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        # find a nonzero diagonal pivot
        pivot = None
        for i in idx:
            if not g[i][i].is_zero():
                pivot = i
                break
        if pivot is None:
            # find a hyperbolic off-diagonal pair
            pair = None
            for a in idx:
                for b in idx:
                    if a < b and not g[a][b].is_zero():
                        pair = (a, b)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(idx)
                break
            a, b = pair
            # replace row/col a by a + b (its self-pairing is nonzero when
            # g[a][b] has nonzero real part, else use a + i b)
            c = g[a][b]
            factor = ONE if not (c + c.conj()).is_zero() else QI(0, 1)
            for k in range(n):
                g[a][k] = g[a][k] + factor.conj() * g[b][k]
            for k in range(n):
                g[k][a] = g[k][a] + g[k][b] * factor
            continue
        i = pivot
        d = g[i][i]
        if d.im != 0:
            raise StructureError("Gram diagonal must be real")
        if d.re > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(i)
        for a in idx:
            if g[a][i].is_zero():
                continue
            f = g[a][i] / d
            for k in range(n):
                g[a][k] = g[a][k] - f * g[i][k]
            for k in range(n):
                g[k][a] = g[k][a] - g[k][i] * f.conj()
    return pos, neg, zero


# -- graded pieces -----------------------------------------------------


class GradedPiece(NamedTuple):
    backend: GradedBackend
    energy: int
    deg_s: int
    deg_l: int
    relative: bool
    ambient: tuple  # monomials spanning the raw graded slice
    basis: "Matrix"  # columns = basis vectors in ambient coordinates

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def vector(self, j: int) -> FockVector:
        v = FockVector()
        for i, c in self.basis.cols[j].items():
            v.add_term(self.ambient[i], c)
        return v


def _box_monomials(backend, box: Box, boxes=None):
    """``enumerate_box`` on the backend's dimension.  ``boxes`` is a memo
    from Box to its monomials that the calls of one report on one backend
    share, so each distinct box is enumerated once per report."""
    if boxes is None:
        return enumerate_box(backend.dim, box)
    hit = boxes.get(box)
    if hit is None:
        hit = boxes[box] = enumerate_box(backend.dim, box)
    return hit


def slice_monomials(backend, energy, deg_s, relative, boxes=None):
    """The monomials at exact energy and S-degree, bucketed by Deg_Lambda
    as {deg_l: monomials}; mode-0 fermions are excluded on the relative
    model. Finite because mode-0 boson count is bounded by the energy
    minus the S-degree.  ``boxes`` is the report's ``_box_monomials`` memo."""
    box = Box(
        emax=energy,
        b0max=max(0, energy - deg_s),
        zero_fermions_allowed=not relative,
    )
    buckets = {}
    for m in _box_monomials(backend, box, boxes):
        e, ds, dl, _, _ = m.degrees()
        if e == energy and ds == deg_s:
            buckets.setdefault(dl, []).append(m)
    return {dl: tuple(ms) for dl, ms in buckets.items()}


def _theta_zero_ops(backend):
    return [build_theta_adjoint(backend, j, 0) for j in range(backend.dim)]


def piece_basis(
    backend, energy, deg_s, deg_l, relative, ambient=None
) -> GradedPiece:
    """The graded slice as a piece; on the relative model the basis is the
    joint kernel of the degree-zero adjoint action.  ``ambient`` is the
    Deg_Lambda bucket of ``slice_monomials`` when the caller already holds
    it; otherwise the slice is enumerated here."""
    if ambient is None:
        ambient = slice_monomials(backend, energy, deg_s, relative).get(deg_l, ())
    n = len(ambient)
    if not relative:
        return GradedPiece(
            backend, energy, deg_s, deg_l, False, ambient, Matrix.identity(n)
        )
    index = {m: i for i, m in enumerate(ambient)}
    thetas = _theta_zero_ops(backend)
    stacked = Matrix(len(thetas) * n, n)
    for j, m in enumerate(ambient):
        for t, op in enumerate(thetas):
            out = op.apply(FockVector.of(m), relative=True)
            for m2, c in out.terms.items():
                i = index.get(m2)
                if i is None:
                    raise StructureError(
                        "degree-zero action left the graded slice"
                    )
                stacked.set(t * n + i, j, c)
    _, kernel = exact_rank_kernel(stacked)
    basis = Matrix(n, len(kernel))
    for j, vec in enumerate(kernel):
        basis.cols[j] = dict(vec)
    return GradedPiece(backend, energy, deg_s, deg_l, True, ambient, basis)


def assemble_matrix(op: Operator, src: GradedPiece, tgt: GradedPiece) -> Matrix:
    """Matrix of op from src basis to tgt basis; exact; error when an
    image falls outside the target span."""
    index = {m: i for i, m in enumerate(tgt.ambient)}
    images = Matrix(len(tgt.ambient), src.dim)
    for j in range(src.dim):
        img = op.apply(src.vector(j), relative=src.relative)
        for m, c in img.terms.items():
            i = index.get(m)
            if i is None:
                raise StructureError(
                    f"{op.name or 'operator'} image leaves the target slice"
                )
            images.cols[j][i] = c
    out = solve_in_span(tgt.basis, images)
    if out is None:
        raise StructureError(
            f"{op.name or 'operator'} image leaves the target basis span"
        )
    return out


def gram_matrix(piece: GradedPiece, form=hermitian_form) -> Matrix:
    g = Matrix(piece.dim, piece.dim)
    vecs = [piece.vector(j) for j in range(piece.dim)]
    for i in range(piece.dim):
        for j in range(piece.dim):
            g.set(i, j, form(vecs[i], vecs[j]))
    return g


def adjoint_matrix(a: Matrix, gram_src: Matrix, gram_tgt: Matrix) -> Matrix:
    """The form-adjoint A* with {A v, w} = {v, A* w}: solves
    G_src A* = A^H G_tgt; error when A^H G_tgt leaves the span of G_src."""
    out = solve_in_span(gram_src, a.conj_transpose() @ gram_tgt)
    if out is None:
        raise StructureError("degenerate Gram form: no adjoint")
    return out


# -- cohomology tables -------------------------------------------------


class PieceRow(NamedTuple):
    energy: int
    deg_s: int
    deg_l: int
    dim: int
    rank_in: int
    rank_out: int
    coh_dim: int
    gram_signature: str = ""
    harmonic_dim: str = ""

    def key(self):
        return (self.energy, self.deg_s, self.deg_l)


def cohomology_table(backend, energies, deg_s_values, relative):
    """Rows per (E, Deg_S, Deg_Lambda): the differential preserves E and
    Deg_S and raises Deg_Lambda, so each (E, Deg_S) slice is a finite
    complex over Deg_Lambda."""
    d = build_differential_d(backend)
    rows = []
    matrices = []
    boxes = {}
    for energy in energies:
        for deg_s in deg_s_values:
            ls = slice_monomials(backend, energy, deg_s, relative, boxes)
            if not ls:
                continue
            lo, hi = min(ls), max(ls)
            pieces = {}
            for deg_l in range(lo, hi + 2):
                pieces[deg_l] = piece_basis(
                    backend, energy, deg_s, deg_l, relative, ls.get(deg_l, ())
                )
            mats = {}
            for deg_l in range(lo, hi + 1):
                mats[deg_l] = assemble_matrix(
                    d, pieces[deg_l], pieces[deg_l + 1]
                )
            ranks = {
                deg_l: exact_rank_kernel(m)[0] for deg_l, m in mats.items()
            }
            for deg_l in range(lo, hi + 1):
                piece = pieces[deg_l]
                if piece.dim == 0:
                    continue
                rank_out = ranks.get(deg_l, 0)
                rank_in = ranks.get(deg_l - 1, 0)
                rows.append(
                    PieceRow(
                        energy,
                        deg_s,
                        deg_l,
                        piece.dim,
                        rank_in,
                        rank_out,
                        piece.dim - rank_in - rank_out,
                    )
                )
                matrices.append(mats[deg_l])
    rows.sort(key=PieceRow.key)
    return rows, matrices


# -- Koszul acyclicity -------------------------------------------------


def koszul_single_pair_report(backend, max_excitation=4, mode_range=2):
    """H of the contraction differential on each single-(component, mode)
    stable box equals the span of the vacuum."""
    from .fock import make_monomial

    kz = build_koszul_h(backend)
    failures = []
    for comp in range(backend.dim):
        for mode in range(-mode_range, mode_range + 1):
            if mode > 0:
                bos, ferm = GenKey("g", comp, mode), GenKey("e", comp, mode)
            else:
                bos, ferm = GenKey("b", comp, mode), GenKey("t", comp, mode)
            basis = []
            for j in range(max_excitation + 1):
                _, m = make_monomial([bos] * j)
                basis.append(m)
            for j in range(max_excitation):
                _, m = make_monomial([bos] * j + [ferm])
                basis.append(m)
            index = {m: i for i, m in enumerate(basis)}
            mat = Matrix(len(basis), len(basis))
            stable = True
            for j, m in enumerate(basis):
                out = kz.apply(FockVector.of(m))
                for m2, c in out.terms.items():
                    i = index.get(m2)
                    if i is None:
                        failures.append(
                            (comp, mode, "box is not stable", format_monomial(m))
                        )
                        stable = False
                        break
                    mat.set(i, j, c)
                if not stable:
                    break
            if not stable:
                continue
            rank, _ = exact_rank_kernel(mat)
            # the vacuum is closed; homology must be exactly its span
            coh = len(basis) - 2 * rank
            if coh != 1:
                failures.append((comp, mode, "homology dim", coh))
            vac = Matrix(len(basis), 1, [{index[VACUUM]: ONE}])
            if solve_in_span(mat, vac) is not None:
                failures.append((comp, mode, "vacuum is exact", 0))
    return failures


# -- harmonic / Lefschetz report ---------------------------------------


def classical_operator(build, sym) -> Operator:
    """Realization of a classical Kahler-package symbol inside the
    degree-zero part of the alpha = 0 family, whose operators come from
    ``build`` (a ``verify.s2a_builder`` at alpha = 0)."""
    from .fieldops import SumOperator
    from .sca import psi

    parts = [(c, build(s, n)) for (s, n), c in psi(sym).items()]
    return SumOperator(parts, name=f"psi({sym})")


def kahler_matrix_checks(
    backend, emax=2, b0max=2, build=None, triple=None, boxes=None
):
    """All bracket relations of the classical operator package, plus the
    exterior sl(2) triple relations, evaluated exactly on the relative
    quotient box.  The module realization carries the central extension,
    so the raising/lowering bracket acquires the cocycle times the
    central charge; the expected central term is taken from the abstract
    bracket of the classical symbols' images.  ``build`` (the alpha = 0
    family builder) and ``triple`` (the sl(2) operators by name) let a
    caller share its operators, and with them their applied columns;
    both are made here when omitted.  ``boxes`` is the caller's
    ``_box_monomials`` memo.  Each package operator is a SumOperator over
    family operators; the engine applies each family operator once per
    monomial, and every symbol that uses it shares its columns."""
    from .liealg import CheckReport
    from .sca import KAHLER_SYMBOLS, kahler_bracket, kahler_parity, psi, s2a_bracket
    from .verify import FastEngine, fast_bracket_check, s2a_builder

    if build is None:
        build = s2a_builder(backend, ZERO)
    if triple is None:
        triple = sl2_triple(backend)
    charge = QI(3 * backend.dim)
    box = Box(emax=emax, b0max=b0max, zero_fermions_allowed=False)
    engine = FastEngine(relative=True)
    box_ids = [engine.intern(m) for m in _box_monomials(backend, box, boxes)]
    fops = {
        sym: engine.fastop(classical_operator(build, sym))
        for sym in KAHLER_SYMBOLS
    }
    checks = []
    for i, sa in enumerate(KAHLER_SYMBOLS):
        for sb in KAHLER_SYMBOLS[i:]:
            rhs = kahler_bracket({sa: ONE}, {sb: ONE})
            rhs_terms = [(c, fops[s]) for s, c in sorted(rhs.items())]
            both_odd = bool(kahler_parity(sa) and kahler_parity(sb))
            central = s2a_bracket(ZERO, psi(sa), psi(sb)).central * charge
            bad = fast_bracket_check(
                engine, fops[sa], fops[sb], both_odd, rhs_terms,
                central, box_ids,
            )
            checks.append(
                CheckReport(
                    f"package:[{sa},{sb}]",
                    bad is None,
                    None if bad is None else format_monomial(engine.monos[bad]),
                    "",
                )
            )
    triple = {s: engine.fastop(op) for s, op in triple.items()}
    sl2_rels = (
        ("EE", "FF", (("HH", ONE),)),
        ("HH", "EE", (("EE", QI(2)),)),
        ("HH", "FF", (("FF", QI(-2)),)),
    )
    for sa, sb, rhs in sl2_rels:
        rhs_terms = [(c, triple[s]) for s, c in rhs]
        bad = fast_bracket_check(
            engine, triple[sa], triple[sb], False, rhs_terms, None, box_ids
        )
        checks.append(
            CheckReport(
                f"lefschetz:[{sa},{sb}]",
                bad is None,
                None if bad is None else format_monomial(engine.monos[bad]),
                "",
            )
        )
    return checks


def _signature_str(sig) -> str:
    pos, neg, zero = sig
    return f"+{pos}-{neg}0{zero}"


def _cocycle_basis(piece: GradedPiece, d_out: Matrix):
    """(rank of the outgoing differential, its kernel vectors as a Matrix
    of coordinates in the piece basis)."""
    rank, kernel = exact_rank_kernel(d_out)
    z = Matrix(piece.dim, len(kernel))
    for j, vec in enumerate(kernel):
        z.cols[j] = dict(vec)
    return rank, z


def _completing_units(basis: Matrix, count: int) -> list:
    """The first ``count`` indices j, in increasing order, whose unit
    vectors e_j are independent of the basis columns and of the unit
    vectors before them.  One elimination runs over the basis columns and
    then the unit vectors, so each candidate is reduced against the same
    echelon."""
    chosen = []
    if count:
        units = ({j: ONE} for j in range(basis.nrows))
        n = basis.ncols
        for j, cmb in enumerate(_eliminate(chain(basis.cols, units))):
            if j >= n and cmb is None:
                chosen.append(j - n)
                if len(chosen) == count:
                    break
    return chosen


def _top_rows(mat: Matrix, n: int) -> Matrix:
    """The first n rows of ``mat``."""
    return Matrix(
        n, mat.ncols, [{i: c for i, c in col.items() if i < n} for col in mat.cols]
    )


def induced_cohomology_matrix(op_mat: Matrix, z_src: Matrix, z_tgt: Matrix,
                              b_tgt: Matrix):
    """Matrix induced on cohomology by an operator that maps cocycles to
    cocycles modulo boundaries: columns are coordinates of op(z_j) in the
    span of (z_tgt | b_tgt), truncated to the z_tgt block.  Returns None
    when some image is not a cocycle modulo boundaries."""
    n = z_tgt.ncols
    joint = Matrix(z_tgt.nrows, n + b_tgt.ncols, z_tgt.cols + b_tgt.cols)
    images = [op_mat.apply_coords(col) for col in z_src.cols]
    sol = solve_in_span(joint, Matrix(z_tgt.nrows, z_src.ncols, images))
    if sol is None:
        return None
    return _top_rows(sol, n)


def harmonic_lefschetz_report(backend, emax=2, s_range=2):
    """Per relative piece: Hodge-form Gram signature, harmonic dimension
    of the Laplacian of the differential, and the comparison with the
    cohomology dimension on definite pieces; plus the operator-package
    bracket checks, the form-adjoint identification of the homotopy
    operator, the counting-operator eigenvalues, and the exterior sl(2)
    action induced on cohomology."""
    from .liealg import CheckReport
    from .verify import s2a_builder

    # one operator object per family member and sl(2) symbol for the whole
    # report, so each column is applied once, and one enumeration per box
    build = s2a_builder(backend, ZERO)
    triple = sl2_triple(backend)
    d = build_differential_d(backend)
    boxes = {}
    checks = list(
        kahler_matrix_checks(
            backend, emax=emax, build=build, triple=triple, boxes=boxes
        )
    )

    # star is an involution and the vacuum has norm one
    from .fieldops import SumOperator, star
    box = Box(emax=emax, b0max=2, zero_fermions_allowed=False)
    star_ok = all(
        star(star(FockVector.of(m))) == FockVector.of(m)
        for m in _box_monomials(backend, box, boxes)
    )
    checks.append(CheckReport("star:involution", star_ok, None, ""))
    vac = FockVector.vacuum()
    checks.append(
        CheckReport(
            "form:vacuum-norm",
            hermitian_form(vac, vac) == ONE and hodge_form(vac, vac) == ONE,
            None,
            "",
        )
    )

    # the counting operator has eigenvalue a - b on every relative
    # monomial of bidegree (a, b): the analogue of the classical count
    # recentred so that the vacuum is annihilated
    hh = triple["HH"]
    count_ok = True
    count_witness = None
    for m in _box_monomials(backend, box, boxes):
        _, _, _, a, b = m.degrees()
        v = FockVector.of(m)
        if hh.apply(v, relative=True) != v.scale(QI(a - b)):
            count_ok = False
            count_witness = format_monomial(m)
            break
    checks.append(
        CheckReport("counting:eigenvalue", count_ok, count_witness, ""))

    h0 = build("h", 0)
    p0neg = SumOperator([(QI(-1), build("p", 0))], name="-p0")
    ee = triple["EE"]

    slices = {}

    def get_slice(energy, deg_s):
        key = (energy, deg_s)
        if key not in slices:
            slices[key] = slice_monomials(backend, energy, deg_s, True, boxes)
        return slices[key]

    pieces = {}

    def get_piece(energy, deg_s, deg_l):
        key = (energy, deg_s, deg_l)
        if key not in pieces:
            pieces[key] = piece_basis(
                backend, energy, deg_s, deg_l, True,
                get_slice(energy, deg_s).get(deg_l, ()),
            )
        return pieces[key]

    grams = {}

    def get_gram(piece):
        key = (piece.energy, piece.deg_s, piece.deg_l)
        if key not in grams:
            grams[key] = gram_matrix(piece, hodge_form)
        return grams[key]

    keys = []
    for energy in range(emax + 1):
        for deg_s in range(-s_range, s_range + 1):
            for deg_l in sorted(get_slice(energy, deg_s)):
                if get_piece(energy, deg_s, deg_l).dim:
                    keys.append((energy, deg_s, deg_l))

    # form-adjoint of the Koszul differential equals minus the homotopy
    # operator, piece by piece
    adj_checked = 0
    adj_ok = True
    adj_witness = None
    for energy, deg_s, deg_l in keys:
        src = get_piece(energy, deg_s, deg_l)
        tgt = get_piece(energy, deg_s + 1, deg_l - 1)
        if tgt.dim == 0:
            continue
        a = assemble_matrix(h0, src, tgt)
        b = assemble_matrix(p0neg, tgt, src)
        adj_checked += 1
        if adjoint_matrix(a, get_gram(src), get_gram(tgt)) != b:
            adj_ok = False
            adj_witness = f"piece E={energy} DegS={deg_s} DegL={deg_l}"
            break
    checks.append(
        CheckReport(
            "adjoint:homotopy",
            adj_ok and adj_checked > 0,
            adj_witness,
            f"pieces checked: {adj_checked}",
        )
    )

    # rows: Gram signature, harmonic and cohomology dimensions
    rows = []
    hodge_ok = True
    hodge_witness = None
    d_mats = {}

    def get_d(energy, deg_s, deg_l):
        key = (energy, deg_s, deg_l)
        if key not in d_mats:
            d_mats[key] = assemble_matrix(
                d,
                get_piece(energy, deg_s, deg_l),
                get_piece(energy, deg_s, deg_l + 1),
            )
        return d_mats[key]

    # rank of each d_mats entry, filled by the first elimination of it
    d_ranks = {}

    def d_rank(energy, deg_s, deg_l):
        key = (energy, deg_s, deg_l)
        if key not in d_ranks:
            d_ranks[key] = exact_rank_kernel(get_d(*key))[0]
        return d_ranks[key]

    for energy, deg_s, deg_l in keys:
        piece = get_piece(energy, deg_s, deg_l)
        up = get_piece(energy, deg_s, deg_l + 1)
        down = get_piece(energy, deg_s, deg_l - 1)
        a = get_d(energy, deg_s, deg_l)
        c = get_d(energy, deg_s, deg_l - 1)
        rank_out = d_rank(energy, deg_s, deg_l)
        rank_in = d_rank(energy, deg_s, deg_l - 1)
        coh = piece.dim - rank_in - rank_out
        g = get_gram(piece)
        sig = hermitian_signature(g)
        harmonic = ""
        if sig[2] == 0:
            astar = adjoint_matrix(a, g, get_gram(up))
            cstar = adjoint_matrix(c, get_gram(down), g)
            lap = (astar @ a) + (c @ cstar)
            rank_l, _ = exact_rank_kernel(lap)
            hdim = piece.dim - rank_l
            harmonic = str(hdim)
            definite = sig[1] == 0 or sig[0] == 0
            if definite and hdim != coh and hodge_ok:
                hodge_ok = False
                hodge_witness = (
                    f"E={energy} DegS={deg_s} DegL={deg_l}: "
                    f"harmonic {hdim} vs cohomology {coh}"
                )
        rows.append(
            PieceRow(
                energy, deg_s, deg_l, piece.dim, rank_in, rank_out, coh,
                _signature_str(sig), harmonic,
            )
        )
    checks.append(
        CheckReport("hodge:definite-pieces", hodge_ok, hodge_witness, ""))

    # the exterior sl(2) triple acts on the cohomology of each (E, DegS)
    # strip: the raising operator and the counting operator descend to
    # cohomology directly, and a lowering family completing them to an
    # sl(2) exists there (the lowering operator itself does not commute
    # with the differential, so its action on cohomology is obtained by
    # solving the bracket relation exactly)
    lef_ok = True
    lef_witness = None
    strips = sorted({(e, s) for e, s, _ in keys})
    for energy, deg_s in strips:
        ls = sorted(l for e, s, l in keys if (e, s) == (energy, deg_s))
        lo, hi = min(ls) - 2, max(ls) + 2
        z = {}
        bnd = {}
        for deg_l in range(lo, hi + 1):
            piece = get_piece(energy, deg_s, deg_l)
            rank, z[deg_l] = _cocycle_basis(piece, get_d(energy, deg_s, deg_l))
            d_ranks.setdefault((energy, deg_s, deg_l), rank)
            c = get_d(energy, deg_s, deg_l - 1)
            bnd[deg_l] = Matrix(piece.dim, 0) if c.ncols == 0 else c
        hdim = {
            deg_l: z[deg_l].ncols - d_rank(energy, deg_s, deg_l - 1)
            for deg_l in range(lo, hi + 1)
        }
        emap = {}
        for deg_l in range(lo, hi - 1):
            src_p = get_piece(energy, deg_s, deg_l)
            if src_p.dim == 0:
                emap[deg_l] = Matrix(z[deg_l + 2].ncols, 0)
                continue
            om = assemble_matrix(ee, src_p, get_piece(energy, deg_s, deg_l + 2))
            got = induced_cohomology_matrix(
                om, z[deg_l], z[deg_l + 2], bnd[deg_l + 2]
            )
            if got is None:
                lef_ok = False
                lef_witness = (
                    f"raising operator does not descend at "
                    f"E={energy} DegS={deg_s} DegL={deg_l}"
                )
                break
            emap[deg_l] = got
        if not lef_ok:
            break
        # quotient to cohomology: columns of z modulo boundaries; the
        # induced matrices act on cocycle coordinates, and the bracket
        # relation is solved modulo boundary coordinates, so express all
        # maps on a cohomology basis: pick cocycle columns completing the
        # boundary span
        cohq = {}
        for deg_l in range(lo, hi + 1):
            # boundary vectors in cocycle coordinates
            bcoords = solve_in_span(z[deg_l], bnd[deg_l])
            if bcoords is None:
                raise StructureError("boundary is not a cocycle")
            # choose representative columns: unit vectors independent of
            # the boundary span
            cohq[deg_l] = (bcoords, _completing_units(bcoords, hdim[deg_l]))

        def project(deg_l, coords: Matrix) -> Matrix:
            """Coordinates (in cocycle basis) -> cohomology coordinates
            over the chosen representatives, modulo boundaries."""
            bcoords, chosen = cohq[deg_l]
            n = len(chosen)
            joint = Matrix(
                z[deg_l].ncols,
                n + bcoords.ncols,
                [{j: ONE} for j in chosen] + list(bcoords.cols),
            )
            sol = solve_in_span(joint, coords)
            if sol is None:
                raise StructureError("cocycle escapes cohomology span")
            return _top_rows(sol, n)

        eh = {}
        for deg_l in range(lo, hi - 1):
            _, chosen = cohq[deg_l]
            images = [emap[deg_l].cols[j] for j in chosen]
            eh[deg_l] = project(
                deg_l + 2, Matrix(z[deg_l + 2].ncols, len(chosen), images)
            )
        # solve for the lowering maps F_l : H^l -> H^(l-2) with
        # E_(l-2) F_l - F_(l+2) E_l = l * Id on every H^l
        var = {}
        for deg_l in range(lo, hi + 1):
            if hdim[deg_l] and hdim.get(deg_l - 2, 0):
                for r in range(hdim[deg_l - 2]):
                    for c in range(hdim[deg_l]):
                        var[(deg_l, r, c)] = len(var)
        eqs = []
        targ = []
        for deg_l in range(lo, hi + 1):
            n = hdim[deg_l]
            if n == 0:
                continue
            for i in range(n):
                for c in range(n):
                    row = {}
                    e_lm2 = eh.get(deg_l - 2)
                    if e_lm2 is not None:
                        for r in range(hdim.get(deg_l - 2, 0)):
                            coeff = e_lm2.get(i, r)
                            v = var.get((deg_l, r, c))
                            if v is not None and not coeff.is_zero():
                                row[v] = row.get(v, ZERO) + coeff
                    e_l = eh.get(deg_l)
                    if e_l is not None:
                        for r in range(hdim.get(deg_l + 2, 0)):
                            coeff = e_l.get(r, c)
                            v = var.get((deg_l + 2, i, r))
                            if v is not None and not coeff.is_zero():
                                row[v] = row.get(v, ZERO) - coeff
                    rhs = QI(deg_l) if i == c else ZERO
                    if row or not rhs.is_zero():
                        eqs.append(row)
                        targ.append(rhs)
        system = Matrix(len(eqs), len(var))
        for r, row in enumerate(eqs):
            for v, coeff in row.items():
                system.cols[v][r] = coeff
        target = {r: c for r, c in enumerate(targ) if not c.is_zero()}
        if solve_in_span(system, Matrix(len(eqs), 1, [target])) is None:
            lef_ok = False
            lef_witness = (
                f"no lowering action on cohomology at "
                f"E={energy} DegS={deg_s}"
            )
            break
    checks.append(
        CheckReport("lefschetz:cohomology-action", lef_ok, lef_witness, ""))

    rows.sort(key=PieceRow.key)
    return rows, checks
