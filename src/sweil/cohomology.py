"""Exact finite-piece linear algebra: operators as sparse matrices over
the Gaussian rationals, ranks and kernels, graded cohomology tables,
Gram signatures, harmonic spaces, the Lefschetz sl(2) reports, and the
single-pair Koszul acyclicity check.

The sl(2) on cohomology is checked by the Lefschetz criterion
(Griffiths-Harris, Principles of Algebraic Geometry, 1978): a finite
graded space with a raising map E of degree 2 carries an sl(2) whose H
acts by the degree exactly when every E^k: H^-k -> H^k, k >= 0, is
bijective.  Ranks of the powers E^k decide it; no lowering map is
solved for."""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from . import stats
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
    _slot_bounds,
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
    stats.count("cohomology.exact_rank_kernel")
    kernel = [cmb for cmb in _eliminate(mat.cols) if cmb is not None]
    return mat.ncols - len(kernel), kernel


def solve_in_span(basis: Matrix, targets: Matrix) -> Optional[Matrix]:
    """X with basis @ X == targets, or None when some target column lies
    outside the span of the basis columns.  One elimination runs over the
    basis columns and then the targets, so each target is reduced against
    the basis pivots only; each column of X is supported on those pivot
    columns, so X is the unique solution when the basis is independent."""
    stats.count("cohomology.solve_in_span")
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
    it; otherwise the slice is enumerated here.  The degree-zero operators
    share each ambient monomial's slot bounds, computed once."""
    stats.count("cohomology.piece_basis")
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
        bounds = _slot_bounds(m)
        for t, op in enumerate(thetas):
            out = op.apply_monomial(m, True, bounds)
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
    image falls outside the target span.  A piece basis is the identity
    or kernel vectors of ``_eliminate``, each 1 at its largest row and 0
    at every other's, so an image's coordinates are its entries there;
    one product checks them, and no elimination runs."""
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
    lead = [max(col) for col in tgt.basis.cols]
    out = Matrix(tgt.dim, src.dim)
    out.cols = [{k: c[i] for k, i in enumerate(lead) if i in c} for c in images.cols]
    if tgt.basis @ out != images:
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


class _Complex:
    """The graded complex of one report on one backend: the differential
    preserves E and Deg_S and raises Deg_Lambda, so each (E, Deg_S) slice
    is a finite complex over Deg_Lambda.  Slices, pieces, Hodge-form Gram
    matrices, differential matrices and their ranks are each built once
    and kept for the report; kernels are handed out, never kept.  The
    module functions are looked up at call time, so hooks on them see
    every call."""

    def __init__(self, backend, relative, boxes=None):
        self.backend = backend
        self.relative = relative
        self.boxes = {} if boxes is None else boxes  # ``_box_monomials`` memo
        self.d = build_differential_d(backend)
        self.slices = {}  # (E, Deg_S) -> {Deg_Lambda: monomials}
        self.pieces = {}  # (E, Deg_S, Deg_Lambda) -> GradedPiece
        self.grams = {}  # same keys -> Hodge-form Gram matrix
        self.d_mats = {}  # same keys -> differential out of the piece
        self.ranks = {}  # same keys -> rank of that differential

    def slice(self, energy, deg_s) -> dict:
        key = (energy, deg_s)
        if key not in self.slices:
            self.slices[key] = slice_monomials(
                self.backend, energy, deg_s, self.relative, self.boxes
            )
        return self.slices[key]

    def piece(self, energy, deg_s, deg_l) -> GradedPiece:
        key = (energy, deg_s, deg_l)
        if key not in self.pieces:
            ambient = self.slice(energy, deg_s).get(deg_l, ())
            self.pieces[key] = piece_basis(
                self.backend, energy, deg_s, deg_l, self.relative, ambient
            )
        return self.pieces[key]

    def keys(self, energies, deg_s_values) -> list:
        """(E, Deg_S, Deg_Lambda) of every nonzero piece, ascending."""
        return sorted(
            (energy, deg_s, deg_l)
            for energy in energies
            for deg_s in deg_s_values
            for deg_l in self.slice(energy, deg_s)
            if self.piece(energy, deg_s, deg_l).dim
        )

    def gram(self, energy, deg_s, deg_l) -> Matrix:
        key = (energy, deg_s, deg_l)
        if key not in self.grams:
            self.grams[key] = gram_matrix(self.piece(*key), hodge_form)
        return self.grams[key]

    def d_matrix(self, energy, deg_s, deg_l) -> Matrix:
        """The differential from Deg_Lambda ``deg_l`` to ``deg_l + 1``;
        out of a Deg_Lambda missing from the slice it is zero, not built."""
        key = (energy, deg_s, deg_l)
        if key not in self.d_mats:
            tgt = self.piece(energy, deg_s, deg_l + 1)
            if deg_l in self.slice(energy, deg_s):
                mat = assemble_matrix(self.d, self.piece(*key), tgt)
            else:
                mat = Matrix(tgt.dim, 0)
            self.d_mats[key] = mat
        return self.d_mats[key]

    def cocycles(self, energy, deg_s, deg_l) -> Matrix:
        """Kernel of the differential out of the piece, as columns of
        coordinates in the piece basis, by one elimination that also
        records the differential's rank; none runs out of an empty piece."""
        mat = self.d_matrix(energy, deg_s, deg_l)
        rank, kernel = exact_rank_kernel(mat) if mat.ncols else (0, [])
        self.ranks[(energy, deg_s, deg_l)] = rank
        return Matrix(mat.ncols, len(kernel), kernel)

    def rank(self, energy, deg_s, deg_l) -> int:
        key = (energy, deg_s, deg_l)
        if key not in self.ranks:
            self.cocycles(*key)
        return self.ranks[key]

    def row(self, energy, deg_s, deg_l) -> PieceRow:
        dim = self.piece(energy, deg_s, deg_l).dim
        rank_in = self.rank(energy, deg_s, deg_l - 1)
        rank_out = self.rank(energy, deg_s, deg_l)
        return PieceRow(
            energy, deg_s, deg_l, dim, rank_in, rank_out,
            dim - rank_in - rank_out,
        )


def cohomology_table(backend, energies, deg_s_values, relative):
    """Rows per (E, Deg_S, Deg_Lambda) nonzero piece, ascending, and the
    matrix of the differential out of each row's piece."""
    cx = _Complex(backend, relative)
    keys = cx.keys(energies, deg_s_values)
    return [cx.row(*key) for key in keys], [cx.d_matrix(*key) for key in keys]


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

    with stats.span("cohomology.kahler_matrix_checks"):
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
        engine.count_sizes()
        return checks


def _signature_str(sig) -> str:
    pos, neg, zero = sig
    return f"+{pos}-{neg}0{zero}"


def _independent_over(base: Matrix, cols) -> int:
    """rank([base | cols]) - rank(base): how many of ``cols`` are
    independent of the base columns and of one another, by one
    elimination over the base columns and then ``cols``."""
    n = base.ncols
    return sum(
        1
        for j, cmb in enumerate(_eliminate(chain(base.cols, cols)))
        if j >= n and cmb is None
    )


def _lefschetz_strip(cx: _Complex, ee: Operator, energy, deg_s, ls):
    """The exterior sl(2) triple acts on the cohomology of the (E, DegS)
    strip whose nonzero pieces sit at Deg_Lambda ``ls``, with the counting
    operator acting by Deg_Lambda.  The raising operator ``ee`` must
    descend: it maps cocycles to cocycles and boundaries to boundaries.
    The lowering operator does not commute with the differential, but by
    the Lefschetz decomposition [GH] a lowering action completing the
    raising one exists on cohomology exactly when every power
    E^k: H^-k -> H^k, k >= 1, is bijective.  None when both hold, else a
    witness.  The strip eliminates each differential out of its pieces
    once, through ``cx``, and drops the kernels when it returns."""
    lo, hi = min(ls) - 2, max(ls) + 2
    z = {}  # cocycles
    bnd = {}  # boundaries: the differential into the piece
    hdim = {}
    for deg_l in range(lo, hi + 1):
        z[deg_l] = cx.cocycles(energy, deg_s, deg_l)
        bnd[deg_l] = cx.d_matrix(energy, deg_s, deg_l - 1)
        hdim[deg_l] = z[deg_l].ncols - cx.rank(energy, deg_s, deg_l - 1)
        if not (cx.d_matrix(energy, deg_s, deg_l) @ bnd[deg_l]).is_zero():
            raise StructureError("boundary is not a cocycle")
    emap = {}
    for deg_l in range(lo, hi - 1):
        src = cx.piece(energy, deg_s, deg_l)
        tgt = cx.piece(energy, deg_s, deg_l + 2)
        if src.dim == 0:
            emap[deg_l] = Matrix(tgt.dim, 0)
            continue
        emap[deg_l] = om = assemble_matrix(ee, src, tgt)
        d_out = cx.d_matrix(energy, deg_s, deg_l + 2)
        if not (d_out @ (om @ z[deg_l])).is_zero() or _independent_over(
            bnd[deg_l + 2], (om @ bnd[deg_l]).cols
        ):
            return (
                f"raising operator does not descend at "
                f"E={energy} DegS={deg_s} DegL={deg_l}"
            )
    # E^k is injective on H^-k when it is onto H^k and the dimensions agree
    witness = f"no lowering action on cohomology at E={energy} DegS={deg_s}"
    for k in range(1, max(-lo, hi) + 1):
        n = hdim.get(k, 0)
        if hdim.get(-k, 0) != n:
            return witness
        if n:
            img = z[-k]
            for deg_l in range(-k, k, 2):
                img = emap[deg_l] @ img
            if _independent_over(bnd[k], img.cols) != n:
                return witness
    return None


def harmonic_lefschetz_report(backend, emax=2, s_range=2):
    """Per relative piece: Hodge-form Gram signature, harmonic dimension
    of the Laplacian of the differential, and the comparison with the
    cohomology dimension on definite pieces; plus the operator-package
    bracket checks, the form-adjoint identification of the homotopy
    operator, the counting-operator eigenvalues, and the exterior sl(2)
    action induced on cohomology.  That action exists on a strip when
    the raising operator maps cocycles to cocycles and boundaries to
    boundaries, and each E^k: H^-k -> H^k is bijective (the Lefschetz
    criterion of Griffiths-Harris, 1978)."""
    from .liealg import CheckReport
    from .verify import s2a_builder

    # one operator object per family member and sl(2) symbol for the whole
    # report, so each column is applied once, and one enumeration per box
    build = s2a_builder(backend, ZERO)
    triple = sl2_triple(backend)
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
    cx = _Complex(backend, True, boxes)
    keys = cx.keys(range(emax + 1), range(-s_range, s_range + 1))

    # form-adjoint of the Koszul differential equals minus the homotopy
    # operator, piece by piece
    adj_checked = 0
    adj_ok = True
    adj_witness = None
    for energy, deg_s, deg_l in keys:
        src = cx.piece(energy, deg_s, deg_l)
        tgt = cx.piece(energy, deg_s + 1, deg_l - 1)
        if tgt.dim == 0:
            continue
        a = assemble_matrix(h0, src, tgt)
        b = assemble_matrix(p0neg, tgt, src)
        adj_checked += 1
        gram_tgt = cx.gram(energy, deg_s + 1, deg_l - 1)
        if adjoint_matrix(a, cx.gram(energy, deg_s, deg_l), gram_tgt) != b:
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

    # the sl(2) strips run before the rows: each eliminates its own
    # differentials once and leaves their ranks for the rows; their check
    # is reported last
    lef_witness = None
    for energy, deg_s in sorted({(e, s) for e, s, _ in keys}):
        ls = [l for e, s, l in keys if (e, s) == (energy, deg_s)]
        lef_witness = _lefschetz_strip(cx, triple["EE"], energy, deg_s, ls)
        if lef_witness is not None:
            break

    # rows: Gram signature, harmonic and cohomology dimensions
    rows = []
    hodge_witness = None
    for energy, deg_s, deg_l in keys:
        row = cx.row(energy, deg_s, deg_l)
        g = cx.gram(energy, deg_s, deg_l)
        sig = hermitian_signature(g)
        harmonic = ""
        if sig[2] == 0:
            a = cx.d_matrix(energy, deg_s, deg_l)
            c = cx.d_matrix(energy, deg_s, deg_l - 1)
            astar = adjoint_matrix(a, g, cx.gram(energy, deg_s, deg_l + 1))
            cstar = adjoint_matrix(c, cx.gram(energy, deg_s, deg_l - 1), g)
            lap = (astar @ a) + (c @ cstar)
            rank_l, _ = exact_rank_kernel(lap)
            hdim = row.dim - rank_l
            harmonic = str(hdim)
            definite = sig[1] == 0 or sig[0] == 0
            if definite and hdim != row.coh_dim and hodge_witness is None:
                hodge_witness = (
                    f"E={energy} DegS={deg_s} DegL={deg_l}: "
                    f"harmonic {hdim} vs cohomology {row.coh_dim}"
                )
        rows.append(row._replace(
            gram_signature=_signature_str(sig), harmonic_dim=harmonic
        ))
    checks.append(CheckReport(
        "hodge:definite-pieces", hodge_witness is None, hodge_witness, ""))
    checks.append(CheckReport(
        "lefschetz:cohomology-action", lef_witness is None, lef_witness, ""))
    return rows, checks
