"""The Kähler report's sl(2) strip as it was before it tested the
Lefschetz criterion: it picks unit-vector cohomology representatives,
projects the raising operator onto them and solves a linear system for
every lowering map.  Kept verbatim as the reference that the criterion's
verdicts and witnesses are compared with."""

from itertools import chain

from sweil.scalars import QI, ZERO, ONE
from sweil.liealg import StructureError
from sweil.fieldops import Operator
from sweil.cohomology import (
    Matrix,
    _Complex,
    _eliminate,
    assemble_matrix,
    solve_in_span,
)


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
    images = (op_mat @ z_src).cols
    sol = solve_in_span(joint, Matrix(z_tgt.nrows, z_src.ncols, images))
    if sol is None:
        return None
    return _top_rows(sol, n)


def _lefschetz_strip(cx: _Complex, ee: Operator, energy, deg_s, ls):
    """The exterior sl(2) triple acts on the cohomology of the (E, DegS)
    strip whose nonzero pieces sit at Deg_Lambda ``ls``: the raising
    operator ``ee`` and the counting operator descend to cohomology
    directly, and a lowering family completing them to an sl(2) exists
    there (the lowering operator itself does not commute with the
    differential, so its action on cohomology is obtained by solving the
    bracket relation exactly).  None when it does, else a witness.  The
    strip eliminates each differential out of its pieces once, through
    ``cx``, and drops the kernels when it returns."""
    lo, hi = min(ls) - 2, max(ls) + 2
    z = {}  # cocycles
    bnd = {}  # boundaries: the differential into the piece
    for deg_l in range(lo, hi + 1):
        z[deg_l] = cx.cocycles(energy, deg_s, deg_l)
        bnd[deg_l] = cx.d_matrix(energy, deg_s, deg_l - 1)
    hdim = {
        deg_l: z[deg_l].ncols - cx.rank(energy, deg_s, deg_l - 1)
        for deg_l in range(lo, hi + 1)
    }
    emap = {}
    for deg_l in range(lo, hi - 1):
        src_p = cx.piece(energy, deg_s, deg_l)
        if src_p.dim == 0:
            emap[deg_l] = Matrix(z[deg_l + 2].ncols, 0)
            continue
        om = assemble_matrix(ee, src_p, cx.piece(energy, deg_s, deg_l + 2))
        got = induced_cohomology_matrix(
            om, z[deg_l], z[deg_l + 2], bnd[deg_l + 2]
        )
        if got is None:
            return (
                f"raising operator does not descend at "
                f"E={energy} DegS={deg_s} DegL={deg_l}"
            )
        emap[deg_l] = got
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
        return f"no lowering action on cohomology at E={energy} DegS={deg_s}"
    return None
