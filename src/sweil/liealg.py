"""Finite-dimensional Lie algebra data and the graded backends built on it.

A backend supplies, per integer mode, a finite component space together with
a bracket (loop algebras of a finite-dimensional Lie algebra, the Witt
algebra) or a module action (the weight-density Witt modules F_{lam,mu}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .scalars import QI, ZERO, ONE, parse_qi


class StructureError(ValueError):
    """Malformed algebraic input (wrong shapes, unsupported operation)."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structural verification, with a witness on failure."""

    name: str
    passed: bool
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self):
        return self.passed


class LieAlgebraSpec:
    """Structure constants c[i][j][k] with [v_i, v_j] = sum_k c[i][j][k] v_k,
    plus an optional symmetric bilinear form matrix."""

    def __init__(self, constants, form=None, name="g"):
        d = len(constants)
        for row in constants:
            if len(row) != d or any(len(col) != d for col in row):
                raise StructureError("structure constant array is not D x D x D")
        self.dim = d
        self.c = tuple(
            tuple(tuple(QI.of(x) for x in col) for col in row) for row in constants
        )
        if form is not None:
            if len(form) != d or any(len(r) != d for r in form):
                raise StructureError("form matrix is not D x D")
            form = tuple(tuple(QI.of(x) for x in r) for r in form)
        self.form = form
        self.name = name

    def bracket(self, i, j):
        """Coefficient vector of [v_i, v_j]."""
        return self.c[i][j]


def abelian(dim, with_form=False, name=None):
    zero = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    form = None
    if with_form:
        form = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
    return LieAlgebraSpec(zero, form, name or f"abelian:{dim}")


def builtin_sl2_orthonormal():
    """sl(2) in the basis {e+f, i(e-f), h}, orthonormal for half the trace
    form of the defining representation.  Brackets: [v_a, v_b] = -2i v_c for
    (a,b,c) a cyclic permutation of (1,2,3)."""
    d = 3
    c = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    m2i = QI(0, -2)
    for a, b, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[a][b][k] = m2i
        c[b][a][k] = -m2i
    form = [[ONE if a == b else ZERO for b in range(d)] for a in range(d)]
    return LieAlgebraSpec(c, form, "sl2")


def check_jacobi(spec: LieAlgebraSpec) -> CheckReport:
    """Brute-force antisymmetry and Jacobi over all basis triples."""
    d = spec.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if spec.c[i][j][k] != -spec.c[j][i][k]:
                    return CheckReport("jacobi", False, (i, j, k), "antisymmetry")
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    total = ZERO
                    # [[vi,vj],vk] + [[vj,vk],vi] + [[vk,vi],vj], coefficient of v_m
                    for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
                        for r in range(d):
                            total = total + spec.c[a][b][r] * spec.c[r][cc][m]
                    if not total.is_zero():
                        return CheckReport("jacobi", False, (i, j, k), "jacobi")
    return CheckReport("jacobi", True)


def check_invariant_form(spec: LieAlgebraSpec) -> CheckReport:
    """Symmetry, exact nondegeneracy, and invariance of the form matrix."""
    if spec.form is None:
        raise StructureError("spec has no bilinear form")
    d = spec.dim
    B = spec.form
    for i in range(d):
        for j in range(d):
            if B[i][j] != B[j][i]:
                return CheckReport("invariant_form", False, (i, j), "symmetry")
    if dense_rank(B) != d:
        return CheckReport("invariant_form", False, None, "degenerate")
    # B([x,y],z) + B(y,[x,z]) = 0 over all basis triples
    for x in range(d):
        for y in range(d):
            for z in range(d):
                total = ZERO
                for k in range(d):
                    total = total + spec.c[x][y][k] * B[k][z]
                    total = total + spec.c[x][z][k] * B[y][k]
                if not total.is_zero():
                    return CheckReport("invariant_form", False, (x, y, z), "invariance")
    return CheckReport("invariant_form", True)


def dense_rank(rows) -> int:
    """Rank of a list of equal-length rows of exact scalars by naive dense
    Gaussian elimination; the rows are not modified."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class GradedBackend:
    """kind is one of 'loop', 'witt', 'fmu'.

    loop: components = basis of the underlying Lie algebra at every mode,
          [u t^n, v t^m] = [u,v] t^{n+m}.
    witt: one component per mode, [L_i, L_j] = (i-j) L_{i+j}.
    fmu:  one component per mode; carries the Witt action
          L_n . u_m = (-m + mu - (n-1) lam) u_{n+m}, no bracket.
    """

    kind: str
    spec: Optional[LieAlgebraSpec] = None
    lam: QI = field(default_factory=lambda: ZERO)
    mu: QI = field(default_factory=lambda: ZERO)
    name: str = ""

    @property
    def dim(self) -> int:
        return self.spec.dim if self.kind == "loop" else 1

    def bracket(self, a, b):
        """Bracket/action of component-mode pairs; returns (coeffs, mode).

        For 'fmu' the first argument is a Witt mode acting on a module mode.
        """
        (i, m) = a
        (j, n) = b
        if self.kind == "loop":
            return self.spec.bracket(i, j), m + n
        if self.kind == "witt":
            if i != 0 or j != 0:
                raise StructureError("witt backend has one component per mode")
            return (QI(m - n),), m + n
        if self.kind == "fmu":
            if i != 0 or j != 0:
                raise StructureError("fmu backend has one component per mode")
            return (QI(-n) + self.mu - (QI(m) - ONE) * self.lam,), m + n
        raise StructureError(f"unknown backend kind {self.kind!r}")


def loop_backend(spec: LieAlgebraSpec) -> GradedBackend:
    return GradedBackend("loop", spec=spec, name=f"loop:{spec.name}")


def witt_backend() -> GradedBackend:
    return GradedBackend("witt", name="witt")


def fmu_backend(lam, mu) -> GradedBackend:
    lam = QI.of(lam)
    mu = QI.of(mu)
    return GradedBackend("fmu", lam=lam, mu=mu, name=f"fmu:{lam}:{mu}")


def parse_backend(text: str) -> GradedBackend:
    """Parse CLI descriptors: loop:sl2 | loop:abelian:D | witt | fmu:LAM:MU."""
    parts = text.split(":")
    if parts[0] == "witt" and len(parts) == 1:
        return witt_backend()
    if parts[0] == "loop" and len(parts) >= 2:
        if parts[1] == "sl2" and len(parts) == 2:
            return loop_backend(builtin_sl2_orthonormal())
        if parts[1] == "abelian" and len(parts) == 3:
            return loop_backend(abelian(int(parts[2]), with_form=True))
    if parts[0] == "fmu" and len(parts) == 3:
        return fmu_backend(parse_qi(parts[1]), parse_qi(parts[2]))
    raise StructureError(f"cannot parse backend descriptor {text!r}")
