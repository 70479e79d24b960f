"""Locally finite normal-ordered mode sums acting exactly on Fock vectors.

A FieldOperator is a finite list of term shapes; each shape is an ordered
list of generator slots whose modes are affine in at most two integer
summation variables, together with an exact coefficient function.  For a
given input monomial only finitely many variable assignments can contribute
(every annihilator slot must find a partner among the input's creators);
with one variable every such constraint bounds it directly, with two the
window is found by fixed-point interval propagation; either window may be
widened without changing any output, which the tests exercise.  Each
assignment's generator product maps the input to one monomial times an
integer (``fock.product_on_monomial``), so the term's coefficient is
multiplied once, by that integer.

A window depends on the input monomial only through the bounds it puts
on the term's slots.  So each FieldOperator keeps, per term shape, a
dict from that bound signature to the window, and per window point the
normal-ordered generator keys, their sign and, once a product at that
point has been nonzero, the coefficient.  Applying an operator to a
monomial then costs a signature lookup and one generator product per
window point; the plans live on the operator object, like its memo.

This module also builds every concrete operator family: the adjoint and
weight-density Witt representations, the N=2 and S'(2,alpha) quadratic
expansions, the differentials d and the Koszul operator, the sl(2) triple
on the relative model, the star involution, and the Hermitian forms.

Both forms are evaluated in closed form, monomial by monomial.  The Hodge
form is diagonal on canonical monomials, with weight the product of the
bosonic multiplicity factorials, 1/n for each e(n) and |n| for each t(n).
Under the Hermitian form {., .} a monomial pairs with at most one partner,
its keys with families swapped (g <-> b, e <-> t) and modes negated; the
coefficient is a sign, the bosonic multiplicity factorials and a phase of
i per e or b key and -i per t or g key.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .scalars import QI, ZERO, ONE, I
from .liealg import GradedBackend, StructureError
from .fock import (
    FockMonomial,
    FockVector,
    GenKey,
    _CREATOR_POSITIVE,
    _DUAL,
    make_monomial,
    normal_order_slots,
    product_on_monomial,
    scale_int,
)


class SlotSpec(NamedTuple):
    """One generator slot; mode = const + sum(coeffs[i] * var[i])."""

    family: str
    comp: int
    const: int
    coeffs: tuple

    def mode_at(self, vars_):
        return self.const + sum(map(operator.mul, self.coeffs, vars_))


@dataclass(frozen=True)
class TermShape:
    nvars: int
    slots: tuple
    coeff: Callable[[tuple], QI]
    normal: bool = True
    # filters: tuple of (var index, op) with op in {'>', '!='} against zero
    filters: tuple = ()


class Operator:
    """Base class: exact linear operator on FockVector with declared parity
    and (E, Deg_S, Deg_Lambda) shifts (None when the shift is not uniform)."""

    parity: int = 0
    shift: Optional[tuple] = None
    name: str = ""

    def __init__(self):
        self._memo = {}

    def apply_monomial(self, m: FockMonomial, relative=False) -> FockVector:
        key = (m, relative)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._apply_monomial(m, relative)
            self._memo[key] = hit
        return hit

    def _apply_monomial(self, m, relative):
        raise NotImplementedError

    def apply(self, v: FockVector, relative=False) -> FockVector:
        out = FockVector()
        for m, c in v.terms.items():
            for m2, c2 in self.apply_monomial(m, relative).terms.items():
                out.add_term(m2, c * c2)
        return out


def _slot_bounds(mono: FockMonomial) -> dict:
    """Mode bounds that ``mono`` puts on the slots that can contract one of
    its creators, keyed by (slot family, component).

    A g/e slot is a creator at mode >= 1 or must meet a b/t partner, so its
    mode is at least min(1, partner modes); a b/t slot is a creator at
    mode <= 0 or must meet a g/e partner, so its mode is at most
    max(0, partner modes).  Slots absent from the dict take the bare
    bound, 1 or 0.
    """
    bounds = {}
    for k in mono.bosons + mono.fermions:
        slot = (_DUAL[k.family], k.comp)
        if slot[0] in _CREATOR_POSITIVE:
            bounds[slot] = min(bounds.get(slot, 1), k.mode)
        else:
            bounds[slot] = max(bounds.get(slot, 0), k.mode)
    return bounds


def _interval(cons, v, lo=None, hi=None):
    """Tighten the bounds [lo, hi] of variable ``v`` (None: unbounded) by
    the constraints sign * cf[v] * var[v] >= s, for (sign, cf, s) in
    ``cons``."""
    for sign, cf, s in cons:
        cv = sign * cf[v]
        if cv > 0:
            nb = -(-s // cv)
            if lo is None or nb > lo:
                lo = nb
        elif cv < 0:
            nb = s // cv
            if hi is None or nb < hi:
                hi = nb
    return lo, hi


def _term_window(term: TermShape, bounds: dict, pad: int = 0):
    """Integer points of summation variables that can possibly contribute,
    given the ``_slot_bounds`` of the input monomial; ``pad`` widens each
    variable's range on both sides, which changes no output."""
    nv = term.nvars
    if nv == 0:
        return [()]
    # constraints sign * sum(cf[i] * var[i]) >= r: a g/e slot's mode is at
    # least its bound, a b/t slot's mode at most its bound
    cons = []
    for slot in term.slots:
        if slot.family in _CREATOR_POSITIVE:
            bound = bounds.get((slot.family, slot.comp), 1)
            cons.append((1, slot.coeffs, bound - slot.const))
        else:
            bound = bounds.get((slot.family, slot.comp), 0)
            cons.append((-1, slot.coeffs, slot.const - bound))
    for vi, op in term.filters:
        if op == ">":
            cons.append((1, tuple(1 if i == vi else 0 for i in range(nv)), 1))
    if nv == 1:
        # every constraint bounds the variable directly
        lo, hi = _interval(cons, 0)
        lo, hi = [lo], [hi]
    else:
        # fixed-point propagation: bound each variable by the constraints
        # with every other variable at its most favourable known bound
        lo = [None] * nv
        hi = [None] * nv
        for _ in range(50):
            box = (lo[:], hi[:])
            for v in range(nv):
                reduced = []
                for sign, cf, r in cons:
                    for i, ci in enumerate(cf):
                        ci *= sign
                        if ci and i != v:
                            e = hi[i] if ci > 0 else lo[i]
                            if e is None:
                                break
                            r -= ci * e
                    else:
                        reduced.append((sign, cf, r))
                lo[v], hi[v] = _interval(reduced, v, lo[v], hi[v])
            if (lo, hi) == box:
                break
    if any(x is None for x in lo) or any(x is None for x in hi):
        raise StructureError("summation window is not locally finite")
    ranges = [range(l - pad, h + pad + 1) for l, h in zip(lo, hi)]
    out = []
    for vs in itertools.product(*ranges):
        ok = True
        for vi, op in term.filters:
            if op == ">" and not vs[vi] > 0:
                ok = False
            if op == "!=" and vs[vi] == 0:
                ok = False
        if ok:
            out.append(vs)
    return out


class _TermPlan:
    """What one term shape's application to a monomial computes that depends
    only on the operator, kept across monomials.

    ``reads`` lists the (slot family, component) bounds ``_term_window``
    reads, with their defaults; their values form a monomial's bound
    signature, and ``windows`` maps each signature seen to its window.  A
    window is a list of points [keys, sign, coeff, vs], shared between
    windows through ``points``: the normal-ordered keys and sign of the
    assignment ``vs``, and its coefficient, None until a product at that
    point is first nonzero."""

    __slots__ = ("term", "reads", "windows", "points")

    def __init__(self, term: TermShape):
        self.term = term
        self.reads = tuple(
            ((s.family, s.comp), 1 if s.family in _CREATOR_POSITIVE else 0)
            for s in term.slots
        )
        self.windows = {}
        self.points = {}

    def window(self, bounds: dict) -> list:
        """The window of a monomial with these ``_slot_bounds``."""
        sig = tuple([bounds.get(slot, d) for slot, d in self.reads])
        hit = self.windows.get(sig)
        if hit is None:
            hit = self.windows[sig] = [
                self._point(vs) for vs in _term_window(self.term, bounds)
            ]
        return hit

    def _point(self, vs):
        point = self.points.get(vs)
        if point is None:
            term = self.term
            keys = [GenKey(s.family, s.comp, s.mode_at(vs)) for s in term.slots]
            sign = 1
            if term.normal:
                sign, keys = normal_order_slots(keys)
            point = self.points[vs] = [keys, sign, None, vs]
        return point


class FieldOperator(Operator):
    def __init__(self, terms, central=ZERO, name=""):
        super().__init__()
        self.terms = tuple(terms)
        self.central = QI.of(central)
        self.name = name
        self.parity, self.shift = self._declare()
        self._plans = tuple(_TermPlan(term) for term in self.terms)

    def _declare(self):
        parity = None
        shift = None
        for term in self.terms:
            p = sum(1 for s in term.slots if s.family in ("t", "e")) % 2
            ds = sum(+1 if s.family == "g" else -1 if s.family == "b" else 0
                     for s in term.slots)
            dl = sum(+1 if s.family == "e" else -1 if s.family == "t" else 0
                     for s in term.slots)
            de = 0
            for v in range(term.nvars):
                tot = sum(
                    (1 if s.family in _CREATOR_POSITIVE else -1) * s.coeffs[v]
                    for s in term.slots
                )
                if tot != 0:
                    raise StructureError("term energy shift depends on a summation variable")
            de = sum(
                (1 if s.family in _CREATOR_POSITIVE else -1) * s.const
                for s in term.slots
            )
            if parity is None:
                parity, shift = p, (de, ds, dl)
            elif (p, (de, ds, dl)) != (parity, shift):
                raise StructureError("terms disagree on parity or degree shifts")
        if parity is None:
            parity, shift = 0, (0, 0, 0)
        if not self.central.is_zero() and (parity != 0 or shift != (0, 0, 0)):
            raise StructureError("central summand requires an even shiftless operator")
        return parity, shift

    def _apply_monomial(self, m, relative):
        out = FockVector()
        if not self.central.is_zero():
            out.add_term(m, self.central)
        bounds = _slot_bounds(m)
        for plan in self._plans:
            for point in plan.window(bounds):
                keys, sign, c, vs = point
                factor, m2 = product_on_monomial(keys, m, relative)
                if not factor:
                    continue
                if c is None:
                    c = point[2] = plan.term.coeff(vs)
                if not c.is_zero():
                    out.add_term(m2, scale_int(c, sign * factor))
        return out


class SumOperator(Operator):
    def __init__(self, parts, central=ZERO, name=""):
        super().__init__()
        self.parts = tuple((QI.of(c), op) for c, op in parts)
        self.central = QI.of(central)
        self.name = name
        parities = {op.parity for _, op in self.parts}
        self.parity = parities.pop() if len(parities) == 1 else 0
        shifts = {op.shift for _, op in self.parts}
        self.shift = shifts.pop() if len(shifts) == 1 else None

    def _apply_monomial(self, m, relative):
        out = FockVector()
        if not self.central.is_zero():
            out.add_term(m, self.central)
        for c, op in self.parts:
            for m2, c2 in op.apply_monomial(m, relative).terms.items():
                out.add_term(m2, c * c2)
        return out


class ComposeOperator(Operator):
    """Apply ``inner`` first, then ``outer``."""

    def __init__(self, outer, inner, name=""):
        super().__init__()
        self.outer = outer
        self.inner = inner
        self.name = name
        self.parity = (outer.parity + inner.parity) % 2
        if outer.shift is not None and inner.shift is not None:
            self.shift = tuple(a + b for a, b in zip(outer.shift, inner.shift))

    def _apply_monomial(self, m, relative):
        return self.outer.apply(self.inner.apply_monomial(m, relative), relative)


class ProjectedOperator(Operator):
    """Keep only the output monomials whose fermionic bidegree (a, b)
    differs from the input's by the given (da, db)."""

    def __init__(self, op, da, db, name=""):
        super().__init__()
        self.op = op
        self.da = da
        self.db = db
        self.name = name
        self.parity = op.parity
        self.shift = op.shift

    def _apply_monomial(self, m, relative):
        _, _, _, a0, b0 = m.degrees()
        out = FockVector()
        for m2, c in self.op.apply_monomial(m, relative).terms.items():
            _, _, _, a, b = m2.degrees()
            if (a, b) == (a0 + self.da, b0 + self.db):
                out.add_term(m2, c)
        return out


def super_commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - (-1)^{p(a)p(b)} ba, evaluated pointwise."""
    sign = ONE if (a.parity and b.parity) else QI(-1)
    return SumOperator(
        [(ONE, ComposeOperator(a, b)), (sign, ComposeOperator(b, a))],
        name=f"[{a.name},{b.name}]",
    )


# -- builders ----------------------------------------------------------


def _const(c):
    c = QI.of(c)
    return lambda vs, _c=c: _c


def _half(x):
    return QI.of(x) / QI(2)


def _quad(fam1, c1, k1, fam2, c2, k2, coeff, normal=True, filters=()):
    """One-variable term fam1(c1, m + k1) fam2(c2, m + k2)."""
    return TermShape(
        1,
        (SlotSpec(fam1, c1, k1, (1,)), SlotSpec(fam2, c2, k2, (1,))),
        coeff,
        normal,
        filters,
    )


def build_theta_adjoint(backend: GradedBackend, j: int, n: int) -> FieldOperator:
    """theta(x) = rho(x) + pi(x) for x the j-th generator at mode n."""
    terms = []
    if backend.kind == "loop":
        spec = backend.spec
        for a in range(spec.dim):
            row = spec.bracket(j, a)
            for k in range(spec.dim):
                cc = row[k]
                if cc.is_zero():
                    continue
                terms.append(_quad("t", k, n, "e", a, 0, _const(cc)))
                terms.append(_quad("b", k, n, "g", a, 0, _const(cc)))
    elif backend.kind == "witt":
        if j != 0:
            raise StructureError("witt backend has a single component")
        coeff = lambda vs: QI(n - vs[0])
        terms.append(_quad("t", 0, n, "e", 0, 0, coeff))
        terms.append(_quad("b", 0, n, "g", 0, 0, coeff))
    else:
        raise StructureError("adjoint theta needs a Lie backend (loop or witt)")
    return FieldOperator(terms, name=f"theta[{j},{n}]")


def build_witt_rep(backend: GradedBackend, n: int) -> FieldOperator:
    """theta(L_n) on the weight-density module: coefficient
    (-m + mu - n*lam + lam) on both tensor factors."""
    if backend.kind != "fmu":
        raise StructureError("build_witt_rep needs an fmu backend")
    lam, mu = backend.lam, backend.mu
    shift = mu - (QI(n) - ONE) * lam
    coeff = lambda vs: QI(-vs[0]) + shift
    terms = [
        _quad("t", 0, n, "e", 0, 0, coeff),
        _quad("b", 0, n, "g", 0, 0, coeff),
    ]
    return FieldOperator(terms, name=f"Lwitt[{n}]")


def _loop_witt_L(backend, n, alpha=ZERO):
    """theta(L_n) on the loop complex: coefficient -(m - alpha/2)."""
    half_a = _half(alpha)
    coeff = lambda vs: -(QI(vs[0]) - half_a)
    terms = []
    for a in range(backend.dim):
        terms.append(_quad("t", a, n, "e", a, 0, coeff))
        terms.append(_quad("b", a, n, "g", a, 0, coeff))
    return FieldOperator(terms, name=f"Lwitt[{n}]")


N2_SYMBOLS = ("L", "H", "h", "p")


def build_n2_family(backend: GradedBackend, symbol: str, n: int) -> Operator:
    """The N=2 generators: Virasoro L (assembled), Heisenberg H, and the odd
    pair h, p; on a weight-density (fmu) or loop backend."""
    if backend.kind == "fmu":
        lam, mu = backend.lam, backend.mu
        if symbol == "H":
            terms = [
                _quad("t", 0, 0, "e", 0, n, _const(lam)),
                _quad("b", 0, 0, "g", 0, n, _const(lam - ONE)),
            ]
            central = mu if n == 0 else ZERO
            return FieldOperator(terms, central, name=f"H[{n}]")
        if symbol == "h":
            return FieldOperator(
                [_quad("g", 0, n, "t", 0, 0, _const(ONE), normal=False)],
                name=f"h[{n}]",
            )
        if symbol == "p":
            shift = mu + (QI(n) + ONE) * lam
            coeff = lambda vs: QI(vs[0]) - shift
            return FieldOperator(
                [_quad("b", 0, -n, "e", 0, 0, coeff, normal=False)],
                name=f"p[{n}]",
            )
        if symbol == "L":
            return SumOperator(
                [
                    (QI(-1), build_witt_rep(backend, -n)),
                    (_half(n + 1), build_n2_family(backend, "H", n)),
                ],
                name=f"L[{n}]",
            )
        raise StructureError(f"unknown N=2 symbol {symbol!r}")
    if backend.kind == "loop":
        if symbol == "H":
            terms = [
                _quad("g", a, n, "b", a, 0, _const(QI(-1)))
                for a in range(backend.dim)
            ]
            return FieldOperator(terms, name=f"H[{n}]")
        if symbol == "h":
            terms = [
                _quad("g", a, n, "t", a, 0, _const(ONE), normal=False)
                for a in range(backend.dim)
            ]
            return FieldOperator(terms, name=f"h[{n}]")
        if symbol == "p":
            coeff = lambda vs: QI(vs[0])
            terms = [
                _quad("b", a, -n, "e", a, 0, coeff, normal=False)
                for a in range(backend.dim)
            ]
            return FieldOperator(terms, name=f"p[{n}]")
        if symbol == "L":
            return SumOperator(
                [
                    (QI(-1), _loop_witt_L(backend, -n)),
                    (_half(n + 1), build_n2_family(backend, "H", n)),
                ],
                name=f"L[{n}]",
            )
        raise StructureError(f"unknown N=2 symbol {symbol!r}")
    raise StructureError("N=2 family needs an fmu or loop backend")


S2A_SYMBOLS = ("Lalpha", "E", "H", "F", "h", "p", "x", "y", "HH")


def build_s2alpha_family(
    backend: GradedBackend, alpha, symbol: str, n: int = 0
) -> Operator:
    """The S'(2, alpha) quadratic expansions on a loop complex."""
    if backend.kind != "loop":
        raise StructureError("S'(2,alpha) family needs a loop backend")
    alpha = QI.of(alpha)
    D = backend.dim
    half_a = _half(alpha)
    if symbol == "H":
        terms = [_quad("b", a, 0, "g", a, n, _const(QI(-1))) for a in range(D)]
        return FieldOperator(terms, name=f"H[{n}]")
    if symbol == "Lalpha":
        central = (alpha / QI(4) - alpha * alpha / QI(8)) * QI(D) if n == 0 else ZERO
        return SumOperator(
            [
                (QI(-1), _loop_witt_L(backend, -n, alpha)),
                ((QI(n) + ONE - alpha) / QI(2), build_s2alpha_family(backend, alpha, "H", n)),
            ],
            central,
            name=f"Lalpha[{n}]",
        )
    if symbol == "h":
        terms = [
            _quad("g", a, n, "t", a, 0, _const(ONE), normal=False) for a in range(D)
        ]
        return FieldOperator(terms, name=f"h[{n}]")
    if symbol == "p":
        coeff = lambda vs: QI(vs[0]) - half_a
        terms = [
            _quad("b", a, -n, "e", a, 0, coeff, normal=False) for a in range(D)
        ]
        return FieldOperator(terms, name=f"p[{n}]")
    if symbol == "E":
        terms = []
        for a in range(D):
            terms.append(
                TermShape(
                    1,
                    (SlotSpec("g", a, 0, (1,)), SlotSpec("g", a, 1 + n, (-1,))),
                    _const(-_half(I)),
                    normal=False,
                )
            )
        return FieldOperator(terms, name=f"E[{n}]")
    if symbol == "F":
        terms = []
        for a in range(D):
            terms.append(
                TermShape(
                    1,
                    (SlotSpec("b", a, 0, (1,)), SlotSpec("b", a, 1 - n, (-1,))),
                    _const(-_half(I)),
                    normal=False,
                )
            )
        return FieldOperator(terms, name=f"F[{n}]")
    if symbol == "y":
        terms = []
        for a in range(D):
            terms.append(
                TermShape(
                    1,
                    (SlotSpec("b", a, 0, (1,)), SlotSpec("t", a, 1 - n, (-1,))),
                    _const(I),
                    normal=False,
                )
            )
        return FieldOperator(terms, name=f"y[{n}]")
    if symbol == "x":
        coeff = lambda vs: -I * (QI(vs[0]) - half_a)
        terms = []
        for a in range(D):
            terms.append(
                TermShape(
                    1,
                    (SlotSpec("g", a, 1 + n, (-1,)), SlotSpec("e", a, 0, (1,))),
                    coeff,
                    normal=False,
                )
            )
        return FieldOperator(terms, name=f"x[{n}]")
    if symbol == "HH":
        terms = [_quad("t", a, 0, "e", a, 0, _const(QI(-1))) for a in range(D)]
        return FieldOperator(terms, name="HH")
    raise StructureError(f"unknown S'(2,alpha) symbol {symbol!r}")


SL2_SYMBOLS = ("EE", "HH", "FF")


def build_sl2_EHF(backend: GradedBackend, symbol: str) -> FieldOperator:
    """The sl(2) triple on the relative model (nonzero fermionic modes)."""
    if backend.kind != "loop":
        raise StructureError("sl(2) triple needs a loop backend")
    if backend.spec.form is None:
        raise StructureError("sl(2) triple needs an invariant form")
    D = backend.dim
    terms = []
    if symbol == "EE":
        for a in range(D):
            terms.append(
                TermShape(
                    1,
                    (SlotSpec("e", a, 0, (-1,)), SlotSpec("e", a, 0, (1,))),
                    lambda vs: I * QI(vs[0]),
                    normal=False,
                    filters=((0, ">"),),
                )
            )
        return FieldOperator(terms, name="EE")
    if symbol == "HH":
        for a in range(D):
            terms.append(
                _quad("t", a, 0, "e", a, 0, _const(QI(-1)), filters=((0, "!="),))
            )
        return FieldOperator(terms, name="HH")
    if symbol == "FF":
        for a in range(D):
            terms.append(
                TermShape(
                    1,
                    (SlotSpec("t", a, 0, (1,)), SlotSpec("t", a, 0, (-1,))),
                    lambda vs: -I / QI(vs[0]),
                    normal=False,
                    filters=((0, ">"),),
                )
            )
        return FieldOperator(terms, name="FF")
    raise StructureError(f"unknown sl(2) symbol {symbol!r}")


def build_differential_parts(backend: GradedBackend):
    """The two cubic summands of d: the fermionic piece (coefficient 1/2)
    and the mixed piece."""
    t1 = []
    t2 = []

    def add(comp_a, comp_b, comp_k, coeff1, coeff2):
        t1.append(
            TermShape(
                2,
                (
                    SlotSpec("t", comp_k, 0, (1, 1)),
                    SlotSpec("e", comp_b, 0, (0, 1)),
                    SlotSpec("e", comp_a, 0, (1, 0)),
                ),
                coeff1,
            )
        )
        t2.append(
            TermShape(
                2,
                (
                    SlotSpec("b", comp_k, 0, (1, 1)),
                    SlotSpec("g", comp_b, 0, (0, 1)),
                    SlotSpec("e", comp_a, 0, (1, 0)),
                ),
                coeff2,
            )
        )

    if backend.kind == "loop":
        spec = backend.spec
        for a in range(spec.dim):
            for b in range(spec.dim):
                row = spec.bracket(a, b)
                for k in range(spec.dim):
                    cc = row[k]
                    if cc.is_zero():
                        continue
                    add(a, b, k, _const(_half(ONE) * cc), _const(cc))
    elif backend.kind == "witt":
        coeff = lambda vs: QI(vs[0] - vs[1])
        add(0, 0, 0, lambda vs: _half(ONE) * QI(vs[0] - vs[1]), coeff)
    else:
        raise StructureError("differential d needs a Lie backend (loop or witt)")
    return FieldOperator(t1, name="d_ferm"), FieldOperator(t2, name="d_mixed")


def build_differential_d(backend: GradedBackend) -> FieldOperator:
    d1, d2 = build_differential_parts(backend)
    return FieldOperator(d1.terms + d2.terms, name="d")


def build_koszul_h(backend: GradedBackend) -> FieldOperator:
    terms = [
        _quad("g", a, 0, "t", a, 0, _const(ONE), normal=False)
        for a in range(backend.dim)
    ]
    return FieldOperator(terms, name="koszul")


def split_d1_d2(d: Operator):
    """Bidegree components: d1 raises a by 1, d2 lowers b by 1."""
    return (
        ProjectedOperator(d, 1, 0, name="d1"),
        ProjectedOperator(d, 0, -1, name="d2"),
    )


def build_dc(d: Operator) -> Operator:
    d1, d2 = split_d1_d2(d)
    return SumOperator([(I, d1), (-I, d2)], name="dc")


# -- star and the Hermitian forms --------------------------------------


def star_monomial(m: FockMonomial):
    """(sign, monomial): tau(u_m) -> eps(u'_{-m}) and eps(u'_n) -> tau(u_{-n}),
    the tau-block images written first, then canonicalized."""
    if m.has_zero_mode_fermion():
        raise StructureError("star is defined on the relative model only")
    seq = []
    for k in m.fermions:
        if k.family == "t":
            seq.append(GenKey("e", k.comp, -k.mode))
    for k in m.fermions:
        if k.family == "e":
            seq.append(GenKey("t", k.comp, -k.mode))
    sign, mono = make_monomial(list(m.bosons) + seq)
    if mono is None:
        raise StructureError("star repeated a fermionic creator")
    return sign, mono


def star(v: FockVector) -> FockVector:
    out = FockVector()
    for m, c in v.terms.items():
        sign, m2 = star_monomial(m)
        out.add_term(m2, c if sign == 1 else -c)
    return out


def _boson_factorials(m: FockMonomial) -> int:
    return math.prod(math.factorial(m.bosons.count(k)) for k in set(m.bosons))


_I_POWERS = (ONE, I, QI(-1), -I)
# the {., .} phase of each key of a monomial, as a power of i: the adjoint
# of e(n) is i e(-n), that of any other generator -i times the same family
# at mode -n, and a 'b' annihilator contracts its partner with -1
_HERM_PHASE = {"e": 1, "b": 1, "t": -1, "g": -1}


def _hermitian_partner(m: FockMonomial):
    """(coefficient, partner) with {m, partner} = coefficient, or None when
    ``m`` pairs with nothing; see ``hermitian_form``."""
    keys = m.bosons + m.fermions
    swapped = [GenKey(_DUAL[k.family], k.comp, -k.mode) for k in keys]
    if not all(k.is_creator() for k in swapped):
        return None
    sign, partner = make_monomial(swapped)
    phase = _I_POWERS[sum(_HERM_PHASE[k.family] for k in keys) % 4]
    return scale_int(phase, sign * _boson_factorials(m)), partner


def hermitian_form(v: FockVector, w: FockVector) -> QI:
    """{v, w}: sesquilinear (antilinear in v), {vac, vac} = 1, with each
    generator adjoint to -i (+i for e) times the same family at the
    opposite mode.  In closed form a monomial m pairs only with its
    partner: each key of m with its family swapped (g <-> b, e <-> t) and
    its mode negated, in the key order of m, canonicalized by
    ``make_monomial``.  {m, partner} is that sign times the bosonic
    multiplicity factorials of m times i per e or b key and -i per t or g
    key.  A monomial with b(0) or t(0) has no partner, which makes those
    directions degenerate."""
    total = ZERO
    for m, c in v.terms.items():
        hit = _hermitian_partner(m)
        if hit is not None and hit[1] in w.terms:
            total = total + c.conj() * hit[0] * w.terms[hit[1]]
    return total


def hodge_form(v: FockVector, w: FockVector) -> QI:
    """Positive-definite Hodge inner product on the relative model:
    sesquilinear (antilinear in v) and diagonal on canonical monomials,
    {m, m} = the bosonic multiplicity factorials of m times 1/n for each
    e(n) and |n| for each t(n) in m.  The weights make the homotopy
    operator, the twisted homotopy operator and the Lefschetz lowering
    operator the exact adjoints of the Koszul differential, the twisted
    differential and the raising operator, and every graded piece has an
    invertible Gram matrix.  Raises StructureError when a monomial of v
    has a mode-0 fermion."""
    total = ZERO
    for m, c in v.terms.items():
        if m.has_zero_mode_fermion():
            raise StructureError(
                "the Hodge form is defined on the relative model only"
            )
        if m in w.terms:
            num = math.prod(-k.mode for k in m.fermions if k.family == "t")
            den = math.prod(k.mode for k in m.fermions if k.family == "e")
            weight = Fraction(_boson_factorials(m) * num, den)
            total = total + c.conj() * QI(weight) * w.terms[m]
    return total


def pairing_form(v: FockVector, w: FockVector) -> QI:
    """(v, w) = {i^(a+b) star v, w} on the relative model."""
    u = FockVector()
    for m, c in v.terms.items():
        _, _, _, a, b = m.degrees()
        sign, m2 = star_monomial(m)
        factor = _I_POWERS[(a + b) % 4]
        coeff = c * factor
        u.add_term(m2, coeff if sign == 1 else -coeff)
    return hermitian_form(u, w)
