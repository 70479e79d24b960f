"""Abstract superconformal algebras as exact structure-constant tables.

Covers the one-parameter family S'(2, alpha) with its central extension,
the N=2 subalgebra in integer-indexed odd coordinates, the spectral flow,
the deg grading, the exterior sl(2) of derivations, the Kahler operator
superalgebra with its embedding psi, and an independent super-vector-field
model over C[t, t^-1] (x) Grassmann(theta1, theta2) that realizes the same
brackets and guards the typed tables against transcription drift.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QI, ZERO, ONE
from .liealg import StructureError

EVEN_SYMBOLS = ("L", "E", "H", "F")
ODD_SYMBOLS = ("h", "p", "x", "y")
SYMBOLS = EVEN_SYMBOLS + ODD_SYMBOLS
_HALF = QI(Fraction(1, 2))
_QUARTER = QI(Fraction(1, 4))
_SIXTH = QI(Fraction(1, 6))
_TWENTYFOURTH = QI(Fraction(1, 24))
_MINUS_ONE = QI(-1)
# key of the central coordinate in a bracket accumulator (see _bracket_into)
_CENTRAL = None
_new = object.__new__


def parity_of(sym: str) -> int:
    if sym in EVEN_SYMBOLS:
        return 0
    if sym in ODD_SYMBOLS:
        return 1
    raise StructureError(f"unknown symbol {sym!r}")


class SCAElement:
    """Finite scalar combination of basis symbols (sym, n) plus a central
    coordinate.  No zero coefficient is ever stored."""

    __slots__ = ("coeffs", "central")

    def __init__(self, coeffs=None, central=ZERO):
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                c = QI.of(c)
                if not c.is_zero():
                    self.coeffs[key] = c
        self.central = QI.of(central)

    @staticmethod
    def _raw(coeffs, central=ZERO) -> "SCAElement":
        """An element holding ``coeffs`` itself; its values must already be
        nonzero ``QI``s and ``central`` a ``QI``, as nothing is checked."""
        el = _new(SCAElement)
        el.coeffs = coeffs
        el.central = central
        return el

    @staticmethod
    def basis(sym, n, coeff=ONE) -> "SCAElement":
        parity_of(sym)
        return SCAElement({(sym, n): coeff})

    def add_term(self, sym, n, c):
        _accumulate(self.coeffs, (sym, n), c)

    def __add__(self, other):
        out = SCAElement(dict(self.coeffs), self.central + other.central)
        for (sym, n), c in other.coeffs.items():
            out.add_term(sym, n, c)
        return out

    def __sub__(self, other):
        return self + other.scale(_MINUS_ONE)

    def scale(self, c) -> "SCAElement":
        c = QI.of(c)
        return SCAElement(
            {k: v * c for k, v in self.coeffs.items()}, self.central * c
        )

    def is_zero(self) -> bool:
        return not self.coeffs and self.central.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, SCAElement)
            and self.coeffs == other.coeffs
            and self.central == other.central
        )

    def parity(self):
        ps = {parity_of(sym) for (sym, _n) in self.coeffs}
        if len(ps) > 1:
            return None
        if not ps:
            return 0
        p = ps.pop()
        if p == 1 and not self.central.is_zero():
            return None
        return p

    def items(self):
        return sorted(self.coeffs.items())

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = [f"({c}) {sym}[{n}]" for (sym, n), c in self.items()]
        if not self.central.is_zero():
            bits.append(f"({self.central}) C")
        return " + ".join(bits)


def _el(*terms, central=ZERO):
    """A basis bracket from (coefficient, sym, n) terms with distinct keys;
    coefficients are ints or ``QI``s, and zero ones are dropped."""
    coeffs = {}
    for c, sym, n in terms:
        if c:
            coeffs[(sym, n)] = c if type(c) is QI else QI(c)
    return SCAElement._raw(coeffs, central)


def _delta(n, k):
    return n == -k


def s2a_basis_bracket(alpha, sa, na, sb, nb, include_cocycle=True) -> SCAElement:
    """Bracket of basis elements per the defining table; unlisted ordered
    pairs are resolved by super-antisymmetry, absent pairs vanish."""
    alpha = QI.of(alpha)
    out = _s2a_listed(alpha, sa, na, sb, nb, include_cocycle)
    if out is not None:
        return out
    flipped = _s2a_listed(alpha, sb, nb, sa, na, include_cocycle)
    if flipped is None:
        return SCAElement._raw({})
    if parity_of(sa) and parity_of(sb):
        return flipped
    return SCAElement._raw(
        {key: -c for key, c in flipped.coeffs.items()}, -flipped.central
    )


def _s2a_listed(alpha, sa, n, sb, k, include_cocycle):
    """[sa[n], sb[k]] for an ordered pair the defining table lists, else
    None.  The table is keyed by the first symbol, then the second."""
    s = n + k
    terms = None
    cz = ZERO
    if sa == "L":
        if sb == "L":
            terms = ((n - k, "L", s),)
            cz = QI(Fraction(n * (n * n - 1), 12)) if _delta(n, k) else ZERO
        elif sb in ("E", "H", "F"):
            terms = ((-k, sb, s),)
        elif sb in ("h", "y"):
            terms = (((QI(n - 2 * k + 1) - alpha) * _HALF, sb, s),)
        elif sb in ("p", "x"):
            terms = (((QI(n - 2 * k - 1) + alpha) * _HALF, sb, s),)
    elif sa == "H":
        if sb == "E":
            terms = ((2, "E", s),)
        elif sb == "F":
            terms = ((-2, "F", s),)
        elif sb == "H":
            terms = ()
            cz = QI(Fraction(n, 3)) if _delta(n, k) else ZERO
        elif sb in ("h", "x"):
            terms = ((1, sb, s),)
        elif sb in ("p", "y"):
            terms = ((-1, sb, s),)
    elif sa == "E":
        if sb == "F":
            terms = ((1, "H", s),)
            cz = QI(Fraction(n, 6)) if _delta(n, k) else ZERO
        elif sb == "y":
            terms = ((1, "h", s),)
        elif sb == "p":
            terms = ((1, "x", s),)
    elif sa == "F":
        if sb == "h":
            terms = ((1, "y", s),)
        elif sb == "x":
            terms = ((1, "p", s),)
    elif sa == "h":
        if sb == "x":
            terms = ((QI(k + 1 - n) - alpha, "E", s),)
        elif sb == "p":
            terms = ((1, "L", s), (-(QI(k - n + 1) - alpha) * _HALF, "H", s))
            if _delta(n, k):
                t = QI(n - 1) + (alpha + ONE) * _HALF
                cz = (t * t - _QUARTER) * _SIXTH
    elif sa == "p":
        if sb == "y":
            terms = ((QI(k - n - 1) + alpha, "F", s),)
    elif sa == "x":
        if sb == "y":
            terms = ((-1, "L", s), ((QI(k - n - 1) + alpha) * _HALF, "H", s))
            if _delta(n, k):
                t = QI(-n - 1) + (alpha + ONE) * _HALF
                cz = -(t * t - _QUARTER) * _SIXTH
    if terms is None:
        return None
    return _el(*terms, central=cz if include_cocycle else ZERO)


def _bracket_into(acc, alpha, a, b, sign, include_cocycle=True):
    """Add sign * [a, b] into ``acc``, a dict from basis keys (sym, n) to
    ``QI`` that holds the central coordinate under the key ``_CENTRAL``.
    ``sign`` is +1 or -1 and ``alpha`` a ``QI``.  Entries that cancel stay
    in ``acc`` as zeros; the caller drops them once, at the end."""
    for (sa, na), ca in a.coeffs.items():
        for (sb, nb), cb in b.coeffs.items():
            br = s2a_basis_bracket(alpha, sa, na, sb, nb, include_cocycle)
            # basis vectors carry the ONE singleton: skip those products
            f = cb if ca is ONE else ca if cb is ONE else ca * cb
            for key, c in br.coeffs.items():
                _add_into(acc, key, c if f is ONE else c * f, sign)
            if br.central:
                c = br.central
                _add_into(acc, _CENTRAL, c if f is ONE else c * f, sign)


def _accumulate(acc, key, c):
    """acc[key] += c, dropping the key when the sum is zero."""
    cur = acc.get(key)
    if cur is not None:
        c = cur + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


def _add_into(acc, key, c, sign):
    """acc[key] += sign * c, for sign +1 or -1."""
    cur = acc.get(key)
    if sign > 0:
        acc[key] = c if cur is None else cur + c
    else:
        acc[key] = -c if cur is None else cur - c


def s2a_bracket(alpha, a: SCAElement, b: SCAElement, include_cocycle=True):
    acc = {}
    _bracket_into(acc, QI.of(alpha), a, b, 1, include_cocycle)
    central = acc.pop(_CENTRAL, ZERO)
    return SCAElement._raw({key: c for key, c in acc.items() if c}, central)


def super_jacobi_failure(alpha, basis):
    """The first triple (ka, kb, kc) of basis keys (sym, n), in
    ``product(basis, repeat=3)`` order, at which the graded Jacobi identity
    with the central cocycle,
    [A,[B,C]] - [[A,B],C] - (-1)^(|A||B|) [B,[A,C]] = 0,
    fails for the basis vectors A, B, C; None when it holds on every
    triple.  The three terms of a triple go into one accumulator, and
    [A,B] is formed once per pair."""
    alpha = QI.of(alpha)
    for ka in basis:
        A = SCAElement._raw({ka: ONE})
        for kb in basis:
            B = SCAElement._raw({kb: ONE})
            AB = s2a_basis_bracket(alpha, *ka, *kb)
            s3 = 1 if parity_of(ka[0]) and parity_of(kb[0]) else -1
            for kc in basis:
                acc = {}
                _bracket_into(acc, alpha, A, s2a_basis_bracket(alpha, *kb, *kc), 1)
                _bracket_into(acc, alpha, AB, SCAElement._raw({kc: ONE}), -1)
                _bracket_into(acc, alpha, B, s2a_basis_bracket(alpha, *ka, *kc), s3)
                if any(acc.values()):
                    return ka, kb, kc
    return None


N2_SYMBOLS = ("L", "H", "h", "p")


def n2_bracket(a: SCAElement, b: SCAElement) -> SCAElement:
    """The N=2 table in integer-indexed odd coordinates (the alpha = 0
    slice of the family restricted to L, H, h, p)."""
    for el in (a, b):
        for sym, _n in el.coeffs:
            if sym not in N2_SYMBOLS:
                raise StructureError(f"{sym!r} is not an N=2 symbol")
    return s2a_bracket(ZERO, a, b)


def spectral_flow(alpha, a: SCAElement) -> SCAElement:
    """Identification of the N=2 subalgebra at parameter alpha with the
    one at alpha = 0; a homomorphism of the bracketed tables."""
    alpha = QI.of(alpha)
    out = SCAElement(central=a.central)
    for (sym, n), c in a.coeffs.items():
        if sym == "L":
            out.add_term("L", n, c)
            out.add_term("H", n, -c * alpha * _HALF)
            if n == 0:
                out.central = out.central + c * alpha * alpha * _TWENTYFOURTH
        elif sym == "H":
            out.add_term("H", n, c)
            if n == 0:
                out.central = out.central - c * alpha * _SIXTH
        elif sym in ("h", "p"):
            out.add_term(sym, n, c)
        else:
            raise StructureError(f"{sym!r} is outside the N=2 subalgebra")
    return out


def deg(alpha, sym: str, n: int) -> QI:
    alpha = QI.of(alpha)
    if sym in ("L", "H", "h", "p"):
        return QI(n)
    if sym in ("E", "x"):
        return QI(n + 1) - alpha
    if sym in ("F", "y"):
        return QI(n - 1) + alpha
    raise StructureError(f"unknown symbol {sym!r}")


def L0_element(alpha) -> SCAElement:
    """The grading element: bracketing with it returns deg times identity."""
    alpha = QI.of(alpha)
    return _el((-1, "L", 0)) + SCAElement({("H", 0): (ONE - alpha) * _HALF})


DER_SYMBOLS = ("EE", "HH", "FF")


def derext_action(alpha, D: str, a: SCAElement) -> SCAElement:
    """Action of the exterior sl(2) triple on S'(2, alpha); the raising and
    lowering elements exist only for integer alpha."""
    alpha = QI.of(alpha)
    if D not in DER_SYMBOLS:
        raise StructureError(f"unknown derivation {D!r}")
    if D in ("EE", "FF"):
        if not (alpha.is_rational() and alpha.re.denominator == 1):
            raise StructureError(
                "raising and lowering exterior derivations need integer alpha"
            )
        ia = int(alpha.re)
    out = SCAElement()
    for (sym, n), c in a.coeffs.items():
        if sym in EVEN_SYMBOLS:
            continue
        if D == "EE":
            if sym == "h":
                out.add_term("x", n - 1 + ia, c)
            elif sym == "y":
                out.add_term("p", n - 1 + ia, c)
        elif D == "FF":
            if sym == "x":
                out.add_term("h", n + 1 - ia, c)
            elif sym == "p":
                out.add_term("y", n + 1 - ia, c)
        else:
            sign = {"x": 1, "p": 1, "h": -1, "y": -1}[sym]
            out.add_term(sym, n, c * QI(sign))
    return out


# -- the Kahler operator superalgebra and psi --------------------------

KAHLER_SYMBOLS = ("lap", "L", "H", "Lam", "d", "ds", "dc", "dcs")
_KAHLER_ODD = ("d", "ds", "dc", "dcs")


def kahler_parity(sym: str) -> int:
    return 1 if sym in _KAHLER_ODD else 0


def _ktable(sa, sb):
    table = {
        ("L", "Lam"): (("H", 1),),
        ("H", "L"): (("L", 2),),
        ("H", "Lam"): (("Lam", -2),),
        ("d", "ds"): (("lap", 1),),
        ("dc", "dcs"): (("lap", 1),),
        ("H", "d"): (("d", 1),),
        ("H", "ds"): (("ds", -1),),
        ("H", "dc"): (("dc", 1),),
        ("H", "dcs"): (("dcs", -1),),
        ("L", "ds"): (("dc", -1),),
        ("L", "dcs"): (("d", 1),),
        ("Lam", "d"): (("dcs", 1),),
        ("Lam", "dc"): (("ds", -1),),
    }
    return table.get((sa, sb))


def kahler_bracket(a: dict, b: dict) -> dict:
    """Bracket of scalar combinations over the classical operator symbols;
    the Laplacian is central."""
    out = {}

    for sa, ca in a.items():
        for sb, cb in b.items():
            hit = _ktable(sa, sb)
            sign = ONE
            if hit is None:
                hit = _ktable(sb, sa)
                if hit is None:
                    continue
                sign = ONE if kahler_parity(sa) and kahler_parity(sb) else QI(-1)
            for sym, k in hit:
                _accumulate(out, sym, ca * cb * QI(k) * sign)
    return out


def psi(sym: str) -> SCAElement:
    """Embedding of the classical operator symbols into the deg-zero part
    of the alpha = 0 family (centerless brackets intertwine the tables)."""
    if sym == "lap":
        return L0_element(ZERO)
    table = {
        "L": ("E", -1),
        "H": ("H", 0),
        "Lam": ("F", 1),
        "d": ("h", 0),
        "dc": ("x", -1),
        "dcs": ("y", 1),
    }
    if sym in table:
        s, n = table[sym]
        return SCAElement.basis(s, n)
    if sym == "ds":
        return SCAElement.basis("p", 0, QI(-1))
    raise StructureError(f"unknown classical symbol {sym!r}")


# -- super vector field oracle -----------------------------------------
#
# Coefficients live in C[t, t^-1] (x) Grassmann(theta1, theta2); a term is
# ((slot, theta_mask, t_power) -> scalar) with slot in {'t', '1', '2'} and
# theta_mask bits 0/1 for theta1/theta2.

_SLOTS = ("t", "1", "2")


def _slot_parity(slot):
    return 0 if slot == "t" else 1


def _mask_parity(mask):
    return bin(mask).count("1") % 2


def _grassmann_mul(m1, m2):
    if m1 & m2:
        return 0, None
    sign = 1
    # count inversions when concatenating ordered products
    for i in (0, 1):
        if m2 & (1 << i):
            higher = sum(1 for j in (0, 1) if j > i and (m1 & (1 << j)))
            if higher % 2:
                sign = -sign
    return sign, m1 | m2


def _theta_derive(mask, i):
    """Left derivative by theta_i: (sign, new mask) or (0, None)."""
    bit = 1 << i
    if not (mask & bit):
        return 0, None
    below = sum(1 for j in (0, 1) if j < i and (mask & (1 << j)))
    return (-1 if below % 2 else 1), mask & ~bit


class SuperVectorField:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = QI.of(c)
                if not c.is_zero():
                    self.terms[key] = c

    def add_term(self, slot, mask, tpow, c):
        _accumulate(self.terms, (slot, mask, tpow), c)

    def __add__(self, other):
        out = SuperVectorField(dict(self.terms))
        for (slot, mask, tpow), c in other.terms.items():
            out.add_term(slot, mask, tpow, c)
        return out

    def __sub__(self, other):
        return self + other.scale(QI(-1))

    def scale(self, c):
        c = QI.of(c)
        return SuperVectorField({k: v * c for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SuperVectorField) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (slot, mask, tpow), c in sorted(self.terms.items()):
            th = ("" if not (mask & 1) else "th1") + ("" if not (mask & 2) else "th2")
            bits.append(f"({c}) t^{tpow}{th} d_{slot}")
        return " + ".join(bits)

    def homogeneous_parts(self):
        parts = {0: SuperVectorField(), 1: SuperVectorField()}
        for (slot, mask, tpow), c in self.terms.items():
            p = (_mask_parity(mask) + _slot_parity(slot)) % 2
            parts[p].add_term(slot, mask, tpow, c)
        return parts


def _derive_function(slot, func):
    """Apply the derivation slot to a function dict {(mask, tpow): coeff}."""
    out = {}

    for (mask, tpow), c in func.items():
        if slot == "t":
            if tpow != 0:
                _accumulate(out, (mask, tpow - 1), c * QI(tpow))
        else:
            i = 0 if slot == "1" else 1
            sign, m2 = _theta_derive(mask, i)
            if sign:
                _accumulate(out, (m2, tpow), c * QI(sign))
    return out


def _apply_field_to_function(x: SuperVectorField, func):
    """X(g) for a coefficient function g: Grassmann-multiply f_a * d_a(g)."""
    out = {}

    for (slot, mask, tpow), c in x.terms.items():
        dg = _derive_function(slot, func)
        for (m2, p2), c2 in dg.items():
            sign, m3 = _grassmann_mul(mask, m2)
            if sign:
                _accumulate(out, (m3, tpow + p2), c * c2 * QI(sign))
    return out


def vf_bracket(x: SuperVectorField, y: SuperVectorField) -> SuperVectorField:
    """Super bracket of derivations, computed on homogeneous parts."""
    out = SuperVectorField()
    for px, xp in x.homogeneous_parts().items():
        if xp.is_zero():
            continue
        for py, yp in y.homogeneous_parts().items():
            if yp.is_zero():
                continue
            sign = QI(1 if px and py else -1)
            for (slot, mask, tpow), c in yp.terms.items():
                res = _apply_field_to_function(xp, {(mask, tpow): c})
                for (m2, p2), c2 in res.items():
                    out.add_term(slot, m2, p2, c2)
            for (slot, mask, tpow), c in xp.terms.items():
                res = _apply_field_to_function(yp, {(mask, tpow): c})
                for (m2, p2), c2 in res.items():
                    out.add_term(slot, m2, p2, c2 * sign)
    return out


def vf_realize(alpha, sym: str, n: int) -> SuperVectorField:
    """The defining vector-field basis of the family."""
    alpha = QI.of(alpha)
    x = SuperVectorField()
    if sym == "L":
        x.add_term("t", 0, n + 1, QI(-1))
        c = -(QI(n + 1) + alpha) * _HALF
        x.add_term("1", 1, n, c)
        x.add_term("2", 2, n, c)
    elif sym == "E":
        x.add_term("1", 2, n, ONE)
    elif sym == "H":
        x.add_term("2", 2, n, ONE)
        x.add_term("1", 1, n, QI(-1))
    elif sym == "F":
        x.add_term("2", 1, n, ONE)
    elif sym == "h":
        x.add_term("t", 2, n, ONE)
        x.add_term("1", 3, n - 1, -(QI(n) + alpha))
    elif sym == "p":
        x.add_term("2", 0, n + 1, QI(-1))
    elif sym == "x":
        x.add_term("1", 0, n + 1, ONE)
    elif sym == "y":
        x.add_term("t", 1, n, ONE)
        x.add_term("2", 3, n - 1, QI(n) + alpha)
    else:
        raise StructureError(f"unknown symbol {sym!r}")
    return x


def remark_F_field(alpha) -> SuperVectorField:
    """The codimension-one generator identified with the lowering exterior
    derivation for integer alpha: -t^(-alpha) theta1 theta2 d_t."""
    alpha = QI.of(alpha)
    if not (alpha.is_rational() and alpha.re.denominator == 1):
        raise StructureError("integer alpha required")
    x = SuperVectorField()
    x.add_term("t", 3, -int(alpha.re), QI(-1))
    return x


def divergence(x: SuperVectorField):
    """Div as a coefficient function {(mask, tpow): coeff}."""
    out = {}

    for (slot, mask, tpow), c in x.terms.items():
        if slot == "t":
            d = _derive_function("t", {(mask, tpow): c})
            for (m2, p2), c2 in d.items():
                _accumulate(out, (m2, p2), c2)
        else:
            sgn = QI(-1 if _mask_parity(mask) else 1)
            d = _derive_function(slot, {(mask, tpow): c})
            for (m2, p2), c2 in d.items():
                _accumulate(out, (m2, p2), c2 * sgn)
    return out


def s_alpha_obstruction(alpha, x: SuperVectorField):
    """alpha * f_t + t * Div(x) as a coefficient function: it vanishes
    exactly when the field satisfies the weighted divergence-free condition."""
    alpha = QI.of(alpha)
    out = {}

    for (m2, p2), c2 in divergence(x).items():
        _accumulate(out, (m2, p2 + 1), c2)
    for (slot, mask, tpow), c in x.terms.items():
        if slot == "t":
            _accumulate(out, (mask, tpow), c * alpha)
    return out
