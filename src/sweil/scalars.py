"""Exact Gaussian-rational scalars a + b*i used as the ground field.

Each part of a ``QI`` is held in canonical form: an ``int`` when it is
integral, otherwise a reduced ``Fraction`` (positive denominator > 1).
Never a float, and never a ``Fraction`` with denominator 1.  Most values
in the verifier are small integers, so keeping them as ``int`` lets the
arithmetic run on machine-word integers instead of ``Fraction`` objects.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _canon(x):
    """A part in canonical form, from anything ``Fraction`` accepts."""
    f = x if type(x) is Fraction else Fraction(x)
    n, d = f.numerator, f.denominator
    if type(n) is not int or type(d) is not int:
        # Fraction keeps other Integral types (numpy integers) as given
        n, d = int(n), int(d)
        f = Fraction(n, d)
    return n if d == 1 else f


def _quo(a, b):
    """Canonical exact quotient of two canonical parts (``b`` nonzero);
    goes through ``Fraction`` so that ``int / int`` never yields a float."""
    if type(a) is int and type(b) is int:
        if a % b == 0:
            return a // b
        return Fraction(a, b)
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


class QI:
    """A Gaussian rational a + b*i with exact parts ``re`` and ``im``.

    Each part is an ``int`` when integral and a reduced ``Fraction``
    otherwise, so every value has exactly one representation: equality is
    syntactic and hashing is safe (``hash(2) == hash(Fraction(2))``).
    Both part types expose ``.numerator`` and ``.denominator``.
    Instances are immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, re if type(re) is int else _canon(re))
        _set_im(self, im if type(im) is int else _canon(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def i():
        return QI(0, 1)

    @staticmethod
    def of(x) -> "QI":
        if isinstance(x, QI):
            return x
        return QI(x)

    # -- field operations ---------------------------------------------
    #
    # Sums, differences and products of canonical parts are int when both
    # operands are int; a Fraction result is reduced but may have become
    # integral, so it goes back through the denominator test.

    def __add__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        r = self.re + other.re
        i = self.im + other.im
        if type(r) is not int and r.denominator == 1:
            r = r.numerator
        if type(i) is not int and i.denominator == 1:
            i = i.numerator
        return _make(r, i)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        r = self.re - other.re
        i = self.im - other.im
        if type(r) is not int and r.denominator == 1:
            r = r.numerator
        if type(i) is not int and i.denominator == 1:
            i = i.numerator
        return _make(r, i)

    def __rsub__(self, other):
        return QI.of(other) - self

    def __mul__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        a, b = self.re, self.im
        c, d = other.re, other.im
        if d == 0:
            r, i = a * c, b * c
        elif b == 0:
            r, i = a * c, a * d
        else:
            r = a * c - b * d
            i = a * d + b * c
        if type(r) is not int and r.denominator == 1:
            r = r.numerator
        if type(i) is not int and i.denominator == 1:
            i = i.numerator
        return _make(r, i)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QI:
            other = QI.of(other)
        c, d = other.re, other.im
        if d == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero in QI")
            return _make(_quo(self.re, c), _quo(self.im, c))
        a, b = self.re, self.im
        n = c * c + d * d
        return _make(_quo(a * c + b * d, n), _quo(b * c - a * d, n))

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def conj(self) -> "QI":
        return _make(self.re, -self.im)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text ----------------------------------------------------------

    def __str__(self):
        return format_qi(self)

    def __repr__(self):
        return f"QI({Fraction(self.re)!r}, {Fraction(self.im)!r})"


_new = object.__new__
_set_re = QI.re.__set__
_set_im = QI.im.__set__


def _make(re, im):
    """A ``QI`` from parts already in canonical form, skipping ``_canon``."""
    z = _new(QI)
    _set_re(z, re)
    _set_im(z, im)
    return z


ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)


def _frac_str(f) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_qi(z: QI) -> str:
    """Serialize exactly, e.g. ``0``, ``-3/2``, ``i``, ``-3/2+1/4i``."""
    if z.im == 0:
        return _frac_str(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = _frac_str(z.im) + "i"
    if z.re == 0:
        return im
    if not im.startswith("-"):
        im = "+" + im
    return _frac_str(z.re) + im


_TERM_RE = re.compile(r"([+-]?[^+-]*)")


def _fraction(term: str) -> Fraction:
    try:
        return Fraction(term)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {term!r}") from None


def parse_qi(text: str) -> QI:
    """Parse ``p/q+r/s*i`` or the compact ``-3/2+1/4i`` form; malformed
    text and a zero denominator raise ValueError."""
    s = text.strip().replace(" ", "").replace("*i", "i")
    if not s:
        raise ValueError("empty scalar")
    re_part = Fraction(0)
    im_part = Fraction(0)
    pos = 0
    for m in _TERM_RE.finditer(s):
        term = m.group(1)
        if not term:
            continue
        pos += 1
        if term.endswith("i"):
            body = term[:-1]
            if body in ("", "+"):
                im_part += 1
            elif body == "-":
                im_part -= 1
            else:
                im_part += _fraction(body)
        else:
            re_part += _fraction(term)
    if pos == 0:
        raise ValueError(f"cannot parse scalar {text!r}")
    return QI(re_part, im_part)
