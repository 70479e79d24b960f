import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sweil.scalars import QI, ZERO, ONE, I, format_qi, parse_qi

# Small integers dominate real inputs, so draw them as often as fractions.
PART = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)


def qi_strategy():
    return st.builds(QI, PART, PART)


def assert_canonical(z):
    for part in (z.re, z.im):
        assert type(part) is int or (
            type(part) is Fraction and part.denominator != 1
        ), repr(part)


def test_basic_arithmetic():
    a = QI(Fraction(1, 2), Fraction(-3, 4))
    b = QI(2, 1)
    assert a + b == QI(Fraction(5, 2), Fraction(1, 4))
    assert a - a == ZERO
    assert I * I == QI(-1)
    assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugation_is_involutive_automorphism():
    a = QI(Fraction(2, 3), Fraction(5, 7))
    b = QI(-1, Fraction(1, 2))
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


def test_equality_with_ints_and_hash():
    assert QI(3) == 3
    assert QI(3, 1) != 3
    assert hash(QI(1, 2)) == hash(QI(1, 2))


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.re = Fraction(2)


@given(qi_strategy(), qi_strategy(), qi_strategy())
def test_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    if not b.is_zero():
        assert (a / b) * b == a


@given(qi_strategy())
def test_format_parse_roundtrip(z):
    assert parse_qi(format_qi(z)) == z


def test_format_examples():
    assert format_qi(ZERO) == "0"
    assert format_qi(QI(Fraction(-3, 2))) == "-3/2"
    assert format_qi(I) == "i"
    assert format_qi(-I) == "-i"
    assert format_qi(QI(0, 2)) == "2i"
    assert format_qi(QI(Fraction(-3, 2), Fraction(1, 4))) == "-3/2+1/4i"


def test_parse_star_form():
    assert parse_qi("1/2+3/4*i") == QI(Fraction(1, 2), Fraction(3, 4))
    assert parse_qi("-i") == -I
    with pytest.raises(ValueError):
        parse_qi("")


# -- differential test against a pair-of-Fraction reference model --------


def ref(z):
    return Fraction(z.re), Fraction(z.im)


def ref_of(x):
    return ref(x) if isinstance(x, QI) else (Fraction(x), Fraction(0))


def ref_add(x, y):
    (a, b), (c, d) = ref_of(x), ref_of(y)
    return a + c, b + d


def ref_sub(x, y):
    (a, b), (c, d) = ref_of(x), ref_of(y)
    return a - c, b - d


def ref_mul(x, y):
    (a, b), (c, d) = ref_of(x), ref_of(y)
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = ref_of(x), ref_of(y)
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


@given(qi_strategy(), st.one_of(qi_strategy(), PART), st.booleans())
def test_arithmetic_matches_fraction_pairs(z, other, reflected):
    # reflected swaps the operands: a plain int or Fraction on the left
    # exercises __radd__, __rsub__, __rmul__ and __rtruediv__
    x, y = (other, z) if reflected else (z, other)
    cases = [
        (x + y, ref_add(x, y)),
        (x - y, ref_sub(x, y)),
        (x * y, ref_mul(x, y)),
    ]
    if ref_of(y) != (0, 0):
        cases.append((x / y, ref_div(x, y)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for got, want in cases:
        assert isinstance(got, QI)
        assert_canonical(got)
        assert ref(got) == want


@given(qi_strategy(), qi_strategy())
def test_unary_eq_hash_match_fraction_pairs(z, w):
    assert_canonical(z)
    a, b = ref(z)
    assert ref(-z) == (-a, -b)
    assert ref(z.conj()) == (a, -b)
    assert_canonical(-z)
    assert_canonical(z.conj())
    assert (z == w) == (ref(z) == ref(w))
    assert hash(z) == hash(ref(z))
    if b == 0:
        assert z == a and hash(z) == hash(QI(a))
    text = format_qi(z)
    back = parse_qi(text)
    assert back == z and format_qi(back) == text
    assert_canonical(back)


def test_integral_parts_stay_int():
    half = QI(1) / QI(2)
    assert half == QI(Fraction(1, 2))
    assert type(half.re) is Fraction and half.im == 0
    assert type((QI(4) / QI(2)).re) is int
    assert type((QI(0, 2) / 2).im) is int
    assert type((1 / QI(Fraction(1, 3))).re) is int
    assert (QI(1, 1) * QI(1, -1)).re == 2
    assert type((half * 2).re) is int
    assert type((half + half).re) is int
    assert type((QI(Fraction(3, 2)) - Fraction(1, 2)).re) is int
    assert type(QI(Fraction(6, 3)).re) is int


def test_constructor_canonicalizes_every_input():
    np = pytest.importorskip("numpy")
    for x, want in (
        (True, 1),
        (0.5, Fraction(1, 2)),
        (2.0, 2),
        ("3/6", Fraction(1, 2)),
        (np.int64(3), 3),
        (Fraction(np.int64(2), np.int64(4)), Fraction(1, 2)),
    ):
        z = QI(x, x)
        assert_canonical(z)
        assert (z.re, z.im) == (want, want)
        assert type(z.re.numerator) is int and type(z.re.denominator) is int


def test_repr_is_unchanged():
    assert repr(QI(1)) == "QI(Fraction(1, 1), Fraction(0, 1))"
    assert repr(QI(Fraction(-3, 2), 2)) == "QI(Fraction(-3, 2), Fraction(2, 1))"


def test_canonical_parts_without_asserts():
    """Canonical parts do not rest on assert statements: python -O keeps
    them."""
    code = textwrap.dedent(
        """
        from fractions import Fraction
        from sweil.scalars import QI

        h = QI(1) / QI(2)
        for z in (h, h + h, h * 2, QI(4) / 2, QI(1, 1) * QI(1, -1), QI(2.0)):
            print(type(z.re).__name__, type(z.im).__name__)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert out.stdout.split("\n")[:-1] == [
        "Fraction int",
        "int int",
        "int int",
        "int int",
        "int int",
        "int int",
    ]
