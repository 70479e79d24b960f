import io
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sweil import sca
from sweil.cli import build_parser, resolve_config, run
from sweil.scalars import QI, ZERO, ONE
from sweil.liealg import StructureError
from sweil.sca import (
    EVEN_SYMBOLS,
    KAHLER_SYMBOLS,
    N2_SYMBOLS,
    ODD_SYMBOLS,
    SCAElement,
    SYMBOLS,
    SuperVectorField,
    L0_element,
    deg,
    derext_action,
    divergence,
    kahler_bracket,
    kahler_parity,
    n2_bracket,
    parity_of,
    psi,
    remark_F_field,
    s2a_basis_bracket,
    s2a_bracket,
    s_alpha_obstruction,
    spectral_flow,
    super_jacobi_failure,
    vf_bracket,
    vf_realize,
)

HALF = QI(Fraction(1, 2))
ALPHAS = (ZERO, HALF, QI(1))


def basis_list(window):
    return [(s, n) for s in SYMBOLS for n in range(-window, window + 1)]


def vf_of_element(alpha, el):
    out = SuperVectorField()
    for (sym, n), c in el.coeffs.items():
        out = out + vf_realize(alpha, sym, n).scale(c)
    assert el.central.is_zero()
    return out


@pytest.mark.parametrize("alpha", ALPHAS)
def test_super_antisymmetry(alpha):
    for (sa, na), (sb, nb) in product(basis_list(2), repeat=2):
        ab = s2a_basis_bracket(alpha, sa, na, sb, nb)
        ba = s2a_basis_bracket(alpha, sb, nb, sa, na)
        expect = ba if (parity_of(sa) and parity_of(sb)) else ba.scale(QI(-1))
        assert ab == expect, (sa, na, sb, nb)


def reference_bracket(alpha, a, b, include_cocycle=True):
    """The bracket as a sum of one scaled element per term pair."""
    out = SCAElement()
    for (sa, na), ca in a.coeffs.items():
        for (sb, nb), cb in b.coeffs.items():
            out = out + s2a_basis_bracket(
                alpha, sa, na, sb, nb, include_cocycle
            ).scale(ca * cb)
    return out


def reference_jacobi_holds(alpha, ka, kb, kc):
    """[A,[B,C]] - [[A,B],C] - (-1)^(|A||B|) [B,[A,C]] == 0, as three
    separately built terms."""
    A, B, C = (SCAElement.basis(*k) for k in (ka, kb, kc))
    t1 = reference_bracket(alpha, A, reference_bracket(alpha, B, C))
    t2 = reference_bracket(alpha, reference_bracket(alpha, A, B), C)
    t3 = reference_bracket(alpha, B, reference_bracket(alpha, A, C))
    if A.parity() and B.parity():
        t3 = t3.scale(QI(-1))
    return (t1 - t2 - t3).is_zero()


def reference_jacobi_failure(alpha, basis):
    for triple in product(basis, repeat=3):
        if not reference_jacobi_holds(alpha, *triple):
            return triple
    return None


gaussian = st.builds(
    QI,
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
) | st.sampled_from([ONE, QI(-1), QI(2)])
elements = st.builds(
    SCAElement,
    st.dictionaries(
        st.tuples(st.sampled_from(SYMBOLS), st.integers(-2, 2)),
        gaussian,
        max_size=4,
    ),
    gaussian | st.just(ZERO),
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((ZERO, HALF)),
    elements,
    elements,
    elements,
    st.sampled_from((1, -1)),
    st.booleans(),
)
def test_bracket_kernel_matches_reference(alpha, a, b, start, sign, cocycle):
    ref = reference_bracket(alpha, a, b, cocycle)
    assert s2a_bracket(alpha, a, b, cocycle) == ref
    # the kernel adds into what the accumulator already holds
    acc = dict(start.coeffs)
    acc[sca._CENTRAL] = start.central
    sca._bracket_into(acc, alpha, a, b, sign, cocycle)
    central = acc.pop(sca._CENTRAL)
    got = SCAElement(acc, central)
    assert got == start + ref.scale(QI(sign))


@pytest.mark.parametrize("alpha", (ZERO, HALF))
def test_super_jacobi_with_cocycle(alpha):
    bl = basis_list(2)
    assert super_jacobi_failure(alpha, bl) is None
    # independent three-term check on a fixed sample of the same triples
    rng = random.Random(20001219)
    for _ in range(3000):
        ka, kb, kc = rng.choice(bl), rng.choice(bl), rng.choice(bl)
        assert reference_jacobi_holds(alpha, ka, kb, kc), (ka, kb, kc)


@pytest.mark.parametrize(
    "pair, alpha", ((("H", "E"), QI(1)), (("h", "x"), HALF))
)
def test_seeded_table_defect_fails_jacobi(monkeypatch, pair, alpha):
    listed = sca._s2a_listed

    def flipped(alpha, sa, n, sb, k, include_cocycle):
        out = listed(alpha, sa, n, sb, k, include_cocycle)
        if (sa, sb) == pair:
            out = out.scale(QI(-1))
        return out

    monkeypatch.setattr(sca, "_s2a_listed", flipped)
    bl = basis_list(1)
    bad = super_jacobi_failure(alpha, bl)
    assert bad is not None
    assert bad == reference_jacobi_failure(alpha, bl)

    cfg = resolve_config(build_parser().parse_args(
        ["sca-tables", "--alpha", str(alpha), "--window", "1",
         "--format", "json"]
    ))
    buf = io.BytesIO()
    assert run(cfg, out=buf) == 1
    docs = json.loads(buf.getvalue())
    (doc,) = [d for d in docs if d["check"] == "sca:super-jacobi"]
    (sa, na), (sb, nb), (sc, nc) = bad
    assert doc["status"] == "fail"
    assert doc["witness"] == {"triple": f"({sa}[{na}],{sb}[{nb}],{sc}[{nc}])"}


@pytest.mark.parametrize("alpha", (ZERO, HALF))
def test_vector_field_oracle_matches_table(alpha):
    # independent realization by superderivations of C[t,1/t] (x) /\(th1,th2)
    for sa, sb in product(SYMBOLS, repeat=2):
        for na in range(-3, 4):
            for nb in range(-3, 4):
                lhs = vf_bracket(
                    vf_realize(alpha, sa, na), vf_realize(alpha, sb, nb)
                )
                tab = s2a_basis_bracket(
                    alpha, sa, na, sb, nb, include_cocycle=False
                )
                assert lhs == vf_of_element(alpha, tab), (sa, na, sb, nb)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_basis_fields_satisfy_weighted_divergence(alpha):
    for s in SYMBOLS:
        for n in range(-3, 4):
            assert not s_alpha_obstruction(alpha, vf_realize(alpha, s, n))


def test_weighted_divergence_negative_control():
    x = SuperVectorField()
    x.add_term("t", 0, 2, ONE)
    assert s_alpha_obstruction(ZERO, x)
    assert divergence(x)


@pytest.mark.parametrize("alpha", (HALF, QI(1)))
def test_spectral_flow_is_homomorphism(alpha):
    for sa, sb in product(N2_SYMBOLS, repeat=2):
        for na in range(-3, 4):
            for nb in range(-3, 4):
                A = SCAElement.basis(sa, na)
                B = SCAElement.basis(sb, nb)
                lhs = spectral_flow(alpha, s2a_bracket(alpha, A, B))
                rhs = n2_bracket(
                    spectral_flow(alpha, A), spectral_flow(alpha, B)
                )
                assert lhs == rhs, (sa, na, sb, nb)


def test_spectral_flow_fixes_odd_and_shifts_even():
    a = QI(1)
    assert spectral_flow(a, SCAElement.basis("h", 3)) == SCAElement.basis("h", 3)
    img = spectral_flow(a, SCAElement.basis("L", 0))
    assert img.coeffs[("L", 0)] == ONE
    assert img.coeffs[("H", 0)] == -HALF
    assert img.central == QI(Fraction(1, 24))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_grading_element(alpha):
    L0 = L0_element(alpha)
    for s in SYMBOLS:
        for n in range(-3, 4):
            B = SCAElement.basis(s, n)
            got = s2a_bracket(alpha, L0, B, include_cocycle=False)
            assert got == B.scale(deg(alpha, s, n)), (s, n)


@pytest.mark.parametrize("alpha", (QI(0), QI(1)))
def test_exterior_derivations_are_derivations(alpha):
    for D in ("EE", "HH", "FF"):
        for sa, sb in product(SYMBOLS, repeat=2):
            for na in range(-2, 3):
                for nb in range(-2, 3):
                    A = SCAElement.basis(sa, na)
                    B = SCAElement.basis(sb, nb)
                    lhs = derext_action(
                        alpha, D, s2a_bracket(alpha, A, B, include_cocycle=False)
                    )
                    rhs = s2a_bracket(
                        alpha, derext_action(alpha, D, A), B, include_cocycle=False
                    ) + s2a_bracket(
                        alpha, A, derext_action(alpha, D, B), include_cocycle=False
                    )
                    assert lhs == rhs, (D, sa, na, sb, nb)


@pytest.mark.parametrize("alpha", (QI(0), QI(1)))
def test_exterior_derivations_close_to_sl2(alpha):
    def comm(d1, d2, el):
        return derext_action(alpha, d1, derext_action(alpha, d2, el)) - (
            derext_action(alpha, d2, derext_action(alpha, d1, el))
        )

    for s in SYMBOLS:
        for n in range(-3, 4):
            B = SCAElement.basis(s, n)
            assert comm("HH", "EE", B) == derext_action(alpha, "EE", B).scale(QI(2))
            assert comm("HH", "FF", B) == derext_action(alpha, "FF", B).scale(QI(-2))
            assert comm("EE", "FF", B) == derext_action(alpha, "HH", B)


def test_exterior_raising_needs_integer_parameter():
    with pytest.raises(StructureError):
        derext_action(HALF, "EE", SCAElement.basis("h", 0))
    # the Cartan element is available for any parameter
    out = derext_action(HALF, "HH", SCAElement.basis("h", 0))
    assert out == SCAElement.basis("h", 0, QI(-1))


def test_exterior_remark_field_realizes_lowering():
    for ia in (QI(0), QI(1)):
        FFf = remark_F_field(ia)
        assert not s_alpha_obstruction(ia, FFf)
        for s in ODD_SYMBOLS:
            for k in range(-3, 4):
                lhs = vf_bracket(FFf, vf_realize(ia, s, k))
                rhs = vf_of_element(
                    ia, derext_action(ia, "FF", SCAElement.basis(s, k))
                )
                assert lhs == rhs, (ia, s, k)


def test_psi_intertwines_classical_table():
    for sa, sb in product(KAHLER_SYMBOLS, repeat=2):
        table = kahler_bracket({sa: ONE}, {sb: ONE})
        lhs = SCAElement()
        for sym, c in table.items():
            lhs = lhs + psi(sym).scale(c)
        rhs = s2a_bracket(ZERO, psi(sa), psi(sb), include_cocycle=False)
        assert lhs == rhs, (sa, sb, table)


def test_psi_images_have_degree_zero():
    for sym in KAHLER_SYMBOLS:
        for (s, n) in psi(sym).coeffs:
            assert deg(ZERO, s, n) == ZERO


def test_kahler_table_is_super_lie():
    for sa, sb in product(KAHLER_SYMBOLS, repeat=2):
        ab = kahler_bracket({sa: ONE}, {sb: ONE})
        ba = kahler_bracket({sb: ONE}, {sa: ONE})
        sgn = QI(1 if kahler_parity(sa) and kahler_parity(sb) else -1)
        assert ab == {k: v * sgn for k, v in ba.items()}
    for sa, sb, sc in product(KAHLER_SYMBOLS, repeat=3):
        t1 = kahler_bracket({sa: ONE}, kahler_bracket({sb: ONE}, {sc: ONE}))
        t2 = kahler_bracket(kahler_bracket({sa: ONE}, {sb: ONE}), {sc: ONE})
        t3 = kahler_bracket({sb: ONE}, kahler_bracket({sa: ONE}, {sc: ONE}))
        # [A,[B,C]] - [[A,B],C] - (-1)^{pA pB}[B,[A,C]] == 0
        s = QI(1 if kahler_parity(sa) and kahler_parity(sb) else -1)
        acc = {}
        for d, sg in ((t1, ONE), (t2, QI(-1)), (t3, s)):
            for k, v in d.items():
                acc[k] = acc.get(k, ZERO) + v * sg
        assert all(v.is_zero() for v in acc.values()), (sa, sb, sc)


def test_kahler_laplacian_central():
    for sym in KAHLER_SYMBOLS:
        assert kahler_bracket({"lap": ONE}, {sym: ONE}) == {}


def test_kahler_fixture_rows():
    assert kahler_bracket({"L": ONE}, {"Lam": ONE}) == {"H": ONE}
    assert kahler_bracket({"d": ONE}, {"ds": ONE}) == {"lap": ONE}
    assert kahler_bracket({"Lam": ONE}, {"d": ONE}) == {"dcs": ONE}
    assert kahler_bracket({"L": ONE}, {"ds": ONE}) == {"dc": QI(-1)}


def test_cocycle_fixture_values():
    # quadratic central term on the L string
    out = s2a_basis_bracket(ZERO, "L", 2, "L", -2)
    assert out.central == HALF  # 2*(4-1)/12
    out = s2a_basis_bracket(ZERO, "H", 1, "H", -1)
    assert out.central == QI(Fraction(1, 3))
    out = s2a_basis_bracket(ZERO, "E", 2, "F", -2)
    assert out.central == QI(Fraction(1, 3))
    # deg-zero odd pairs at alpha = 0 carry no central term
    assert s2a_basis_bracket(ZERO, "h", 0, "p", 0).central == ZERO
    assert s2a_basis_bracket(ZERO, "x", -1, "y", 1).central == ZERO


def test_n2_symbol_guard():
    with pytest.raises(StructureError):
        n2_bracket(SCAElement.basis("E", 0), SCAElement.basis("H", 0))


def test_element_arithmetic_and_parity():
    a = SCAElement.basis("L", 1, QI(2)) + SCAElement(central=QI(3))
    assert a.parity() == 0
    assert (a - a).is_zero()
    odd = SCAElement.basis("h", 1)
    assert odd.parity() == 1
    mixed = odd + SCAElement.basis("L", 0)
    assert mixed.parity() is None
