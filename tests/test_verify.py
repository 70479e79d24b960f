from fractions import Fraction

import pytest

from sweil.scalars import QI, ZERO, ONE
from sweil.liealg import (
    LieAlgebraSpec,
    StructureError,
    abelian,
    builtin_sl2_orthonormal,
    fmu_backend,
    loop_backend,
)
from sweil.fock import Box, FockVector, enumerate_box
from sweil.fieldops import build_s2alpha_family, super_commutator
from sweil.verify import (
    N2_TABLE_SYMBOLS,
    S2A_TABLE_SYMBOLS,
    FastEngine,
    FastOp,
    check_chain_identities,
    check_d_compatibility,
    check_relative_derext,
    check_representation,
    claimed_charge,
    extract_central_charge,
    fast_bracket_check,
    n2_builder,
    n2_table,
    s2a_builder,
    s2a_table,
)

SL2 = loop_backend(builtin_sl2_orthonormal())
AB1 = loop_backend(abelian(1, with_form=True))
SMALL = Box(emax=1, b0max=1)


def test_claimed_charges():
    assert claimed_charge(SL2) == QI(9)
    assert claimed_charge(AB1) == QI(3)
    assert claimed_charge(fmu_backend(Fraction(1, 3), ZERO)) == ONE


def test_extracted_central_charge_matches_claim():
    for backend in (AB1, SL2):
        builder = s2a_builder(backend, ZERO)
        assert extract_central_charge(builder) == claimed_charge(backend)


def test_extracted_central_charge_fmu():
    fmu = fmu_backend(Fraction(1, 3), Fraction(1, 5))
    builder = n2_builder(fmu)
    assert extract_central_charge(builder) == ONE


def test_n2_representation_passes():
    fmu = fmu_backend(Fraction(1, 2), Fraction(1, 4))
    report = check_representation(
        "n2",
        n2_table,
        n2_builder(fmu),
        claimed_charge(fmu),
        fmu.dim,
        SMALL,
        1,
        N2_TABLE_SYMBOLS,
    )
    assert report.passed, report.witness


def test_s2a_representation_passes():
    alpha = Fraction(1, 3)
    report = check_representation(
        "s2a",
        s2a_table(alpha),
        s2a_builder(AB1, alpha),
        claimed_charge(AB1),
        AB1.dim,
        Box(emax=2, b0max=2),
        1,
        S2A_TABLE_SYMBOLS,
    )
    assert report.passed, report.witness


def test_mutated_structure_constants_fail_with_witness():
    # meta-test: a wrong algebra must be detected, not silently accepted.
    # The quadratic families depend only on the loop coordinates, so the
    # sensitive checks are the ones built from the bracket: the square of
    # the differential and the homotopy identity both require the Jacobi
    # identity and must fail on a perturbed bracket, with a witness.
    good = builtin_sl2_orthonormal()
    c = [[[x for x in col] for col in row] for row in good.c]
    c[0][1][2] = c[0][1][2] + ONE
    bad = loop_backend(LieAlgebraSpec(c, good.form, "sl2-mutated"))
    reports = {
        r.check: r for r in check_chain_identities(bad, SMALL, window=1)
    }
    assert not reports["chain:d-squared"].passed
    assert reports["chain:d-squared"].witness is not None
    assert not reports["chain:homotopy"].passed
    # the contraction differential never sees the bracket
    assert reports["chain:koszul-squared"].passed


def test_fast_engine_agrees_with_slow_path():
    engine = FastEngine()
    box_ids = [engine.intern(m) for m in enumerate_box(SL2.dim, SMALL)]
    L1 = build_s2alpha_family(SL2, ZERO, "Lalpha", 1)
    Lm1 = build_s2alpha_family(SL2, ZERO, "Lalpha", -1)
    L0 = build_s2alpha_family(SL2, ZERO, "Lalpha", 0)
    fa, fb = FastOp(engine, L1), FastOp(engine, Lm1)
    bad = fast_bracket_check(
        engine, fa, fb, False, [(QI(2), FastOp(engine, L0))], None, box_ids
    )
    assert bad is None
    comm = super_commutator(L1, Lm1)
    for m in enumerate_box(SL2.dim, SMALL):
        v = FockVector.of(m)
        assert (comm.apply(v) - L0.apply(v).scale(QI(2))).is_zero()


def test_chain_identities_pass():
    for backend in (AB1, SL2):
        for report in check_chain_identities(backend, SMALL, window=1):
            assert report.passed, (report.check, report.witness)


def test_d_compatibility_passes():
    report = check_d_compatibility(SL2, SMALL, window=1)
    assert report.passed, report.witness


def test_relative_derext_with_negative_control():
    reports = check_relative_derext(SL2, Box(emax=1, b0max=0), window=1)
    assert len(reports) == 2
    main, neg = reports
    assert main.passed, main.witness
    assert neg.check == "relative-derext:negative-control"
    assert neg.passed  # the discrepancy really is nonzero off the subcomplex


def test_relative_derext_abelian_skips_control():
    reports = check_relative_derext(AB1, Box(emax=1, b0max=1), window=1)
    assert len(reports) == 1
    assert reports[0].passed, reports[0].witness
