"""The fast exact engine's shared columns against a reference engine.

``RefFastOp`` and ``ref_fast_bracket_check`` are the engine before its
columns were shared: every operator, SumOperators included, is applied
as a whole through ``Operator.apply_monomial`` and converted to integers
on its own.  ``FastOp`` forms a SumOperator's column from its parts'
columns and applies each leaf operator once per monomial; the tests
compare exact column values (entry / den) and whole-package verdicts
and witnesses, on good operators and on a seeded defect.
"""

import gc
from fractions import Fraction
from math import lcm

import pytest

from sweil import cohomology, verify
from sweil.cohomology import (
    classical_operator,
    harmonic_lefschetz_report,
    kahler_matrix_checks,
)
from sweil.fieldops import SumOperator, sl2_triple
from sweil.fock import Box, enumerate_box
from sweil.liealg import parse_backend
from sweil.scalars import I, ONE, QI, ZERO
from sweil.sca import KAHLER_SYMBOLS
from sweil.verify import FastEngine, FastOp, s2a_builder

BACKENDS = ("loop:abelian:1", "loop:abelian:2", "loop:sl2")
REL_BOX = Box(emax=1, b0max=1, zero_fermions_allowed=False)


class RefFastOp:
    """Reference columns: the whole operator applied to the monomial."""

    def __init__(self, engine, op):
        self.engine = engine
        self.op = op
        self.den = 1
        self.cols = {}

    def col(self, i):
        c = self.cols.get(i)
        if c is None:
            v = self.op.apply_monomial(self.engine.monos[i], self.engine.relative)
            den = self.den
            for _, q in v.terms.items():
                den = lcm(den, q.re.denominator, q.im.denominator)
            if den != self.den:
                f = den // self.den
                self.den = den
                for k in self.cols:
                    self.cols[k] = tuple(
                        (j, re * f, im * f) for j, re, im in self.cols[k]
                    )
            intern = self.engine.intern
            c = tuple(
                (intern(m), int(q.re * den), int(q.im * den))
                for m, q in v.terms.items()
            )
            self.cols[i] = c
        return c


def ref_fast_bracket_check(engine, fa, fb, both_odd, rhs_terms, central, box_ids):
    """The reference comparison: every column read through ``col``."""
    for i in box_ids:
        for j, _, _ in fb.col(i):
            fa.col(j)
        for j, _, _ in fa.col(i):
            fb.col(j)
        for _, ft in rhs_terms:
            ft.col(i)
    D = fa.den * fb.den
    R = D
    for c, ft in rhs_terms:
        R = lcm(R, ft.den * lcm(c.re.denominator, c.im.denominator))
    if central is not None and not central.is_zero():
        R = lcm(R, central.re.denominator, central.im.denominator)
    scaled_rhs = []
    for c, ft in rhs_terms:
        s = R // ft.den
        scaled_rhs.append((int(c.re * s), int(c.im * s), ft))
    zc = None
    if central is not None and not central.is_zero():
        zc = (int(central.re * R), int(central.im * R))
    lf = R // D
    sgn = 1 if both_odd else -1
    for i in box_ids:
        acc = {}
        for j, br, bi in fb.col(i):
            for k, ar, ai in fa.col(j):
                cur = acc.get(k, (0, 0))
                acc[k] = (cur[0] + ar * br - ai * bi, cur[1] + ar * bi + ai * br)
        for j, ar, ai in fa.col(i):
            for k, br, bi in fb.col(j):
                cur = acc.get(k, (0, 0))
                acc[k] = (
                    cur[0] + (br * ar - bi * ai) * sgn,
                    cur[1] + (br * ai + bi * ar) * sgn,
                )
        rac = {}
        for cr, ci, ft in scaled_rhs:
            for k, r, m_ in ft.col(i):
                cur = rac.get(k, (0, 0))
                rac[k] = (cur[0] + cr * r - ci * m_, cur[1] + cr * m_ + ci * r)
        if zc is not None:
            cur = rac.get(i, (0, 0))
            rac[i] = (cur[0] + zc[0], cur[1] + zc[1])
        lhs = {k: (re * lf, im * lf) for k, (re, im) in acc.items() if re or im}
        rhs = {k: v for k, v in rac.items() if v != (0, 0)}
        if lhs != rhs:
            return i
    return None


class RefEngine(FastEngine):
    """A FastEngine whose operators get reference columns."""

    def fastop(self, op):
        f = self._ops.get(op)
        if f is None:
            f = self._ops[op] = RefFastOp(self, op)
        return f


def column_values(engine, fop, i):
    """The exact column of ``fop`` at monomial id ``i``, keyed by monomial."""
    return {
        engine.monos[j]: (Fraction(re, fop.den), Fraction(im, fop.den))
        for j, re, im in fop.col(i)
    }


def assert_same_columns(ops, box, relative=True):
    """Every column of every operator on every box monomial and on every
    monomial the box maps to equals the reference column.  The reference
    applies copies of the operators, built separately, so no memo is
    shared between the two sides."""
    engine = FastEngine(relative)
    ref = FastEngine(relative)
    ids = [engine.intern(m) for m in box]
    ref_ids = {m: ref.intern(m) for m in box}
    fast = [FastOp(engine, op) for op, _ in ops]
    slow = [RefFastOp(ref, op) for _, op in ops]
    for fop in fast:
        for i in ids:
            for j, _, _ in fop.col(i):
                fop.col(j)
    for fop, rop in zip(fast, slow):
        for i in list(fop.cols):
            m = engine.monos[i]
            k = ref_ids.get(m)
            if k is None:
                k = ref_ids[m] = ref.intern(m)
            assert column_values(engine, fop, i) == column_values(ref, rop, k), (
                fop.op.name,
                m,
            )


def package_operators(build, triple):
    return [classical_operator(build, sym) for sym in KAHLER_SYMBOLS] + [
        triple[s] for s in ("EE", "HH", "FF")
    ]


@pytest.mark.parametrize("name", BACKENDS)
def test_package_columns_match_reference(name):
    backend = parse_backend(name)
    fast = package_operators(s2a_builder(backend, ZERO), sl2_triple(backend))
    slow = package_operators(s2a_builder(backend, ZERO), sl2_triple(backend))
    box = enumerate_box(backend.dim, REL_BOX)
    assert_same_columns(list(zip(fast, slow)), box)


def test_leaf_columns_are_shared_between_sums():
    backend = parse_backend("loop:abelian:2")
    build = s2a_builder(backend, ZERO)
    engine = FastEngine(relative=True)
    lap = FastOp(engine, classical_operator(build, "lap"))
    H = FastOp(engine, classical_operator(build, "H"))
    h0 = engine.fastop(build("H", 0))
    assert engine.fastop(build("L", 0))._parts[1][1] is h0
    assert h0 in [f for _, f in lap._parts] and H._parts[0][1] is h0
    ids = [engine.intern(m) for m in enumerate_box(backend.dim, REL_BOX)]
    for i in ids:
        lap.col(i)
        H.col(i)
        # a single part of weight one shares its column tuple
        assert H.cols[i] is h0.cols[i]
    assert set(h0.cols) == set(ids)


def hand_built_sums(backend):
    """SumOperators with fractional, imaginary, zero and cancelling
    weights, a nested sum and a central term, over family and sl(2) operators;
    each call builds fresh operators."""
    build = s2a_builder(backend, ZERO)
    triple = sl2_triple(backend)
    E, F, H = build("E", -1), build("F", 1), build("H", 0)
    x, p = build("x", -1), build("p", 0)
    ff, hh = triple["FF"], triple["HH"]
    return [
        SumOperator([(QI(Fraction(1, 3)), E), (QI(Fraction(-5, 2)), F)]),
        SumOperator([(I / QI(2), x), (QI(2, -3), H), (QI(Fraction(1, 7), 1), ff)]),
        SumOperator([(ONE, H), (QI(-1), H)]),
        SumOperator([(QI(Fraction(2, 3)), hh), (QI(Fraction(-2, 3)), hh), (I, p)]),
        SumOperator(
            [
                (QI(Fraction(1, 2)), SumOperator([(I, ff), (QI(3), H)])),
                (QI(-2), SumOperator([(QI(Fraction(1, 4)), ff)], QI(1, 1))),
                (QI(Fraction(3, 5)), E),
            ]
        ),
        SumOperator([(QI(-1), H), (QI(Fraction(1, 6)), ff)], QI(Fraction(5, 7), -2)),
        SumOperator([], QI(Fraction(3, 4))),
        SumOperator([(ZERO, E)]),
        SumOperator([(ZERO, E), (QI(Fraction(1, 2)), ff)]),
    ]


@pytest.mark.parametrize("name", BACKENDS)
def test_hand_built_sums_match_reference(name):
    backend = parse_backend(name)
    fast = hand_built_sums(backend)
    slow = hand_built_sums(backend)
    box = enumerate_box(backend.dim, REL_BOX)
    assert_same_columns(list(zip(fast, slow)), box)


def test_sum_rescales_when_a_leaf_denominator_grows():
    """FF's coefficients are -i/m, so its denominator grows with the modes
    it meets.  A sum column formed while FF's denominator is 1 must stay
    exact after FF's columns are rescaled, and the sum's later columns
    must join them over a common denominator."""
    backend = parse_backend("loop:sl2")
    box = enumerate_box(backend.dim, Box(emax=2, b0max=0, zero_fermions_allowed=False))
    ops = []
    for _ in range(2):
        ff = sl2_triple(backend)["FF"]
        hh = sl2_triple(backend)["HH"]
        ops.append((ff, SumOperator([(QI(Fraction(1, 3)), ff), (I, hh)], QI(2))))
    (ff, s), (ff_ref, s_ref) = ops
    engine = FastEngine(relative=True)
    ref = FastEngine(relative=True)
    fs = FastOp(engine, s)
    fff = engine.fastop(ff)
    rs = RefFastOp(ref, s_ref)
    # the monomials whose FF column needs no denominator come first
    flat, steep = [], []
    for m in box:
        probe = ff_ref.apply_monomial(m, True)
        if all(q.re.denominator == q.im.denominator == 1 for q in probe.terms.values()):
            flat.append(m)
        else:
            steep.append(m)
    assert flat and steep
    for m in flat:
        fs.col(engine.intern(m))
    assert fff.den == 1 and fs.den == 3
    before = dict(fs.cols)
    for m in steep:
        fff.col(engine.intern(m))
    assert fff.den > 1 and fs.den == 3
    for m in steep:
        fs.col(engine.intern(m))
    assert fs.den > 3
    for i in before:
        assert fs.cols[i] != before[i]
    for i in fs.cols:
        k = ref.intern(engine.monos[i])
        assert column_values(engine, fs, i) == column_values(ref, rs, k)


def seeded_triple(backend):
    triple = sl2_triple(backend)
    triple["HH"] = SumOperator([(QI(2), triple["HH"])], name="2HH")
    return triple


def package_reports(backend, triple=None, monkeypatch=None):
    """The package checks at E<=1 B0<=1; with ``monkeypatch``, on the
    reference engine and comparison."""
    if monkeypatch is not None:
        monkeypatch.setattr(verify, "FastEngine", RefEngine)
        monkeypatch.setattr(verify, "fast_bracket_check", ref_fast_bracket_check)
    return kahler_matrix_checks(backend, emax=1, b0max=1, triple=triple)


@pytest.mark.parametrize("name", BACKENDS)
def test_package_reports_match_reference(name, monkeypatch):
    backend = parse_backend(name)
    got = package_reports(backend)
    want = package_reports(backend, monkeypatch=monkeypatch)
    assert got == want
    assert all(c.passed for c in got)


@pytest.mark.parametrize("name", ("loop:abelian:2", "loop:sl2"))
def test_seeded_package_defect_fails_with_reference_witness(name, monkeypatch):
    backend = parse_backend(name)
    got = package_reports(backend, seeded_triple(backend))
    want = package_reports(backend, seeded_triple(backend), monkeypatch)
    assert got == want
    failed = {c.name: c.witness for c in got if not c.passed}
    assert "lefschetz:[EE,FF]" in failed
    assert failed["lefschetz:[EE,FF]"] is not None


def test_kahler_report_leaves_no_cyclic_garbage():
    """A report's engine, its FastOps and the family builder form no
    reference cycle, so freeing them never waits for the collector."""
    backend = parse_backend("loop:abelian:2")
    harmonic_lefschetz_report(backend, emax=1)
    gc.collect()
    gc.disable()
    try:
        harmonic_lefschetz_report(backend, emax=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_box_is_enumerated_once_per_report(monkeypatch):
    calls = []
    enumerate_box_ = cohomology.enumerate_box

    def counted(dim, box):
        calls.append(box)
        return enumerate_box_(dim, box)

    monkeypatch.setattr(cohomology, "enumerate_box", counted)
    harmonic_lefschetz_report(parse_backend("loop:abelian:2"), emax=1)
    assert calls and len(calls) == len(set(calls))
