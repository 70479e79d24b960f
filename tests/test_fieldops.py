import itertools
from fractions import Fraction

import pytest

from sweil.scalars import QI, ZERO, ONE, I
from sweil.liealg import (
    StructureError,
    builtin_sl2_orthonormal,
    fmu_backend,
    loop_backend,
    witt_backend,
    abelian,
)
from sweil.fock import (
    Box,
    FockMonomial,
    FockVector,
    GenKey,
    VACUUM,
    apply_generator,
    apply_product,
    enumerate_box,
    make_monomial,
    normal_order_slots,
    product_on_monomial,
)
from sweil import fieldops
from sweil.sca import N2_SYMBOLS
from sweil.fieldops import (
    FieldOperator,
    SlotSpec,
    SumOperator,
    TermShape,
    _slot_bounds,
    _term_window,
    build_differential_d,
    build_differential_parts,
    build_dc,
    build_koszul_h,
    build_n2_family,
    build_s2alpha_family,
    build_sl2_EHF,
    build_theta_adjoint,
    build_witt_rep,
    _loop_witt_L,
    S2A_SYMBOLS,
    hermitian_form,
    hodge_form,
    pairing_form,
    split_d1_d2,
    star,
    star_monomial,
    super_commutator,
)
from test_bulkrep import FAMILIES as BULK_FAMILIES

SL2 = loop_backend(builtin_sl2_orthonormal())
AB1 = loop_backend(abelian(1, with_form=True))
WITT = witt_backend()


def vec(*keys):
    return apply_product(list(keys), VACUUM)


def g(c, k):
    return GenKey("g", c, k)


def b(c, k):
    return GenKey("b", c, k)


def t(c, k):
    return GenKey("t", c, k)


def e(c, k):
    return GenKey("e", c, k)


# -- central charges of quadratic families -----------------------------


@pytest.mark.parametrize(
    "lam,mu,expect",
    [
        (ZERO, ZERO, QI(1)),
        (QI(-1), QI(1), QI(3)),
        (QI(Fraction(1, 2)), ZERO, ZERO),
    ],
)
def test_fmu_heisenberg_level(lam, mu, expect):
    backend = fmu_backend(lam, mu)
    H1 = build_n2_family(backend, "H", 1)
    Hm1 = build_n2_family(backend, "H", -1)
    comm = super_commutator(H1, Hm1)
    assert comm.apply(FockVector.vacuum()) == FockVector.vacuum().scale(expect)


def test_loop_heisenberg_level_is_dimension():
    for backend, dim in ((SL2, 3), (AB1, 1)):
        H1 = build_s2alpha_family(backend, ZERO, "H", 1)
        Hm1 = build_s2alpha_family(backend, ZERO, "H", -1)
        comm = super_commutator(H1, Hm1)
        assert comm.apply(FockVector.vacuum()) == FockVector.vacuum().scale(QI(dim))


# -- the raw Virasoro zero mode diagonalizes energy --------------------


def test_quadratic_witt_zero_mode_is_energy():
    L0 = _loop_witt_L(SL2, 0, ZERO)
    for m in enumerate_box(SL2.dim, Box(emax=2, b0max=1)):
        out = L0.apply(FockVector.of(m))
        assert out == FockVector.of(m, QI(m.energy())), m


def test_fmu_rep_matches_adjoint_of_witt():
    # the adjoint module of the one-component graded Lie algebra of
    # vector fields equals the weight-density module at (-1, 1)
    backend = fmu_backend(QI(-1), QI(1))
    box = Box(emax=2, b0max=1)
    for n in (-2, -1, 0, 1, 2):
        rep = build_witt_rep(backend, n)
        adj = build_theta_adjoint(WITT, 0, n)
        for m in enumerate_box(1, box):
            assert rep.apply(FockVector.of(m)) == adj.apply(FockVector.of(m)), (n, m)


def test_adjoint_theta_on_vacuum():
    # nonnegative modes annihilate the vacuum; negative modes create pairs
    for n in (0, 1, 2):
        assert build_theta_adjoint(SL2, 0, n).apply(FockVector.vacuum()).is_zero()
    assert not build_theta_adjoint(SL2, 0, -1).apply(FockVector.vacuum()).is_zero()


# -- differential fixtures ---------------------------------------------


def test_differential_shape():
    d = build_differential_d(SL2)
    assert d.parity == 1
    assert d.shift == (0, 0, 1)


def test_differential_kills_vacuum():
    for backend in (SL2, WITT):
        d = build_differential_d(backend)
        assert d.apply(FockVector.vacuum()).is_zero()


@pytest.mark.parametrize("backend,dim", [(SL2, 3), (WITT, 1)])
def test_differential_squares_to_zero(backend, dim):
    d = build_differential_d(backend)
    for m in enumerate_box(dim, Box(emax=2, b0max=1)):
        assert d.apply(d.apply(FockVector.of(m))).is_zero(), m


def test_differential_parts_bidegrees():
    d = build_differential_d(SL2)
    d1, d2 = split_d1_d2(d)
    for m in enumerate_box(SL2.dim, Box(emax=2, b0max=0)):
        _, _, _, a0, b0 = m.degrees()
        for op, da, db in ((d1, 1, 0), (d2, 0, -1)):
            for m2, _ in op.apply(FockVector.of(m)).terms.items():
                _, _, _, a2, b2 = m2.degrees()
                assert (a2, b2) == (a0 + da, b0 + db)
        # and the parts recompose
        lhs = d.apply(FockVector.of(m))
        rhs = d1.apply(FockVector.of(m)) + d2.apply(FockVector.of(m))
        assert lhs == rhs


def test_dc_squares_to_zero():
    dc = build_dc(build_differential_d(SL2))
    for m in enumerate_box(SL2.dim, Box(emax=2, b0max=0)):
        assert dc.apply(dc.apply(FockVector.of(m))).is_zero(), m


def test_koszul_contraction_fixtures():
    k = build_koszul_h(AB1)
    assert k.apply(vec(b(0, 0))) == vec(t(0, 0))
    assert k.apply(vec(e(0, 1))) == vec(g(0, 1))
    assert k.apply(FockVector.vacuum()).is_zero()


# -- window robustness -------------------------------------------------


def test_window_padding_is_a_no_op(monkeypatch):
    """Widening every summation window by 3 on each side changes no
    output; the widened operators are built afresh, so no memoized
    column of the plain ones is reused."""

    def build():
        return [
            build_differential_d(SL2),
            build_s2alpha_family(SL2, QI(Fraction(1, 2)), "Lalpha", 1),
            build_n2_family(SL2, "p", -1),
            build_sl2_EHF(SL2, "EE"),
        ]

    box = [FockVector.of(m) for m in enumerate_box(SL2.dim, Box(emax=2, b0max=0))]
    plain = [[op.apply(v) for v in box] for op in build()]
    window = fieldops._term_window
    monkeypatch.setattr(
        fieldops, "_term_window", lambda term, bounds: window(term, bounds, pad=3)
    )
    for op, want in zip(build(), plain):
        assert [op.apply(v) for v in box] == want, op.name


def _term_shapes(op):
    if isinstance(op, FieldOperator):
        return list(op.terms)
    assert isinstance(op, SumOperator)
    return [t for _, part in op.parts for t in _term_shapes(part)]


def _passes_filters(term, vs):
    return all(vs[vi] > 0 if op == ">" else vs[vi] != 0 for vi, op in term.filters)


def _feasible(term, bounds, vs):
    """Every slot can meet the monomial and every filter passes."""
    for s in term.slots:
        mode = s.mode_at(vs)
        if s.family in ("g", "e"):
            if mode < bounds.get((s.family, s.comp), 1):
                return False
        elif mode > bounds.get((s.family, s.comp), 0):
            return False
    return _passes_filters(term, vs)


def test_window_is_the_feasible_set():
    """On every term shape of the N=2, S'(2,alpha), d, Koszul, theta and
    sl(2) families, the window holds every assignment whose slots can all
    meet the input monomial, exactly so for one summation variable, and
    every assignment outside it that passes the term's filters gives a zero
    generator product."""
    fmu = fmu_backend(QI(Fraction(1, 2)), ZERO)
    cases = []
    for backend, box in ((fmu, Box(2, 1)), (AB1, Box(2, 1)), (SL2, Box(1, 0))):
        ops = [build_n2_family(backend, s, n) for s in N2_SYMBOLS for n in (-1, 0, 1)]
        if backend.kind == "loop":
            ops += [
                build_s2alpha_family(backend, alpha, s, n)
                for alpha in (ZERO, QI(Fraction(1, 2)))
                for s in S2A_SYMBOLS
                for n in (-1, 0, 1)
            ]
            ops += [build_differential_d(backend), build_koszul_h(backend)]
            ops += [build_theta_adjoint(backend, j, n)
                    for j in range(backend.dim) for n in (-1, 0, 1)]
            ops += [build_sl2_EHF(backend, s) for s in ("EE", "HH", "FF")]
        cases.append((backend.dim, box, [t for op in ops for t in _term_shapes(op)]))
    # no family term has two bounds on one side or a coefficient other
    # than +-1, so these shapes exercise the min/max and the rounding
    one = lambda vs: ONE
    slots = (
        (("t", 0, 0, 1), ("b", 0, 1, 2), ("e", 0, 0, 1)),
        (("e", 0, 1, -2), ("g", 0, 0, 3), ("g", 0, 2, 1)),
        (("t", 0, -1, -3), ("e", 0, 2, 2), ("b", 0, 0, 1)),
    )
    terms = [
        TermShape(1, tuple(SlotSpec(f, c, k, (v,)) for f, c, k, v in shape), one)
        for shape in slots
    ]
    cases.append((1, Box(3, 1), terms))
    terms = _term_shapes(build_differential_d(WITT))
    terms += [t for n in (-1, 0, 1) for t in _term_shapes(build_theta_adjoint(WITT, 0, n))]
    cases.append((1, Box(2, 1), terms))
    grid = range(-6, 7)
    for dim, box, terms in cases:
        # the coefficient plays no part in the window or the product
        shapes = {(t.nvars, t.slots, t.normal, t.filters): t for t in terms}
        for m in enumerate_box(dim, box):
            bounds = _slot_bounds(m)
            for term in shapes.values():
                window = set(_term_window(term, bounds, 0))
                points = set(itertools.product(grid, repeat=term.nvars))
                assert window <= points, (term, m)
                feasible = {vs for vs in points if _feasible(term, bounds, vs)}
                if term.nvars == 1:
                    assert window == feasible, (term, m)
                else:
                    assert window >= feasible, (term, m)
                for vs in points - window:
                    if not _passes_filters(term, vs):
                        continue
                    keys = [GenKey(s.family, s.comp, s.mode_at(vs)) for s in term.slots]
                    if term.normal:
                        keys = normal_order_slots(keys)[1]
                    assert product_on_monomial(keys, m, False)[0] == 0, (term, m, vs)


# -- per-operator term plans against the per-call loop -----------------


def _per_call_apply(op, m, relative):
    """The loop that FieldOperator._apply_monomial ran before its term
    plans: every term's window, keys, sign and coefficient recomputed at
    every point for every monomial; SumOperator parts summed with their
    weights."""
    out = FockVector()
    if not op.central.is_zero():
        out.add_term(m, op.central)
    if isinstance(op, SumOperator):
        for c, part in op.parts:
            for m2, c2 in _per_call_apply(part, m, relative).terms.items():
                out.add_term(m2, c * c2)
        return out
    bounds = _slot_bounds(m)
    for term in op.terms:
        for vs in _term_window(term, bounds):
            keys = [GenKey(s.family, s.comp, s.mode_at(vs)) for s in term.slots]
            sign = 1
            if term.normal:
                sign, keys = normal_order_slots(keys)
            factor, m2 = product_on_monomial(keys, m, relative)
            if not factor:
                continue
            c = term.coeff(vs)
            if not c.is_zero():
                out.add_term(m2, c * QI(sign * factor))
    return out


def _family_ops(family):
    """The field and sum operators of a relation-suite family."""
    _, ops = BULK_FAMILIES[family]
    return [op for _, op in ops() if isinstance(op, (FieldOperator, SumOperator))]


def _fresh(op):
    """A copy of ``op`` with empty memos and term plans."""
    if isinstance(op, SumOperator):
        return SumOperator([(c, _fresh(p)) for c, p in op.parts], op.central, op.name)
    return FieldOperator(op.terms, op.central, op.name)


def _field_parts(op):
    if isinstance(op, SumOperator):
        return [f for _, part in op.parts for f in _field_parts(part)]
    return [op]


def _plan_boxes(family):
    dim = BULK_FAMILIES[family][0].dim
    return [
        (relative, enumerate_box(dim, Box(emax=1, b0max=1, zero_fermions_allowed=not relative)))
        for relative in (False, True)
    ]


@pytest.mark.parametrize("family", sorted(BULK_FAMILIES))
def test_term_plans_match_per_call_loop(family):
    """Every operator of every relation-suite family gives, on small
    absolute and relative boxes, what the per-call loop gives.  The box is
    applied twice with the memo bypassed, so the second pass takes every
    window, key and coefficient from the term plans."""
    ops = [_fresh(op) for op in _family_ops(family)]
    fields = [f for op in ops for f in _field_parts(op)]
    for relative, box in _plan_boxes(family):
        for _ in range(2):
            for f in fields:
                f._memo.clear()
            for op in ops:
                for m in box:
                    want = _per_call_apply(op, m, relative)
                    assert op._apply_monomial(m, relative) == want, (op.name, m)
    assert all(plan.windows for f in fields for plan in f._plans)


@pytest.mark.parametrize("family", sorted(BULK_FAMILIES))
def test_term_coefficient_evaluated_once_where_product_nonzero(family):
    """A term's coefficient is evaluated at most once per window point,
    across monomials, boxes and both models, and only at the points where
    some generator product is nonzero."""
    calls = {}

    def counted(term, key):
        def coeff(vs):
            calls[key + (vs,)] = calls.get(key + (vs,), 0) + 1
            return term.coeff(vs)

        return term._replace(coeff=coeff)

    fields = [f for op in _family_ops(family) for f in _field_parts(op)]
    counting = [
        FieldOperator([counted(t, (i, j)) for j, t in enumerate(f.terms)], f.central)
        for i, f in enumerate(fields)
    ]
    nonzero = set()
    for relative, box in _plan_boxes(family):
        for _ in range(2):
            for i, f in enumerate(counting):
                f._memo.clear()
                for m in box:
                    f.apply_monomial(m, relative)
                    bounds = _slot_bounds(m)
                    for j, term in enumerate(f.terms):
                        for vs in _term_window(term, bounds):
                            keys = [
                                GenKey(s.family, s.comp, s.mode_at(vs))
                                for s in term.slots
                            ]
                            if term.normal:
                                keys = normal_order_slots(keys)[1]
                            if product_on_monomial(keys, m, relative)[0]:
                                nonzero.add((i, j, vs))
    assert calls and max(calls.values()) == 1
    assert set(calls) == nonzero


# -- sl(2) triple on the relative model --------------------------------


def test_sl2_triple_fixture():
    EE = build_sl2_EHF(AB1, "EE")
    out = EE.apply(vec(t(0, -2)), relative=True)
    assert out == vec(e(0, 2)).scale(QI(0, -2))


def test_sl2_triple_relations_on_box():
    EE = build_sl2_EHF(AB1, "EE")
    HH = build_sl2_EHF(AB1, "HH")
    FF = build_sl2_EHF(AB1, "FF")
    box = Box(emax=2, b0max=0, zero_fermions_allowed=False)
    for m in enumerate_box(1, box):
        v = FockVector.of(m)
        c1 = super_commutator(EE, FF).apply(v, relative=True)
        assert c1 == HH.apply(v, relative=True), m
        c2 = super_commutator(HH, EE).apply(v, relative=True)
        assert c2 == EE.apply(v, relative=True).scale(QI(2)), m
        c3 = super_commutator(HH, FF).apply(v, relative=True)
        assert c3 == FF.apply(v, relative=True).scale(QI(-2)), m


def test_s2alpha_central_term():
    alpha = QI(Fraction(1, 2))
    L0 = build_s2alpha_family(SL2, alpha, "Lalpha", 0)
    # on the vacuum only the central summand survives
    expect = (alpha / QI(4) - alpha * alpha / QI(8)) * QI(3)
    assert L0.apply(FockVector.vacuum()) == FockVector.vacuum().scale(expect)


# -- star and the forms ------------------------------------------------


def test_star_involution_on_relative_box():
    box = Box(emax=2, b0max=1, zero_fermions_allowed=False)
    for m in enumerate_box(1, box):
        assert star(star(FockVector.of(m))) == FockVector.of(m), m


def test_star_rejects_zero_mode_fermions():
    _, m = make_monomial([t(0, 0)])
    with pytest.raises(StructureError):
        star_monomial(m)


def test_star_exchanges_bidegree():
    _, m = make_monomial([e(0, 1), e(0, 3), t(0, -2)])
    sign, m2 = star_monomial(m)
    _, _, _, a, bb = m2.degrees()
    assert (a, bb) == (1, 2)


# -- reference: the forms reduced one generator at a time --------------
#
# Both forms are defined by adjoint rules: {k u, w} = {u, c k' w} for the
# first creator k of a monomial, down to the vacuum coefficient.  These
# recursive reducers are the reference for the closed forms in fieldops.


def generator_adjoint(key: GenKey):
    """Adjoint of a generator with respect to {.,.}: a scalar multiple of
    the same family at the opposite mode."""
    c = I if key.family == "e" else -I
    return c, GenKey(key.family, key.comp, -key.mode)


_HODGE_SWAP = {"e": "t", "t": "e", "g": "b", "b": "g"}


def hodge_adjoint(key: GenKey):
    """Adjoint of a creator with respect to the Hodge inner product: the
    annihilator of the paired family at the same mode, weighted."""
    n = abs(key.mode)
    if n == 0 and key.family in ("e", "t"):
        raise StructureError("the Hodge form is defined on the relative model only")
    if key.family == "e":
        c = QI(Fraction(1, n))
    elif key.family == "t":
        c = QI(n)
    elif key.family == "g":
        c = QI(-1)
    else:
        c = ONE
    return c, GenKey(_HODGE_SWAP[key.family], key.comp, key.mode)


def _reduce_monomial(adjoint, m: FockMonomial, w: FockVector) -> QI:
    if m.is_vacuum():
        return w.terms.get(VACUUM, ZERO)
    if m.bosons:
        key = m.bosons[0]
        rest = FockMonomial(m.bosons[1:], m.fermions)
    else:
        key = m.fermions[0]
        rest = FockMonomial(m.bosons, m.fermions[1:])
    c, adj = adjoint(key)
    return _reduce_monomial(adjoint, rest, apply_generator(adj, w).scale(c))


def reference_form(adjoint, v: FockVector, w: FockVector) -> QI:
    total = ZERO
    for m, c in v.terms.items():
        total = total + c.conj() * _reduce_monomial(adjoint, m, w)
    return total


@pytest.mark.parametrize(
    "backend,box",
    [
        (AB1, Box(emax=2, b0max=1, zero_fermions_allowed=False)),
        (AB1, Box(emax=2, b0max=1)),
        (SL2, Box(emax=1, b0max=1, zero_fermions_allowed=False)),
        (SL2, Box(emax=1, b0max=0)),
    ],
    ids=["ab1-rel", "ab1-abs", "sl2-rel", "sl2-abs"],
)
def test_closed_forms_match_reference(backend, box):
    by_energy = {}
    for m in enumerate_box(backend.dim, box):
        by_energy.setdefault(m.energy(), []).append(FockVector.of(m))
    forms = [(hermitian_form, generator_adjoint)]
    if not box.zero_fermions_allowed:
        forms.append((hodge_form, hodge_adjoint))
    nonzero = {form: 0 for form, _ in forms}
    for vecs in by_energy.values():
        for v, w in itertools.product(vecs, vecs):
            for form, adjoint in forms:
                got = form(v, w)
                assert got == reference_form(adjoint, v, w), (form, v, w)
                nonzero[form] += not got.is_zero()
    assert all(nonzero.values())


def test_generator_adjoint_rules():
    c, k = generator_adjoint(e(0, 1))
    assert (c, k) == (I, e(0, -1))
    c, k = generator_adjoint(t(0, -2))
    assert (c, k) == (-I, t(0, 2))
    c, k = generator_adjoint(g(0, 1))
    assert (c, k) == (-I, g(0, -1))
    c, k = generator_adjoint(b(0, 0))
    assert (c, k) == (-I, b(0, 0))


def test_hermitian_form_fixtures():
    vac = FockVector.vacuum()
    assert hermitian_form(vac, vac) == ONE
    assert hermitian_form(vec(e(0, 1)), vec(t(0, -1))) == I
    assert hermitian_form(vec(t(0, -1)), vec(e(0, 1))) == -I
    # conjugate symmetry on a sample pair
    v, w = vec(g(0, 2)), vec(b(0, -2))
    assert hermitian_form(v, w) == hermitian_form(w, v).conj()
    # mode-0 bosonic creators are null against the vacuum
    assert hermitian_form(vac, vec(b(0, 0))) == ZERO
    assert hermitian_form(vec(b(0, 0)), vec(b(0, 0))) == ZERO


def test_pairing_form_fixtures():
    assert pairing_form(FockVector.vacuum(), FockVector.vacuum()) == ONE
    assert pairing_form(vec(e(0, 1)), vec(e(0, 1))) == QI(-1)


# -- the positive-definite Hodge inner product -------------------------


def test_hodge_form_fixtures():
    vac = FockVector.vacuum()
    assert hodge_form(vac, vac) == ONE
    assert hodge_form(vec(e(0, 2)), vec(e(0, 2))) == QI(Fraction(1, 2))
    assert hodge_form(vec(t(0, -2)), vec(t(0, -2))) == QI(2)
    assert hodge_form(vec(g(0, 2)), vec(g(0, 2))) == ONE
    assert hodge_form(vec(b(0, 0)), vec(b(0, 0))) == ONE
    # off-diagonal entries vanish on canonical monomials
    assert hodge_form(vec(e(0, 1)), vec(t(0, -1))) == ZERO


def test_hodge_form_rejects_zero_mode_fermions():
    v = apply_product([t(0, 0)], VACUUM)
    with pytest.raises(StructureError):
        hodge_form(v, v)


def test_hodge_form_makes_package_adjoints_exact():
    h0 = build_s2alpha_family(SL2, ZERO, "h", 0)
    p0 = build_s2alpha_family(SL2, ZERO, "p", 0)
    x = build_s2alpha_family(SL2, ZERO, "x", -1)
    y = build_s2alpha_family(SL2, ZERO, "y", 1)
    EE = build_sl2_EHF(SL2, "EE")
    FF = build_sl2_EHF(SL2, "FF")
    box = Box(emax=2, b0max=1, zero_fermions_allowed=False)
    monos = list(enumerate_box(SL2.dim, box))
    vecs = [FockVector.of(m) for m in monos]
    pairs = (
        (h0, lambda v: p0.apply(v, relative=True).scale(QI(-1))),
        (x, lambda v: y.apply(v, relative=True)),
        (EE, lambda v: FF.apply(v, relative=True)),
    )
    for A, B in pairs:
        avs = [A.apply(v, relative=True) for v in vecs]
        bvs = [B(v) for v in vecs]
        for i, v in enumerate(vecs):
            for j, w in enumerate(vecs):
                assert hodge_form(avs[i], w) == hodge_form(v, bvs[j]), (
                    monos[i],
                    monos[j],
                )


def test_hodge_form_positive_and_hermitian_on_box():
    box = Box(emax=2, b0max=2, zero_fermions_allowed=False)
    for m in enumerate_box(1, box):
        v = FockVector.of(m)
        norm = hodge_form(v, v)
        assert norm.im == 0 and norm.re > 0, m
    # sesquilinearity and conjugate symmetry on a sample
    v = vec(e(0, 1)).scale(QI(2, 3))
    w = vec(e(0, 1))
    assert hodge_form(v, w) == QI(2, 3).conj() * hodge_form(w, w)
    assert hodge_form(v, w) == hodge_form(w, v).conj()
