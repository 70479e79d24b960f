import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sweil.scalars import ONE, QI, ZERO
from sweil.liealg import (
    LieAlgebraSpec,
    StructureError,
    abelian,
    builtin_sl2_orthonormal,
    fmu_backend,
    loop_backend,
    witt_backend,
)
from sweil.fock import (
    Box,
    FockMonomial,
    FockVector,
    GenKey,
    enumerate_box,
    format_monomial,
    make_monomial,
)
from sweil.fieldops import (
    SumOperator,
    build_differential_d,
    build_koszul_h,
    build_s2alpha_family,
    build_sl2_EHF,
    build_theta_adjoint,
    super_commutator,
)
from sweil import bulkrep, verify
from sweil.bulkrep import BulkEngine, _op_products
from sweil.verify import (
    N2_TABLE_SYMBOLS,
    S2A_TABLE_SYMBOLS,
    GeneratorOperator,
    check_chain_identities,
    check_d_compatibility,
    check_relative_derext,
    check_representation,
    claimed_charge,
    n2_builder,
    n2_table,
    s2a_builder,
    s2a_table,
)

SL2 = loop_backend(builtin_sl2_orthonormal())
AB1 = loop_backend(abelian(1, with_form=True))
FMU = fmu_backend(Fraction(1, 2), 0)
SMALL = Box(emax=1, b0max=1)


def _sl2_wrong_constant():
    good = builtin_sl2_orthonormal()
    c = [[list(col) for col in row] for row in good.c]
    c[0][1][2] = c[0][1][2] + ONE
    return loop_backend(LieAlgebraSpec(c, good.form, "sl2-mutated"))


def _n2_central_off_by_one(backend, sym, n):
    """N=2 builder whose operator (sym, n) carries one more unit of
    central scalar."""
    build = n2_builder(backend)
    op = build(sym, n)
    wrong = SumOperator([(ONE, op)], central=ONE, name=op.name)
    return lambda s, k: wrong if (s, k) == (sym, n) else build(s, k)


def _representation(backend, family, window, charge=None, builder=None):
    if family == "n2":
        default, table, symbols = n2_builder(backend), n2_table, N2_TABLE_SYMBOLS
    else:
        default = s2a_builder(backend, 0)
        table, symbols = s2a_table(0), S2A_TABLE_SYMBOLS
    builder = builder or default
    if charge is None:
        charge = claimed_charge(backend)
    return [
        check_representation(
            family, table, builder, charge, backend.dim, SMALL, window, symbols
        )
    ]


SUITES = {
    "n2-sl2": lambda: _representation(SL2, "n2", 1),
    "n2-fmu": lambda: _representation(FMU, "n2", 1),
    "s2a-ab1": lambda: _representation(AB1, "s2a", 1),
    "n2-wrong-charge": lambda: _representation(
        SL2, "n2", 1, claimed_charge(SL2) + ONE
    ),
    # L[0] is on the right-hand side of [L[1], L[-1]]
    "n2-wrong-central": lambda: _representation(
        SL2, "n2", 1, builder=_n2_central_off_by_one(SL2, "L", 0)
    ),
    "chain-sl2": lambda: check_chain_identities(SL2, SMALL, window=1),
    "chain-wrong-constant": lambda: check_chain_identities(
        _sl2_wrong_constant(), SMALL, window=1
    ),
    "d-compat-sl2": lambda: [check_d_compatibility(SL2, SMALL, window=0)],
    "relative-derext-sl2": lambda: check_relative_derext(
        SL2, Box(emax=1, b0max=0), window=1
    ),
}


def _exact_bracket_defect(self, name_a, name_b, both_odd, rhs_terms):
    """bracket_defect with the exact comparison as the certificate."""
    self.prepare()
    comps, L = self._compositions(name_a, name_b, both_odd, rhs_terms)
    return self._first_failing_column(comps, rhs_terms, L)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_checksum_certificate_matches_exact_path(suite, monkeypatch):
    """Every relation suite gives the same verdicts and witnesses whether
    a pass is certified by the modular checksum or by the exact
    grouped-stream comparison alone."""
    shipped = SUITES[suite]()
    monkeypatch.setattr(BulkEngine, "bracket_defect", _exact_bracket_defect)
    exact = SUITES[suite]()
    assert shipped == exact
    failed = [r for r in shipped if not r.passed]
    if "wrong" in suite:
        assert failed and all(r.witness for r in failed)
    else:
        assert not failed


# -- per-instance reference for the packed kernel ----------------------
#
# The loop that BulkEngine._apply_all ran before instances were packed
# into tables: each instance runs its steps, rightmost generator first,
# over the states its prerequisites admit, one numpy round per instance.

_BA_G, _BA_B, _BC, _FA, _FC = range(5)


def _ref_compile(universe, keys, coeff):
    """(steps, coeff, need, empty, dslots) of one generator product, or
    None when it is identically zero."""
    steps = []
    sign = 1
    ferm_state = {}
    bos_delta = {}
    need = {}
    empty = []
    for key in reversed(keys):
        creator = key.is_creator()
        if key.family in ("g", "b"):
            if creator:
                p = universe.creator_slot(key)
                steps.append((_BC, p, bos_delta.get(p, 0)))
                bos_delta[p] = bos_delta.get(p, 0) + 1
            else:
                p = universe.creator_slot(key.dual())
                d = bos_delta.get(p, 0)
                if 1 - d > need.get(p, 0):
                    need[p] = 1 - d
                steps.append((_BA_G if key.family == "g" else _BA_B, p, d))
                if key.family == "b":
                    sign = -sign
                bos_delta[p] = d - 1
        elif creator:
            p = universe.creator_slot(key)
            cur = ferm_state.get(p)
            if cur == 1:
                return None
            if cur is None:
                empty.append(p)
            steps.append((_FC, p, 0))
            ferm_state[p] = 1
        else:
            p = universe.creator_slot(key.dual())
            cur = ferm_state.get(p)
            if cur == 0:
                return None
            if cur is None:
                need[p] = 1
            steps.append((_FA, p, 0))
            ferm_state[p] = 0
    delta = dict(bos_delta)
    for p, v in ferm_state.items():
        first = next(k for k, q, _ in steps if q == p and k in (_FA, _FC))
        delta[p] = v - (1 if first == _FA else 0)
    dslots = sorted((p, dv) for p, dv in delta.items() if dv)
    return steps, (coeff if sign == 1 else -coeff), sorted(need.items()), empty, dslots


def _ref_u(z, row, memo):
    """u of an occupancy row per checksum prime, prod_s z_s**occ_s mod p
    with Python pow (an output row may pass the engine's z-power table)."""
    key = row.tobytes()
    if key not in memo:
        occ = [(int(s), int(row[s])) for s in np.flatnonzero(row)]
        out = []
        for zi, p in zip(z, bulkrep._CHECK_PRIMES):
            w = 1
            for slot, n in occ:
                w = w * pow(zi[slot], n, p) % p
            out.append(w)
        memo[key] = tuple(out)
    return memo[key]


def _engine_z(engine):
    """The per-slot weights z_s of each checksum prime, as Python ints."""
    tab = engine._ztab
    return tab[:, :, tab.shape[2] // 2 + 1].tolist()


def _ref_apply(universe, products, den, states, z):
    """Entries (col, key, re, im, row) of the operator with generator
    products ``products`` on every row of ``states``; an entry's key is
    the u of its output row under the per-slot weights ``z``."""
    f0 = universe.f0
    out = []
    memo = {}
    for keys, coeff in products:
        inst = _ref_compile(universe, keys, coeff)
        if inst is None:
            continue
        steps, c, need, empty, dslots = inst
        mask = np.ones(len(states), dtype=bool)
        for p, r in need:
            mask &= states[:, p] >= r
        for p in empty:
            mask &= states[:, p] == 0
        idx = np.flatnonzero(mask)
        fac = np.ones(len(idx), dtype=np.int64)
        for i, (kind, p, dbefore) in enumerate(steps):
            if kind in (_BA_G, _BA_B):
                fac *= states[idx, p].astype(np.int64) + dbefore
            elif kind in (_FA, _FC):
                par = states[idx, f0:p].sum(axis=1, dtype=np.int64)
                # parity correction from earlier steps of this instance
                corr = sum(
                    1 if k in (_BC, _FC) else -1
                    for k, q, _ in steps[:i]
                    if f0 <= q < p
                )
                np.negative(fac, out=fac, where=((par + corr) & 1).astype(bool))
        rows = states[idx].astype(np.int16)
        for p, dv in dslots:
            rows[:, p] += dv
        assert rows.min(initial=0) >= 0
        rows = rows.astype(np.uint8)
        re, im = int(c.re * den), int(c.im * den)
        for j, s in enumerate(idx.tolist()):
            out.append(
                (
                    s,
                    _ref_u(z, rows[j], memo),
                    re * int(fac[j]),
                    im * int(fac[j]),
                    rows[j].tobytes(),
                )
            )
    return out


def _grouped(entries):
    """(col, key) -> summed (re, im) without zero sums, and (col, key) ->
    output row; a key seen with two different rows fails."""
    sums, rows = {}, {}
    for col, u, re, im, row in entries:
        key = (col, u)
        r0, i0 = sums.get(key, (0, 0))
        sums[key] = (r0 + re, i0 + im)
        assert rows.setdefault(key, row) == row
    return {k: v for k, v in sums.items() if v != (0, 0)}, rows


def _kernel_entries(engine, name, states, keys):
    bop = engine._ops[name]
    cols, keys, re, im, inst = engine._apply_all(
        bop, states, keys, collect_rows=True
    )
    rows = bulkrep._image_rows(bop, states, cols, inst)
    return list(
        zip(
            cols.tolist(),
            map(tuple, keys.T.tolist()),
            re.tolist(),
            im.tolist(),
            (r.tobytes() for r in rows),
        )
    )


WITT = witt_backend()
HALF = QI(Fraction(1, 2))


def _family(builder, symbols):
    return lambda: [
        (f"{s}[{n}]", builder(s, n)) for s in symbols for n in (-1, 0, 1)
    ]


def _chain_ops(backend):
    ops = [("d", build_differential_d(backend)), ("kz", build_koszul_h(backend))]
    for j in range(backend.dim):
        for n in (-1, 0, 1):
            ops.append((f"theta({j},{n})", build_theta_adjoint(backend, j, n)))
            ops.append((f"tau({j},{n})", GeneratorOperator(GenKey("t", j, n))))
    return ops


# every operator family the relation suites register
FAMILIES = {
    "n2-sl2": (SL2, _family(n2_builder(SL2), N2_TABLE_SYMBOLS)),
    "n2-fmu": (FMU, _family(n2_builder(FMU), N2_TABLE_SYMBOLS)),
    "s2a0-sl2": (SL2, _family(s2a_builder(SL2, ZERO), S2A_TABLE_SYMBOLS)),
    "s2a-half-ab1": (AB1, _family(s2a_builder(AB1, HALF), S2A_TABLE_SYMBOLS)),
    "chain-sl2": (SL2, lambda: _chain_ops(SL2)),
    "chain-witt": (WITT, lambda: _chain_ops(WITT)),
    "sl2-triple": (
        SL2,
        lambda: [(s, build_sl2_EHF(SL2, s)) for s in ("EE", "HH", "FF")],
    ),
}


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_packed_kernel_matches_per_instance_reference(family, relative, monkeypatch):
    """The packed-table kernel and the per-instance loop it replaced give
    the same grouped (col, key) -> (re, im) map and the same output rows,
    for every registered operator on the box block and on random blocks
    of level-1 states, in one pass and one instance per chunk.  The
    reference key is the u of the output row, so the kernel's keys
    u(state) * z**delta are checked against the rows they stand for."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    u = engine.universe
    z = _engine_z(engine)
    rng = np.random.default_rng(sum(map(ord, family)) + relative)
    blocks = [engine.box_ids, np.zeros(0, dtype=np.int64)]
    for size in (1, 40, 400):
        ids = rng.choice(engine.n1, size=min(size, engine.n1), replace=False)
        blocks.append(np.sort(ids))
    for name, bop in engine._ops.items():
        products = _op_products(u, bop.op, relative)
        for ids in blocks:
            states, keys = engine.l1_rows[ids], engine.l1_u[:, ids]
            got = _grouped(_kernel_entries(engine, name, states, keys))
            want = _grouped(_ref_apply(u, products, bop.den, states, z))
            assert got == want, (family, name, len(ids))
            monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
            got = _grouped(_kernel_entries(engine, name, states, keys))
            monkeypatch.undo()
            assert got == want, (family, name, len(ids), "chunked")


def _ref_rows(universe, monos):
    """Occupancy rows built with one slot increment per key."""
    rows = np.zeros((len(monos), universe.nslots), dtype=np.uint8)
    for i, m in enumerate(monos):
        for k in m.bosons + m.fermions:
            rows[i, universe.creator_slot(k)] += 1
    return rows


def test_rows_of_counts_every_key():
    """The single scatter-add of ``Universe.rows_of`` counts bosonic
    multiplicities and rejects a key outside the slot universe."""
    u = bulkrep.Universe(2, 3)
    monos = enumerate_box(2, Box(emax=2, b0max=2))
    rows = u.rows_of(monos)
    assert np.array_equal(rows, _ref_rows(u, monos))
    assert rows.max() == 2
    assert u.rows_of([]).shape == (0, u.nslots)
    with pytest.raises(StructureError, match="outside the slot universe"):
        u.rows_of(monos[:3] + [FockMonomial((GenKey("g", 0, 4),), ())])


def test_group_keyed_is_exact_in_column_and_key():
    """(column, key) cells that differ in one residue or in the column
    alone stay apart, equal cells are summed and zero sums dropped; here
    most cells share their first sort word, so the exact two-word sort
    decides."""
    top = bulkrep._CHECK_PRIMES[0] - 1
    keys = np.array(
        [
            [5, 5, 5, 5, 5, top, top],
            [1, 2, 1, 1, 1, top, top],
            [7, 7, 8, 7, 7, top, top],
        ],
        dtype=np.uint32,
    )
    cols = np.array([0, 0, 0, 1, 0, 3, 3], dtype=np.int64)
    re = np.array([1, 2, 3, 4, 10, 6, -6], dtype=np.int64)
    im = np.array([0, 0, 0, -4, 1, 0, 0], dtype=np.int64)
    gc, gk, gre, gim, first = bulkrep._group_keyed(cols, keys, re, im)
    got = {
        (c, tuple(k)): (r, i)
        for c, k, r, i in zip(gc.tolist(), gk.T.tolist(), gre.tolist(), gim.tolist())
    }
    assert got == {
        (0, (5, 1, 7)): (11, 1),
        (0, (5, 2, 7)): (2, 0),
        (0, (5, 1, 8)): (3, 0),
        (1, (5, 1, 7)): (4, -4),
    }
    assert np.array_equal(cols[first], gc)
    assert np.array_equal(keys[:, first], gk)


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_level1_pool_invariants(family, relative):
    """The level-1 pool holds distinct rows whose keys l1_u are their u,
    the box monomials sit at box_ids, and IDENTITY's closed-form box
    matrix is what compiling and applying its table gives."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    u = engine.universe
    z, memo = _engine_z(engine), {}
    want = [_ref_u(z, row, memo) for row in engine.l1_rows]
    assert engine.l1_u.dtype == np.uint32
    assert list(map(tuple, engine.l1_u.T.tolist())) == want
    assert len(np.unique(engine.l1_rows, axis=0)) == engine.n1
    box_rows = _ref_rows(u, engine.box_monos)
    assert np.array_equal(engine.l1_rows[engine.box_ids], box_rows)
    bop = engine._ops[bulkrep.IDENTITY]
    cols, keys, re, im, inst = engine._apply_all(
        bop, box_rows, engine.l1_u[:, engine.box_ids], collect_rows=True
    )
    rows_ids, got_cols, got_re, got_im = engine._box_mats[bulkrep.IDENTITY]
    assert np.array_equal(
        engine.l1_rows[rows_ids], bulkrep._image_rows(bop, box_rows, cols, inst)
    )
    assert np.array_equal(got_cols, cols)
    assert np.array_equal(got_re, re) and np.array_equal(got_im, im)


def _mono_of(universe, row) -> FockMonomial:
    """The monomial of an occupancy row, whose slot order (bosons, then
    fermions in canonical order) must need no reordering."""
    keys = []
    for i in np.flatnonzero(row):
        keys.extend([universe.slots[i]] * int(row[i]))
    sign, mono = make_monomial(keys)
    assert sign == 1, "occupancy row is not in canonical slot order"
    return mono


@pytest.mark.parametrize("backend", [SL2, AB1], ids=["sl2", "ab1"])
def test_box_matrices_match_operator_apply(backend):
    """Each column of a compiled box matrix, decoded through the level-1
    rows and divided by the operator's denominator, is the operator
    applied to that box monomial (the central scalar of S'(2,1/2) L[0]
    enters as the empty generator product)."""
    ops = {
        "d": build_differential_d(backend),
        "theta": build_theta_adjoint(backend, 0, 1),
        "L[0]": build_s2alpha_family(backend, HALF, "Lalpha", 0),
        "tau": GeneratorOperator(GenKey("t", 0, -1)),
    }
    engine = BulkEngine(backend.dim, Box(emax=1, b0max=1))
    for name, op in ops.items():
        engine.register(name, op)
    engine.prepare()
    u = engine.universe
    assert ([], ops["L[0]"].central) in _op_products(u, ops["L[0]"], False)
    assert not ops["L[0]"].central.is_zero()
    for name, op in ops.items():
        rows, cols, re, im = engine._box_mats[name]
        den = engine._ops[name].den
        got = [FockVector() for _ in engine.box_monos]
        for r, c, x, y in zip(rows.tolist(), cols.tolist(), re.tolist(), im.tolist()):
            got[c].add_term(
                _mono_of(u, engine.l1_rows[r]),
                QI(Fraction(x, den), Fraction(y, den)),
            )
        for col, m in enumerate(engine.box_monos):
            assert got[col] == op.apply(FockVector.of(m)), (name, m)


def test_bounds_hold_without_asserts():
    """The int64 bounds, the z-power table's exponent bound and the
    output-row builder's emptied-slot guard are explicit raises, so
    python -O keeps them."""
    code = textwrap.dedent(
        """
        import numpy as np
        from sweil.bulkrep import (
            IDENTITY,
            BulkEngine,
            _group_keyed,
            _image_rows,
            _pack_table,
        )
        from sweil.fieldops import SumOperator
        from sweil.fock import Box, GenKey
        from sweil.liealg import StructureError
        from sweil.scalars import ONE
        from sweil.verify import GeneratorOperator

        # a hand-built instance as the engine table's one row and the
        # table of operator ``name``
        def install(eng, name, instance):
            bop = eng._ops[name]
            eng._table, (bop.table,) = _pack_table(eng.universe, [([instance], 1)])
            bop.first = 0
            return bop

        big = np.array([1 << 61, 1 << 61], dtype=np.int64)
        cols = np.zeros(2, dtype=np.int64)
        keys = np.ones((3, 2), dtype=np.uint32)
        try:
            _group_keyed(cols, keys, big, np.zeros(2, dtype=np.int64))
        except OverflowError:
            print("raised")

        # a hand-built table whose one instance lowers a slot it does not
        # constrain: every box state has that slot empty
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        eng.prepare()
        slot = eng.universe.creator_slot(GenKey("g", 0, eng.universe.mmax))
        bop = install(eng, "tau", (ONE, [], [], [], [(slot, -1)]))
        rows, keys = eng.l1_rows[eng.box_ids], eng.l1_u[:, eng.box_ids]
        cols, *_, inst = eng._apply_all(bop, rows, keys, True)
        try:
            _image_rows(bop, rows, cols, inst)
        except StructureError:
            print("raised")

        # an instance coefficient past the int64 headroom
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        tau = GeneratorOperator(GenKey("t", 0, 0))
        eng.register("big", SumOperator([(1 << 31, tau)]))
        try:
            eng.prepare()
        except OverflowError:
            print("raised")

        # a central scalar is an instance coefficient, under the same bound
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("big-central", SumOperator((), central=1 << 31))
        try:
            eng.prepare()
        except OverflowError:
            print("raised")

        # a composition whose product entries would overflow int64: the
        # identity's table and tau's box matrix scaled by 2**32, with the
        # checksum bypassed so that the exact path runs
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        eng.prepare()
        one = eng._ops[IDENTITY]
        one.table = one.table._replace(re=one.table.re << 32)
        rows, cols, re, im = eng._box_mats["tau"]
        eng._box_mats["tau"] = (rows, cols, re << 32, im)
        eng._checksum_zero = lambda *args: False
        try:
            eng.bracket_defect(IDENTITY, "tau", False, [])
        except OverflowError as exc:
            print("raised" if "product entry" in str(exc) else exc)

        # a hand-built table with five count factors of offset 127: a
        # factor times a checksum weight below 2**31 could pass 2**63
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        eng.prepare()
        slot = eng.universe.creator_slot(GenKey("g", 0, 1))
        install(eng, "tau", (ONE, [], [(slot, 127)] * 5, [], []))
        try:
            eng.bracket_defect("tau", "tau", True, [])
        except OverflowError as exc:
            print("raised" if "count factor" in str(exc) else exc)

        # an exponent past the z-power table, which a negative index would
        # otherwise read from the table's far end
        k = eng._ztab.shape[2] // 2
        try:
            eng._zpow(np.zeros((1, 1), dtype=np.int64), np.full((1, 1), -k - 1))
        except OverflowError as exc:
            print("raised" if "z-power table" in str(exc) else exc)
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
    assert out.stdout.split() == ["raised"] * 7


# -- the first failing column against the per-monomial engine ---------


def _suite_reports(suite, monkeypatch):
    """(bulk suite, cases, report) for every report of a relation suite,
    with every case the report was given, passing cases too (a report
    stops at its first failing case)."""
    seen = []
    report = verify._BulkSuite.report

    def recording(self, check, params, cases):
        cases = list(cases)
        out = report(self, check, params, cases)
        seen.append((self, cases, out))
        return out

    monkeypatch.setattr(verify._BulkSuite, "report", recording)
    SUITES[suite]()
    monkeypatch.undo()
    return seen


def _suite_cases(suite, monkeypatch):
    """(bulk suite, case) for every case a relation suite checks."""
    return [
        (s, case) for s, cases, _ in _suite_reports(suite, monkeypatch) for case in cases
    ]


def _slow_first_defect(suite, a, b, rhs_terms):
    """First box column where [A, B] - sum c_t T_t is nonzero in the
    per-monomial engine, or None."""
    ops = suite.engine._ops
    lhs = super_commutator(ops[a].op, ops[b].op)
    for col, m in enumerate(suite.engine.box_monos):
        v = FockVector.of(m)
        d = lhs.apply(v, relative=suite.relative)
        for c, name in rhs_terms:
            d = d - ops[name].op.apply(v, relative=suite.relative).scale(c)
        if not d.is_zero():
            return col
    return None


@pytest.mark.parametrize(
    "suite", ["chain-wrong-constant", "n2-wrong-central", "n2-wrong-charge"]
)
def test_bracket_defect_is_first_slow_defect(suite, monkeypatch):
    """For every case of a suite with a seeded wrong claim, bracket_defect
    is the first box column where the per-monomial engine finds a nonzero
    defect, or None where it finds none; as shipped and with one instance
    per mask chunk."""
    cases = _suite_cases(suite, monkeypatch)
    want = [_slow_first_defect(s, a, b, rhs) for s, (_, a, b, _, rhs) in cases]
    assert None in want and any(w is not None for w in want)
    got = [s.engine.bracket_defect(*case[1:]) for s, case in cases]
    assert got == want
    monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
    got = [s.engine.bracket_defect(*case[1:]) for s, case in cases]
    assert got == want


def _ref_defect_sums(suite, a, b, both_odd, rhs_terms):
    """Per checksum prime, (re, im) of u^T D v mod p, with D the defect
    [A, B] - sum c_t T_t scaled by the case's common denominator, taken
    from the per-monomial engine's outputs: u of each output monomial is
    prod_s z_s**occ_s over its occupancy row, v the box-column weight."""
    engine = suite.engine
    ops = engine._ops
    _, L = engine._compositions(a, b, both_odd, rhs_terms)
    z, memo = _engine_z(engine), {}
    lhs = super_commutator(ops[a].op, ops[b].op)
    entries = []  # (col, u per prime, scaled re, scaled im)
    for col, m in enumerate(engine.box_monos):
        v = FockVector.of(m)
        d = lhs.apply(v, relative=suite.relative)
        for c, name in rhs_terms:
            d = d - ops[name].op.apply(v, relative=suite.relative).scale(c)
        monos = list(d.terms)
        rows = engine.universe.rows_of(monos)
        for mono, row in zip(monos, rows):
            c = d.terms[mono]
            re, im = c.re * L, c.im * L
            assert re.denominator == 1 and im.denominator == 1
            entries.append((col, _ref_u(z, row, memo), int(re), int(im)))
    cols = np.array([e[0] for e in entries], dtype=np.int64)
    out = []
    for i, (p, r5, r6) in enumerate(bulkrep._CHECK_CONSTS):
        vs = bulkrep._col_weights(p, r5, r6, cols).tolist()
        tot_re = tot_im = 0
        for (_, u, re, im), v in zip(entries, vs):
            w = v * u[i] % p
            tot_re += re * w
            tot_im += im * w
        out.append((tot_re % p, tot_im % p))
    return out


def _planned_sums(reports, share):
    """Per case of every report, the checksum sums of _defect_sums after
    planning the first ``share`` of the report's cases: all of them (one
    kernel pass per inner operator), none (a one-outer batch per
    composition) or half (a later case's outer may meet a planned inner
    that the plan does not pair it with)."""
    out = []
    for s, cases, _ in reports:
        s.engine.plan([case[1:] for case in cases[: int(len(cases) * share)]])
        for _, a, b, both_odd, rhs_terms in cases:
            comps, L = s.engine._compositions(a, b, both_odd, rhs_terms)
            out.append(s.engine._defect_sums(comps, rhs_terms, L))
        if share == 1:
            # every inner the cases need was batched once, for all its outers
            inners = {i for c in cases for _, i, _ in s.engine._compositions(*c[1:])[0]}
            assert set(s.engine._batches) == inners
            for inner, sums in s.engine._batches.items():
                assert sums.shape == (len(s.engine._planned[inner]), 3, 2)
    return out


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_fused_checksum_matches_per_monomial_sums(suite, monkeypatch):
    """For every case of every relation suite, the per-prime checksum
    sums that the table kernel reduces chunk by chunk equal u^T D v taken
    from the per-monomial engine's outputs, value for value: from the
    report's planned batches (one kernel pass per inner operator for all
    its outers), from one-outer batches with no plan, and with half of
    the cases planned; as shipped and with one instance per mask chunk."""
    reports = _suite_reports(suite, monkeypatch)
    want = [_ref_defect_sums(s, *case[1:]) for s, cases, _ in reports for case in cases]
    assert all(len(w) == len(bulkrep._CHECK_PRIMES) for w in want)
    # some inner is shared by several outers, so a batch covers more than
    # one composition
    assert any(
        len(outers) > 1 for s, _, _ in reports for outers in s.engine._planned.values()
    )
    for share in (1, 0, 0.5):
        assert _planned_sums(reports, share) == want, share
    if "wrong" in suite:
        assert any(w != [(0, 0)] * 3 for w in want)
    monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
    for share in (1, 0, 0.5):
        assert _planned_sums(reports, share) == want, share



@pytest.mark.parametrize("suite", sorted(SUITES))
def test_checksum_nonzero_iff_exact_column(suite, monkeypatch):
    """For every case of every relation suite, the checksum of the
    report's planned batches is nonzero exactly when the exact comparison
    finds a failing column; as shipped and with one instance per mask
    chunk."""
    reports = _suite_reports(suite, monkeypatch)

    def verdicts():
        out = []
        for s, cases, _ in reports:
            s.engine.plan([case[1:] for case in cases])
            for _, a, b, both_odd, rhs_terms in cases:
                comps, L = s.engine._compositions(a, b, both_odd, rhs_terms)
                zero = s.engine._checksum_zero(comps, rhs_terms, L)
                col = s.engine._first_failing_column(comps, rhs_terms, L)
                out.append((zero, col))
        return out

    shipped = verdicts()
    assert all(zero == (col is None) for zero, col in shipped)
    assert any(zero for zero, _ in shipped)
    if "wrong" in suite:
        assert not all(zero for zero, _ in shipped)
    monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
    assert verdicts() == shipped


@pytest.mark.parametrize(
    "suite", ["chain-wrong-constant", "n2-wrong-central", "n2-wrong-charge"]
)
def test_report_witness_is_first_failing_case(suite, monkeypatch):
    """A failing report names its first case k whose per-monomial defect
    is nonzero, at that case's first failing box column, although the
    batches that certified the cases before k also summed compositions of
    cases after k; as shipped and with one instance per mask chunk."""
    reports = _suite_reports(suite, monkeypatch)
    failed = [(s, cases, r) for s, cases, r in reports if not r.passed]
    assert failed
    ahead = []  # per failing report: were later cases' compositions batched
    for s, cases, report in failed:
        want = []  # slow first failing columns, up to the first failing case
        for _, a, b, _, rhs in cases:
            want.append(_slow_first_defect(s, a, b, rhs))
            if want[-1] is not None:
                break
        k = len(want) - 1
        assert want[k] is not None
        witness = dict(report.witness)
        assert witness["pair"] == cases[k][0]
        assert witness["monomial"] == format_monomial(s.engine.box_monos[want[k]])
        # replay the report's engine calls up to case k
        engine = s.engine
        engine.plan([case[1:] for case in cases])
        got = [engine.bracket_defect(*case[1:]) for case in cases[: k + 1]]
        assert got == want
        later = {
            (outer, inner)
            for case in cases[k + 1 :]
            for outer, inner, _ in engine._compositions(*case[1:])[0]
        }
        ahead.append(
            any(
                inner in engine._batches and outer in engine._planned[inner]
                for outer, inner in later
            )
        )
    assert any(ahead)
    monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
    assert [r for *_, r in _suite_reports(suite, monkeypatch)] == [
        r for *_, r in reports
    ]


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_operator_tables_are_views_of_the_engine_table(family, relative):
    """prepare packs every operator into one engine table; each
    operator's table is a view of its own rows, cut to its own widest
    row, and equals, field by field, the table _pack_table builds for that
    operator alone."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    u, table = engine.universe, engine._table
    first = 0
    for name, bop in engine._ops.items():
        instances = bulkrep._op_instances(u, bop.op, relative)
        alone, (view,) = bulkrep._pack_table(u, [(instances, bop.den)])
        assert bop.first == first
        first += len(instances)
        for field, got, want, whole in zip(bulkrep._Table._fields, bop.table, alone, table):
            assert got.dtype == want.dtype and got.shape == want.shape, (name, field)
            assert np.array_equal(got, want), (name, field)
            assert got.base is whole or got.base is whole.base, (name, field)
        assert np.array_equal(view.re, alone.re)
    assert first == len(table.re)


def test_pair_chunks_respect_the_mask_budget(monkeypatch):
    """No chunk of _pair_chunks has more than _MASK_CELLS mask cells
    (instances x states) unless it holds a single instance, and the chunks
    together hold the pairs of one unchunked pass, in the same order; as
    shipped and with a budget of one cell."""
    backend, ops = FAMILIES["n2-sl2"]
    engine = BulkEngine(backend.dim, Box(emax=1, b0max=1))
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    t = engine._table
    rows = np.arange(len(t.re))
    rng = np.random.default_rng(7)
    blocks = [engine.box_ids] + [
        np.sort(rng.choice(engine.n1, size=n, replace=False))
        for n in (1, 40, 400, 2000)
    ]

    def pairs(states):
        chunks = list(engine._pair_chunks(t, rows, states))
        for counts, inst, cols, fac in chunks:
            assert len(counts) * len(states) <= bulkrep._MASK_CELLS or len(counts) == 1
            assert len(inst) == len(cols) == len(fac) == counts.sum()
        return chunks, [np.concatenate(x) for x in zip(*chunks)]

    for ids in blocks:
        states = engine.l1_rows[ids]
        monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1 << 40)
        (whole,), _ = pairs(states)
        for budget in (None, 1):
            monkeypatch.undo()
            if budget is not None:
                monkeypatch.setattr(bulkrep, "_MASK_CELLS", budget)
            chunks, joined = pairs(states)
            assert all(np.array_equal(a, b) for a, b in zip(joined, whole))
        monkeypatch.undo()
    # the shipped budget splits the largest block into several chunks
    assert len(pairs(engine.l1_rows[blocks[-1]])[0]) > 1


def test_segment_sums_are_exact_residues():
    """_segment_sums gives each segment's sum of fac * w mod p exactly,
    with each product reduced first (``wide``) and, where a segment's sum
    fits int64, without; count factors up to the 2**32 bound."""
    rng = np.random.default_rng(11)
    p = np.array(bulkrep._CHECK_PRIMES, dtype=np.int64)[:, None]
    w = rng.integers(0, p, size=(3, 50))
    for top in (4, 1 << 32):
        cols = rng.integers(0, 50, size=300)
        fac = rng.integers(1 - top, top, size=300)
        starts = np.array([0, 1, 2, 40, 299])
        want = [
            [sum(int(f) * int(x) for f, x in zip(fac[a:b], w[i, cols[a:b]])) % q
             for a, b in zip(starts, list(starts[1:]) + [300])]
            for i, q in enumerate(bulkrep._CHECK_PRIMES)
        ]
        got = bulkrep._segment_sums(fac, w, cols, starts, True)
        assert got.tolist() == want
        if top == 4:
            got = bulkrep._segment_sums(fac, w, cols, starts, False)
            assert got.tolist() == want


def test_nonzero_checksum_without_exact_column_raises(monkeypatch):
    """A nonzero checksum on a case whose exact comparison finds no
    failing column is an inconsistency of the engine, not a PASS."""
    engine = BulkEngine(SL2.dim, SMALL)
    engine.register("d", build_differential_d(SL2))
    engine.prepare()
    assert engine.bracket_defect("d", "d", True, []) is None
    monkeypatch.setattr(
        BulkEngine, "_defect_sums", lambda self, *args: [(1, 0), (0, 0), (0, 0)]
    )
    with pytest.raises(StructureError, match="nonzero checksum"):
        engine.bracket_defect("d", "d", True, [])

def test_failure_path_runs_without_scipy():
    """A fresh interpreter imports the CLI and takes one bracket check down
    its failure path (a flipped sl(2) structure constant) without loading
    scipy."""
    code = textwrap.dedent(
        """
        import sys
        import sweil.cli
        from sweil.fock import Box
        from sweil.liealg import LieAlgebraSpec, builtin_sl2_orthonormal, loop_backend
        from sweil.scalars import ONE
        from sweil.verify import check_chain_identities

        good = builtin_sl2_orthonormal()
        c = [[list(col) for col in row] for row in good.c]
        c[0][1][2] = c[0][1][2] + ONE
        wrong = loop_backend(LieAlgebraSpec(c, good.form, "sl2-mutated"))
        reports = check_chain_identities(wrong, Box(emax=1, b0max=1), window=1)
        print(any(not r.passed and r.witness for r in reports))
        print("scipy" in sys.modules)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert out.stdout.split() == ["True", "False"]
