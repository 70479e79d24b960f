import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    normal_order_slots,
)
from sweil.fieldops import (
    FieldOperator,
    SlotSpec,
    SumOperator,
    TermShape,
    build_differential_d,
    build_koszul_h,
    build_s2alpha_family,
    build_sl2_EHF,
    build_theta_adjoint,
    super_commutator,
)
from sweil import bulkrep, verify
from sweil.bulkrep import _FULL as FULL, BulkEngine
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


# -- per-instance compile: the oracle of the engine table -------------
#
# The compile path the engine ran before it compiled by signature: every
# grid point of every term shape is enumerated in Python, run through
# _compile_instance one by one, and the instance lists are padded into
# the table row by row.


def _term_products(universe, term, weight, relative):
    """(keys, coeff) of every generator product of one term shape with
    every slot mode in range."""
    mmax = universe.mmax
    nv = term.nvars
    if nv == 0:
        ranges = [()]
    else:
        bounds = []
        for v in range(nv):
            b = None
            for s in term.slots:
                if all(c == 0 for i, c in enumerate(s.coeffs) if i != v) and abs(
                    s.coeffs[v]
                ) == 1:
                    r = mmax + abs(s.const)
                    b = (-r, r)
                    break
            if b is None:
                raise StructureError("term has no isolating slot for a variable")
            bounds.append(range(b[0], b[1] + 1))
        ranges = itertools.product(*bounds)
    out = []
    for vs in ranges:
        ok = True
        for vi, cmp_op in term.filters:
            if cmp_op == ">" and not vs[vi] > 0:
                ok = False
            if cmp_op == "!=" and vs[vi] == 0:
                ok = False
        if not ok:
            continue
        keys = []
        for s in term.slots:
            mode = s.mode_at(vs)
            if not -mmax <= mode <= mmax:
                keys = None
                break
            keys.append(GenKey(s.family, s.comp, mode))
        if keys is None:
            continue
        if relative and any(k.is_fermionic() and k.mode == 0 for k in keys):
            continue
        c = weight * term.coeff(vs)
        if c.is_zero():
            continue
        sign = 1
        if term.normal:
            sign, keys = normal_order_slots(keys)
        out.append((keys, c if sign == 1 else -c))
    return out


def _op_products(universe, op, relative):
    """The (keys, coeff) generator products of an operator tree; its
    central scalar is the empty product."""
    central, leaves = bulkrep._leaf_iter(op, QI(1))
    products = [] if central.is_zero() else [([], central)]
    for weight, leaf in leaves:
        if hasattr(leaf, "key"):
            key = leaf.key
            if not (relative and key.is_fermionic() and key.mode == 0):
                products.append(([key], weight))
        else:
            for term in leaf.terms:
                products.extend(_term_products(universe, term, weight, relative))
    return products


def _op_instances(universe, op, relative):
    """The compiled instances of an operator tree that are not
    identically zero."""
    out = []
    for keys, c in _op_products(universe, op, relative):
        inst = bulkrep._compile_instance(universe, keys, c)
        if inst is not None:
            out.append(inst)
    return out


def _padded(rows, fill, dtype):
    """Stack variable-length rows of equal-length tuples (of plain values
    when ``fill`` has length one) into one array of shape (len(rows),
    widest row, len(fill)), padding with ``fill``; also returns the row
    lengths."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    out = np.empty((len(rows), int(lens.max(initial=0)), len(fill)), dtype=dtype)
    out[...] = fill
    flat = np.array(list(itertools.chain.from_iterable(rows)), dtype=np.int64)
    # entry e of the flat list is column e - (start of its row) of its row
    owner = np.repeat(np.arange(len(rows)), lens)
    out[owner, np.arange(len(owner)) - (np.cumsum(lens) - lens)[owner]] = (
        flat.reshape(len(owner), len(fill))
    )
    return out, lens


def _pack_table(universe, groups):
    """One packed table of the compiled instances of every (instances,
    den) group, each coefficient scaled by its group's den, and per group
    a view of the table: the group's rows, cut to its widest row."""
    f0, ones = universe.f0, universe.nslots
    instances = [r for insts, _ in groups for r in insts]
    re = [int(c.re * den) for insts, den in groups for c, *_ in insts]
    im = [int(c.im * den) for insts, den in groups for c, *_ in insts]
    bulkrep._bound(
        all(abs(x) < 1 << 30 for x in re) and all(abs(x) < 1 << 30 for x in im),
        "instance coefficient",
    )
    (cons, kc), (bos, kb), (par, kf), (delta, kd) = (
        _padded([r[i] for r in instances], fill, np.int16)
        for i, fill in ((1, (ones, 0, FULL)), (2, (ones, 0)), (3, (f0,)), (4, (0, 0)))
    )
    table = bulkrep._Table(
        cslot=cons[:, :, 0],
        clo=cons[:, :, 1].astype(np.uint8),
        cspan=(cons[:, :, 2] - cons[:, :, 1]).astype(np.uint8),
        bslot=bos[:, :, 0],
        boff=bos[:, :, 1].astype(np.int8),
        fslot=par[:, :, 0] - f0,
        dslot=delta[:, :, 0],
        dval=delta[:, :, 1].astype(np.int8),
        re=np.array(re, dtype=np.int64),
        im=np.array(im, dtype=np.int64),
    )
    views, start = [], 0
    for insts, _ in groups:
        stop = start + len(insts)
        widths = (int(k[start:stop].max(initial=0)) for k in (kc, kb, kf, kd))
        views.append(bulkrep._view(table, slice(start, stop), *widths))
        start = stop
    return table, views


def _oracle_table(engine):
    """The engine table and per operator (first, den, view), compiled
    instance by instance from the engine's operators and universe."""
    groups, out, first = [], [], 0
    for bop in engine._ops.values():
        instances = _op_instances(engine.universe, bop.op, engine.relative)
        den = 1
        for c, *_ in instances:
            den = lcm(den, c.re.denominator, c.im.denominator)
        bulkrep._bound(den < 1 << 24, f"denominator of {bop.name}")
        groups.append((instances, den))
        out.append((first, den))
        first += len(instances)
    table, views = _pack_table(engine.universe, groups)
    return table, [(f, d, v) for (f, d), v in zip(out, views)]


def _assert_same_table(got, want, what):
    """Two packed tables agree field by field: dtype, shape and values."""
    for field, g, w in zip(bulkrep._Table._fields, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, (what, field)
        assert np.array_equal(g, w), (what, field)


def _assert_engine_matches_oracle(engine):
    """The engine table, and every operator's view, first row and
    denominator, equal the per-instance compile's."""
    table, compiled = _oracle_table(engine)
    _assert_same_table(engine._table, table, "engine")
    assert len(compiled) == len(engine._ops)
    for (name, bop), (first, den, view) in zip(engine._ops.items(), compiled):
        assert (bop.first, bop.den) == (first, den), name
        _assert_same_table(bop.table, view, name)


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


def test_slots_of_is_the_universe_layout():
    """The closed-form slot of every key with |mode| <= mmax, creator or
    annihilator, is the index of its creator in the slot universe."""
    u = bulkrep.Universe(2, 3)
    keys = [
        GenKey(f, c, m) for f in "gbet" for c in range(2) for m in range(-3, 4)
    ]
    want = [u.index[k if k.is_creator() else k.dual()] for k in keys]
    got = u.slots_of(
        np.array([k.is_fermionic() for k in keys]),
        np.array([k.comp for k in keys]),
        np.array([k.mode for k in keys]),
    )
    assert got.tolist() == want


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
            Universe,
            _group_keyed,
            _image_rows,
        )
        from sweil.fieldops import SumOperator
        from sweil.fock import Box, FockMonomial, GenKey
        from sweil.liealg import StructureError
        from sweil.scalars import ONE
        from sweil.verify import GeneratorOperator
        from test_bulkrep import FULL, _pack_table, occupancy_engine

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

        # an occupancy past what a uint8 row holds, which the count would
        # otherwise wrap
        b0 = GenKey("b", 0, 0)
        try:
            Universe(1, 1).rows_of([FockMonomial((b0,) * (FULL + 1), ())])
        except OverflowError as exc:
            print("raised" if "slot occupancy" in str(exc) else exc)

        # a box row at FULL whose one-step image adds one more
        eng = occupancy_engine(FULL)
        try:
            eng.prepare()
        except OverflowError as exc:
            print("raised" if "one-step image" in str(exc) else exc)

        # more slots than the int16 slot columns hold
        eng = BulkEngine(5462, Box(emax=0, b0max=0, zero_fermions_allowed=False))
        try:
            eng.prepare()
        except OverflowError as exc:
            print("raised" if "int16 slot columns" in str(exc) else exc)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{Path(__file__).parent}"},
        check=True,
    )
    assert out.stdout.split() == ["raised"] * 10


def occupancy_engine(b0max):
    """One mode-0 box of b(0,0) powers up to b0max, with g(0,0) and
    b(0,0) registered: [g(0,0), b(0,0)] = 1 holds on every state."""
    engine = BulkEngine(1, Box(emax=0, b0max=b0max, zero_fermions_allowed=False))
    engine.register("g", GeneratorOperator(GenKey("g", 0, 0)))
    engine.register("b", GeneratorOperator(GenKey("b", 0, 0)))
    return engine


def test_occupancy_bound_of_one_step_images():
    """At b0max = FULL - 1 the box's one-step images fit the uint8 rows and
    [g(0,0), b(0,0)] = 1 passes; at b0max = FULL an image would hold
    FULL + 1 quanta, so prepare raises instead of checking wrapped rows."""
    engine = occupancy_engine(FULL - 1)
    assert engine.bracket_defect("g", "b", False, [(ONE, bulkrep.IDENTITY)]) is None
    assert engine.bracket_defect("g", "b", False, [(QI(2), bulkrep.IDENTITY)]) == 0
    with pytest.raises(OverflowError, match="one-step image"):
        occupancy_engine(FULL).prepare()


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
    """prepare packs every operator into one engine table, equal field by
    field (dtype, shape and values) to the per-instance compile's, with
    the same first rows and denominators; each operator's table is a view
    of its own rows, cut to its own widest row, and equals, field by
    field, the table the per-instance compile (_pack_table) builds for
    that operator alone."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    u, table = engine.universe, engine._table
    first = 0
    for name, bop in engine._ops.items():
        instances = _op_instances(u, bop.op, relative)
        alone, (view,) = _pack_table(u, [(instances, bop.den)])
        assert bop.first == first
        first += len(instances)
        for field, got, want, whole in zip(bulkrep._Table._fields, bop.table, alone, table):
            assert got.dtype == want.dtype and got.shape == want.shape, (name, field)
            assert np.array_equal(got, want), (name, field)
            assert got.base is whole or got.base is whole.base, (name, field)
        assert np.array_equal(view.re, alone.re)
    assert first == len(table.re)
    _assert_engine_matches_oracle(engine)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_engine_tables_match_per_instance_compile(suite, monkeypatch):
    """Every engine a relation suite builds has the per-instance compile's
    table, views, first rows and denominators."""
    engines = {id(s.engine): s.engine for s, _, _ in _suite_reports(suite, monkeypatch)}
    assert engines
    for engine in engines.values():
        _assert_engine_matches_oracle(engine)


_FAMS = ("g", "b", "e", "t")
_DUAL = {"g": "b", "b": "g", "e": "t", "t": "e"}
_SIGN = {"g": 1, "e": 1, "b": -1, "t": -1}


@st.composite
def _term_shapes(draw):
    """A random term shape: 0-2 variables, 2-3 slots of random families,
    components and constants, each variable isolated by a slot, a
    balancing last slot (the energy shift may not depend on a variable),
    optionally a slot that repeats or dualizes an earlier one, normal on
    or off, and '>' or '!=' filters."""
    nv = draw(st.integers(0, 2))
    ns = draw(st.integers(max(nv + 1, 2), 3))
    dim = 2
    slots = []
    for i in range(ns - 1):
        if i < nv:
            sign = draw(st.sampled_from((1, -1)))
            coeffs = tuple(sign if v == i else 0 for v in range(nv))
        else:
            coeffs = tuple(draw(st.integers(-1, 1)) for _ in range(nv))
        fam = draw(st.sampled_from(_FAMS))
        comp, const = draw(st.integers(0, dim - 1)), draw(st.integers(-2, 2))
        slot = SlotSpec(fam, comp, const, coeffs)
        if i and draw(st.booleans()):
            # the same generator as an earlier slot, or its dual
            other = slots[draw(st.integers(0, i - 1))]
            fam = draw(st.sampled_from((other.family, _DUAL[other.family])))
            slot = slot._replace(family=fam, comp=other.comp, const=other.const)
            if i >= nv:
                slot = slot._replace(coeffs=other.coeffs)
        slots.append(slot)
    fam = draw(st.sampled_from(_FAMS))
    # sum over slots of sign(family) * coeffs must vanish
    coeffs = tuple(
        -_SIGN[fam] * sum(_SIGN[s.family] * s.coeffs[v] for s in slots)
        for v in range(nv)
    )
    comp, const = draw(st.integers(0, dim - 1)), draw(st.integers(-2, 2))
    slots.append(SlotSpec(fam, comp, const, coeffs))
    slots = draw(st.permutations(slots))
    filters = tuple(
        (v, op)
        for v in range(nv)
        for op in [draw(st.sampled_from((None, ">", "!=")))]
        if op is not None
    )
    kind = draw(st.integers(0, 3 if nv else 0))
    k = draw(st.integers(-2, 2))
    if kind == 0:
        re = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        c = QI(re, draw(st.integers(-1, 1)))
        coeff = lambda vs, c=c: c
    elif kind == 1:
        coeff = lambda vs, k=k: QI(vs[0] - k)
    elif kind == 2:
        coeff = lambda vs, k=k: QI(Fraction(vs[-1] + k, 2), 1)
    else:
        coeff = lambda vs, k=k: QI(vs[0] * vs[-1] - k)
    return TermShape(nv, tuple(slots), coeff, draw(st.booleans()), filters)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shapes=st.lists(_term_shapes(), min_size=1, max_size=3),
    relative=st.booleans(),
    weight=st.sampled_from((ONE, QI(-1), QI(Fraction(1, 2)), QI(0, 1))),
    gen_weight=st.sampled_from((ONE, ZERO)),
    central=st.booleans(),
)
def test_random_term_shapes_compile_like_per_instance(
    shapes, relative, weight, gen_weight, central
):
    """On random term shapes (up to two variables; coincident and dual
    slots, so repeated fermionic creators and bosonic count offsets;
    normal ordering; filters; absolute and relative), with weighted sums,
    a central scalar and a single generator (whose row stays when its
    weight is zero), the signature compile gives the per-instance
    compile's engine table, views, first rows and denominators."""
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(2, box, relative)
    for i, term in enumerate(shapes):
        engine.register(f"f{i}", FieldOperator([term]))
    engine.register(
        "sum",
        SumOperator(
            [
                (weight, FieldOperator([shapes[0]])),
                (gen_weight, GeneratorOperator(GenKey("t", 1, 0))),
            ],
            central=QI(Fraction(1, 3)) if central else ZERO,
        ),
    )
    engine.universe = bulkrep.Universe(2, engine.box.emax + 3)
    engine._compile()
    _assert_engine_matches_oracle(engine)


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
