import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

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
    product_on_monomial,
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
from sweil import bulkrep, stats, verify
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


def _sl2_wrong_constant(a=0, b=1, k=2):
    """loop:sl2 with the structure constant c[a][b][k] one higher."""
    good = builtin_sl2_orthonormal()
    c = [[list(col) for col in row] for row in good.c]
    c[a][b][k] = c[a][b][k] + ONE
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
    """The (keys, coeff) generator products of an operator tree whose
    coefficient is not zero; its total central scalar is the empty
    product, first."""
    central, products = ZERO, []

    def walk(node, weight):
        nonlocal central
        central = central + weight * getattr(node, "central", ZERO)
        if hasattr(node, "terms"):
            for term in node.terms:
                products.extend(_term_products(universe, term, weight, relative))
        else:
            for c, part in node.parts:
                walk(part, weight * c)

    walk(op, ONE)
    return ([] if central.is_zero() else [([], central)]) + products


def _op_instances(universe, op, relative):
    """The compiled instances of an operator tree that are not
    identically zero."""
    out = []
    for keys, c in _op_products(universe, op, relative):
        inst = bulkrep._compile_instance(universe, keys, c)
        if inst is not None:
            out.append(inst)
    return out


def _padded(rows, fill, dtype, width):
    """Stack variable-length rows of equal-length tuples (of plain values
    when ``fill`` has length one) into one array of shape (len(rows),
    width, len(fill)), padding with ``fill``; ``width`` None is the widest
    row."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    widest = int(lens.max(initial=0))
    if width is None:
        width = widest
    assert widest <= width
    out = np.empty((len(rows), width, len(fill)), dtype=dtype)
    out[...] = fill
    flat = np.array(list(itertools.chain.from_iterable(rows)), dtype=np.int64)
    # entry e of the flat list is column e - (start of its row) of its row
    owner = np.repeat(np.arange(len(rows)), lens)
    out[owner, np.arange(len(owner)) - (np.cumsum(lens) - lens)[owner]] = (
        flat.reshape(len(owner), len(fill))
    )
    return out


def _table_widths(t):
    """(constraint, count factor, parity, change) columns of a table."""
    return t.cslot.shape[1], t.bslot.shape[1], t.fslot.shape[1], t.dslot.shape[1]


def _pack_table(universe, groups, widths=(None,) * 4):
    """One packed table of the compiled instances of every (instances,
    den) group, each coefficient scaled by its group's den, with the
    constraint, count factor, parity and change columns ``widths`` (None:
    the widest row's)."""
    f0, ones = universe.f0, universe.nslots
    instances = [r for insts, _ in groups for r in insts]
    re = [int(c.re * den) for insts, den in groups for c, *_ in insts]
    im = [int(c.im * den) for insts, den in groups for c, *_ in insts]
    bulkrep._bound(
        all(abs(x) < 1 << 30 for x in re) and all(abs(x) < 1 << 30 for x in im),
        "instance coefficient",
    )
    cons, bos, par, delta = (
        _padded([r[i] for r in instances], fill, np.int16, width)
        for i, fill, width in zip(
            (1, 2, 3, 4), ((ones, 0, FULL), (ones, 0), (f0,), (0, 0)), widths
        )
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
    return table


def _oracle_table(engine):
    """The engine table and per operator (first, stop, den), compiled
    instance by instance from the engine's operators and universe."""
    groups, out, first = [], [], 0
    for bop in engine._ops.values():
        instances = _op_instances(engine.universe, bop.op, engine.relative)
        den = 1
        for c, *_ in instances:
            den = lcm(den, c.re.denominator, c.im.denominator)
        bulkrep._bound(den < 1 << 24, f"denominator of {bop.name}")
        groups.append((instances, den))
        out.append((first, first + len(instances), den))
        first += len(instances)
    return _pack_table(engine.universe, groups), out


def _assert_same_table(got, want, what):
    """Two packed tables agree field by field: dtype, shape and values."""
    for field, g, w in zip(bulkrep._Table._fields, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, (what, field)
        assert np.array_equal(g, w), (what, field)


def _assert_engine_matches_oracle(engine):
    """The engine table, and every operator's rows first:stop and
    denominator, equal the per-instance compile's."""
    table, ranges = _oracle_table(engine)
    _assert_same_table(engine._table, table, "engine")
    assert [(b.first, b.stop, b.den) for b in engine._ops.values()] == ranges


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


def _image_rows(engine, name, states, cols, inst):
    """Output occupancy rows of operator ``name``'s (instance, state) pairs
    ``inst`` x ``cols`` (engine table rows and states): each state's row
    plus its instance's occupancy change."""
    t = engine._table
    rows = states[cols]
    at = np.arange(len(cols))
    for j in range(t.dslot.shape[1]):
        p = t.dslot[inst, j]
        occ = rows[at, p] + t.dval[inst, j]
        if occ.min(initial=0) < 0:
            raise StructureError(f"{name} emptied an unoccupied slot")
        rows[at, p] = occ
    return rows


def _level1_rows(engine, ids=None):
    """Occupancy rows (a view, one per state) of the level-1 states
    ``ids`` (all of them by default), from the block their provenance
    builds, and that block."""
    if ids is None:
        ids = np.arange(engine.n1)
    block = engine._level1_block(ids)
    assert block.shape == (engine.universe.nslots + 1, len(ids))
    assert (block[-1] == 1).all()
    return block[:-1].T, block


def _op_stream(engine, bop, block, keys):
    """(cols, keys, re, im, inst): the keyed stream of ``bop`` on the
    slot-major ``block`` (states' u ``keys``) with each pair's engine table
    row, from the same kernel as BulkEngine._apply_all."""
    t = engine._table
    rows = np.arange(bop.first, bop.stop)
    parts = []
    for counts, sel, cols, fac in engine._pair_chunks(t, rows, block):
        inst = np.repeat(sel, counts)
        parts.append(
            (
                cols,
                bulkrep._out_keys(engine._zd, keys, cols, inst),
                t.re[inst] * fac,
                t.im[inst] * fac,
                inst,
            )
        )
    if not parts:
        e = np.zeros(0, dtype=np.int64)
        return e, np.zeros((len(bulkrep._CHECK_PRIMES), 0), dtype=np.uint32), e, e, e
    return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))


def _kernel_entries(engine, name, block, state_keys):
    """The entries (col, key, re, im, output row) of operator ``name`` on
    the block, whose stream is also what _apply_all gives."""
    bop = engine._ops[name]
    cols, keys, re, im, inst = _op_stream(engine, bop, block, state_keys)
    got = engine._apply_all(bop, block, state_keys)
    assert all(np.array_equal(a, b) for a, b in zip(got, (cols, keys, re, im)))
    rows = _image_rows(engine, name, block[:-1].T, cols, inst)
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
            (states, block), keys = _level1_rows(engine, ids), engine.l1_u[:, ids]
            got = _grouped(_kernel_entries(engine, name, block, keys))
            want = _grouped(_ref_apply(u, products, bop.den, states, z))
            assert got == want, (family, name, len(ids))
            monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
            got = _grouped(_kernel_entries(engine, name, block, keys))
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


def test_rows_of_counts_monomials_of_more_than_255_keys():
    """A monomial may hold more keys than a uint8 occupancy holds, as long
    as no slot passes it: its row counts every key, next to the rows of a
    box, and one slot past the uint8 range raises OverflowError."""
    u = bulkrep.Universe(2, 2)
    b00, b10 = GenKey("b", 0, 0), GenKey("b", 1, 0)
    wide = FockMonomial((b00,) * 200 + (b10,) * FULL, (GenKey("t", 1, 0),))
    monos = enumerate_box(2, Box(emax=1, b0max=1))
    monos = monos[:5] + [wide] + monos[5:]
    rows = u.rows_of(monos)
    assert rows.dtype == np.uint8
    assert np.array_equal(rows, _ref_rows(u, monos))
    assert rows[5, u.creator_slot(b10)] == FULL
    with pytest.raises(OverflowError, match="slot occupancy"):
        u.rows_of(monos + [FockMonomial(wide.bosons + (b10,), ())])


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


def _per_slot_u(engine, rows):
    """Per checksum prime, u of each occupancy row with one _zpow factor
    per slot column: the oracle of _occupancy_u."""
    slots = np.broadcast_to(np.arange(engine.universe.nslots), rows.shape)
    return engine._zpow(slots, rows)


def _assert_box_u_matches_per_slot_zpow(engine):
    """The box states' u, as the domain build keeps it and as
    _occupancy_u gives it, equals the per-slot _zpow oracle; so does
    _occupancy_u on random rows within the power table, with empty rows
    and rows occupied in every slot among them."""
    rows = engine._box_block[:-1].T
    want = _per_slot_u(engine, rows)
    assert np.array_equal(engine._occupancy_u(np.ascontiguousarray(rows)), want)
    assert np.array_equal(engine.l1_u[:, engine.box_ids], want.astype(np.uint32))
    k = engine._ztab.shape[2] // 2
    rng = np.random.default_rng(engine.universe.nslots)
    rows = rng.integers(0, k + 1, size=(50, engine.universe.nslots), dtype=np.uint8)
    rows[rng.random(rows.shape) < 0.7] = 0
    rows[:3] = 0
    rows[3:6] = rng.integers(1, k + 1, size=(3, rows.shape[1]), dtype=np.uint8)
    assert np.array_equal(engine._occupancy_u(rows), _per_slot_u(engine, rows))


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_box_u_matches_per_slot_zpow_on_families(family, relative):
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    _assert_box_u_matches_per_slot_zpow(engine)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_box_u_matches_per_slot_zpow_on_suites(suite, monkeypatch):
    reports = _suite_reports(suite, monkeypatch)
    engines = {id(s.engine): s.engine for s, _, _ in reports}
    assert engines
    for engine in engines.values():
        _assert_box_u_matches_per_slot_zpow(engine)


def _ref_power_table(nslots, k):
    """The z-power table with one Python modular inverse per slot and
    prime, as it was built before batch inversion."""
    rng = np.random.Generator(np.random.PCG64(bulkrep._SLOT_SEED))
    tab = np.ones((len(bulkrep._CHECK_PRIMES), nslots, 2 * k + 1), dtype=np.int64)
    for i, p in enumerate(bulkrep._CHECK_PRIMES):
        z = rng.integers(2, p, size=nslots, dtype=np.int64)
        zi = np.array([pow(int(x), -1, p) for x in z], dtype=np.int64)
        for e in range(1, k + 1):
            tab[i, :, k + e] = tab[i, :, k + e - 1] * z % p
            tab[i, :, k - e] = tab[i, :, k - e + 1] * zi % p
    return tab


def test_power_table_batch_inverses_are_the_per_slot_inverses():
    """Batch inversion gives every residue's own inverse, and the z-power
    table is the one built with a modular inverse per slot."""
    rng = np.random.default_rng(7)
    for p in bulkrep._CHECK_PRIMES:
        for n in (0, 1, 2, 57):
            zs = rng.integers(1, p, size=n).tolist()
            assert bulkrep._inverses(zs, p) == [pow(z, -1, p) for z in zs]
    for nslots, k in ((2, 1), (42, 2), (90, 3), (18, 0)):
        tab = bulkrep._power_table(nslots, k)
        assert tab.dtype == np.int64
        assert np.array_equal(tab, _ref_power_table(nslots, k)), (nslots, k)


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
    """The level-1 pool, rebuilt from its int32 provenance, holds distinct
    rows whose keys l1_u are their u, the box monomials sit at box_ids
    (with IDENTITY's table row as provenance), the engine's box block is
    the box rows plus the row of ones, and IDENTITY's closed-form box
    matrix is what compiling and applying its table gives."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    u = engine.universe
    z, memo = _engine_z(engine), {}
    rows, _ = _level1_rows(engine)
    want = [_ref_u(z, row, memo) for row in rows]
    assert engine.l1_u.dtype == np.uint32
    assert list(map(tuple, engine.l1_u.T.tolist())) == want
    assert len(np.unique(rows, axis=0)) == engine.n1
    assert engine.l1_src.dtype == engine.l1_inst.dtype == np.int32
    assert engine.l1_src.shape == engine.l1_inst.shape == (engine.n1,)
    assert 0 <= engine.l1_src.min() and engine.l1_src.max() < len(engine.box_monos)
    assert 0 <= engine.l1_inst.min() and engine.l1_inst.max() < len(engine._table.re)
    box_rows = _ref_rows(u, engine.box_monos)
    assert np.array_equal(rows[engine.box_ids], box_rows)
    bop = engine._ops[bulkrep.IDENTITY]
    assert np.array_equal(engine.l1_src[engine.box_ids], np.arange(len(box_rows)))
    assert (engine.l1_inst[engine.box_ids] == bop.first).all()
    box_block = np.ones((u.nslots + 1, len(box_rows)), dtype=np.uint8)
    box_block[:-1] = box_rows.T
    assert np.array_equal(engine._box_block, box_block)
    cols, keys, re, im, inst = _op_stream(
        engine, bop, box_block, engine.l1_u[:, engine.box_ids]
    )
    rows_ids, got_cols, got_re, got_im = engine._box_mats[bulkrep.IDENTITY]
    assert all(x.dtype == np.int32 for x in engine._box_mats[bulkrep.IDENTITY])
    assert np.array_equal(
        rows[rows_ids], _image_rows(engine, bulkrep.IDENTITY, box_rows, cols, inst)
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


def _engine_products(engine):
    """The generator product of every engine table row, in row order."""
    u, out = engine.universe, []
    for bop in engine._ops.values():
        for keys, c in _op_products(u, bop.op, engine.relative):
            if bulkrep._compile_instance(u, keys, c) is not None:
                out.append(keys)
    assert len(out) == len(engine._table.re)
    return out


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_level1_blocks_rebuild_the_provenance_monomials(suite, monkeypatch):
    """For every engine of every relation suite, as shipped and with one
    instance per mask chunk in the domain build, the block rebuilt from
    provenance for all n1 states holds the occupancy rows of the
    monomials they stand for: the generator product of the state's table
    row applied, in the per-monomial engine, to the box monomial of its
    source column.  The rows are distinct and their u is l1_u."""
    for budget in (None, 1):
        if budget is not None:
            monkeypatch.setattr(bulkrep, "_MASK_CELLS", budget)
        reports = _suite_reports(suite, monkeypatch)
        engines = {id(s.engine): s.engine for s, _, _ in reports}
        assert engines
        for engine in engines.values():
            u = engine.universe
            products = _engine_products(engine)
            monos = []
            for src, inst in zip(engine.l1_src.tolist(), engine.l1_inst.tolist()):
                fac, mono = product_on_monomial(
                    products[inst], engine.box_monos[src], engine.relative
                )
                assert fac != 0
                monos.append(mono)
            rows, _ = _level1_rows(engine)
            assert np.array_equal(rows, _ref_rows(u, monos))
            assert [_mono_of(u, row) for row in rows] == monos
            assert len(np.unique(rows, axis=0)) == engine.n1
            z, memo = _engine_z(engine), {}
            want = [_ref_u(z, row, memo) for row in rows]
            assert list(map(tuple, engine.l1_u.T.tolist())) == want


# -- per-operator domain build: the oracle of the one-pass build -------
#
# The domain build the engine ran before it applied every operator in one
# kernel pass: each operator but IDENTITY is applied to the box block on
# its own, its stream is grouped per (column, key) with _group_keyed, and
# the box keys and every operator's grouped keys are pooled in one
# grouping.


def _oracle_domain(engine, every_pair=False):
    """(l1_u, src, inst, mats) of the per-operator domain build on the
    engine's box block and table: u of every level-1 state, each state's
    source box column and engine table row, and per operator its box
    matrix as a dict (level-1 id, column) -> (re, im) without zero sums.
    The pool takes the box keys and each operator's grouped keys; with
    ``every_pair`` it takes the key of every pair, grouped or not, as the
    one-pass build does.  Ids are ranks in (u0 | u1 << 31, u2) order, and a
    state's provenance is that of its first pooled entry."""
    block = engine._box_block
    states = block[:-1].T
    slots = np.broadcast_to(np.arange(engine.universe.nslots), states.shape)
    box_u = engine._zpow(slots, states).astype(np.uint32)
    one = engine._ops[bulkrep.IDENTITY]
    box_keys = list(map(tuple, box_u.T.tolist()))
    # pooled entries in pool order: (key, source column, table row)
    pooled = [(k, c, one.first) for c, k in enumerate(box_keys)]
    grouped = {bulkrep.IDENTITY: [(k, c, 1, 0) for c, k in enumerate(box_keys)]}
    for name, bop in engine._ops.items():
        if name == bulkrep.IDENTITY:
            continue
        cols, keys, re, im, inst = _op_stream(engine, bop, block, box_u)
        gcols, gkeys, gre, gim, first = bulkrep._group_keyed(cols, keys, re, im)
        gkeys = list(map(tuple, gkeys.T.tolist()))
        if every_pair:
            pooled += zip(map(tuple, keys.T.tolist()), cols.tolist(), inst.tolist())
        else:
            pooled += zip(gkeys, gcols.tolist(), inst[first].tolist())
        grouped[name] = list(zip(gkeys, gcols.tolist(), gre.tolist(), gim.tolist()))
    prov = {}
    for key, src, row in pooled:
        prov.setdefault(key, (src, row))
    order = sorted(prov, key=lambda k: (k[0] | k[1] << 31, k[2]))
    rank = {k: i for i, k in enumerate(order)}
    l1_u = np.array(order, dtype=np.uint32).reshape(len(order), 3).T
    src, inst = (np.array([prov[k][i] for k in order], dtype=np.int32) for i in (0, 1))
    mats = {
        name: {(rank[k], c): (re, im) for k, c, re, im in entries}
        for name, entries in grouped.items()
    }
    return l1_u, src, inst, mats


def _summed_entries(rows, cols, re, im):
    """(row, col) -> (re, im) of a box matrix, repeated entries summed and
    zero sums dropped."""
    out = {}
    for r, c, x, y in zip(rows.tolist(), cols.tolist(), re.tolist(), im.tolist()):
        x0, y0 = out.get((r, c), (0, 0))
        out[(r, c)] = (x0 + x, y0 + y)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _assert_domain_matches_oracle(engine, unchanged):
    """The one-pass domain build of a prepared engine equals the
    per-operator build that pools every pair: n1 and l1_u, every state's
    provenance rebuilt through _level1_block, and every box matrix (int32
    throughout) once its repeated (row, column) entries are summed.  With
    ``unchanged``, also no pooled state stands only for (column, key)
    groups that sum to zero, so the pool is the one that pools grouped
    keys alone."""
    l1_u, src, inst, mats = _oracle_domain(engine, every_pair=True)
    assert engine.n1 == l1_u.shape[1]
    assert np.array_equal(engine.l1_u, l1_u)
    ids = np.arange(engine.n1)
    oracle = SimpleNamespace(
        _table=engine._table, _box_block=engine._box_block, l1_src=src, l1_inst=inst
    )
    assert np.array_equal(
        engine._level1_block(ids), BulkEngine._level1_block(oracle, ids)
    )
    assert engine._box_mats.keys() == mats.keys()
    for name, mat in engine._box_mats.items():
        assert all(x.dtype == np.int32 for x in mat), name
        assert _summed_entries(*mat) == mats[name], name
    if unchanged:
        assert np.array_equal(_oracle_domain(engine)[0], l1_u)


def _family_engine(family, relative):
    """A prepared engine of every operator of a FAMILIES entry."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    return engine


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_pass_domain_matches_per_operator_build(family, relative, monkeypatch):
    """On every FAMILIES engine, absolute and relative, as shipped and
    with one instance per mask chunk, the one-pass domain build gives the
    per-operator build's level-1 domain and box matrices."""
    for budget in (None, 1):
        if budget is not None:
            monkeypatch.setattr(bulkrep, "_MASK_CELLS", budget)
        _assert_domain_matches_oracle(_family_engine(family, relative), True)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_domains_match_per_operator_build(suite, monkeypatch):
    """Every engine of every relation suite, as shipped and with one
    instance per mask chunk, has the per-operator build's level-1 domain
    and box matrices."""
    for budget in (None, 1):
        if budget is not None:
            monkeypatch.setattr(bulkrep, "_MASK_CELLS", budget)
        reports = _suite_reports(suite, monkeypatch)
        engines = {id(s.engine): s.engine for s, _, _ in reports}
        assert engines
        for engine in engines.values():
            _assert_domain_matches_oracle(engine, True)


def test_scaled_rhs_products_are_taken_in_int64():
    """A failing case whose scaled right-hand-side coefficient times an
    int32 box entry passes 2**31 reports the per-monomial engine's first
    failing column, from the exact comparison and from bracket_defect.
    [g(0,0), b(0,0)] = 1 is claimed as 6700417 T - N + 1, with N the
    number operator b(0,0) g(0,0) and T = 641 N: 641 * 6700417 = 2**32 + 1,
    so the claim is off by 2**32 n on b(0,0)**n.  Taken modulo 2**32, as
    an int32 product would be, it would hold on every column."""
    engine = BulkEngine(1, Box(emax=0, b0max=2, zero_fermions_allowed=False))

    def number(c):
        slots = (SlotSpec("b", 0, 0, ()), SlotSpec("g", 0, 0, ()))
        return FieldOperator([TermShape(0, slots, lambda vs: QI(c), False)])

    ops = {
        "g": GeneratorOperator(GenKey("g", 0, 0)),
        "b": GeneratorOperator(GenKey("b", 0, 0)),
        "N": number(1),
        "T": number(641),
    }
    for name, op in ops.items():
        engine.register(name, op)
    rhs = [(QI(6700417), "T"), (QI(-1), "N"), (ONE, bulkrep.IDENTITY)]
    engine.prepare()
    _, _, re, _ = engine._box_mats["T"]
    assert re.dtype == np.int32 and 6700417 * int(re.max()) >= 1 << 31
    lhs = super_commutator(ops["g"], ops["b"])
    want = None
    for col, m in enumerate(engine.box_monos):
        v = FockVector.of(m)
        d = lhs.apply(v)
        for c, name in rhs:
            d = d - engine._ops[name].op.apply(v).scale(c)
        if not d.is_zero():
            want = col
            break
    assert engine.box_monos[want].bosons == (GenKey("b", 0, 0),)
    comps, L = engine._compositions("g", "b", False, rhs)
    assert not engine._checksum_zero(comps, rhs, L)
    assert engine._first_failing_column(comps, rhs, L) == want
    assert engine.bracket_defect("g", "b", False, rhs) == want


@pytest.mark.parametrize("backend", [SL2, AB1], ids=["sl2", "ab1"])
def test_box_matrices_match_operator_apply(backend):
    """Each column of a compiled box matrix, decoded through the level-1
    rows rebuilt from provenance and divided by the operator's
    denominator, is the operator applied to that box monomial (the
    central scalar of S'(2,1/2) L[0] enters as the empty generator
    product)."""
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
    l1_rows, _ = _level1_rows(engine)
    for name, op in ops.items():
        rows, cols, re, im = engine._box_mats[name]
        den = engine._ops[name].den
        got = [FockVector() for _ in engine.box_monos]
        for r, c, x, y in zip(rows.tolist(), cols.tolist(), re.tolist(), im.tolist()):
            got[c].add_term(
                _mono_of(u, l1_rows[r]),
                QI(Fraction(x, den), Fraction(y, den)),
            )
        for col, m in enumerate(engine.box_monos):
            assert got[col] == op.apply(FockVector.of(m)), (name, m)


def test_bounds_hold_without_asserts():
    """The int64 bounds (the row sums of an inner box matrix's checksum
    weights among them), the int32 bound of the box matrices' entries, the
    z-power table's exponent bound and the domain build's emptied-slot
    guard are explicit raises, so python -O keeps them.  The count factor
    bound counts a row's own factors, not the engine table's columns."""
    code = textwrap.dedent(
        """
        import numpy as np
        from sweil.bulkrep import (
            _CHECK_P, IDENTITY, BulkEngine, Universe, _group_keyed
        )
        from sweil.fieldops import SumOperator
        from sweil.fock import Box, FockMonomial, GenKey
        from sweil.liealg import StructureError
        from sweil.scalars import ONE
        from sweil.verify import GeneratorOperator
        from test_bulkrep import FULL, _pack_table, occupancy_engine

        # hand-built instances, (name, instance) each, as the engine
        # table's rows in order, each the one row of operator ``name``;
        # every other operator has no rows.  The checksum's per-row
        # z**delta and c * z**delta follow the new table.
        def install(eng, instances):
            t = eng._table = _pack_table(
                eng.universe, [([inst], 1) for _, inst in instances]
            )
            for bop in eng._ops.values():
                bop.first = bop.stop = 0
            for i, (name, _) in enumerate(instances):
                eng._ops[name].first, eng._ops[name].stop = i, i + 1
            if hasattr(eng, "_ztab"):
                zd = eng._zpow(t.dslot, t.dval)
                eng._zd = zd.astype(np.uint32)
                eng._cz = tuple(
                    ((x % _CHECK_P) * zd % _CHECK_P).astype(np.uint32)
                    for x in (t.re, t.im)
                )

        big = np.array([1 << 61, 1 << 61], dtype=np.int64)
        cols = np.zeros(2, dtype=np.int64)
        keys = np.ones((3, 2), dtype=np.uint32)
        try:
            _group_keyed(cols, keys, big, np.zeros(2, dtype=np.int64))
        except OverflowError:
            print("raised")

        # a hand-built table, installed before the domain build, whose one
        # instance lowers a slot it does not constrain: every box state
        # has that slot empty
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        compile_table = eng._compile

        def rigged():
            compile_table()
            slot = eng.universe.creator_slot(GenKey("g", 0, eng.universe.mmax))
            install(eng, [("tau", (ONE, [], [], [], [(slot, -1)]))])

        eng._compile = rigged
        try:
            eng.prepare()
        except StructureError as exc:
            print("raised" if "emptied an unoccupied slot" in str(exc) else exc)

        # an instance coefficient past the int64 headroom
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        tau = GeneratorOperator(GenKey("t", 0, 0))
        eng.register("big", SumOperator([(1 << 31, tau)]))
        try:
            eng.prepare()
        except OverflowError:
            print("raised")

        # an image entry past what the int32 box matrices hold: a
        # coefficient of 2**29 times the count factor 2 of g(0,0) on b(0,0)**2
        eng = BulkEngine(1, Box(emax=0, b0max=2, zero_fermions_allowed=False))
        g = GeneratorOperator(GenKey("g", 0, 0))
        eng.register("big-g", SumOperator([(1 << 29, g)]))
        try:
            eng.prepare()
        except OverflowError as exc:
            print("raised" if "image entry" in str(exc) else exc)

        # a central scalar is an instance coefficient, under the same bound
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("big-central", SumOperator((), central=1 << 31))
        try:
            eng.prepare()
        except OverflowError:
            print("raised")

        # a composition whose product entries would overflow int64: the
        # identity's table rows and tau's box matrix scaled by 2**32 (the
        # int32 box matrix widened first, so that the shift cannot wrap),
        # with the checksum bypassed so that the exact path runs
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        eng.prepare()
        one = eng._ops[IDENTITY]
        re = eng._table.re.copy()
        re[one.first : one.stop] <<= 32
        eng._table = eng._table._replace(re=re)
        rows, cols, re, im = eng._box_mats["tau"]
        re, im = re.astype(np.int64) << 32, im.astype(np.int64)
        eng._box_mats["tau"] = (rows, cols, re, im)
        eng._checksum_zero = lambda *args: False
        try:
            eng.bracket_defect(IDENTITY, "tau", False, [])
        except OverflowError as exc:
            print("raised" if "product entry" in str(exc) else exc)

        # an inner box matrix entry of 2**32, whose product with a column
        # weight could pass 2**63 (tau's box matrix, widened first)
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        eng.prepare()
        rows, cols, re, im = eng._box_mats["tau"]
        re = re.astype(np.int64) << 32
        eng._box_mats["tau"] = (rows, cols, re, im)
        try:
            eng.bracket_defect("tau", "tau", True, [])
        except OverflowError as exc:
            print("raised" if "row sum" in str(exc) else exc)

        # a hand-built engine table whose row for tau has five count
        # factors of offset 127 and whose row for tau2 has one: on the box
        # states (occupancies at most 1) a factor times a checksum weight
        # below 2**31 could pass 2**63 on tau's row, as 128**5 >= 2**32,
        # and not on tau2's, as 128 < 2**32, though the table has five
        # count factor columns
        eng = BulkEngine(1, Box(emax=1, b0max=0))
        eng.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
        eng.register("tau2", GeneratorOperator(GenKey("t", 0, 0)))
        eng.prepare()
        slot = eng.universe.creator_slot(GenKey("g", 0, 1))
        install(
            eng,
            [
                ("tau", (ONE, [], [(slot, 127)] * 5, [], [])),
                ("tau2", (ONE, [], [(slot, 127)], [], [])),
            ],
        )
        try:
            eng.bracket_defect("tau", "tau", True, [])
        except OverflowError as exc:
            print("raised" if "count factor" in str(exc) else exc)
        sums = eng._batch_sums(("tau2",), "tau2")
        print("passed" if sums.shape == (1, 3, 2) else sums)

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
    assert out.stdout.split() == ["raised"] * 8 + ["passed"] + ["raised"] * 4


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


def _ref_defect_sums(suite, a, b, both_odd, rhs_terms, quanta=None):
    """Per checksum prime, (re, im) of u^T D v mod p, with D the defect
    [A, B] - sum c_t T_t scaled by the case's common denominator, taken
    from the per-monomial engine's outputs: u of each output monomial is
    prod_s z_s**occ_s over its occupancy row, v the box-column weight, and
    v = 0 on the box monomials of more than ``quanta`` keys."""
    engine = suite.engine
    ops = engine._ops
    _, L = engine._compositions(a, b, both_odd, rhs_terms)
    z, memo = _engine_z(engine), {}
    lhs = super_commutator(ops[a].op, ops[b].op)
    entries = []  # (col, u per prime, scaled re, scaled im)
    for col, m in enumerate(engine.box_monos):
        if quanta is not None and len(m.bosons) + len(m.fermions) > quanta:
            continue
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


def _report_quanta(engine, cases):
    """The q that a report of ``cases`` plans at: the largest
    defect_degree of its cases, None (the whole box) when that reaches
    the box's largest quanta."""
    q = max(engine.defect_degree(*case[1:]) for case in cases)
    return None if q >= engine._box_quanta.max() else q


def _plan_at(engine, cases, quanta):
    """engine.plan(cases) with every case's defect_degree ``quanta``, or
    the box's largest quanta (the whole box) when None."""
    top = int(engine._box_quanta.max(initial=0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BulkEngine, "defect_degree", lambda *_: top if quanta is None else quanta)
        engine.plan(cases)


def _planned_sums(reports, share, restrict=False):
    """Per case of every report, the checksum sums of _defect_sums after
    planning the first ``share`` of the report's cases: all of them (one
    kernel pass per inner operator), none (a one-outer batch per
    composition) or half (a later case's outer may meet a planned inner
    that the plan does not pair it with).  The plan and the sums are over
    the whole box, or with ``restrict`` at the report's own q."""
    out = []
    for s, cases, _ in reports:
        q = _report_quanta(s.engine, cases) if restrict else None
        _plan_at(s.engine, [case[1:] for case in cases[: int(len(cases) * share)]], q)
        for _, a, b, both_odd, rhs_terms in cases:
            comps, L = s.engine._compositions(a, b, both_odd, rhs_terms)
            out.append(s.engine._defect_sums(comps, rhs_terms, L, q))
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
    the cases planned; as shipped and with one instance per mask chunk.
    Planned at each report's own q, they equal u^T D v with v = 0 on the
    box columns of more than q quanta."""
    reports = _suite_reports(suite, monkeypatch)
    want = [_ref_defect_sums(s, *case[1:]) for s, cases, _ in reports for case in cases]
    want_q = [
        _ref_defect_sums(s, *case[1:], quanta=_report_quanta(s.engine, cases))
        for s, cases, _ in reports
        for case in cases
    ]
    assert all(len(w) == len(bulkrep._CHECK_PRIMES) for w in want)
    # some inner is shared by several outers, so a batch covers more than
    # one composition
    assert any(
        len(outers) > 1 for s, _, _ in reports for outers in s.engine._planned.values()
    )
    for share in (1, 0, 0.5):
        assert _planned_sums(reports, share) == want, share
        assert _planned_sums(reports, share, restrict=True) == want_q, share
    if "wrong" in suite:
        assert any(w != [(0, 0)] * 3 for w in want)
        assert any(w != [(0, 0)] * 3 for w in want_q)
    monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
    for share in (1, 0, 0.5):
        assert _planned_sums(reports, share) == want, share
        assert _planned_sums(reports, share, restrict=True) == want_q, share



@pytest.mark.parametrize("suite", sorted(SUITES))
def test_checksum_nonzero_iff_exact_column(suite, monkeypatch):
    """For every case of every relation suite, the checksum of the
    report's planned batches is nonzero exactly when the exact comparison
    of the whole box finds a failing column: planned over the whole box,
    and at the report's own q over the box columns with at most q quanta;
    as shipped and with one instance per mask chunk."""
    reports = _suite_reports(suite, monkeypatch)

    def verdicts(restrict):
        out = []
        for s, cases, _ in reports:
            q = _report_quanta(s.engine, cases) if restrict else None
            _plan_at(s.engine, [case[1:] for case in cases], q)
            for _, a, b, both_odd, rhs_terms in cases:
                comps, L = s.engine._compositions(a, b, both_odd, rhs_terms)
                zero = s.engine._checksum_zero(comps, rhs_terms, L, s.engine._quanta)
                col = s.engine._first_failing_column(comps, rhs_terms, L)
                out.append((zero, col))
        return out

    shipped = verdicts(False)
    assert all(zero == (col is None) for zero, col in shipped)
    assert any(zero for zero, _ in shipped)
    if "wrong" in suite:
        assert not all(zero for zero, _ in shipped)
    assert verdicts(True) == shipped
    monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1)
    assert verdicts(False) == shipped
    assert verdicts(True) == shipped


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
    the same row ranges and denominators.  Each operator is the range
    first:stop of its own rows, consecutive in registration order, and
    those rows equal, field by field, the table the per-instance compile
    (_pack_table) builds for that operator alone, padded to the engine
    table's widths."""
    backend, ops = FAMILIES[family]
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    engine = BulkEngine(backend.dim, box, relative)
    for name, op in ops():
        engine.register(name, op)
    engine.prepare()
    u, table = engine.universe, engine._table
    widths = _table_widths(table)
    first = 0
    for name, bop in engine._ops.items():
        instances = _op_instances(u, bop.op, relative)
        alone = _pack_table(u, [(instances, bop.den)], widths)
        assert (bop.first, bop.stop) == (first, first + len(instances)), name
        first = bop.stop
        rows = bulkrep._Table(*(x[bop.first : bop.stop] for x in table))
        _assert_same_table(rows, alone, name)
    assert first == len(table.re)
    _assert_engine_matches_oracle(engine)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_engine_tables_match_per_instance_compile(suite, monkeypatch):
    """Every engine a relation suite builds has the per-instance compile's
    table, operator row ranges and denominators."""
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
    a central scalar and a single generator (whose row, like every row
    with a zero coefficient, is dropped when its weight is zero), the
    signature compile gives the per-instance compile's engine table,
    operator row ranges and denominators."""
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


def test_zero_weight_generator_leaf_drops_its_row():
    """A GeneratorOperator leaf of weight zero in a SumOperator compiles to
    no table row, like any zero coefficient, while its mode still counts
    in the operator's energy span; bracket_defect gives the exact
    comparison's column on [g(0,0) + 0 e(0,1), b(0,0)] = 1, which holds,
    and on the seeded wrong claim = 2."""
    engine = BulkEngine(1, Box(emax=1, b0max=2, zero_fermions_allowed=False))
    zero_e = GeneratorOperator(GenKey("e", 0, 1))
    g = GeneratorOperator(GenKey("g", 0, 0))
    engine.register("g+0e", SumOperator([(ONE, g), (ZERO, zero_e)]))
    engine.register("b", GeneratorOperator(GenKey("b", 0, 0)))
    engine.prepare()
    bop = engine._ops["g+0e"]
    assert (bop.stop - bop.first, bop.smax) == (1, 1)
    _assert_engine_matches_oracle(engine)
    got = []
    for claim in (ONE, QI(2)):
        rhs = [(claim, bulkrep.IDENTITY)]
        col = engine.bracket_defect("g+0e", "b", False, rhs)
        assert col == _exact_bracket_defect(engine, "g+0e", "b", False, rhs)
        got.append(col)
    assert got[0] is None and got[1] is not None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shapes=st.lists(_term_shapes(), min_size=1, max_size=3), relative=st.booleans())
def test_random_term_shapes_build_the_per_operator_domain(shapes, relative):
    """On random term shapes (see _term_shapes), absolute and relative,
    as shipped and with one instance per mask chunk, the one-pass domain
    build gives the per-operator build's level-1 domain and box matrices.
    Some shapes reach a state only through (column, key) groups that sum
    to zero, which the one-pass build pools and the grouped build did not,
    so the pool is compared with the one that pools every pair."""
    box = Box(emax=1, b0max=1, zero_fermions_allowed=not relative)
    for budget in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(bulkrep, "_MASK_CELLS", budget)
            engine = BulkEngine(2, box, relative)
            for i, term in enumerate(shapes):
                engine.register(f"f{i}", FieldOperator([term]))
            engine.prepare()
            _assert_domain_matches_oracle(engine, False)


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

    def pairs(block):
        chunks = list(engine._pair_chunks(t, rows, block))
        for counts, sel, cols, fac in chunks:
            cells = len(counts) * block.shape[1]
            assert cells <= bulkrep._MASK_CELLS or len(counts) == 1
            assert len(sel) == len(counts)
            assert len(cols) == len(fac) == counts.sum()
        return chunks, [np.concatenate(x) for x in zip(*chunks)]

    for ids in blocks:
        _, block = _level1_rows(engine, ids)
        monkeypatch.setattr(bulkrep, "_MASK_CELLS", 1 << 40)
        (whole,), _ = pairs(block)
        for budget in (None, 1):
            monkeypatch.undo()
            if budget is not None:
                monkeypatch.setattr(bulkrep, "_MASK_CELLS", budget)
            chunks, joined = pairs(block)
            assert all(np.array_equal(a, b) for a, b in zip(joined, whole))
        monkeypatch.undo()
    # the shipped budget splits the largest block into several chunks
    assert len(pairs(_level1_rows(engine, blocks[-1])[1])[0]) > 1


# -- the kernel against its 2-D-indexed form ---------------------------


def _oracle_apply_chunk(t, block, pre, sel):
    """BulkEngine._apply_chunk as it read the block and the prefix counts
    with 2-D fancy indexing, every column of the table, padding or not:
    the oracle of the shipped kernel's 1-D reads and skipped padding.
    Returns (counts, inst, cols, fac) with each pair's table row inst."""
    n = block.shape[1]
    mask = np.ones((len(sel), n), dtype=bool)
    for j in range(t.cslot.shape[1]):
        occ = block[t.cslot[sel, j]] - t.clo[sel, j][:, None]
        mask &= occ <= t.cspan[sel, j][:, None]
    counts = np.count_nonzero(mask, axis=1)
    inst = np.repeat(sel, counts)
    cols = np.flatnonzero(mask)
    cols %= n
    fac = np.ones(len(cols), dtype=np.int64)
    for j in range(t.bslot.shape[1]):
        fac *= block[t.bslot[inst, j], cols] + t.boff[inst, j]
    if pre is not None:
        par = pre[t.fslot[inst, 0], cols]
        for j in range(1, t.fslot.shape[1]):
            par ^= pre[t.fslot[inst, j], cols]
        np.negative(fac, out=fac, where=(par & 1).view(bool))
    return counts, inst, cols, fac


def _assert_chunk_matches_oracle(got, t, block, pre, sel):
    """A chunk's (counts, sel, cols, fac) equal the oracle's, dtypes too:
    its instance rows are ``sel``, and repeated by their pair counts they
    are the oracle's table row of each pair."""
    counts, got_sel, cols, fac = got
    assert np.array_equal(got_sel, sel)
    want = _oracle_apply_chunk(t, block, pre, sel)
    got = (counts, np.repeat(got_sel, counts), cols, fac)
    for field, g, w in zip(("counts", "inst", "cols", "fac"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), field


def _checked_kernel(mp):
    """Patch BulkEngine._apply_chunk to compare every chunk it builds with
    the oracle; returns the list of the checked chunks' pair counts."""
    shipped = BulkEngine._apply_chunk
    seen = []

    def checked(self, t, block, pre, sel):
        got = shipped(self, t, block, pre, sel)
        _assert_chunk_matches_oracle(got, t, block, pre, sel)
        seen.append(len(got[2]))
        return got

    mp.setattr(BulkEngine, "_apply_chunk", checked)
    return seen


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_2d_indexed_oracle_on_families(family, relative):
    """Every kernel chunk of every FAMILIES engine, absolute and relative,
    equals the 2-D-indexed oracle's: the domain build, and a batch of
    every operator on the level-1 states of each inner operator (of the
    first three with one instance per mask chunk)."""
    for budget in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            seen = _checked_kernel(mp)
            if budget is not None:
                mp.setattr(bulkrep, "_MASK_CELLS", budget)
            engine = _family_engine(family, relative)
            names = list(engine._ops)
            for inner in names if budget is None else names[:3]:
                engine._batch_sums(names, inner)
            assert sum(seen) > 0


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_kernel_matches_2d_indexed_oracle_on_suites(suite):
    """Every kernel chunk of a relation suite's run (domain builds,
    planned batches, the exact comparison of failing cases) equals the
    2-D-indexed oracle's; as shipped and with one instance per mask
    chunk."""
    for budget in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            seen = _checked_kernel(mp)
            if budget is not None:
                mp.setattr(bulkrep, "_MASK_CELLS", budget)
            SUITES[suite]()
            assert sum(seen) > 0


def _padding(t, sel, ones):
    """Per column kind (constraint, count factor, parity), for each column
    whether it is padding on every instance ``sel`` and on some of them."""
    kinds = (
        t.cspan[sel] == FULL,
        (t.bslot[sel] == ones) & (t.boff[sel] == 0),
        t.fslot[sel] == 0,
    )
    return [(pad.all(axis=0).tolist(), pad.any(axis=0).tolist()) for pad in kinds]


def test_kernel_skips_padding_exactly():
    """Hand-built tables whose chunk has constraint, count-factor and
    parity columns that are padding on every instance, or on some
    instances only, give the oracle's pairs on every level-1 state.  Every
    count factor that is not padding has a positive offset, so it is at
    least 2 and a skipped one would change the pair's factor."""
    engine = BulkEngine(AB1.dim, SMALL)
    engine.register("d", build_differential_d(AB1))
    engine.prepare()
    u = engine.universe
    _, block = _level1_rows(engine)
    pre = engine._prefix(block)
    occupied = [s for s in range(u.nslots) if block[s].max() >= 1]
    bos = [s for s in occupied if s < u.f0][:2]
    fer = [s for s in occupied if s > u.f0][:2]
    assert len(bos) == 2 and len(fer) == 2
    wide = (
        ONE,
        [(bos[0], 1, FULL), (fer[0], 0, 1)],
        [(bos[0], 1), (bos[1], 2)],
        [fer[0], fer[1]],
        [],
    )
    narrow = (ONE, [(bos[1], 1, FULL)], [(bos[1], 2)], [fer[1]], [])
    fermion = (ONE, [(fer[1], 0, 0)], [], [fer[0]], [])
    empty = (ONE, [], [], [], [])
    t = _pack_table(u, [([wide, narrow, fermion, empty], 1)])
    assert _table_widths(t) == (2, 2, 2, 0)
    on_all, on_some = set(), set()
    for sel in ([1, 2], [3], [1, 3], [0, 1, 2, 3], [0, 3]):
        sel = np.array(sel)
        got = engine._apply_chunk(t, block, pre, sel)
        assert (got[0] > 0).all()
        _assert_chunk_matches_oracle(got, t, block, pre, sel)
        for kind, (all_pad, any_pad) in enumerate(_padding(t, sel, u.nslots)):
            if any(all_pad):
                on_all.add(kind)
            if any(b and not a for a, b in zip(all_pad, any_pad)):
                on_some.add(kind)
    # each column kind is padding on every instance of some chunk, and on
    # some instances only of another
    assert on_all == on_some == {0, 1, 2}


# -- checksum weights against their per-entry formulas ----------------


def _box_matrix_upto(engine, name, quanta):
    """The box matrix of operator ``name`` with v = 0 on the box columns
    of more than ``quanta`` quanta (none when None): the entries of the
    other columns, with each column's quanta counted from its monomial."""
    rows, cols, re, im = engine._box_mats[name]
    if quanta is None:
        return rows, cols, re, im
    size = [len(m.bosons) + len(m.fermions) for m in engine.box_monos]
    keep = np.array([size[c] <= quanta for c in cols.tolist()], dtype=bool)
    return rows[keep], cols[keep], re[keep], im[keep]


def _oracle_inner_weights(engine, name, quanta=None):
    """(ids, ub_re, ub_im) of _inner_weights by its per-entry formula: the
    column weight taken per entry with _col_weights and each product
    reduced mod p before the row sums, over the entries of the columns
    with at most ``quanta`` quanta; ub_im all zero for a real matrix."""
    rows, cols, bre, bim = _box_matrix_upto(engine, name, quanta)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    bre, bim = bre[order].astype(np.int64), bim[order].astype(np.int64)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    ids = rows[starts]
    ub = np.zeros((2, len(bulkrep._CHECK_PRIMES), len(ids)), dtype=np.int64)
    for i, (p, r5, r6) in enumerate(bulkrep._CHECK_CONSTS):
        v = bulkrep._col_weights(p, r5, r6, cols)
        for k, x in enumerate((bre, bim)):
            b = np.add.reduceat(x * v % p, starts)
            ub[k, i] = b % p * engine.l1_u[i, ids] % p
    return ids, ub[0], ub[1]


def _oracle_rhs_sums(engine, name, quanta=None):
    """_rhs_sums by its per-entry formula: per prime, the sums of re * w
    and im * w mod p with w = u(row) * v(col) mod p per entry, over the
    entries of the columns with at most ``quanta`` quanta."""
    rows, cols, re, im = _box_matrix_upto(engine, name, quanta)
    re, im = re.astype(np.int64), im.astype(np.int64)
    out = []
    for i, (p, r5, r6) in enumerate(bulkrep._CHECK_CONSTS):
        w = engine.l1_u[i, rows] * bulkrep._col_weights(p, r5, r6, cols) % p
        out.append((int(np.sum(re * w % p) % p), int(np.sum(im * w % p) % p)))
    return out


def _assert_weights_match_oracle(engine, name, quanta=None):
    """_inner_weights and _rhs_sums of operator ``name`` over the box
    columns with at most ``quanta`` quanta (the whole box when None) equal
    their per-entry formulas; _rhs_sums both from weights it does not keep
    and from the inner cache."""
    key = (name, quanta)
    want_sums = _oracle_rhs_sums(engine, name, quanta)
    engine._inner_cache.pop(key, None)
    engine._rhs_cache.pop(key, None)
    assert engine._rhs_sums(name, quanta) == want_sums, key
    assert key not in engine._inner_cache
    ids, ub_re, ub_im = engine._inner_weights(name, quanta)
    want_ids, want_re, want_im = _oracle_inner_weights(engine, name, quanta)
    assert np.array_equal(ids, want_ids), key
    assert ub_re.dtype == np.uint32 and np.array_equal(ub_re, want_re), key
    if ub_im is None:
        assert not want_im.any(), key
    else:
        assert ub_im.dtype == np.uint32 and np.array_equal(ub_im, want_im), key
    engine._rhs_cache.pop(key)
    assert engine._rhs_sums(name, quanta) == want_sums, key


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_checksum_weights_match_per_entry_formulas(suite, monkeypatch):
    """On every engine of a relation suite, _inner_weights and _rhs_sums
    of every registered operator, IDENTITY and the right-hand-side-only
    operators included, equal their per-entry formulas: over the whole
    box, and over the box columns with at most q quanta for every q below
    the box's largest quanta, the reports' own q among them."""
    engines = {id(s.engine): s.engine for s, _, _ in _suite_reports(suite, monkeypatch)}
    rhs_only = 0
    for engine in engines.values():
        assert bulkrep.IDENTITY in engine._ops
        for quanta in [None] + list(range(int(engine._box_quanta.max()))):
            for name in engine._ops:
                _assert_weights_match_oracle(engine, name, quanta)
        rhs_only += len(set(engine._ops) - engine._full_names - {bulkrep.IDENTITY})
    if suite.startswith("n2") or suite.startswith("s2a"):
        assert rhs_only > 0


def test_checksum_weights_reduce_per_entry_on_long_rows():
    """A hand-built box matrix with entries near 2**30 and one long row,
    whose unreduced row sum would pass 2**63, takes the per-entry
    reduction and still equals the per-entry formulas; so does one whose
    rows are all short."""
    engine = BulkEngine(1, Box(emax=1, b0max=0))
    engine.register("tau", GeneratorOperator(GenKey("t", 0, 0)))
    engine.prepare()
    nbox, top = len(engine.box_monos), (1 << 30) - 1
    long = 64
    # one row of 64 entries and one of two; imaginary parts of both signs
    rows = np.concatenate([np.zeros(long), np.ones(2)]).astype(np.int32)
    cols = (np.arange(long + 2) % nbox).astype(np.int32)
    re = np.full(long + 2, top, dtype=np.int32)
    im = np.where(np.arange(long + 2) % 5 == 0, -top, top).astype(np.int32)
    for name, mat in (
        ("long", (rows, cols, re, im)),
        ("short", (rows[long - 2 :], cols[long - 2 :], re[long - 2 :], im[long - 2 :])),
    ):
        engine._box_mats[name] = mat
        for quanta in (None, 0, 1):
            _assert_weights_match_oracle(engine, name, quanta)
    # the long row's sum of entry * v would pass 2**63 without reduction
    v = [
        bulkrep._col_weights(p, r5, r6, cols[:long]).tolist()
        for p, r5, r6 in bulkrep._CHECK_CONSTS
    ]
    assert max(sum(top * x for x in vs) for vs in v) >= 1 << 63


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


# -- the checksum over the box states with at most q quanta -----------


def _whole_box(run):
    """``run()`` with every defect_degree the box's largest quanta, so that
    every checksum weights the whole box."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            BulkEngine,
            "defect_degree",
            lambda self, *_: int(self._box_quanta.max(initial=0)),
        )
        return run()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_reports_equal_whole_box_reports(suite):
    """Every relation suite's reports, each planned at its q, equal the
    same reports planned over the whole box, verdicts and witnesses."""
    stats.reset()
    shipped = SUITES[suite]()
    counts = stats.snapshot()["counts"]
    assert shipped == _whole_box(SUITES[suite])
    if suite != "relative-derext-sl2":
        # q leaves out some box columns (at E<=1 B0<=0 rel every state
        # has at most q quanta)
        weighted = counts["bulkrep.plan.weighted_columns"]
        assert weighted < counts["bulkrep.plan.box_columns"]


def _flipped_table(pair):
    """The S'(2,0) table with the bracket of one basis pair negated."""
    table = s2a_table(0)

    def fn(sa, na, sb, nb):
        el = table(sa, na, sb, nb)
        return el.scale(QI(-1)) if (sa, na, sb, nb) == pair else el

    return fn


def test_seeded_defects_equal_whole_box_reports():
    """The benchmark's seeded-defect kinds, every choice of each: a
    nonzero sl(2) structure constant one higher (chain identities), the
    claimed charge one higher (N=2 relations), and an S'(2,0) table entry
    at window 0 with a nonzero non-central part sign-flipped.  Each
    report FAILs, with the verdict and witness of the report planned over
    the whole box."""
    spec = builtin_sl2_orthonormal()
    runs = [
        lambda a=a, b=b, k=k: check_chain_identities(
            _sl2_wrong_constant(a, b, k), SMALL, window=1
        )
        for a, b, k in itertools.product(range(spec.dim), repeat=3)
        if not spec.c[a][b][k].is_zero()
    ]
    runs.append(lambda: _representation(SL2, "n2", 1, claimed_charge(SL2) + ONE))
    table = s2a_table(0)
    basis = [(s, 0) for s in S2A_TABLE_SYMBOLS]
    for i, (sa, na) in enumerate(basis):
        for sb, nb in basis[i:]:
            if table(sa, na, sb, nb).coeffs:
                flipped = _flipped_table((sa, na, sb, nb))
                runs.append(
                    lambda flipped=flipped: [
                        check_representation(
                            "s2a",
                            flipped,
                            s2a_builder(SL2, 0),
                            claimed_charge(SL2),
                            SL2.dim,
                            SMALL,
                            0,
                            S2A_TABLE_SYMBOLS,
                        )
                    ]
                )
    assert len(runs) > 20
    for run in runs:
        shipped = run()
        assert not all(r.passed for r in shipped)
        assert shipped == _whole_box(run)


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_quanta_checksum_finds_every_failing_pair(family, relative):
    """On every FAMILIES engine, absolute and relative, for every ordered
    operator pair claimed to (super)commute, the checksum over the box
    columns with at most q quanta, q the claim's defect_degree, is nonzero
    exactly when the exact comparison finds a failing column in the whole
    box.  Some claims fail, on the absolute box some of them with columns
    left out (the relative box E<=1 B0<=1 has few states above two
    quanta)."""
    engine = _family_engine(family, relative)
    names = list(engine._ops)
    top = int(engine._box_quanta.max())
    seen = set()
    for i, a in enumerate(names):
        for b in names[i:]:
            both_odd = bool(engine._ops[a].op.parity and engine._ops[b].op.parity)
            q = engine.defect_degree(a, b, both_odd, [])
            comps, L = engine._compositions(a, b, both_odd, [])
            zero = engine._checksum_zero(comps, [], L, q)
            col = engine._first_failing_column(comps, [], L)
            assert zero == (col is None), (a, b)
            seen.add((zero, q < top))
    assert (False, True) in seen or relative and (False, False) in seen


def test_two_annihilator_defect_fails_with_whole_box_witness():
    """A passing case with Delta = g(0,-1) g(0,-1) added to its right-hand
    side: Delta has two annihilators, so the defect is nonzero only on the
    box states that hold b(0,-1) twice, and none of them has fewer than
    two quanta.  Planned at q = 2 in a box of states with up to more
    quanta, the case FAILs with the witness of the whole-box report, at
    the first box state the per-monomial engine finds it on."""
    el = n2_table("L", 1, "L", -1)
    rhs = [(c, f"{sym}[{n}]") for (sym, n), c in el.items()]
    assert el.central.is_zero()
    slot = SlotSpec("g", 0, -1, ())
    delta = FieldOperator([TermShape(0, (slot, slot), lambda vs: ONE, False)])
    build = n2_builder(AB1)
    suites = []

    def run():
        suite = verify._BulkSuite(AB1.dim, Box(emax=2, b0max=1))
        for n in (-1, 0, 1):
            suite.op(f"L[{n}]", build("L", n))
        suite.op("delta", delta)
        suites.append(suite)
        return [
            suite.report("n2", (), [(label, "L[1]", "L[-1]", False, terms)])
            for label, terms in (("good", rhs), ("delta", rhs + [(ONE, "delta")]))
        ]

    good, bad = run()
    engine = suites[0].engine
    assert good.passed and not bad.passed
    assert engine._quanta == 2 < int(engine._box_quanta.max())
    want = _slow_first_defect(suites[0], "L[1]", "L[-1]", rhs + [(ONE, "delta")])
    m = engine.box_monos[want]
    assert m.bosons.count(GenKey("b", 0, -1)) == 2
    assert dict(bad.witness)["monomial"] == format_monomial(m)
    assert [good, bad] == _whole_box(run)


def test_claims_outside_the_degree_lemma_weight_the_whole_box():
    """The degree bound a + b - 2 holds only for the supercommutator of
    operators of one parity each.  [t(0,1), t(0,2)] claimed to commute
    (both_odd False for two odd operators) has defect 2 t(0,1) t(0,2),
    nonzero only on states with two quanta; so has [t(0,1) + g(0,1),
    t(0,2)] of a mixed-parity operator, with either sign.  Each claim's
    defect_degree is the box's largest quanta, its report FAILs with the
    first failing column of the whole box, and the true anticommutator
    [t(0,1), t(0,2)] = 0 still plans at q = 0 and PASSes."""
    suite = verify._BulkSuite(1, Box(emax=3, b0max=0))
    t1 = suite.op("t1", GeneratorOperator(GenKey("t", 0, 1)))
    t2 = suite.op("t2", GeneratorOperator(GenKey("t", 0, 2)))
    mixed = SumOperator(
        [(ONE, GeneratorOperator(GenKey("t", 0, 1))), (ONE, GeneratorOperator(GenKey("g", 0, 1)))]
    )
    mix = suite.op("mix", mixed)
    engine = suite.engine
    engine.prepare()
    top = int(engine._box_quanta.max())
    assert (engine._ops[t1].parity, engine._ops[mix].parity, mixed.parity) == (1, None, 0)
    for a, both_odd in ((t1, False), (mix, False), (mix, True)):
        assert engine.defect_degree(a, t2, both_odd, []) == top > 2
        report = suite.report("odd", (), [("c", a, t2, both_odd, [])])
        assert not report.passed and engine._quanta is None
        col = _exact_bracket_defect(engine, a, t2, both_odd, [])
        assert dict(report.witness)["monomial"] == format_monomial(engine.box_monos[col])
    assert engine.defect_degree(t1, t2, True, []) == 0
    assert suite.report("odd", (), [("c", t1, t2, True, [])]).passed
    assert engine._quanta == 0
