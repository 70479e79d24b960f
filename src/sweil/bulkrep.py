"""Vectorized exact bracket checking over whole truncation boxes.

The per-monomial operator engine is exact but spends almost all of its
time in rational arithmetic.  This module compiles each quadratic field
operator into a finite list of explicit generator-product *instances*
(the summation variables of every term are enumerated over the finite
range that can act nontrivially inside the box universe), scales every
instance coefficient to a common integer denominator per operator, and
then applies all instances to all monomials at once with numpy integer
arrays.  Everything stays exact: matrix entries are scaled Gaussian
integers, and every overflow-relevant bound is checked at run time
(``OverflowError`` when one fails, also under ``python -O``).

Monomials are encoded as occupancy rows over a fixed slot universe.  The
fermionic slots are laid out in the canonical fermion order, so the
Koszul signs of creation/annihilation are (-1)^(number of occupied
fermionic slots before the touched slot), exactly as in the one-monomial
engine.  Output monomials are identified by a 128-bit linear hash of the
occupancy row; an accidental hash collision between distinct monomials
is astronomically unlikely (and would be deterministic), and the engine
is cross-validated column-by-column against the one-monomial engine.

Universe completeness: with ``mmax = emax + max(2 * smax_full, smax_all)``
(``smax_*`` the largest absolute energy shift among the registered
operators) every monomial reachable from the box by one right-hand-side
operator or by a composition of two bracket operators has all generator
modes of absolute value at most ``mmax``.  An instance containing a slot
mode outside ``[-mmax, mmax]`` can never contribute: an annihilator of
such a mode finds no partner in any reachable monomial, and a creator of
such a mode would produce a monomial whose energy exceeds the reachable
bound, since every creator contributes nonnegative energy.  Skipping
those instances is therefore exact, not an approximation.
"""

from __future__ import annotations

from math import lcm

import numpy as np
from scipy import sparse

from .scalars import QI, ZERO
from .fock import (
    Box,
    FockMonomial,
    GenKey,
    enumerate_box,
    normal_order_slots,
)
from .liealg import StructureError

_HASH_SEED = 0x5EB11C0DE

# instance step kinds (application order, rightmost generator first)
_BA_G = 0  # bosonic annihilator, +count factor (g acting on a b partner)
_BA_B = 1  # bosonic annihilator, -count factor (b acting on a g partner)
_BC = 2  # bosonic creator
_FA = 3  # fermionic annihilator (parity sign, clears the partner slot)
_FC = 4  # fermionic creator (parity sign, fills the slot)

_CREATOR_POSITIVE = ("g", "e")


def _bound(ok, what: str):
    """Explicit int64 bound check: raises instead of risking overflow."""
    if not ok:
        raise OverflowError(f"int64 bound exceeded: {what}")


# odd multipliers extending the 128-bit state hash with the box column,
# so grouping cells (column, state) needs only the two key words
_COL_R1 = np.uint64(0x9E3779B97F4A7C15)
_COL_R2 = np.uint64(0xC2B2AE3D27D4EB4F)

# primes just below 2**31 for the modular defect checksums: residues fit
# int64 products without overflow, so no runtime bound checks are needed
_CHECK_PRIMES = (2147483629, 2147483563, 2147483423)
_CHECK_SEED = 0xF0CC5EED


def _check_consts():
    rng = np.random.Generator(np.random.PCG64(_CHECK_SEED))
    out = []
    for p in _CHECK_PRIMES:
        r = rng.integers(1, 2**63, size=4, dtype=np.uint64) | np.uint64(1)
        out.append((p, r[0], r[1], r[2], r[3]))
    return tuple(out)


_CHECK_CONSTS = _check_consts()


def _state_weights(p, r3, r4, ka, kb):
    """Per-entry state weight u = mix(key) mod p, as int64 residues."""
    return ((ka * r3 + kb * r4) % np.uint64(p)).astype(np.int64)


def _col_weights(p, r5, r6, cols):
    """Per-entry column weight v = mix(col) mod p, as int64 residues."""
    c = cols.astype(np.uint64)
    return ((c * r5 + r6) % np.uint64(p)).astype(np.int64)


def _keyed_lookup(pka, pkb, qa, qb):
    """Exact position of each query key pair in a pool sorted by its
    first word (ties unordered); -1 where absent.  First-word runs of
    length one are resolved vectorized; longer runs -- 64-bit
    coincidences between distinct states -- are scanned directly."""
    lo = np.searchsorted(pka, qa, side="left")
    hi = np.searchsorted(pka, qa, side="right")
    pos = np.full(len(qa), -1, dtype=np.int64)
    one = np.flatnonzero(hi - lo == 1)
    cand = lo[one]
    hit = pkb[cand] == qb[one]
    pos[one[hit]] = cand[hit]
    for i in np.flatnonzero(hi - lo > 1).tolist():
        for j in range(int(lo[i]), int(hi[i])):
            if pkb[j] == qb[i]:
                pos[i] = j
                break
    return pos


def _group_order(ka, kb):
    """Permutation placing equal (ka, kb) pairs adjacently, plus the
    group-start mask of the permuted sequence.

    Fast path: one stable sort on ka; equal-ka runs almost surely agree
    on kb as well.  If any adjacent pair has equal ka but different kb
    (a 64-bit coincidence between distinct cells, or an unluckily split
    run), fall back to the full two-word lexsort -- the result is exact
    either way."""
    if len(ka) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    order = np.argsort(ka, kind="stable")
    ska = ka[order]
    skb = kb[order]
    mixed = (ska[1:] == ska[:-1]) & (skb[1:] != skb[:-1])
    if mixed.any():
        order = np.lexsort((kb, ka))
        ska = ka[order]
        skb = kb[order]
    new = np.empty(len(ka), dtype=bool)
    new[0] = True
    new[1:] = (ska[1:] != ska[:-1]) | (skb[1:] != skb[:-1])
    return order, new


class Universe:
    """Fixed slot layout for all generator keys with |mode| <= mmax."""

    def __init__(self, dim: int, mmax: int):
        self.dim = dim
        self.mmax = mmax
        slots = []
        # bosonic block: g modes 1..mmax, then b modes -mmax..0
        for mode in range(1, mmax + 1):
            for comp in range(dim):
                slots.append(GenKey("g", comp, mode))
        for mode in range(-mmax, 1):
            for comp in range(dim):
                slots.append(GenKey("b", comp, mode))
        self.f0 = len(slots)
        # fermionic block in canonical fermion order: all e by (mode, comp),
        # then all t by (mode, comp) -- slot position order must equal the
        # canonical order so that slot-prefix parities equal Koszul signs
        for mode in range(1, mmax + 1):
            for comp in range(dim):
                slots.append(GenKey("e", comp, mode))
        for mode in range(-mmax, 1):
            for comp in range(dim):
                slots.append(GenKey("t", comp, mode))
        self.slots = tuple(slots)
        self.nslots = len(slots)
        self.index = {k: i for i, k in enumerate(slots)}
        rng = np.random.Generator(np.random.PCG64(_HASH_SEED))
        self.h1 = rng.integers(1, 2**63, size=self.nslots, dtype=np.uint64) | np.uint64(1)
        self.h2 = rng.integers(1, 2**63, size=self.nslots, dtype=np.uint64) | np.uint64(1)

    def creator_slot(self, key: GenKey) -> int:
        """Occupancy slot of a creator key; raises if out of range."""
        i = self.index.get(key)
        if i is None:
            raise StructureError(f"generator {key} outside the slot universe")
        return i

    def row_of(self, mono: FockMonomial) -> np.ndarray:
        row = np.zeros(self.nslots, dtype=np.uint8)
        for k in mono.bosons:
            row[self.creator_slot(k)] += 1
        for k in mono.fermions:
            row[self.creator_slot(k)] += 1
        return row

    def mono_of(self, row) -> FockMonomial:
        bosons = []
        fermions = []
        for i in np.flatnonzero(row):
            k = self.slots[i]
            (fermions if k.is_fermionic() else bosons).extend([k] * int(row[i]))
        from .fock import make_monomial

        sign, mono = make_monomial(bosons + fermions)
        if sign != 1:
            raise StructureError("occupancy row is not in canonical slot order")
        return mono

    def hash_rows(self, rows: np.ndarray):
        r = rows.astype(np.uint64)
        return r @ self.h1, r @ self.h2


class _Instance:
    """One explicit generator product with an exact coefficient."""

    __slots__ = (
        "steps",
        "coeff",
        "re",
        "im",
        "need",
        "empty",
        "dh1",
        "dh2",
        "delta",
        "dslots",
    )

    def __init__(self, steps, coeff: QI):
        self.steps = tuple(steps)
        self.coeff = coeff
        self.re = 0
        self.im = 0
        self.need = ()  # (slot, min original count) prefilter
        self.empty = ()  # fermionic slots that must be empty originally
        self.dh1 = np.uint64(0)
        self.dh2 = np.uint64(0)
        self.delta = ()
        self.dslots = ()


def _compile_instance(universe: Universe, keys, coeff: QI):
    """Turn an ordered generator product into an instance, or None if it
    is identically zero.  ``keys`` is the written product; application is
    rightmost first."""
    steps = []
    sign = 1
    # virtual fermionic occupancy relative to the (unknown) input state
    ferm_state = {}
    bos_delta = {}
    need = {}
    empty = []
    for key in reversed(keys):
        fam = key.family
        creator = key.is_creator()
        if fam in ("g", "b"):
            if creator:
                p = universe.creator_slot(key)
                steps.append((_BC, p, bos_delta.get(p, 0)))
                bos_delta[p] = bos_delta.get(p, 0) + 1
            else:
                p = universe.creator_slot(key.dual())
                d = bos_delta.get(p, 0)
                req = 1 - d
                if req > need.get(p, 0):
                    need[p] = req
                steps.append((_BA_G if fam == "g" else _BA_B, p, d))
                if fam == "b":
                    sign = -sign
                bos_delta[p] = d - 1
        else:
            if creator:
                p = universe.creator_slot(key)
                cur = ferm_state.get(p)
                if cur == 1:
                    return None  # repeated fermionic creator
                if cur is None:
                    empty.append(p)
                steps.append((_FC, p, 0))
                ferm_state[p] = 1
            else:
                p = universe.creator_slot(key.dual())
                cur = ferm_state.get(p)
                if cur == 0:
                    return None  # annihilating an already-cleared slot
                if cur is None:
                    need[p] = 1
                steps.append((_FA, p, 0))
                ferm_state[p] = 0
    inst = _Instance(steps, coeff if sign == 1 else -coeff)
    inst.need = tuple(sorted(need.items()))
    inst.empty = tuple(sorted(empty))
    # net occupancy delta and hash delta of the whole instance; a fermionic
    # slot whose first touch is an annihilation started occupied
    delta = dict(bos_delta)
    for p, v in ferm_state.items():
        first = next(s for s in inst.steps if s[1] == p and s[0] in (_FA, _FC))
        orig = 1 if first[0] == _FA else 0
        delta[p] = v - orig
    dh1 = 0
    dh2 = 0
    dslots = []
    for p, dv in sorted(delta.items()):
        if dv == 0:
            continue
        dslots.append((p, dv))
        dh1 = (dh1 + dv * int(universe.h1[p])) % (1 << 64)
        dh2 = (dh2 + dv * int(universe.h2[p])) % (1 << 64)
    inst.delta = tuple(sorted(delta.items()))
    inst.dslots = tuple(dslots)
    inst.dh1 = np.uint64(dh1)
    inst.dh2 = np.uint64(dh2)
    return inst


def _leaf_iter(op, weight: QI):
    """Flatten an operator tree into (weight, leaf) pairs plus the total
    central scalar; leaves are FieldOperators or single-generator ops."""
    central = weight * getattr(op, "central", ZERO)
    if hasattr(op, "terms") or hasattr(op, "key"):
        return central, [(weight, op)]
    if hasattr(op, "parts"):
        leaves = []
        for c, part in op.parts:
            sub_central, sub = _leaf_iter(part, weight * c)
            central = central + sub_central
            leaves.extend(sub)
        return central, leaves
    raise StructureError(
        f"operator {op.name or type(op).__name__} cannot be bulk-compiled"
    )


def _term_instances(universe: Universe, term, weight: QI, relative: bool):
    """All instances of one term shape with every slot mode in range."""
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
        import itertools

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
        if relative and any(
            k.is_fermionic() and k.mode == 0 for k in keys
        ):
            continue
        c = weight * term.coeff(vs)
        if c.is_zero():
            continue
        sign = 1
        if term.normal:
            sign, keys = normal_order_slots(keys)
        inst = _compile_instance(universe, keys, c if sign == 1 else -c)
        if inst is not None:
            out.append(inst)
    return out


class _BulkOp:
    __slots__ = ("name", "op", "central", "instances", "den", "smax")

    def __init__(self, name, op):
        self.name = name
        self.op = op
        self.central = ZERO
        self.instances = []
        self.den = 1
        self.smax = 0


def _op_energy_span(op) -> int:
    """Largest |energy shift| among the leaves of an operator tree."""
    central, leaves = _leaf_iter(op, QI(1))
    span = 0
    for _, leaf in leaves:
        if hasattr(leaf, "key"):
            span = max(span, abs(leaf.key.mode))
        else:
            for term in leaf.terms:
                de = sum(
                    (1 if s.family in _CREATOR_POSITIVE else -1) * s.const
                    for s in term.slots
                )
                span = max(span, abs(de))
    return span


class BulkEngine:
    """Compiles a batch of operators over one box and checks bracket
    identities column-by-column, exactly, with vectorized integer
    arithmetic.  Returns the index of the first failing box column so the
    caller can replay it through the one-monomial engine for a witness."""

    def __init__(self, dim: int, box: Box, relative: bool = False):
        self.dim = dim
        self.box = box
        self.relative = relative
        self.box_monos = list(enumerate_box(dim, box))
        self._ops: dict[str, _BulkOp] = {}
        self._full_names: set[str] = set()
        self._prepared = False
        self._box_mats: dict[str, tuple] = {}
        self._icache: dict[str, tuple] = {}
        self._bvec_cache: dict[tuple, tuple] = {}
        self._rhs_ck_cache: dict[tuple, tuple] = {}
        self._central_w_cache: dict[int, int] = {}

    # -- registration and compilation ---------------------------------

    def register(self, name: str, op, need_full: bool = True):
        if self._prepared:
            raise StructureError("cannot register after prepare()")
        if name not in self._ops:
            bop = _BulkOp(name, op)
            bop.smax = _op_energy_span(op)
            self._ops[name] = bop
        if need_full:
            self._full_names.add(name)
        return name

    def prepare(self):
        if self._prepared:
            return
        smax_full = max(
            [self._ops[n].smax for n in self._full_names], default=0
        )
        smax_all = max([b.smax for b in self._ops.values()], default=0)
        mmax = self.box.emax + max(1, 2 * smax_full, smax_all)
        self.universe = Universe(self.dim, mmax)
        for bop in self._ops.values():
            central, leaves = _leaf_iter(bop.op, QI(1))
            bop.central = central
            for weight, leaf in leaves:
                if hasattr(leaf, "key"):
                    key = leaf.key
                    if self.relative and key.is_fermionic() and key.mode == 0:
                        continue
                    inst = _compile_instance(self.universe, [key], weight)
                    if inst is not None:
                        bop.instances.append(inst)
                else:
                    for term in leaf.terms:
                        bop.instances.extend(
                            _term_instances(
                                self.universe, term, weight, self.relative
                            )
                        )
            den = 1
            for inst in bop.instances:
                den = lcm(den, inst.coeff.re.denominator, inst.coeff.im.denominator)
            if not central.is_zero():
                den = lcm(den, central.re.denominator, central.im.denominator)
            _bound(den < 1 << 24, f"denominator of {bop.name}")
            bop.den = den
            for inst in bop.instances:
                inst.re = int(inst.coeff.re * den)
                inst.im = int(inst.coeff.im * den)
                _bound(
                    abs(inst.re) < 1 << 30 and abs(inst.im) < 1 << 30,
                    "instance coefficient",
                )
        self._build_domain()
        self._prepared = True

    def _build_domain(self):
        """Phase A: apply every operator to the box, collect the union of
        box and one-step-image monomials as the level-1 domain.  The pool
        of (key, occupancy row) pairs is merged incrementally so that no
        duplicated row storage accumulates."""
        u = self.universe
        nbox = len(self.box_monos)
        box_rows = np.zeros((nbox, u.nslots), dtype=np.uint8)
        for i, m in enumerate(self.box_monos):
            box_rows[i] = u.row_of(m)
        bh1, bh2 = u.hash_rows(box_rows)
        order = np.argsort(bh1, kind="stable")
        pka, pkb = bh1[order], bh2[order]
        pool_rows = box_rows[order]
        raw = {}
        for name, bop in self._ops.items():
            cols, ka, kb, re, im, rows = self._apply_all(
                bop, box_rows, bh1, bh2, collect_rows=True
            )
            # sum duplicate (col, key) contributions before storing
            cols, ka, kb, re, im, first = _group_keyed(cols, ka, kb, re, im)
            raw[name] = (cols, ka, kb, re, im)
            if len(rows):
                rows = rows[first]
                # unique candidate keys, in ascending first-word order
                # (required so batch insertion keeps the pool sorted)
                korder, knew = _group_order(ka, kb)
                reps = korder[np.flatnonzero(knew)]
                uka, ukb = ka[reps], kb[reps]
                pos = _keyed_lookup(pka, pkb, uka, ukb)
                novel = pos < 0
                if novel.any():
                    ins = np.searchsorted(pka, uka[novel], side="left")
                    pka = np.insert(pka, ins, uka[novel])
                    pkb = np.insert(pkb, ins, ukb[novel])
                    pool_rows = np.insert(
                        pool_rows, ins, rows[reps[novel]], axis=0
                    )
        self.n1 = len(pka)
        self.l1_rows = pool_rows
        self.l1_h1 = pka
        self.l1_h2 = pkb
        self.box_ids = _keyed_lookup(pka, pkb, bh1, bh2)
        if int(self.box_ids.min(initial=0)) < 0:
            raise StructureError("box monomial missing from the level-1 domain")
        for name, (cols, ka, kb, re, im) in raw.items():
            rows_ids = _keyed_lookup(pka, pkb, ka, kb)
            if int(rows_ids.min(initial=0)) < 0:
                raise StructureError(f"{name} image missing from the level-1 domain")
            self._box_mats[name] = self._with_central(
                rows_ids, cols, re, im, nbox, self._ops[name]
            )

    def _with_central(self, rows, cols, re, im, ncols, bop):
        """Append the central diagonal of an operator to its grouped box
        COO; duplicate entries are fine downstream (streams are summed)."""
        if not bop.central.is_zero():
            cr = int(bop.central.re * bop.den)
            ci = int(bop.central.im * bop.den)
            diag = self.box_ids[:ncols].astype(np.int64)
            rows = np.concatenate([rows, diag])
            cols = np.concatenate([cols, np.arange(ncols, dtype=np.int64)])
            re = np.concatenate([re, np.full(ncols, cr, dtype=np.int64)])
            im = np.concatenate([im, np.full(ncols, ci, dtype=np.int64)])
        return rows, cols, re, im

    def _apply_all(self, bop, states, h1, h2, collect_rows: bool):
        """Apply every instance of ``bop`` to all ``states`` rows.

        Returns (cols, key_h1, key_h2, re, im, out_rows); out_rows is the
        stacked output occupancy rows when requested (possibly with
        duplicates), else an empty array."""
        u = self.universe
        f0 = u.f0
        n = len(states)
        cols_l, ka_l, kb_l, re_l, im_l = [], [], [], [], []
        rows_l = []
        # per-slot occupancy range of the state set: instances whose
        # prefilter no state can satisfy are skipped outright
        colmax = states.max(axis=0) if n else None
        colmin = states.min(axis=0) if n else None
        for inst in bop.instances:
            if n:
                if any(colmax[p] < r for p, r in inst.need):
                    continue
                if any(colmin[p] > 0 for p in inst.empty):
                    continue
            mask = None
            for p, r in inst.need:
                cond = states[:, p] >= r
                mask = cond if mask is None else (mask & cond)
            for p in inst.empty:
                cond = states[:, p] == 0
                mask = cond if mask is None else (mask & cond)
            idx = np.flatnonzero(mask) if mask is not None else np.arange(n)
            if len(idx) == 0:
                continue
            fac = np.ones(len(idx), dtype=np.int64)
            for kind, p, dbefore in inst.steps:
                if kind == _BA_G or kind == _BA_B:
                    cnt = states[idx, p].astype(np.int64) + dbefore
                    fac *= cnt  # sign for _BA_B already folded into coeff
                elif kind == _FA or kind == _FC:
                    if p > f0:
                        par = states[idx, f0:p].sum(axis=1, dtype=np.int64)
                    else:
                        par = np.zeros(len(idx), dtype=np.int64)
                    # parity correction from earlier steps of this instance
                    corr = sum(
                        dv
                        for q, dv in _steps_delta_before(inst, kind, p)
                        if f0 <= q < p
                    )
                    par = (par + corr) & 1
                    np.negative(fac, out=fac, where=par.astype(bool))
            cols_l.append(idx)
            ka_l.append(h1[idx] + inst.dh1)
            kb_l.append(h2[idx] + inst.dh2)
            re_l.append(inst.re * fac)
            im_l.append(inst.im * fac)
            if collect_rows:
                out = states[idx].astype(np.int16)
                for p, dv in inst.dslots:
                    out[:, p] += dv
                if out.min(initial=0) < 0:
                    raise StructureError(f"{bop.name} emptied an unoccupied slot")
                rows_l.append(out.astype(np.uint8))
        if not cols_l:
            z = np.zeros(0, dtype=np.int64)
            zu = np.zeros(0, dtype=np.uint64)
            return z, zu, zu, z, z, np.zeros((0, u.nslots), dtype=np.uint8)
        cols = np.concatenate(cols_l).astype(np.int64)
        ka = np.concatenate(ka_l)
        kb = np.concatenate(kb_l)
        re = np.concatenate(re_l)
        im = np.concatenate(im_l)
        rows = (
            np.concatenate(rows_l)
            if rows_l
            else np.zeros((0, u.nslots), dtype=np.uint8)
        )
        return cols, ka, kb, re, im, rows

    # -- restricted column builds --------------------------------------

    def _restricted_stream(self, name: str, ids):
        """Keyed COO stream of the operator applied to the level-1 states
        picked out by ``ids``: (cols, key_h1, key_h2, re, im); column j
        is the image of state ids[j].  Entries may repeat within a
        column; downstream reductions sum them."""
        bop = self._ops[name]
        # column-major copy: the instance prefilters read whole columns
        sub = np.asfortranarray(self.l1_rows[ids])
        h1 = self.l1_h1[ids]
        h2 = self.l1_h2[ids]
        nsub = len(ids)
        cols, ka, kb, re, im, _ = self._apply_all(
            bop, sub, h1, h2, collect_rows=False
        )
        if not bop.central.is_zero():
            cr = int(bop.central.re * bop.den)
            ci = int(bop.central.im * bop.den)
            cols = np.concatenate([cols, np.arange(nsub, dtype=np.int64)])
            ka = np.concatenate([ka, h1])
            kb = np.concatenate([kb, h2])
            re = np.concatenate([re, np.full(nsub, cr, dtype=np.int64)])
            im = np.concatenate([im, np.full(nsub, ci, dtype=np.int64)])
        return (cols, ka, kb, re, im)

    # -- bracket checking ---------------------------------------------

    def _product_stream(self, full, box):
        """Grouped stream of (outer o inner) on box columns.

        outer is a keyed restricted COO over nsub columns, inner a
        grouped box COO whose rows are already positions in the
        restricted column space.  The product is taken by exact int64
        sparse matrix multiplication after interning the outer output
        keys; every accumulation bound is checked before multiplying."""
        cola, ka, kb, re, im = full
        pos, cols, bre, bim = box
        nbox = len(self.box_monos)
        z = np.zeros(0, dtype=np.int64)
        zu = np.zeros(0, dtype=np.uint64)
        if len(ka) == 0 or len(cols) == 0:
            return z, zu, zu, z, z
        nsub = int(pos.max(initial=-1)) + 1
        nsub = max(nsub, int(cola.max(initial=-1)) + 1)
        order, new = _group_order(ka, kb)
        ska, skb = ka[order], kb[order]
        rowidx = np.empty(len(ka), dtype=np.int64)
        rowidx[order] = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        ktab_a, ktab_b = ska[starts], skb[starts]
        shape_a = (len(ktab_a), nsub)
        ar = sparse.coo_matrix((re, (rowidx, cola)), shape=shape_a).tocsr()
        ai = sparse.coo_matrix((im, (rowidx, cola)), shape=shape_a).tocsr()
        shape_b = (nsub, nbox)
        br = sparse.coo_matrix((bre, (pos, cols)), shape=shape_b).tocsc()
        bi = sparse.coo_matrix((bim, (pos, cols)), shape=shape_b).tocsc()
        mar = int(np.abs(ar.data).max(initial=0))
        mai = int(np.abs(ai.data).max(initial=0))
        mbr = int(np.abs(br.data).max(initial=0))
        mbi = int(np.abs(bi.data).max(initial=0))
        kmax = int(np.diff(br.indptr).max(initial=0))
        kmax = max(kmax, int(np.diff(bi.indptr).max(initial=0)))
        _bound((mar * mbr + mai * mbi) * kmax < 1 << 62, "product real part")
        _bound((mar * mbi + mai * mbr) * kmax < 1 << 62, "product imaginary part")
        cr = (ar @ br - ai @ bi).tocoo()
        ci = (ar @ bi + ai @ br).tocoo()
        oc = np.concatenate(
            [cr.col.astype(np.int64), ci.col.astype(np.int64)]
        )
        rows_out = np.concatenate([cr.row, ci.row])
        oka = ktab_a[rows_out]
        okb = ktab_b[rows_out]
        ore = np.concatenate(
            [cr.data, np.zeros(len(ci.data), dtype=np.int64)]
        )
        oim = np.concatenate(
            [np.zeros(len(cr.data), dtype=np.int64), ci.data]
        )
        return oc, oka, okb, ore, oim

    def _inner_ids(self, inner):
        """Cached (ids, pos): distinct level-1 rows hit by the inner box
        matrix and each entry's position among them."""
        hit = self._icache.get(inner)
        if hit is None:
            rows = self._box_mats[inner][0]
            ids = np.unique(rows)
            pos = np.searchsorted(ids, rows)
            hit = (ids, pos)
            self._icache[inner] = hit
        return hit

    def _inner_bvec(self, inner, pc):
        """Cached weighted column sums b_k = sum_j B[k, j] v(j) mod p of
        the inner box matrix, per checksum prime."""
        p = pc[0]
        hit = self._bvec_cache.get((inner, p))
        if hit is None:
            rows, cols, bre, bim = self._box_mats[inner]
            ids, pos = self._inner_ids(inner)
            v = _col_weights(p, pc[3], pc[4], cols)
            b_re = np.zeros(len(ids), dtype=np.int64)
            b_im = np.zeros(len(ids), dtype=np.int64)
            np.add.at(b_re, pos, (bre % p) * v % p)
            np.add.at(b_im, pos, (bim % p) * v % p)
            b_re %= p
            b_im %= p
            hit = (b_re, b_im)
            self._bvec_cache[(inner, p)] = hit
        return hit

    def _rhs_checksum(self, name, pc):
        """Cached (sum re*u*v, sum im*u*v) mod p of an operator's box
        matrix stream, per checksum prime."""
        p = pc[0]
        hit = self._rhs_ck_cache.get((name, p))
        if hit is None:
            rows, cols, re, im = self._box_mats[name]
            u = _state_weights(p, pc[1], pc[2], self.l1_h1[rows], self.l1_h2[rows])
            v = _col_weights(p, pc[3], pc[4], cols)
            w = u * v % p
            sre = int(np.sum((re % p) * w % p) % p)
            sim = int(np.sum((im % p) * w % p) % p)
            hit = (sre, sim)
            self._rhs_ck_cache[(name, p)] = hit
        return hit

    def _central_weight(self, pc):
        """Cached sum of u(box state) * v(column) mod p over box columns."""
        p = pc[0]
        w = self._central_w_cache.get(p)
        if w is None:
            nbox = len(self.box_monos)
            u = _state_weights(
                p, pc[1], pc[2],
                self.l1_h1[self.box_ids], self.l1_h2[self.box_ids],
            )
            v = _col_weights(
                p, pc[3], pc[4], np.arange(nbox, dtype=np.int64)
            )
            w = int(np.sum(u * v % p) % p)
            self._central_w_cache[p] = w
        return w

    def _checksum_zero(self, name_a, name_b, both_odd, rhs_terms, central, L):
        """True when the modular checksums of the defect vanish for every
        checksum prime.  The defect matrix D is contracted as u^T D v for
        fixed pseudo-random weights, so compositions reduce to
        (u^T A)(B v) and the product is never materialized."""
        ops = self._ops
        lf = L // (ops[name_a].den * ops[name_b].den)
        comps = []

        def comp(outer, inner, mult):
            ids, pos = self._inner_ids(inner)
            if len(ids) == 0:
                return
            stream = self._restricted_stream(outer, ids)
            comps.append((stream, inner, mult))

        if name_a == name_b:
            if both_odd:
                comp(name_a, name_a, 2 * lf)
        else:
            comp(name_a, name_b, lf)
            comp(name_b, name_a, lf if both_odd else -lf)
        for pc in _CHECK_CONSTS:
            p = pc[0]
            tot_re = tot_im = 0
            for (scols, ka, kb, re, im), inner, mult in comps:
                if len(scols) == 0:
                    continue
                b_re, b_im = self._inner_bvec(inner, pc)
                u = _state_weights(p, pc[1], pc[2], ka, kb)
                pa_re = (re % p) * u % p
                pa_im = (im % p) * u % p
                qre = b_re[scols]
                qim = b_im[scols]
                s_re = int(np.sum((pa_re * qre - pa_im * qim) % p) % p)
                s_im = int(np.sum((pa_re * qim + pa_im * qre) % p) % p)
                tot_re = (tot_re + s_re * mult) % p
                tot_im = (tot_im + s_im * mult) % p
            for c, name in rhs_terms:
                s = L // ops[name].den
                cr, ci = int(c.re * s), int(c.im * s)
                if cr == 0 and ci == 0:
                    continue
                sre, sim = self._rhs_checksum(name, pc)
                tot_re = (tot_re - (cr * sre - ci * sim)) % p
                tot_im = (tot_im - (cr * sim + ci * sre)) % p
            if central is not None and not central.is_zero():
                zr, zi = int(central.re * L), int(central.im * L)
                w = self._central_weight(pc)
                tot_re = (tot_re - zr * w) % p
                tot_im = (tot_im - zi * w) % p
            if tot_re or tot_im:
                return False
        return True

    def bracket_defect(self, name_a, name_b, both_odd, rhs_terms, central):
        """First box column where [A, B] != sum c_t T_t + central, or None.

        rhs_terms is a list of (QI coefficient, operator name); central is
        a QI scalar or None.  The bracket is the supercommutator:
        AB + BA when both operators are odd, AB - BA otherwise.

        A vanishing defect is certified by the modular checksum pass; the
        exact grouped-stream comparison runs only when a checksum is
        nonzero, and then pins down the first failing column."""
        if not self._prepared:
            self.prepare()
        ops = self._ops
        dA, dB = ops[name_a].den, ops[name_b].den
        D = dA * dB
        L = D
        for c, name in rhs_terms:
            L = lcm(L, ops[name].den * lcm(c.re.denominator, c.im.denominator))
        if central is not None and not central.is_zero():
            L = lcm(L, central.re.denominator, central.im.denominator)
        if self._checksum_zero(name_a, name_b, both_odd, rhs_terms, central, L):
            return None
        streams = []

        def push(cols, ka, kb, re, im, mult):
            if len(cols) == 0:
                return
            m = max(int(np.abs(re).max(initial=0)), int(np.abs(im).max(initial=0)))
            _bound(m * abs(mult) < 1 << 62, "scaled composition stream")
            streams.append((cols, ka, kb, re * mult, im * mult))

        lf = L // D

        def composed(outer, inner):
            rows, cols, bre, bim = self._box_mats[inner]
            ids, pos = self._inner_ids(inner)
            if len(ids) == 0:
                z = np.zeros(0, dtype=np.int64)
                zu = np.zeros(0, dtype=np.uint64)
                return z, zu, zu, z, z
            mat = self._restricted_stream(outer, ids)
            return self._product_stream(mat, (pos, cols, bre, bim))

        if name_a == name_b:
            # [A, A] is AB - BA = 0 identically for the even-even and
            # mixed cases; for odd-odd it is 2 A o A
            if both_odd:
                push(*composed(name_a, name_a), 2 * lf)
        else:
            push(*composed(name_a, name_b), lf)
            push(*composed(name_b, name_a), lf if both_odd else -lf)
        for c, name in rhs_terms:
            rows, cols, re, im = self._box_mats[name]
            s = L // ops[name].den
            cr, ci = int(c.re * s), int(c.im * s)
            m = max(int(np.abs(re).max(initial=0)), int(np.abs(im).max(initial=0)))
            _bound(2 * m * max(abs(cr), abs(ci)) < 1 << 62, f"scaled {name} stream")
            push(
                cols,
                self.l1_h1[rows],
                self.l1_h2[rows],
                -(re * cr - im * ci),
                -(re * ci + im * cr),
                1,
            )
        if central is not None and not central.is_zero():
            nbox = len(self.box_monos)
            zr = -int(central.re * L)
            zi = -int(central.im * L)
            _bound(max(abs(zr), abs(zi)) < 1 << 62, "scaled central term")
            push(
                np.arange(nbox, dtype=np.int64),
                self.l1_h1[self.box_ids],
                self.l1_h2[self.box_ids],
                np.full(nbox, zr, dtype=np.int64),
                np.full(nbox, zi, dtype=np.int64),
                1,
            )
        if not streams:
            return None
        cols = np.concatenate([s[0] for s in streams])
        ka = np.concatenate([s[1] for s in streams])
        kb = np.concatenate([s[2] for s in streams])
        re = np.concatenate([s[3] for s in streams])
        im = np.concatenate([s[4] for s in streams])
        cu = cols.astype(np.uint64)
        order, new = _group_order(ka + cu * _COL_R1, kb + cu * _COL_R2)
        cols = cols[order]
        re, im = re[order], im[order]
        starts = np.flatnonzero(new)
        gsizes = np.diff(np.append(starts, len(cols)))
        gmax = int(gsizes.max(initial=1))
        _bound(int(np.abs(re).max(initial=0)) * gmax < 1 << 62, "defect group sum")
        _bound(int(np.abs(im).max(initial=0)) * gmax < 1 << 62, "defect group sum")
        sre = np.add.reduceat(re, starts)
        sim = np.add.reduceat(im, starts)
        bad = (sre != 0) | (sim != 0)
        if not bad.any():
            return None
        return int(cols[starts[bad]].min())


def _group_keyed(cols, ka, kb, re, im):
    """Sum duplicate (col, key) entries and drop exact zeros.  Returns the
    grouped arrays plus, per kept group, the index of a representative
    entry in the original (pre-sort) order."""
    if len(cols) == 0:
        return cols, ka, kb, re, im, np.zeros(0, dtype=np.int64)
    cu = cols.astype(np.uint64)
    order, new = _group_order(ka + cu * _COL_R1, kb + cu * _COL_R2)
    cols, ka, kb = cols[order], ka[order], kb[order]
    re, im = re[order], im[order]
    starts = np.flatnonzero(new)
    gmax = int(np.diff(np.append(starts, len(cols))).max(initial=1))
    emax = max(int(np.abs(re).max(initial=0)), int(np.abs(im).max(initial=0)))
    _bound(emax * gmax < 1 << 62, "grouped entry sum")
    sre = np.add.reduceat(re, starts)
    sim = np.add.reduceat(im, starts)
    keep = (sre != 0) | (sim != 0)
    _bound(np.abs(sre).max(initial=0) < 1 << 30, "grouped real entry")
    _bound(np.abs(sim).max(initial=0) < 1 << 30, "grouped imaginary entry")
    first = order[starts[keep]]
    return (
        cols[starts[keep]],
        ka[starts[keep]],
        kb[starts[keep]],
        sre[keep],
        sim[keep],
        first,
    )


def _steps_delta_before(inst, kind, p):
    """Slot deltas applied strictly before the step (kind, p) -- steps are
    unique per (kind, slot) for fermions, which is what parity needs."""
    out = []
    for k, q, _ in inst.steps:
        if k == kind and q == p:
            break
        if k == _BC:
            out.append((q, 1))
        elif k == _BA_G or k == _BA_B:
            out.append((q, -1))
        elif k == _FC:
            out.append((q, 1))
        elif k == _FA:
            out.append((q, -1))
    return out
