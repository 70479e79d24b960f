"""Vectorized exact bracket checking over whole truncation boxes.

The per-monomial operator engine is exact but spends almost all of its
time in rational arithmetic.  This module compiles each quadratic field
operator into a finite list of explicit generator-product *instances*
(the summation variables of every term are enumerated over the finite
range that can act nontrivially inside the box universe), scales every
instance coefficient to a common integer denominator per operator, and
packs the instances of all of an engine's operators into one *packed
instance table*.  The compile is one numpy pass per engine: the grid
points of all term shapes with equal slot and variable counts are built
at once, and a point's instance depends on it only through a signature
(the term's slot families and normal ordering, each slot's creator flag,
and the equality and order pattern of the slots' universe indices, which
have a closed form).  The instance compiler runs once per distinct
signature, on a representative point, and its result, with slots written
as positions in the term, fills the rows of every point with that
signature; only the opaque coefficient is called per point.  Central
scalars and single generators are compiled one by one.  The table is
numpy arrays with one row per instance holding
- the slots it reads, each with the lowest and highest occupancy the
  input state must have there (an annihilator needs a partner, a
  fermionic creator an empty slot);
- its bosonic count factors, as (slot, offset from earlier steps);
- the fermionic slots whose prefix parity gives its Koszul sign;
- its net occupancy change per slot;
- its scaled integer coefficient.
An operator's central scalar is the empty generator product: an instance
with no constraint, count factor or parity slot that changes nothing, so
it acts as the scalar times the identity.  An operator's own table is a
view of the engine table: its rows, cut to its widest row.
A set of table rows is applied to a block of states in one vectorized
pass: instances are dropped against the block's per-slot
occupancy range, an instance x state mask is built one constraint
column at a time, and the count factors, signs, output keys and (when
asked for) instance indices of all (instance, state) pairs are taken at
once; output rows are built only for the states the level-1 domain keeps.
A table and block whose mask would exceed a fixed cell budget are taken
in consecutive instance chunks, so memory follows the output, not the
product of table and block sizes.
Everything stays exact: matrix entries are scaled Gaussian integers, and
every overflow-relevant bound is checked at run time (``OverflowError``
when one fails, also under ``python -O``).

Monomials are encoded as occupancy rows over a fixed slot universe.  The
fermionic slots are laid out in the canonical fermion order, so the
Koszul signs of creation/annihilation are (-1)^(number of occupied
fermionic slots before the touched slot), exactly as in the one-monomial
engine.  The parity corrections from an instance's own earlier steps do
not depend on the state, so they are folded into its coefficient when
it is compiled.

A monomial has one fingerprint, its occupancy weight
u(m) = prod_s z_s^occ_s(m) modulo three primes p below 2^31, with seeded
per-slot weights z_s in [2, p).  An instance with occupancy change delta
takes u(state) to u(state) * z^delta, so an output's u needs no output
row.  The level-1 domain (the box and its one-step images), the box
matrices and the exact comparison group monomials by u, exactly, and the
checksum weights them by it.  Two distinct monomials of total occupancy
at most D share u with probability at most (D / (p - 2))^3 over the seed
(p the smallest prime): per prime, u(m) - u(m') is a nonzero polynomial
of degree at most D in the z_s (Schwartz 1980; Zippel 1979).  The engine
is cross-validated column-by-column against the one-monomial engine in
the tests.

A bracket identity [A, B] = sum c_t T_t + z * 1 is checked with its
central term as one more right-hand side: z times the identity operator,
which every engine registers under the name ``IDENTITY``.  It passes when
a 3-prime modular checksum of its defect vanishes (a checksum
certificate): the defect matrix D is contracted as u^T D v mod p, with v
a pseudo-random weight per box column.  Each composition outer o inner
is summed inside the table kernel, one instance chunk at a time, as
sum_inst c z^delta * sum_states fac * sign * u(state) * b(state), where
b is the inner box matrix times v, with the three primes along one array
axis.  A report hands its cases to the engine first (``plan``), which
groups their compositions by inner operator: the first case that needs
an inner runs one kernel pass over the rows of every outer the report
pairs with it, reduced per outer, and later cases read those sums.  A
composition outside the plan is a one-outer pass of the same kernel.
The pass path forms no output keys and no output stream.

A nonzero checksum runs the exact comparison, which builds each
composition outer o inner with the same table kernel: the outer table is
applied to the state of every entry of the inner box matrix, and each
output entry, times its inner entry, lands on that entry's box column.
Each composition is summed per (column, u), then grouped once more with
the right-hand sides; the smallest column left is the first failing box
column.  The checksum is a weighted sum over those same groups, so a
nonzero checksum with no nonzero group is an engine fault and raises
StructureError.

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

import itertools
from math import lcm
from typing import NamedTuple

import numpy as np

from .scalars import ONE, QI, ZERO
from .fock import (
    _CREATOR_POSITIVE,
    Box,
    GenKey,
    enumerate_box,
    normal_order_slots,
)
from .fieldops import SumOperator
from .liealg import StructureError

# name of the identity operator every engine registers; a case's central
# term z is the right-hand side (z, IDENTITY)
IDENTITY = "1"

# highest occupancy an occupancy row can hold; also "no upper bound"
_FULL = 255

# cells of the instance x state mask that one kernel chunk builds; a
# larger set of table rows or block is taken in instance chunks, which
# bounds the mask and the per-pair temporaries whatever the box size (a
# checksum chunk spans the rows of several outer operators, and its three
# primes share one array per pair)
_MASK_CELLS = 1 << 16


def _bound(ok, what: str):
    """Explicit int64 bound check: raises instead of risking overflow."""
    if not ok:
        raise OverflowError(f"int64 bound exceeded: {what}")


def _absmax(re, im) -> int:
    """Largest absolute real or imaginary part of a stream, 0 if empty."""
    return max(int(np.abs(re).max(initial=0)), int(np.abs(im).max(initial=0)))


# primes just below 2**31 for the modular defect checksums: the product
# of two residues fits int64, and a residue fits the 31 bits that
# _pool_words and _group_keyed give it in a sort word
_CHECK_PRIMES = (2147483629, 2147483563, 2147483423)
_CHECK_P = np.array(_CHECK_PRIMES, dtype=np.int64)[:, None]
_CHECK_SEED = 0xF0CC5EED
# seed of the per-slot weights z_s of the occupancy weights u
_SLOT_SEED = 0x5107CE11


def _check_consts():
    rng = np.random.Generator(np.random.PCG64(_CHECK_SEED))
    out = []
    for p in _CHECK_PRIMES:
        r = rng.integers(1, 2**63, size=2, dtype=np.uint64) | np.uint64(1)
        out.append((p, r[0], r[1]))
    return tuple(out)


_CHECK_CONSTS = _check_consts()


def _col_weights(p, r5, r6, cols):
    """Per-entry column weight v = mix(col) mod p, as int64 residues."""
    c = cols.astype(np.uint64)
    return ((c * r5 + r6) % np.uint64(p)).astype(np.int64)


def _power_table(nslots: int, k: int) -> np.ndarray:
    """(prime, slot, k + e) -> z_s**e mod p for |e| <= k, with one seeded
    weight z_s in [2, p) per slot and prime; z_s**-1 is taken once per
    slot."""
    rng = np.random.Generator(np.random.PCG64(_SLOT_SEED))
    tab = np.ones((len(_CHECK_PRIMES), nslots, 2 * k + 1), dtype=np.int64)
    for i, p in enumerate(_CHECK_PRIMES):
        z = rng.integers(2, p, size=nslots, dtype=np.int64)
        zi = np.array([pow(int(x), -1, p) for x in z], dtype=np.int64)
        for e in range(1, k + 1):
            tab[i, :, k + e] = tab[i, :, k + e - 1] * z % p
            tab[i, :, k - e] = tab[i, :, k - e + 1] * zi % p
    return tab


def _group_order(ka, kb):
    """Permutation placing equal (ka, kb) pairs adjacently, plus the
    group-start mask of the permuted sequence.

    Fast path: one stable sort on ka; equal-ka runs almost surely agree
    on kb as well.  If any adjacent pair has equal ka but different kb
    (distinct cells that share their first word, or an unluckily split
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

    def creator_slot(self, key: GenKey) -> int:
        """Occupancy slot of a creator key; raises if out of range."""
        i = self.index.get(key)
        if i is None:
            raise StructureError(f"generator {key} outside the slot universe")
        return i

    def slots_of(self, fermionic, comp, mode) -> np.ndarray:
        """Vectorized slot of the keys with these statistics, components
        and modes (|mode| <= mmax), in closed form from the layout above:
        a key's creator slot when it creates, its dual's (same mode) when
        it annihilates."""
        return (
            np.where(fermionic, self.f0, 0)
            + np.where(mode > 0, mode - 1, 2 * self.mmax + mode) * self.dim
            + comp
        )

    def rows_of(self, monos) -> np.ndarray:
        """Occupancy rows of ``monos``, one per monomial, built with one
        scatter-add over all (monomial, slot) pairs; raises OverflowError
        when an occupancy passes what a row holds."""
        keys = [k for m in monos for part in m for k in part]
        get = self.index.get
        slots = np.array([get(k, -1) for k in keys], dtype=np.int64)
        if len(slots) and slots.min() < 0:
            bad = keys[int(np.argmin(slots))]
            raise StructureError(f"generator {bad} outside the slot universe")
        sizes = [len(bos) + len(fer) for bos, fer in monos]
        # a row counts in uint8 only when no monomial has more keys than
        # uint8 holds, so that the bound below sees every count
        wide = max(sizes, default=0) > _FULL
        rows = np.zeros((len(monos), self.nslots), dtype=np.int64 if wide else np.uint8)
        np.add.at(rows, (np.repeat(np.arange(len(monos)), sizes), slots), 1)
        _bound(int(rows.max(initial=0)) <= _FULL, "slot occupancy of an occupancy row")
        return rows.astype(np.uint8, copy=False)


def _compile_instance(universe: Universe, keys, coeff: QI):
    """Table entries of an ordered generator product, or None if it is
    identically zero.  ``keys`` is the written product; application is
    rightmost first.

    Returns (coeff, cons, bos, par, delta):
    - ``cons``: (slot, lo, hi) for each slot whose input occupancy must
      lie in [lo, hi] (a fermionic slot first created must be empty);
    - ``bos``: (slot, offset) per bosonic annihilation, whose factor is
      the input occupancy plus the offset;
    - ``par``: the fermionic slots whose exclusive prefix parity in the
      input state enters the sign (each touched an odd number of times);
    - ``delta``: (slot, change) for each slot the product changes.
    The b-annihilator signs and the parity from the instance's own
    earlier steps are folded into ``coeff``."""
    f0 = universe.f0
    negate = False
    delta = {}  # occupancy change so far, relative to the input state
    cons = {}  # slot -> (lo, hi)
    bos = []
    par = set()
    for key in reversed(keys):
        creator = key.is_creator()
        p = universe.creator_slot(key if creator else key.dual())
        d = delta.get(p, 0)
        if not key.is_fermionic():
            if not creator:
                # the input must hold 1 - d partners for this step
                if 1 - d > cons.get(p, (0, _FULL))[0]:
                    cons[p] = (1 - d, _FULL)
                bos.append((p, d))
                negate ^= key.family == "b"
        else:
            if p in cons:
                if cons[p][0] + d == int(creator):
                    return None  # repeated creator or repeated annihilator
            else:
                cons[p] = (0, 0) if creator else (1, 1)
            par ^= {p}
            negate ^= bool(sum(v for q, v in delta.items() if f0 <= q < p) & 1)
        delta[p] = d + 1 if creator else d - 1
    return (
        -coeff if negate else coeff,
        sorted((p, lo, hi) for p, (lo, hi) in cons.items()),
        bos,
        sorted(par),
        sorted((p, v) for p, v in delta.items() if v),
    )


class _Table(NamedTuple):
    """Packed instances of one operator, one row each.  Short rows are
    padded with entries that change nothing: a constraint on the block's
    row of ones that always holds, a count factor of one read there, a
    parity read at the first fermionic slot (always even) and a zero
    change at slot 0."""

    cslot: np.ndarray  # (k, kc) constrained slots
    clo: np.ndarray  # (k, kc) lowest input occupancy
    cspan: np.ndarray  # (k, kc) highest minus lowest input occupancy
    bslot: np.ndarray  # (k, kb) slots of the bosonic count factors
    boff: np.ndarray  # (k, kb) count offsets from earlier steps
    fslot: np.ndarray  # (k, kf) parity slots, counted from the first fermion
    dslot: np.ndarray  # (k, kd) changed slots
    dval: np.ndarray  # (k, kd) occupancy changes
    re: np.ndarray  # (k,) coefficient times the operator's denominator
    im: np.ndarray


def _widths(t: _Table):
    """(constraint, count factor, parity, change) columns of a table."""
    return t.cslot.shape[1], t.bslot.shape[1], t.fslot.shape[1], t.dslot.shape[1]


def _view(t: _Table, rows, kc: int, kb: int, kf: int, kd: int) -> _Table:
    """The rows ``rows`` of a table with kc constraint, kb count factor, kf
    parity and kd change columns; a view when ``rows`` is a slice."""
    return _Table(
        t.cslot[rows, :kc],
        t.clo[rows, :kc],
        t.cspan[rows, :kc],
        t.bslot[rows, :kb],
        t.boff[rows, :kb],
        t.fslot[rows, :kf],
        t.dslot[rows, :kd],
        t.dval[rows, :kd],
        t.re[rows],
        t.im[rows],
    )


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


# family codes of a compile signature: g and e create at mode > 0, t and
# e are fermionic
_FAMILY_CODE = {"g": 0, "b": 1, "e": 2, "t": 3}
# padding positions of template entries, read from the three columns
# after a row's slots: the block's row of ones, the first fermionic
# slot, slot 0
_PAD_ONES, _PAD_F0, _PAD_ZERO = -3, -2, -1


def _row_codes(rows) -> np.ndarray:
    """One int64 per row of the small nonnegative int matrix ``rows``,
    equal exactly when the rows are: a mixed-radix number, its digits so
    far replaced by their dense rank (below the row count) whenever the
    next digit could overflow it."""
    code = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        r = int(col.max(initial=0)) + 1
        if (int(code.max(initial=0)) + 1) * r >= 1 << 63:
            code = np.unique(code, return_inverse=True)[1]
        code = code * r + col
    return code


class _Compiler:
    """Compiles the operators of one engine into its packed table.

    Within one term shape, the compiled instance at a grid point depends
    on the point only through the term's slot families and ``normal``
    flag, each slot's creator flag, and the equality and order pattern of
    the slots' universe indices, which fixes coincident slots, the sort
    order of cons, par and delta, and the Koszul prefix signs.  So the
    grid points of all term shapes with the same slot and variable counts
    are built with numpy at once and keyed by that signature, and
    _compile_instance runs once per distinct signature, on a
    representative point.  Its result with each slot written as a
    position in the term (a template) gives the table row of every point
    with that signature, by gathering the point's universe indices.  Only
    the coefficients are taken point by point: one ``TermShape.coeff``
    call per point whose product is not identically zero."""

    def __init__(self, universe: Universe, relative: bool, width: int):
        self.universe = universe
        self.relative = relative
        # entries per template field: at most one per key
        self.width = width
        # one flat row per template: sign, the entry count of each field,
        # then each field's columns padded to ``width``: cons positions,
        # lows and highs, bos positions and offsets, par positions, delta
        # positions and changes
        self.templates = []
        # signature -> template index, -1 for a product that is
        # identically zero
        self.cache = {}

    def template(self, sig, keys, slots, sign: int) -> int:
        """Index of the template of signature ``sig``, built on first use
        from the generator product ``keys`` with coefficient ``sign`` (see
        _compile_instance), or -1 when it is identically zero; ``slots``
        are the universe indices of the term's slots, in written order
        before any normal ordering."""
        hit = self.cache.get(sig)
        if hit is not None:
            return hit
        inst = _compile_instance(self.universe, keys, ONE)
        if inst is None:
            self.cache[sig] = -1
            return -1
        c, cons, bos, par, delta = inst
        at = {}
        for j, p in enumerate(slots):
            at.setdefault(p, j)
        w = self.width

        def col(entries, fill):
            return entries + [fill] * (w - len(entries))

        self.templates.append(
            [sign if c.re > 0 else -sign, len(cons), len(bos), len(par), len(delta)]
            + col([at[p] for p, _, _ in cons], _PAD_ONES)
            + col([lo for _, lo, _ in cons], 0)
            + col([hi for _, _, hi in cons], _FULL)
            + col([at[p] for p, _ in bos], _PAD_ONES)
            + col([d for _, d in bos], 0)
            + col([at[p] for p in par], _PAD_F0)
            + col([at[p] for p, _ in delta], _PAD_ZERO)
            + col([v for _, v in delta], 0)
        )
        hit = self.cache[sig] = len(self.templates) - 1
        return hit

    def term_points(self, terms):
        """(seg, template, slots, coeffs) of the grid points of the term
        shapes ``terms``, (segment, term, weight) each, all with equal slot
        and variable counts, whose product is not identically zero: in
        term order, then grid order, with the universe index of each term
        slot and the weighted coefficient, zero or not."""
        u = self.universe
        mmax = u.mmax
        shapes = [t for _, t, _ in terms]
        nt, ns, nv = len(terms), len(shapes[0].slots), shapes[0].nvars
        spec = np.fromiter(
            itertools.chain.from_iterable(
                (s.const, s.comp, _FAMILY_CODE[s.family]) + s.coeffs
                for t in shapes
                for s in t.slots
            ),
            dtype=np.int64,
        ).reshape(nt, ns, 3 + nv)
        const, comp, fam = spec[:, :, 0], spec[:, :, 1], spec[:, :, 2]
        coef = spec[:, :, 3:]
        ferm = fam >= 2
        normal = np.fromiter((t.normal for t in shapes), dtype=np.int64, count=nt)
        # each variable ranges over mmax + |const| of the first slot whose
        # mode is +-var plus a constant
        radius = np.empty((nt, nv), dtype=np.int64)
        unit = np.abs(coef).sum(axis=2) == 1
        for v in range(nv):
            iso = unit & (np.abs(coef[:, :, v]) == 1)
            if not iso.any(axis=1).all():
                raise StructureError("term has no isolating slot for a variable")
            radius[:, v] = mmax + np.abs(const[np.arange(nt), iso.argmax(axis=1)])
        # the filters, per term and variable
        gt = np.zeros((nt, nv), dtype=bool)
        ne = np.zeros((nt, nv), dtype=bool)
        for i, t in enumerate(shapes):
            for v, op in t.filters:
                if op == ">":
                    gt[i, v] = True
                elif op == "!=":
                    ne[i, v] = True
        # every term's grid, variables in itertools.product order
        width = 2 * radius + 1
        size = width.prod(axis=1)
        tid = np.repeat(np.arange(nt), size)
        local = np.arange(len(tid)) - np.repeat(np.cumsum(size) - size, size)
        vs = np.empty((len(tid), nv), dtype=np.int64)
        for v in range(nv - 1, -1, -1):
            w = width[tid, v]
            vs[:, v] = local % w - radius[tid, v]
            local //= w
        mode = const[tid]
        for v in range(nv):
            mode += coef[tid, :, v] * vs[:, v, None]
        keep = (np.abs(mode) <= mmax).all(axis=1)
        for v in range(nv):
            keep &= ~(gt[tid, v] & (vs[:, v] <= 0))
            keep &= ~(ne[tid, v] & (vs[:, v] == 0))
        if self.relative:
            keep &= ~(ferm[tid] & (mode == 0)).any(axis=1)
        tid, vs, mode = tid[keep], vs[keep], mode[keep]
        slots = u.slots_of(ferm[tid], comp[tid], mode)
        # signature: normal flag, families, and per slot its creator flag
        # and the number of slots with a smaller universe index
        creator = (mode > 0) == (fam[tid] % 2 == 0)
        rank = (slots[:, None, :] < slots[:, :, None]).sum(axis=2)
        sig = np.concatenate(
            [normal[tid, None], fam[tid], creator * ns + rank], axis=1
        ).reshape(len(tid), 1 + 2 * ns)
        _, first, inv = np.unique(
            _row_codes(sig), return_index=True, return_inverse=True
        )
        found = []
        for f in first.tolist():
            t = shapes[tid[f]]
            keys = [
                GenKey(s.family, s.comp, m) for s, m in zip(t.slots, mode[f].tolist())
            ]
            sign = 1
            if t.normal:
                sign, keys = normal_order_slots(keys)
            found.append(
                self.template(tuple(sig[f].tolist()), keys, slots[f].tolist(), sign)
            )
        tmpl = np.array(found, dtype=np.int64)[inv]
        keep = tmpl >= 0
        tid, vs, slots, tmpl = tid[keep], vs[keep], slots[keep], tmpl[keep]
        # the opaque coefficients, one call per kept point
        points = vs.tolist()
        coeffs = []
        at = 0
        for (_, t, weight), k in zip(terms, np.bincount(tid, minlength=nt).tolist()):
            cs = list(map(t.coeff, map(tuple, points[at : at + k])))
            coeffs += cs if weight == ONE else [weight * c for c in cs]
            at += k
        seg = np.array([s for s, _, _ in terms], dtype=np.int64)[tid]
        return seg, tmpl, slots, coeffs

    def single_points(self, singles):
        """(seg, template, slots, coeffs) of the instances ``singles``,
        (segment, keys, coeff) each with at most one key, with the
        signature of a one-slot or empty term; slots has one column."""
        u = self.universe
        out = []
        for seg, keys, c in singles:
            sig = (0,) + tuple(
                x for k in keys for x in (_FAMILY_CODE[k.family], k.is_creator())
            )
            at = [u.creator_slot(k if k.is_creator() else k.dual()) for k in keys]
            tmpl = self.template(sig, keys, at, 1)
            if tmpl >= 0:
                # slot 0 stands in for the empty product's missing slot
                out.append((seg, tmpl, at[0] if at else 0, c))
        seg, tmpl, slots, coeffs = zip(*out) if out else ((), (), (), ())
        return (
            np.array(seg, dtype=np.int64),
            np.array(tmpl, dtype=np.int64),
            np.array(slots, dtype=np.int64).reshape(len(out), 1),
            list(coeffs),
        )

    def template_arrays(self):
        """sign (templates,), entry counts (templates, 4), and the padded
        fields (templates, width) of every template: cons positions, lows
        and highs, bos positions and offsets, par positions, delta
        positions and changes."""
        rows = np.array(self.templates, dtype=np.int64).reshape(
            len(self.templates), 5 + 8 * self.width
        )
        return rows[:, 0], rows[:, 1:5], np.split(rows[:, 5:], 8, axis=1)


def _compile_table(universe: Universe, ops, relative: bool):
    """The packed table of the nonzero instances of the operator trees
    ``ops``, (name, op) each, and per operator (first, den, view): its
    first table row, the common denominator that scales its coefficients
    to integers, and a view of its rows, cut to its widest row.  Rows run
    in operator order; within an operator, its central scalar, then its
    leaves and their terms in order, each term's grid points in
    itertools.product order."""
    owner = []  # operator index of each segment
    singles = []  # (segment, keys, coeff)
    groups = {}  # (slots, vars) -> [(segment, term, weight)]
    for i, (_, op) in enumerate(ops):
        central, leaves = _leaf_iter(op, ONE)
        if not central.is_zero():
            singles.append((len(owner), [], central))
            owner.append(i)
        for weight, leaf in leaves:
            if hasattr(leaf, "key"):
                key = leaf.key
                if not (relative and key.is_fermionic() and key.mode == 0):
                    singles.append((len(owner), [key], weight))
                    owner.append(i)
                continue
            for term in leaf.terms:
                group = groups.setdefault((len(term.slots), term.nvars), [])
                group.append((len(owner), term, weight))
                owner.append(i)
    comp = _Compiler(universe, relative, max([1] + [ns for ns, _ in groups]))
    parts = [comp.single_points(singles)]
    parts += [comp.term_points(terms) for terms in groups.values()]
    seg = np.concatenate([p[0] for p in parts])
    tmpl = np.concatenate([p[1] for p in parts])
    slots = np.zeros((len(seg), comp.width), dtype=np.int64)
    at = 0
    for _, _, s, _ in parts:
        slots[at : at + len(s), : s.shape[1]] = s
        at += len(s)
    coeffs = [c for p in parts for c in p[3]]
    # a zero coefficient drops its row, except on a single-generator leaf
    fixed = np.zeros(len(seg), dtype=bool)
    fixed[: len(parts[0][0])] = True
    del parts
    # segment order, each segment's rows in grid order
    order = np.argsort(seg, kind="stable")
    seg, tmpl, slots, fixed = seg[order], tmpl[order], slots[order], fixed[order]
    order = order.tolist()
    re = [coeffs[i].re for i in order]
    im = [coeffs[i].im for i in order]
    del coeffs, order
    row_op = np.array(owner, dtype=np.int64)[seg]
    # per operator, the lcm of its coefficients' denominators
    dens = [1] * len(ops)
    op_of = row_op.tolist()
    for part in (re, im):
        for i, x in enumerate(part):
            if type(x) is not int:
                dens[op_of[i]] = lcm(dens[op_of[i]], x.denominator)
    for (name, _), den in zip(ops, dens):
        _bound(den < 1 << 24, f"denominator of {name}")
    stops = np.cumsum(np.bincount(row_op, minlength=len(ops))).tolist()
    for den, a, b in zip(dens, [0] + stops, stops):
        if den > 1:
            # exact: each denominator divides den
            for part in (re, im):
                part[a:b] = [x.numerator * (den // x.denominator) for x in part[a:b]]
    _bound(
        max(map(abs, re), default=0) < 1 << 30
        and max(map(abs, im), default=0) < 1 << 30,
        "instance coefficient",
    )
    sign, tlens, (cpos, clo, chi, bpos, boff, fpos, dpos, dval) = comp.template_arrays()
    re = np.array(re, dtype=np.int64) * sign[tmpl]
    im = np.array(im, dtype=np.int64) * sign[tmpl]
    keep = fixed | (re != 0) | (im != 0)
    tmpl, slots, re, im = tmpl[keep], slots[keep], re[keep], im[keep]
    row_op = row_op[keep]
    counts = np.bincount(row_op, minlength=len(ops))
    starts = np.cumsum(counts) - counts
    lens = tlens[tmpl]
    kc, kb, kf, kd = widths = lens.max(axis=0, initial=0).tolist()
    # the slot columns of every row at once: the universe index of the
    # slot at each template position, or a padding slot
    ones, f0 = universe.nslots, universe.f0
    ext = np.concatenate(
        [slots, np.broadcast_to(np.array([ones, f0, 0]), (len(slots), 3))], axis=1
    )
    pos = np.concatenate(
        [cpos[:, :kc], bpos[:, :kb], fpos[:, :kf], dpos[:, :kd]], axis=1
    )
    got = np.take_along_axis(ext, pos[tmpl], axis=1).astype(np.int16)
    cslot, bslot, fslot, dslot = np.split(got, np.cumsum(widths)[:3], axis=1)
    table = _Table(
        cslot=cslot,
        clo=clo[:, :kc].astype(np.uint8)[tmpl],
        cspan=(chi[:, :kc] - clo[:, :kc]).astype(np.uint8)[tmpl],
        bslot=bslot,
        boff=boff[:, :kb].astype(np.int8)[tmpl],
        fslot=fslot - f0,
        dslot=dslot,
        dval=dval[:, :kd].astype(np.int8)[tmpl],
        re=re,
        im=im,
    )
    # each operator's widest row
    op_widths = np.zeros((len(ops), 4), dtype=np.int64)
    live = counts > 0
    if live.any():
        op_widths[live] = np.maximum.reduceat(lens, starts[live], axis=0)
    return table, [
        (a, den, _view(table, slice(a, a + n), *w))
        for a, n, den, w in zip(
            starts.tolist(), counts.tolist(), dens, op_widths.tolist()
        )
    ]


class _BulkOp:
    __slots__ = ("name", "op", "table", "first", "den", "smax", "zd")

    def __init__(self, name, op):
        self.name = name
        self.op = op
        # view of the engine table: the operator's rows, from engine row
        # ``first``, cut to its widest row
        self.table = None
        self.first = 0
        self.den = 1
        self.smax = 0
        # per checksum prime and table row, z**delta mod p (a view)
        self.zd = None


def _op_energy_span(op) -> int:
    """Largest |energy shift| among the leaves of an operator tree."""
    _, leaves = _leaf_iter(op, QI(1))
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


def _empty_stream():
    """Empty stream arrays (cols, keys, re, im, inst)."""
    e = np.empty(0, dtype=np.int64)
    return e, np.empty((len(_CHECK_PRIMES), 0), dtype=np.uint32), e, e, e


def _image_rows(bop, states, cols, inst):
    """Output occupancy rows of the (instance, state) pairs ``inst`` x
    ``cols``: each state's row plus its instance's occupancy change."""
    t = bop.table
    rows = states[cols]
    at = np.arange(len(cols))
    for j in range(t.dslot.shape[1]):
        p = t.dslot[inst, j]
        occ = rows[at, p] + t.dval[inst, j]
        if occ.min(initial=0) < 0:
            raise StructureError(f"{bop.name} emptied an unoccupied slot")
        rows[at, p] = occ
    return rows


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
        self._inner_cache: dict[str, tuple] = {}
        self._rhs_cache: dict[str, list] = {}
        # the current plan: per inner operator, its outers (in table row
        # order) with their positions, and the checksum sums of the inner's
        # batches run so far
        self._planned: dict[str, dict] = {}
        self._batches: dict[str, np.ndarray] = {}
        self.register(IDENTITY, SumOperator((), central=ONE), need_full=False)

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
        # the table's int16 slot columns hold every slot and the block's
        # row of ones after them
        _bound(
            self.universe.nslots + 1 <= np.iinfo(np.int16).max,
            "slot index of the int16 slot columns",
        )
        self._compile()
        self._build_domain()
        self._prepared = True

    def _compile(self):
        """Compile every registered operator into the engine table; each
        operator's table is a view of its rows."""
        bops = list(self._ops.values())
        self._table, compiled = _compile_table(
            self.universe, [(b.name, b.op) for b in bops], self.relative
        )
        for bop, (first, den, view) in zip(bops, compiled):
            bop.first, bop.den, bop.table = first, den, view

    def _build_domain(self):
        """Phase A: apply every operator to the box; the level-1 domain is
        the set of box and one-step-image monomials.  The box keys and
        every operator's grouped image keys are grouped together once:
        group ranks are the level-1 ids of the box monomials and of every
        box matrix row, and an occupancy row is built only for each
        group's representative, whose key is the state's u.  IDENTITY's
        box matrix is the box itself and is written down directly."""
        u = self.universe
        t = self._table
        nbox = len(self.box_monos)
        box_rows = u.rows_of(self.box_monos)
        top = int(box_rows.max(initial=0))
        # the uint8 output rows of the one-step images
        _bound(
            top + max(int(t.dval.max(initial=0)), 0) <= _FULL,
            "slot occupancy of a one-step image",
        )
        k = max(top, int(np.abs(t.dval).max(initial=0)))
        self._ztab = _power_table(u.nslots, k)
        slots = np.broadcast_to(np.arange(u.nslots), box_rows.shape)
        box_u = self._zpow(slots, box_rows).astype(np.uint32)
        # per checksum prime and engine table row, z**delta mod p and the
        # (re, im) of c * z**delta mod p
        zd = self._zpow(t.dslot, t.dval)
        self._zd = zd.astype(np.uint32)
        self._cz = tuple(
            ((x % _CHECK_P) * zd % _CHECK_P).astype(np.uint32) for x in (t.re, t.im)
        )
        del zd
        for bop in self._ops.values():
            bop.zd = self._zd[:, bop.first : bop.first + len(bop.table.re)]
        raw = {}
        words = [_pool_words(box_u)]
        for name, bop in self._ops.items():
            if name == IDENTITY:
                continue
            cols, keys, re, im, inst = self._apply_all(
                bop, box_rows, box_u, collect_rows=True
            )
            # sum duplicate (col, key) contributions before pooling
            cols, keys, re, im, first = _group_keyed(cols, keys, re, im)
            _bound(np.abs(re).max(initial=0) < 1 << 30, "grouped real entry")
            _bound(np.abs(im).max(initial=0) < 1 << 30, "grouped imaginary entry")
            raw[name] = (cols, re, im, inst[first])
            words.append(_pool_words(keys))
            del keys, inst
        pka, pkb = (np.concatenate(w) for w in zip(*words))
        del words
        order, new = _group_order(pka, pkb)
        ids = np.empty(len(order), dtype=np.int64)
        ids[order] = np.cumsum(new) - 1
        reps = order[new]
        self.n1 = len(reps)
        # per checksum prime, u of every level-1 state
        ka, kb = pka[reps], pkb[reps]
        del pka, pkb
        self.l1_u = np.stack([ka & 0x7FFFFFFF, ka >> 31, kb]).astype(np.uint32)
        del ka, kb
        is_rep = np.zeros(len(order), dtype=bool)
        is_rep[reps] = True
        self.box_ids = ids[:nbox]
        self.l1_rows = np.empty((self.n1, u.nslots), dtype=np.uint8)
        at = np.flatnonzero(is_rep[:nbox])
        self.l1_rows[self.box_ids[at]] = box_rows[at]
        one = np.ones(nbox, dtype=np.int64)
        self._box_mats[IDENTITY] = (self.box_ids, np.arange(nbox), one, 0 * one)
        start = nbox
        for name, (cols, re, im, inst) in raw.items():
            stop = start + len(cols)
            rows_ids = ids[start:stop]
            at = np.flatnonzero(is_rep[start:stop])
            self.l1_rows[rows_ids[at]] = _image_rows(
                self._ops[name], box_rows, cols[at], inst[at]
            )
            self._box_mats[name] = (rows_ids, cols, re, im)
            start = stop

    def _zpow(self, slots, exps):
        """Per checksum prime, prod_j z[slots[..., j]] ** exps[..., j] mod p
        over the last axis, from the engine's power table; shape
        (primes,) + exps.shape[:-1]."""
        k = self._ztab.shape[2] // 2
        _bound(
            max(int(exps.max(initial=0)), -int(exps.min(initial=0))) <= k,
            "occupancy of the z-power table",
        )
        out = np.ones((len(_CHECK_PRIMES),) + exps.shape[:-1], dtype=np.int64)
        for j in range(exps.shape[-1]):
            e = exps[..., j]
            if e.any():
                out *= self._ztab[:, slots[..., j], e.astype(np.int64) + k]
                out %= _CHECK_P
        return out

    def _pair_chunks(self, t, rows, states):
        """The (instance, state) pairs of the rows ``rows`` of the packed
        instance table ``t`` on the rows of ``states``, one chunk of
        instances at a time, in the order of ``rows``, instance-major.
        Yields (counts, inst, cols, fac): the number of pairs of each
        instance of the chunk, each pair's table row and state, and its
        count factor times its Koszul sign."""
        u = self.universe
        n = len(states)
        if n == 0 or len(rows) == 0:
            return
        # slot-major copy of the block plus the row of ones that padded
        # table entries read
        block = np.ones((u.nslots + 1, n), dtype=np.uint8)
        block[:-1] = states.T
        del states
        # drop instances that no state of the block can feed
        cslot, clo = t.cslot[rows], t.clo[rows]
        bmax = block.max(axis=1)
        live = (bmax[cslot] >= clo) & (block.min(axis=1)[cslot] <= clo + t.cspan[rows])
        sel = rows[live.all(axis=1)]
        del cslot, clo, live
        if len(sel) == 0:
            return
        # a count factor times a coefficient or a checksum weight, each
        # below 2**31, must fit int64
        top = int(bmax.max()) + max(int(t.boff[sel].max(initial=0)), 0)
        _bound(top ** t.bslot.shape[1] < 1 << 32, "count factor x weight")
        pre = None
        if t.fslot.shape[1]:
            # exclusive prefix counts over the fermionic slots (mod 256,
            # which keeps their parity); row 0 is the empty prefix
            pre = np.zeros((u.nslots - u.f0, n), dtype=np.uint8)
            np.cumsum(
                block[u.f0 : u.nslots - 1], axis=0, dtype=np.uint8, out=pre[1:]
            )
        # consecutive instance chunks keep the instance-major order
        step = max(1, _MASK_CELLS // n)
        for i in range(0, len(sel), step):
            yield self._apply_chunk(t, block, pre, sel[i : i + step])

    def _apply_chunk(self, t, block, pre, sel):
        """The pairs of the instances ``sel`` of table ``t`` on the block;
        see _pair_chunks.  ``block`` is the slot-major block, ``pre`` its
        exclusive fermionic prefix counts (None if the table has no
        parity slots)."""
        n = block.shape[1]
        # instance x state mask, one constraint column at a time;
        # occupancy - lo wraps around below lo, so one comparison with
        # the span checks both ends
        mask = np.ones((len(sel), n), dtype=bool)
        for j in range(t.cslot.shape[1]):
            occ = block[t.cslot[sel, j]] - t.clo[sel, j][:, None]
            mask &= occ <= t.cspan[sel, j][:, None]
            del occ
        # (instance, state) pairs in instance-major order; the flat index
        # becomes the state index in place
        counts = np.count_nonzero(mask, axis=1)
        inst = np.repeat(sel, counts)
        cols = np.flatnonzero(mask)
        del mask
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

    def _apply_all(self, bop, states, keys, collect_rows: bool):
        """Keyed COO stream of ``bop`` applied to every row of ``states``
        (keys ``keys``, the states' u per checksum prime).

        Returns (cols, keys, re, im, inst), one entry per (instance, state)
        pair in instance-major order; an output's key is its u, so
        u(state) * z**delta of its instance.  inst is each pair's table row
        when requested (``_image_rows`` turns the pairs into output
        occupancy rows), else an empty array."""
        t = bop.table
        parts = []
        for _, inst, cols, fac in self._pair_chunks(t, np.arange(len(t.re)), states):
            # output keys, one checksum prime at a time
            out = np.empty((len(_CHECK_PRIMES), len(cols)), dtype=np.uint32)
            for i, p in enumerate(_CHECK_PRIMES):
                x = keys[i, cols].astype(np.uint64)
                x *= bop.zd[i, inst]
                x %= p
                out[i] = x
            parts.append(
                (
                    cols,
                    out,
                    t.re[inst] * fac,
                    t.im[inst] * fac,
                    inst if collect_rows else np.zeros(0, dtype=np.int64),
                )
            )
        if not parts:
            return _empty_stream()
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))

    def _batch_sums(self, outers, inner):
        """(outers, primes, re/im) int64: for each of ``outers`` (in table
        row order), (re, im) mod p of u^T outer (inner v), summed over the
        output entries of the outer applied to the states the inner box
        matrix reaches, with w = u(state) b(state) from _inner_weights.
        One kernel pass takes the outers' rows of the engine table, cut to
        their widest row, and each instance chunk is reduced as it is
        built: u(out) = u(state) * z**delta, so an outer's sum is
        sum_inst c z**delta * sum_pairs fac * w; no stream is formed."""
        ids, ub_re, ub_im = self._inner_weights(inner)
        # int64 weights, so that each pair's product is formed in place
        ub_re = ub_re.astype(np.int64)
        ub_im = None if ub_im is None else ub_im.astype(np.int64)
        bops = [self._ops[name] for name in outers]
        t = _view(
            self._table, slice(None), *map(max, zip(*(_widths(b.table) for b in bops)))
        )
        stops = np.array([b.first + len(b.table.re) for b in bops])
        rows = np.concatenate([np.arange(b.first, e) for b, e in zip(bops, stops)])
        cz_re, cz_im = self._cz
        out = np.zeros((len(bops), len(_CHECK_PRIMES), 2), dtype=np.int64)
        for counts, inst, cols, fac in self._pair_chunks(t, rows, self.l1_rows[ids]):
            # one reduceat segment per instance with pairs (reduceat
            # returns an element, not zero, for an empty segment)
            ends = np.cumsum(counts)
            starts = (ends - counts)[counts > 0]
            first = inst[starts]
            del inst  # each pair's table row is not needed past here
            # w < 2**31, so a segment's sum of fac * w fits int64 without
            # reducing each pair when its length times max |fac| is below
            # 2**32
            wide = int(counts.max()) * int(np.abs(fac).max(initial=0)) >= 1 << 32
            sr = _segment_sums(fac, ub_re, cols, starts, wide)
            a, b = cz_re[:, first], cz_im[:, first]
            if ub_im is None:
                parts = (a * sr, b * sr)
            else:
                si = _segment_sums(fac, ub_im, cols, starts, wide)
                parts = (a * sr - b * si, a * si + b * sr)
            # an outer's instances are consecutive: one segment per outer
            own = np.searchsorted(stops, first, side="right")
            seg = np.flatnonzero(np.diff(own, prepend=-1))
            for k, x in enumerate(parts):
                x %= _CHECK_P
                out[own[seg], :, k] += np.add.reduceat(x, seg, axis=1).T
            out %= _CHECK_P
        return out

    # -- bracket checking ---------------------------------------------

    def _inner_weights(self, inner):
        """Cached (ids, ub_re, ub_im): the distinct level-1 rows hit by
        the inner box matrix B and, per checksum prime, u(k) * b_k mod p
        with b_k = sum_j B[k, j] v(j), as uint32 residues; ub_im is None
        when every b_k is real."""
        hit = self._inner_cache.get(inner)
        if hit is None:
            rows, cols, bre, bim = self._box_mats[inner]
            ids, pos = np.unique(rows, return_inverse=True)
            ub_re = np.empty((len(_CHECK_PRIMES), len(ids)), dtype=np.uint32)
            ub_im = np.empty_like(ub_re)
            for i, (p, r5, r6) in enumerate(_CHECK_CONSTS):
                v = _col_weights(p, r5, r6, cols)
                for out, x in ((ub_re, bre), (ub_im, bim)):
                    b = np.zeros(len(ids), dtype=np.int64)
                    np.add.at(b, pos, (x % p) * v % p)
                    out[i] = b % p * self.l1_u[i, ids] % p
            hit = (ids, ub_re, ub_im if ub_im.any() else None)
            self._inner_cache[inner] = hit
        return hit

    def _rhs_sums(self, name):
        """Cached per checksum prime (sum re*u*v, sum im*u*v) mod p of an
        operator's box matrix."""
        hit = self._rhs_cache.get(name)
        if hit is None:
            rows, cols, re, im = self._box_mats[name]
            hit = []
            for i, (p, r5, r6) in enumerate(_CHECK_CONSTS):
                w = self.l1_u[i, rows] * _col_weights(p, r5, r6, cols) % p
                hit.append(
                    (
                        int(np.sum((re % p) * w % p) % p),
                        int(np.sum((im % p) * w % p) % p),
                    )
                )
            self._rhs_cache[name] = hit
        return hit

    def plan(self, cases):
        """Take a report's cases, (name_a, name_b, both_odd, rhs_terms)
        each, ahead of their bracket_defect calls: their compositions are
        grouped by inner operator, and the first case whose checksum needs
        an inner runs one kernel pass for every outer the cases pair with
        it.  Drops the previous plan and its sums."""
        if not self._prepared:
            self.prepare()
        pairs = {}
        for a, b, both_odd, rhs_terms in cases:
            for outer, inner, _ in self._compositions(a, b, both_odd, rhs_terms)[0]:
                pairs.setdefault(inner, set()).add(outer)
        first = {name: bop.first for name, bop in self._ops.items()}
        self._planned = {
            inner: {o: i for i, o in enumerate(sorted(outers, key=first.get))}
            for inner, outers in pairs.items()
        }
        self._batches = {}

    def _composition_sums(self, outer, inner):
        """Per checksum prime, [re, im] of u^T (outer o inner) v mod p: from
        the plan's batch of ``inner``, run on first use, when the plan
        pairs ``outer`` with it; else from a one-outer batch."""
        planned = self._planned.get(inner, {})
        if outer not in planned:
            return self._batch_sums((outer,), inner)[0].tolist()
        sums = self._batches.get(inner)
        if sums is None:
            sums = self._batches[inner] = self._batch_sums(list(planned), inner)
        return sums[planned[outer]].tolist()

    def _defect_sums(self, comps, rhs_terms, L):
        """Per checksum prime, (re, im) of u^T D v mod p for the defect
        matrix D of a case scaled by L, with u(m) = prod_s z_s**occ_s(m)
        over a monomial's occupancy and v the box-column weights.  Each
        composition outer o inner is reduced inside the table kernel, as
        (u^T outer) applied to (inner v) over the distinct states the
        inner box matrix reaches (see _composition_sums)."""
        ops = self._ops
        tot = [[0, 0] for _ in _CHECK_PRIMES]
        for outer, inner, mult in comps:
            sums = self._composition_sums(outer, inner)
            for t, (s_re, s_im) in zip(tot, sums):
                t[0] += s_re * mult
                t[1] += s_im * mult
        for c, name in rhs_terms:
            s = L // ops[name].den
            cr, ci = int(c.re * s), int(c.im * s)
            if cr == 0 and ci == 0:
                continue
            for t, (sre, sim) in zip(tot, self._rhs_sums(name)):
                t[0] -= cr * sre - ci * sim
                t[1] -= cr * sim + ci * sre
        return [(re % p, im % p) for (re, im), p in zip(tot, _CHECK_PRIMES)]

    def _checksum_zero(self, comps, rhs_terms, L):
        """True when the modular checksum u^T D v of the defect (see
        _defect_sums) vanishes for every checksum prime."""
        return not any(re or im for re, im in self._defect_sums(comps, rhs_terms, L))

    def _compositions(self, name_a, name_b, both_odd, rhs_terms):
        """(comps, L) of a bracket case: the common denominator L of its
        scaled defect, and the bracket as (outer, inner, mult)
        compositions; [A, A] is AB - BA = 0 identically for the even-even
        and mixed cases, and 2 A o A for odd-odd."""
        ops = self._ops
        D = ops[name_a].den * ops[name_b].den
        L = D
        for c, name in rhs_terms:
            L = lcm(L, ops[name].den * lcm(c.re.denominator, c.im.denominator))
        lf = L // D
        if name_a != name_b:
            comps = [(name_a, name_b, lf), (name_b, name_a, lf if both_odd else -lf)]
        else:
            comps = [(name_a, name_a, 2 * lf)] if both_odd else []
        return comps, L

    def bracket_defect(self, name_a, name_b, both_odd, rhs_terms):
        """First box column where [A, B] != sum c_t T_t, or None.

        rhs_terms is a list of (QI coefficient, operator name); a central
        term z is the entry (z, IDENTITY).  The bracket is the
        supercommutator: AB + BA when both operators are odd, AB - BA
        otherwise.

        A vanishing defect is certified by the modular checksum pass; the
        exact comparison runs only when a checksum is nonzero, and then
        pins down the first failing column.  Both identify a monomial by
        its u, so a nonzero checksum implies a nonzero exact group; a
        nonzero checksum with none raises StructureError."""
        if not self._prepared:
            self.prepare()
        comps, L = self._compositions(name_a, name_b, both_odd, rhs_terms)
        if self._checksum_zero(comps, rhs_terms, L):
            return None
        col = self._first_failing_column(comps, rhs_terms, L)
        if col is None:
            raise StructureError(
                f"[{name_a}, {name_b}]: nonzero checksum but every exact "
                "(column, monomial) group of the defect is zero"
            )
        return col

    def _first_failing_column(self, comps, rhs_terms, L):
        """The exact comparison: the smallest box column with a nonzero
        (column, key) group of the defect scaled by L, or None.  It applies
        each composition's outer operator to the state of every inner
        box-matrix entry, one output entry per (inner entry, outer
        instance that feeds its state), and sums the composition per
        (column, key) before the next one is built."""
        ops = self._ops
        streams = []

        def push(cols, keys, re, im, mult):
            if len(cols) == 0:
                return
            _bound(_absmax(re, im) * abs(mult) < 1 << 62, "scaled composition stream")
            streams.append((cols, keys, re * mult, im * mult))

        for outer, inner, mult in comps:
            rows, cols, bre, bim = self._box_mats[inner]
            # output entry e is outer applied to the state of inner entry
            # at[e] (one state per entry, repeats included), so it lands on
            # that entry's box column
            at, keys, are, aim, _ = self._apply_all(
                ops[outer],
                self.l1_rows[rows],
                np.take(self.l1_u, rows, axis=1),
                collect_rows=False,
            )
            m = 2 * _absmax(are, aim) * _absmax(bre, bim)
            _bound(m < 1 << 62, "product entry")
            br, bi = bre[at], bim[at]
            re = are * br - aim * bi
            im = are * bi + aim * br
            del are, aim, br, bi
            push(*_group_keyed(cols[at], keys, re, im)[:4], mult)
        for c, name in rhs_terms:
            rows, cols, re, im = self._box_mats[name]
            s = L // ops[name].den
            cr, ci = int(c.re * s), int(c.im * s)
            m = 2 * _absmax(re, im) * max(abs(cr), abs(ci))
            _bound(m < 1 << 62, f"scaled {name} stream")
            push(
                cols,
                np.take(self.l1_u, rows, axis=1),
                -(re * cr - im * ci),
                -(re * ci + im * cr),
                1,
            )
        if not streams:
            return None
        # the per-composition streams go before the final grouping sort
        merged = [np.concatenate(s, axis=-1) for s in zip(*streams)]
        streams.clear()
        cols, *_ = _group_keyed(*merged)
        return int(cols.min()) if len(cols) else None


def _segment_sums(fac, w, cols, starts, wide):
    """Per checksum prime and segment of the pairs that begin at
    ``starts``, the sum of fac * w[:, cols] mod p, with the state weights
    w as int64 of shape (primes, states); w is below 2**31 and |fac| below
    2**32 (see BulkEngine._pair_chunks), so each product fits int64.  Each
    product is reduced before the sum when ``wide``: when a segment's
    unreduced sum could pass 2**63."""
    x = w[:, cols]
    x *= fac
    if wide:
        x %= _CHECK_P
    return np.add.reduceat(x, starts, axis=1) % _CHECK_P


def _pool_words(keys):
    """Two uint64 words that hold the three residues of ``keys`` exactly:
    u0 | u1 << 31 and u2."""
    ka = keys[1].astype(np.uint64) << 31
    ka |= keys[0]
    return ka, keys[2].astype(np.uint64)


def _group_keyed(cols, keys, re, im):
    """Sum duplicate (col, key) entries and drop exact zeros.  A cell is
    held exactly in two uint64 words, u0 | col << 31 and u1 | u2 << 31;
    the column goes in the first word, which _group_order sorts first.
    Returns the grouped arrays plus, per kept group, the index of a
    representative entry in the original (pre-sort) order."""
    if len(cols) == 0:
        return cols, keys, re, im, np.zeros(0, dtype=np.int64)
    ka = cols.astype(np.uint64) << 31
    ka |= keys[0]
    kb = keys[2].astype(np.uint64) << 31
    kb |= keys[1]
    order, new = _group_order(ka, kb)
    del ka, kb
    re, im = re[order], im[order]
    starts = np.flatnonzero(new)
    gmax = int(np.diff(np.append(starts, len(re))).max(initial=1))
    _bound(_absmax(re, im) * gmax < 1 << 62, "grouped entry sum")
    sre = np.add.reduceat(re, starts)
    sim = np.add.reduceat(im, starts)
    keep = (sre != 0) | (sim != 0)
    first = order[starts[keep]]
    return cols[first], np.take(keys, first, axis=1), sre[keep], sim[keep], first
