"""Vectorized exact bracket checking over whole truncation boxes.

The per-monomial operator engine is exact but spends almost all of its
time in rational arithmetic.  This module compiles each quadratic field
operator into a finite list of explicit generator-product *instances*
(the summation variables of every term are enumerated over the finite
range that can act nontrivially inside the box universe), scales every
instance coefficient to a common integer denominator per operator, and
packs the instances of all of an engine's operators into one *packed
instance table*.  The compile is one numpy pass per engine.  Every
operator tree is first flattened into weighted term shapes: its central
scalar is the term with no slot and no variable, a single generator a
one-slot term with no variable.  The grid points of all term shapes with
equal slot and variable counts are built at once, and a point's instance
depends on it only through a signature (the term's slot families and
normal ordering, each slot's creator flag, and the equality and order
pattern of the slots' universe indices, which have a closed form).  The
instance compiler runs once per distinct signature, on a representative
point, and its result, with slots written as positions in the term,
fills the rows of every point with that signature; only the opaque
coefficient is called per point.  The table is numpy arrays with one row
per instance holding
- the slots it reads, each with the lowest and highest occupancy the
  input state must have there (an annihilator needs a partner, a
  fermionic creator an empty slot);
- its bosonic count factors, as (slot, offset from earlier steps);
- the fermionic slots whose prefix parity gives its Koszul sign;
- its net occupancy change per slot;
- its scaled integer coefficient.
An operator's central scalar is the empty generator product: an instance
with no constraint, count factor or parity slot that changes nothing, so
it acts as the scalar times the identity.  An operator is the range of
its rows in the engine table, which every kernel pass reads at its full
width.
A set of table rows is applied to a block of states in one vectorized
pass: instances are dropped against the block's per-slot
occupancy range, an instance x state mask is built one constraint
column at a time, and the count factors and signs of all (instance,
state) pairs are taken at once: each read is one 1-D take at the pairs'
flat mask index from the block rows that the instances read, and a
column that is padding on every instance of a chunk is skipped.  A chunk
names each of its instances' table rows once, with its pair count; a
caller that needs a row per pair repeats them.
A level-1 state (a box monomial or a one-step image) is kept only as its
provenance, the box column it came from and the table row that produced
it: a block of level-1 states is built slot-major straight from the
engine's box block, by gathering the source columns and adding each row's
occupancy change.
A table and block whose mask would exceed a fixed cell budget are taken
in consecutive instance chunks, so memory follows the output, not the
product of table and block sizes.
Every operator is applied to the box in one kernel pass per engine, over
the engine table rows of all operators but the identity: its pairs come
out instance-major in table row order, so an operator's box matrix is one
run of the pass's stream.  A box matrix is that run as it stands, int32
rows (level-1 ids), columns and entries, and may repeat a (row, column)
entry: the checksum is linear, and the exact comparison sums an inner
operator's repeated entries before it applies the outer.
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
row.  The level-1 domain (the box and the output of every (instance, box
state) pair) and the exact comparison group monomials by u, exactly, and
the checksum weights them by it.  Two distinct monomials of total occupancy
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
axis; b is reduced mod p once per row, not once per entry, whenever the
row's unreduced sum fits int64, and a right-hand side's sum is the sum of
its u(k) b_k.  A report hands its cases to the engine first (``plan``), which
groups their compositions by inner operator: the first case that needs
an inner runs one kernel pass over the rows of every outer the report
pairs with it, reduced per outer, and later cases read those sums.  A
composition outside the plan is a one-outer pass of the same kernel.
The pass path forms no output keys and no output stream.

The checksum weights only the box columns with at most q quanta (total
occupancy), q the plan's bound on the degree of its cases' defects as
polynomials in the generators (``op_degree``, ``defect_degree``); an
inner's weights and a right-hand side's sums keep only the box-matrix
entries of those columns, so a batch reaches fewer states.  This
certifies the whole box.  A box is closed under removing quanta (E, the
mode-0 boson count and the zero-fermion rule can only fall), and the
associated graded of the Weyl-Clifford algebra is supercommutative, so
[A, B] - sum c_t T_t has degree at most q = max(deg A + deg B - 2,
max_t deg T_t) when A and B each have one parity and the case brackets
them with their own sign; any other case weights the whole box.  Write such a defect normal ordered, sum_S C_S S with C_S
a polynomial in the creators and S a product of annihilators.  If it is
nonzero on the box, take an S with C_S != 0 that is minimal among those
whose partners form a box state t: it maps t to a nonzero integer times
C_S |0>, and t has |S| <= q quanta.  The domain, the exact comparison and
the first failing column stay whole-box.

A nonzero checksum runs the exact comparison, which builds each
composition outer o inner with the same table kernel: the outer table is
applied to the state of every entry of the inner box matrix, and each
output entry, times its inner entry, lands on that entry's box column.
The inner box matrix's repeated (row, column) entries are summed first,
each composition is summed per (column, u), then grouped once more with
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

from . import stats
from .scalars import ONE, QI, ZERO
from .fock import (
    _CREATOR_POSITIVE,
    Box,
    GenKey,
    enumerate_box,
    normal_order_slots,
)
from .fieldops import SumOperator, TermShape
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


def _inverses(zs, p: int) -> list:
    """The inverses mod p of the nonzero residues ``zs``, by batch
    inversion: one modular inverse of their product, then each inverse
    from the prefix products."""
    # pre[s] is the product of zs[:s], and inv the inverse of pre[s + 1]
    pre = list(itertools.accumulate(zs, lambda a, b: a * b % p, initial=1))
    inv = pow(pre[-1], -1, p)
    out = [0] * len(zs)
    for s in reversed(range(len(zs))):
        out[s] = inv * pre[s] % p
        inv = inv * zs[s] % p
    return out


def _power_table(nslots: int, k: int) -> np.ndarray:
    """(prime, slot, k + e) -> z_s**e mod p for |e| <= k, with one seeded
    weight z_s in [2, p) per slot and prime; the z_s**-1 of a prime come
    from one modular inverse."""
    rng = np.random.Generator(np.random.PCG64(_SLOT_SEED))
    tab = np.ones((len(_CHECK_PRIMES), nslots, 2 * k + 1), dtype=np.int64)
    for i, p in enumerate(_CHECK_PRIMES):
        z = rng.integers(2, p, size=nslots, dtype=np.int64)
        zi = np.array(_inverses(z.tolist(), p), dtype=np.int64)
        for e in range(1, k + 1):
            tab[i, :, k + e] = tab[i, :, k + e - 1] * z % p
            tab[i, :, k - e] = tab[i, :, k - e + 1] * zi % p
    return tab


def _sorted_groups(order, ska, skb):
    """(order, new, ska, skb): the two-word grouping of the words (ka, kb),
    given a sort ``order`` on ka and the words in that order, ska and skb;
    new is the group-start mask.  Entries within a group come in no
    particular order.

    Fast path: equal-ka runs almost surely agree on kb as well.  If any
    adjacent pair has equal ka but different kb (distinct cells that share
    their first word, or an unluckily split run), the sorted words are
    sorted once more on both words -- the result is exact either way."""
    if len(order) == 0:
        return order, np.zeros(0, dtype=bool), ska, skb
    mixed = (ska[1:] == ska[:-1]) & (skb[1:] != skb[:-1])
    if mixed.any():
        perm = np.lexsort((skb, ska))
        order, ska, skb = order[perm], ska[perm], skb[perm]
    del mixed
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    new[1:] = (ska[1:] != ska[:-1]) | (skb[1:] != skb[:-1])
    return order, new, ska, skb


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
        """Occupancy rows of ``monos``, one per monomial, counted with one
        bincount over the flat (monomial, slot) index of every key; raises
        OverflowError when an occupancy passes what a row holds."""
        with stats.span("bulkrep.Universe.rows_of"):
            parts = list(itertools.chain.from_iterable(monos))
            keys = list(itertools.chain.from_iterable(parts))
            slots = np.fromiter(
                map(self.index.get, keys, itertools.repeat(-1)), np.int64, len(keys)
            )
            if len(slots) and slots.min() < 0:
                bad = keys[int(np.argmin(slots))]
                raise StructureError(f"generator {bad} outside the slot universe")
            # keys per monomial: its boson and its fermion part
            sizes = np.fromiter(map(len, parts), np.int64, len(parts))
            sizes = sizes.reshape(-1, 2).sum(axis=1)
            n = len(sizes) * self.nslots
            slots += np.repeat(np.arange(0, n, self.nslots), sizes)
            rows = np.bincount(slots, minlength=n).reshape(len(sizes), self.nslots)
            top = int(rows.max(initial=0))
            _bound(top <= _FULL, "slot occupancy of an occupancy row")
            return rows.astype(np.uint8)


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
    """Packed instances of an engine's operators, one row each.  Short rows
    are padded with entries that change nothing: a constraint on the
    block's row of ones that always holds, a count factor of one read
    there, a parity read at the first fermionic slot (always even) and a
    zero change at slot 0."""

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


def _unit(vs) -> QI:
    """Coefficient of a term whose weight is its whole coefficient."""
    return ONE


# an operator's central scalar: the term with no slot and no variable
_CENTRAL = TermShape(0, (), _unit, False)


def _op_terms(op):
    """The (weight, TermShape) pairs of an operator tree: its total central
    scalar, when nonzero, as the _CENTRAL term, then the terms of its
    leaves in order.  Zero weights are kept."""
    central = ZERO
    terms = []
    todo = [(ONE, op)]
    while todo:
        weight, node = todo.pop()
        central = central + weight * getattr(node, "central", ZERO)
        if hasattr(node, "terms"):
            terms += [(weight, term) for term in node.terms]
        elif hasattr(node, "parts"):
            todo += [(weight * c, part) for c, part in reversed(node.parts)]
        else:
            raise StructureError(
                f"operator {node.name or type(node).__name__} cannot be bulk-compiled"
            )
    return ([] if central.is_zero() else [(central, _CENTRAL)]) + terms


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
    ``ops``, (name, op) each, and per operator (first, count, den): its
    first table row, its row count and the common denominator that scales
    its coefficients to integers.  Rows run in operator order; within an
    operator, its _op_terms in order, each term's grid points in
    itertools.product order."""
    owner = []  # operator index of each segment, one term each
    groups = {}  # (slots, vars) -> [(segment, term, weight)]
    for i, (_, op) in enumerate(ops):
        for weight, term in _op_terms(op):
            group = groups.setdefault((len(term.slots), term.nvars), [])
            group.append((len(owner), term, weight))
            owner.append(i)
    comp = _Compiler(universe, relative, max([1] + [ns for ns, _ in groups]))
    parts = [comp.term_points(terms) for terms in groups.values()]
    seg = np.concatenate([p[0] for p in parts])
    tmpl = np.concatenate([p[1] for p in parts])
    slots = np.zeros((len(seg), comp.width), dtype=np.int64)
    at = 0
    for _, _, s, _ in parts:
        slots[at : at + len(s), : s.shape[1]] = s
        at += len(s)
    coeffs = [c for p in parts for c in p[3]]
    del parts
    # segment order, each segment's rows in grid order
    order = np.argsort(seg, kind="stable")
    seg, tmpl, slots = seg[order], tmpl[order], slots[order]
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
    # a zero coefficient drops its row
    keep = (re != 0) | (im != 0)
    tmpl, slots, re, im = tmpl[keep], slots[keep], re[keep], im[keep]
    counts = np.bincount(row_op[keep], minlength=len(ops))
    kc, kb, kf, kd = widths = tlens[tmpl].max(axis=0, initial=0).tolist()
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
    starts = np.cumsum(counts) - counts
    return table, list(zip(starts.tolist(), counts.tolist(), dens))


class _BulkOp:
    __slots__ = ("name", "op", "first", "stop", "den", "smax", "degree", "parity")

    def __init__(self, name, op):
        self.name = name
        self.op = op
        # the operator's rows of the engine table, first:stop
        self.first = 0
        self.stop = 0
        self.den = 1
        self.smax = _op_energy_span(op)
        self.degree = op_degree(op)
        self.parity = op_parity(op)


def _op_energy_span(op) -> int:
    """Largest |energy shift| among the terms of an operator tree."""
    span = 0
    for _, term in _op_terms(op):
        de = sum(
            (1 if s.family in _CREATOR_POSITIVE else -1) * s.const for s in term.slots
        )
        span = max(span, abs(de))
    return span


def op_degree(op) -> int:
    """Degree of an operator tree as a polynomial in the generators: the
    largest slot count of its terms, 0 for a central scalar alone."""
    return max((len(term.slots) for _, term in _op_terms(op)), default=0)


def op_parity(op):
    """The parity of an operator tree, its terms' count of fermionic
    slots mod 2, when all its terms share one (0 for no terms), else
    None.  Zero-weight terms count."""
    parities = {
        sum(s.family in ("t", "e") for s in term.slots) % 2 for _, term in _op_terms(op)
    }
    if len(parities) > 1:
        return None
    return parities.pop() if parities else 0


def _empty_stream():
    """Empty stream arrays (cols, keys, re, im)."""
    e = np.empty(0, dtype=np.int64)
    return e, np.empty((len(_CHECK_PRIMES), 0), dtype=np.uint32), e, e


def _out_keys(zd, keys, cols, inst):
    """Per checksum prime, the u of each (instance, state) pair's output,
    u(state) * z**delta mod p, from the states' u ``keys`` and the table
    rows' z**delta ``zd``."""
    out = np.empty((len(_CHECK_PRIMES), len(cols)), dtype=np.uint32)
    for i, p in enumerate(_CHECK_PRIMES):
        x = keys[i].take(cols).astype(np.uint64)
        x *= zd[i].take(inst)
        x %= p
        out[i] = x
    return out


def _joined(chunks, head=None):
    """``head`` (if given) followed by the arrays ``chunks``, in one array;
    empties ``chunks``, so that its arrays go once the result exists."""
    if head is not None:
        chunks.insert(0, head)
    out = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int32)
    chunks.clear()
    return out


class BulkEngine:
    """Compiles a batch of operators over one box and checks bracket
    identities column-by-column, exactly, with vectorized integer
    arithmetic.  Returns the index of the first failing box column so the
    caller can replay it through the one-monomial engine for a witness."""

    def __init__(self, dim: int, box: Box, relative: bool = False):
        self.dim = dim
        self.box = box
        self.relative = relative
        self.box_monos = enumerate_box(dim, box)
        self._ops: dict[str, _BulkOp] = {}
        self._full_names: set[str] = set()
        self._prepared = False
        self._box_mats: dict[str, tuple] = {}
        # checksum weights and sums, keyed by (operator name, quanta)
        self._inner_cache: dict[tuple, tuple] = {}
        self._rhs_cache: dict[tuple, list] = {}
        # the current plan: its quanta (None for the whole box), per inner
        # operator its outers (in table row order) with their positions,
        # and the checksum sums of the inner's batches run so far
        self._quanta = None
        self._planned: dict[str, dict] = {}
        self._batches: dict[str, np.ndarray] = {}
        self.register(IDENTITY, SumOperator((), central=ONE), need_full=False)

    # -- registration and compilation ---------------------------------

    def register(self, name: str, op, need_full: bool = True):
        if self._prepared:
            raise StructureError("cannot register after prepare()")
        if name not in self._ops:
            self._ops[name] = _BulkOp(name, op)
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
        with stats.span("bulkrep.BulkEngine._compile"):
            self._compile()
        with stats.span("bulkrep.BulkEngine._build_domain"):
            self._build_domain()
        self._prepared = True
        t, mats = self._table, self._box_mats.values()
        for name, n in (
            ("n1", self.n1),
            ("level1_bytes", self.l1_src.nbytes + self.l1_inst.nbytes),
            ("level1_row_bytes", self.n1 * self.universe.nslots),
            ("box_matrix_entries", sum(len(m[1]) for m in mats)),
            ("box_matrix_bytes", sum(x.nbytes for m in mats for x in m)),
            ("table_rows", len(t.re)),
            ("table_cells.constraint", t.cslot.size),
            ("table_cells.count_factor", t.bslot.size),
            ("table_cells.parity", t.fslot.size),
            ("table_cells.change", t.dslot.size),
        ):
            stats.count("bulkrep." + name, n)

    def _compile(self):
        """Compile every registered operator into the engine table; each
        operator is the range first:stop of its rows."""
        bops = list(self._ops.values())
        self._table, compiled = _compile_table(
            self.universe, [(b.name, b.op) for b in bops], self.relative
        )
        for bop, (first, count, den) in zip(bops, compiled):
            bop.first, bop.stop, bop.den = first, first + count, den

    def _build_domain(self):
        """Phase A: apply every operator to the box; the level-1 domain is
        the set of box and one-step-image monomials.  One kernel pass takes
        the engine table rows of every operator but IDENTITY on the
        slot-major box block and its fermionic prefix counts.  Its pairs
        come out instance-major in table row order, so each operator's
        pairs are one run of the stream, and that run is its box matrix,
        duplicate (row, column) entries included: the checksum is linear,
        and the exact comparison groups what it builds.  The box keys and
        the output keys of every pair are grouped together once: group
        ranks are the level-1 ids of the box monomials and of every box
        matrix row.  Each group keeps its representative's provenance, the
        box column it came from and the engine table row that produced it
        (a box monomial has IDENTITY's row, which changes nothing), and its
        key is the state's u.  IDENTITY's box matrix is the box itself and
        is written down directly.  The stream and the box matrices hold
        int32 rows, columns and entries, and the provenance int32 columns
        and table rows, each bounded by a raise; a pair's table row is not
        kept, only the table rows with pairs and their pair counts, which
        give the operator runs and the representatives' table rows."""
        u = self.universe
        t = self._table
        nbox = len(self.box_monos)
        one = self._ops[IDENTITY]
        # the int32 provenance of a level-1 state
        top32 = np.iinfo(np.int32).max
        _bound(nbox <= top32, "box column of a level-1 state")
        _bound(len(t.re) <= top32, "table row of a level-1 state")
        # no image empties a slot, so every level-1 block rebuilt from
        # provenance holds true occupancies: a table row lowers a slot only
        # where one of its constraints asks for at least as many quanta
        for j in range(t.dslot.shape[1]):
            low = np.flatnonzero(t.dval[:, j] < 0)
            need = -t.dval[low, j].astype(np.int16)
            held = (t.cslot[low] == t.dslot[low, j, None]) & (
                t.clo[low] >= need[:, None]
            )
            bad = low[~held.any(axis=1)]
            if len(bad):
                name = next(
                    b.name for b in self._ops.values() if b.first <= bad[0] < b.stop
                )
                raise StructureError(f"{name} emptied an unoccupied slot")
        states = u.rows_of(self.box_monos)
        # the quanta (total occupancy) of every box column
        self._box_quanta = states.sum(axis=1, dtype=np.int32)
        # slot-major box block plus the row of ones that padded table
        # entries read
        block = np.ones((u.nslots + 1, nbox), dtype=np.uint8)
        block[:-1] = states.T
        self._box_block = block
        top = int(states.max(initial=0))
        # the uint8 occupancies of the one-step images
        _bound(
            top + max(int(t.dval.max(initial=0)), 0) <= _FULL,
            "slot occupancy of a one-step image",
        )
        # per checksum prime, the weight v of every box column
        self._colw = np.array(
            [_col_weights(p, r5, r6, np.arange(nbox)) for p, r5, r6 in _CHECK_CONSTS],
            dtype=np.uint32,
        )
        k = max(top, int(np.abs(t.dval).max(initial=0)))
        self._ztab = _power_table(u.nslots, k)
        box_u = self._occupancy_u(states).astype(np.uint32)
        del states
        # per checksum prime and engine table row, z**delta mod p and the
        # (re, im) of c * z**delta mod p
        zd = self._zpow(t.dslot, t.dval)
        self._zd = zd.astype(np.uint32)
        self._cz = tuple(
            ((x % _CHECK_P) * zd % _CHECK_P).astype(np.uint32) for x in (t.re, t.im)
        )
        del zd
        rows = np.delete(np.arange(len(t.re)), np.s_[one.first : one.stop])
        # the stream, one list of chunks per field: box column, entry (re,
        # im), and the two pool words of the output key; a pair's table row
        # is kept only per instance, as the table rows with pairs and their
        # pair counts
        col_parts, re_parts, im_parts, ka_parts, kb_parts = ([] for _ in range(5))
        hit_parts, count_parts = [], []
        for counts, sel, cols, fac in self._pair_chunks(t, rows, block):
            inst = np.repeat(sel, counts)
            re = t.re[inst] * fac
            im = t.im[inst] * fac
            del fac
            _bound(_absmax(re, im) < 1 << 30, "image entry")
            ka, kb = _pool_words(_out_keys(self._zd, box_u, cols, inst))
            ka_parts.append(ka)
            kb_parts.append(kb)
            has = counts > 0
            hit_parts.append(sel[has].astype(np.int32))
            count_parts.append(counts[has])
            del inst
            for part, x in ((col_parts, cols), (re_parts, re), (im_parts, im)):
                part.append(x.astype(np.int32))
        box_ka, box_kb = _pool_words(box_u)
        del box_u
        # one field at a time, so that a field's chunks and its
        # concatenation are the only copies alive together
        pka = _joined(ka_parts, box_ka)
        pkb = _joined(kb_parts, box_kb)
        del box_ka, box_kb
        # the sorted words replace the pool's, so that one copy of each
        # outlives the sort
        order = np.argsort(pka)
        pka = pka[order]
        pkb = pkb[order]
        order, new, pka, pkb = _sorted_groups(order, pka, pkb)
        self.n1 = int(np.count_nonzero(new))
        _bound(self.n1 <= top32, "level-1 id of a box-matrix row")
        # per checksum prime, u of every level-1 state
        self.l1_u = np.empty((len(_CHECK_PRIMES), self.n1), dtype=np.uint32)
        ka = pka[new]
        self.l1_u[0] = ka & 0x7FFFFFFF
        self.l1_u[1] = ka >> 31
        self.l1_u[2] = pkb[new]
        del pka, pkb, ka
        ids = np.empty(len(order), dtype=np.int32)
        ids[order] = np.cumsum(new, dtype=np.int32) - 1
        # the representative of level-1 state i is its first pooled entry
        # reps[i], so a box state is its own
        reps = np.minimum.reduceat(order, np.flatnonzero(new))
        del order, new
        self.box_ids = ids[:nbox]
        cols = _joined(col_parts)
        # the table rows with pairs, ascending, and the stream offset where
        # each one's run of pairs starts, then the stream's length
        hit = _joined(hit_parts)
        offs = np.zeros(len(hit) + 1, dtype=np.int64)
        np.cumsum(_joined(count_parts), out=offs[1:])
        # per level-1 state, its source box column and engine table row
        self.l1_src = np.empty(self.n1, dtype=np.int32)
        self.l1_inst = np.empty(self.n1, dtype=np.int32)
        isbox = reps < nbox
        self.l1_src[isbox] = reps[isbox]
        self.l1_inst[isbox] = one.first
        img = reps[~isbox] - nbox
        self.l1_src[~isbox] = cols[img]
        self.l1_inst[~isbox] = hit[np.searchsorted(offs, img, side="right") - 1]
        del reps, isbox, img
        re, im = _joined(re_parts), _joined(im_parts)
        ones = np.ones(nbox, dtype=np.int32)
        self._box_mats[IDENTITY] = (
            self.box_ids,
            np.arange(nbox, dtype=np.int32),
            ones,
            0 * ones,
        )
        for b in self._ops.values():
            if b is one:
                continue
            # an operator's pairs are the run of its table rows
            lo, hi = offs[np.searchsorted(hit, (b.first, b.stop))]
            self._box_mats[b.name] = (
                ids[nbox + lo : nbox + hi],
                cols[lo:hi],
                re[lo:hi],
                im[lo:hi],
            )

    def _prefix(self, block):
        """Exclusive prefix counts over the fermionic slots of a slot-major
        block (mod 256, which keeps their parity); row 0 is the empty
        prefix."""
        f0, nslots = self.universe.f0, self.universe.nslots
        pre = np.zeros((nslots - f0, block.shape[1]), dtype=np.uint8)
        np.cumsum(block[f0 : nslots - 1], axis=0, dtype=np.uint8, out=pre[1:])
        return pre

    def _level1_block(self, ids):
        """Slot-major block of the level-1 states ``ids``, plus the row of
        ones, built from their provenance: the box block's columns at
        their source box columns, plus the occupancy change of the engine
        table row that produced each."""
        t = self._table
        inst = self.l1_inst[ids]
        # np.take keeps the block C-contiguous, so that a slot is one run
        # of memory for the kernel's row reads
        block = np.take(self._box_block, self.l1_src[ids], axis=1)
        dval = np.take(t.dval, inst, axis=0)
        # (state, column) of each nonzero change: a table row changes a
        # slot at most once, so no block cell is written twice.  An int8
        # change added as uint8 is exact modulo 256, and the domain build
        # checked that every result lies in [0, _FULL].
        s, j = np.nonzero(dval)
        at = t.dslot[inst[s], j].astype(np.intp) * len(inst) + s
        block.reshape(-1)[at] += dval[s, j].view(np.uint8)
        return block

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

    def _occupancy_u(self, rows):
        """Per checksum prime, u of each occupancy row of ``rows`` (one row
        per state, at most the power table's occupancy in a slot), from its
        nonzero occupancies: the j-th factor of every state that has one is
        multiplied in by one pass, so the passes are as many as the most
        occupied slots of one state; shape (primes, states)."""
        k = self._ztab.shape[2] // 2
        state, slot = np.nonzero(rows)
        # z_slot ** occupancy of every nonzero occupancy, state-major
        factor = self._ztab[:, slot, rows[state, slot].astype(np.intp) + k]
        count = np.bincount(state, minlength=len(rows))
        start = np.cumsum(count) - count
        out = np.ones((len(_CHECK_PRIMES), len(rows)), dtype=np.int64)
        for j in range(int(count.max(initial=0))):
            has = np.flatnonzero(count > j)
            out[:, has] = out[:, has] * factor[:, start[has] + j] % _CHECK_P
        return out

    def _pair_chunks(self, t, rows, block):
        """The (instance, state) pairs of the rows ``rows`` of the packed
        instance table ``t`` on the states of the slot-major ``block`` (one
        column per state, one row per slot, then the row of ones that
        padded table entries read), one chunk of instances at a time, in
        the order of ``rows``, instance-major.  Yields (counts, sel, cols,
        fac): the table rows of the chunk's instances and the number of
        pairs of each, then each pair's state and its count factor times
        its Koszul sign; the pairs of instance sel[i] are the next
        counts[i] entries of cols and fac."""
        n = block.shape[1]
        if n == 0 or len(rows) == 0:
            return
        # drop instances that no state of the block can feed
        cslot, clo = t.cslot[rows], t.clo[rows]
        bmax = block.max(axis=1)
        live = (bmax[cslot] >= clo) & (block.min(axis=1)[cslot] <= clo + t.cspan[rows])
        rows = rows[live.all(axis=1)]
        del cslot, clo, live
        if len(rows) == 0:
            return
        # a count factor times a coefficient or a checksum weight, each
        # below 2**31, must fit int64: a pair's count factor is a product
        # of at most ``nfac`` factors (the real ones of a row, not its
        # padding on the row of ones), each at most ``top``
        top = int(bmax.max()) + max(int(t.boff[rows].max(initial=0)), 0)
        ones = block.shape[0] - 1
        nfac = int(np.count_nonzero(t.bslot[rows] != ones, axis=1).max())
        _bound(top**nfac < 1 << 32, "count factor x weight")
        # the block's fermionic prefix counts, when a row reads parity (a
        # parity slot 0 reads the empty prefix)
        pre = self._prefix(block) if t.fslot[rows].any() else None
        # consecutive instance chunks keep the instance-major order
        step = max(1, _MASK_CELLS // n)
        for i in range(0, len(rows), step):
            yield self._apply_chunk(t, block, pre, rows[i : i + step])

    def _apply_chunk(self, t, block, pre, sel):
        """The pairs of the instances ``sel`` of table ``t`` on the block;
        see _pair_chunks.  ``block`` is the slot-major block, ``pre`` its
        exclusive fermionic prefix counts (None if no instance reads
        parity).  A column that is padding on every instance of the
        chunk is skipped, which is exact: a constraint of span _FULL holds
        on every uint8 occupancy, a padded count factor is the row of ones
        with offset 0, and parity slot 0 reads the empty prefix, 0."""
        n = block.shape[1]
        # instance x state mask, one constraint column at a time;
        # occupancy - lo wraps around below lo, so one comparison with
        # the span checks both ends
        mask = np.ones((len(sel), n), dtype=bool)
        for j in range(t.cslot.shape[1]):
            span = t.cspan[sel, j]
            if (span == _FULL).all():
                continue
            occ = block[t.cslot[sel, j]]
            occ -= t.clo[sel, j][:, None]
            mask &= occ <= span[:, None]
            del occ
        # (instance, state) pairs in instance-major order, as the flat
        # index at = i * n + state of the mask cell of the chunk's i-th
        # instance; every read of a pair is one 1-D take at ``at`` from the
        # rows the chunk's instances read, gathered per instance, and
        # per-instance values are spread over the pairs with np.repeat
        counts = np.count_nonzero(mask, axis=1)
        at = np.flatnonzero(mask)
        del mask
        ones = block.shape[0] - 1
        fac = np.ones(len(at), dtype=np.int64)
        for j in range(t.bslot.shape[1]):
            slot, off = t.bslot[sel, j], t.boff[sel, j]
            if ((slot == ones) & (off == 0)).all():
                continue
            occ = block[slot].reshape(-1).take(at)
            if off.any():
                occ = occ + np.repeat(off, counts)
            fac *= occ
        if pre is not None:
            par = None
            for j in range(t.fslot.shape[1]):
                slot = t.fslot[sel, j]
                if not slot.any():
                    continue
                bits = pre[slot].reshape(-1).take(at)
                if par is None:
                    par = bits
                else:
                    par ^= bits
            if par is not None:
                np.negative(fac, out=fac, where=(par & 1).view(bool))
        # the flat index becomes the state index in place
        cols = at
        cols -= np.repeat(np.arange(0, len(sel) * n, n), counts)
        return counts, sel, cols, fac

    def _apply_all(self, bop, block, keys):
        """Keyed COO stream of ``bop`` applied to every state of the
        slot-major ``block`` (keys ``keys``, the states' u per checksum
        prime).

        Returns (cols, keys, re, im), one entry per (instance, state) pair
        in instance-major order; an output's key is its u, so
        u(state) * z**delta of its instance."""
        t = self._table
        parts = []
        rows = np.arange(bop.first, bop.stop)
        for counts, sel, cols, fac in self._pair_chunks(t, rows, block):
            inst = np.repeat(sel, counts)
            parts.append(
                (
                    cols,
                    _out_keys(self._zd, keys, cols, inst),
                    t.re[inst] * fac,
                    t.im[inst] * fac,
                )
            )
        if not parts:
            return _empty_stream()
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))

    def _batch_sums(self, outers, inner, quanta=None):
        """(outers, primes, re/im) int64: for each of ``outers`` (in table
        row order), (re, im) mod p of u^T outer (inner v), summed over the
        output entries of the outer applied to the states the inner box
        matrix reaches from the box columns with at most ``quanta`` quanta
        (all of them when None), with w = u(state) b(state) from
        _inner_weights.
        One kernel pass takes the outers' rows of the engine table, and
        each instance chunk is reduced as it is built: u(out) = u(state) *
        z**delta, so an outer's sum is sum_inst c z**delta * sum_pairs
        fac * w; no stream is formed."""
        with stats.span("bulkrep.BulkEngine._batch_sums"):
            ids, ub_re, ub_im = self._inner_weights(inner, quanta)
            # int64 weights, so that each pair's product is formed in place
            ub_re = ub_re.astype(np.int64)
            ub_im = None if ub_im is None else ub_im.astype(np.int64)
            bops = [self._ops[name] for name in outers]
            stops = np.array([b.stop for b in bops])
            rows = np.concatenate([np.arange(b.first, b.stop) for b in bops])
            cz_re, cz_im = self._cz
            out = np.zeros((len(bops), len(_CHECK_PRIMES), 2), dtype=np.int64)
            pairs = 0
            for counts, sel, cols, fac in self._pair_chunks(
                self._table, rows, self._level1_block(ids)
            ):
                pairs += len(cols)
                # one reduceat segment per instance with pairs (reduceat
                # returns an element, not zero, for an empty segment)
                has = counts > 0
                starts = (np.cumsum(counts) - counts)[has]
                first = sel[has]
                # w < 2**31, so a segment's sum of fac * w fits int64
                # without reducing each pair when its length times max |fac|
                # is below 2**32
                top = int(np.abs(fac).max(initial=0))
                wide = int(counts.max()) * top >= 1 << 32
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
            stats.count("bulkrep.checksum_pairs", pairs)
            return out

    # -- bracket checking ---------------------------------------------

    def _inner_weights(self, inner, quanta=None):
        """The _row_weights of an inner operator, cached."""
        with stats.span("bulkrep.BulkEngine._inner_weights"):
            key = (inner, quanta)
            hit = self._inner_cache.get(key)
            if hit is None:
                hit = self._inner_cache[key] = self._row_weights(inner, quanta)
            return hit

    def _row_weights(self, name, quanta=None):
        """(ids, ub_re, ub_im): the distinct level-1 rows hit by the box
        matrix B of operator ``name`` from the box columns with at most
        ``quanta`` quanta (every column when None) and, per checksum
        prime, u(k) * b_k mod p with b_k = sum_j B[k, j] v(j) over those
        columns, as uint32 residues; ub_im is None when every b_k is real.
        A row and column that B repeats add up."""
        rows, cols, bre, bim = self._box_mats[name]
        if quanta is not None:
            keep = self._box_quanta[cols] <= quanta
            rows, cols, bre, bim = rows[keep], cols[keep], bre[keep], bim[keep]
        # the entries in row order, one segment per distinct row
        order = np.argsort(rows)
        rows, cols, bre, bim = rows[order], cols[order], bre[order], bim[order]
        del order
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        ids = rows[starts]
        del rows
        # v < 2**31, so an entry below 2**32 keeps its product below
        # 2**63, and a row of fewer than 2**32 residues sums below 2**63
        top = _absmax(bre, bim)
        longest = int(np.diff(starts, append=len(cols)).max(initial=0))
        _bound(top < 1 << 32 and longest < 1 << 32, "row sum of an inner box matrix")
        # a row's sum of entry * v fits int64 unreduced, and is reduced
        # once, when its length times max |entry| is below 2**32
        wide = top * longest >= 1 << 32
        parts = (bre, bim) if bim.any() else (bre,)
        # per part (re, im), prime and row, the row's sum of entry * v,
        # reduced per entry only when ``wide``
        sums = np.empty((len(parts), len(_CHECK_PRIMES), len(ids)), dtype=np.int64)
        v = np.take(self._colw, cols, axis=1)
        for i, p in enumerate(_CHECK_PRIMES):
            for k, x in enumerate(parts):
                b = x * v[i]
                if wide:
                    b %= p
                np.add.reduceat(b, starts, out=sums[k, i])
        del v, b
        sums %= _CHECK_P
        sums *= np.take(self.l1_u, ids, axis=1)
        sums %= _CHECK_P
        im = sums[1].astype(np.uint32) if len(parts) > 1 and sums[1].any() else None
        return ids, sums[0].astype(np.uint32), im

    def _rhs_sums(self, name, quanta=None):
        """Cached per checksum prime (sum re*u*v, sum im*u*v) mod p of an
        operator's box matrix over the box columns with at most ``quanta``
        quanta, as Python ints: the sums of its row weights, since
        sum_k u(k) (B v)_k = sum_k ub_k.  The weights are taken from the
        inner cache when a composition has used the operator as an inner,
        and are not kept otherwise."""
        with stats.span("bulkrep.BulkEngine._rhs_sums"):
            key = (name, quanta)
            hit = self._rhs_cache.get(key)
            if hit is None:
                _, ub_re, ub_im = self._inner_cache.get(key) or self._row_weights(
                    name, quanta
                )
                # at most 2**31 rows (level-1 ids are int32) of residues below
                # 2**31 sum below 2**62
                sre = ub_re.sum(axis=1, dtype=np.int64) % _CHECK_P[:, 0]
                sim = 0 * sre if ub_im is None else ub_im.sum(axis=1, dtype=np.int64)
                sim %= _CHECK_P[:, 0]
                hit = self._rhs_cache[key] = list(zip(sre.tolist(), sim.tolist()))
            return hit

    def defect_degree(self, name_a, name_b, both_odd, rhs_terms) -> int:
        """A bound on the degree of a case's defect [A, B] - sum c_t T_t as
        a polynomial in the generators: the associated graded of the
        Weyl-Clifford algebra is supercommutative, so a supercommutator of
        operators of degrees a and b has degree at most a + b - 2.  That
        holds only when A and B each have one parity and the case's sign
        is theirs (both_odd exactly when both are odd); otherwise AB -+ BA
        can reach degree a + b, and the bound is the box's largest quanta,
        which weights the whole box."""
        if not self._prepared:
            self.prepare()
        ops = self._ops
        pa, pb = ops[name_a].parity, ops[name_b].parity
        if pa is None or pb is None or bool(both_odd) != (pa == pb == 1):
            return int(self._box_quanta.max(initial=0))
        return max(
            [0, ops[name_a].degree + ops[name_b].degree - 2]
            + [ops[name].degree for _, name in rhs_terms]
        )

    def plan(self, cases):
        """Take a report's cases, (name_a, name_b, both_odd, rhs_terms)
        each, ahead of their bracket_defect calls: their compositions are
        grouped by inner operator, and the first case whose checksum needs
        an inner runs one kernel pass for every outer the cases pair with
        it.  The plan's quanta q is the largest defect_degree of its
        cases; the checksum of a case whose defect_degree is at most q runs
        over the box columns with at most q quanta only (see
        bracket_defect), and every column is weighted when q reaches the
        box's largest quanta.  Drops the previous plan and its sums."""
        if not self._prepared:
            self.prepare()
        nbox = len(self._box_quanta)
        quanta = max((self.defect_degree(*case) for case in cases), default=0)
        if quanta >= self._box_quanta.max(initial=0):
            quanta = None
        self._quanta = quanta
        stats.count("bulkrep.plan.box_columns", nbox)
        stats.count(
            "bulkrep.plan.weighted_columns",
            nbox if quanta is None else int(np.count_nonzero(self._box_quanta <= quanta)),
        )
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

    def _composition_sums(self, outer, inner, quanta=None):
        """Per checksum prime, [re, im] of u^T (outer o inner) v mod p over
        the box columns with at most ``quanta`` quanta: from the plan's
        batch of ``inner``, run on first use, when the plan pairs ``outer``
        with it at these quanta; else from a one-outer batch."""
        planned = self._planned.get(inner, {}) if quanta == self._quanta else {}
        if outer not in planned:
            return self._batch_sums((outer,), inner, quanta)[0].tolist()
        sums = self._batches.get(inner)
        if sums is None:
            sums = self._batches[inner] = self._batch_sums(
                list(planned), inner, quanta
            )
        return sums[planned[outer]].tolist()

    def _defect_sums(self, comps, rhs_terms, L, quanta=None):
        """Per checksum prime, (re, im) of u^T D v mod p for the defect
        matrix D of a case scaled by L, with u(m) = prod_s z_s**occ_s(m)
        over a monomial's occupancy and v the box-column weights, zero on
        the columns with more than ``quanta`` quanta (none when None).
        Each composition outer o inner is reduced inside the table kernel,
        as (u^T outer) applied to (inner v) over the distinct states the
        inner box matrix reaches (see _composition_sums)."""
        ops = self._ops
        tot = [[0, 0] for _ in _CHECK_PRIMES]
        for outer, inner, mult in comps:
            sums = self._composition_sums(outer, inner, quanta)
            for t, (s_re, s_im) in zip(tot, sums):
                t[0] += s_re * mult
                t[1] += s_im * mult
        for c, name in rhs_terms:
            s = L // ops[name].den
            cr, ci = int(c.re * s), int(c.im * s)
            if cr == 0 and ci == 0:
                continue
            for t, (sre, sim) in zip(tot, self._rhs_sums(name, quanta)):
                t[0] -= cr * sre - ci * sim
                t[1] -= cr * sim + ci * sre
        return [(re % p, im % p) for (re, im), p in zip(tot, _CHECK_PRIMES)]

    def _checksum_zero(self, comps, rhs_terms, L, quanta=None):
        """True when the modular checksum u^T D v of the defect (see
        _defect_sums) vanishes for every checksum prime."""
        sums = self._defect_sums(comps, rhs_terms, L, quanta)
        return not any(re or im for re, im in sums)

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
        pins down the first failing column of the whole box.  Both
        identify a monomial by its u, so a nonzero checksum implies a
        nonzero exact group; a nonzero checksum with none raises
        StructureError.

        The checksum runs over the box columns with at most q quanta, q
        the plan's quanta, when the case's defect_degree is at most q, and
        over the whole box otherwise; either certifies the whole box (see
        the module docstring)."""
        if not self._prepared:
            self.prepare()
        comps, L = self._compositions(name_a, name_b, both_odd, rhs_terms)
        quanta = self._quanta
        if quanta is not None and (
            self.defect_degree(name_a, name_b, both_odd, rhs_terms) > quanta
        ):
            quanta = None
        if self._checksum_zero(comps, rhs_terms, L, quanta):
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
        (column, key) group of the defect scaled by L, or None.  It sums
        the inner box matrix's repeated (row, column) entries, applies each
        composition's outer operator to the state of every summed entry,
        one output entry per (inner entry, outer instance that feeds its
        state), and sums the composition per (column, key) before the next
        one is built.  Box-matrix entries are int32 and are widened to
        int64 before any product."""
        ops = self._ops
        streams = []

        def push(cols, keys, re, im, mult):
            if len(cols) == 0:
                return
            _bound(_absmax(re, im) * abs(mult) < 1 << 62, "scaled composition stream")
            streams.append((cols, keys, re * mult, im * mult))

        for outer, inner, mult in comps:
            rows, cols, bre, bim = self._box_mats[inner]
            # distinct states have distinct keys, so a (column, key) group
            # is a (row, column) entry
            cols, keys, bre, bim, first = _group_keyed(
                cols,
                np.take(self.l1_u, rows, axis=1),
                bre.astype(np.int64),
                bim.astype(np.int64),
            )
            # output entry e is outer applied to the state of inner entry
            # at[e] (one state per entry, repeats included), so it lands on
            # that entry's box column
            at, keys, are, aim = self._apply_all(
                ops[outer], self._level1_block(rows[first]), keys
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
            re, im = re.astype(np.int64), im.astype(np.int64)
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
    x = np.take(w, cols, axis=1)
    x *= fac
    if wide:
        x %= _CHECK_P
    return np.add.reduceat(x, starts, axis=1) % _CHECK_P


def _pool_words(keys):
    """Two words that hold the three residues of ``keys`` exactly: the
    uint64 u0 | u1 << 31 and the uint32 u2."""
    ka = keys[1].astype(np.uint64) << 31
    ka |= keys[0]
    return ka, keys[2].copy()


def _group_keyed(cols, keys, re, im):
    """Sum duplicate (col, key) entries and drop exact zeros.  A cell is
    held exactly in two uint64 words, u0 | col << 31 and u1 | u2 << 31;
    the column goes in the first word, which is sorted first.
    Returns the grouped arrays plus, per kept group, the index of a
    representative entry in the original (pre-sort) order."""
    if len(cols) == 0:
        return cols, keys, re, im, np.zeros(0, dtype=np.int64)
    ka = cols.astype(np.uint64) << 31
    ka |= keys[0]
    kb = keys[2].astype(np.uint64) << 31
    kb |= keys[1]
    order = np.argsort(ka)
    order, new = _sorted_groups(order, ka[order], kb[order])[:2]
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
