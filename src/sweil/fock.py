"""Canonical basis states of the semi-infinite symmetric/exterior module
tensor product, with exact creation/annihilation actions and box enumeration.

Generators are labelled by (family, component, mode):

  'g' / 'b'  bosonic pair, pairing  g(c,k) b(c,k):  gb - bg = 1
  'e' / 't'  fermionic pair, pairing e(c,k) t(c,k): et + te = 1

Creators are g/e at mode > 0 and b/t at mode <= 0; a monomial is a multiset
of bosonic creators together with a strictly ordered set of fermionic
creators applied to the vacuum.

In the *relative* model the mode-0 fermionic slots of the vacuum are already
filled, so mode-0 fermionic generators act as zero and relative monomials
carry no mode-0 fermionic keys.

A product of generators maps a monomial to one monomial times an integer:
a creator inserts its key (a fermion picks up the sign of the keys it
passes), an annihilator removes its partner (a fermion picks up a sign, a
boson the partner's multiplicity).  ``product_on_monomial`` computes that
(integer, monomial) pair in one pass; ``apply_generator`` and
``apply_product`` wrap it for vectors.

A monomial is a NamedTuple of its two key tuples, so hashing, equality and
construction run in C; it is the key of every per-monomial memo and
vector.  ``enumerate_box`` appends bosonic creators in ``_bsort_key``
order and fermionic ones in ``_fsort_key`` order, so each monomial it
builds is already canonical and inside the box; its parts are sorted,
so the box comes out in canonical order without sorting the box.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from itertools import repeat
from typing import Iterable, NamedTuple

from . import stats
from .scalars import QI, ONE
from .liealg import StructureError

BOSONIC = ("b", "g")
FERMIONIC = ("t", "e")
FAMILIES = ("b", "g", "t", "e")

# canonical order: family rank (g before b, e before t), then mode, then component
_FRANK = {"e": 0, "t": 1}
_BRANK = {"g": 0, "b": 1}
# g and e create at mode > 0; b and t create at mode <= 0
_CREATOR_POSITIVE = ("g", "e")
_DUAL = {"g": "b", "b": "g", "e": "t", "t": "e"}


class GenKey(NamedTuple):
    family: str
    comp: int
    mode: int

    def is_creator(self) -> bool:
        return (self.mode > 0) == (self.family in _CREATOR_POSITIVE)

    def dual(self) -> "GenKey":
        return GenKey(_DUAL[self.family], self.comp, self.mode)

    def is_fermionic(self) -> bool:
        return self.family in FERMIONIC


def _fsort_key(k: GenKey):
    return (_FRANK[k.family], k.mode, k.comp)


def _bsort_key(k: GenKey):
    return (_BRANK[k.family], k.mode, k.comp)


class FockMonomial(NamedTuple):
    """Canonical monomial: sorted boson tuple, strictly sorted fermion tuple.

    A plain tuple underneath, so hashing, equality and construction (the
    monomial is a dict key in every per-monomial memo and vector) run in C.
    """

    bosons: tuple
    fermions: tuple

    @staticmethod
    def vacuum() -> "FockMonomial":
        return FockMonomial((), ())

    def is_vacuum(self) -> bool:
        return not self.bosons and not self.fermions

    def degrees(self):
        """(E, Deg_S, Deg_Lambda, a, b) of this monomial."""
        e = 0
        deg_s = 0
        deg_l = 0
        a = bcount = 0
        for k in self.bosons:
            if k.family == "g":
                e += k.mode
                deg_s += 1
            else:
                e -= k.mode
                deg_s -= 1
        for k in self.fermions:
            if k.family == "e":
                e += k.mode
                deg_l += 1
                a += 1
            else:
                e -= k.mode
                deg_l -= 1
                bcount += 1
        return e, deg_s, deg_l, a, bcount

    def energy(self) -> int:
        return self.degrees()[0]

    def has_zero_mode_fermion(self) -> bool:
        return any(k.mode == 0 for k in self.fermions)

    def __str__(self):
        return format_monomial(self)


VACUUM = FockMonomial.vacuum()


def make_monomial(keys: Iterable[GenKey]):
    """Canonicalize a product of creator keys; returns (sign, monomial|None).

    None (with sign 0) means a repeated fermionic creator.
    """
    bosons = []
    fermions = []
    sign = 1
    for k in keys:
        if not k.is_creator():
            raise StructureError(f"{k} is not a creator")
        if k.is_fermionic():
            pos = 0
            for f in fermions:
                if f == k:
                    return 0, None
                if _fsort_key(f) < _fsort_key(k):
                    pos += 1
            # anticommute past the fermions that precede the insertion point
            sign *= -1 if (len(fermions) - pos) % 2 else 1
            fermions.insert(pos, k)
        else:
            bosons.append(k)
    return sign, FockMonomial(tuple(sorted(bosons, key=_bsort_key)), tuple(fermions))


class FockVector:
    """Finite linear combination of monomials; zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = QI.of(c)
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def zero() -> "FockVector":
        return FockVector()

    @staticmethod
    def of(m: FockMonomial, coeff=ONE) -> "FockVector":
        return FockVector({m: coeff})

    @staticmethod
    def vacuum() -> "FockVector":
        return FockVector.of(VACUUM)

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, m: FockMonomial, c: QI):
        cur = self.terms.get(m)
        if cur is None:
            if not c.is_zero():
                self.terms[m] = c
            return
        cur = cur + c
        if cur.is_zero():
            self.terms.pop(m, None)
        else:
            self.terms[m] = cur

    def __add__(self, other):
        out = FockVector(dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __sub__(self, other):
        return self + other.scale(QI(-1))

    def scale(self, c) -> "FockVector":
        c = QI.of(c)
        if c.is_zero():
            return FockVector()
        return FockVector({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("FockVector is not hashable")

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(f"({c}) {m}" for m, c in self.items())


def _mono_sort_key(m: FockMonomial):
    return (
        tuple(_bsort_key(k) for k in m.bosons),
        tuple(_fsort_key(k) for k in m.fermions),
    )


def product_on_monomial(keys, m: FockMonomial, relative=False):
    """Apply the generator product ``keys`` (a sequence written left to
    right, so the rightmost acts first) to the monomial ``m``.

    A product of generators maps a monomial to one monomial times an
    integer, so the result is ``(factor, monomial)`` with ``factor`` a
    nonzero ``int``, or ``(0, None)`` when the product annihilates ``m``.
    """
    bosons = m.bosons
    fermions = m.fermions
    factor = 1
    for key in reversed(keys):
        family, comp, mode = key
        creator = (mode > 0) == (family in _CREATOR_POSITIVE)
        if family in FERMIONIC:
            if relative and mode == 0:
                return 0, None
            if creator:
                pos = bisect_left(fermions, _fsort_key(key), key=_fsort_key)
                if pos < len(fermions) and fermions[pos] == key:
                    return 0, None
                # anticommute past the pos fermions sorted before key
                if pos % 2:
                    factor = -factor
                fermions = fermions[:pos] + (key,) + fermions[pos:]
            else:
                try:
                    idx = fermions.index((_DUAL[family], comp, mode))
                except ValueError:
                    return 0, None
                if idx % 2:
                    factor = -factor
                fermions = fermions[:idx] + fermions[idx + 1 :]
        elif creator:
            pos = bisect_right(bosons, _bsort_key(key), key=_bsort_key)
            bosons = bosons[:pos] + (key,) + bosons[pos:]
        else:
            partner = (_DUAL[family], comp, mode)
            count = bosons.count(partner)
            if not count:
                return 0, None
            idx = bosons.index(partner)
            bosons = bosons[:idx] + bosons[idx + 1 :]
            # gb - bg = 1: a 'g' annihilator picks up +count, a 'b' one -count
            factor *= count if family == "g" else -count
    return factor, FockMonomial(bosons, fermions)


def scale_int(c: QI, factor: int) -> QI:
    """``c * factor`` for a nonzero int factor; no multiply for +-1."""
    if factor == 1:
        return c
    if factor == -1:
        return -c
    return c * factor


def apply_generator(key: GenKey, v, relative=False):
    """Exact action of a single generator on a monomial or vector."""
    if isinstance(v, FockMonomial):
        v = FockVector.of(v)
    out = FockVector()
    keys = (key,)
    for m, c in v.terms.items():
        factor, m2 = product_on_monomial(keys, m, relative)
        if factor:
            out.add_term(m2, scale_int(c, factor))
    return out


def apply_product(keys, m: FockMonomial, relative=False) -> FockVector:
    """Apply a product of generators written left to right (rightmost first)."""
    factor, m2 = product_on_monomial(list(keys), m, relative)
    if not factor:
        return FockVector()
    return FockVector({m2: QI(factor)})


def normal_order_slots(keys):
    """Stably move annihilators right of creators; fermionic swaps give -1.

    Works across statistics (bosonic keys commute with everything here since
    same-term slots never pair after the reordering).
    """
    keys = list(keys)
    sign = 1
    # insertion sort by creator-status only (stable)
    for i in range(1, len(keys)):
        j = i
        while j > 0 and (not keys[j - 1].is_creator()) and keys[j].is_creator():
            if keys[j - 1].is_fermionic() and keys[j].is_fermionic():
                sign = -sign
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            j -= 1
    return sign, keys


class Box(NamedTuple):
    """Finite truncation: E <= emax, at most b0max mode-0 bosonic creators."""

    emax: int
    b0max: int = 0
    zero_fermions_allowed: bool = True


def enumerate_box(dim: int, box: Box):
    """Deterministic, duplicate-free enumeration of the monomials in a box,
    in ``_mono_sort_key`` order.

    The bosonic parts take the bosonic creators in ``_bsort_key`` order,
    each as often as the energy and mode-0 budgets allow; the fermionic
    parts take the fermionic creators in ``_fsort_key`` order, each at
    most once.  Every pair of parts within the energy budget is then a
    canonical monomial of the box, built without canonicalizing.  Each
    list of parts is sorted once by its keys' canonical order, the
    fermionic parts kept per energy budget in that order, so the nested
    product of the two lists is already in canonical order and the
    monomials themselves are never sorted."""
    with stats.span("fock.enumerate_box"):
        if box.emax < 0 or box.b0max < 0:
            raise StructureError("box bounds must be nonnegative")
        emax = box.emax
        bos = []
        fer = []
        for c in range(dim):
            for k in range(1, emax + 1):
                bos += [GenKey("g", c, k), GenKey("b", c, -k)]
                fer += [GenKey("e", c, k), GenKey("t", c, -k)]
            bos.append(GenKey("b", c, 0))
            if box.zero_fermions_allowed:
                fer.append(GenKey("t", c, 0))
        bos.sort(key=_bsort_key)
        fer.sort(key=_fsort_key)
        # (energy, mode-0 count, keys); a part grows only by keys sorted after
        # all of its own, so every part stays in canonical order
        bos_parts = [(0, 0, ())]
        for key in bos:
            cost = abs(key.mode)
            zero = key.mode == 0
            grown = []
            for energy, b0, keys in bos_parts:
                n = 1
                while energy + n * cost <= emax and b0 + n * zero <= box.b0max:
                    grown.append((energy + n * cost, b0 + n * zero, keys + (key,) * n))
                    n += 1
            bos_parts += grown
        fer_parts = [(0, ())]
        for key in fer:
            cost = abs(key.mode)
            fer_parts += [
                (e + cost, keys + (key,)) for e, keys in fer_parts if e + cost <= emax
            ]
        # a part's canonical sort key is the tuple of its keys' positions in
        # the sorted creator lists
        rank = {k: i for i, k in enumerate(bos + fer)}.__getitem__
        bos_parts.sort(key=lambda part: tuple(map(rank, part[2])))
        fer_parts.sort(key=lambda part: tuple(map(rank, part[1])))
        # fermionic parts of energy at most E, for each E, in canonical order
        upto = [[] for _ in range(emax + 1)]
        for energy, keys in fer_parts:
            for budget in range(energy, emax + 1):
                upto[budget].append(keys)
        # FockMonomial's own tuple constructor, called from C per monomial
        mono = partial(tuple.__new__, FockMonomial)
        out = []
        for energy, _, bkeys in bos_parts:
            out += map(mono, zip(repeat(bkeys), upto[emax - energy]))
        return out


# -- fixture text format ----------------------------------------------


def format_monomial(m: FockMonomial) -> str:
    if m.is_vacuum():
        return "vac"
    def tok(k):
        mode = f"{k.mode:+d}" if k.mode else "0"
        return f"{k.family}({k.comp + 1},{mode})"

    bos = " ".join(tok(k) for k in m.bosons)
    fer = " ".join(tok(k) for k in m.fermions)
    if bos and fer:
        return f"{bos} | {fer}"
    return bos or f"| {fer}"


def parse_monomial(text: str) -> FockMonomial:
    text = text.strip()
    if text == "vac":
        return VACUUM
    if "|" in text:
        bos_txt, fer_txt = text.split("|")
    else:
        bos_txt, fer_txt = text, ""
    keys = []
    for chunk in (bos_txt + " " + fer_txt).split():
        fam = chunk[0]
        if fam not in FAMILIES or chunk[1] != "(" or not chunk.endswith(")"):
            raise StructureError(f"bad generator token {chunk!r}")
        comp_s, mode_s = chunk[2:-1].split(",")
        keys.append(GenKey(fam, int(comp_s) - 1, int(mode_s)))
    sign, mono = make_monomial(keys)
    if mono is None:
        raise StructureError("repeated fermionic creator in monomial text")
    if sign != 1:
        raise StructureError("monomial text is not in canonical order")
    return mono
