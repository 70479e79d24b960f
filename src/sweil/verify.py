"""Relation-checking harness: quantifies operator identities over finite
boxes, extracts central charges, and compares representation brackets
against the abstract structure-constant tables."""

from __future__ import annotations

import importlib.util
import sys
from math import lcm
from typing import NamedTuple, Optional

from .scalars import QI, ZERO, ONE, format_qi
from .liealg import GradedBackend, StructureError
from .fock import (
    Box,
    FockMonomial,
    FockVector,
    GenKey,
    VACUUM,
    apply_generator,
    enumerate_box,
    format_monomial,
)
from .fieldops import (
    FieldOperator,
    Operator,
    SumOperator,
    _slot_bounds,
    build_differential_d,
    build_koszul_h,
    build_n2_family,
    build_s2alpha_family,
    build_theta_adjoint,
    sl2_triple,
    super_commutator,
)
from .sca import SCAElement, s2a_basis_bracket


def _lazy_submodule(name: str):
    """This package's submodule ``name``, entered in ``sys.modules`` and as
    a package attribute now, so code that looks it up there (the
    benchmark's tracing hooks) finds it, but executed on first use."""
    full = f"{__package__}.{name}"
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# bulkrep imports numpy, which sca-tables, cohomology and kahler never need
bulkrep = _lazy_submodule("bulkrep")

N2_TABLE_SYMBOLS = ("L", "H", "h", "p")
S2A_TABLE_SYMBOLS = ("L", "E", "H", "F", "h", "p", "x", "y")


class RelationReport(NamedTuple):
    check: str
    params: tuple  # sorted (key, value) string pairs
    box: str
    status: str  # "pass" | "fail"
    witness: Optional[tuple] = None  # sorted (key, value) string pairs

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def __bool__(self):
        return self.passed


def _params(**kw) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in kw.items()))


def _box_str(box: Box) -> str:
    bits = [f"E<={box.emax}", f"B0<={box.b0max}"]
    if not box.zero_fermions_allowed:
        bits.append("rel")
    return " ".join(bits)


def format_vector(v: FockVector) -> str:
    if v.is_zero():
        return "0"
    return " + ".join(
        f"({format_qi(c)}) {format_monomial(m)}" for m, c in v.items()
    )


def _witness(pair, mono, lhs, rhs) -> tuple:
    return _params(
        pair=pair,
        monomial=format_monomial(mono),
        lhs=format_vector(lhs),
        rhs=format_vector(rhs),
    )


class GeneratorOperator(Operator):
    """A single Clifford/Weyl generator as an operator."""

    def __init__(self, key: GenKey):
        super().__init__()
        self.key = key
        self.parity = 1 if key.is_fermionic() else 0
        self.name = f"{key.family}({key.comp},{key.mode})"

    def _apply_monomial(self, m, relative):
        return apply_generator(self.key, FockVector.of(m), relative)


# -- fast exact engine -------------------------------------------------
#
# Interned monomials and per-operator cached columns holding Gaussian
# integers over a per-operator denominator keep the hot loops in plain
# int arithmetic while staying exact.


class FastEngine:
    """Shared monomial interning table for a batch of checks, with one
    FastOp per operator object reached through a SumOperator, so each
    leaf operator is applied to each monomial once, and one
    ``_slot_bounds`` dict per monomial for every FieldOperator leaf.
    Both live as long as the engine."""

    def __init__(self, relative: bool = False):
        self.relative = relative
        self._ids = {}
        self.monos = []
        self._bounds = {}  # monomial id -> _slot_bounds of the monomial
        self._ops = {}  # operator -> its FastOp

    def intern(self, m: FockMonomial) -> int:
        i = self._ids.get(m)
        if i is None:
            i = len(self.monos)
            self._ids[m] = i
            self.monos.append(m)
        return i

    def fastop(self, op: Operator) -> "FastOp":
        """The engine's one FastOp of ``op``."""
        f = self._ops.get(op)
        if f is None:
            f = self._ops[op] = FastOp(self, op)
        return f


class FastOp:
    """Lazily assembled integer-scaled sparse columns of an operator: a
    column is a tuple of (monomial id, re, im), the entries times ``den``.

    A SumOperator's column is the integer combination of its parts'
    columns, and its parts are the engine's FastOps, so every sum that
    uses an operator shares that operator's columns; a single part of
    weight one shares its column tuples outright.  Any other operator is
    a leaf, applied to the monomial.  A FastOp holds the engine's tables,
    not the engine, so the engine's FastOps form no reference cycle."""

    def __init__(self, engine: FastEngine, op: Operator):
        self.op = op
        self.den = 1
        self.cols = {}
        self._monos = engine.monos
        if isinstance(op, SumOperator):
            self._parts = tuple((c, engine.fastop(p)) for c, p in op.parts)
            self._central = None if op.central.is_zero() else op.central
            # the weights over den, for the part denominators _part_dens
            self._part_dens = None
            self._scaled = None
            self._zc = None
        else:
            self._parts = None
            self._ids = engine._ids
            self._relative = engine.relative
            self._bounds = (
                engine._bounds if isinstance(op, FieldOperator) else None
            )

    def col(self, i: int):
        c = self.cols.get(i)
        if c is None:
            c = self._leaf_col(i) if self._parts is None else self._sum_col(i)
            self.cols[i] = c
        return c

    def _rescale(self, den: int):
        """Hold every column over ``den``, a multiple of ``self.den``."""
        f = den // self.den
        self.den = den
        cols = self.cols
        for k in cols:
            cols[k] = tuple((j, re * f, im * f) for j, re, im in cols[k])

    def _leaf_col(self, i: int):
        m = self._monos[i]
        if self._bounds is None:
            v = self.op.apply_monomial(m, self._relative)
        else:
            bounds = self._bounds.get(i)
            if bounds is None:
                bounds = self._bounds[i] = _slot_bounds(m)
            v = self.op.apply_monomial(m, self._relative, bounds)
        den = self.den
        for q in v.terms.values():
            den = lcm(den, q.re.denominator, q.im.denominator)
        if den != self.den:
            self._rescale(den)
        ids = self._ids
        monos = self._monos
        out = []
        for m2, q in v.terms.items():
            j = ids.get(m2)
            if j is None:
                j = ids[m2] = len(monos)
                monos.append(m2)
            out.append((j, int(q.re * den), int(q.im * den)))
        return tuple(out)

    def _weights(self):
        """Each part's weight as Gaussian integers over this FastOp's
        denominator, and the central term's; the denominator grows first
        when a part's has grown since the last column."""
        parts = self._parts
        dens = tuple([p.den for _, p in parts])
        if dens != self._part_dens:
            den = self.den
            for c, p in parts:
                den = lcm(den, p.den * lcm(c.re.denominator, c.im.denominator))
            z = self._central
            if z is not None:
                den = lcm(den, z.re.denominator, z.im.denominator)
            if den != self.den:
                self._rescale(den)
            self._scaled = [
                (int(c.re * (den // p.den)), int(c.im * (den // p.den)))
                for c, p in parts
            ]
            self._zc = None if z is None else (int(z.re * den), int(z.im * den))
            self._part_dens = dens
        return self._scaled, self._zc

    def _sum_col(self, i: int):
        parts = self._parts
        for _, p in parts:
            p.col(i)
        scaled, zc = self._weights()
        if len(parts) == 1 and zc is None and scaled[0] != (0, 0):
            (wr, wi), = scaled
            pc = parts[0][1].cols[i]
            if wr == 1 and wi == 0:
                return pc
            # a nonzero Gaussian integer times a nonzero entry is nonzero
            return tuple(
                (j, wr * re - wi * im, wr * im + wi * re) for j, re, im in pc
            )
        acc = {}
        if zc is not None:
            acc[i] = zc
        for (wr, wi), (_, p) in zip(scaled, parts):
            for j, re, im in p.cols[i]:
                r = wr * re - wi * im
                m = wr * im + wi * re
                cur = acc.get(j)
                acc[j] = (r, m) if cur is None else (cur[0] + r, cur[1] + m)
        return tuple((j, r, m) for j, (r, m) in acc.items() if r or m)


def fast_bracket_check(engine, fa, fb, both_odd, rhs_terms, central, box_ids):
    """Check [A, B] = sum c_t T_t + central on the interned box monomials;
    rhs_terms is a list of (QI coefficient, FastOp). Returns the first
    mismatching monomial id, or None."""
    # first pass: form every needed column so denominators stabilize
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
        scaled_rhs.append((int(c.re * s), int(c.im * s), ft.cols))
    zc = None
    if central is not None and not central.is_zero():
        zc = (int(central.re * R), int(central.im * R))
    lf = R // D
    sgn = 1 if both_odd else -1
    # every column read below was formed above
    acols = fa.cols
    bcols = fb.cols
    for i in box_ids:
        acc = {}
        for j, br, bi in bcols[i]:
            for k, ar, ai in acols[j]:
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                cur = acc.get(k)
                acc[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
        for j, ar, ai in acols[i]:
            for k, br, bi in bcols[j]:
                re = (br * ar - bi * ai) * sgn
                im = (br * ai + bi * ar) * sgn
                cur = acc.get(k)
                acc[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
        rac = {}
        for cr, ci, tcols in scaled_rhs:
            for k, r, m_ in tcols[i]:
                re = cr * r - ci * m_
                im = cr * m_ + ci * r
                cur = rac.get(k)
                rac[k] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
        if zc is not None:
            cur = rac.get(i)
            rac[i] = zc if cur is None else (cur[0] + zc[0], cur[1] + zc[1])
        ok = True
        for k, (re, im) in acc.items():
            r2 = rac.get(k, (0, 0))
            if re * lf != r2[0] or im * lf != r2[1]:
                ok = False
                break
        if ok:
            for k, (re, im) in rac.items():
                if k not in acc and (re or im):
                    ok = False
                    break
        if not ok:
            return i
    return None


class _BulkSuite:
    """Whole-box bracket checking: named operators are compiled once into
    the vectorized engine, every case is certified over the full box, and
    any failure is replayed through the one-monomial exact path to
    produce a witness."""

    def __init__(self, dim: int, box: Box, relative: bool = False):
        self.box = box
        self.relative = relative
        self.engine = bulkrep.BulkEngine(dim, box, relative)

    def op(self, name: str, operator, need_full: bool = True) -> str:
        return self.engine.register(name, operator, need_full)

    def report(self, check: str, params: tuple, cases) -> RelationReport:
        """cases: iterable of (label, name_a, name_b, both_odd, rhs_terms)
        with rhs_terms a list of (QI, name); a central term z is the entry
        (z, bulkrep.IDENTITY).  The engine plans all cases first, so its
        checksum runs one kernel pass per inner operator."""
        witness = None
        ops = self.engine._ops
        cases = list(cases)
        self.engine.plan([case[1:] for case in cases])
        for label, a, b, both_odd, rhs_terms in cases:
            bad = self.engine.bracket_defect(a, b, both_odd, rhs_terms)
            if bad is None:
                continue
            m = self.engine.box_monos[bad]
            v = FockVector.of(m)
            lhs = super_commutator(ops[a].op, ops[b].op).apply(
                v, relative=self.relative
            )
            rhs = FockVector()
            for c, name in rhs_terms:
                rhs = rhs + ops[name].op.apply(v, relative=self.relative).scale(c)
            witness = _witness(label, m, lhs, rhs)
            break
        return RelationReport(
            check,
            params,
            _box_str(self.box),
            "fail" if witness else "pass",
            witness,
        )


def n2_builder(backend: GradedBackend):
    cache = {}

    def build(sym, n):
        key = (sym, n)
        if key not in cache:
            cache[key] = build_n2_family(backend, sym, n)
        return cache[key]

    return build


def s2a_builder(backend: GradedBackend, alpha):
    alpha = QI.of(alpha)
    cache = {}

    def build(sym, n):
        # L[n] takes the cached H[n] as its H part; build does not call
        # itself, so the closure holds no reference to itself
        key = (sym, n)
        if key not in cache:
            if sym == "L":
                hkey = ("H", n)
                if hkey not in cache:
                    cache[hkey] = build_s2alpha_family(backend, alpha, "H", n)
                cache[key] = build_s2alpha_family(
                    backend, alpha, "Lalpha", n, cache[hkey]
                )
            else:
                cache[key] = build_s2alpha_family(backend, alpha, sym, n)
        return cache[key]

    return build


def claimed_charge(backend: GradedBackend) -> QI:
    if backend.kind == "fmu":
        return QI(3) - QI(6) * backend.lam
    if backend.kind == "loop":
        return QI(3 * backend.dim)
    raise StructureError("no charge claim for this backend")


def check_representation(
    check: str,
    bracket_fn,
    builder,
    charge: QI,
    dim: int,
    box: Box,
    window: int,
    symbols,
    relative: bool = False,
    params: tuple = (),
) -> RelationReport:
    """[theta(a), theta(b)] = theta([a,b]) + c(a,b) * charge on every box
    monomial, for every symbol pair in the mode window."""
    basis = [(s, n) for s in symbols for n in range(-window, window + 1)]
    suite = _BulkSuite(dim, box, relative)

    def nm(sym, n):
        return f"{sym}[{n}]"

    pairs = []
    needed = {}
    for i, (sa, na) in enumerate(basis):
        for sb, nb in basis[i:]:
            el = bracket_fn(sa, na, sb, nb)
            pairs.append((sa, na, sb, nb, el))
            for (sym, n), _ in el.items():
                needed[(sym, n)] = True
    for s, n in basis:
        suite.op(nm(s, n), builder(s, n))
    inbasis = set(basis)
    for s, n in needed:
        if (s, n) not in inbasis:
            suite.op(nm(s, n), builder(s, n), need_full=False)
    cases = []
    for sa, na, sb, nb, el in pairs:
        a, b = nm(sa, na), nm(sb, nb)
        both_odd = bool(builder(sa, na).parity and builder(sb, nb).parity)
        rhs_terms = [(c, nm(sym, n)) for (sym, n), c in el.items()]
        z = el.central * charge
        if not z.is_zero():
            rhs_terms.append((z, bulkrep.IDENTITY))
        cases.append((f"[{a},{b}]", a, b, both_odd, rhs_terms))
    return suite.report(check, params, cases)


def extract_central_charge(builder, probe: str = "H") -> QI:
    """Evaluate [theta(P_n), theta(P_-n)] on the vacuum for n in {1, 2},
    fit the linear coefficient, and return three times the level."""
    vac = FockVector.vacuum()
    levels = []
    for n in (1, 2):
        comm = super_commutator(builder(probe, n), builder(probe, -n))
        out = comm.apply(vac)
        rest = out + vac.scale(-out.terms.get(VACUUM, ZERO))
        if not rest.is_zero():
            raise StructureError("central probe is not proportional to the vacuum")
        levels.append(out.terms.get(VACUUM, ZERO) / QI(n))
    if levels[0] != levels[1]:
        raise StructureError(
            f"inconsistent central fits: {levels[0]} vs {levels[1]}"
        )
    return QI(3) * levels[0]


def check_chain_identities(backend: GradedBackend, box: Box, window: int = 2):
    """The basic chain-level identities of the complex: the differential
    squares to zero, the contraction squares to zero, the homotopy formula
    d tau(x) + tau(x) d = theta(x), and [d, theta(x)] = 0."""
    dim = backend.dim
    suite = _BulkSuite(dim, box)
    suite.op("d", build_differential_d(backend))
    suite.op("kz", build_koszul_h(backend))
    span = [
        (j, n) for j in range(dim) for n in range(-window, window + 1)
    ]
    for j, n in span:
        suite.op(f"theta({j},{n})", build_theta_adjoint(backend, j, n))
        suite.op(f"tau({j},{n})", GeneratorOperator(GenKey("t", j, n)))
    return [
        suite.report(
            "chain:d-squared",
            _params(backend=backend.name),
            [("d.d", "d", "d", True, [])],
        ),
        suite.report(
            "chain:koszul-squared",
            _params(backend=backend.name),
            [("kz.kz", "kz", "kz", True, [])],
        ),
        suite.report(
            "chain:homotopy",
            _params(backend=backend.name, window=window),
            [
                (
                    f"[d,tau({j},{n})]",
                    "d",
                    f"tau({j},{n})",
                    True,
                    [(ONE, f"theta({j},{n})")],
                )
                for j, n in span
            ],
        ),
        suite.report(
            "chain:theta-commutes",
            _params(backend=backend.name, window=window),
            [
                (f"[d,theta({j},{n})]", "d", f"theta({j},{n})", False, [])
                for j, n in span
            ],
        ),
    ]


def check_d_compatibility(backend: GradedBackend, box: Box, window: int = 2):
    """[theta(s), d] = 0 for every basis symbol s of the alpha = 0 family."""
    builder = s2a_builder(backend, ZERO)
    suite = _BulkSuite(backend.dim, box)
    suite.op("d", build_differential_d(backend))
    cases = []
    for sym in S2A_TABLE_SYMBOLS:
        for n in range(-window, window + 1):
            op = builder(sym, n)
            name = suite.op(f"{sym}[{n}]", op)
            cases.append(
                (f"[{sym}[{n}],d]", name, "d", bool(op.parity), [])
            )
    return suite.report(
        "d-compatibility",
        _params(backend=backend.name, alpha="0", window=window),
        cases,
    )


# exterior sl(2) action on the odd families of the alpha = 0 family:
# (derivation symbol, source symbol, index shift, coefficient)
DEREXT_RELATIONS = (
    ("EE", "h", -1, "x", ONE),
    ("EE", "y", -1, "p", ONE),
    ("FF", "x", +1, "h", ONE),
    ("FF", "p", +1, "y", ONE),
    ("HH", "h", 0, "h", QI(-1)),
    ("HH", "p", 0, "p", ONE),
    ("HH", "x", 0, "x", ONE),
    ("HH", "y", 0, "y", QI(-1)),
)


def check_relative_derext(backend: GradedBackend, box: Box, window: int = 1):
    """The exterior sl(2) acts on the odd families of the alpha = 0 model,
    but only on the relative subcomplex: each discrepancy operator kills
    every relative monomial, while a state with a zero-mode fermion is a
    recorded negative control."""
    if box.zero_fermions_allowed:
        box = Box(box.emax, box.b0max, False)
    builder = s2a_builder(backend, ZERO)
    triple = sl2_triple(backend)
    suite = _BulkSuite(backend.dim, box, relative=True)
    for s, op in triple.items():
        suite.op(s, op)
    regd = set()

    def nm(sym, n):
        if (sym, n) not in regd:
            regd.add((sym, n))
            suite.op(f"{sym}[{n}]", builder(sym, n))
        return f"{sym}[{n}]"

    cases = []
    for dsym, src, shift, tgt, coeff in DEREXT_RELATIONS:
        for k in range(-window, window + 1):
            cases.append(
                (
                    f"[{dsym},{src}[{k}]]-({format_qi(coeff)}){tgt}[{k + shift}]",
                    dsym,
                    nm(src, k),
                    False,
                    [(coeff, nm(tgt, k + shift))],
                )
            )
    report = suite.report(
        "relative-derext",
        _params(backend=backend.name, window=window),
        cases,
    )

    # negative control: on a nonabelian backend the same discrepancies do
    # not vanish on absolute states carrying a zero-mode fermion
    spec = backend.spec
    trivial = all(
        spec.bracket(i, j)[k].is_zero()
        for i in range(spec.dim)
        for j in range(spec.dim)
        for k in range(spec.dim)
    )
    if trivial:
        return [report]
    control_box = Box(emax=1, b0max=1)
    hit = None
    for dsym, src, shift, tgt, coeff in DEREXT_RELATIONS:
        if hit:
            break
        for k in range(-window, window + 1):
            if hit:
                break
            lhs_op = super_commutator(triple[dsym], builder(src, k))
            tgt_op = builder(tgt, k + shift)
            for m in enumerate_box(backend.dim, control_box):
                if not m.has_zero_mode_fermion():
                    continue
                v = FockVector.of(m)
                diff = lhs_op.apply(v) - tgt_op.apply(v).scale(coeff)
                if not diff.is_zero():
                    hit = _witness(
                        f"[{dsym},{src}[{k}]]-({format_qi(coeff)}){tgt}[{k + shift}]",
                        m,
                        diff,
                        FockVector(),
                    )
                    break
    neg = RelationReport(
        "relative-derext:negative-control",
        _params(backend=backend.name),
        _box_str(control_box),
        "pass" if hit else "fail",
        hit,
    )
    return [report, neg]


def n2_table(sa, na, sb, nb) -> SCAElement:
    return s2a_basis_bracket(ZERO, sa, na, sb, nb)


def s2a_table(alpha):
    alpha = QI.of(alpha)

    def fn(sa, na, sb, nb):
        return s2a_basis_bracket(alpha, sa, na, sb, nb)

    return fn
