"""The benchmark's workloads: named job lists that call sweil through the
same public functions its CLI uses, and the reference checks on their
reports.

A job returns ``(exit_code, report_bytes)``.  Relation, Kähler and table
jobs are README-style CLI lines run through ``sweil.cli.run``; the
``defects`` jobs build a wrong claim from the public API and must FAIL
with a witness that replays through the slow ``Operator.apply`` path.

Every call into sweil goes through a module attribute (``verify.x``, not
an imported name), so the traced run's hooks see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from typing import Callable, NamedTuple, Optional

from sweil import cli, fieldops, fock, liealg, verify
from sweil.scalars import ONE, QI, ZERO, format_qi

# Sizes are chosen so that one pass over a workload takes under a second
# on a 2-core machine, so a run times fifteen or more passes.  The
# relations lines cover all four relation suites and all three backend
# kinds.  verify-relative runs on an abelian backend: on loop:sl2 its
# slow-path negative control (fixed at E<=1 B0<=1) alone takes about 0.45 s.
# kahler runs on loop:abelian:2 at E<=1, where fast_bracket_check and
# enumerate_box take about 60% and 20% of a pass, near their shares at
# README size; the smallest loop:sl2 box (E<=1) takes 1.3 s, too few passes
# per run for a steady median.
RELATION_LINES = (
    "verify-s2a --backend loop:sl2 --alpha 0 --emax 1 --b0max 1 --window 0",
    "verify-s2a --backend loop:abelian:2 --alpha 1/2 --emax 2 --b0max 1 --window 0",
    "verify-relative --backend loop:abelian:1 --emax 2 --b0max 1 --window 1",
    "verify-chain --backend loop:sl2 --emax 1 --b0max 1 --window 1",
    "verify-n2 --backend loop:sl2 --emax 1 --b0max 1 --window 1",
    "verify-n2 --backend fmu:1/2:0 --emax 2 --b0max 1 --window 1",
    "verify-chain --backend witt --emax 3 --b0max 2 --window 2",
)
KAHLER_LINES = (
    "kahler --backend loop:abelian:2 --emax 1 --format text",
    "cohomology --backend loop:abelian:2 --rel --emax 1 --format csv",
)
TABLE_LINES = ("sca-tables --alpha 1 --window 0",)

DEFECT_BACKEND = "loop:sl2"
DEFECT_BOX = fock.Box(emax=1, b0max=1)
# The seeded defects are checked at mode 0, so the cost of a pass depends
# little on which constant or table pair the seed drew.  The flipped pair's
# two symbols are also listed first, so it is the first or second case: a
# flip costs one prepare plus the failing path.  The charge defect has no
# seeded choice and runs at window 1, where most cases pass before the
# first failure.
DEFECT_WINDOW = 0
CHARGE_WINDOW = 1


class Job(NamedTuple):
    name: str  # key into reference.json
    call: Callable[[], tuple]
    replay: Optional[Callable[[str, dict], bool]] = None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reports(reports) -> tuple:
    out = cli.emit_report(reports, "json")
    return (0 if all(r.passed for r in reports) else 1), out


# -- CLI lines ---------------------------------------------------------


def cli_job(line: str) -> Job:
    cfg = cli.resolve_config(cli.build_parser().parse_args(line.split()))

    def call():
        buf = io.BytesIO()
        rc = cli.run(cfg, buf)
        return rc, buf.getvalue()

    return Job(line, call)


# -- seeded defects ----------------------------------------------------


def constant_candidates():
    """(a, b, k) with a nonzero sl(2) structure constant c[a][b][k]."""
    spec = liealg.builtin_sl2_orthonormal()
    return [
        (a, b, k)
        for a in range(spec.dim)
        for b in range(spec.dim)
        for k in range(spec.dim)
        if not spec.c[a][b][k].is_zero()
    ]


def table_pairs(window: int = DEFECT_WINDOW):
    """S'(2,0) basis pairs, in check_representation order, whose bracket
    has a nonzero non-central part."""
    table = verify.s2a_table(ZERO)
    basis = [
        (s, n) for s in verify.S2A_TABLE_SYMBOLS for n in range(-window, window + 1)
    ]
    return [
        (sa, na, sb, nb)
        for i, (sa, na) in enumerate(basis)
        for sb, nb in basis[i:]
        if table(sa, na, sb, nb).coeffs
    ]


def _witness_matches(witness: dict, lhs, rhs) -> bool:
    """The recomputed sides differ and print as the report says."""
    return (
        lhs != rhs
        and verify.format_vector(lhs) == witness["lhs"]
        and verify.format_vector(rhs) == witness["rhs"]
    )


def chain_defect_job(a: int, b: int, k: int) -> Job:
    """Chain identities over sl(2) with c[a][b][k] raised by one."""
    spec = liealg.builtin_sl2_orthonormal()
    consts = [[list(col) for col in row] for row in spec.c]
    consts[a][b][k] = consts[a][b][k] + ONE
    backend = liealg.loop_backend(
        liealg.LieAlgebraSpec(consts, spec.form, f"sl2~c[{a}][{b}][{k}]+1")
    )

    def call():
        return _reports(
            verify.check_chain_identities(backend, DEFECT_BOX, DEFECT_WINDOW)
        )

    def op(label: str):
        if label == "d":
            return fieldops.build_differential_d(backend)
        if label == "kz":
            return fieldops.build_koszul_h(backend)
        fam, j, n = re.fullmatch(r"(theta|tau)\((\d+),(-?\d+)\)", label).groups()
        if fam == "theta":
            return fieldops.build_theta_adjoint(backend, int(j), int(n))
        return verify.GeneratorOperator(fock.GenKey("t", int(j), int(n)))

    def replay(check: str, witness: dict) -> bool:
        v = fock.FockVector.of(fock.parse_monomial(witness["monomial"]))
        pair = witness["pair"]
        if "." in pair:
            x, y = pair.split(".")
        else:
            x, y = pair[1:-1].split(",", 1)
        lhs = fieldops.super_commutator(op(x), op(y)).apply(v)
        rhs = fock.FockVector()
        if check == "chain:homotopy":
            rhs = op("theta" + y[3:]).apply(v)
        return _witness_matches(witness, lhs, rhs)

    return Job(f"chain:c[{a}][{b}][{k}]+1", call, replay)


def _parse_pair(pair: str):
    m = re.fullmatch(r"\[(\w+)\[(-?\d+)\],(\w+)\[(-?\d+)\]\]", pair)
    sa, na, sb, nb = m.groups()
    return sa, int(na), sb, int(nb)


def _replay_relation(witness: dict, builder, bracket_fn, charge) -> bool:
    sa, na, sb, nb = _parse_pair(witness["pair"])
    v = fock.FockVector.of(fock.parse_monomial(witness["monomial"]))
    lhs = fieldops.super_commutator(builder(sa, na), builder(sb, nb)).apply(v)
    el = bracket_fn(sa, na, sb, nb)
    rhs = v.scale(el.central * charge)
    for (sym, n), c in el.items():
        rhs = rhs + builder(sym, n).apply(v).scale(c)
    return _witness_matches(witness, lhs, rhs)


# The representation defects build their backend and operator families
# inside call(), as the CLI suites do, so every pass starts from the state
# a fresh verdict has: a builder caches its operators, and each operator
# memoizes its columns.  The replay builds its own.


def charge_defect_job() -> Job:
    """N=2 relations on loop:sl2 with the claimed central charge off by one."""

    def claim():
        backend = liealg.parse_backend(DEFECT_BACKEND)
        return backend, verify.n2_builder(backend), verify.claimed_charge(backend) + ONE

    def call():
        backend, builder, charge = claim()
        report = verify.check_representation(
            "n2:relations",
            verify.n2_table,
            builder,
            charge,
            backend.dim,
            DEFECT_BOX,
            CHARGE_WINDOW,
            verify.N2_TABLE_SYMBOLS,
            params=(("backend", backend.name), ("charge", format_qi(charge))),
        )
        return _reports([report])

    def replay(check: str, witness: dict) -> bool:
        _, builder, charge = claim()
        return _replay_relation(witness, builder, verify.n2_table, charge)

    return Job("n2:charge+1", call, replay)


def flip_defect_job(pair) -> Job:
    """S'(2,0) relations on loop:sl2 with one table entry sign-flipped."""
    table = verify.s2a_table(ZERO)

    def flipped(sa, na, sb, nb):
        el = table(sa, na, sb, nb)
        return el.scale(QI(-1)) if (sa, na, sb, nb) == pair else el

    sa, na, sb, nb = pair
    label = f"[{sa}[{na}],{sb}[{nb}]]"
    symbols = tuple(dict.fromkeys((sa, sb) + verify.S2A_TABLE_SYMBOLS))

    def claim():
        backend = liealg.parse_backend(DEFECT_BACKEND)
        return backend, verify.s2a_builder(backend, ZERO), verify.claimed_charge(backend)

    def call():
        backend, builder, charge = claim()
        report = verify.check_representation(
            "s2a:relations",
            flipped,
            builder,
            charge,
            backend.dim,
            DEFECT_BOX,
            DEFECT_WINDOW,
            symbols,
            params=(("alpha", "0"), ("backend", backend.name), ("flipped", label)),
        )
        return _reports([report])

    def replay(check: str, witness: dict) -> bool:
        _, builder, charge = claim()
        return _replay_relation(witness, builder, flipped, charge)

    return Job(f"s2a:flip{label}", call, replay)


def defect_jobs(seed: int) -> list:
    rng = random.Random(seed)
    a, b, k = rng.choice(constant_candidates())
    pair = rng.choice(table_pairs())
    return [chain_defect_job(a, b, k), charge_defect_job(), flip_defect_job(pair)]


# -- workloads ---------------------------------------------------------

WORKLOADS = ("relations", "defects", "kahler", "tables")


def build(workload: str, seed: int) -> list:
    """The workload's jobs for this seed.  On the fixed-input workloads the
    seed only orders the jobs within a pass."""
    if workload == "defects":
        return defect_jobs(seed)
    lines = {
        "relations": RELATION_LINES,
        "kahler": KAHLER_LINES,
        "tables": TABLE_LINES,
    }[workload]
    lines = list(lines)
    random.Random(seed).shuffle(lines)
    return [cli_job(line) for line in lines]


# -- reference checks --------------------------------------------------


def check_defect_report(job: Job, data: bytes) -> list:
    """Problems with a defect job's report: a suite that passes, a failure
    without a witness, or a witness that does not replay."""
    problems = []
    docs = json.loads(data)
    if not any(d["status"] == "fail" for d in docs):
        problems.append(f"{job.name}: no suite failed")
    for d in docs:
        if d["status"] != "fail":
            continue
        w = d.get("witness")
        if w is None:
            problems.append(f"{job.name}: {d['check']} failed without a witness")
        elif not job.replay(d["check"], w):
            problems.append(f"{job.name}: {d['check']} witness does not replay")
    return problems
