"""sweil.stats: the phase spans and counts that sweil records itself."""

import io
import json
import re

import pytest

from sweil import cli, stats
from sweil.bulkrep import BulkEngine
from sweil.cohomology import classical_operator
from sweil.fieldops import (
    FieldOperator,
    build_differential_d,
    build_koszul_h,
)
from sweil.fock import Box, enumerate_box
from sweil.liealg import parse_backend
from sweil.scalars import ZERO
from sweil.sca import KAHLER_SYMBOLS
from sweil.verify import FastEngine, s2a_builder

# one line of each command kind, each as small as it runs
LINES = (
    "verify-s2a --backend loop:abelian:1 --alpha 0 --emax 1 --b0max 1 --window 0",
    "verify-n2 --backend fmu:1/2:0 --emax 1 --b0max 1 --window 0",
    "verify-chain --backend witt --emax 1 --b0max 0 --window 1",
    "verify-relative --backend loop:abelian:1 --emax 1 --b0max 1 --window 0",
    "sca-tables --alpha 1 --window 0",
    "cohomology --backend loop:abelian:1 --rel --emax 1",
    "kahler --backend loop:abelian:1 --emax 1",
)

# every name the module docstring lists, one a line
DOCUMENTED = set(
    re.findall(r"^  ((?:fock|bulkrep|cohomology|verify)\.[\w.]+)", stats.__doc__, re.M)
)


def run(line) -> bytes:
    cfg = cli.resolve_config(cli.build_parser().parse_args(line.split()))
    buf = io.BytesIO()
    assert cli.run(cfg, buf) == 0
    return buf.getvalue()


def names(snap) -> set:
    return set(snap["spans"]) | set(snap["counts"])


def test_every_documented_name_is_recorded():
    assert len(DOCUMENTED) == 26
    stats.reset()
    for line in LINES:
        run(line)
    snap = stats.snapshot()
    assert names(snap) == DOCUMENTED
    for calls, seconds in snap["spans"].values():
        assert calls > 0 and seconds >= 0
    assert all(n > 0 for n in snap["counts"].values())
    # the snapshot is one JSON record
    assert json.loads(json.dumps(snap)) == snap


@pytest.mark.parametrize("line", [LINES[1], LINES[-1]], ids=["bulk", "kahler"])
def test_identical_runs_record_equal_counts(line):
    snaps = []
    for _ in range(2):
        stats.reset()
        run(line)
        snaps.append(stats.snapshot())
    a, b = snaps
    assert a["counts"] == b["counts"]
    assert {k: v[0] for k, v in a["spans"].items()} == {
        k: v[0] for k, v in b["spans"].items()
    }


def test_reset_empties_the_table():
    run(LINES[2])
    assert names(stats.snapshot())
    stats.reset()
    assert stats.snapshot() == {"spans": {}, "counts": {}}


def test_span_and_count_accumulate():
    stats.reset()
    for _ in range(3):
        with stats.span("t.span"):
            stats.count("t.count", 2)
    stats.count("t.count")
    snap = stats.snapshot()
    assert snap["spans"]["t.span"][0] == 3
    assert snap["counts"] == {"t.count": 7}
    # a snapshot is a copy
    snap["spans"]["t.span"][0] = 0
    assert stats.snapshot()["spans"]["t.span"][0] == 3
    with pytest.raises(ValueError):
        with stats.span("t.raises"):
            raise ValueError
    assert stats.snapshot()["spans"]["t.raises"][0] == 1


def test_bulk_counts_equal_the_engine_attributes():
    backend = parse_backend("loop:sl2")
    engine = BulkEngine(backend.dim, Box(emax=1, b0max=1))
    engine.register("d", build_differential_d(backend))
    engine.register("h", build_koszul_h(backend))
    stats.reset()
    engine.prepare()
    counts = stats.snapshot()["counts"]
    assert counts["bulkrep.n1"] == engine.n1
    assert counts["bulkrep.box_matrix_entries"] == sum(
        len(engine._box_mats[name][0]) for name in engine._ops
    )
    assert counts["bulkrep.table_rows"] == len(engine._table.re)
    assert counts["bulkrep.level1_row_bytes"] == engine.n1 * engine.universe.nslots
    # prepare runs once per engine
    engine.prepare()
    assert stats.snapshot()["counts"] == counts


def test_package_counts_equal_the_engine_memos(monkeypatch):
    """The package engine's counts are its memo sizes: the columns its
    FastOps formed, one FieldOperator application per leaf column, and
    one ``_slot_bounds`` entry per monomial a leaf was applied to."""
    backend = parse_backend("loop:abelian:2")
    build = s2a_builder(backend, ZERO)
    engine = FastEngine(relative=True)
    fops = [engine.fastop(classical_operator(build, s)) for s in KAHLER_SYMBOLS]
    applied = []
    apply_monomial = FieldOperator.apply_monomial

    def counted(self, m, *args):
        applied.append(m)
        return apply_monomial(self, m, *args)

    monkeypatch.setattr(FieldOperator, "apply_monomial", counted)
    box = Box(emax=1, b0max=1, zero_fermions_allowed=False)
    for m in enumerate_box(backend.dim, box):
        i = engine.intern(m)
        for f in fops:
            f.col(i)
    stats.reset()
    engine.count_sizes()
    counts = stats.snapshot()["counts"]
    assert counts["verify.FastEngine.columns"] == sum(
        len(f.cols) for f in engine._ops.values()
    )
    assert counts["verify.FastEngine.leaf_applications"] == len(applied) > 0
    assert counts["verify.FastEngine.slot_bounds"] == len(set(applied))


@pytest.mark.parametrize("line", [LINES[1], LINES[-1]], ids=["bulk", "kahler"])
def test_stdout_does_not_depend_on_reading_the_table(line):
    stats.reset()
    before = run(line)
    json.dumps(stats.snapshot())
    stats.reset()
    assert run(line) == before
    assert run(line) == before
