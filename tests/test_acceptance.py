"""Acceptance gate: one PASS/FAIL line per README criterion.

Each criterion runs the suites behind it at small truncation boxes, through
the same entry points as the CLI, so the whole gate takes seconds.  Run
with ``python3 -m pytest -s tests/test_acceptance.py`` to see the lines,
or directly with ``PYTHONPATH=src python3 tests/test_acceptance.py``.
"""

from __future__ import annotations

import functools
import io
import json

from sweil import cli
from sweil.cohomology import (
    cohomology_table,
    exact_rank_kernel,
    koszul_single_pair_report,
)
from sweil.liealg import dense_rank, parse_backend


def dense_rank_oracle(mat) -> int:
    """Rank of a sparse matrix by naive dense elimination."""
    return dense_rank(
        [[mat.get(i, j) for j in range(mat.ncols)] for i in range(mat.nrows)]
    )


def _run(line: str):
    """Exit code and report bytes of one CLI line."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(line.split()))
    buf = io.BytesIO()
    return cli.run(cfg, buf), buf.getvalue()


@functools.lru_cache(maxsize=None)
def _reports(line: str):
    """The JSON report documents of one CLI line, run once per process."""
    return json.loads(_run(line + " --format json")[1])


def _failures(lines, checks=None):
    """Checks that do not pass in the JSON reports of ``lines``, keeping
    only check names that start with one of ``checks`` when given; a
    criterion whose reports hold no selected check fails too."""
    bad, seen = [], 0
    for line in lines:
        for doc in _reports(line):
            if checks and not doc["check"].startswith(checks):
                continue
            seen += 1
            if doc["status"] != "pass":
                bad.append(f"{doc['check']} ({line})")
    return bad if seen else [f"no {checks or 'checks'} reported"]


N2_LINES = (
    "verify-n2 --backend fmu:1/2:0 --emax 2 --b0max 1 --window 1",
    "verify-n2 --backend loop:sl2 --emax 1 --b0max 1 --window 1",
)
S2A_LINES = (
    "verify-s2a --backend loop:sl2 --alpha 0 --emax 1 --b0max 1 --window 0",
    "verify-s2a --backend loop:abelian:2 --alpha 1/2 --emax 2 --b0max 1 --window 0",
)
TABLE_LINES = (
    "sca-tables --alpha 1 --window 1",
    "sca-tables --alpha 1/2 --window 1",
)


def central_charges():
    return _failures(N2_LINES + S2A_LINES, ("n2:central-charge", "s2a:central-charge"))


def relation_suites():
    return _failures(N2_LINES + S2A_LINES, ("n2:relations", "s2a:relations"))


def chain_identities():
    return _failures(
        (
            "verify-chain --backend loop:sl2 --emax 1 --b0max 1 --window 1",
            "verify-chain --backend witt --emax 3 --b0max 2 --window 2",
        )
    )


def structure_constant_oracles():
    return _failures(
        TABLE_LINES, ("sca:table-vs-fields", "sca:super-jacobi", "sca:lowering-field")
    )


def spectral_flow():
    return _failures(TABLE_LINES, ("sca:spectral-flow",))


def relative_subcomplex():
    return _failures(
        ("verify-relative --backend loop:abelian:1 --emax 2 --b0max 1 --window 1",)
    )


def kahler_package():
    return _failures(("kahler --backend loop:abelian:2 --emax 1",))


def koszul_acyclicity():
    bad = []
    for name in ("loop:abelian:1", "loop:sl2"):
        bad += [f"{name}: {f}" for f in koszul_single_pair_report(
            parse_backend(name), max_excitation=3, mode_range=1
        )]
    return bad


def cohomology_soundness():
    """Exact ranks agree with the dense oracle, and each row's incoming
    rank is the outgoing rank of the row below it (d maps between
    consecutive Deg_Lambda pieces)."""
    backend = parse_backend("loop:sl2")
    rows, matrices = cohomology_table(backend, range(0, 2), range(-1, 2), False)
    bad = [
        f"matrix {j}: rank differs from the dense oracle"
        for j, m in enumerate(matrices)
        if exact_rank_kernel(m)[0] != dense_rank_oracle(m)
    ]
    by_key = {row.key(): row for row in rows}
    for (e, s, l), row in by_key.items():
        if row.coh_dim < 0 or row.coh_dim != row.dim - row.rank_in - row.rank_out:
            bad.append(f"row {(e, s, l)}: inconsistent dimensions")
        below = by_key.get((e, s, l - 1))
        if below is not None and below.rank_out != row.rank_in:
            bad.append(f"row {(e, s, l)}: rank_in != rank_out below")
    return bad if rows else ["empty table"]


def determinism():
    bad = []
    for line in (
        S2A_LINES[0] + " --format json",
        "cohomology --backend loop:abelian:1 --rel --emax 2 --format csv",
    ):
        if _run(line) != _run(line):
            bad.append(line)
    return bad


CRITERIA = (
    ("central charges", central_charges),
    ("relation suites", relation_suites),
    ("chain identities", chain_identities),
    ("structure-constant oracles", structure_constant_oracles),
    ("spectral flow", spectral_flow),
    ("relative subcomplex", relative_subcomplex),
    ("Kähler package", kahler_package),
    ("Koszul acyclicity", koszul_acyclicity),
    ("cohomology-engine soundness", cohomology_soundness),
    ("determinism", determinism),
)


def gate():
    """Print one line per criterion; return the names that failed."""
    failed = []
    for name, check in CRITERIA:
        bad = check()
        print(("FAIL" if bad else "PASS") + f"  {name}" + (f": {bad}" if bad else ""))
        if bad:
            failed.append(name)
    return failed


def test_acceptance():
    assert gate() == []


if __name__ == "__main__":
    raise SystemExit(1 if gate() else 0)
