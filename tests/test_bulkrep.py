import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from sweil.scalars import ONE
from sweil.liealg import (
    LieAlgebraSpec,
    abelian,
    builtin_sl2_orthonormal,
    fmu_backend,
    loop_backend,
)
from sweil.fock import Box
from sweil.bulkrep import BulkEngine
from sweil.verify import (
    N2_TABLE_SYMBOLS,
    S2A_TABLE_SYMBOLS,
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


def _representation(backend, family, window, charge=None):
    if family == "n2":
        builder, table, symbols = n2_builder(backend), n2_table, N2_TABLE_SYMBOLS
    else:
        builder = s2a_builder(backend, 0)
        table, symbols = s2a_table(0), S2A_TABLE_SYMBOLS
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
    "chain-sl2": lambda: check_chain_identities(SL2, SMALL, window=1),
    "chain-wrong-constant": lambda: check_chain_identities(
        _sl2_wrong_constant(), SMALL, window=1
    ),
    "d-compat-sl2": lambda: [check_d_compatibility(SL2, SMALL, window=0)],
    "relative-derext-sl2": lambda: check_relative_derext(
        SL2, Box(emax=1, b0max=0), window=1
    ),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_checksum_certificate_matches_exact_path(suite, monkeypatch):
    """Every relation suite gives the same verdicts and witnesses whether
    a pass is certified by the modular checksum or by the exact
    grouped-stream comparison that runs when the checksum is bypassed."""
    shipped = SUITES[suite]()
    monkeypatch.setattr(
        BulkEngine, "_checksum_zero", lambda self, *args: False
    )
    exact = SUITES[suite]()
    assert shipped == exact
    failed = [r for r in shipped if not r.passed]
    if "wrong" in suite:
        assert failed and all(r.witness for r in failed)
    else:
        assert not failed


def test_bounds_hold_without_asserts():
    """The int64 bounds are explicit raises, so python -O keeps them."""
    code = textwrap.dedent(
        """
        import numpy as np
        from sweil.bulkrep import _group_keyed

        big = np.array([1 << 61, 1 << 61], dtype=np.int64)
        cols = np.zeros(2, dtype=np.int64)
        keys = np.ones(2, dtype=np.uint64)
        try:
            _group_keyed(cols, keys, keys, big, np.zeros(2, dtype=np.int64))
        except OverflowError:
            print("raised")
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert out.stdout.strip() == "raised"
