import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sweil.scalars import ONE
from sweil.liealg import (
    CheckReport,
    LieAlgebraSpec,
    builtin_sl2_orthonormal,
    loop_backend,
    parse_backend,
)
from sweil.fock import Box
from sweil.fieldops import SlotSpec, TermShape
from sweil.cohomology import GradedPiece, Matrix, PieceRow
from sweil.cli import (
    CSV_HEADER,
    UsageError,
    build_parser,
    emit_report,
    emit_rows,
    main,
    resolve_config,
    run,
)
from sweil.verify import RelationReport, check_chain_identities


def capture(argv):
    parser = build_parser()
    cfg = resolve_config(parser.parse_args(argv))
    buf = io.BytesIO()
    status = run(cfg, out=buf)
    return status, buf.getvalue()


def test_empty_report_is_valid_document():
    assert json.loads(emit_report([], "json")) == []
    assert emit_report([], "text") == b"\n"
    rows = emit_rows([], "csv").decode().splitlines()
    assert rows == [",".join(CSV_HEADER)]


def test_failing_check_json_carries_witness_monomial():
    good = builtin_sl2_orthonormal()
    c = [[[x for x in col] for col in row] for row in good.c]
    c[0][1][2] = c[0][1][2] + ONE
    bad = loop_backend(LieAlgebraSpec(c, good.form, "sl2-mutated"))
    reports = check_chain_identities(bad, Box(emax=1, b0max=1), window=1)
    docs = json.loads(emit_report(reports, "json"))
    failed = [d for d in docs if d["status"] == "fail"]
    assert failed
    assert all("witness" in d and "monomial" in d["witness"] for d in failed)


def test_csv_header_matches_schema():
    assert CSV_HEADER == (
        "E",
        "DegS",
        "DegLambda",
        "dim",
        "rank_in",
        "rank_out",
        "coh_dim",
        "gram_signature",
        "harmonic_dim",
    )


def test_sca_tables_passes_and_exits_zero():
    status, out = capture(
        ["sca-tables", "--alpha", "1/2", "--window", "1", "--format", "json"]
    )
    assert status == 0
    docs = json.loads(out)
    assert docs and all(d["status"] == "pass" for d in docs)
    assert all(d["millis"] == 0 for d in docs)


def test_abelian_relative_cohomology_csv():
    status, out = capture(
        [
            "cohomology",
            "--backend",
            "loop:abelian:1",
            "--rel",
            "--emax",
            "2",
            "--b0max",
            "1",
            "--format",
            "csv",
        ]
    )
    assert status == 0
    lines = out.decode().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[6] == cells[3]  # coh_dim == dim: the differential is 0


def test_negative_fraction_alpha_must_join_its_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sca-tables", "--alpha", "-2/7", "--window", "1"])
    assert exc.value.code == 2
    assert "--alpha: expected one argument" in capsys.readouterr().err
    status, out = capture(["sca-tables", "--alpha=-2/7", "--window", "1"])
    assert status == 0
    assert b"alpha=-2/7" in out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["verify-s2a", "--backend", "bogus"]) == 2
    assert main(["verify-chain", "--emax", "-1"]) == 2
    assert main(["verify-chain", "--config", "/nonexistent/path"]) == 2
    # a flag the command does not read, on the command line or as a
    # config key
    for argv in (["kahler", "--b0max", "5"], ["sca-tables", "--backend", "witt"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("backend = witt\n")
    assert main(["sca-tables", "--config", str(cfgfile)]) == 2
    cfgfile.write_text("rel = yes\n")
    assert main(["verify-chain", "--config", str(cfgfile)]) == 2
    capsys.readouterr()
    # a backend the subcommand cannot run on, given as a flag or a config
    # value, is rejected before any work with a one-line error
    for argv in (
        ["kahler", "--backend", "witt"],
        ["kahler", "--backend", "fmu:1/2:0"],
        ["verify-s2a", "--backend", "witt"],
        ["verify-s2a", "--backend", "fmu:1/2:0"],
        ["verify-n2", "--backend", "witt"],
        ["verify-chain", "--backend", "fmu:1/2:0"],
        ["verify-relative", "--backend", "fmu:1/2:0"],
        ["verify-relative", "--backend", "witt"],
        ["cohomology", "--backend", "fmu:1/2:0"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "backends, not" in err, argv
    cfgfile.write_text("backend = witt\n")
    assert main(["kahler", "--config", str(cfgfile)]) == 2
    assert "kahler runs on loop backends" in capsys.readouterr().err


def test_csv_rejected_for_relation_suites():
    assert (
        main(
            [
                "verify-chain",
                "--backend",
                "loop:abelian:1",
                "--emax",
                "0",
                "--format",
                "csv",
            ]
        )
        == 2
    )


def test_config_file_supplies_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "backend = loop:abelian:1\nemax = 1\nb0max = 1\nwindow = 1\n"
        "format = json\n"
    )
    parser = build_parser()
    cfg = resolve_config(
        parser.parse_args(
            ["verify-chain", "--config", str(cfgfile), "--window", "0"]
        )
    )
    assert cfg["backend"].name == "loop:abelian:1"
    assert cfg["emax"] == 1
    assert cfg["fmt"] == "json"
    # explicit flags beat the config file
    assert cfg["window"] == 0


def test_flag_equal_to_default_beats_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("emax = 1\nformat = json\nrel = yes\n")
    parser = build_parser()
    # --emax 3 and --format text are the defaults, but given explicitly
    cfg = resolve_config(
        parser.parse_args(
            ["cohomology", "--emax", "3", "--format", "text",
             "--config", str(cfgfile)]
        )
    )
    assert cfg["emax"] == 3 and cfg["box"].emax == 3
    assert cfg["fmt"] == "text"
    assert cfg["rel"] is True  # unset flag: the config file supplies it
    assert cfg["b0max"] == 2  # in neither: the built-in default


def test_bad_config_value_is_usage_error(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("emax = three\n")
    assert main(["verify-chain", "--config", str(cfgfile)]) == 2


def test_config_keys_are_flag_names(tmp_path, capsys):
    """``format`` names the --format flag; ``fmt``, the key's internal
    name, is an unknown key."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("fmt = json\n")
    assert main(["verify-chain", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == "error: unknown config key: fmt\n"
    cfgfile.write_text("format = json\n")
    args = build_parser().parse_args(["verify-chain", "--config", str(cfgfile)])
    assert resolve_config(args)["fmt"] == "json"


def test_config_repeated_key_is_usage_error(tmp_path, capsys):
    """A key that a config file gives twice is a usage error naming the
    key, whether or not the two values agree, so that no setting is
    silently dropped."""
    cfgfile = tmp_path / "run.cfg"
    for text in ("emax = 1\nemax = 0\n", "emax = 1\n# again\n emax=1\n"):
        cfgfile.write_text(text)
        assert main(["verify-chain", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == "error: duplicate config key: emax\n"
    args = build_parser().parse_args(["verify-chain", "--config", str(cfgfile)])
    with pytest.raises(UsageError, match="duplicate config key: emax"):
        resolve_config(args)


def test_config_booleans_are_strict(tmp_path, capsys):
    """A boolean key takes 1/0/true/false/yes/no in any case; any other
    value is a usage error, not False."""
    cfgfile = tmp_path / "run.cfg"
    parser = build_parser()
    for raw, want in (("1", True), ("TRUE", True), ("Yes", True),
                      ("0", False), ("False", False), ("no", False)):
        cfgfile.write_text(f"rel = {raw}\n")
        args = parser.parse_args(["cohomology", "--config", str(cfgfile)])
        assert resolve_config(args)["rel"] is want, raw
    for raw in ("maybe", "", "2", "on"):
        cfgfile.write_text(f"rel = {raw}\n")
        assert main(["cohomology", "--config", str(cfgfile)]) == 2, raw
        assert "bad config value rel" in capsys.readouterr().err, raw


def test_verify_n2_reports_central_charge():
    status, out = capture(
        ["verify-n2", "--backend", "fmu:1/2:0", "--emax", "1", "--b0max", "0",
         "--window", "0", "--format", "json"]
    )
    assert status == 0
    docs = json.loads(out)
    assert docs[0]["check"] == "n2:central-charge"
    assert docs[0]["params"]["claimed"] == docs[0]["params"]["extracted"]
    assert all(d["status"] == "pass" and d["millis"] == 0 for d in docs)


def test_python_dash_m_matches_run():
    argv = ["verify-chain", "--backend", "witt", "--emax", "1", "--b0max", "0",
            "--window", "1"]
    status, expected = capture(argv)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "sweil", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert status == 0
    assert out.returncode == 0, out.stderr
    assert out.stdout == expected


def _fresh_interpreter(code: str) -> list:
    """The words ``code`` prints when run in a new interpreter on src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_numpy_loads_only_with_the_bulk_engine():
    """A fresh interpreter runs sca-tables, cohomology and kahler, and
    reads sweil.stats, without importing numpy; the first relation suite
    loads it."""
    code = """
import io, sys
import sweil, sweil.cli as cli, sweil.stats as stats

def run(line):
    cfg = cli.resolve_config(cli.build_parser().parse_args(line.split()))
    return cli.run(cfg, out=io.BytesIO())

for line in (
    "sca-tables --alpha 1 --window 0",
    "cohomology --backend loop:abelian:1 --rel --emax 1",
    "kahler --backend loop:abelian:1 --emax 1",
):
    stats.snapshot()
    print(run(line), "numpy" in sys.modules)
print(run("verify-chain --backend witt --emax 1 --b0max 0 --window 1"),
      "numpy" in sys.modules)
"""
    assert _fresh_interpreter(code) == ["0", "False"] * 3 + ["0", "True"]


def test_cli_start_skips_dataclasses_csv_and_cohomology():
    """``import sweil, sweil.cli, sweil.stats`` loads neither dataclasses
    (with the inspect, ast, dis and tokenize chain it pulls in) nor csv
    nor json, and leaves sweil.cohomology an unexecuted lazy module.
    sca-tables keeps it so, kahler executes it, CSV output loads csv and
    JSON output loads json; reading sweil.stats loads none of them."""
    code = """
import io, sys, types
import sweil, sweil.cli as cli, sweil.stats as stats

def run(line):
    cfg = cli.resolve_config(cli.build_parser().parse_args(line.split()))
    return cli.run(cfg, out=io.BytesIO())

def state():
    stats.snapshot()
    mods = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "json")
    loaded = ",".join(m for m in mods if m in sys.modules) or "-"
    # type() reads no module attribute, so it executes no lazy module
    lazy = type(sys.modules["sweil.cohomology"]) is not types.ModuleType
    print(loaded, lazy)

state()
run("sca-tables --alpha 1 --window 0")
state()
run("kahler --backend loop:abelian:1 --emax 1")
state()
run("cohomology --backend loop:abelian:1 --rel --emax 1 --format csv")
state()
run("sca-tables --alpha 1 --window 0 --format json")
state()
"""
    assert _fresh_interpreter(code) == [
        "-", "True", "-", "True", "-", "False", "csv", "False", "csv,json", "False"
    ]


_WITT = parse_backend("witt")
_ZERO_REPR = "QI(Fraction(0, 1), Fraction(0, 1))"
_WITT_REPR = (
    f"GradedBackend(kind='witt', spec=None, lam={_ZERO_REPR}, "
    f"mu={_ZERO_REPR}, name='witt')"
)
_EMPTY = Matrix(0, 0)
# each record with the repr its earlier dataclass form printed; GradedPiece
# holds an unhashable Matrix, so it is unhashable as it was
RECORDS = (
    (
        CheckReport("jacobi", False, (0, 1, 2), "antisymmetry"),
        "CheckReport(name='jacobi', passed=False, witness=(0, 1, 2), "
        "detail='antisymmetry')",
    ),
    (_WITT, _WITT_REPR),
    (Box(emax=1), "Box(emax=1, b0max=0, zero_fermions_allowed=True)"),
    (
        TermShape(1, (SlotSpec("b", 0, 1, (1,)),), len),
        "TermShape(nvars=1, slots=(SlotSpec(family='b', comp=0, const=1, "
        "coeffs=(1,)),), coeff=<built-in function len>, normal=True, "
        "filters=())",
    ),
    (
        RelationReport("chain", (("backend", "witt"),), "E<=1 B0<=0", "pass"),
        "RelationReport(check='chain', params=(('backend', 'witt'),), "
        "box='E<=1 B0<=0', status='pass', witness=None)",
    ),
    (
        GradedPiece(_WITT, 0, 0, 0, True, (), _EMPTY),
        f"GradedPiece(backend={_WITT_REPR}, energy=0, deg_s=0, deg_l=0, "
        f"relative=True, ambient=(), basis={_EMPTY!r})",
    ),
    (
        PieceRow(0, 0, 0, 1, 0, 0, 1),
        "PieceRow(energy=0, deg_s=0, deg_l=0, dim=1, rank_in=0, rank_out=0, "
        "coh_dim=1, gram_signature='', harmonic_dim='')",
    ),
)


@pytest.mark.parametrize(
    "record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_records_are_immutable_values(record, text):
    assert repr(record) == text
    copy = type(record)(*record)
    assert copy == record and copy is not record
    first = record._fields[0]
    assert record._replace(**{first: "other"}) != record
    if isinstance(record, GradedPiece):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, first, "other")


def test_report_truth_is_its_verdict():
    assert bool(CheckReport("jacobi", True)) is True
    assert bool(CheckReport("jacobi", False, (0, 1, 2))) is False
    ok = RelationReport("chain", (), "E<=1 B0<=0", "pass")
    bad = ok._replace(status="fail", witness=(("pair", "[d,d]"),))
    assert bool(ok) is ok.passed is True
    assert bool(bad) is bad.passed is False
