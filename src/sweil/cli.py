"""Batch entry point: configure a backend and box budgets, run the
verification suites or the cohomology tables, and emit deterministic
machine-readable reports.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries a witness), 2 on usage errors.  Reports are byte-identical across
runs: work is scheduled sequentially in a fixed order and timing fields
are zeroed in the emitted output.
"""

from __future__ import annotations

import argparse
import io
import sys
from itertools import product

from .scalars import QI, format_qi, parse_qi
from .liealg import StructureError, parse_backend
from .fock import Box
from .sca import (
    N2_SYMBOLS,
    SCAElement,
    SYMBOLS,
    SuperVectorField,
    derext_action,
    n2_bracket,
    remark_F_field,
    s2a_basis_bracket,
    s2a_bracket,
    s_alpha_obstruction,
    spectral_flow,
    super_jacobi_failure,
    vf_bracket,
    vf_realize,
)
from .verify import (
    RelationReport,
    check_chain_identities,
    check_d_compatibility,
    check_relative_derext,
    check_representation,
    claimed_charge,
    extract_central_charge,
    n2_builder,
    n2_table,
    s2a_builder,
    s2a_table,
)
from . import cohomology

# each command with the configuration keys it reads; it takes these flags
# (plus --config) and no others
COMMANDS = {
    "verify-n2": ("backend", "emax", "b0max", "window", "fmt"),
    "verify-s2a": ("backend", "alpha", "emax", "b0max", "window", "fmt"),
    "verify-chain": ("backend", "emax", "b0max", "window", "fmt"),
    "verify-relative": ("backend", "emax", "b0max", "window", "fmt"),
    "sca-tables": ("alpha", "window", "fmt"),
    "cohomology": ("backend", "emax", "b0max", "rel", "fmt"),
    "kahler": ("backend", "emax", "fmt"),
}

# backend kinds each command that takes --backend can run on
BACKEND_KINDS = {
    "verify-n2": ("loop", "fmu"),
    "verify-s2a": ("loop",),
    "verify-chain": ("loop", "witt"),
    "verify-relative": ("loop",),
    "cohomology": ("loop", "witt"),
    "kahler": ("loop",),
}

CSV_HEADER = (
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


class UsageError(ValueError):
    pass


# -- report normalization ----------------------------------------------


def _report_dict(report) -> dict:
    """Uniform report record.  No run time is measured: millis is always
    0, kept so that the document layout stays fixed and equal
    configurations emit byte-identical documents."""
    if isinstance(report, RelationReport):
        out = {
            "check": report.check,
            "params": dict(report.params),
            "box": report.box,
            "status": report.status,
            "millis": 0,
        }
        if report.witness is not None:
            out["witness"] = dict(report.witness)
        return out
    # structural CheckReport
    out = {
        "check": report.name,
        "params": {},
        "box": report.detail,
        "status": "pass" if report.passed else "fail",
        "millis": 0,
    }
    if report.witness is not None:
        out["witness"] = {"value": str(report.witness)}
    return out


def emit_report(results, fmt: str) -> bytes:
    """Serialize check reports (json/text) or table rows (csv) with a
    stable field order; equal inputs give byte-identical output."""
    if fmt == "json":
        import json

        docs = [_report_dict(r) for r in results]
        return (json.dumps(docs, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "text":
        lines = []
        for r in results:
            d = _report_dict(r)
            line = f"{d['status'].upper():4s} {d['check']}"
            if d["box"]:
                line += f" [{d['box']}]"
            if d["params"]:
                line += " " + " ".join(
                    f"{k}={v}" for k, v in sorted(d["params"].items())
                )
            if "witness" in d:
                line += " witness: " + " ".join(
                    f"{k}={v}" for k, v in sorted(d["witness"].items())
                )
            lines.append(line)
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format: {fmt}")


def emit_rows(rows, fmt: str) -> bytes:
    """Cohomology-table rows; CSV follows the fixed schema."""
    records = [
        {
            "E": r.energy,
            "DegS": r.deg_s,
            "DegLambda": r.deg_l,
            "dim": r.dim,
            "rank_in": r.rank_in,
            "rank_out": r.rank_out,
            "coh_dim": r.coh_dim,
            "gram_signature": r.gram_signature,
            "harmonic_dim": r.harmonic_dim,
        }
        for r in rows
    ]
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for rec in records:
            w.writerow([rec[k] for k in CSV_HEADER])
        return buf.getvalue().encode()
    if fmt == "json":
        import json

        return (json.dumps(records, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "text":
        lines = ["  ".join(CSV_HEADER)]
        for rec in records:
            lines.append("  ".join(str(rec[k]) for k in CSV_HEADER))
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format: {fmt}")


# -- suites -------------------------------------------------------------


def _central_charge_report(name, builder, backend) -> RelationReport:
    claimed = claimed_charge(backend)
    extracted = extract_central_charge(builder)
    return RelationReport(
        name,
        tuple(
            sorted(
                {
                    "backend": backend.name,
                    "claimed": format_qi(claimed),
                    "extracted": format_qi(extracted),
                }.items()
            )
        ),
        "vacuum probe",
        "pass" if claimed == extracted else "fail",
    )


def suite_relations(cfg):
    """verify-n2 and verify-s2a: the family's central charge on the vacuum,
    then its bracket table over the mode window."""
    backend = cfg["backend"]
    if cfg["command"] == "verify-n2":
        family, table, symbols, params = "n2", n2_table, N2_SYMBOLS, ()
        builder = n2_builder(backend)
    else:
        alpha = cfg["alpha"]
        family, table, symbols = "s2a", s2a_table(alpha), SYMBOLS
        params = (("alpha", format_qi(alpha)),)
        builder = s2a_builder(backend, alpha)
    return [
        _central_charge_report(f"{family}:central-charge", builder, backend),
        check_representation(
            f"{family}:relations",
            table,
            builder,
            claimed_charge(backend),
            backend.dim,
            cfg["box"],
            cfg["window"],
            symbols,
            params=params + (("backend", backend.name),),
        ),
    ]


def suite_verify_chain(cfg):
    return check_chain_identities(cfg["backend"], cfg["box"], cfg["window"])


def suite_verify_relative(cfg):
    reports = [check_d_compatibility(cfg["backend"], cfg["box"], cfg["window"])]
    reports.extend(
        check_relative_derext(cfg["backend"], cfg["box"], cfg["window"])
    )
    return reports


def _vf_of_element(alpha, el):
    out = SuperVectorField()
    for (sym, n), c in el.coeffs.items():
        out = out + vf_realize(alpha, sym, n).scale(c)
    return out


def _table_report(check, alpha, window, witness) -> RelationReport:
    return RelationReport(
        check,
        (("alpha", format_qi(alpha)), ("window", str(window))),
        "abstract",
        "fail" if witness else "pass",
        witness,
    )


def suite_sca_tables(cfg):
    alpha = cfg["alpha"]
    window = cfg["window"]
    basis = [(s, n) for s in SYMBOLS for n in range(-window, window + 1)]
    reports = []

    # typed bracket table against the independent super-vector-field oracle
    witness = None
    for (sa, na), (sb, nb) in product(basis, repeat=2):
        lhs = vf_bracket(vf_realize(alpha, sa, na), vf_realize(alpha, sb, nb))
        tab = s2a_basis_bracket(alpha, sa, na, sb, nb, include_cocycle=False)
        if not (lhs - _vf_of_element(alpha, tab)).is_zero():
            witness = (("pair", f"[{sa}[{na}],{sb}[{nb}]]"),)
            break
    reports.append(_table_report("sca:table-vs-fields", alpha, window, witness))

    # graded Jacobi identity, including the central cocycle
    jw = min(window, 2)
    bad = super_jacobi_failure(
        alpha, [(s, n) for s in SYMBOLS for n in range(-jw, jw + 1)]
    )
    witness = None
    if bad is not None:
        (sa, na), (sb, nb), (sc, nc) = bad
        witness = (("triple", f"({sa}[{na}],{sb}[{nb}],{sc}[{nc}])"),)
    reports.append(_table_report("sca:super-jacobi", alpha, jw, witness))

    # spectral flow is a bracket homomorphism onto the unflowed subalgebra
    witness = None
    for (sa, na), (sb, nb) in product(
        [(s, n) for s in N2_SYMBOLS for n in range(-window, window + 1)],
        repeat=2,
    ):
        A = SCAElement.basis(sa, na)
        B = SCAElement.basis(sb, nb)
        lhs = spectral_flow(alpha, s2a_bracket(alpha, A, B))
        rhs = n2_bracket(spectral_flow(alpha, A), spectral_flow(alpha, B))
        if not (lhs - rhs).is_zero():
            witness = (("pair", f"[{sa}[{na}],{sb}[{nb}]]"),)
            break
    reports.append(_table_report("sca:spectral-flow", alpha, window, witness))

    # the lowering derivation as a weighted-divergence-free field
    # (integer parameter only: the raising operator shifts the weight grid)
    if alpha.im == 0 and alpha.re.denominator == 1:
        witness = None
        field = remark_F_field(alpha)
        if s_alpha_obstruction(alpha, field):
            witness = (("field", "weighted divergence is nonzero"),)
        else:
            for s in ("h", "p", "x", "y"):
                for k in range(-window, window + 1):
                    lhs = vf_bracket(field, vf_realize(alpha, s, k))
                    rhs = _vf_of_element(
                        alpha, derext_action(alpha, "FF", SCAElement.basis(s, k))
                    )
                    if not (lhs - rhs).is_zero():
                        witness = (("pair", f"[FF,{s}[{k}]]"),)
                        break
                if witness:
                    break
        reports.append(
            _table_report("sca:lowering-field", alpha, window, witness)
        )
    return reports


def suite_cohomology(cfg):
    backend = cfg["backend"]
    emax = cfg["emax"]
    deg_s_lo = -(cfg["emax"] + cfg["b0max"])
    rows, _ = cohomology.cohomology_table(
        backend,
        range(0, emax + 1),
        range(deg_s_lo, emax + 1),
        cfg["rel"],
    )
    return rows


def suite_kahler(cfg):
    try:
        return cohomology.harmonic_lefschetz_report(cfg["backend"], emax=cfg["emax"])
    except cohomology.VacuousCheckError as exc:
        raise UsageError(str(exc))


# -- configuration ------------------------------------------------------


def _read_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise UsageError(f"duplicate config key: {key}")
            out[key] = value.strip()
    return out


# flag and argparse options of each configuration key
_FLAGS = {
    "backend": ("--backend", {}),
    "alpha": ("--alpha", {}),
    "emax": ("--emax", {"type": int}),
    "b0max": ("--b0max", {"type": int}),
    "window": ("--window", {"type": int}),
    "rel": ("--rel", {"action": "store_true", "default": None}),
    "fmt": ("--format", {"dest": "fmt", "choices": ("json", "csv", "text")}),
}

# a config file names a key by its flag: the key of each flag name
_KEY_OF_NAME = {flag[2:]: key for key, (flag, _) in _FLAGS.items()}

# the values a config file may give a boolean key, in any case
_BOOLEANS = {
    "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweil",
        description="Exact verification suites for the semi-infinite Weil "
        "complex: superconformal relation checks, cohomology tables, and "
        "the harmonic/Lefschetz operator package.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMANDS.items():
        p = sub.add_parser(name)
        # every default is None: resolve_config fills unset flags from the
        # config file, then from _CONFIG_DEFAULTS
        for key in keys:
            flag, options = _FLAGS[key]
            p.add_argument(flag, **options)
        p.add_argument("--config")
    return parser


_CONFIG_DEFAULTS = {
    "backend": "loop:sl2",
    "alpha": "0",
    "emax": 3,
    "b0max": 2,
    "window": 2,
    "rel": False,
    "fmt": "text",
}


def resolve_config(args) -> dict:
    """Merge explicit flags over config-file values over the defaults, for
    the keys the command reads, and validate."""
    values = {k: getattr(args, k) for k in COMMANDS[args.command]}
    if args.config:
        file_values = _read_config_file(args.config)
        for key, raw in file_values.items():
            dest = _KEY_OF_NAME.get(key)
            if dest is None:
                raise UsageError(f"unknown config key: {key}")
            if dest not in values:
                raise UsageError(f"{args.command} does not read config key: {key}")
            # command-line flags take precedence over the config file
            if values[dest] is not None:
                continue
            default = _CONFIG_DEFAULTS[dest]
            if isinstance(default, bool):
                if raw.lower() not in _BOOLEANS:
                    raise UsageError(f"bad config value {key} = {raw!r}")
                values[dest] = _BOOLEANS[raw.lower()]
            elif isinstance(default, int):
                try:
                    values[dest] = int(raw)
                except ValueError:
                    raise UsageError(f"bad config value {key} = {raw!r}")
            else:
                values[dest] = raw
    for key, value in values.items():
        if value is None:
            values[key] = _CONFIG_DEFAULTS[key]
    if any(values.get(k, 0) < 0 for k in ("emax", "b0max", "window")):
        raise UsageError("box budgets must be nonnegative")
    if values["fmt"] not in ("json", "csv", "text"):
        raise UsageError(f"unknown format: {values['fmt']}")
    if "backend" in values:
        text = values["backend"]
        try:
            values["backend"] = parse_backend(text)
        except (StructureError, ValueError) as exc:
            raise UsageError(f"bad backend {text!r}: {exc}")
        kinds = BACKEND_KINDS[args.command]
        if values["backend"].kind not in kinds:
            raise UsageError(
                f"{args.command} runs on {' or '.join(kinds)} backends, "
                f"not {text!r}"
            )
    if "alpha" in values:
        try:
            values["alpha"] = QI.of(parse_qi(values["alpha"]))
        except (StructureError, ValueError) as exc:
            raise UsageError(f"bad alpha {values['alpha']!r}: {exc}")
    if "b0max" in values:
        values["box"] = Box(emax=values["emax"], b0max=values["b0max"])
    values["command"] = args.command
    return values


def run(cfg, out=None) -> int:
    """Execute the selected suite and write the report; exit status 0 only
    when every check passes."""
    out = out if out is not None else sys.stdout.buffer
    fmt = cfg["fmt"]
    command = cfg["command"]
    if command == "cohomology":
        rows = suite_cohomology(cfg)
        out.write(emit_rows(rows, fmt))
        return 0
    if command == "kahler":
        rows, checks = suite_kahler(cfg)
        if fmt == "csv":
            out.write(emit_rows(rows, fmt))
        else:
            out.write(emit_report(checks, fmt))
        return 0 if all(c.passed for c in checks) else 1
    if fmt == "csv":
        raise UsageError("csv output is only available for table commands")
    suites = {
        "verify-n2": suite_relations,
        "verify-s2a": suite_relations,
        "verify-chain": suite_verify_chain,
        "verify-relative": suite_verify_relative,
        "sca-tables": suite_sca_tables,
    }
    reports = suites[command](cfg)
    out.write(emit_report(reports, fmt))
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
