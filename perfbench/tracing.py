"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions of sweil's modules with
wrappers.  A function is hooked in every loaded ``sweil.*`` namespace that
holds it, which is where its callers look it up (``sweil.cli.
check_representation``, ``sweil.cohomology.enumerate_box``, ...); methods
are hooked on their class.  Wrappers record spans (name, start, end,
parent) in memory, or only count calls for the hot methods.  A layer's
self time is its span minus the time its child spans cover.

Tracing is only installed for the traced passes; end-to-end numbers come
from passes run with the original functions in place.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

perf = time.perf_counter

# (module, attribute, span name): functions hooked in every namespace
# that holds them.
FUNCTIONS = (
    ("sweil.fock", "enumerate_box", "fock.enumerate_box"),
    ("sweil.verify", "check_representation", "verify.check_representation"),
    ("sweil.verify", "check_chain_identities", "verify.check_chain_identities"),
    ("sweil.verify", "check_d_compatibility", "verify.check_d_compatibility"),
    ("sweil.verify", "check_relative_derext", "verify.check_relative_derext"),
    ("sweil.verify", "extract_central_charge", "verify.extract_central_charge"),
    ("sweil.verify", "fast_bracket_check", "verify.fast_bracket_check"),
    ("sweil.fieldops", "hodge_form", "fieldops.hodge_form"),
    ("sweil.fieldops", "hermitian_form", "fieldops.hermitian_form"),
    *(
        ("sweil.cohomology", name, f"cohomology.{name}")
        for name in (
            "slice_monomials",
            "piece_basis",
            "assemble_matrix",
            "exact_rank_kernel",
            "solve_in_span",
            "gram_matrix",
            "adjoint_matrix",
            "hermitian_signature",
        )
    ),
    *(
        ("sweil.sca", name, f"sca.{name}")
        for name in (
            "s2a_bracket",
            "vf_bracket",
            "vf_realize",
            "spectral_flow",
            "n2_bracket",
            "derext_action",
        )
    ),
    ("sweil.cli", "emit_report", "cli.emit"),
    ("sweil.cli", "emit_rows", "cli.emit"),
)

# (module, class, method, span name): methods with a span per call.
# Operator.apply recurses through composite operators, so only its
# outermost call is a span.
METHODS = (
    ("sweil.bulkrep", "BulkEngine", "prepare", "bulkrep.prepare"),
    ("sweil.bulkrep", "BulkEngine", "bracket_defect", "bulkrep.bracket_defect"),
    ("sweil.fieldops", "Operator", "apply", "fieldops.apply"),
)

# (module, class, methods, counter): methods whose calls are only counted.
COUNTED = (
    ("sweil.verify", "FastOp", ("col",), "verify.fastop_columns"),
    (
        "sweil.scalars",
        "QI",
        (
            "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        ),
        "scalars.qi_ops",
    ),
)


# Hook guard: counts that must be nonzero on a workload (the layers that
# workload is meant to move) and counts that must stay zero on it.
_VERIFY_SUITES = tuple(
    f"verify.{name}.calls"
    for name in (
        "check_representation",
        "check_chain_identities",
        "check_d_compatibility",
        "check_relative_derext",
        "extract_central_charge",
    )
)
MUST_FIRE = {
    "relations": (
        "fock.enumerate_box.calls",
        "bulkrep.prepare.calls",
        "bulkrep.bracket_defect.pass_calls",
        *_VERIFY_SUITES,
        "fieldops.apply.calls",
    ),
    "defects": (
        "bulkrep.prepare.calls",
        "bulkrep.bracket_defect.fail_calls",
        "verify.check_representation.calls",
        "verify.check_chain_identities.calls",
        "fieldops.apply.calls",
    ),
    "kahler": (
        "fock.enumerate_box.calls",
        "verify.fast_bracket_check.calls",
        "verify.fastop_columns",
        "fieldops.apply.calls",
        "fieldops.hodge_form.calls",
        "fieldops.hermitian_form.calls",
        *(f"{n}.calls" for _, a, n in FUNCTIONS if n.startswith("cohomology.")),
        "cohomology.piece_dims",
        "scalars.qi_ops",
    ),
    "tables": (
        *(f"{n}.calls" for _, a, n in FUNCTIONS if n.startswith("sca.")),
        "scalars.qi_ops",
    ),
}
MUST_NOT_FIRE = {
    "relations": (
        "bulkrep.bracket_defect.fail_calls",
        "verify.fast_bracket_check.calls",
    ),
    "defects": ("verify.fast_bracket_check.calls",),
    "tables": ("verify.fast_bracket_check.calls",),
}


def guard(workload: str, counts) -> list:
    """Problems found by the hook guard on one traced run."""
    out = [
        f"hook guard: {name} never fired on {workload}"
        for name in MUST_FIRE[workload] + ("cli.emit.calls", "cli.report_bytes")
        if not counts.get(name)
    ]
    out += [
        f"hook guard: {name} fired on {workload}"
        for name in MUST_NOT_FIRE.get(workload, ())
        if counts.get(name)
    ]
    return out


class HookError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.self_s = defaultdict(float)  # span name -> total self seconds
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    # -- spans -------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def drain(self):
        """Add the self seconds of the recorded spans to ``self_s`` and drop
        the spans, so memory stays bounded across passes."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            self.self_s[name] += (t1 - t0) - child[i]
        self.spans.clear()

    def value(self, metric: str):
        """Total of a per-layer metric over the drained passes: seconds for
        a name ending in ``_s``, otherwise a count."""
        if not metric.endswith("_s"):
            return self.counts.get(metric, 0)
        if metric.endswith(".self_s"):
            return self.self_s.get(metric[: -len(".self_s")], 0.0)
        return self.self_s.get(metric[: -len("_s")], 0.0)

    # -- hooks -------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        record = _RECORDERS.get(name, (None,))[0]

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer.counts[name + ".calls"] += 1
            if record is not None:
                record(tracer, idx, args, result)
            return result

        return wrapper

    def _wrap_outermost(self, fn, name: str):
        """Span only the outermost call of a recursive method."""
        tracer = self
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
                depth[0] -= 1
                tracer.counts[name + ".calls"] += 1

        return wrapper

    def _wrap_count(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Hook every traced name; raise HookError naming any that no
        longer exists, so a rename cannot silently zero a layer."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("sweil")]
        missing = []
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is None or meth not in vars(cls):
                missing.append(f"{modname}.{clsname}.{meth}")
                continue
            wrap = self._wrap_outermost if name == "fieldops.apply" else self._wrap
            self._set(cls, meth, wrap(vars(cls)[meth], name))
        for modname, clsname, meths, name in COUNTED:
            cls = getattr(sys.modules.get(modname), clsname, None)
            for meth in meths:
                if cls is None or meth not in vars(cls):
                    missing.append(f"{modname}.{clsname}.{meth}")
                    continue
                self._set(cls, meth, self._wrap_count(vars(cls)[meth], name))
        if missing:
            self.uninstall()
            raise HookError("traced names not found: " + ", ".join(missing))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- per-hook extra counts ----------------------------------------------


def _enumerate_box(tracer, idx, args, result):
    tracer.counts["fock.enumerate_box.monomials"] += len(result)


def _prepare(tracer, idx, args, result):
    engine = args[0]
    tracer.counts["bulkrep.box_states"] += len(engine.box_monos)
    tracer.counts["bulkrep.level1_states"] += engine.n1
    tracer.counts["bulkrep.operators"] += len(engine._ops)


def _bracket_defect(tracer, idx, args, result):
    # rename the span so pass and fail self times are kept apart
    outcome = "pass" if result is None else "fail"
    tracer.spans[idx][0] = f"bulkrep.bracket_defect.{outcome}"
    tracer.counts[f"bulkrep.bracket_defect.{outcome}_calls"] += 1


def _piece_basis(tracer, idx, args, result):
    tracer.counts["cohomology.piece_dims"] += result.dim


def _emit(tracer, idx, args, result):
    tracer.counts["cli.report_bytes"] += len(result)


# span name -> (recorder, the metrics it adds)
_RECORDERS = {
    "fock.enumerate_box": (_enumerate_box, ("fock.enumerate_box.monomials",)),
    "bulkrep.prepare": (
        _prepare,
        ("bulkrep.box_states", "bulkrep.level1_states", "bulkrep.operators"),
    ),
    "bulkrep.bracket_defect": (
        _bracket_defect,
        tuple(
            f"bulkrep.bracket_defect.{outcome}_{kind}"
            for outcome in ("pass", "fail")
            for kind in ("calls", "s")
        ),
    ),
    "cohomology.piece_basis": (_piece_basis, ("cohomology.piece_dims",)),
    "cli.emit": (_emit, ("cli.report_bytes",)),
}


def known_metrics() -> set:
    """Every per-layer metric name a Tracer can report."""
    spans = {n for *_, n in FUNCTIONS} | {n for *_, n in METHODS}
    out = {f"{n}.{kind}" for n in spans for kind in ("calls", "self_s")}
    out |= {n for *_, n in COUNTED}
    for _, extra in _RECORDERS.values():
        out.update(extra)
    return out
