"""Span tracer for the traced run, installed from the benchmark's own files.

``Tracer.install`` replaces each layer's public entry points (``ENTRY_POINTS``)
with wrappers that record a span: unit index, name, parent span, start and
end.  A function imported by several modules is patched in every module that
binds it (``bimoment_table`` lives in ``ldu``, ``wordfun``, ``biortho`` and
``cli`` as well as in ``bimoment``), so calls between layers are seen.
Spans stay in memory and are written out once, at the end of the run.

A layer's self time is the time of its spans minus the time of their child
spans.  Wrappers may also probe arguments and returned values (operand bits,
sizes); that probing is taken off the span clock so it does not land in any
span.  A probe is called as ``hook(tracer, fn, args, result)``, with ``fn``
the unwrapped function and ``result`` None before the call.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
import time
from collections import Counter

from perfbench.probe import max_bits


def _grows(tracer, fn, args, result):
    table, n = args[0], args[1]
    if n > table.order:
        tracer.counts["bimoment.ensure.grew"] += 1


def _dim(key):
    def hook(tracer, fn, args, result):
        tracer.peak[key] = max(tracer.peak[key], len(args[0]))

    return hook


def _bits(key):
    def hook(tracer, fn, args, result):
        tracer.peak[key] = max(tracer.peak[key], max_bits(result))

    return hook


def _size(key):
    def hook(tracer, fn, args, result):
        tracer.counts[key] += len(result)

    return hook


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "timings_ms"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _payload_bytes(tracer, fn, args, result):
    """Length of the printed JSON without ``timings_ms``, whose digits vary from run to run."""
    tracer.counts["reporting.bytes"] += len(fn(_without_timings(args[0])))


# (module, attribute, span name, hook run before the call, hook run after it).
# Span names are "<layer>.<part>"; several functions may share one part.
ENTRY_POINTS = (
    ("cli", "main", "cli.main", None, None),
    ("reporting", "canonical_json", "reporting.canonical_json", None, _payload_bytes),
    ("reporting", "jsonable", "reporting.jsonable", None, None),
    ("reporting", "VerificationReport.to_dict", "reporting.to_dict", None, None),
    ("core", "parse_rational", "core.parse", None, None),
    ("core", "validate", "core.validate", None, None),
    ("core", "to_rates", "core.to_rates", None, None),
    ("core", "g_coeff", "core.g_coeff", None, None),
    ("core", "d_natural", "core.natural", None, None),
    ("core", "e_natural", "core.natural", None, None),
    ("core", "qpoch", "core.qpoch", None, None),
    ("core", "qpoch_multi", "core.qpoch", None, None),
    ("core", "phi_terminating", "core.phi_terminating", None, None),
    ("bimoment", "bimoment_table", "bimoment.table", None, None),
    ("bimoment", "BimomentTable.ensure", "bimoment.ensure", _grows, None),
    ("bimoment", "BimomentTable.entry", "bimoment.entry", None, _bits("bimoment.max_bits")),
    ("bimoment", "BimomentTable.block", "bimoment.block", None, _bits("bimoment.max_bits")),
    ("bimoment", "boundary_column", "bimoment.boundary", None, None),
    ("bimoment", "boundary_row", "bimoment.boundary", None, None),
    ("bimoment", "bimoment_block", "bimoment.block_fill", None, _bits("bimoment.max_bits")),
    ("ldu", "build_L", "ldu.build", None, _bits("ldu.max_bits")),
    ("ldu", "build_U", "ldu.build", None, _bits("ldu.max_bits")),
    ("ldu", "build_L_inverse", "ldu.build", None, _bits("ldu.max_bits")),
    ("ldu", "build_U_inverse", "ldu.build", None, _bits("ldu.max_bits")),
    ("ldu", "build_D", "ldu.build", None, _bits("ldu.max_bits")),
    ("ldu", "verify_ldu", "ldu.verify", None, None),
    ("ldu", "det_closed_form", "ldu.det_closed", None, _bits("ldu.max_bits")),
    ("ldu", "det_bimoment", "ldu.det_bimoment", None, _bits("ldu.max_bits")),
    ("_linalg", "det", "linalg.det", _dim("linalg.det.dim"), None),
    ("_linalg", "mat_mul", "linalg.mat_mul", None, None),
    ("_linalg", "mat_transpose", "linalg.mat_transpose", None, None),
    ("_linalg", "nullspace", "linalg.nullspace", _dim("linalg.nullspace.dim"), None),
    ("biortho", "polys_from_inverse", "biortho.polys", None, _bits("biortho.max_bits")),
    ("biortho", "polys_from_recurrence", "biortho.polys", None, _bits("biortho.max_bits")),
    ("biortho", "monomial_expansion_check", "biortho.monomial", None, None),
    ("biortho", "pairing", "biortho.pairing", None, _bits("biortho.max_bits")),
    ("biortho", "biorthogonality_check", "biortho.check", None, None),
    ("biortho", "bordered_determinant_check", "biortho.bordered", None, None),
    ("wordfun", "functional", "wordfun.functional", None, None),
    ("wordfun", "normal_order", "wordfun.normalize", None, None),
    ("wordfun", "eval_by_elimination", "wordfun.elimination", None, None),
    ("wordfun", "check_defining_relations", "wordfun.relations", None, None),
    ("wordfun", "WordPoly.__mul__", "wordfun.wordpoly_mul", None, None),
    ("repmat", "rep_rational", "repmat.rep", None, None),
    ("repmat", "verify_algebra", "repmat.algebra", None, None),
    ("repmat", "verify_boundary", "repmat.boundary", None, None),
    ("repmat", "verify_uchiyama_algebra", "repmat.uchiyama", None, None),
    ("repmat", "aw_coeffs", "repmat.aw_coeffs", None, None),
    ("repmat", "jacobi_moments", "repmat.jacobi_moments", None, None),
    ("repmat", "verify_aw_match", "repmat.aw_match", None, None),
    ("repmat", "aw_eval", "repmat.aw_eval", None, None),
    ("asep", "generator", "asep.generator", None, _size("asep.generator.nnz")),
    ("asep", "stationary_exact", "asep.exact", None, None),
    ("asep", "stationary_ansatz", "asep.ansatz", None, None),
    ("asep", "ansatz_weight", "asep.ansatz_weight", None, None),
    ("asep", "compare", "asep.compare", None, None),
)

# Counted, not spanned: the memoised rewrite recurses once per cache miss.
NORMAL_ORDER_WORD = ("wordfun", "_normal_order_word", "wordfun.normal_order")

LAYERS = ("cli", "reporting", "core", "bimoment", "ldu", "linalg", "biortho", "wordfun", "repmat", "asep")


def _modules():
    package = importlib.import_module("biorth")
    names = [f"biorth.{info.name}" for info in pkgutil.iter_modules(package.__path__)]
    return [package] + [importlib.import_module(name) for name in names]


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peak: Counter = Counter()
        self.unit = -1
        self.enabled = False
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._excluded = 0.0
        self._patches: list = []

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            # A recursive call stays inside its outer span.
            if not tracer.enabled or tracer._open[name]:
                return fn(*args, **kwargs)
            if before is not None:
                mark = time.perf_counter()
                before(tracer, fn, args, None)
                tracer._excluded += time.perf_counter() - mark
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tracer._open[name] += 1
            tracer.counts[name] += 1
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = tracer.now()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[sid] = (tracer.unit, name, parent, start, end)
            if after is not None:
                mark = time.perf_counter()
                after(tracer, fn, args, result)
                tracer._excluded += time.perf_counter() - mark
            return result

        return traced

    def count(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = _modules()
        for module_name, attr, name, before, after in ENTRY_POINTS:
            self._patch(modules, module_name, attr, lambda fn: self.wrap(name, fn, before, after))
        module_name, attr, name = NORMAL_ORDER_WORD
        self._patch(modules, module_name, attr, lambda fn: self.count(name, fn))

    def _patch(self, modules, module_name, attr, make) -> None:
        owner = importlib.import_module(f"biorth.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        replacement = make(original)
        if path:  # a method: patching the class reaches every caller
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, replacement)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_times(self) -> Counter:
        """Self time per span name: span time minus its children's time."""
        children = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Counter = Counter()
        for sid, (_, name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - children[sid]
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [unit, name, parent, start, end]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for unit, name, parent, start, end in self.spans:
                handle.write(json.dumps([unit, name, parent, round(start, 9), round(end, 9)]) + "\n")


def layer_metrics(tracer: Tracer, state: dict) -> dict:
    """Per-layer metrics of one traced round.

    ``state`` holds what the round left in the library's caches:
    ``tables``, ``entries`` and ``normal_cache``.
    """
    self_times = tracer.self_times()
    counts, peak = tracer.counts, tracer.peak

    def self_s(key):
        return sum(t for name, t in self_times.items() if name == key or name.startswith(key + "."))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    normal_calls = counts["wordfun.normal_order"]
    out = {f"{layer}.self_s": self_s(layer) for layer in LAYERS}
    out.update({
        "bimoment.ensure.calls": counts["bimoment.ensure"],
        "bimoment.ensure.grow_ratio": ratio(counts["bimoment.ensure.grew"], counts["bimoment.ensure"]),
        "bimoment.entries": state["entries"],
        "bimoment.tables": state["tables"],
        "bimoment.block_fill.self_s": self_s("bimoment.block_fill"),
        "bimoment.max_bits": peak["bimoment.max_bits"],
        "ldu.build.self_s": self_s("ldu.build"),
        "ldu.verify.self_s": self_s("ldu.verify"),
        "ldu.det_closed.self_s": self_s("ldu.det_closed"),
        "ldu.max_bits": peak["ldu.max_bits"],
        "core.g_coeff.calls": counts["core.g_coeff"],
        "core.phi_terminating.calls": counts["core.phi_terminating"],
        "linalg.det.self_s": self_s("linalg.det"),
        "linalg.det.dim": peak["linalg.det.dim"],
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "linalg.nullspace.self_s": self_s("linalg.nullspace"),
        "linalg.nullspace.dim": peak["linalg.nullspace.dim"],
        "biortho.pairing.calls": counts["biortho.pairing"],
        "biortho.max_bits": peak["biortho.max_bits"],
        "wordfun.functional.calls": counts["wordfun.functional"],
        "wordfun.normal_order.calls": normal_calls,
        # Each miss of the (word, q) memo adds exactly one entry, and the
        # memo is empty when a round starts.
        "wordfun.normal_cache.hit_ratio": ratio(normal_calls - state["normal_cache"], normal_calls),
        "wordfun.normal_cache.size": state["normal_cache"],
        "wordfun.elimination.self_s": self_s("wordfun.elimination"),
        "wordfun.wordpoly_mul.self_s": self_s("wordfun.wordpoly_mul"),
        "repmat.jacobi_moments.self_s": self_s("repmat.jacobi_moments"),
        "repmat.aw_eval.self_s": self_s("repmat.aw_eval"),
        "repmat.aw_match.skipped": counts["repmat.aw_match.raised.ZeroParameter"],
        "asep.generator.self_s": self_s("asep.generator"),
        "asep.generator.nnz": counts["asep.generator.nnz"],
        "asep.exact.self_s": self_s("asep.exact"),
        "asep.ansatz.self_s": self_s("asep.ansatz"),
        "asep.ansatz_weight.calls": counts["asep.ansatz_weight"],
        "cli.calls": counts["cli.main"],
        "reporting.bytes": counts["reporting.bytes"],
    })
    return out
