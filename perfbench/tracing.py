"""Spans around the calls into each ``cstarcat`` module, recorded from the
benchmark's own process.

The tracer rebinds public functions and methods to timing wrappers. A
function is replaced in its defining module and in every ``cstarcat`` module
that imported it by name, so calls from ``suites``, ``cli`` and the
benchmark itself are all caught; nothing under ``src/`` is edited, and
``uninstall`` puts the originals back.

Each span keeps its name, the span that caused it, and the operation it
belongs to. Self time is a span's duration minus the time its direct child
spans cover. Counts are recorded at the same boundaries by small hooks that
read the call's arguments and result; the ``*_bytes`` counts are computed
from array shapes, not measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

COMPLEX_BYTES = 16
SPAN_FILE_LIMIT = 50_000      # spans kept for the trace file, per run


# ---------------------------------------------------------------------------
# counting hooks: (counts, args, kwargs, result) -> None


def _validate_category_counts(counts, args, kwargs, result):
    cat = args[0]
    products = nbytes = 0
    for (x, y), first in cat.homs.items():
        for z in cat.object_names:
            second = cat.homs.get((y, z))
            if second is not None:
                n = first.dim * second.dim
                products += n
                nbytes += n * cat.obj(z).dim * cat.obj(x).dim * COMPLEX_BYTES
    counts["categories.validate_category.products"] += products
    counts["categories.validate_category.product_bytes"] += nbytes


def _validate_functor_counts(counts, args, kwargs, result):
    functor = args[0]
    src, tgt = functor.source, functor.target
    nbytes = 0
    for (x, y), first in src.homs.items():
        for z in src.object_names:
            second = src.homs.get((y, z))
            if second is None:
                continue
            n = first.dim * second.dim
            fx, fz = functor.object_map[x], functor.object_map[z]
            # the source product stack, then its image and F(b).F(a)
            nbytes += n * src.obj(z).dim * src.obj(x).dim * COMPLEX_BYTES
            nbytes += 2 * n * tgt.obj(fz).dim * tgt.obj(fx).dim * COMPLEX_BYTES
    counts["categories.validate_functor.product_bytes"] += nbytes


def _nat_space_counts(counts, args, kwargs, result):
    f, g = args[0], args[1]
    tgt = f.target
    shapes = {x: (tgt.obj(g.object_map[x]).dim, tgt.obj(f.object_map[x]).dim)
              for x in f.source.object_names}
    total = sum(r * c for r, c in shapes.values())
    rows = total + sum(space.dim * shapes[y][0] * shapes[x][1]
                       for (x, y), space in f.source.homs.items())
    counts["categories.nat_space.system_bytes"] += rows * total * COMPLEX_BYTES
    counts["categories.nat_space.svd_u_bytes"] += rows * rows * COMPLEX_BYTES


def _coset_run_counts(counts, args, kwargs, result):
    if not result:
        counts["coset.CosetEnumeration.run.exhausted"] += 1


def _normalize_counts(counts, args, kwargs, result):
    if result.finite:
        counts["groupoids.normalize_fp.compose_entries"] += len(result.groupoid.compose)


def _nerve_counts(counts, args, kwargs, result):
    counts["groupoids.nerve.simplices"] += sum(
        result.count_nondegenerate(d) for d in range(result.dim_cap + 1))


def _find_invertible_counts(counts, args, kwargs, result):
    if result is not None:
        counts["linalg.find_invertible.hits"] += 1


def _no_evidence(metric):
    def hook(counts, args, kwargs, result):
        if result.status == "NO_EVIDENCE":
            counts[metric] += 1
    return hook


CLI_COMMANDS = {"cmd_validate": "validate", "cmd_factorize": "factorize",
                "cmd_lift": "lift", "cmd_tensor": "tensor",
                "cmd_groupoid_cstar": "groupoid-cstar", "cmd_nerve": "nerve",
                "cmd_pi": "pi", "cmd_verify_axioms": "verify-axioms",
                "cmd_generate": "generate"}

# (metric prefix, module, attribute path, spans?, hook). Targets without spans
# only count calls; their time stays in the enclosing span's self time.
TARGETS = [
    ("linalg.matrix_from_json", "linalg", "matrix_from_json", True, None),
    ("linalg.matrix_to_json", "linalg", "matrix_to_json", True, None),
    ("linalg.subspace_span", "linalg", "subspace_span", True, None),
    ("linalg.op_norm", "linalg", "op_norm", True, None),
    ("linalg.herm_funcalc", "linalg", "herm_funcalc", True, None),
    ("linalg.find_invertible", "linalg", "find_invertible", True, _find_invertible_counts),
    ("categories.validate_category", "categories", "validate_category", True,
     _validate_category_counts),
    ("categories.validate_functor", "categories", "validate_functor", True,
     _validate_functor_counts),
    ("categories.nat_space", "categories", "nat_space", True, _nat_space_counts),
    ("categories.tensor_max", "categories", "tensor_max", True, None),
    ("categories.iso_exists", "categories", "iso_exists", True,
     _no_evidence("categories.iso_exists.no_evidence")),
    ("categories.StarFunctor.apply", "categories", "StarFunctor.apply", False, None),
    ("categories.compose_functors", "categories", "compose_functors", False, None),
    ("coset.CosetEnumeration.run", "coset", "CosetEnumeration.run", True,
     _coset_run_counts),
    ("coset.multiply", "coset", "CosetEnumeration.multiply", True, None),
    ("groupoids.FiniteGroupoid.check", "groupoids", "FiniteGroupoid._validate", True, None),
    ("groupoids.cstar_max", "groupoids", "cstar_max", True, None),
    ("groupoids.comparison_functor", "groupoids", "comparison_functor", True, None),
    ("groupoids.normalize_fp", "groupoids", "normalize_fp", True, _normalize_counts),
    ("groupoids.nerve", "groupoids", "nerve", True, _nerve_counts),
    ("presentations.FiniteCategory.check", "presentations", "FiniteCategory._validate",
     True, None),
    ("presentations.ism_presentation", "presentations", "ism_presentation", True, None),
    ("presentations.evaluate", "presentations", "evaluate", True, None),
    ("homotopy.pi", "homotopy", "pi", True, None),
    ("homotopy.pi_map", "homotopy", "pi_map", True, None),
    ("homotopy.cotensor", "homotopy", "cotensor", True, None),
    ("model.is_weak_equivalence", "model", "is_weak_equivalence", True,
     _no_evidence("model.is_weak_equivalence.no_evidence")),
    ("model.quasi_inverse", "model", "quasi_inverse", True, None),
    ("model.factor_path", "model", "factor_path", True, None),
    ("model.factor_cylinder", "model", "factor_cylinder", True, None),
    ("model.lift_tcof_fib", "model", "lift_tcof_fib", True, None),
    ("model.lift_cof_tfib", "model", "lift_cof_tfib", True, None),
    ("model.axiom_harness", "model", "axiom_harness", True, None),
    ("randgen.random_matcat", "randgen", "random_matcat", True, None),
    ("randgen.random_weq", "randgen", "random_weq", True, None),
    ("randgen.random_groupoid", "randgen", "random_groupoid", True, None),
    ("suites.suite_mc", "suites", "suite_mc", True, None),
    ("suites.suite_monoidal", "suites", "suite_monoidal", True, None),
    ("suites.suite_simplicial", "suites", "suite_simplicial", True, None),
    ("suites.suite_adjunctions", "suites", "suite_adjunctions", True, None),
    ("reports.Report.dumps", "reports", "Report.dumps", True, None),
] + [(f"cli.{name}", "cli", attr, True, None) for attr, name in CLI_COMMANDS.items()]

# Functions whose peak traced memory is reported from the memory pass.
PEAK_TARGETS = ("categories.validate_category", "categories.nat_space")

C, S, B = "count", "s", "B"
# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    [("categories.validate_category.calls", C), ("categories.validate_category.self_s", S),
     ("categories.validate_category.products", C),
     ("categories.validate_category.product_bytes", B),
     ("categories.validate_category.peak_mb", "MB"),
     ("categories.validate_functor.calls", C), ("categories.validate_functor.self_s", S),
     ("categories.validate_functor.product_bytes", B),
     ("categories.nat_space.calls", C), ("categories.nat_space.self_s", S),
     ("categories.nat_space.system_bytes", B), ("categories.nat_space.svd_u_bytes", B),
     ("categories.nat_space.peak_mb", "MB"),
     ("coset.CosetEnumeration.run.calls", C), ("coset.CosetEnumeration.run.self_s", S),
     ("coset.CosetEnumeration.run.exhausted", C),
     ("coset.multiply.calls", C), ("coset.multiply.self_s", S),
     ("groupoids.normalize_fp.calls", C), ("groupoids.normalize_fp.self_s", S),
     ("groupoids.normalize_fp.compose_entries", C),
     ("groupoids.FiniteGroupoid.check_s", S), ("presentations.FiniteCategory.check_s", S),
     ("groupoids.nerve.self_s", S), ("groupoids.nerve.simplices", C),
     ("presentations.ism_presentation.self_s", S), ("presentations.evaluate.self_s", S),
     ("homotopy.pi.self_s", S), ("homotopy.pi_map.self_s", S),
     ("homotopy.cotensor.self_s", S),
     ("linalg.find_invertible.calls", C), ("linalg.find_invertible.hits", C),
     ("categories.iso_exists.calls", C), ("categories.iso_exists.no_evidence", C),
     ("model.is_weak_equivalence.calls", C), ("model.is_weak_equivalence.self_s", S),
     ("model.is_weak_equivalence.no_evidence", C)]
    + [(f"model.{f}.self_s", S) for f in ("quasi_inverse", "factor_path", "factor_cylinder",
                                         "lift_tcof_fib", "lift_cof_tfib", "axiom_harness")]
    + [(f"linalg.{f}.{k}", u) for f in ("matrix_from_json", "matrix_to_json",
                                       "subspace_span", "op_norm", "herm_funcalc")
       for k, u in (("calls", C), ("self_s", S))]
    + [("categories.StarFunctor.apply.calls", C), ("categories.compose_functors.calls", C),
       ("reports.Report.dumps.self_s", S),
       ("cli.json_bytes_in", B), ("cli.json_bytes_out", B),
       ("groupoids.cstar_max.self_s", S), ("groupoids.comparison_functor.self_s", S),
       ("categories.tensor_max.self_s", S)]
    + [(f"randgen.{f}.self_s", S) for f in ("random_matcat", "random_weq", "random_groupoid")]
    + [(f"suites.suite_{f}.self_s", S) for f in ("mc", "monoidal", "simplicial", "adjunctions")]
    + [(f"cli.{name}.self_s", S) for name in CLI_COMMANDS.values()]
    + [("trace.wall_s", S), ("trace.untraced_wall_s", S), ("trace.overhead_s", S)]
)

# Names under which self time is reported when they differ from "<prefix>.self_s".
SELF_NAMES = {"groupoids.FiniteGroupoid.check": "groupoids.FiniteGroupoid.check_s",
              "presentations.FiniteCategory.check": "presentations.FiniteCategory.check_s"}


class Tracer:
    """Rebinding tracer. ``install`` and ``uninstall`` switch it on and off
    between passes; ``new_pass`` starts a fresh set of per-pass totals."""

    def __init__(self):
        self.installed = []          # (owner, attribute, original)
        self.passes = []             # per-pass dicts: self time and counts
        self.current = None
        self.stack = []              # [child time, span index] per open span
        self.op = None
        self.spans = []              # (name, parent index, op, start, end)
        self.peaks = defaultdict(float)
        self.measure_peaks = False

    # -- rebinding -----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "cstarcat" or name.startswith("cstarcat.")}
        for prefix, module, path, spans, hook in TARGETS:
            owner = mods[f"cstarcat.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(prefix, original, spans, hook)
            self._rebind(owner, attr, original, wrapper)
            if not outer:
                # the name imported into other modules: ``from .x import f``
                for mod in mods.values():
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    # -- recording -------------------------------------------------------------

    def new_pass(self):
        self.current = defaultdict(float)
        self.passes.append(self.current)

    def _wrap(self, prefix, fn, spans, hook):
        clock = time.perf_counter
        tracer = self

        if not spans:
            def counting(*args, **kwargs):
                tracer.current[prefix + ".calls"] += 1
                return fn(*args, **kwargs)
            return counting

        peak = prefix in PEAK_TARGETS

        def traced(*args, **kwargs):
            counts = tracer.current
            counts[prefix + ".calls"] += 1
            index = -1
            if len(tracer.spans) < SPAN_FILE_LIMIT and not tracer.measure_peaks:
                index = len(tracer.spans)
                parent = tracer.stack[-1][1] if tracer.stack else -1
                tracer.spans.append([prefix, parent, tracer.op, 0.0, 0.0])
            frame = [0.0, index]          # time covered by child spans, span id
            tracer.stack.append(frame)
            watch = peak and tracer.measure_peaks and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if watch:
                    top = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks[prefix] = max(tracer.peaks[prefix], top)
                tracer.stack.pop()
                duration = end - start
                counts[SELF_NAMES.get(prefix, prefix + ".self_s")] += duration - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += duration
                if index >= 0:
                    tracer.spans[index][3:] = [start, end]
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, io_bytes):
        """Per-pass values: counts from the first traced pass (they repeat
        exactly), self times as the median over the traced passes."""
        first = self.passes[0]
        out = {}
        for name, unit in LAYER_METRICS:
            if name.startswith("trace."):
                continue
            if name.endswith("peak_mb"):
                value = self.peaks.get(name.rsplit(".", 1)[0], 0.0)
            elif name.startswith("cli.json_bytes"):
                value = io_bytes[0 if name.endswith("_in") else 1]
            elif unit == "s":
                value = statistics.median(p.get(name, 0.0) for p in self.passes)
            else:
                value = int(first.get(name, 0))
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, op, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "parent": parent, "op": op,
                                         "name": name, "start": start, "end": end}) + "\n")
