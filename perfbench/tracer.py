"""Per-layer tracing of borelweyl, done from outside the package.

``Tracer.install`` replaces the public callables of each layer with timing
wrappers, in every ``borelweyl`` module namespace and class that binds them,
so nothing under ``src/`` changes.  ``uninstall`` puts the originals back.

Time is split two ways.

* The orchestration layers (cli, cartan, datum, morphisms, biproduct)
  partition a job: the self time of one of their callables is its duration
  minus the time in the orchestration callables it calls.  A span (name,
  start, end, parent span, job id) is recorded whenever a call crosses from
  one layer into another.
* The arithmetic layers (exact, skew) are measured inside those spans, so
  their time also counts in the self time of the span that made the call.
  Their self time excludes only nested exact and skew calls.  They keep a
  count and accumulated self time per callable, never a span per call.

So ``morphisms.birational_witness.self_s`` holds the shift arithmetic the
witness asks for, and ``exact.apply_endo.self_s`` says how much of that is
the endomorphism itself.  There are no queues or locks, so no wait time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from statistics import median

ORCHESTRATION = {
    "cli": ("borelweyl.cli",),
    "cartan": ("borelweyl.cartan",),
    "datum": ("borelweyl.datum",),
    "morphisms": ("borelweyl.morphisms",),
    "biproduct": ("borelweyl.biproduct",),
}
ARITHMETIC = {
    "exact": ("borelweyl.exact.qq", "borelweyl.exact.laurent", "borelweyl.exact.endo"),
    "skew": ("borelweyl.skew",),
}
# the one orchestration method wrapped besides module functions: it runs once per rewrite step
ORCHESTRATION_METHODS = ("biproduct.RewriteSystem.redexes",)
# dunders too cheap or too frequent to be worth a wrapper
_SKIPPED_DUNDERS = {"__bool__", "__hash__", "__repr__", "__str__", "__setattr__", "__getitem__", "__len__"}
# what a section converts into a failing verdict, plus the verdict asserts
ENGINE_ERRORS = (ValueError, ArithmeticError, RuntimeError, AssertionError)

# (metric, unit, source); a source is (kind, key): kind "self"/"calls" reads a
# callable's stats, "layer_self"/"errors" a layer total, "count" a counter
PER_LAYER = [
    ("cartan.self_s", "s", ("layer_self", "cartan")),
    ("cartan.errors", "count", ("errors", "cartan")),
    ("cartan.quasi_inverse.calls", "count", ("calls", "cartan.quasi_inverse")),
    ("cartan.quasi_inverse.calls_per_job", "count", ("per_job", "cartan.quasi_inverse")),
    ("exact.self_s", "s", ("layer_self", "exact")),
    ("exact.errors", "count", ("errors", "exact")),
    ("exact.MLaurent.mul.calls", "count", ("calls", "exact.MLaurent.mul")),
    ("exact.MLaurent.mul.self_s", "s", ("self", "exact.MLaurent.mul")),
    ("exact.apply_endo.calls", "count", ("calls", "exact.apply_endo")),
    ("exact.apply_endo.self_s", "s", ("self", "exact.apply_endo")),
    ("exact.poly_gcd.calls", "count", ("calls", "exact.poly_gcd")),
    ("exact.poly_gcd.self_s", "s", ("self", "exact.poly_gcd")),
    ("exact.PolyFrac.new.calls", "count", ("calls", "exact.PolyFrac.new")),
    ("exact.QScalar.new.calls", "count", ("calls", "exact.QScalar.new")),
    ("exact.QScalar.new.self_s", "s", ("self", "exact.QScalar.new")),
    ("exact.QScalar.qpower_den_share", "ratio", ("share", "exact.QScalar.new")),
    ("skew.self_s", "s", ("layer_self", "skew")),
    ("skew.errors", "count", ("errors", "skew")),
    ("skew.SkewElem.mul.calls", "count", ("calls", "skew.SkewElem.mul")),
    ("skew.SkewElem.mul.self_s", "s", ("self", "skew.SkewElem.mul")),
    ("skew.invert_coeff.calls", "count", ("calls", "skew.ModelContext.invert_coeff")),
    ("skew.apply_vec.calls", "count", ("calls", "skew.ModelContext.apply_vec")),
    ("datum.self_s", "s", ("layer_self", "datum")),
    ("datum.errors", "count", ("errors", "datum")),
    ("datum.solve_beta.self_s", "s", ("self", "datum.solve_beta")),
    ("datum.build_quantum_datum.self_s", "s", ("self", "datum.build_quantum_datum")),
    ("datum.check_bound_classical.self_s", "s", ("self", "datum.check_bound_classical")),
    ("datum.check_bound_quantum.self_s", "s", ("self", "datum.check_bound_quantum")),
    ("datum.check_full_rank.self_s", "s", ("self", "datum.check_full_rank")),
    ("morphisms.self_s", "s", ("layer_self", "morphisms")),
    ("morphisms.errors", "count", ("errors", "morphisms")),
    ("morphisms.verify.self_s", "s", ("self", "morphisms.verify")),
    ("morphisms.relations", "count", ("count", "morphisms.relations")),
    ("morphisms.fix_orientation.self_s", "s", ("self", "morphisms.fix_orientation")),
    ("morphisms.birational_witness.self_s", "s", ("self", "morphisms.birational_witness")),
    ("morphisms.witness.denominators", "count", ("count", "morphisms.witness.denominators")),
    ("morphisms.witness.shift_tries_per_denominator", "ratio", ("ratio", ("morphisms.witness.shift_tries", "morphisms.witness.denominators"))),
    ("biproduct.self_s", "s", ("layer_self", "biproduct")),
    ("biproduct.errors", "count", ("errors", "biproduct")),
    ("biproduct.build_rules.self_s", "s", ("self", "biproduct.build_rules")),
    ("biproduct.normal_form.calls", "count", ("calls", "biproduct.normal_form")),
    ("biproduct.normal_form.self_s", "s", ("self", "biproduct.normal_form")),
    ("biproduct.rewrite_steps", "count", ("count", "biproduct.rewrite_steps")),
    ("biproduct.redex_hit_ratio", "ratio", ("ratio", ("biproduct.rewrite_steps", "biproduct.RewriteSystem.redexes"))),
    ("biproduct.peak_terms", "count", ("count", "biproduct.peak_terms")),
    ("biproduct.check_local_confluence.self_s", "s", ("self", "biproduct.check_local_confluence")),
    ("biproduct.ambiguities", "count", ("count", "biproduct.ambiguities")),
    ("cli.self_s", "s", ("layer_self", "cli")),
    ("cli.errors", "count", ("errors", "cli")),
    ("cli.run.self_s", "s", ("self", "cli.run")),
    ("cli.emit_report.self_s", "s", ("self", "cli.emit_report")),
]
# metrics the tracer itself adds, filled in by the worker
TRACE_METRICS = [
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unseen_calls", "count"),
    ("trace.nondeterministic_counters", "count"),
    ("trace.hook_errors", "count"),
]


def _short(name: str) -> str:
    return "new" if name == "__init__" else name.strip("_")


def _wrappable(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def _methods(layer, cls):
    """Public methods and arithmetic dunders of an arithmetic class."""
    for attr, raw in vars(cls).items():
        if attr in _SKIPPED_DUNDERS or (attr.startswith("_") and not attr.endswith("__")):
            continue
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if _wrappable(fn):
            yield f"{layer}.{cls.__name__}.{_short(fn.__name__)}", layer, True, cls, attr, raw


def _qpower(den) -> bool:
    """True when a denominator's coefficients are those of ±q^k."""
    nonzero = [c for c in den if c]
    return len(nonzero) == 1 and abs(nonzero[0]) == 1


class Snapshot:
    """Stats of one traced pass: per-callable [calls, self seconds], counters,
    spans, and the factor that rescales its times to a fixed host speed."""

    def __init__(self, stats, counters, errors, spans, jobs, scale):
        self.scale = scale
        self.stats = {k: tuple(v) for k, v in stats.items()}
        self.counters = Counter(counters)
        self.errors = Counter(errors)
        self.spans = list(spans)
        self.jobs = jobs

    def counts(self) -> dict:
        """Every deterministic count: calls per callable, counters, errors."""
        out = {f"{name}.calls": calls for name, (calls, _) in self.stats.items()}
        out.update(self.counters)
        out.update({f"{layer}.errors": n for layer, n in self.errors.items()})
        return out

    def metric(self, kind, key):
        stats, counters = self.stats, self.counters
        if kind == "layer_self":
            return self.scale * sum(s for name, (_, s) in stats.items() if name.split(".", 1)[0] == key)
        if kind == "errors":
            return self.errors[key]
        if kind == "calls":
            return stats.get(key, (0, 0.0))[0]
        if kind == "self":
            return self.scale * stats.get(key, (0, 0.0))[1]
        if kind == "per_job":
            return stats.get(key, (0, 0.0))[0] / self.jobs
        if kind == "share":
            calls = stats.get(key, (0, 0.0))[0]
            return counters[f"{key}.qpower_den"] / calls if calls else 0.0
        if kind == "ratio":
            num, den = key
            den_value = counters[den] if den in counters else stats.get(den, (0, 0.0))[0]
            return counters[num] / den_value if den_value else 0.0
        return counters[key]


def layer_metrics(snapshots) -> dict:
    """Per-layer metrics over traced passes: counts from the first, times as medians."""
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        values = [snap.metric(kind, key) for snap in snapshots]
        out[name] = (median(values) if unit == "s" else values[0], unit)
    return out


def differing_counts(snapshots) -> list:
    """Names of counts that are not identical across the traced passes."""
    first = snapshots[0].counts()
    names = set()
    for snap in snapshots[1:]:
        other = snap.counts()
        names |= {k for k in first.keys() | other.keys() if first.get(k, 0) != other.get(k, 0)}
    return sorted(names)


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counters = Counter()
        self.errors = Counter()
        self.spans = []
        self.job_id = None
        self.originals = {}  # wrapped name -> original function
        self._patched = []  # (owner, attribute, original value)
        # frames: [child seconds, layer, span id, name]; the roots stand for the caller
        self._ostack = [[0.0, "bench", None, None]]
        self._astack = [[0.0, None, None, None]]

    # -- state -----------------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.counters.clear()
        self.errors.clear()
        self.spans.clear()

    def snapshot(self, jobs: int, scale: float = 1.0) -> Snapshot:
        return Snapshot(self.stats, self.counters, self.errors, self.spans, jobs, scale)

    # -- wrapping --------------------------------------------------------------

    def _targets(self):
        """(name, layer, arithmetic, owner class or None, attribute, attribute value)."""
        for arithmetic, table in ((False, ORCHESTRATION), (True, ARITHMETIC)):
            for layer, modules in table.items():
                for modname in modules:
                    module = importlib.import_module(modname)
                    for attr, obj in list(vars(module).items()):
                        if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                            continue
                        if _wrappable(obj):
                            yield f"{layer}.{attr}", layer, arithmetic, None, attr, obj
                        elif arithmetic and inspect.isclass(obj):
                            yield from _methods(layer, obj)
        for path in ORCHESTRATION_METHODS:
            layer, cls_name, attr = path.split(".")
            cls = getattr(importlib.import_module(ORCHESTRATION[layer][0]), cls_name)
            yield path, layer, False, cls, attr, cls.__dict__[attr]

    def install(self):
        """Wrap every target and rebind it wherever borelweyl binds it."""
        wrappers = {}  # id(original function) -> wrapper
        for name, layer, arithmetic, owner, attr, raw in self._targets():
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if id(fn) not in wrappers:
                self.originals[name] = fn
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer, arithmetic))
            wrapper = wrappers[id(fn)][1]
            if owner is not None:
                self._patch(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "borelweyl" and not modname.startswith("borelweyl."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer, arithmetic):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._astack if arithmetic else self._ostack
        ostack, spans, errors = self._ostack, self.spans, self.errors
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            caller = parent[1] or ostack[-1][1]
            span = None
            if not arithmetic and caller != layer:
                span = len(spans)
                spans.append(None)
            frame = [0.0, layer, parent[2] if span is None else span, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except ENGINE_ERRORS:
                if caller != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                parent[0] += t1 - t0
                if span is not None:
                    spans[span] = (name, t0, t1, parent[2], tracer.job_id)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.counters["trace.hook_errors"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def in_call(self, name) -> bool:
        return any(frame[3] == name for frame in self._ostack)

    # -- the self-test -------------------------------------------------------------

    def unseen_calls(self, work) -> dict:
        """Run ``work`` under sys.setprofile and return, per wrapped callable,
        how many calls of the original the wrapper did not see."""
        codes = {fn.__code__: name for name, fn in self.originals.items()}
        seen = Counter()

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    seen[name] += 1

        before = {name: stat[0] for name, stat in self.stats.items()}
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            work()
        finally:
            sys.setprofile(previous)
        wrapped = {name: stat[0] - before[name] for name, stat in self.stats.items()}
        return {name: seen[name] - wrapped.get(name, 0)
                for name in seen if seen[name] != wrapped.get(name, 0)}


# -- counters read at a call's boundary ----------------------------------------------


def _qscalar_new(tracer, args, kwargs, result):
    den = args[2] if len(args) > 2 else kwargs.get("den", (1,))
    if _qpower(den):
        tracer.counters["exact.QScalar.new.qpower_den"] += 1


def _redexes(tracer, args, kwargs, result):
    if result:
        tracer.counters["biproduct.rewrite_steps"] += 1


def _normal_form(tracer, args, kwargs, result):
    peak = max(len(args[0].terms), len(result.terms))
    if peak > tracer.counters["biproduct.peak_terms"]:
        tracer.counters["biproduct.peak_terms"] = peak


def _confluence(tracer, args, kwargs, result):
    tracer.counters["biproduct.ambiguities"] += len(result.ambiguities)


def _verify(tracer, args, kwargs, result):
    tracer.counters["morphisms.relations"] += len(result.assignment.presentation.relations)


def _witness(tracer, args, kwargs, result):
    tracer.counters["morphisms.witness.denominators"] += len(result.entries)


def _apply_vec(tracer, args, kwargs, result):
    if tracer.in_call("morphisms.birational_witness"):
        tracer.counters["morphisms.witness.shift_tries"] += 1


_HOOKS = {
    "exact.QScalar.new": _qscalar_new,
    "biproduct.RewriteSystem.redexes": _redexes,
    "biproduct.normal_form": _normal_form,
    "biproduct.check_local_confluence": _confluence,
    "morphisms.verify": _verify,
    "morphisms.birational_witness": _witness,
    "skew.ModelContext.apply_vec": _apply_vec,
}
