"""Per-layer tracing of hamfam from outside the package.

The layers are the modules of the package.  ``Tracer.install`` wraps every
public callable of each module: module functions, public methods, and the
dunders in ``WRAPPED_DUNDERS`` (the arithmetic of ``CycloRat`` and
``LaurentPoly`` plus construction, calls and complex conversion).  Every
module namespace that holds a wrapped function is re-pointed at the wrapper,
so calls between modules go through it as well.  ``uninstall`` restores the
originals; nothing in the package source changes.

A span opens whenever a call crosses from one layer into another (the
benchmark's own code is the root layer, ``bench``).  A layer's self time is
its span time minus the time of the spans it opened.  Counters and the
inclusive timers of ``INCLUSIVE`` sit in the same wrappers, so they count
calls made inside a layer too.  Spans are aggregated in memory by their
layer path (``bench>hamiltonian>poly>cyclo``) rather than stored one by one.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cyclo", "poly", "hamiltonian", "symmetry", "integrate", "cli")
WRAPPED_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                   "__pow__", "__init__", "__call__", "__complex__")

# callables whose inclusive time is reported, also for calls inside a layer
INCLUSIVE = ("verify_equivalence", "time_derivative_of_H",
             "verify_invariance", "map_order",
             "BirationalMap.apply_numeric", "CompiledField.__init__",
             "check_symmetry_on_trajectory")

FIELD_CALL = "CompiledField.__call__"
# stages per attempted step of the adaptive method (Fehlberg 4(5)); used to
# turn its field evaluations into attempted steps
ADAPTIVE_STAGES = 6
STOP_LABELS = ("completed", "singularity", "overflow", "step-underflow")

# per-layer metric -> the end-to-end metric it should move; names and units
# are in BENCHMARK.json
TARGETS = {
    "cyclo.busy_s": "pass_s on certify",
    "cyclo.mul_calls": "pass_s on certify",
    "cyclo.zeta_share": ("input property of certify: ~0 in the general "
                         "group, high in nonauto"),
    "poly.busy_s": "pass_s on certify",
    "poly.mul_calls": "pass_s on certify",
    "poly.diff_calls": "pass_s on certify",
    "poly.substitute_calls": "pass_s on certify",
    "poly.terms_constructed": "pass_s on certify",
    "poly.terms_max": "op_p90_ms and peak_rss_mb on certify",
    "hamiltonian.busy_s": "pass_s[general] on certify",
    "hamiltonian.equivalence_s": "pass_s[general] on certify",
    "hamiltonian.first_integral_s": "pass_s[general] on certify",
    "symmetry.busy_s": "pass_s[nonauto] on certify",
    "symmetry.invariance_s": "pass_s[nonauto] on certify",
    "symmetry.order_s": "pass_s[nonauto] on certify",
    "symmetry.compose_calls": "pass_s[nonauto] on certify",
    "symmetry.apply_numeric_s": "pass_s[single] on flow",
    "integrate.busy_s": "pass_s on flow",
    "integrate.compile_s": "pass_s[grid] and op_p90_ms on flow; setup_s",
    "integrate.compile_calls": "pass_s[grid] and op_p90_ms on flow; setup_s",
    "integrate.steps_accepted": "pass_s on flow",
    "integrate.field_evals": "pass_s on flow",
    "integrate.evals_per_s": "pass_s on flow",
    "integrate.accept_ratio": "pass_s on flow",
    "integrate.symcheck_s": "pass_s[single] on flow",
    "integrate.drift_max": "none; moves only with accuracy changes",
    "integrate.stops.completed": "none; moves only with termination changes",
    "integrate.stops.singularity": "none; moves only with termination changes",
    "integrate.stops.overflow": "none; moves only with termination changes",
    "integrate.stops.step-underflow": ("none; moves only with termination "
                                       "changes"),
    "integrate.stops.other": "none; moves only with termination changes",
    "import.hamfam_s": "setup_s on certify",
    "import.numpy_s": "setup_s on certify",
    "cli.verify_process_s": "setup_s on certify",
    "trace.wall_s": "none; traced wall time of one pass",
    "trace.untraced_wall_s": "pass_s",
    "trace.overhead_s": "none; cost of the tracing itself",
    "trace.remainder_s": "none; benchmark time outside every layer",
}


class Tracer:
    """Wraps the package's public callables; one ``begin``/``end`` per pass."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: importlib.import_module(
            f"{package.__name__}.{layer}") for layer in LAYERS}
        cyclo_rat = self.modules["cyclo"].CycloRat
        self._cyclo_rat = cyclo_rat
        self._is_rational = cyclo_rat.is_rational
        self._integrate_sig = inspect.signature(
            self.modules["integrate"].integrate)
        self._pre = {"integrate": lambda args, kwargs: self.calls[FIELD_CALL]}
        self._post = {"CycloRat.__mul__": self._count_product,
                      "CycloRat.__rmul__": self._count_product,
                      "LaurentPoly.__init__": self._count_terms,
                      "integrate": self._count_trajectory}
        self._undo: list[tuple[object, str, object]] = []
        self.stack: list[list] = []
        self.begin()

    # -- per-pass state ------------------------------------------------

    def begin(self) -> None:
        self.stack.clear()
        self.stack.append(["bench", 0.0, 0.0, ("bench",)])
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = defaultdict(float)
        self.calls = Counter()
        self.tree = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.zeta_products = 0
        self.terms_constructed = 0
        self.terms_max = 0
        self.steps_accepted = 0
        self.adaptive_accepted = 0
        self.adaptive_attempts = 0
        self.stops = Counter()
        self.drift_max = 0.0

    def end(self, wall: float) -> dict:
        """Per-layer metrics of the pass that took ``wall`` seconds."""
        calls = self.calls
        cyclo_mul = calls["CycloRat.__mul__"] + calls["CycloRat.__rmul__"]
        integrate_busy = self.self_s["integrate"]
        evals = calls[FIELD_CALL]
        m = {
            "cyclo.busy_s": self.self_s["cyclo"],
            "cyclo.mul_calls": cyclo_mul,
            "cyclo.zeta_share": (self.zeta_products / cyclo_mul
                                 if cyclo_mul else 0.0),
            "poly.busy_s": self.self_s["poly"],
            "poly.mul_calls": (calls["LaurentPoly.__mul__"]
                               + calls["LaurentPoly.__rmul__"]),
            "poly.diff_calls": calls["LaurentPoly.diff"],
            "poly.substitute_calls": calls["LaurentPoly.substitute"],
            "poly.terms_constructed": self.terms_constructed,
            "poly.terms_max": self.terms_max,
            "hamiltonian.busy_s": self.self_s["hamiltonian"],
            "hamiltonian.equivalence_s":
                self.inclusive["verify_equivalence"],
            "hamiltonian.first_integral_s":
                self.inclusive["time_derivative_of_H"],
            "symmetry.busy_s": self.self_s["symmetry"],
            "symmetry.invariance_s": self.inclusive["verify_invariance"],
            "symmetry.order_s": self.inclusive["map_order"],
            "symmetry.compose_calls": calls["compose"],
            "symmetry.apply_numeric_s":
                self.inclusive["BirationalMap.apply_numeric"],
            "integrate.busy_s": integrate_busy,
            "integrate.compile_s": self.inclusive["CompiledField.__init__"],
            "integrate.compile_calls": calls["CompiledField.__init__"],
            "integrate.steps_accepted": self.steps_accepted,
            "integrate.field_evals": evals,
            "integrate.evals_per_s": (evals / integrate_busy
                                      if integrate_busy else 0.0),
            "integrate.accept_ratio": (
                self.adaptive_accepted / self.adaptive_attempts
                if self.adaptive_attempts else 0.0),
            "integrate.symcheck_s":
                self.inclusive["check_symmetry_on_trajectory"],
            "integrate.drift_max": self.drift_max,
            "integrate.stops.other": sum(
                n for label, n in self.stops.items()
                if label not in STOP_LABELS),
        }
        for label in STOP_LABELS:
            m[f"integrate.stops.{label}"] = self.stops[label]
        m["trace.wall_s"] = wall
        m["trace.remainder_s"] = wall - self.stack[0][2]
        return m

    def span_tree(self) -> dict[str, dict]:
        return {">".join(path): {"count": c, "total_s": tot, "self_s": slf}
                for path, (c, tot, slf) in sorted(self.tree.items())}

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        namespaces = [self.package] + list(self.modules.values())
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, layer, name)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, key, wrapper)
                elif inspect.isclass(obj) \
                        and not issubclass(obj, BaseException):
                    self._install_class(obj, layer)

    def _install_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(member.__func__, layer, label))
            elif inspect.isfunction(member):
                new = self._wrap(member, layer, label)
            else:  # properties, slot descriptors, plain data
                continue
            self._set(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: str, label: str):
        stack = self.stack
        tracer = self
        timed = label in INCLUSIVE
        pre = self._pre.get(label)
        post = self._post.get(label)

        def wrapper(*args, **kwargs):
            tracer.calls[label] += 1
            top = stack[-1]
            crossing = top[0] != layer
            if not (crossing or timed or post):
                return fn(*args, **kwargs)
            token = pre(args, kwargs) if pre else None
            start = perf_counter()
            if crossing:
                frame = [layer, start, 0.0, top[3] + (layer,)]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                if crossing:
                    stack.pop()
                    stack[-1][2] += dur
                    own = dur - frame[2]
                    tracer.self_s[layer] += own
                    node = tracer.tree[frame[3]]
                    node[0] += 1
                    node[1] += dur
                    node[2] += own
                if timed:
                    tracer.inclusive[label] += dur
            if post:
                post(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        return wrapper

    # -- counters that need the arguments or the result --------------------

    def _count_product(self, args, kwargs, result, token) -> None:
        a, b = args
        is_rat = self._is_rational
        if not is_rat(a) or (isinstance(b, self._cyclo_rat)
                             and not is_rat(b)):
            self.zeta_products += 1

    def _count_terms(self, args, kwargs, result, token) -> None:
        n = len(args[0].terms)
        self.terms_constructed += n
        if n > self.terms_max:
            self.terms_max = n

    def _count_trajectory(self, args, kwargs, traj, evals_before) -> None:
        bound = self._integrate_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        accepted = len(traj.times) - 1
        self.steps_accepted += accepted
        self.stops[traj.termination] += 1
        if traj.termination == "completed" and bound.arguments["sys"].autonomous:
            self.drift_max = max(self.drift_max, traj.drift)
        if bound.arguments["method"] == "adaptive-rk45":
            evals = self.calls[FIELD_CALL] - evals_before
            self.adaptive_accepted += accepted
            self.adaptive_attempts += math.ceil(evals / ADAPTIVE_STAGES)
