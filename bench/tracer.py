"""Host-time instrumentation of the package, installed from outside it.

`SetupClock` times the three set-up entry points in every run.  `Tracer`,
used only in a traced run, replaces every public function of the package's
modules and every public method of their classes with a wrapper recording
a span: its name, the span that called it, and its inclusive and self time.
Spans are aggregated per (name, parent) in memory and written out when the
run ends.  Both restore the original attributes when their context exits.
"""

import contextlib
import enum
import functools
import importlib
import time
import types

from lightv_sim.machine import Machine

PACKAGE = "lightv_sim"
MODULES = ("addressing", "coherence", "lightv", "machine", "mmu", "scenarios", "cli")
# Non-public methods that are still layer boundaries worth a span.
EXTRA_METHODS = {("machine", "Machine", "__init__"): "machine.Machine.init"}
SETUP_METHODS = ("__init__", "register_space", "activate_rules")


@contextlib.contextmanager
def patched(replacements):
    """Set `owner.attr = value` for each triple; restore the originals after."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _rewrap(raw, wrap):
    """Apply `wrap` to the function inside a plain, class or static method."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


def targets():
    """(owner, attribute, span name) for everything a traced run wraps.

    A module-level function is also rebound in every other module of the
    package that imported it by name, so callers there see the wrapper.
    """
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    namespaces = modules + [importlib.import_module(PACKAGE)]
    found = []
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in sorted(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                for ns in namespaces:
                    for alias, other in vars(ns).items():
                        if other is obj:
                            found.append((ns, alias, f"{short}.{attr}"))
            elif isinstance(obj, type) and not issubclass(obj, (BaseException, enum.Enum)):
                for name, raw in sorted(vars(obj).items()):
                    span = EXTRA_METHODS.get((short, attr, name))
                    if span is None and name.startswith("_"):
                        continue
                    func = getattr(raw, "__func__", raw)
                    if isinstance(func, types.FunctionType):
                        found.append((obj, name, span or f"{short}.{attr}.{name}"))
    return found


class SetupClock:
    """Sums host time spent inside `Machine(...)`, `register_space` and
    `activate_rules`; optionally keeps each machine built, for its counters."""

    def __init__(self, keep_machines: bool = False):
        self.seconds = 0.0
        self.machines = []
        self._keep = keep_machines

    def replacements(self):
        return [
            (Machine, name, self._timed(vars(Machine)[name], name == "__init__"))
            for name in SETUP_METHODS
        ]

    def _timed(self, fn, constructor):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(machine, *args, **kwargs):
            t0 = clock()
            try:
                return fn(machine, *args, **kwargs)
            finally:
                self.seconds += clock() - t0
                if constructor and self._keep:
                    self.machines.append(machine)

        return timed

    def take(self):
        """Return (seconds, machines) gathered since the last call, and reset."""
        out = (self.seconds, self.machines)
        self.seconds, self.machines = 0.0, []
        return out


class Tracer:
    """Span recorder; install with `patched(tracer.replacements(...))`."""

    def __init__(self):
        self.spans = {}  # (name, parent name or None) -> [count, incl_ns, self_ns]
        self.roots = 0
        self.root_mismatches = []  # (name, wall_ns, sum of self_ns)
        self.resolution_ns = max(1, round(time.get_clock_info("perf_counter").resolution * 1e9))
        self._stack = []
        self._tree_self = [0]

    def replacements(self, found):
        wrappers = {}
        out = []
        for owner, attr, name in found:
            raw = vars(owner)[attr]
            if id(raw) not in wrappers:
                wrappers[id(raw)] = _rewrap(raw, lambda fn, n=name: self._wrap(n, fn))
            out.append((owner, attr, wrappers[id(raw)]))
        return out

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        tree_self = self._tree_self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                tree_self[0] = 0
            frame = [name, 0]  # name, inclusive ns of direct children
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                tree_self[0] += own
                key = (name, parent[0] if parent else None)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += own
                if parent is None:
                    self._close_root(name, dt)
                else:
                    parent[1] += dt

        return span

    def _close_root(self, name, wall_ns):
        # A root's wall time must equal the self times of its whole tree.
        self.roots += 1
        if abs(self._tree_self[0] - wall_ns) > self.resolution_ns:
            self.root_mismatches.append((name, wall_ns, self._tree_self[0]))

    def totals(self) -> dict:
        """name -> [count, incl_ns, self_ns], summed over parents."""
        out = {}
        for (name, _), (count, incl, own) in self.spans.items():
            agg = out.setdefault(name, [0, 0, 0])
            agg[0] += count
            agg[1] += incl
            agg[2] += own
        return out

    def to_json(self) -> list:
        return [
            {"name": name, "parent": parent, "count": c, "incl_ns": i, "self_ns": s}
            for (name, parent), (c, i, s) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]
