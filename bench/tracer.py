"""Spans and counters recorded around calls into the library's public names.

The tracer wraps functions from the benchmark's side: it replaces every
reference to a wrapped function in the loaded ``conceptua`` modules (module
globals and the values of module-level dicts, such as a table of suites)
and restores them on ``uninstall``. Nothing in the library changes.

A name that no longer exists, or no longer resolves to a callable, is
reported as absent and skipped, so the benchmark keeps running after a
refactor moves or deletes it.

Each wrapped call adds to its group's call count, total time and self time
(its duration minus that of the wrapped calls made inside it). Calls of
groups marked hot are only aggregated; every other call is also kept as a
span (id, group, start, end, parent span id, op index) and written out
when the run ends.
"""

import sys
import time
from dataclasses import dataclass, field

PACKAGE = "conceptua"


@dataclass(frozen=True)
class Target:
    """One public name to wrap, and the group it is counted under.

    ``counts`` maps (args, result) to extra counters for the group; it may
    raise if the library changed shape, which is recorded, not propagated.
    """

    module: str
    path: str
    group: str
    hot: bool = False
    counts: object = None


@dataclass
class Group:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.groups = {}
        self.spans = []
        self.absent = []
        self.count_errors = {}
        self.op_index = -1
        self.originals = {}
        self._patches = []
        self._stack = []  # [group, start, child seconds, span id]
        self._next_id = 0

    # ------------------------------------------------------------ wrapping

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for target in self.targets:
            owner, attr, original = _resolve(modules, target)
            if original is None:
                self.absent.append(f"{target.module}.{target.path}")
                continue
            self.originals[f"{target.module}.{target.path}"] = original
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        _assign(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            _assign(owner, key, original)
        self._patches.clear()

    def _wrap(self, original, target):
        tracer = self
        group = self.groups.setdefault(target.group, Group())

        def traced(*args, **kwargs):
            start = time.perf_counter()
            frame = [target.group, start, 0.0, None]
            if not target.hot:
                frame[3] = tracer._next_id
                tracer._next_id += 1
            tracer._stack.append(frame)
            result, returned = None, False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                group.calls += 1
                group.total_s += duration
                group.self_s += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                if frame[3] is not None:
                    parent = next((f[3] for f in reversed(tracer._stack) if f[3] is not None), None)
                    tracer.spans.append((frame[3], target.group, start, end, parent,
                                         tracer.op_index))
                if returned and target.counts is not None:
                    tracer._count(group, target, args, result)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", target.path)
        return traced

    def _count(self, group, target, args, result):
        try:
            extra = target.counts(args, result)
        except Exception as exc:  # noqa: BLE001 - a changed API must not stop the run
            key = f"{target.module}.{target.path}"
            self.count_errors.setdefault(key, f"{type(exc).__name__}: {exc}")
            return
        for name, value in extra.items():
            group.counters[name] = group.counters.get(name, 0) + value

    # --------------------------------------------------------------- spans

    def op(self, index):
        """Context for one op: its span is the root of the spans it causes."""
        return _OpSpan(self, index)


class _OpSpan:
    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        tracer = self.tracer
        tracer.op_index = self.index
        self.frame = ["op", time.perf_counter(), 0.0, tracer._next_id]
        tracer._next_id += 1
        tracer._stack.append(self.frame)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        end = time.perf_counter()
        # An op stopped by its time budget can leave frames of calls that
        # never returned; drop them together with the op frame.
        while tracer._stack and tracer._stack.pop() is not self.frame:
            pass
        group = tracer.groups.setdefault("op", Group())
        duration = end - self.frame[1]
        group.calls += 1
        group.total_s += duration
        group.self_s += duration - self.frame[2]
        tracer.spans.append((self.frame[3], "op", self.frame[1], end, None, self.index))
        return False


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _resolve(modules, target):
    """(owner, attribute, callable) for a target, or (None, None, None)."""
    mod = modules.get(f"{PACKAGE}.{target.module}")
    if mod is None:
        return None, None, None
    owner = mod
    parts = target.path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    if isinstance(owner, type):
        value = owner.__dict__.get(parts[-1])
    else:
        value = getattr(owner, parts[-1], None)
    if not callable(value):
        return None, None, None
    return owner, parts[-1], value
