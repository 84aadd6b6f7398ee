"""Outside-in span tracing of syncplan's layer entry points.

`Tracer.wrapped()` replaces module attributes with timing wrappers for the
duration of a `with` block, so every call the pipeline or the verify loop
makes through those names records a span.  Spans live in memory until the
benchmark writes them out; nothing inside `src/` is changed.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute) wrapped in traced runs -> span name (the layer)
WRAPPED = (
    ("syncplan.pipeline", "validate", "agents.validate"),
    ("syncplan.pipeline", "translate", "translate"),
    ("syncplan.pipeline", "language_empty", "buchi.emptiness"),
    ("syncplan.pipeline", "compute_dependency_classes", "globalprod.classes"),
    ("syncplan.pipeline", "build_global_product", "globalprod.product"),
    ("syncplan.pipeline", "synthesize", "globalprod.synthesize"),
    ("syncplan.pipeline", "minimize_synchronizations", "globalprod.minimize"),
    ("syncplan.pipeline", "estimate_centralized", "executor.estimate"),
    ("syncplan.motion", "build_motion_product", "motion.product"),
    ("syncplan.motion", "reduce", "motion.reduce"),
    ("syncplan.taskprod", "build_task_motion_product", "taskprod.product"),
    ("syncplan.taskprod", "compute_dep", "taskprod.dep"),
    ("syncplan.taskprod", "compute_globally_assisting", "taskprod.assisting"),
    ("syncplan.taskprod", "reduce_task_motion", "taskprod.reduce"),
    ("syncplan.executor", "translate", "translate"),
    ("syncplan.executor", "simulate", "executor.simulate"),
    ("syncplan.executor", "check_timing", "executor.timing"),
    ("syncplan.executor", "check_local_satisfaction", "executor.verdicts"),
    ("syncplan.buchi", "check_lasso_membership", "buchi.membership"),
    ("syncplan.ltl", "eval_ltl", "ltl.eval"),
)


class TraceError(RuntimeError):
    pass


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root
    name: str
    run: int
    start: float
    end: float = 0.0
    size: int = 0  # transitions of a returned automaton, where the layer returns one
    children: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children

    def record(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "run": self.run,
            "start": self.start,
            "end": self.end,
            "size": self.size,
        }


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    run: int = 0
    _stack: list = field(default_factory=list)
    entered: dict = field(default_factory=dict)  # (module, attr) -> calls

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        sp = Span(len(self.spans), parent, name, self.run, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span):
        sp.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += sp.duration

    def _wrapper(self, key, fn, name):
        def traced(*args, **kwargs):
            self.entered[key] += 1
            sp = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sp)
            transitions = getattr(out, "transitions", None)
            if isinstance(transitions, list):
                sp.size = len(transitions)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def wrapped(self):
        """Install every wrapper in WRAPPED; restore the originals on exit.

        A missing attribute raises TraceError before anything is replaced.
        """
        originals = []
        for mod_name, attr, _ in WRAPPED:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                raise TraceError(f"{mod_name}.{attr} does not exist")
            originals.append((module, attr, getattr(module, attr)))
        for (module, attr, fn), (mod_name, _, name) in zip(originals, WRAPPED):
            key = (mod_name, attr)
            self.entered.setdefault(key, 0)
            setattr(module, attr, self._wrapper(key, fn, name))
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def never_entered(self) -> list:
        return [f"{m}.{a}" for (m, a), calls in sorted(self.entered.items()) if calls == 0]

    def tree(self, root: Span) -> list:
        """The root span and all its descendants."""
        ids = {root.sid}
        out = [root]
        for sp in self.spans[root.sid + 1 :]:
            if sp.parent in ids:
                ids.add(sp.sid)
                out.append(sp)
        return out
