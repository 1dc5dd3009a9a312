"""Outside-in layer tracing: wrap the package's public functions, record spans.

Nothing in the package is edited.  ``Tracer.install`` replaces each traced
function with a wrapper wherever a module of the package binds it (so both
``model.validate`` and the ``validate`` that ``brauer`` imported are
covered), and ``Tracer.restore`` puts every original back.  A traced name
that the package no longer defines is listed in ``Tracer.absent`` rather than
raising, so the benchmark keeps running across refactors.

Spans stay in memory as ``Span`` tuples; ``summarize`` turns them into
per-name call counts, inclusive time and self time.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, NamedTuple

PACKAGE = "isbbrauer"

# layer.function -> (module, attribute path).  ``f2.subspace_check`` is the
# invariant check every ``Subspace`` runs on construction.
TRACED = {
    "dsl.parse": ("dsl", "parse"),
    "model.validate": ("model", "validate"),
    "brauer.unramified_brauer": ("brauer", "unramified_brauer"),
    "brauer.matrix_p_to_r": ("brauer", "matrix_p_to_r"),
    "brauer.matrix_q_to_p": ("brauer", "matrix_q_to_p"),
    "brauer.ramification_lift": ("brauer", "ramification_lift"),
    "f2.rref": ("f2", "rref"),
    "f2.kernel_basis": ("f2", "kernel_basis"),
    "f2.column_space": ("f2", "column_space"),
    "f2.sum_subspace": ("f2", "sum_subspace"),
    "f2.member": ("f2", "member"),
    "f2.intersection_basis": ("f2", "intersection_basis"),
    "f2.subspace_check": ("f2", "Subspace.__post_init__"),
    "cli.run": ("cli", "run"),
    "cli.report_json": ("cli", "report_json"),
    "toric.resolve_demo": ("toric", "resolve_demo"),
    "toric.singular_faces": ("toric", "singular_faces"),
    "toric.star_subdivide": ("toric", "star_subdivide"),
    "toric.is_smooth": ("toric", "is_smooth"),
    "toric.support_contains": ("toric", "support_contains"),
    "toric.parse_fan_script": ("toric", "parse_fan_script"),
}


def _rref_cells(args, result):
    return args[0].rows * args[0].cols


def _parse_lines(args, result):
    return len(args[0].splitlines())


def _smooth(args, result):
    return int(result.smooth)


# Per-span counts taken at the boundary where the work happens.  A hook sees
# the call's arguments and its result (None when the call raised).
INFO_HOOKS: dict[str, Callable] = {
    "f2.rref": _rref_cells,
    "dsl.parse": _parse_lines,
    "toric.is_smooth": _smooth,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    op: int
    info: int | None  # value of the name's INFO_HOOKS entry, if any
    raised: bool


class Tracer:
    def __init__(self, traced: dict = TRACED):
        self.traced = traced
        self.spans: list[Span | None] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: list[Callable] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, hook = self.spans, self._stack, INFO_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, raised = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                info = hook(args, result) if hook is not None and not raised else None
                spans[index] = Span(name, start, end, parent, self.op, info, raised)

        traced.__wrapped__ = fn
        self._wrappers.append(traced)
        return traced

    def _modules(self) -> list:
        return [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for name, (module, path) in self.traced.items():
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: one binding, on its class
                self._rebind(owner, attr, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reachable_wrappers(self) -> list[str]:
        """Bindings in the package's modules and classes that still hold a wrapper."""
        wrappers = {id(w) for w in self._wrappers}
        found = []
        for m in self._modules():
            for key, value in vars(m).items():
                if id(value) in wrappers:
                    found.append(f"{m.__name__}.{key}")
                elif isinstance(value, type):
                    found += [f"{m.__name__}.{key}.{k}" for k, v in vars(value).items() if id(v) in wrappers]
        return found


class LayerStats(NamedTuple):
    calls: int
    inclusive_s: float
    self_s: float
    info: int  # sum of the span infos


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name totals.

    Self time is a span's duration minus the time its direct children
    cover.  Inclusive time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, list] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, [0, 0.0, 0.0, 0])
        t[0] += 1
        t[2] += (s.end - s.start) - child_time[i]
        t[3] += s.info or 0
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            t[1] += s.end - s.start
    return {name: LayerStats(*t) for name, t in totals.items()}


def order_counts(spans: list[Span]) -> tuple[int, int]:
    """(orderings accepted, orderings tried) by ``resolve_demo``'s search.

    Each ordering ends either in a ``star_subdivide`` that raises or in one
    ``is_smooth`` call on the final fan, both direct children of the
    ``resolve_demo`` span; the smooth ones are accepted.
    """
    accepted = tried = 0
    for s in spans:
        if s.parent < 0 or spans[s.parent].name != "toric.resolve_demo":
            continue
        if s.name == "toric.is_smooth" and not s.raised:
            tried += 1
            accepted += s.info
        elif s.name == "toric.star_subdivide" and s.raised:
            tried += 1
    return accepted, tried
