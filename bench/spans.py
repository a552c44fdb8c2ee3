"""Span recorder that times the mrap layers from outside the package.

Instrumentation replaces, for the duration of a traced repeat, the functions
that ``mrap.cli``, ``mrap.ingest`` and ``mrap.evaluation`` call, under the
names those modules bind, with wrappers that record one span per call. A span
keeps its name, start, end, parent span and run id in memory; nothing is
written until the benchmark ends. A target that no longer exists (for example
because a function was renamed) is reported as unbound instead of failing.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# (module, attribute path, span name). The attribute path is the name under
# which the module binds the function it calls; the span name's prefix is the
# layer (module of src/mrap) the function belongs to.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("mrap.cli", "load_bundle", "cli.load_bundle"),
    ("mrap.cli", "parse_triples", "ingest.parse_triples"),
    ("mrap.cli", "parse_attributes", "ingest.parse_attributes"),
    ("mrap.cli", "load_dataset", "ingest.load_dataset"),
    ("mrap.ingest", "build_graph", "graph.build_graph"),
    ("mrap.ingest", "AttributeTable.build", "attributes.build"),
    ("mrap.cli", "split_attributes", "ingest.split_attributes"),
    ("mrap.cli", "subsample_observed", "ingest.subsample_observed"),
    ("mrap.cli", "read_split_manifest", "ingest.read_split_manifest"),
    ("mrap.cli", "apply_split_manifest", "ingest.apply_split_manifest"),
    ("mrap.cli", "write_split_manifest", "ingest.write_split_manifest"),
    ("mrap.cli", "build_registry", "regression.build_registry"),
    ("mrap.cli", "write_model_dump", "regression.write_model_dump"),
    ("mrap.cli", "read_model_dump", "regression.read_model_dump"),
    ("mrap.cli", "run", "propagation.run"),
    ("mrap.cli", "write_imputations", "propagation.write_imputations"),
    ("mrap.cli", "write_trace", "propagation.write_trace"),
    ("mrap.cli", "baseline_global", "evaluation.baseline_global"),
    ("mrap.cli", "baseline_local", "evaluation.baseline_local"),
    ("mrap.cli", "evaluate", "evaluation.evaluate"),
    ("mrap.cli", "write_report_csv", "evaluation.write_report_csv"),
    ("mrap.cli", "format_report_table", "evaluation.format_report_table"),
    ("mrap.cli", "ablation_suite", "evaluation.ablation_suite"),
    ("mrap.evaluation", "run", "propagation.run"),
    ("mrap.evaluation", "evaluate", "evaluation.evaluate"),
)

Observer = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)  # counts an observer took from the call

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "run": self.run,
            "start": self.start,
            "end": self.end,
        }


class Recorder:
    """In-memory spans of one benchmark process, grouped by run id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unbound: list[str] = []  # span names whose target could not be patched
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            run=self.run,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    s.info = observe(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    # the program changed shape; its counts become missing
                    s.info = {"unobservable": repr(exc)}
            return result

        return traced

    def of_run(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run one after another on the caller's thread, so the time they
    cover is the sum of their durations.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    if not present:
        raise AttributeError(f"{module_name}.{path}")
    return owner, attr


@contextmanager
def instrument(recorder: Recorder, observers: dict[str, Observer]) -> Iterator[None]:
    """Patch every target for the duration of the block, then restore it."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name in TARGETS:
            try:
                owner, attr = _resolve(module_name, path)
            except AttributeError:
                if name not in recorder.unbound:
                    recorder.unbound.append(name)
                continue
            # a class attribute is restored from the class's own namespace, so
            # that a classmethod comes back as a classmethod
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = recorder.wrap(name, getattr(owner, attr), observers.get(name))
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)  # already bound to its class
            restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)
