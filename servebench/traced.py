"""The traced run: replay a workload's seeded job stream in this process
through :func:`repro.service.pool.run_job`, with in-memory spans around
the calls into each layer's public functions.

The spans come from attribute patching done here (:func:`patched`); no
source file of the program is touched, and every patched attribute is
restored on exit.  Each job runs twice, on two fresh registries: pass
A untraced (only ``run_job`` is timed), pass B traced.  Running the two
job by job exposes both to the same host conditions.  Layer figures come
from pass B; the process-global plan cache starts cold, so the two
passes' plan-cache misses together are what one fresh worker compiles;
the ratio of the passes' ``run_job`` time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import stats

#: ``(module[:class], attribute, span name)`` — the layer entry points.
TARGETS = (
    ("repro.core.parser", "parse_database", "parser.parse_database"),
    ("repro.core.database:Database", "content_hash", "store.content_hash"),
    ("repro.service.registry", "compile_theory", "registry.compile"),
    ("repro.service.registry", "evaluate", "datalog.evaluate"),
    ("repro.service.registry", "run_chase", "chase.run"),
    ("repro.service.registry", "answers_in", "chase.answers_in"),
    ("repro.service.registry", "save_snapshot", "store.snapshot_save"),
    ("repro.service.registry", "load_snapshot", "store.snapshot_load"),
    ("repro.service.registry:CompiledTheory", "answer", "registry.answer"),
    ("repro.service.registry:CompiledTheory", "update", "registry.update"),
    ("repro.incremental.engine:LiveModel", "apply", "incremental.apply"),
    ("repro.incremental.engine:ChaseLiveModel", "apply", "incremental.apply"),
    ("repro.incremental.engine:RecomputeLiveModel", "apply", "incremental.apply"),
)


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Spans kept in memory; the open-span stack gives each its parent,
    ``request`` (set per replayed job) is the id spans of one job share."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: Optional[int] = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        record = Span(
            span_id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            request=self.request,
            name=name,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                _annotate(record, args, result)
                return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def self_ms(self) -> dict[int, float]:
        """Self time (ms) of every span: duration minus child coverage."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return {
            span.span_id: stats.self_time(span.start, span.end, children.get(span.span_id, ())) * 1e3
            for span in self.spans
        }


def _annotate(record: Span, args: tuple, result: Any) -> None:
    """Counts measured where the work happens."""
    name = record.name
    if name == "parser.parse_database":
        record.attrs["facts"] = len(result)
    elif name == "datalog.evaluate":
        record.attrs["derived"] = len(result) - len(args[1])
    elif name == "chase.run":
        record.attrs["steps"] = result.steps
        record.attrs["nulls"] = result.nulls_created
    elif name == "chase.answers_in":
        record.attrs["answers"] = len(result)
    elif name == "store.snapshot_save":
        record.attrs["bytes"] = int(result or 0)
    elif name == "incremental.apply":
        record.attrs.update(
            delta=result.delta_size,
            overdeleted=result.overdeleted,
            rederived=result.rederived,
            fallback=result.fallback is not None,
        )


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def patched(recorder: Recorder, targets=TARGETS):
    """Wrap every target with a span for the duration of the block; the
    original attributes (own or inherited) are restored on exit."""
    saved = []
    try:
        for path, attribute, name in targets:
            owner = _resolve(path)
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            saved.append((owner, attribute, own, original))
            setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))
        yield recorder
    finally:
        for owner, attribute, own, original in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One worker job as the server would ship it.  ``database=None``
    means the theory's live database (threaded from update results);
    ``subscribe`` marks a subscription refresh whose diff is an event."""

    job: dict
    tag: Any = None
    subscribe: bool = False
    #: Part of the workload's setup (registration, warm-up queries).
    setup: bool = False


class Replayer:
    """A fresh registry that runs jobs in order as one worker would,
    timing each ``run_job``.  ``live`` maps theory text to its starting
    live database (the server's ``--data``); update results advance it.
    With a ``recorder``, each job runs under a ``pool.run_job`` root span
    whose request id is the job's index."""

    def __init__(self, *, live: Optional[dict] = None, snapshot_dir: Optional[str] = None,
                 recorder: Optional[Recorder] = None) -> None:
        from repro.service.registry import TheoryRegistry

        self.registry = TheoryRegistry(snapshot_dir=snapshot_dir)
        self.recorder = recorder
        self.live = dict(live or {})
        self.run_job_ms: list[float] = []
        self.payloads: list[dict] = []
        #: Subscription refreshes whose answers changed (pushed events).
        self.events = 0
        #: Registry counters once the setup jobs are done.
        self.setup_stats = self.registry.stats()
        #: Plan-cache traffic of this replayer's jobs.
        self.plan = {"hits": 0, "misses": 0}
        self._subscribed: dict[str, frozenset] = {}

    def run(self, index: int, spec: Job) -> dict:
        from repro.core.plan import plan_cache_stats
        from repro.service.pool import run_job

        job = dict(spec.job)
        theory = job["theory"]
        if job.get("database") is None:
            job["database"] = self.live.get(theory, "")
        before = plan_cache_stats()
        started = time.perf_counter()
        if self.recorder is None:
            payload = run_job(self.registry, job, allow_faults=False)
        else:
            self.recorder.request = index
            with self.recorder.span("pool.run_job", kind=job.get("kind")):
                payload = run_job(self.registry, job, allow_faults=False)
        self.run_job_ms.append((time.perf_counter() - started) * 1e3)
        after = plan_cache_stats()
        for key in self.plan:
            self.plan[key] += after[key] - before[key]
        if job.get("kind") == "update" and payload.get("ok"):
            self.live[theory] = payload.pop("database")
        if spec.subscribe and payload.get("ok"):
            answers = frozenset(tuple(row) for row in payload.get("answers", []))
            key = theory + "\0" + job["output"]
            if key in self._subscribed and answers != self._subscribed[key]:
                self.events += 1
            self._subscribed[key] = answers
        if spec.setup:
            self.setup_stats = self.registry.stats()
        self.payloads.append(payload)
        return payload


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------
def layer_metrics(recorder: Recorder, untraced: Replayer, traced: Replayer,
                  jobs: list[Job]) -> dict:
    """The per-layer metrics of a replay pair (see README.md)."""
    own = recorder.self_ms()
    per_request: dict[str, dict[int, float]] = {}
    totals: dict[str, float] = {}
    roots: dict[int, Span] = {}
    for span in recorder.spans:
        if span.name == "pool.run_job":
            roots[span.request] = span
            continue
        bucket = per_request.setdefault(span.name, {})
        bucket[span.request] = bucket.get(span.request, 0.0) + span.ms
        for key, value in span.attrs.items():
            totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        totals[f"{span.name}.calls"] = totals.get(f"{span.name}.calls", 0) + 1
    self_by_request: dict[str, dict[int, float]] = {}
    for span in recorder.spans:
        bucket = self_by_request.setdefault(span.name, {})
        bucket[span.request] = bucket.get(span.request, 0.0) + own[span.span_id]

    def p50(name: str, table=per_request) -> float:
        return stats.percentile(list(table.get(name, {}).values()), 0.5)

    update_requests = [i for i, spec in enumerate(jobs) if spec.job.get("kind") == "update"]
    query_requests = [i for i, spec in enumerate(jobs) if spec.job.get("kind") == "query"]
    update_self = [
        self_by_request.get("registry.update", {}).get(i, 0.0)
        + self_by_request.get("pool.run_job", {}).get(i, 0.0)
        for i in update_requests
    ]
    snapshot_bytes = [
        sum(span.attrs.get("bytes", 0) for span in recorder.spans
            if span.request == i and span.name == "store.snapshot_save")
        for i in update_requests
    ]
    answers_per_request = [
        len(traced.payloads[i].get("answers", [])) for i in query_requests
    ]
    served = [i for i in query_requests if not jobs[i].setup]
    materializations = traced.registry.stats()["materializations"]
    served_misses = materializations - traced.setup_stats["materializations"]
    overdeleted = totals.get("incremental.apply.overdeleted", 0)
    # Both passes look up every plan; only the first lookup of a key misses.
    plan_misses = untraced.plan["misses"] + traced.plan["misses"]
    plan_lookups = (untraced.plan["hits"] + traced.plan["hits"] + plan_misses) / 2
    traced_total = sum(traced.run_job_ms)
    untraced_total = sum(untraced.run_job_ms)
    residual = sum(own[span.span_id] for span in roots.values())
    facts = totals.get("parser.parse_database.facts", 0)
    parses = totals.get("parser.parse_database.calls", 0)
    return {
        "parser.parse_database_ms_p50": p50("parser.parse_database"),
        "parser.facts_per_request": facts / parses if parses else 0.0,
        "store.content_hash_ms_p50": p50("store.content_hash"),
        "store.snapshot_save_ms_p50": p50("store.snapshot_save"),
        "store.snapshot_bytes_per_update": (
            sum(snapshot_bytes) / len(snapshot_bytes) if snapshot_bytes else 0.0
        ),
        "registry.compile_ms": sum(per_request.get("registry.compile", {}).values()),
        "registry.materialize_hit_ratio": (
            1.0 - served_misses / len(served) if served else 0.0
        ),
        "registry.materializations": materializations,
        "registry.answer_self_ms_p50": p50("registry.answer", self_by_request),
        "registry.update_self_ms_p50": stats.percentile(update_self, 0.5),
        "datalog.evaluate_ms_p50": p50("datalog.evaluate"),
        "datalog.facts_derived": totals.get("datalog.evaluate.derived", 0),
        "chase.run_ms_p50": p50("chase.run"),
        "chase.steps": totals.get("chase.run.steps", 0),
        "chase.nulls": totals.get("chase.run.nulls", 0),
        "plan.cache_hit_ratio": 1.0 - plan_misses / plan_lookups if plan_lookups else 0.0,
        "plan.compiles": plan_misses,
        "chase.answers_in_ms_p50": p50("chase.answers_in"),
        "answers_per_request": (
            sum(answers_per_request) / len(answers_per_request) if answers_per_request else 0.0
        ),
        "incremental.apply_ms_p50": p50("incremental.apply"),
        "incremental.delta_size": totals.get("incremental.apply.delta", 0),
        "incremental.overdeleted": overdeleted,
        "incremental.rederived": totals.get("incremental.apply.rederived", 0),
        "incremental.fallbacks": totals.get("incremental.apply.fallback", 0),
        "incremental.rederive_ratio": (
            totals.get("incremental.apply.rederived", 0) / overdeleted if overdeleted else 0.0
        ),
        "server.events_delivered": traced.events,
        "trace.overhead_frac": traced_total / untraced_total - 1.0 if untraced_total else 0.0,
        "trace.residual_frac": residual / traced_total if traced_total else 0.0,
    }
