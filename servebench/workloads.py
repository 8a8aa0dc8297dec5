"""The three serving workloads.  Each spawns fresh servers, sets up
``SETUPS`` times (``setup_s`` is the median), measures for the run's seconds
on the last server, drains it, and checks every response against the
oracle.  With tracing on, the workload's seeded job stream is then
replayed in process for the per-layer figures (:mod:`.traced`)."""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.service import protocol
from repro.service.registry import content_hash

from . import inputs, loadgen, oracle, stats, traced
from .inputs import rng_for
from .loadgen import Connection, Record
from .server import Server

#: ``kb_reads`` offered rate, about a quarter of one worker's capacity for
#: cache-hit queries over ~800-fact knowledge bases (see README.md for
#: why not one half).
READS_RATE_QPS = 6.0
#: ``kb_reads`` latency limit for ``query_max_rate_qps``: the highest
#: offered rate whose query p95 stays within it (stated in BENCHMARK.json).
READS_P95_LIMIT_MS = 150.0
#: Share of an untraced ``kb_reads`` run spent in closed-loop saturation
#: slices, which measure ``throughput_ops_s``.
SATURATE_SHARE = 0.25
#: ``kb_reads`` interleaves this many saturation slices with as many
#: segments of its open loop, so both sample the whole run.
SATURATE_SLICES = 5
#: ``throughput_ops_s`` of a closed loop is the median completion rate
#: over this many equal slices of it, so one stall of the shared host
#: does not set it.
RATE_WINDOWS = 10
#: Open-loop probes of the traced ``kb_reads`` run's max-rate search.
PROBES = 4
#: ``kb_reads`` is invalid when its generator's p95 lateness exceeds this.
LATE_BOUND_MS = 10.0
SETUPS = 5
KB_FACTS = 800
POOL_SIZE = 64
LIVE_SUBSCRIBED = "Reach"
#: Replay lengths (jobs after setup) of the traced run, per workload.
REPLAY_JOBS = {"kb_reads": 96, "kb_materialize": 60, "kb_live": 64}

#: Counts a traced run on one seed must reproduce exactly.
REPEATABLE_COUNTS = (
    "registry.materializations",
    "plan.compiles",
    "datalog.facts_derived",
    "chase.steps",
    "chase.nulls",
    "incremental.delta_size",
    "server.events_delivered",
)

JOB_DEFAULTS = {"strategy": "auto", "timeout": 30.0, "max_steps": 100_000, "max_depth": None}


@dataclass
class Run:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    workdir: Path
    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    servers: list = field(default_factory=list)

    def spawn(self, args: list[str], name: str) -> Server:
        """Start a server this run owns (killed at exit if still up)."""
        server = Server(self.root, self.workdir, args, name=name)
        self.servers.append(server)
        server.wait_ready()
        return server

    def check(self, what: str, response: Optional[dict], expected) -> Optional[dict]:
        """Count one operation; record it as failed unless correct."""
        self.attempted += 1
        reason = oracle.classify(response, expected)
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
        return response


def _response(record: Record) -> Optional[dict]:
    if record.error is not None:
        return None
    return oracle.decode(record.line)


def _setups(run: Run, start_one):
    """Set up ``SETUPS`` times; all but the last server are drained
    straight away.  Returns the last ``(server, state)`` and records the
    median setup time."""
    times = []
    for attempt in range(SETUPS):
        started = time.monotonic()
        server, state = start_one(attempt)
        times.append(time.monotonic() - started)
        if attempt < SETUPS - 1:
            _close(state)
            run.problems += server.drain()
    run.end_to_end["setup_s"] = statistics.median(times)
    run.info["setup_s_all"] = times
    return server, state


def _close(state: dict) -> None:
    for conn in state.get("conns", ()):
        conn.close()


def _finish(run: Run, server: Server, state: dict) -> None:
    """Peak memory, then the drain."""
    run.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
    _close(state)
    run.problems += server.drain()


def _server_phases(run: Run, scrapes: list[tuple[str, str]]) -> None:
    """p50 of each server phase histogram over the intervals between the
    ``(before, after)`` scrapes: the queue wait is a per-layer metric,
    the rest cross-check the server-side share of latency
    (``pool.transfer_ms_p50``)."""
    phases = {}
    for phase in ("admission", "queue", "dispatch", "respond"):
        ladder: dict[float, float] = {}
        for before, after in scrapes:
            for upper, count in stats.bucket_delta(before, after,
                                                   f"repro_service_phase_ms_{phase}"):
                ladder[upper] = ladder.get(upper, 0.0) + count
        value = stats.quantile_from_buckets(sorted(ladder.items()), 0.5)
        phases[phase] = round(value, 3) if value is not None else 0.0
    run.info["server_phase_p50_ms"] = phases
    run.layers["server.queue_wait_ms_p50"] = phases["queue"]


def _transfer_ms(records: list[Record]) -> list[float]:
    """Client latency from send minus the worker's own elapsed time."""
    out = []
    for record in records:
        response = _response(record)
        elapsed = (response or {}).get("stats", {}).get("elapsed_ms")
        if elapsed is not None:
            out.append((record.done - record.sent) * 1e3 - elapsed)
    return out


def _wire(run: Run, records: list[Record]) -> None:
    done = [record for record in records if record.line is not None]
    run.layers["protocol.request_bytes"] = statistics.fmean(len(r.payload) for r in records)
    run.layers["protocol.response_bytes"] = (
        statistics.fmean(len(r.line) for r in done) if done else 0.0
    )
    run.layers["pool.transfer_ms_p50"] = stats.percentile(_transfer_ms(records), 0.5)
    worker = [(_response(r) or {}).get("stats", {}).get("elapsed_ms") for r in done]
    run.info["worker_ms_p50"] = stats.percentile([w for w in worker if w is not None], 0.5)


def _tail_q(run: Run, **counts: int) -> float:
    """The quantile every ``*_p95`` figure of the run reports: the
    highest, up to 0.95, that keeps ten samples beyond it on the
    smallest per-operation sample count."""
    q = stats.supported_percentile(min(counts.values()))
    run.info["p95_q"] = q
    run.info["p95_q_from"] = counts
    return q


def _queries(run: Run, latencies: list[float], q: float) -> None:
    run.info["query_samples"] = len(latencies)
    run.end_to_end["query_p50_ms"] = stats.percentile(latencies, 0.5)
    run.layers["query_p95_ms"] = stats.percentile(latencies, q)


def _query_job(theory_text: str, output: str, database: Optional[str]) -> dict:
    return {"kind": "query", "theory": theory_text, "output": output,
            "database": database, **JOB_DEFAULTS}


def _register_job(theory_text: str) -> dict:
    return {"kind": "register", "theory": theory_text, "strategy": "auto",
            "source": "<register op>"}


# ----------------------------------------------------------------------
# kb_reads
# ----------------------------------------------------------------------
def kb_reads(run: Run) -> None:
    kb_rng = rng_for(run.seed, "kb_reads/kbs")
    kbs = [inputs.render(inputs.knowledge_base(kb_rng, KB_FACTS, tag=f"k{i}n")) for i in range(4)]
    digest = content_hash(inputs.KB_THEORY)
    payloads = {
        (kb, output): protocol.encode({"op": "query", "theory": digest, "output": output,
                              "database": kbs[kb]})
        for kb in range(4) for output in inputs.KB_OUTPUTS
    }
    weights = inputs.zipf_weights(4, 1.0)
    pick_rng = rng_for(run.seed, "kb_reads/picks")

    def pick():
        return (pick_rng.choices(range(4), weights)[0], pick_rng.choice(inputs.KB_OUTPUTS))

    # The traced run splits its time between the fixed rate and the
    # max-rate probes; the end-to-end run between the fixed rate and the
    # closed-loop saturation slices.
    fixed_seconds = 0.5 * run.seconds if run.trace else (1 - SATURATE_SHARE) * run.seconds
    fixed_plan = [(offset, pick()) for offset in
                  inputs.poisson_schedule(rng_for(run.seed, "kb_reads/arrivals"),
                                          READS_RATE_QPS, fixed_seconds)]
    probe_seconds = max(1.5, (0.5 * run.seconds - PROBES * 0.6) / PROBES)
    probe_units = inputs.unit_arrivals(rng_for(run.seed, "kb_reads/probe"), 4000)
    probe_picks = [pick() for _ in probe_units]
    saturate_picks = [pick() for _ in range(int(run.seconds * 100))]
    run.info["stream_digest"] = inputs.digest([kbs, fixed_plan, probe_units, probe_picks,
                                               saturate_picks])
    q = _tail_q(run, queries=len(fixed_plan))

    def start(attempt: int):
        server = run.spawn(["--strategy", "auto"], f"reads{attempt}")
        conn = Connection(server.port)
        register = oracle.decode(conn.call(Record(0, protocol.encode(
            {"op": "register", "theory": inputs.KB_THEORY}))).line)
        run.check("register", register, None)
        if register and register.get("strategy") != "datalog":
            run.problems.append(f"KB theory routed to {register.get('strategy')}")
        for kb in range(4):
            for output in inputs.KB_OUTPUTS:
                record = conn.call(Record(0, payloads[kb, output]))
                warm.append(((kb, output), record))
        return server, {"conns": [conn]}

    warm: list = []
    server, state = _setups(run, start)
    # The measured phases open their own (at most two) connections.
    _close(state)
    segments = 1 if run.trace else SATURATE_SLICES
    slice_seconds = SATURATE_SHARE * run.seconds / segments
    length = fixed_seconds / segments
    records, scrapes, saturated, slices = [], [], [], []
    for segment in range(segments):
        part = [(t - segment * length, payloads[key]) for t, key in fixed_plan
                if segment * length <= t < (segment + 1) * length]
        before = server.get("/metrics")
        records += loadgen.open_loop(server.port, part)
        scrapes.append((before, server.get("/metrics")))
        if run.trace:
            continue
        offset = len(saturated)
        done = loadgen.closed_loop(
            server.port, [payloads[key] for key in saturate_picks[offset:]], slice_seconds)
        saturated += [(saturate_picks[offset + r.index], r) for r in done]
        slices.append([r.done for r in done if r.error is None])
    probes = []
    if run.trace:
        probes = _rate_search(run, server, records, probe_seconds,
                              probe_units, probe_picks, payloads, q)
    _finish(run, server, state)

    kb_oracle = oracle.Oracle(inputs.KB_THEORY)
    expected = {key: kb_oracle.answers(kbs[key[0]], key[1]) for key in payloads}
    for key, record in warm:
        run.check("warm query", _response(record), expected[key])
    for (_, key), record in zip(fixed_plan, records):
        run.check("query", _response(record), expected[key])
    for probe in probes:
        for key, record in probe:
            run.check("probe query", _response(record), expected[key])
    for key, record in saturated:
        run.check("saturation query", _response(record), expected[key])

    ok = [r for r in records if r.error is None]
    _queries(run, [r.latency_ms for r in ok], q)
    if not run.trace:
        # The read path's capacity: the fixed-rate phase's throughput is
        # the offered rate, which no change to the program can move.
        # Under saturation the gap between two completions is one
        # query's service; its median over all slices is steadier on a
        # noisy host than a count per slice.
        run.info["saturation_queries"] = len(saturated)
        run.info["saturation_rates"] = [stats.rate(times) for times in slices]
        run.end_to_end["throughput_ops_s"] = stats.median_gap_rate(slices)
    late = stats.percentile([r.late_ms for r in records], q)
    run.layers["loadgen.late_ms_p95"] = late
    if late > LATE_BOUND_MS:
        run.problems.append(f"generator fell behind: late p95 {late:.1f} ms > {LATE_BOUND_MS} ms")
    _server_phases(run, scrapes)
    _wire(run, records)

    if run.trace:
        jobs = [traced.Job(_register_job(inputs.KB_THEORY), setup=True)]
        jobs += [traced.Job(_query_job(inputs.KB_THEORY, key[1], kbs[key[0]]), tag=key,
                            setup=True) for key in payloads]
        jobs += [traced.Job(_query_job(inputs.KB_THEORY, key[1], kbs[key[0]]), tag=key)
                 for _, key in fixed_plan[:REPLAY_JOBS["kb_reads"]]]
        _traced_replay(run, jobs, lambda tag: expected[tag])


def _rate_search(run, server, fixed_records, seconds, units, picks, payloads, q):
    """Bisect the offered rate between the fixed rate (or below) and an
    overload rate; interpolate the crossing of the p95 limit."""
    fixed_ok = [r.latency_ms for r in fixed_records if r.error is None]
    fixed_p95 = stats.percentile(fixed_ok, q) if fixed_ok else float("inf")
    elapsed = [(_response(r) or {}).get("stats", {}).get("elapsed_ms") for r in fixed_records]
    service_ms = statistics.median([e for e in elapsed if e]) if any(elapsed) else 50.0
    lo, hi = READS_RATE_QPS, 1.6 * 1000.0 / service_ms
    seen = {}
    if fixed_p95 <= READS_P95_LIMIT_MS:
        seen[lo] = (True, fixed_p95)
    else:
        lo = READS_RATE_QPS / 4
    probes = []
    for _ in range(PROBES):
        rate = inputs.rate_bisection(lo, hi, {r: ok for r, (ok, _) in seen.items()})
        plan = [(unit / rate, pick) for unit, pick in zip(units, picks) if unit / rate < seconds]
        records = loadgen.open_loop(server.port, [(t, payloads[key]) for t, key in plan])
        probes.append(list(zip((key for _, key in plan), records)))
        latencies = [r.latency_ms if r.error is None else float("inf") for r in records]
        p95 = stats.percentile(latencies, q)
        tail = latencies[len(latencies) * 3 // 4:]
        passed = p95 <= READS_P95_LIMIT_MS and stats.percentile(tail, 0.5) <= READS_P95_LIMIT_MS
        seen[rate] = (passed, p95)
        time.sleep(0.3)
    run.info["rate_probes"] = {f"{rate:.2f}": [ok, round(p95, 2)] for rate, (ok, p95) in sorted(seen.items())}
    run.layers["query_max_rate_qps"] = _crossing(seen)
    return probes


def _crossing(seen: dict) -> float:
    """The rate where p95 meets the limit, interpolated between the
    highest passing and the lowest failing probe."""
    passing = [rate for rate, (ok, _) in seen.items() if ok]
    failing = [rate for rate, (ok, _) in seen.items() if not ok]
    if not passing:
        return 0.0
    best = max(passing)
    above = [rate for rate in failing if rate > best]
    if not above:
        return best
    worst = min(above)
    p_best, p_worst = seen[best][1], min(seen[worst][1], 1e9)
    if p_worst <= p_best:
        return best
    share = (READS_P95_LIMIT_MS - p_best) / (p_worst - p_best)
    return best + (worst - best) * min(max(share, 0.0), 1.0)


# ----------------------------------------------------------------------
# kb_materialize
# ----------------------------------------------------------------------
def kb_materialize(run: Run) -> None:
    pool_rng = rng_for(run.seed, "kb_materialize/pool")
    pool = [inputs.render(inputs.pool_database(pool_rng, size))
            for size in inputs.pool_sizes(pool_rng, POOL_SIZE)]
    warm_db = inputs.render(inputs.pool_database(rng_for(run.seed, "kb_materialize/warm"), 150))
    names = list(inputs.MATERIALIZE_THEORIES)
    hashes = {name: content_hash(inputs.MATERIALIZE_THEORIES[name][0]) for name in names}
    stream_rng = rng_for(run.seed, "kb_materialize/stream")
    stream = []
    for index in range(int(run.seconds * 200)):
        name = names[index % len(names)]
        stream.append((name, stream_rng.randrange(POOL_SIZE),
                       stream_rng.choice(inputs.MATERIALIZE_THEORIES[name][1])))
    run.info["stream_digest"] = inputs.digest([pool, warm_db, stream])

    def payload(name: str, database: str, output: str) -> bytes:
        return protocol.encode({"op": "query", "theory": hashes[name], "output": output,
                       "database": database})

    warm: list = []

    def start(attempt: int):
        server = run.spawn([], f"materialize{attempt}")
        conn = Connection(server.port)
        for name in names:
            text, _, strategy, _ = inputs.MATERIALIZE_THEORIES[name]
            response = oracle.decode(conn.call(Record(0, protocol.encode(
                {"op": "register", "theory": text}))).line)
            run.check(f"register {name}", response, None)
            if response and response.get("strategy") != strategy:
                run.problems.append(f"{name} theory routed to {response.get('strategy')}")
        for name in names:
            output = inputs.MATERIALIZE_THEORIES[name][1][0]
            warm.append(((name, None, output), conn.call(Record(0, payload(name, warm_db, output)))))
        return server, {"conns": [conn]}

    server, state = _setups(run, start)
    records: list[Record] = []
    conn = state["conns"][0]
    before = server.get("/metrics")
    started = time.monotonic()
    for index, (name, db, output) in enumerate(stream):
        if time.monotonic() - started >= run.seconds:
            break
        records.append(conn.call(Record(index, payload(name, pool[db], output))))
    after = server.get("/metrics")
    _finish(run, server, state)

    oracles = {name: oracle.Oracle(spec[3])
               for name, spec in inputs.MATERIALIZE_THEORIES.items()}

    def expected(tag):
        name, db, output = tag
        return oracles[name].answers(warm_db if db is None else pool[db], output)

    for tag, record in warm:
        run.check("warm query", _response(record), expected(tag))
    ordered = sorted(range(len(records)), key=lambda i: (stream[i][0], stream[i][1]))
    for index in ordered:
        run.check("query", _response(records[index]), expected(stream[index]))

    ok = [r for r in records if r.error is None]
    misses = sum(1 for r in ok if (_response(r) or {}).get("stats", {}).get("materializations"))
    run.info["misses"] = misses
    run.info["miss_frac"] = misses / len(ok) if ok else 0.0
    _queries(run, [r.latency_ms for r in ok], _tail_q(run, queries=len(ok), misses=misses))
    run.end_to_end["throughput_ops_s"] = stats.median_rate(
        [r.done for r in ok], started, started + run.seconds, RATE_WINDOWS)
    _server_phases(run, [(before, after)])
    _wire(run, records)

    if run.trace:
        jobs = [traced.Job(_register_job(inputs.MATERIALIZE_THEORIES[name][0]), setup=True)
                for name in names]
        jobs += [traced.Job(_query_job(inputs.MATERIALIZE_THEORIES[tag[0]][0], tag[2], warm_db),
                            tag=tag, setup=True) for tag, _ in warm[-len(names):]]
        jobs += [traced.Job(_query_job(inputs.MATERIALIZE_THEORIES[name][0], output, pool[db]),
                            tag=(name, db, output))
                 for name, db, output in stream[:REPLAY_JOBS["kb_materialize"]]]
        _traced_replay(run, jobs, expected)


# ----------------------------------------------------------------------
# kb_live
# ----------------------------------------------------------------------
def kb_live(run: Run) -> None:
    base = inputs.knowledge_base(rng_for(run.seed, "kb_live/kb"), KB_FACTS, tag="l")
    base_text = inputs.render(base)
    steps = inputs.live_stream(rng_for(run.seed, "kb_live/stream"), base, int(run.seconds * 60))
    run.info["stream_digest"] = inputs.digest([base, steps])
    step_payloads = [
        protocol.encode({"op": "update", "insert": step.insert, "retract": step.retract})
        if step.kind == "update" else protocol.encode({"op": "query", "output": step.output})
        for step in steps
    ]
    subscribe = protocol.encode({"op": "subscribe", "output": LIVE_SUBSCRIBED})

    def start(attempt: int):
        home = Path(tempfile.mkdtemp(prefix=f"live{attempt}-", dir=run.workdir))
        (home / "kb.rules").write_text(inputs.KB_THEORY)
        (home / "kb.db").write_text(base_text)
        server = run.spawn([
            str(home / "kb.rules"), "--data", str(home / "kb.db"),
            "--snapshot-dir", str(home / "snapshots"),
        ], f"live{attempt}")
        listener = Connection(server.port, timeout=None)
        initial = oracle.decode(listener.call(Record(0, subscribe)).line)
        writer = Connection(server.port)
        warm = [(output, oracle.decode(writer.call(Record(0, protocol.encode(
            {"op": "query", "output": output}))).line)) for output in inputs.KB_OUTPUTS]
        return server, {"conns": [writer, listener], "initial": initial, "warm": warm}

    server, state = _setups(run, start)
    writer, listener = state["conns"]
    subscriber = loadgen.Subscriber(listener)
    subscriber.start()
    records: list[Record] = []
    try:
        before = server.get("/metrics")
        started = time.monotonic()
        for index, payload in enumerate(step_payloads):
            if time.monotonic() - started >= run.seconds:
                break
            records.append(writer.call(Record(index, payload)))
        after = server.get("/metrics")
        _quiesce(subscriber)
        finals = [(output, oracle.decode(writer.call(Record(0, protocol.encode(
            {"op": "query", "output": output}))).line)) for output in inputs.KB_OUTPUTS]
    finally:
        subscriber.stop()
    _finish(run, server, state)

    kb_oracle = oracle.Oracle(inputs.KB_THEORY)
    # The database text after each update (index = updates applied).
    states = [base_text]
    current = set(base)
    for step in steps[:max(len(records), REPLAY_JOBS["kb_live"])]:
        if step.kind == "update":
            current = inputs.apply_step(current, step)
            states.append(inputs.render(sorted(current)))
    queries = [r for r, s in zip(records, steps) if s.kind == "query" and r.error is None]
    updates = [(r, s) for r, s in zip(records, steps) if s.kind == "update" and r.error is None]
    q = _tail_q(run, queries=len(queries), updates=len(updates))
    _check_live(run, kb_oracle, steps, records, states, state, finals, subscriber, q)
    _queries(run, [r.latency_ms for r in queries], q)
    update_ms = [r.latency_ms for r, _ in updates]
    run.info["update_samples"] = len(update_ms)
    run.layers["update_p50_ms"] = stats.percentile(update_ms, 0.5)
    run.layers["update_p95_ms"] = stats.percentile(update_ms, q)
    run.end_to_end["throughput_ops_s"] = stats.median_rate(
        [r.done for r in records if r.error is None], started, started + run.seconds,
        RATE_WINDOWS)
    _server_phases(run, [(before, after)])
    _wire(run, records)

    if run.trace:
        jobs = [traced.Job(_register_job(inputs.KB_THEORY), setup=True),
                traced.Job(_query_job(inputs.KB_THEORY, LIVE_SUBSCRIBED, None),
                           tag=(0, LIVE_SUBSCRIBED), subscribe=True, setup=True)]
        version = 0
        for step in steps[:REPLAY_JOBS["kb_live"]]:
            if step.kind == "update":
                version += 1
                jobs.append(traced.Job({"kind": "update", "theory": inputs.KB_THEORY,
                                        "database": None, "insert": step.insert,
                                        "retract": step.retract, **JOB_DEFAULTS},
                                       tag=("update", version)))
                jobs.append(traced.Job(_query_job(inputs.KB_THEORY, LIVE_SUBSCRIBED, None),
                                       tag=(version, LIVE_SUBSCRIBED), subscribe=True))
            else:
                jobs.append(traced.Job(_query_job(inputs.KB_THEORY, step.output, None),
                                       tag=(version, step.output)))
        def expected(tag):
            version, output = tag
            return None if version == "update" else kb_oracle.answers(states[version], output)

        _traced_replay(run, jobs, expected, live={inputs.KB_THEORY: base_text},
                       snapshots=True)


def _quiesce(subscriber: loadgen.Subscriber, quiet: float = 0.3, limit: float = 10.0) -> None:
    """Wait until no event has arrived for ``quiet`` seconds."""
    deadline = time.monotonic() + limit
    seen = -1
    while time.monotonic() < deadline and seen != len(subscriber.events):
        seen = len(subscriber.events)
        time.sleep(quiet)


def _check_live(run, kb_oracle, steps, records, states, state, finals, subscriber, q) -> None:
    """Per-operation answers, db keys, the event stream and the final
    state, all against from-scratch evaluation of the generated EDBs."""
    initial = state["initial"]
    run.check("subscribe", initial, kb_oracle.answers(states[0], LIVE_SUBSCRIBED))
    for output, response in state["warm"]:
        run.check("warm query", response, kb_oracle.answers(states[0], output))
    events = [(at, oracle.decode(line)) for at, line in subscriber.events]
    if subscriber.error:
        run.failures.append(f"subscriber: {subscriber.error}")
    cursor = 0
    version = 0
    lags, refresh = [], []
    for record, step in zip(records, steps):
        response = _response(record)
        if step.kind == "query":
            run.check("query", response, kb_oracle.answers(states[version], step.output))
            continue
        version += 1
        run.check("update", response, None)
        if response and response.get("db_key") != kb_oracle.db_key(states[version]):
            run.failures.append(f"update {version}: db_key differs from the oracle's EDB")
        old = kb_oracle.answers(states[version - 1], LIVE_SUBSCRIBED)
        new = kb_oracle.answers(states[version], LIVE_SUBSCRIBED)
        if old == new:
            continue
        if cursor >= len(events):
            run.failures.append(f"update {version}: no event for a changed answer set")
            continue
        at, event = events[cursor]
        cursor += 1
        if (event is None or event.get("db_key") != (response or {}).get("db_key")
                or oracle.fold_events(old, [event]) != new):
            run.failures.append(f"update {version}: event does not carry the oracle's diff")
            continue
        lags.append((at - record.sent) * 1e3)
        worker_ms = (response or {}).get("stats", {}).get("elapsed_ms", 0.0)
        refresh.append((at - record.sent) * 1e3 - worker_ms)
    if cursor != len(events):
        run.failures.append(f"{len(events) - cursor} event(s) beyond the changed updates")
    final_expected = kb_oracle.answers(states[version], LIVE_SUBSCRIBED)
    folded = oracle.fold_events(
        oracle.canonical_wire_answers((initial or {}).get("answers", [])),
        [event for _, event in events if event])
    if folded != final_expected:
        run.failures.append("folded subscription events differ from the final answers")
    for output, response in finals:
        run.check(f"final {output}", response, kb_oracle.answers(states[version], output))
    run.info["events_delivered"] = len(events)
    run.info["event_samples"] = len(lags)
    run.layers["event_lag_p50_ms"] = stats.percentile(lags, 0.5)
    run.layers["event_lag_p95_ms"] = stats.percentile(lags, q)
    run.layers["server.subscription_refresh_ms_p50"] = stats.percentile(refresh, 0.5)


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------
def _traced_replay(run: Run, jobs: list, expected, *, live=None, snapshots=False) -> None:
    homes = []

    def snapshot_dir() -> Optional[str]:
        if not snapshots:
            return None
        homes.append(tempfile.mkdtemp(prefix="replay-", dir=run.workdir))
        return homes[-1]

    from repro.core.plan import clear_plan_cache

    # The oracle ran in this process; a cold plan cache makes pass A
    # compile exactly what a fresh worker would.
    clear_plan_cache()
    try:
        untraced = traced.Replayer(live=live, snapshot_dir=snapshot_dir())
        recorder = traced.Recorder()
        traced_pass = traced.Replayer(live=live, snapshot_dir=snapshot_dir(), recorder=recorder)
        for index, spec in enumerate(jobs):
            # Whichever pass runs a job second finds its atoms interned
            # and its plans compiled; alternating the order cancels that.
            if index % 2:
                untraced.run(index, spec)
            with traced.patched(recorder):
                traced_pass.run(index, spec)
            if not index % 2:
                untraced.run(index, spec)
    finally:
        for home in homes:
            shutil.rmtree(home, ignore_errors=True)
    for spec, payload in zip(jobs, traced_pass.payloads):
        if spec.tag is None or spec.job["kind"] == "register":
            run.check("replay register", payload, None)
            continue
        run.check("replay", payload, expected(spec.tag))
    run.layers.update(traced.layer_metrics(recorder, untraced, traced_pass, jobs))
    run.info["replay_jobs"] = len(jobs)
    run.info["counts"] = {key: run.layers[key] for key in REPEATABLE_COUNTS}


WORKLOADS = {"kb_reads": kb_reads, "kb_materialize": kb_materialize, "kb_live": kb_live}
