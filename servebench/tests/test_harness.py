"""Tests of the benchmark harness itself (not of the program it drives)."""

import json
import statistics
from pathlib import Path

import pytest

from servebench import inputs, oracle, stats, traced, workloads

ROOT = Path(__file__).resolve().parents[2]


# -- percentile and self-time arithmetic -------------------------------
def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.5) == pytest.approx(50.5)
    assert stats.percentile(values, 0.95) == pytest.approx(95.05)
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 1.0) == 100.0
    assert stats.percentile([7.0], 0.95) == 7.0
    assert stats.percentile([], 0.5) == 0.0


def test_percentile_ignores_input_order():
    assert stats.percentile([5.0, 1.0, 3.0], 0.5) == 3.0


def test_supported_percentile_keeps_ten_samples_beyond():
    assert stats.supported_percentile(200) == pytest.approx(0.95)
    assert stats.supported_percentile(125) == pytest.approx(0.92)
    # Never above the 95th: the figures are named p95.
    assert stats.supported_percentile(1000) == pytest.approx(0.95)
    assert stats.supported_percentile(1000, ceiling=0.99) == pytest.approx(0.99)
    assert stats.supported_percentile(15) == 0.5


def test_rate_counts_gaps_not_events():
    assert stats.rate([0.0, 0.1, 0.2, 0.3]) == pytest.approx(10.0)
    assert stats.rate([2.0, 1.0, 1.5]) == pytest.approx(2.0)
    assert stats.rate([1.0]) == 0.0


def test_median_gap_rate_pools_gaps_within_runs():
    # Gaps 0.1, 0.1, 0.5 | 0.1, 0.2: the 3.0 s between the runs is no gap.
    assert stats.median_gap_rate([[0.0, 0.1, 0.2, 0.7], [3.7, 3.8, 4.0]]) == pytest.approx(10.0)
    assert stats.median_gap_rate([[1.0], []]) == 0.0


def test_median_rate_ignores_one_stalled_window():
    # 10/s in four one-second windows, 2/s in the fifth; the event at 5.0
    # is past the end and not counted.
    times = [w + i / 10 for w in (0, 1, 3, 4) for i in range(10)] + [2.0, 2.5, 5.0]
    assert stats.median_rate(times, 0.0, 5.0, 5) == pytest.approx(10.0)
    assert stats.median_rate([], 0.0, 5.0, 5) == 0.0


def test_self_time_subtracts_children_once():
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    # Overlapping and out-of-span children are clipped, not double counted.
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert stats.self_time(0.0, 2.0, []) == pytest.approx(2.0)


def test_recorder_self_time_of_nested_spans():
    recorder = traced.Recorder()
    with recorder.span("root") as root:
        with recorder.span("child") as child:
            with recorder.span("grandchild"):
                pass
    own = recorder.self_ms()
    assert child.parent == root.span_id
    assert own[root.span_id] == pytest.approx(root.ms - child.ms)
    assert sum(own.values()) == pytest.approx(root.ms)


def test_histogram_quantile_from_bucket_deltas():
    before = 'repro_x_bucket{le="1"} 2\nrepro_x_bucket{le="10"} 4\nrepro_x_bucket{le="+Inf"} 4\n'
    after = 'repro_x_bucket{le="1"} 2\nrepro_x_bucket{le="10"} 14\nrepro_x_bucket{le="+Inf"} 14\n'
    delta = stats.bucket_delta(before, after, "repro_x")
    assert delta == [(1.0, 0.0), (10.0, 10.0), (float("inf"), 10.0)]
    assert stats.quantile_from_buckets(delta, 0.5) == pytest.approx(5.5)
    assert stats.quantile_from_buckets([], 0.5) is None


# -- seeded inputs ------------------------------------------------------
def test_poisson_schedule_is_a_function_of_the_seed():
    first = inputs.poisson_schedule(inputs.rng_for(7, "arrivals"), 16.0, 30.0)
    again = inputs.poisson_schedule(inputs.rng_for(7, "arrivals"), 16.0, 30.0)
    other = inputs.poisson_schedule(inputs.rng_for(8, "arrivals"), 16.0, 30.0)
    assert first == again
    assert first != other
    assert first == sorted(first) and all(0.0 <= t < 30.0 for t in first)
    assert len(first) == len(other) == 480
    gaps = [b - a for a, b in zip(first, first[1:])]
    # Exponential-like gaps: mean 1/rate, standard deviation close to it.
    assert statistics.fmean(gaps) == pytest.approx(1 / 16.0, rel=0.1)
    assert statistics.pstdev(gaps) == pytest.approx(1 / 16.0, rel=0.2)


def test_concerns_draw_independently():
    assert inputs.rng_for(1, "a").random() != inputs.rng_for(1, "b").random()


def test_unit_arrivals_scale_to_any_rate():
    units = inputs.unit_arrivals(inputs.rng_for(3, "probe"), 50)
    assert units == inputs.unit_arrivals(inputs.rng_for(3, "probe"), 50)
    assert [u / 20.0 for u in units][:5] == [u / 20.0 for u in units[:5]]


def test_live_stream_batches_are_valid_against_their_state():
    base = inputs.knowledge_base(inputs.rng_for(2, "kb"), 200, tag="t")
    steps = inputs.live_stream(inputs.rng_for(2, "stream"), base, 400)
    state = set(base)
    updates = 0
    for step in steps:
        if step.kind == "update":
            updates += 1
            assert 1 <= len(step.insert) + len(step.retract) <= 5
            assert set(step.retract) <= state
            assert not set(step.insert) & state
            state = inputs.apply_step(state, step)
    assert updates == 100  # one update per three queries, exactly


# -- oracle -------------------------------------------------------------
def test_oracle_catches_a_wrong_answer_set():
    kb = inputs.render(inputs.knowledge_base(inputs.rng_for(4, "kb"), 120, tag="o"))
    truth = oracle.Oracle(inputs.KB_THEORY).answers(kb, "Reach")
    assert truth
    rows = sorted(list(row) for row in truth)
    good = {"ok": True, "complete": True, "answers": rows}
    assert oracle.classify(good, truth) is None
    assert oracle.classify({**good, "answers": rows[1:]}, truth).startswith("mismatch")
    assert oracle.classify({**good, "answers": rows + [["nobody"]]}, truth).startswith("mismatch")
    assert oracle.classify({"ok": False, "error": {"code": "x"}}, truth).startswith("error")
    assert oracle.classify({"ok": False, "shed": True, "error": {"code": "overloaded"}},
                           truth).startswith("shed")
    assert oracle.classify({**good, "complete": False}, truth).startswith("partial")
    assert oracle.classify(None, truth).startswith("transport")


@pytest.mark.parametrize("name", sorted(inputs.MATERIALIZE_THEORIES))
def test_oracle_programs_agree_with_the_registry(name):
    from repro.chase.runner import RESTRICTED, answers_in, chase
    from repro.core.parser import parse_database
    from repro.service.registry import compile_theory

    text, outputs, strategy, program = inputs.MATERIALIZE_THEORIES[name]
    compiled = compile_theory(text)
    assert compiled.strategy == strategy
    reference = oracle.Oracle(program)
    rng = inputs.rng_for(5, "pool")
    for size in (100, 180):
        facts = inputs.render(inputs.pool_database(rng, size))
        for output in outputs:
            served = compiled.answer(parse_database(facts), output).value
            assert oracle.canonical_model_answers(served) == reference.answers(facts, output)
            if strategy == "chase":
                model = chase(compiled.theory, parse_database(facts), policy=RESTRICTED).database
                assert oracle.canonical_model_answers(answers_in(model, output)) \
                    == reference.answers(facts, output)


def test_working_sets_straddle_the_materialization_lru():
    from repro.service.registry import compile_theory

    capacity = compile_theory(inputs.KB_THEORY).materialization_capacity
    assert 4 <= capacity  # kb_reads: every knowledge base stays cached
    assert workloads.POOL_SIZE >= 8 * capacity  # kb_materialize: mostly misses


def test_pool_sizes_are_the_same_for_every_seed():
    first = inputs.pool_sizes(inputs.rng_for(1, "pool"), 64)
    second = inputs.pool_sizes(inputs.rng_for(2, "pool"), 64)
    assert sorted(first) == sorted(second)
    assert min(first) == 100 and max(first) == 300 and first != second


def test_fold_events_applies_diffs_in_order():
    initial = frozenset({("a",), ("b",)})
    events = [{"added": [["c"]], "removed": [["a"]]}, {"added": [["a"]], "removed": []}]
    assert oracle.fold_events(initial, events) == frozenset({("a",), ("b",), ("c",)})


# -- traced run wrappers -----------------------------------------------
def _targets():
    out = []
    for path, attribute, _ in traced.TARGETS:
        owner = traced._resolve(path)
        out.append((owner, attribute, vars(owner).get(attribute), getattr(owner, attribute)))
    return out


def test_patched_restores_every_attribute():
    before = _targets()
    recorder = traced.Recorder()
    with traced.patched(recorder):
        for owner, attribute, _, original in before:
            assert getattr(owner, attribute) is not original
    for (owner, attribute, own, original), (_, _, own_after, now) in zip(before, _targets()):
        assert own_after is own
        assert now is original or now == original


def test_patched_restores_after_an_exception():
    before = _targets()
    with pytest.raises(RuntimeError):
        with traced.patched(traced.Recorder()):
            raise RuntimeError("boom")
    assert [(o, a, own) for o, a, own, _ in _targets()] == [(o, a, own) for o, a, own, _ in before]


def test_replay_spans_nest_under_run_job():
    text = inputs.render(inputs.knowledge_base(inputs.rng_for(6, "kb"), 120, tag="r"))
    jobs = [
        traced.Job(workloads._register_job(inputs.KB_THEORY), setup=True),
        traced.Job(workloads._query_job(inputs.KB_THEORY, "Reach", text), tag="q1"),
        traced.Job(workloads._query_job(inputs.KB_THEORY, "Cyc", text), tag="q2"),
    ]
    recorder = traced.Recorder()
    result = traced.Replayer(recorder=recorder)
    with traced.patched(recorder):
        for index, spec in enumerate(jobs):
            result.run(index, spec)
    assert all(payload["ok"] for payload in result.payloads)
    names = {span.name for span in recorder.spans}
    assert {"pool.run_job", "parser.parse_database", "store.content_hash",
            "registry.compile", "registry.answer", "datalog.evaluate",
            "chase.answers_in"} <= names
    by_id = {span.span_id: span for span in recorder.spans}
    for span in recorder.spans:
        if span.name != "pool.run_job":
            root = span
            while root.parent is not None:
                root = by_id[root.parent]
            assert root.name == "pool.run_job" and root.request == span.request
    # One materialization; the second query is a cache hit.
    assert result.registry.stats()["materializations"] == 1


# -- BENCHMARK.json and the repeat check -------------------------------
def test_benchmark_json_states_the_max_rate_limit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    reads = next(w for w in spec["workloads"] if w["name"] == "kb_reads")
    assert f"p95<={workloads.READS_P95_LIMIT_MS:g}ms" in reads["why"]


def test_code_identity_follows_the_sources(tmp_path, monkeypatch):
    from servebench import run

    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "servebench").mkdir()
    source = tmp_path / "src" / "repro" / "core" / "plan.py"
    source.write_text("x = 1\n")
    (tmp_path / "servebench" / "workloads.py").write_text("y = 1\n")
    (tmp_path / "README.md").write_text("not code\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    first = run.code_identity()
    assert run.code_identity() == first
    (tmp_path / "README.md").write_text("still not code\n")
    assert run.code_identity() == first
    source.write_text("x = 2\n")
    assert run.code_identity() != first
