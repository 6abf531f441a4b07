"""The benchmark's own tests, on tiny configs.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import Span, Tracer, counts_by_trace, self_times, summarize  # noqa: E402

TINY_SUBSPACE = workloads.Engine("tiny-subspace", "subspace", input_dim=8,
                                 hidden_dim=4, participation=0.5, examples=40,
                                 num_clients=4, total_bases=8, local_iters=2)
TINY_FEDKSEED = workloads.Engine("tiny-fedkseed", "fedkseed", input_dim=6,
                                 hidden_dim=3, participation=0.5, examples=40,
                                 num_clients=4, total_bases=5)
TINY_SOCKETS = workloads.Engine("tiny-sockets", "fedavg", input_dim=6,
                                hidden_dim=3, participation=1.0, examples=40,
                                num_clients=3, sockets=True)
TINY_CHECK = workloads.ErrorBound("tiny-check", dims=(64, 128), budgets=(4, 8))


# ---------------------------------------------------------------- spans

def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("outer", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 4.0, 0, 1),      # overlaps a: union 1..4 is 3 s
        Span("c", 9.0, 12.0, 0, 1),     # clipped to the parent's end: 1 s
        Span("leaf", 1.5, 2.5, 1, 1),   # a grandchild is not subtracted from outer
    ]
    assert self_times(spans) == [6.0, 1.0, 2.0, 3.0, 1.0]


def test_wrapped_calls_nest_and_carry_the_trace_id():
    def inner(x):
        return x + 1

    def outer(x):
        return inner(inner(x))

    tracer = Tracer()
    t_inner = tracer.wrap("inner", inner)
    outer_traced = tracer.wrap("outer", lambda x: t_inner(t_inner(x)))
    tracer.new_trace()
    assert outer_traced(1) == 3
    tracer.new_trace()
    assert t_inner(0) == 1
    names = [(s.name, s.parent, s.trace_id) for s in tracer.spans]
    assert names == [("outer", -1, 1), ("inner", 0, 1), ("inner", 0, 1),
                     ("inner", -1, 2)]
    stats = summarize(tracer.spans)
    assert stats["inner"].calls == 3
    outer_span = tracer.spans[0]
    covered = sum(s.duration for s in tracer.spans[1:3])
    assert stats["outer"].self_s == pytest.approx(outer_span.duration - covered,
                                                  abs=1e-12)
    assert outer(1) == 3  # the plain function is untouched


def test_rebinding_is_restored_and_errors_are_recorded():
    import types

    module = types.SimpleNamespace(f=lambda: 1 / 0)
    original = module.f
    with Tracer() as tracer:
        tracer.install(module, "f", "layer.f")
        with pytest.raises(ZeroDivisionError):
            module.f()
    assert module.f is original
    assert tracer.spans[0].error
    assert summarize(tracer.spans)["layer.f"].errors == 1


def test_counts_are_summed_per_trace():
    spans = [Span("x", 0, 1, -1, 1, {"entries": 4}), Span("x", 1, 2, -1, 1, {"entries": 6}),
             Span("x", 2, 3, -1, 2, {"entries": 5})]
    rows = counts_by_trace(spans)
    assert dict(rows[1]) == {"x.calls": 2, "x.entries": 10}
    assert dict(rows[2]) == {"x.calls": 1, "x.entries": 5}


# ---------------------------------------------------------------- counters

def test_frame_sizes_follow_the_codec_layout():
    budgets = (82, 82, 82, 10)  # K=256 over the 256-256-10 MLP's blocks
    assert workloads.frame_bytes("projected", 68_362, budgets, 256) == 1_066
    assert workloads.frame_bytes("scalar", 2_410, (), 256) == 2_073
    assert workloads.frame_bytes("raw", 68_362, (), 256) == 546_913


@pytest.mark.parametrize("spec", [TINY_SUBSPACE, TINY_FEDKSEED])
def test_counters_reconcile_with_the_analytic_costs(spec):
    cfg, model, clients, data = spec.inputs(seed=7, rounds=2)
    with workloads.install(Tracer()) as tracer:
        state = workloads.federation.setup_experiment(cfg, model, clients, data)
        for _ in range(cfg.rounds):
            workloads.federation.run_round(state, clients, cfg)
    expected = spec.expected_counts(cfg, model, state.partition)
    assert workloads.check_counts(tracer.spans, expected, "tiny") == []
    wrong = dict(expected, **{"models.loss.calls": expected["models.loss.calls"] + 1})
    errors = workloads.check_counts(tracer.spans, wrong, "tiny")
    assert len(errors) == cfg.rounds and all("models.loss.calls" in e for e in errors)


def test_check_counts_reconcile_basis_entries():
    with workloads.install(Tracer()) as tracer:
        workloads.verify.run_check(TINY_CHECK.config(seed=3))
    assert workloads.check_counts(tracer.spans, TINY_CHECK.expected_counts(), "x") == []
    layers = workloads.per_layer(tracer.spans, ops=1, overhead=1.0)
    assert layers["projection.entries_per_block_cost"] == (2.0, "ratio")


def test_per_layer_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    with workloads.install(Tracer()) as tracer:
        workloads.verify.run_check(TINY_CHECK.config(seed=3))
    layers = workloads.per_layer(tracer.spans, ops=1, overhead=1.0)
    assert names == list(layers)
    assert [m["unit"] for m in declared["per_layer"]] == [u for _, u in layers.values()]


# ---------------------------------------------------------------- sessions

@pytest.mark.parametrize("spec", [TINY_SUBSPACE, TINY_SOCKETS, TINY_CHECK])
def test_session_passes_its_checks_and_rejects_a_wrong_reference(spec):
    session = spec.session(seed=5, root=ROOT)
    assert len(session.setup()) == workloads.SETUP_REPS
    timed = session.timed(0.01, None)
    assert timed.failed == 0 and timed.done > 0 and len(timed.op_times) >= 3
    assert session.checks(reference=None) == []
    good = spec.reference_output(seed=5)
    assert session.checks(reference=good) == []
    rejected = session.checks(reference="0" * 64)
    assert len(rejected) == 1 and "differs from the reference" in rejected[0]


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 31)]
    assert workloads.tail(values) == (20.0, pytest.approx(100 * 20 / 30), 30)
    assert workloads.tail(values[:12]) == (6.5, 50.0, 12)
