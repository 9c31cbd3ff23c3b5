"""Span recording, self times and the per-layer partition."""

import itertools
import json

import pytest

from perfbench import trace


def _ticking_tracer():
    return trace.Tracer(clock=itertools.count().__next__)


def test_self_time_subtracts_nested_children():
    tr = _ticking_tracer()
    leaf = tr.wrap("model.leaf", lambda: None)

    def mid():
        leaf()
        leaf()

    mid = tr.wrap("criticality.mid", mid)

    def top():
        mid()
        leaf()

    tr.wrap("cli.top", top)()
    names = [s.name for s in tr.spans]
    assert names == ["cli.top", "criticality.mid", "model.leaf", "model.leaf", "model.leaf"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 1, 0]
    own = trace.self_times(tr.spans)
    durations = [s.end - s.start for s in tr.spans]
    assert own[2:] == durations[2:]
    assert own[1] == durations[1] - durations[2] - durations[3]
    assert own[0] == durations[0] - durations[1] - durations[4]
    assert sum(own) == durations[0]


def test_failed_call_is_recorded_and_reraised():
    tr = _ticking_tracer()

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tr.wrap("hierarchy.boom", boom)()
    assert tr.spans[0].error == "ZeroDivisionError" and tr.spans[0].end > tr.spans[0].start


def test_failing_counter_raises_into_the_traced_call():
    tr = _ticking_tracer()

    def broken(args, kwargs, result, exc):
        return {"nnz": int(result[2])}      # result is not what the counter expects

    with pytest.raises(TypeError):
        tr.wrap("model.kernel_matrix", lambda: None, broken)()
    assert tr.spans[0].counts == {}


def _span(name, start, end, parent=-1, error=None, **counts):
    return trace.Span(name, start, end, parent, error, counts)


def test_layer_metrics_partition_the_wall_time():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("hierarchy.stationary_k", 1.0, 5.0, 0),
        _span("hierarchy.expm", 2.0, 3.0, 1),
        _span("hierarchy._integrate_semigroup", 3.0, 4.5, 1, steps=7),
        _span("cli.main", 10.0, 14.0),
        _span("hierarchy.stationary_k", 10.5, 13.0, 4, error="DivergenceError"),
        _span("hierarchy._integrate_semigroup", 11.0, 12.5, 5, "DivergenceError", steps=40),
        _span("cli._write_csv", 13.0, 13.5, 4),
        _span("walkers.pair_integral_curves", 5.0, 9.0, 0, jumps=8.0e6),
    ]
    m = trace.layer_metrics(spans, 14.0)
    assert m["hierarchy.expm_s"] == 1.0 and m["hierarchy.expm_calls"] == 1
    assert m["hierarchy.stationary_s"] == pytest.approx(3.0)      # 4 - 1 expm
    assert m["hierarchy.divergence_s"] == pytest.approx(2.5)
    assert m["hierarchy.integrator_steps"] == 47
    assert m["cli.io_s"] == 0.5 and m["cli.commands"] == 2
    assert m["walkers.pair_integral_s"] == 4.0
    assert m["walkers.pair_jumps_per_s"] == pytest.approx(2.0e6)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)
    parts = [v for k, v in m.items()
             if k.endswith("_s") and not k.endswith("_per_s") and k != "trace.wall_s"]
    assert sum(parts) == pytest.approx(14.0)


def test_install_traces_contactlab_and_restores_it(tmp_path):
    cli = pytest.importorskip("contactlab.cli")
    import contactlab.hierarchy as hierarchy
    originals = (cli.main, cli.calibrate, hierarchy.pair_integral_curves, cli.Run.write_json)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"space": {"type": "lattice", "d": 3, "R": 1, "boundary": "unbounded"},
                  "birth": {"form": "stencil", "entries": "nearest", "rate": 1.0},
                  "death": 1.0},
        "T": 5.0, "replicas": 200, "starts": [[0, 0, 0]]}))
    tr = trace.Tracer()
    restore = trace.install(tr)
    try:
        code = cli.main(["transience", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / "out")])
    finally:
        restore()
    assert code == 0
    assert (cli.main, cli.calibrate, hierarchy.pair_integral_curves,
            cli.Run.write_json) == originals
    names = {s.name for s in tr.spans}
    assert {"cli.main", "criticality.calibrate",
            "walkers.estimate_H", "walkers.pair_integral_curves",
            "cli.Run.write_json", "cli._digest"} <= names
    root = tr.spans[0]
    m = trace.layer_metrics(tr.spans, root.end - root.start)
    assert m["cli.commands"] == 1 and m["criticality.calibrate_calls"] == 1
    assert m["walkers.pair_jumps_per_s"] > 0
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert m["walkers.pair_jumps_per_s"] == pytest.approx(
        trace.pair_jumps_computed(200, 1.0, 5.0) / m["walkers.pair_integral_s"])
