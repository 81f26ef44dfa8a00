"""Span accounting, wrapper installation and restoration, and the metric list."""
from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import pytest

from perfbench import tracing
from perfbench.bench import _tail
from perfbench.tracing import Tracer, layer_metrics, traced

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@contextmanager
def span(tracer: Tracer, name: str):
    tracer.enter(name)
    try:
        yield
    finally:
        tracer.exit()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    t = Tracer(clock)
    with span(t, "outer"):             # 0 .. 10
        clock.now = 1.0
        with span(t, "mid"):           # 1 .. 7
            clock.now = 2.0
            with span(t, "leaf"):      # 2 .. 5
                clock.now = 5.0
            clock.now = 7.0
        clock.now = 8.0
        with span(t, "leaf"):          # 8 .. 9
            clock.now = 9.0
        clock.now = 10.0
    assert t.stats["outer"] == [1, 10.0, 3.0]
    assert t.stats["mid"] == [1, 6.0, 3.0]
    assert t.stats["leaf"] == [2, 4.0, 4.0]
    assert sum(s[2] for s in t.stats.values()) == 10.0   # self times tile the root span


def test_counts_go_to_the_innermost_open_span():
    t = Tracer(FakeClock())
    t.count("matmul")
    with span(t, "a"):
        t.count("matmul")
        with span(t, "b"):
            t.count("matmul", 2)
    assert t.counts == {("", "matmul"): 1, ("a", "matmul"): 1, ("b", "matmul"): 2}
    assert t.counter_total("matmul") == 4


def _lpkit_state():
    pytest.importorskip("lpkit")
    from lpkit.exactmath import Matrix, Poly
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "lpkit" or n.startswith("lpkit.")}
    tables = {(n, k): dict(v) for n, d in mods.items() for k, v in d.items()
              if isinstance(v, dict) and not k.startswith("__")}
    return mods, tables, (Matrix.__dict__["__matmul__"], Poly.__dict__["__call__"])


def test_traced_run_records_spans_and_restores_everything(tmp_path):
    pytest.importorskip("lpkit")
    import lpkit.cli
    before = _lpkit_state()
    t = Tracer()
    path = tmp_path / "k.txt"
    with traced(t):
        assert lpkit.cli.main(["gen", "krawtchouk", "--d", "3", "-o", str(path)]) == 0
        assert lpkit.cli.main(["leaf", str(path), "--r", "0", "--s", "1",
                               "--method", "appendix-a"]) == 0
        assert lpkit.cli.main(["check", str(path)]) == 0
    after = _lpkit_state()
    assert before[0].keys() == after[0].keys()
    for name, space in before[0].items():
        assert all(after[0][name][k] is v for k, v in space.items()), name
    assert before[1] == after[1] and all(a is b for a, b in zip(before[2], after[2]))
    for name in ("cli.main", "leaf.appendix_a", "instances.serialize_instance",
                 "qpoly.direct", "qpoly.theorem", "system.compute_spectrum"):
        assert t.stats[name][0] >= 1, name
    assert t.stats["cli.main"][0] == 3 and not t.stack
    assert t.counter_total("matmul") > 0


def test_wrappers_are_restored_when_the_call_raises():
    pytest.importorskip("lpkit")
    import lpkit.system
    original = lpkit.system.compute_spectrum
    t = Tracer()
    with pytest.raises(AttributeError):
        with traced(t):
            assert lpkit.system.compute_spectrum is not original
            lpkit.system.compute_spectrum(None)
    assert lpkit.system.compute_spectrum is original
    assert t.stats["system.compute_spectrum"][0] == 1 and not t.stack


def test_benchmark_json_lists_exactly_the_reported_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    reported = layer_metrics(Tracer(), 1, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in reported.items()]
    for module, funcs in tracing.SPANS.items():
        for func in funcs:
            assert f"{module}.{func}.self_s" in reported


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert _tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert _tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert _tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


@pytest.mark.parametrize("kernel_s, expected", [(1 / 3300, 2.0), (2 / 3300, 1.0)])
def test_scaled_time_divides_out_the_kernel_rate(monkeypatch, kernel_s, expected):
    from perfbench import bench
    clock = FakeClock()

    def kernel():
        clock.now += kernel_s

    monkeypatch.setattr(bench, "_kernel", kernel)
    monkeypatch.setattr(bench.time, "perf_counter", clock)
    # a machine running the kernel at half the reference rate halves the time
    assert bench.scaled(2.0) == pytest.approx(expected)
