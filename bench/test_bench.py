"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, rebind  # noqa: E402

run.import_library()

import twohom  # noqa: E402
from twohom import Complex2, Matrix, TwoModule  # noqa: E402

TINY = {
    "derive-z": [4, 5, 6],
    "derive-zmod": [4, 5, 6],
    "snf-dense": [3, 4, 5],
    "cli-small": ["longseq1", "derive", "pi", "oracle", "homology", "relkernel"],
}


def tiny_inputs(name, tmp_path, seed=3, cycles=2):
    wl = run.WORKLOADS[name]
    if isinstance(wl, workloads.CliSmall):
        return wl, wl.inputs(seed, cycles, tmp_path / "ws.json", mix=TINY[name])
    return wl, wl.inputs(seed, cycles, sizes=TINY[name])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_every_metric_printed_with_unit(name, tmp_path):
    wl, inputs = tiny_inputs(name, tmp_path)
    done = run.measure(wl, inputs)
    assert done.failed == 0, done.errors
    values = run.end_to_end(done, setup_s=0.5)
    lines = run.report_lines(values, dict(run.END_TO_END), done, len(inputs),
                             done.failed, done.digest.hexdigest(), {})
    assert values["query_p50_ms"] > 0 and values["throughput_qps"] > 0
    for metric, unit in run.END_TO_END:
        assert values[metric] >= 0
        assert any(line.startswith(f"{metric} = ") and f" {unit}" in line
                   for line in lines), metric
    assert f"failed_ratio = 0.0 (0 of {len(inputs)})" in lines


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_and_untraced_digests_agree(name, tmp_path):
    wl, inputs = tiny_inputs(name, tmp_path)
    untraced = run.measure(wl, inputs)
    originals = {attr: getattr(sys.modules[f"twohom.{mod}"], attr)
                 for mod, attr, _ in TRACED}
    tracer = Tracer()
    with tracer.installed():
        traced = run.measure(wl, inputs, tracer)
    assert traced.failed == untraced.failed == 0
    assert traced.digest.hexdigest() == untraced.digest.hexdigest()
    layers = run.per_layer(tracer, traced, untraced, 0.1, 0.01)
    assert set(layers) == {name for name, _, _ in run.PER_LAYER}
    assert layers["exactlin.snf.calls"] > 0
    # uninstalling restores every original binding
    for mod, attr, _ in TRACED:
        assert getattr(sys.modules[f"twohom.{mod}"], attr) is originals[attr]
    assert twohom.snf is originals["snf"]


def test_tracer_catches_imported_names_and_excludes_paused_calls():
    a = [[2, 4], [6, 8]]
    tracer = Tracer()
    with tracer.installed():
        twohom.fpmod.invariant_factors(          # calls fpmod's imported snf
            twohom.FPModule(twohom.ZZ, 2, Matrix.from_rows(twohom.ZZ, a)))
        with tracer.pause():
            twohom.snf(Matrix.from_rows(twohom.ZZ, a))
    calls = tracer.calls()
    assert calls["fpmod.invariant_factors"] == 1
    assert calls["exactlin.snf"] == 1
    self_s = tracer.self_times()
    assert 0 <= self_s["exactlin.snf"]
    assert 0 <= self_s["fpmod.invariant_factors"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_no_two_queries_share_a_memoizing_instance(name, tmp_path, monkeypatch):
    wl, inputs = tiny_inputs(name, tmp_path)
    born = {}                 # id -> query index at construction
    keep = []                 # holds instances so ids are not reused
    current = [None]
    shared = []

    for cls in (Matrix, TwoModule, Complex2):
        init = cls.__init__

        def recording_init(self, *args, __init=init, **kwargs):
            __init(self, *args, **kwargs)
            born[id(self)] = current[0]
            keep.append(self)

        monkeypatch.setattr(cls, "__init__", recording_init)

    def used(x):
        if isinstance(x, twohom.FPModule):
            x = x.rel
        if isinstance(x, (Matrix, TwoModule, Complex2)):
            if born.get(id(x), "unknown") != current[0]:
                shared.append((type(x).__name__, current[0], born.get(id(x))))

    undo = []
    for mod, attr, _ in TRACED:
        fn = getattr(sys.modules[f"twohom.{mod}"], attr)

        def observed(*args, __fn=fn, **kwargs):
            for x in args:
                used(x)
            return __fn(*args, **kwargs)

        undo += rebind(fn, observed)
    try:
        for k, raw in enumerate(inputs):
            current[0] = k
            wl.query(raw)
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    assert keep and not shared, shared[:5]


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90, 100)
    assert run.tail(times[:40]) == (30.0, 75, 40)     # p90 has 4 beyond
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50, 3)   # too few: the median


def test_a_query_past_the_time_limit_is_stopped_and_fails(monkeypatch):
    class Endless:
        def query(self, raw):
            while True:
                pass

    monkeypatch.setattr(run, "QUERY_LIMIT_S", 0.05)
    done = run.measure(Endless(), [{"stratum": 1}])
    assert done.failed == 1 and "QueryTimeout" in done.errors[0]


def test_cycle_throughput_is_the_median_cycle():
    strata = ["a", "b"] * 3
    times = [0.5, 0.5, 1.0, 1.0, 0.25, 0.25]     # cycles: 1 s, 2 s, 0.5 s
    assert run.cycle_throughput(strata, times) == 2.0


def test_scaled_time_is_wall_time_at_reference_speed():
    ref = run.REFERENCE_PROBE_S
    assert run.at_reference_speed(0.01, ref, ref) == pytest.approx(0.01)
    assert run.at_reference_speed(0.02, 2 * ref, 2 * ref) == pytest.approx(0.01)


def test_closed_form_tor_matches_classical_oracle():
    tor = workloads.TorOracle()
    for orders in ([2], [6], [4, 6], [3, 5], [12]):
        for k in (2, 3, 4, 6):
            for i in range(3):
                assert workloads.tor_closed_form(orders, k, i) == tor(orders, k, i)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    wl = run.WORKLOADS["snf-dense"]
    assert wl.inputs(5, 1, sizes=[3]) == wl.inputs(5, 1, sizes=[3])
    assert wl.inputs(5, 1, sizes=[3]) != wl.inputs(6, 1, sizes=[3])
    z, zmod = run.WORKLOADS["derive-z"], run.WORKLOADS["derive-zmod"]
    assert z.inputs(5, 1) == zmod.inputs(5, 1)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
