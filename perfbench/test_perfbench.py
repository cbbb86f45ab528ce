"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
from thermrom import TwoDofModel, newmark, scenarios  # noqa: E402
from thermrom.rom import FullSystem  # noqa: E402
from tracer import Tracer, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("outer"):
        clock.now += 1.0
        with tr.span("mid"):
            clock.now += 2.0
            with tr.span("inner"):
                clock.now += 4.0
            clock.now += 8.0
        with tr.span("inner"):
            clock.now += 16.0
        clock.now += 32.0
    assert tr.total == {"inner": 20.0, "mid": 14.0, "outer": 63.0}
    assert tr.self_time == {"inner": 20.0, "mid": 10.0, "outer": 33.0}
    assert tr.calls == {"inner": 2, "mid": 1, "outer": 1}
    # Self times partition the outermost span.
    assert sum(tr.self_time.values()) == tr.total["outer"]


def test_reentering_a_layer_opens_no_span():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("load"):
        clock.now += 1.0
        with tr.span("load"):
            clock.now += 2.0
    assert tr.calls == {"load": 1}
    assert tr.self_time == {"load": 3.0}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with pytest.raises(ValueError):
        with tr.span("outer"):
            with tr.span("inner"):
                clock.now += 1.0
                raise ValueError
    assert tr.total == {"inner": 1.0, "outer": 1.0}
    assert tr.self_time["outer"] == 0.0
    tr.reset()


@pytest.mark.parametrize("n, expected", [
    (1000, (99.0, 990, 1000)),    # p99 leaves exactly 10 samples beyond it
    (5000, (99.0, 4950, 5000)),   # p99.9 would leave only 5
    (20000, (99.9, 19980, 20000)),
    (200, (95.0, 190, 200)),      # p99 leaves 2, p95 leaves 10
    (25, (50.0, 13, 25)),
    (5, (50.0, 3, 5)),            # nothing qualifies: the median
])
def test_tail_percentile_rule(n, expected):
    values = list(range(n, 0, -1))  # order must not matter
    assert tail_percentile(values) == expected


def test_tail_percentile_of_empty_sample():
    assert tail_percentile([]) == (0.0, 0.0, 0)


def _schedule(setup_s, compare_s, seconds):
    """Sample kinds ``bench.setup_due`` picks for fixed sample times."""
    setups, kinds, elapsed = [], [], 0.0
    while elapsed < seconds:
        if bench.setup_due(setups, elapsed, seconds):
            setups.append(setup_s)
            kinds.append("s")
            elapsed += setup_s
        else:
            kinds.append("c")
            elapsed += compare_s
    return "".join(kinds)


def test_a_slow_set_up_is_spread_over_the_run():
    kinds = _schedule(4.5, 2.4, 44.0)
    assert kinds.count("s") == bench.MIN_REPEATS
    assert kinds.startswith("sccccc")
    assert kinds.rindex("s") > len(kinds) // 2


def test_a_fast_set_up_takes_its_share_of_the_run():
    kinds = _schedule(0.3, 2.0, 44.0)
    share = 0.3 * kinds.count("s") / 44.0
    assert abs(share - bench.SETUP_SHARE) < 0.02
    assert "cccc" not in kinds


def _wrapped_attributes():
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    probe.install(tracer)
    patched = list(tracer._patches)
    tracer.restore()
    return patched


def test_traced_block_restores_every_wrapped_attribute():
    targets = _wrapped_attributes()
    assert len(targets) > 30
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    with pytest.raises(RuntimeError):
        with tracer.installed(probe.install):
            for owner, attr, original in targets:
                current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                assert current is not original
            raise RuntimeError("leave the block early")
    for owner, attr, original in targets:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} left wrapped"
    assert not tracer._patches


def test_newton_iterations_are_iteration_matrix_calls_between_begin_steps():
    model = TwoDofModel()
    system = FullSystem(model, theta_of_t=lambda t: 0.3,
                        load=lambda t: np.array([0.0, np.sin(1.5 * t)]))
    tracer = Tracer()
    probe = layers.LayerProbe(tracer)
    with tracer.installed(probe.install):
        scenarios.newmark_integrate(system, np.zeros(2), np.zeros(2), 0.05, 40,
                                    newmark.NewmarkSettings())
    m = probe.metrics(max_newton=25)
    [run] = probe.integrations
    assert m["newmark.hfm.steps"] == len(run.iterations) == 40
    assert tracer.calls["rom.hfm.begin_step"] == 41  # plus the initial call
    assert sum(run.iterations) == tracer.calls["rom.hfm.iteration_matrix"]
    assert m["newmark.hfm.cap_margin"] == 25 - m["newmark.hfm.newton_iters.max"]
    assert m["newmark.modal.steps"] == 0 and m["newmark.modal.step_ms.p50"] == 0.0


def test_a_method_that_stalls_is_counted_and_the_others_still_run(tmp_path, monkeypatch):
    # Known defect: the modal baseline stalls at step 128 on the arch at eps 2e-3.
    stall = bench.Workload(dict(scenario="curved-nonlinear", eps=2e-3, cycles=3),
                           ("hfm", "modal"))
    monkeypatch.setitem(bench.WORKLOADS, "stall", stall)
    runner = bench.Bench("stall", 1, tmp_path)
    runner.setup()
    rnd = runner.compare()
    assert runner.ledger.attempted == 2
    [failure] = runner.ledger.failures
    assert (failure["method"], failure["error"], failure["step"]) == ("modal", "IntegrationError", 128)
    assert len(failure["residual_history"]) == 26  # predictor plus max_newton iterations
    assert rnd.compare_s > 0 and set(rnd.step_ms) == {"hfm"}
