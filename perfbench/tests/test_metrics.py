"""Arithmetic of the benchmark's metrics and checks."""

import statistics

import numpy as np
import pytest

from perfbench import metrics, trace, workloads


def test_summary_uses_statistics_quartiles():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    assert metrics.summary(vals) == {"median": med, "q1": q1, "q3": q3, "n": 6}
    assert metrics.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    assert metrics.spread(vals) == pytest.approx((q3 - q1) / med)


def test_normalized_takes_out_host_speed():
    # a host half as fast doubles both the work and the reference
    assert metrics.normalized(10.0, [0.1, 0.1], 0.1) == pytest.approx(10.0)
    assert metrics.normalized(20.0, [0.19, 0.21], 0.1) == pytest.approx(10.0)


def test_time_to_target_scales_with_variance():
    # on target: the wall time; twice the target SE: four times the wall time
    assert metrics.time_to_target([(10.0, 0.002, 0.002)]) == pytest.approx(10.0)
    assert metrics.time_to_target([(10.0, 0.002, 0.002),
                                   (4.0, 0.004, 0.002)]) == pytest.approx(26.0)
    assert metrics.time_to_target([]) == 0.0


def test_check_fail_frac():
    assert metrics.check_fail_frac(0, 12) == 0.0
    assert metrics.check_fail_frac(3, 12) == 0.25
    assert metrics.check_fail_frac(0, 0) == 1.0     # nothing checked is a failure


def test_pair_jumps_computed():
    # 20k pairs of rate-1 walkers on [0, 200]: 2 * 20000 * 200 jumps
    assert trace.pair_jumps_computed(20000, 1.0, 200.0) == 8.0e6
    assert trace.pair_jumps_computed(10, 3.0, 0.5) == 30.0


SPEC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def test_compare_sets():
    first = {"wall_s": [10.0, 10.1, 10.2, 9.9], "setup_s": [1.0, 1.1, 1.2, 1.05],
             "rate": [100.0, 101.0, 99.0, 100.0]}
    rows = {r["name"]: r for r in metrics.compare_sets(first, first, SPEC)}
    assert all(r["ok"] for r in rows.values())
    # setup_s faces the same spread test as every other metric
    wide = dict(first, setup_s=[1.0, 1.5, 2.0, 1.2])
    assert metrics.spread(wide["setup_s"]) > 0.25
    rows = {r["name"]: r for r in metrics.compare_sets(first, wide, SPEC)}
    assert not rows["setup_s"]["ok"] and rows["wall_s"]["ok"]

    slower = dict(first, wall_s=[v * 1.2 for v in first["wall_s"]],
                  rate=[v * 0.8 for v in first["rate"]])
    rows = {r["name"]: r for r in metrics.compare_sets(first, slower, SPEC)}
    assert not rows["wall_s"]["ok"] and rows["wall_s"]["worse_by"] == pytest.approx(0.2)
    assert not rows["rate"]["ok"] and rows["rate"]["worse_by"] == pytest.approx(0.2)

    noisy = dict(first, wall_s=[5.0, 10.0, 15.0, 10.0])
    rows = {r["name"]: r for r in metrics.compare_sets(first, noisy, SPEC)}
    assert not rows["wall_s"]["ok"]


def test_z_limit_accounts_for_the_number_of_cells():
    assert workloads.z_limit(1) == 5.0
    assert workloads.z_limit(60) == pytest.approx(5.64, abs=0.01)
    assert workloads.z_limit(4802) == pytest.approx(6.36, abs=0.01)


def test_within_se():
    est = {(1.0, 1): (np.array([1.0, 2.0]), np.array([0.1, 0.0]))}
    # a cell with zero SE passes only when it is exact
    assert workloads.within_se("c", est, {(1.0, 1): np.array([1.2, 2.0])})[1]
    assert not workloads.within_se("c", est, {(1.0, 1): np.array([1.6, 2.0])})[1]
    assert not workloads.within_se("c", est, {(1.0, 1): np.array([1.0, 2.1])})[1]
    missing = {(1.0, 1): (np.array([np.nan, 2.0]), np.array([np.nan, 0.0]))}
    assert not workloads.within_se("c", missing, {(1.0, 1): np.array([1.0, 2.0])})[1]


def test_workload_inputs_depend_only_on_the_seed():
    a = workloads.steps("dense-window", 7)
    assert a == workloads.steps("dense-window", 7)
    assert a != workloads.steps("dense-window", 8)
    for name in workloads.WORKLOADS:
        steps = workloads.steps(name, 1)
        timed = [s.timed for s in steps]
        assert timed == sorted(timed, reverse=True)     # untimed steps come last
