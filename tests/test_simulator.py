"""Event-driven contact-process simulation and empirical moments."""

import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy.linalg import expm

from contactlab import simulator
from contactlab.criticality import (TransformedModel, calibrate, ground_transform,
                                    solve_ground_state)
from contactlab.errors import ModelError
from contactlab.hierarchy import evolve_hierarchy, poisson_initial
from contactlab.model import Kernel, RateModel, build_space, model_from_dict
from contactlab.simulator import ReplicaBatch, empirical_correlations, run_replicas

from conftest import random_finite_model
from reference import jump_criticality_residual, simulate_contact


def factorial_product(counts, idx):
    """Per-replica, per-cell falling-factorial product: the reference the
    moments reproduce to rounding."""
    out = 1.0
    seen = {}
    for i in idx:
        k = seen.get(i, 0)
        out *= counts[i] - k
        if out == 0.0:
            return 0.0
        seen[i] = k + 1
    return out


def fixed_batch(counts, replicas, t=0.0):
    """A batch in which every replica holds ``counts`` at time ``t``."""
    stacked = np.tile(np.asarray(counts, dtype=np.int64), (replicas, 1))
    return ReplicaBatch(snapshots={t: stacked}, truncated=np.zeros(replicas, dtype=bool))


def one_point_critical():
    space = build_space({"type": "finite", "points": [0], "weights": [1.0]})
    model = RateModel(birth=Kernel("dense", matrix=np.array([[1.0]])),
                      death=np.ones(1))
    tm, _, _ = calibrate(model, space)
    return tm


def asymmetric_jump_model():
    """Three points on non-uniform mbar whose jump kernel drives a 0 -> 1 ->
    2 -> 0 cycle."""
    space = build_space({"type": "finite", "points": [0, 1, 2],
                         "weights": [0.5, 1.0, 2.0]})
    b = np.array([[0.3, 0.1, 0.2], [0.2, 0.4, 0.1], [0.1, 0.3, 0.2]])
    jb = np.array([[0.0, 0.1, 1.5], [2.0, 0.0, 0.1], [0.05, 0.8, 0.0]])
    return TransformedModel(space=space, b=b, mbar=space.weights,
                            death=np.array([1.0, 0.7, 1.3]), psi=np.ones(3),
                            jump_b=jb, reversible=False)


def level1_generator(b, mbar, V, jb=None):
    """A of the mean counts' equation m' = A m: births and deaths, and the
    jumps' inflow and outflow."""
    A = b * mbar[:, None] - np.diag(V)
    if jb is not None:
        jump_M = jb * mbar[:, None]
        A += jump_M - np.diag(jump_M.sum(axis=0))
    return A


class TestSimulateContact:
    def test_pure_death_extinction_time(self):
        space = build_space({"type": "finite", "points": [0], "weights": [1.0]})
        model = RateModel(birth=Kernel("dense", matrix=np.zeros((1, 1))),
                          death=np.ones(1))
        from contactlab.criticality import TransformedModel
        tm = TransformedModel(space=space, b=np.zeros((1, 1)),
                              mbar=space.weights, death=model.death,
                              psi=np.ones(1), reversible=True)
        rng = np.random.default_rng(0)
        n = 20000
        times = np.empty(n)
        for i in range(n):
            log = simulate_contact(tm, [1], 50.0, [], rng, keep_events=True)
            times[i] = log.events[0][0]
        se = times.std(ddof=1) / np.sqrt(n)
        assert abs(times.mean() - 1.0) <= 3.5 * se

    def test_single_death_event(self):
        from contactlab.criticality import TransformedModel
        space = build_space({"type": "finite", "points": [0], "weights": [1.0]})
        tm = TransformedModel(space=space, b=np.zeros((1, 1)),
                              mbar=space.weights, death=np.ones(1),
                              psi=np.ones(1), reversible=True)
        log = simulate_contact(tm, [1], 1000.0, [], np.random.default_rng(1))
        assert len(log.events) == 1
        assert log.events[0][1] == "death"
        assert log.final_counts[0] == 0

    def test_critical_branching_mean(self):
        tm = one_point_critical()
        rng = np.random.default_rng(2)
        n = 20000
        finals = np.empty(n)
        for i in range(n):
            log = simulate_contact(tm, [1], 1.0, [], rng, keep_events=False)
            finals[i] = log.final_counts[0]
        se = finals.std(ddof=1) / np.sqrt(n)
        assert abs(finals.mean() - 1.0) <= 3.5 * se

    def test_snapshots_and_nonnegativity(self, finite4_critical):
        rng = np.random.default_rng(3)
        log = simulate_contact(finite4_critical, [2, 1, 0, 3], 2.0,
                               [0.5, 1.0, 2.0], rng)
        assert set(log.snapshots) == {0.5, 1.0, 2.0}
        for snap in log.snapshots.values():
            assert np.all(snap >= 0)
        times = [e[0] for e in log.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_event_cap_truncates(self, finite4_critical):
        rng = np.random.default_rng(4)
        log = simulate_contact(finite4_critical, [20, 20, 20, 20], 100.0,
                               [], rng, event_cap=50, keep_events=False)
        assert log.truncated


class TestEmpiricalCorrelations:
    def test_poisson_initial_moments(self, finite4_critical):
        tm = finite4_critical
        rho = 0.8
        logs = run_replicas(tm, rho, 0.0, [0.0], 4000, seed=5)
        k1 = empirical_correlations(logs, tm.space, 0.0, 1, tm.mbar)
        k2 = empirical_correlations(logs, tm.space, 0.0, 2, tm.mbar)
        assert np.all(np.abs(k1.values - rho) <= 3.5 * k1.stderr)
        assert np.all(np.abs(k2.values - rho ** 2) <=
                      3.5 * np.maximum(k2.stderr, 1e-12))

    def test_deterministic_single_particle(self, finite4_critical):
        tm = finite4_critical
        space = tm.space
        counts = np.zeros(4, dtype=int)
        counts[2] = 1
        batch = fixed_batch(counts, 200)
        k1 = empirical_correlations(batch, space, 0.0, 1, tm.mbar)
        k2 = empirical_correlations(batch, space, 0.0, 2, tm.mbar)
        assert k1.values[2] == pytest.approx(1.0 / tm.mbar[2])
        assert k2.values[2, 2] == 0.0

    def test_insufficient_replicas_rejected(self, finite4_critical):
        logs = run_replicas(finite4_critical, 0.5, 0.0, [0.0], 50, seed=6)
        with pytest.raises(ModelError):
            empirical_correlations(logs, finite4_critical.space, 0.0, 1,
                                   finite4_critical.mbar)

    def test_truncated_replicas_rejected(self, finite4_critical):
        tm = finite4_critical
        # a few replicas hit the cap and more than 100 stay under it
        batch = run_replicas(tm, 0.5, 1.0, [1.0], 150, seed=13, event_cap=6)
        n_trunc = int(batch.truncated.sum())
        assert 0 < n_trunc <= 50
        # a truncated replica stopped before T, so its view has no t = T
        # snapshot; every other replica has one
        assert sum(log.truncated for log in batch) == n_trunc
        assert all((1.0 in log.snapshots) != log.truncated for log in batch)
        with pytest.raises(ModelError, match=f"{n_trunc} of 150 replicas were "
                                             "truncated at the event cap of 6"):
            empirical_correlations(batch, tm.space, 1.0, 1, tm.mbar)

    def test_falling_factorial_order3(self, finite4_critical):
        tm = finite4_critical
        batch = fixed_batch([3, 0, 0, 0], 150)
        k3 = empirical_correlations(batch, tm.space, 0.0, 3, tm.mbar)
        assert k3.values[0, 0, 0] == pytest.approx(3 * 2 * 1 / tm.mbar[0] ** 3)

    def test_orders_1_to_3_match_per_replica_formula(self):
        # the recursive sums against the per-replica sample's mean and std, with
        # a constant column (stderr exactly 0), an all-zero column and one
        # near 1000 (S2 - S1^2 / R cancels to about three digits there)
        R = 300
        rng = np.random.default_rng(15)
        counts = np.column_stack([rng.poisson(1.5, size=(R, 4)), np.full(R, 3),
                                  np.zeros(R, dtype=int), rng.poisson(1000, size=R)])
        size = counts.shape[1]
        mbar = rng.uniform(0.5, 2.0, size)
        space = build_space({"type": "finite", "points": list(range(size)),
                             "weights": list(mbar)})
        batch = ReplicaBatch(snapshots={0.0: counts},
                             truncated=np.zeros(R, dtype=bool))
        for n in (1, 2, 3):
            est = empirical_correlations(batch, space, 0.0, n, mbar)
            # the integer products' mean and std, scaled after: a constant
            # cell's reference std is then exactly 0, not rounding noise
            cells = list(np.ndindex(*(size,) * n))
            sample = np.array([[factorial_product(c.astype(float), idx) for idx in cells]
                               for c in counts]).reshape((R,) + (size,) * n)
            scale = np.ones(())
            for _ in range(n):
                scale = np.multiply.outer(scale, mbar)
            np.testing.assert_allclose(est.values, sample.mean(axis=0) / scale,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(est.stderr,
                                       sample.std(axis=0, ddof=1) / np.sqrt(R) / scale,
                                       rtol=1e-12, atol=0)
        k1 = empirical_correlations(batch, space, 0.0, 1, mbar)
        k2 = empirical_correlations(batch, space, 0.0, 2, mbar)
        k3 = empirical_correlations(batch, space, 0.0, 3, mbar)
        assert k1.stderr[4] == k1.stderr[5] == 0.0 < k1.stderr[6]
        assert k2.values[4, 4] == pytest.approx(6 / mbar[4] ** 2, rel=1e-15)
        assert np.all(k2.stderr[4:6, 4:6] == 0.0)
        assert np.all(k2.stderr[5] == 0.0) and np.all(k2.stderr[:, 5] == 0.0)
        assert np.all(np.delete(k2.stderr[6], 5) > 0.0)
        assert k3.values[4, 4, 4] == pytest.approx(6 / mbar[4] ** 3, rel=1e-15)
        assert k3.stderr[4, 4, 4] == 0.0

    def test_order2_memory_is_small(self):
        # R = 2000 on 49 points: a per-replica (R, size, size) array alone
        # would take 38 MB
        R = 2000
        space = build_space({"type": "lattice", "d": 2, "R": 3, "boundary": "periodic"})
        counts = np.random.default_rng(16).poisson(1.0, size=(R, space.size))
        batch = ReplicaBatch(snapshots={0.0: counts},
                             truncated=np.zeros(R, dtype=bool))
        tracemalloc.start()
        try:
            empirical_correlations(batch, space, 0.0, 2, np.ones(space.size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_order3_memory_is_small(self):
        # R = 1000 on 49 points: a per-replica (R, size, size, size) array
        # alone would take 941 MB
        R = 1000
        space = build_space({"type": "lattice", "d": 2, "R": 3, "boundary": "periodic"})
        counts = np.random.default_rng(17).poisson(1.0, size=(R, space.size))
        batch = ReplicaBatch(snapshots={0.0: counts},
                             truncated=np.zeros(R, dtype=bool))
        tracemalloc.start()
        try:
            k3 = empirical_correlations(batch, space, 0.0, 3, np.ones(space.size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k3.values.shape == (space.size,) * 3
        assert peak < 64e6

    def test_order4_memory_is_bounded(self):
        # R = 200 on 25 points: summed over all replicas at once, the
        # factorial products and their temporaries peaked at 72 MB; summed a
        # chunk at a time the peak was 30.3 MB, mostly the 25^4-cell sums
        R = 200
        space = build_space({"type": "lattice", "d": 2, "R": 2, "boundary": "periodic"})
        counts = np.random.default_rng(18).poisson(1.0, size=(R, space.size))
        batch = ReplicaBatch(snapshots={0.0: counts},
                             truncated=np.zeros(R, dtype=bool))
        tracemalloc.start()
        try:
            empirical_correlations(batch, space, 0.0, 4, np.ones(space.size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 61e6

    def test_chunked_sums_equal_one_chunk(self, monkeypatch):
        # the sums are of integers below 2^53, so they are exact in any order
        R, size = 150, 6
        space = build_space({"type": "finite", "points": list(range(size))})
        counts = np.random.default_rng(19).poisson(1.5, size=(R, size))
        batch = ReplicaBatch(snapshots={0.0: counts},
                             truncated=np.zeros(R, dtype=bool))
        mbar = np.linspace(0.5, 1.5, size)
        whole = [empirical_correlations(batch, space, 0.0, n, mbar) for n in range(1, 5)]
        assert R * size ** 3 <= simulator.MOMENT_CHUNK
        monkeypatch.setattr(simulator, "MOMENT_CHUNK", 40)
        for n, one in enumerate(whole, 1):
            chunked = empirical_correlations(batch, space, 0.0, n, mbar)
            assert np.array_equal(chunked.values, one.values)
            assert np.array_equal(chunked.stderr, one.stderr)

    def test_order_four_chunked_equals_one_chunk(self, monkeypatch):
        # 25 points at R = 200: order 4 runs over 13 chunks, and its sums
        # equal those of one chunk exactly
        R = 200
        space = build_space({"type": "lattice", "d": 2, "R": 2, "boundary": "periodic"})
        counts = np.random.default_rng(20).poisson(1.0, size=(R, space.size))
        batch = ReplicaBatch(snapshots={0.0: counts},
                             truncated=np.zeros(R, dtype=bool))
        chunked = empirical_correlations(batch, space, 0.0, 4, np.ones(space.size))
        assert -(-R // (simulator.MOMENT_CHUNK // space.size ** 3)) == 13
        monkeypatch.setattr(simulator, "MOMENT_CHUNK", R * space.size ** 3)
        one = empirical_correlations(batch, space, 0.0, 4, np.ones(space.size))
        assert np.array_equal(chunked.values, one.values)
        assert np.array_equal(chunked.stderr, one.stderr)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, finite4_critical, n):
        batch = fixed_batch([1, 2, 0, 1], 150)
        with pytest.raises(ModelError, match=f"order n = {n} must be at least 1"):
            empirical_correlations(batch, finite4_critical.space, 0.0, n,
                                   finite4_critical.mbar)


class TestHierarchyAgreement:
    def test_k1_conserved_critical(self, finite4_critical):
        tm = finite4_critical
        rho = 0.5
        logs = run_replicas(tm, rho, 1.0, [1.0], 8000, seed=7)
        k1 = empirical_correlations(logs, tm.space, 1.0, 1, tm.mbar)
        assert np.all(np.abs(k1.values - rho) <= 3.5 * k1.stderr)

    def test_two_point_matches_dense_evolve(self):
        rng = np.random.default_rng(8)
        space, model = random_finite_model(rng, size=2)
        tm, _, _ = calibrate(model, space)
        rho, T = 0.5, 1.0
        logs = run_replicas(tm, rho, T, [T], 8000, seed=9)
        res = evolve_hierarchy(tm, [poisson_initial(n, rho, space) for n in (1, 2)],
                               np.linspace(0.0, T, 51))
        t2, traj2 = res[2]
        i = int(np.argmin(np.abs(t2 - T)))
        k2_hat = empirical_correlations(logs, space, T, 2, tm.mbar)
        z = (k2_hat.values - traj2[i]) / np.maximum(k2_hat.stderr, 1e-12)
        assert np.abs(z).max() <= 3.5

    def test_marked_window_matches_evolve(self):
        # a product space: a periodic 3-site window with two marks.  84
        # cells (6 of k1, 36 of k2, at two times), each held to the z limit
        # that keeps the family-wise false-alarm rate at 1e-3 (Bonferroni)
        space, model = model_from_dict({
            "space": {"type": "product", "d": 1, "R": 1, "boundary": "periodic",
                      "marks": ["A", "B"], "nu": [0.5, 0.5]},
            "birth": {"form": "factorized", "alpha": "nearest", "rate": 1.0,
                      "Q": [[2.0, 1.0], [1.0, 2.0]]},
            "death": {"per_mark": [1.0, 3.0]}})
        assert space.size == 6
        tm, _, _ = calibrate(model, space)
        rho, times = 0.5, [1.0, 2.0]
        batch = run_replicas(tm, rho, 2.0, times, 20000, seed=19)
        exact = evolve_hierarchy(tm, [poisson_initial(n, rho, space) for n in (1, 2)],
                                 [0.0] + times)
        cells = 2 * (6 + 36)
        z_max = NormalDist().inv_cdf(1 - 1e-3 / (2 * cells))
        worst = 0.0
        for n in (1, 2):
            _, traj = exact[n]
            for i, t in enumerate(times, 1):
                est = empirical_correlations(batch, space, t, n, tm.mbar)
                assert np.all(est.stderr > 0)
                z = (est.values - traj[i]) / est.stderr
                worst = max(worst, float(np.abs(z).max()))
        assert worst <= z_max

    def test_order3_matches_evolve(self):
        # criterion 5's random 4-point model: 192 cells of k3 (64 at each of
        # three times), held to the z limit that keeps the family-wise
        # false-alarm rate at 1e-3 (Bonferroni)
        space, model = random_finite_model(np.random.default_rng(7), size=4)
        tm, _, _ = calibrate(model, space)
        rho, times = 0.5, [0.5, 1.0, 2.0]
        batch = run_replicas(tm, rho, 2.0, times, 100_000, seed=99)
        _, traj = evolve_hierarchy(tm, [poisson_initial(n, rho, space) for n in (1, 2, 3)],
                                   [0.0] + times)[3]
        cells = len(times) * 4 ** 3
        z_max = NormalDist().inv_cdf(1 - 1e-3 / (2 * cells))
        worst = 0.0
        for i, t in enumerate(times, 1):
            est = empirical_correlations(batch, space, t, 3, tm.mbar)
            assert np.all(est.stderr > 0)
            z = (est.values - traj[i]) / est.stderr
            worst = max(worst, float(np.abs(z).max()))
        assert worst <= z_max

    def test_death_rate_audit(self, finite4_critical):
        # empirical deaths per particle-time match V
        tm = finite4_critical
        rng = np.random.default_rng(10)
        deaths = np.zeros(4)
        exposure = np.zeros(4)
        for _ in range(400):
            log = simulate_contact(tm, [2, 2, 2, 2], 1.0, [], rng)
            t_prev = 0.0
            counts = np.array([2, 2, 2, 2], dtype=float)
            for (t, kind, pt) in log.events:
                exposure += counts * (t - t_prev)
                t_prev = t
                if kind == "death":
                    deaths[pt[0]] += 1
                    counts[pt[0]] -= 1
                elif kind == "birth":
                    counts[pt[0]] += 1
            exposure += counts * (1.0 - t_prev)
        rate = deaths / exposure
        se = np.sqrt(deaths) / exposure
        assert np.all(np.abs(rate - tm.death) <= 3.5 * se)


class TestJumpExtension:
    def test_psi_profile_conserved(self):
        # symmetric jump kernel on a homogeneous critical model (psi = 1):
        # the jump-extended balance holds and the density is conserved
        from conftest import nearest_stencil
        space = build_space({"type": "lattice", "d": 1, "R": 2,
                             "boundary": "periodic"})
        J = Kernel("stencil", stencil={k: 0.4 * v for k, v
                                       in nearest_stencil(1).items()})
        model = RateModel(birth=Kernel("stencil", stencil=nearest_stencil(1)),
                          death=np.ones(space.size), jump=J)
        gs = solve_ground_state(model, space)
        assert jump_criticality_residual(model, space, gs) <= 1e-10
        tm = ground_transform(model, space, gs)
        rho = 0.6
        logs = run_replicas(tm, rho, 1.5, [1.5], 8000, seed=12)
        k1 = empirical_correlations(logs, space, 1.5, 1, tm.mbar)
        assert np.all(np.abs(k1.values - rho) <= 3.5 * k1.stderr)

    def test_asymmetric_jumps_match_level1_expm(self):
        # exact oracle: the mean counts solve m' = A m.  The jump kernel
        # drives a 0 -> 1 -> 2 -> 0 cycle on non-uniform mbar, so a
        # destination drawn from anything but the source's column of jump_M
        # is far off.
        tm = asymmetric_jump_model()
        mbar = tm.mbar
        A = level1_generator(tm.b, mbar, tm.death, tm.jump_b)
        rho = 0.7
        batch = run_replicas(tm, rho, 1.5, [0.5, 1.5], 20000, seed=15)
        for t in (0.5, 1.5):
            exact = expm(t * A) @ (rho * mbar) / mbar
            k1 = empirical_correlations(batch, tm.space, t, 1, mbar)
            assert np.all(np.abs(k1.values - exact) <= 3.5 * k1.stderr)


class TestParticleAttribution:
    def test_outcome_table_reproduces_the_rates(self):
        # each site's outcome probabilities times its total rate give back
        # the death, birth and jump rates of one particle there
        from contactlab.simulator import _particle_outcomes
        tm = asymmetric_jump_model()
        size = 3
        rate, cum, lose, gain = _particle_outcomes(tm)
        W = cum.shape[0]
        prob = np.diff(np.where(np.isinf(cum), 1.0, cum), axis=0, prepend=0.0)
        death, birth, jump = np.zeros(size), np.zeros((size, size)), np.zeros((size, size))
        for j, x in np.ndindex(W, size):
            o = j * size + x
            r = prob[j, x] * rate[x]
            if lose[o] == x and gain[o] == size:
                death[x] += r
            elif lose[o] == size:
                birth[gain[o], x] += r
            else:
                assert lose[o] == x
                jump[gain[o], x] += r
        assert np.allclose(death, tm.death, rtol=1e-14, atol=0)
        assert np.allclose(birth, tm.b * tm.mbar[:, None], rtol=1e-14, atol=0)
        assert np.allclose(jump, tm.jump_b * tm.mbar[:, None], rtol=1e-14, atol=0)
        # W is the widest row: a death, 3 births and 2 jumps
        assert W == 6

    def test_asymmetric_births_match_level1_expm(self):
        # the birth kernel drives a 0 -> 1 -> 2 -> 0 cycle on non-uniform
        # mbar, so a core that credits the births from x to y to a particle
        # at y (a transposed kernel) is far off
        space = build_space({"type": "finite", "points": [0, 1, 2],
                             "weights": [0.5, 1.0, 2.0]})
        mbar = space.weights
        b = np.array([[0.05, 0.02, 1.6], [1.8, 0.05, 0.03], [0.02, 0.9, 0.05]])
        V = np.array([1.0, 0.7, 1.3])
        tm = TransformedModel(space=space, b=b, mbar=mbar, death=V, psi=np.ones(3),
                              reversible=False)
        B = b * mbar[:, None]
        wrong = [B.T - np.diag(V), level1_generator(b.T, mbar, V)]
        rho = 0.7
        batch = run_replicas(tm, rho, 1.5, [0.5, 1.5], 20000, seed=16)
        far = np.zeros(len(wrong))
        for t in (0.5, 1.5):
            k1 = empirical_correlations(batch, space, t, 1, mbar)
            exact = expm(t * level1_generator(b, mbar, V)) @ (rho * mbar) / mbar
            assert np.all(np.abs(k1.values - exact) <= 3.5 * k1.stderr)
            for i, A in enumerate(wrong):
                off = expm(t * A) @ (rho * mbar) / mbar
                far[i] = max(far[i], np.max(np.abs(k1.values - off) / k1.stderr))
        assert np.all(far >= 6.0)

    def test_two_sample_against_scalar_reference(self):
        # k1 and k2 of the lockstep core against the scalar per-destination
        # reference on the asymmetric-jump model, cell by cell
        tm = asymmetric_jump_model()
        rho, snaps = 0.7, [0.5, 1.5]
        rng = np.random.default_rng(17)
        R = 1500
        logs = [simulate_contact(tm, c0, 1.5, snaps, rng, keep_events=False)
                for c0 in rng.poisson(rho * tm.mbar, size=(R, 3))]
        ref = ReplicaBatch(snapshots={t: np.array([log.snapshots[t] for log in logs])
                                      for t in snaps},
                           truncated=np.zeros(R, dtype=bool))
        batch = run_replicas(tm, rho, 1.5, snaps, 6000, seed=18)
        worst = 0.0
        for t in snaps:
            for n in (1, 2):
                a = empirical_correlations(batch, tm.space, t, n, tm.mbar)
                r = empirical_correlations(ref, tm.space, t, n, tm.mbar)
                se = np.hypot(a.stderr, r.stderr)
                assert np.all(se > 0)
                worst = max(worst, float(np.max(np.abs(a.values - r.values) / se)))
        assert worst <= 4.0


class TestReproducibility:
    def test_same_seed_same_logs(self, finite4_critical):
        a = run_replicas(finite4_critical, 0.5, 1.0, [1.0], 50, seed=42)
        b = run_replicas(finite4_critical, 0.5, 1.0, [1.0], 50, seed=42)
        assert len(a) == len(b) == 50
        assert np.array_equal(a.snapshots[1.0], b.snapshots[1.0])
        assert np.array_equal(a.truncated, b.truncated)


class TestInitialIntensity:
    def test_largest_sampled_intensity(self):
        # numpy samples a Poisson intensity up to its own bound, int64 max
        # less 10 of its square roots, and raises ValueError on the next
        # float; that is a ModelError (exit 2), where it once was a crash
        tm = asymmetric_jump_model()          # the largest mbar is 2
        top = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
        rng = np.random.default_rng(3)
        counts = simulator.sample_poisson_initial(tm, top / 2.0, rng, 2)
        assert counts.shape == (2, 3) and counts[:, 2].min() > 0.99 * top
        with pytest.raises(ModelError, match="cannot sample"):
            simulator.sample_poisson_initial(tm, np.nextafter(top, np.inf) / 2.0, rng, 2)
