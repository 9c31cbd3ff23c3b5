"""Auxiliary walkers, the transience estimate, and the lemma checks."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from contactlab import metrics, walkers
from contactlab.cli import main
from contactlab.criticality import calibrate, theta_kernel
from contactlab.errors import ModelError
from contactlab.model import Kernel, RateModel, build_space
from contactlab.walkers import (DOMINATION_TOL, LOWER_TAIL_B, POISSON_TAIL,
                                _HASH_MULT, _convolution,
                                _increment_exponent, _lattice_code,
                                _nearest_neighbour, _on_support, _orbit, _pair_chain,
                                _point_law, _skeleton_hits, _skeleton_weights, _step_law,
                                _support_hash, _symmetry_generators, _tail_fit,
                                convolution_bound_check, estimate_H,
                                heat_bound_check, heat_bound_exact, jump_count_cdf,
                                jump_count_law, lattice_walk, lower_tail_bound_check,
                                pair_integral_curves, pair_limit, poisson_domination_check)

from conftest import lattice_model, marked_model, nearest_stencil
from reference import (_alias_table, alpha_of, b_pair, clock_pair_curves, empirical_cdf,
                       heat_bound_values, iterated_convolution, locate,
                       mark_chain_jump_counts, simulate_jump, skeleton_hits, skeleton_sums)


def drift_model():
    """Critical model on Z^3 with a stencil that is not its own mirror image."""
    stencil = {(1, 0, 0): 0.3, (-1, 0, 0): 0.1, (0, 1, 0): 0.15,
               (0, -1, 0): 0.15, (0, 0, 1): 0.15, (0, 0, -1): 0.15}
    space = build_space({"type": "lattice", "d": 3, "R": 1, "boundary": "unbounded"})
    return space, RateModel(birth=Kernel("stencil", stencil=stencil),
                            death=np.ones(space.size))


def mean_se(per_replica):
    """Replica mean and standard error of (checkpoints, replicas) running integrals."""
    return (per_replica.mean(axis=1),
            per_replica.std(axis=1, ddof=1) / np.sqrt(per_replica.shape[1]))


class TestSimulateJump:
    def test_holding_time_exponential(self, finite4_critical):
        tm = finite4_critical
        rng = np.random.default_rng(1)
        holds = {i: [] for i in range(4)}
        path = simulate_jump(tm, tm.space.points[0], 4000.0, rng)
        ht = np.diff(path.times)
        for h, st in zip(ht, path.states[:-1]):
            holds[locate(tm.space, st)].append(h)
        for i, hs in holds.items():
            hs = np.asarray(hs)
            if len(hs) < 200:
                continue
            mean = hs.mean()
            se = hs.std(ddof=1) / np.sqrt(len(hs))
            assert abs(mean - 1.0 / tm.death[i]) <= 3.5 * se

    def test_times_strictly_increasing(self, z3_critical):
        rng = np.random.default_rng(2)
        path = simulate_jump(z3_critical, (0, 0, 0), 50.0, rng)
        assert np.all(np.diff(path.times) > 0)

    def test_single_jump_displacement_matches_stencil(self, z3_critical):
        # empirical first-jump displacement distribution matches alpha; a
        # jump's displacement does not depend on its time, so the horizon
        # only has to reach the first jump of most paths
        walk = lattice_walk(z3_critical)
        rng = np.random.default_rng(3)
        n = 20000
        counts = np.zeros(len(walk.step_probs))
        key = {tuple(s): i for i, s in enumerate(walk.steps)}
        done = 0
        while done < n:
            path = simulate_jump(z3_critical, (0, 0, 0), 2.0, rng, walk)
            if len(path.states) < 2:
                continue
            disp = tuple(np.subtract(path.states[1], path.states[0]))
            counts[key[disp]] += 1
            done += 1
        freq = counts / n
        se = np.sqrt(walk.step_probs * (1 - walk.step_probs) / n)
        assert np.all(np.abs(freq - walk.step_probs) <= 3.5 * se + 1e-12)

    def test_zero_jump_probability(self):
        # probability of no jumps by time t is exp(-v t)
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0])
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        rng = np.random.default_rng(4)
        t, n = 0.7, 20000
        hits = 0
        x0 = ((0,), "A")
        for _ in range(n):
            path = simulate_jump(tm, x0, t, rng, walk)
            hits += len(path.times) == 1
        p = hits / n
        v0 = tm.v[space.marks.index("A")]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p - np.exp(-v0 * t)) <= 3.5 * se

    def test_mark_transitions_match_theta(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0])
        tm, _, _ = calibrate(model, space)
        trans = theta_kernel(tm)
        walk = lattice_walk(tm)
        rng = np.random.default_rng(5)
        counts = np.zeros((2, 2))
        for _ in range(4000):
            path = simulate_jump(tm, ((0,), "A"), 5.0, rng, walk)
            marks = [space.marks.index(s[1]) for s in path.states]
            for a, b in zip(marks[:-1], marks[1:]):
                counts[a, b] += 1
        freq = counts / counts.sum(axis=1, keepdims=True)
        n_row = counts.sum(axis=1)
        for i in range(2):
            se = np.sqrt(trans[i] * (1 - trans[i]) / n_row[i])
            assert np.all(np.abs(freq[i] - trans[i]) <= 3.5 * se + 1e-12)

    def test_miscalibrated_jump_law_rejected(self, finite4_critical):
        tm = finite4_critical
        bad = tm.__class__(space=tm.space, b=tm.b * 1.3, mbar=tm.mbar,
                           death=tm.death, psi=tm.psi, reversible=tm.reversible)
        with pytest.raises(ModelError):
            simulate_jump(bad, tm.space.points[0], 1.0,
                          np.random.default_rng(0))


class TestPairEngine:
    def test_path_integral_exactness(self, z3_critical):
        # interval-sum integral of b along two piecewise-constant paths
        # equals a fine-grid Riemann sum
        tm = z3_critical
        walk = lattice_walk(tm)
        rng = np.random.default_rng(8)
        T = 20.0
        px = simulate_jump(tm, (0, 0, 0), T, rng)
        py = simulate_jump(tm, (1, 0, 0), T, rng)

        def b_at(t):
            x = np.asarray(px.state_at(t))
            y = np.asarray(py.state_at(t))
            return float(b_pair(walk, (x - y)[None, :], 0, 0)[0])

        # exact: sum over the merged breakpoint intervals
        cuts = np.unique(np.concatenate([px.times, py.times, [T]]))
        cuts = cuts[cuts <= T]
        exact = sum(b_at(a) * (b - a) for a, b in zip(cuts[:-1], cuts[1:]))
        # fine-grid Riemann (midpoint), both paths read at every grid point
        m = 200000
        grid = (np.arange(m) + 0.5) * (T / m)

        def states(path):
            held = np.searchsorted(path.times, grid, side="right") - 1
            return np.asarray(path.states)[held]

        riemann = b_pair(walk, states(px) - states(py), 0, 0).sum() * (T / m)
        assert exact == pytest.approx(riemann, abs=2e-3)
        assert exact == pytest.approx(riemann, rel=0.02)

    def test_engine_matches_dense_semigroup(self, z1_critical):
        # E int_0^T alpha(X_t - Y_t) dt against a dense computation for the
        # rate-2 difference walk on a window large enough for T = 4
        from scipy.linalg import expm
        walk = lattice_walk(z1_critical)
        T = 4.0
        rng = np.random.default_rng(88)
        [(cps, per)] = pair_integral_curves(walk, [(1,)], 0, 0, T, 40000, rng)
        mean, se = mean_se(per)
        R = 40
        size = 2 * R + 1
        P = np.zeros((size, size))
        for i in range(size):
            if i > 0:
                P[i, i - 1] = 0.5
            if i < size - 1:
                P[i, i + 1] = 0.5
        L = 2.0 * (P - np.eye(size))
        alpha_vec = np.zeros(size)
        alpha_vec[R - 1] = alpha_vec[R + 1] = 0.5
        # Simpson quadrature of (e^{tL} alpha)(z0 = 1)
        m = 400
        ts = np.linspace(0, T, 2 * m + 1)
        vals = np.array([(expm(t * L) @ alpha_vec)[R + 1] for t in ts])
        h = T / (2 * m)
        oracle = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                          + 2 * vals[2:-2:2].sum())
        assert abs(float(mean[-1]) - oracle) <= 3.5 * float(se[-1])

    def test_marked_engine_matches_pair_chain(self):
        # the pair (D, s_x, s_y) = (X - Y, marks) is a finite Markov chain on
        # |D| <= 40; int_0^T (e^{tL} b)(start) dt is the top-right block of
        # expm(T [[L, b], [0, 0]]).  The walkers start on different marks.
        from scipy.linalg import expm
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0])
        tm, _, _ = calibrate(model, space)
        v, trans = tm.v, theta_kernel(tm)
        T, R, M = 4.0, 40, 2
        size = (2 * R + 1) * M * M

        def state(D, sx, sy):
            return ((D + R) * M + sx) * M + sy

        L = np.zeros((size + 1, size + 1))
        for D in range(-R, R + 1):
            for sx in range(M):
                for sy in range(M):
                    i = state(D, sx, sy)
                    L[i, i] = -(v[sx] + v[sy])
                    L[i, size] = tm.alpha.get((D,), 0.0) * tm.Q[sx, sy] / tm.q[sx]
                    # a jump of X or Y moves D by +-1 (mass leaving the
                    # window is lost) and renews that walker's mark only
                    for E in (D - 1, D + 1):
                        if abs(E) > R:
                            continue
                        for new in range(M):
                            L[i, state(E, new, sy)] += v[sx] * 0.5 * trans[sx, new]
                            L[i, state(E, sx, new)] += v[sy] * 0.5 * trans[sy, new]
        oracle = expm(T * L)[state(1, 1, 0), size]
        walk = lattice_walk(tm)
        rng = np.random.default_rng(89)
        [(cps, per)] = pair_integral_curves(walk, [(1,)], 1, 0, T, 40000, rng)
        mean, se = mean_se(per)
        assert abs(float(mean[-1]) - oracle) <= 3.5 * float(se[-1])

    def test_running_integral_monotone(self, z3_critical):
        walk = lattice_walk(z3_critical)
        rng = np.random.default_rng(9)
        [(cps, per)] = pair_integral_curves(walk, [(0, 0, 0)], 0, 0, 100.0, 500, rng)
        mean, _ = mean_se(per)
        assert np.all(np.diff(mean) >= -1e-15)

    def test_two_walker_independence(self, z3_critical):
        # first-jump times of the two walkers are uncorrelated (censored at
        # the horizon, which keeps independent times independent)
        walk = lattice_walk(z3_critical)
        rng = np.random.default_rng(10)
        n = 5000
        t1 = np.empty(n)
        t2 = np.empty(n)
        for i in range(n):
            p1 = simulate_jump(z3_critical, (0, 0, 0), 5.0, rng, walk)
            p2 = simulate_jump(z3_critical, (1, 0, 0), 5.0, rng, walk)
            t1[i] = p1.times[1] if len(p1.times) > 1 else 5.0
            t2[i] = p2.times[1] if len(p2.times) > 1 else 5.0
        r = np.corrcoef(t1, t2)[0, 1]
        assert abs(r) <= 3.5 / np.sqrt(n)

    def test_zero_kernel_rejected(self, tmp_path):
        # a zero-mass stencil has no critical rescaling: exit 2 before any walk
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"model": {
            "space": {"type": "lattice", "d": 1, "R": 1, "boundary": "unbounded"},
            "birth": {"form": "stencil", "entries": [[[1], 0.0]]},
            "death": 1.0}, "T": 10.0, "replicas": 10}))
        assert main(["transience", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == 2

    def test_z1_not_converged(self, z1_critical):
        rng = np.random.default_rng(12)
        rep = estimate_H(z1_critical, [(0,), (1,)], T=200.0, replicas=4000,
                         rng=rng)
        assert not rep.converged
        # square-root growth diagnostic of the running integral
        assert 0.3 <= rep.growth_exponent <= 0.8

    @pytest.mark.parametrize("T", [0.1, 1.0, 5.0])
    def test_z1_short_horizon_not_converged(self, z1_critical, T):
        # below T = 5 the last decade holds fewer than 3 checkpoint
        # increments: no exponent is fitted, and the recurrent walk is not
        # converged at any of these horizons
        rep = estimate_H(z1_critical, [(0,)], T=T, replicas=2000,
                         rng=np.random.default_rng(1))
        assert rep.converged is False
        if T < 5:
            assert np.isnan(rep.tail_exponent_fit)
        else:
            assert -1.0 < rep.tail_exponent_fit < 0.0

    def test_unconverged_report_follows_running_max(self, z1_critical, monkeypatch):
        # (1,) has the largest running integral at T but not the largest
        # estimate + 3 stderr: H_hat, stderr and the curve all come from (1,).
        # The curves are built: each grows as a sqrt(t) (not integrable) times
        # a replica factor 1 +- spread, 0.9 for (0,) and 0.01 for the others
        sign = np.where(np.arange(2000) % 2, 1.0, -1.0)

        def curves(walk, displacements, s0x, s0y, T, replicas, rng):
            cps = walkers._geometric_checkpoints(T)
            return [(cps, a * np.sqrt(cps)[:, None] * (1.0 + spread * sign))
                    for a, spread in ((0.5, 0.9), (0.52, 0.01), (0.1, 0.01))]

        monkeypatch.setattr(walkers, "pair_integral_curves", curves)
        rep = estimate_H(z1_critical, [(0,), (1,), (10,)], T=100.0, replicas=2000,
                         rng=np.random.default_rng(0))
        assert not rep.converged
        first, best = rep.per_start[(0,)], rep.per_start[(1,)]
        assert first["estimate"] + 3 * first["stderr"] > best["estimate"] + 3 * best["stderr"]
        assert rep.H_hat == best["running_final"] > first["running_final"]
        assert rep.stderr == best["stderr"] != first["stderr"]
        assert rep.running[-1] == rep.H_hat

    def test_increment_exponent_cases(self):
        cps = np.geomspace(0.5, 50.0, 17)
        # a flat running integral over the last decade: numerically zero
        assert _increment_exponent(cps, np.minimum(cps, 1.0)) == -np.inf
        # two increments only: nothing to fit
        assert np.isnan(_increment_exponent(cps[:3], cps[:3]))
        # two positive increments among the last decade's 8: nothing to fit
        assert np.isnan(_increment_exponent(cps, np.minimum(cps, cps[10])))
        # E b = t^-2 exactly
        assert _increment_exponent(cps, -1.0 / cps) == pytest.approx(-2.0, abs=0.01)

    def test_far_start_not_converged(self, z1_critical):
        # no pair meets by T = 20 from 40 apart: a running integral that is 0
        # throughout shows no decay, so the recurrent walk is not converged
        rep = estimate_H(z1_critical, [(40,)], T=20.0, replicas=2000,
                         rng=np.random.default_rng(1))
        assert rep.converged is False
        assert np.isnan(rep.tail_exponent_fit)

    def test_report_independent_of_start_order(self, z3_critical):
        # the far start's growth exponent is nan, and shows in either order
        starts = [(0, 0, 0), (40, 0, 0)]
        a, b = (estimate_H(z3_critical, order, T=5.0, replicas=300,
                           rng=np.random.default_rng(2))
                for order in (starts, starts[::-1]))
        assert np.isnan(a.growth_exponent)
        np.testing.assert_equal(vars(a), vars(b))

    def test_z3_converged(self, z3_critical):
        rng = np.random.default_rng(13)
        rep = estimate_H(z3_critical, [(0, 0, 0)], T=150.0, replicas=4000,
                         rng=rng)
        assert rep.converged
        assert rep.tail_exponent_fit <= -1.05
        assert 0.2 <= rep.H_hat <= 0.35

    def test_marked_starts_keep_their_marks(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        starts = [((0, 0, 0), 0, 0), ((0, 0, 0), 0, 1)]
        rep = estimate_H(tm, starts, T=5.0, replicas=200,
                         rng=np.random.default_rng(14))
        assert list(rep.per_start) == starts
        with pytest.raises(ModelError):
            estimate_H(tm, [(0, 0, 0)], T=5.0, replicas=200,
                       rng=np.random.default_rng(14))


class TestLatticeCode:
    def test_alias_rows_match_target(self):
        # implied probability of outcome i: (thresh[i] + sum over the bins k
        # aliased to i of (1 - thresh[k])) / O
        rng = np.random.default_rng(21)
        for O in (1, 2, 5, 12, 24, 96):
            P = rng.random((40, O)) * (rng.random((40, O)) < 0.6)
            P[:, -1] += 0.01
            P /= P.sum(axis=1, keepdims=True)
            thresh, alias = _alias_table(P)
            implied = thresh.copy()
            for r in range(len(P)):
                np.add.at(implied[r], alias[r], 1.0 - thresh[r])
            implied /= O
            assert np.abs(implied - P).max() <= 1e-15
            assert np.all(implied[P == 0] == 0.0)

    def test_alpha_of_matches_stencil(self):
        stencil = {(1, 0): 0.3, (-2, 1): 0.2, (0, -1): 0.5}
        space = build_space({"type": "lattice", "d": 2, "R": 2,
                             "boundary": "unbounded"})
        model = RateModel(birth=Kernel("stencil", stencil=stencil),
                          death=np.ones(space.size))
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        box = np.array([(x, y) for x in range(-5, 6) for y in range(-5, 6)]
                       + [(2 ** 40, 0), (-3, -2 ** 40)])
        expect = [tm.alpha.get(tuple(u), 0.0) for u in box]
        assert np.array_equal(alpha_of(walk, box), expect)

    def test_code_range_guard(self, z3_critical):
        # 21 bits per coordinate on Z^3: |x| must stay below 2^20
        walk = lattice_walk(z3_critical)
        rng = np.random.default_rng(22)
        with pytest.raises(ModelError):
            pair_integral_curves(walk, [(2 ** 20, 0, 0)], 0, 0, 1.0, 10, rng)
        # the skeleton's K steps could reach 2^20: caught before any draw
        state = rng.bit_generator.state
        with pytest.raises(ModelError):
            pair_integral_curves(walk, [(2 ** 20 - 2, 0, 0)], 0, 0, 50.0, 100, rng)
        assert rng.bit_generator.state == state
        [(cps, per)] = pair_integral_curves(walk, [(-(2 ** 20) + 500, 0, 0)],
                                            0, 0, 50.0, 100, rng)
        assert mean_se(per)[0][-1] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(support=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=100, unique=True),
           others=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=50),
           picks=st.lists(st.integers(0, 10 ** 6), max_size=50),
           deltas=st.lists(st.integers(1, 2 ** 51 - 1), max_size=50))
    def test_on_support_matches_isin(self, support, others, picks, deltas):
        # random and negative codes, codes on the support, and codes whose
        # hash equals a support code's in every table of up to 2^13 slots:
        # h = s * MULT mod 2^64 with its low 51 bits changed, times MULT^-1
        sup = np.array(sorted(support), dtype=np.int64)
        mult, wrap = int(_HASH_MULT), 2 ** 64
        inverse = pow(mult, -1, wrap)
        chosen = [support[i % len(support)] for i in picks] if support else []
        colliders = [((((s * mult) % wrap) ^ delta) * inverse) % wrap
                     for s, delta in zip(chosen, deltas)]
        colliders = [c - wrap if c >= 2 ** 63 else c for c in colliders]
        codes = np.array(others + chosen + colliders, dtype=np.int64)
        np.random.default_rng(len(codes)).shuffle(codes)
        near, pos = _on_support(sup, _support_hash(sup), codes)
        expect = np.flatnonzero(np.isin(codes, sup))
        assert np.array_equal(near, expect)
        assert np.array_equal(pos, np.searchsorted(sup, codes[expect]))


class TestSharedChain:
    """Starts with the same marks share one chain of X - Y from 0."""

    def test_each_curve_matches_its_own_call_z3(self, z3_critical):
        walk = lattice_walk(z3_critical)
        group = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (-1, 1, 0)]
        shared = pair_integral_curves(walk, group, 0, 0, 40.0, 500,
                                      np.random.default_rng(31))
        for u, curve in zip(group, shared):
            [alone] = pair_integral_curves(walk, [u], 0, 0, 40.0, 500,
                                           np.random.default_rng(31))
            for a, b in zip(curve, alone):
                assert np.array_equal(a, b)
        # the same increments read at different starts: distinct curves
        assert not np.array_equal(shared[0][1], shared[1][1])

    def test_each_curve_matches_its_own_call_marked(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        group = [(0, 0, 0), (1, 0, 0), (0, 2, 0)]
        shared = pair_integral_curves(walk, group, 1, 0, 20.0, 400,
                                      np.random.default_rng(32))
        for u, curve in zip(group, shared):
            [alone] = pair_integral_curves(walk, [u], 1, 0, 20.0, 400,
                                           np.random.default_rng(32))
            for a, b in zip(curve, alone):
                assert np.array_equal(a, b)

    def test_distinct_marks_share_one_skeleton(self):
        # one start per mark pair: each start's weights stop at its own
        # skeleton length, so it reads the same result alone as together
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        starts = [((0, 0, 0), 0, 0), ((1, 0, 0), 0, 1), ((2, 0, 0), 1, 1)]
        with metrics.recording() as rec:
            together = estimate_H(tm, starts, T=20.0, replicas=300,
                                  rng=np.random.default_rng(33))
        lengths = []
        for start in starts:
            with metrics.recording() as alone_rec:
                alone = estimate_H(tm, [start], T=20.0, replicas=300,
                                   rng=np.random.default_rng(33))
            assert alone.per_start[start] == together.per_start[start]
            lengths.append(alone_rec["counters"]["walkers.skeleton_steps"])
        # one skeleton, as long as the longest start's
        assert rec["counters"]["walkers.skeleton_steps"] == max(lengths)

    def test_range_guard_trips_on_farthest_start(self, z3_critical):
        walk = lattice_walk(z3_critical)
        far = (2 ** 20 - 2, 0, 0)
        pair_integral_curves(walk, [(0, 0, 0), (-far[0] + 500, 0, 0)], 0, 0, 50.0,
                             100, np.random.default_rng(34))
        with pytest.raises(ModelError):
            pair_integral_curves(walk, [(0, 0, 0), far], 0, 0, 50.0, 100,
                                 np.random.default_rng(34))
        with pytest.raises(ModelError):
            pair_integral_curves(walk, [(0, 0, 0), (2 ** 20, 0, 0)], 0, 0, 1.0, 10,
                                 np.random.default_rng(34))

    def test_no_displacement_rejected(self, z3_critical):
        with pytest.raises(ModelError):
            pair_integral_curves(lattice_walk(z3_critical), [], 0, 0, 1.0, 10,
                                 np.random.default_rng(35))


class TestMarkIndependence:
    def test_constant_marks_reproduce_the_lattice(self, z3_critical):
        # constant Q and v with uniform nu make the marks invisible: every
        # one of the 16 joint initial marks at M = 4 steps through the pair
        # chain's (16, 16) jump and reads the plain Z^3 running integral
        M, disps = 4, [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        space = build_space({"type": "product", "d": 3, "R": 1, "boundary": "unbounded",
                             "marks": list(range(M)), "nu": [1.0 / M] * M})
        model = RateModel(birth=Kernel("factorized", stencil=nearest_stencil(3),
                                       Q=np.full((M, M), 2.0)),
                          death=np.ones(space.size))
        tm, _, _ = calibrate(model, space)
        starts = [(u, sx, sy) for u in disps for sx, sy in [(0, 0), (1, 3), (3, 2)]]
        rep = estimate_H(tm, starts, T=50.0, replicas=2000, rng=np.random.default_rng(5))
        ref = estimate_H(z3_critical, disps, T=50.0, replicas=2000,
                         rng=np.random.default_rng(5))
        for (u, _, _), value in rep.per_start.items():
            assert value["running_final"] == pytest.approx(
                ref.per_start[u]["running_final"], rel=1e-12, abs=0)


def _spy_sums(monkeypatch) -> list:
    """Record each ``_skeleton_sums`` call's result with the reference loop's
    (``skeleton_sums``) from a copy of its generator: ``[(got, expect)]``."""
    calls = []
    sums = walkers._skeleton_sums

    def spy(*args):
        twin = copy.deepcopy(args[-1])
        got = sums(*args)
        # the caller adds the columns up in place
        calls.append((got.copy(), skeleton_sums(*args[:-1], twin)))
        return got

    monkeypatch.setattr(walkers, "_skeleton_sums", spy)
    return calls


class TestCreditTables:
    @pytest.mark.parametrize("case", ["z3", "marked z3", "drift", "short blocks"])
    def test_matches_mark_by_mark_reference(self, case, monkeypatch):
        # _skeleton_sums contracts the marks once per block, start and column
        # and gathers each hit's credit: bit for bit the sums of the loop that
        # forms each hit's credit mark by mark.  The MARKED_Z3 starts have
        # joint initial marks s_x M + s_y = 0, 1 and 3; the one-mark drift
        # skeleton takes the mirrored law.  A block closes with the group of 4
        # steps (1-4, 5-8, ...) that brings it to 64 steps, at S_64, S_128,
        # ...; short blocks close at other groups too, so the credit tables
        # span blocks of many lengths
        if case == "marked z3":
            space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
            starts = [((0, 0, 0), 0, 0), ((1, 0, 0), 0, 1), ((2, 0, 0), 1, 1)]
        else:
            space, model = drift_model() if case == "drift" else lattice_model(3)
            starts = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        tm, _, _ = calibrate(model, space)
        ends = []
        hits = walkers._skeleton_hits

        def spy_hits(*args):
            for block in hits(*args):
                ends.extend(block[2][-1:].tolist())
                yield block

        monkeypatch.setattr(walkers, "_skeleton_hits", spy_hits)
        if case == "short blocks":
            monkeypatch.setattr(walkers, "_BLOCK_HITS", 300)
        calls = _spy_sums(monkeypatch)
        estimate_H(tm, starts, T=30.0, replicas=2000, rng=np.random.default_rng(2701))
        [(got, expect)] = calls
        assert got.shape[0] == 3 and got.any()
        assert np.array_equal(got, expect)
        assert all(n % 4 == 0 for n in ends[:-1])
        assert any(n % 64 for n in ends[:-1]) == (case == "short blocks")


def _pair_generator_integral(v, trans, alpha, Q, q, start, T, R=40):
    """E int_0^T b(X_t, Y_t) dt for the pair chain (D, s_x, s_y) of a
    one-dimensional model on |D| <= R, from the top-right block of
    expm(T [[L, b], [0, 0]]) (mass leaving the window is lost)."""
    from scipy.linalg import expm
    M = len(v)
    size = (2 * R + 1) * M * M

    def state(D, sx, sy):
        return ((D + R) * M + sx) * M + sy

    L = np.zeros((size + 1, size + 1))
    for D in range(-R, R + 1):
        for sx in range(M):
            for sy in range(M):
                i = state(D, sx, sy)
                L[i, i] = -(v[sx] + v[sy])
                L[i, size] = alpha.get((D,), 0.0) * Q[sx, sy] / q[sx]
                # X moves D by +step, Y by -step; each renews its own mark
                for (step,), p in alpha.items():
                    for E, rate, x_moves in ((D + step, v[sx], True),
                                             (D - step, v[sy], False)):
                        if abs(E) > R:
                            continue
                        for new in range(M):
                            j = state(E, new, sy) if x_moves else state(E, sx, new)
                            L[i, j] += rate * p / sum(alpha.values()) * trans[
                                sx if x_moves else sy, new]
    d0, sx, sy = start
    return expm(T * L)[state(d0, sx, sy), size]


class TestSkeleton:
    """The skeleton walk with exact mark-and-clock weights."""

    @pytest.mark.parametrize("marks", [(0, 0), (0, 1), (1, 1)])
    def test_marked_z3_matches_clock_chain(self, marks):
        # every checkpoint of each start against the exponential-clock
        # reference chain, within 5 combined SE
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        starts = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        curves = pair_integral_curves(walk, starts, *marks, 20.0, 4000,
                                      np.random.default_rng(41))
        mean, se = clock_pair_curves(walk, starts, *marks, 20.0, curves[0][0], 4000,
                                     np.random.default_rng(42))
        for (_, per), m_ref, e_ref in zip(curves, mean, se):
            m, e = mean_se(per)
            assert np.all(np.abs(m - m_ref) <= 5 * np.hypot(e, e_ref))

    def test_z1_matches_clock_chain(self, z1_critical):
        walk = lattice_walk(z1_critical)
        curves = pair_integral_curves(walk, [(0,), (3,)], 0, 0, 30.0, 4000,
                                      np.random.default_rng(43))
        mean, se = clock_pair_curves(walk, [(0,), (3,)], 0, 0, 30.0, curves[0][0], 4000,
                                     np.random.default_rng(44))
        for (_, per), m_ref, e_ref in zip(curves, mean, se):
            m, e = mean_se(per)
            assert np.all(np.abs(m - m_ref) <= 5 * np.hypot(e, e_ref))

    @pytest.mark.parametrize("stencil, d, K, k", [
        (nearest_stencil(3), 3, 41, 4),                        # uniform, 4 steps a draw
        (nearest_stencil(3), 3, 0, 4),                         # S_0 alone
        ({(1,): 0.5, (-1,): 0.2, (2,): 0.3}, 1, 37, 6),        # inverse-CDF draws, K % k = 1
        ({(i, j): 1 / 48 for i in range(-3, 4) for j in range(-3, 4) if i or j},
         2, 13, 1),                                            # 48 outcomes, one step a draw
    ])
    def test_grouped_draws_match_stepwise_reference(self, stencil, d, K, k):
        # every hit of S_0..S_K from the grouped draws, against the same draws
        # decoded into single steps and looked up with np.isin
        space = build_space({"type": "lattice", "d": d, "R": 1, "boundary": "unbounded"})
        tm, _, _ = calibrate(RateModel(birth=Kernel("stencil", stencil=stencil),
                                       death=np.ones(space.size)), space)
        walk = lattice_walk(tm)
        codes, probs = _step_law(walk)
        assert len(walkers._step_groups(codes, probs)[0]) == k
        support = np.unique((walk.support[:, None] - walk.support).ravel())
        got = list(_skeleton_hits(walk, codes, probs, 500, K, 2, support,
                                  np.random.default_rng(46)))
        expect = skeleton_hits(codes, probs, 500, K, support, np.random.default_rng(46))
        # S_0 = 0 lies on support - support: every replica hits it
        assert len(expect[0]) >= 500
        for field in range(3):
            assert np.array_equal(np.concatenate([b[field] for b in got]), expect[field])

    def test_inverse_cdf_draw_has_the_step_law(self):
        # the reference mirrors the draw, so the law is checked on its own: S_1
        # follows the step law and S_6, the end of a group of 6 steps, its
        # 6-fold convolution, every cell within a Bonferroni z-limit
        stencil = {(1,): 0.5, (-1,): 0.2, (2,): 0.3}
        space = build_space({"type": "lattice", "d": 1, "R": 2, "boundary": "unbounded"})
        tm, _, _ = calibrate(RateModel(birth=Kernel("stencil", stencil=stencil),
                                       death=np.ones(space.size)), space)
        walk = lattice_walk(tm)
        codes, probs = _step_law(walk)
        assert walkers._step_groups(codes, probs)[0].shape == (6, 729)
        R = 100000
        support = np.arange(-6, 13)                   # every S_n with n <= 6
        _, pos, step = map(np.concatenate, zip(*_skeleton_hits(
            walk, codes, probs, R, 6, 0, support, np.random.default_rng(48))))
        law = np.array([0.2, 0.0, 0.5, 0.3])         # on -1..2
        six = law
        for _ in range(5):
            six = np.convolve(six, law)               # on -6..12
        expect = {1: np.pad(law, (5, 10)), 6: six}
        z = stats.norm.isf(1e-3 / (2 * sum(np.count_nonzero(p) for p in expect.values())))
        for n, p in expect.items():
            count = np.bincount(pos[step == n], minlength=len(support))
            assert count.sum() == R and np.all(count[p == 0] == 0)
            on = p > 0
            assert np.all(np.abs(count[on] - R * p[on]) <= z * np.sqrt(R * p[on] * (1 - p[on])))

    def test_hit_blocks_capped(self, z1_critical, monkeypatch):
        # a recurrent walk hits its support densely: a block closes with the
        # first group of k steps that brings it to _BLOCK_HITS hits, and the
        # blocks hold the same hits in the same order as blocks of 64 steps
        walk = lattice_walk(z1_critical)
        codes, probs = _step_law(walk)
        k = len(walkers._step_groups(codes, probs)[0])

        def blocks():
            return list(_skeleton_hits(walk, codes, probs, 2000, 300, 0, walk.support,
                                       np.random.default_rng(45)))

        whole = blocks()
        monkeypatch.setattr(walkers, "_BLOCK_HITS", 1000)
        capped = blocks()
        assert len(capped) > len(whole)
        for field in range(3):
            assert np.array_equal(np.concatenate([b[field] for b in whole]),
                                  np.concatenate([b[field] for b in capped]))
        for near, _, step in capped[:-1]:
            last = step > (step[-1] - 1) // k * k       # the hits of the closing group
            assert len(near) >= 1000 > len(near) - last.sum()

    def test_one_mark_asymmetric_stencil_mirrored(self):
        # X - Y steps by +alpha or -alpha with probability 1/2 each: the
        # skeleton takes the mirrored law, checked against the pair chain
        stencil = {(1,): 0.5, (-1,): 0.2, (2,): 0.3}
        space = build_space({"type": "lattice", "d": 1, "R": 2, "boundary": "unbounded"})
        tm, _, _ = calibrate(RateModel(birth=Kernel("stencil", stencil=stencil),
                                       death=np.ones(space.size)), space)
        walk = lattice_walk(tm)
        [(_, per)] = pair_integral_curves(walk, [(1,)], 0, 0, 3.0, 40000,
                                          np.random.default_rng(45))
        mean, se = mean_se(per)
        oracle = _pair_generator_integral(walk.v, walk.mark_trans, tm.alpha, walk.Q,
                                          walk.q, (1, 0, 0), 3.0)
        assert abs(float(mean[-1]) - oracle) <= 3.5 * float(se[-1])

    def test_marked_asymmetric_stencil_rejected(self):
        # two marked walkers on a drifting stencil do not factor: X and Y
        # step in opposite directions at rates set by their own marks
        space = build_space({"type": "product", "d": 1, "R": 2, "boundary": "unbounded",
                             "marks": ["A", "B"], "nu": [0.5, 0.5]})
        model = RateModel(birth=Kernel("factorized", stencil={(1,): 0.6, (-1,): 0.4},
                                       Q=np.array([[2.0, 1.0], [1.0, 2.0]])),
                          death=np.array([1.0 if p[1] == "A" else 3.0
                                          for p in space.points]))
        tm, _, _ = calibrate(model, space)
        with pytest.raises(ModelError, match="reflection-symmetric"):
            estimate_H(tm, [((0,), 0, 1)], T=5.0, replicas=100,
                       rng=np.random.default_rng(46))
        # one walker factors on any stencil
        rep = heat_bound_check(tm, [1.0, 4.0], ((0,), "A"), (1,), 200,
                               np.random.default_rng(47))
        assert np.all(rep["estimate"] > 0)

    def test_occupation_weights_match_generator_expm(self):
        # int_0^t P(N_s = n, m_s = m) ds from the integral block of the
        # (count, mark) generator's exponential; the counts sum to t
        from scipy.linalg import expm
        v = np.array([0.7, 2.0, 3.5])
        trans = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]])
        p0 = np.array([[0.5, 0.2, 0.3], [0.0, 1.0, 0.0]])
        t_grid, k_max, M = [0.4, 3.0, 8.0], 10, 3
        occupation = jump_count_law(v, trans, p0, t_grid, integrated=True)
        point = jump_count_law(v, trans, p0, t_grid)
        size = (k_max + 2) * M
        G = np.zeros((size, size))
        for c in range(k_max + 1):
            for s in range(M):
                G[c * M + s, c * M + s] = -v[s]
                G[c * M + s, (c + 1) * M:(c + 2) * M] += v[s] * trans[s]
        big = np.block([[G, np.eye(size)], [np.zeros((size, size)), np.zeros((size, size))]])
        for i, t in enumerate(t_grid):
            E = expm(big * t)
            for row, law in enumerate(p0):
                start = np.zeros(size)
                start[:M] = law
                exact_int = (start @ E[:size, size:]).reshape(k_max + 2, M)[:-1]
                exact_pt = (start @ E[:size, :size]).reshape(k_max + 2, M)[:-1]
                assert np.abs(occupation[row, i, :k_max + 1] - exact_int).max() <= 1e-13
                assert np.abs(point[row, i, :k_max + 1] - exact_pt).max() <= 1e-13
                assert occupation[row, i].sum() == pytest.approx(t, rel=1e-13)

    def test_skeleton_length_and_weights(self):
        # K is the last count whose occupation time per unit time reaches
        # POISSON_TAIL; past it every weight is zero
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        rate, trans = _pair_chain(walk)
        cps = np.array([1.0, 10.0, 40.0])
        weights, K = _skeleton_weights(rate, trans, np.eye(4), cps, integrated=True)
        full = jump_count_law(rate, trans, np.eye(4), cps, integrated=True)
        for k, w, cut in zip(K, full, weights):
            assert (w[:, k] / cps[:, None] >= POISSON_TAIL).any()
            assert (w[:, k + 1:] / cps[:, None, None] < POISSON_TAIL).all()
            assert np.array_equal(cut[:, :k + 1], w[:, :k + 1])
            assert not cut[:, k + 1:].any()
        # at most Lambda t + 10 sqrt(Lambda t) steps, Lambda = 6
        assert K.max() <= 240 + 10 * np.sqrt(240)

    def test_converged_h_hat_adds_estimate_stderr(self, z3_critical):
        rep = estimate_H(z3_critical, [(0, 0, 0), (1, 0, 0)], T=100.0, replicas=2000,
                         rng=np.random.default_rng(48))
        assert rep.converged
        assert rep.H_hat == max(v["estimate"] + 3 * v["estimate_stderr"]
                                for v in rep.per_start.values())


class TestVarianceReduction:
    """Orbit-averaged integrands and the two-term tail fit."""

    @pytest.mark.parametrize("stencil, u, size", [
        (nearest_stencil(3), (1, 0, 0), 6),
        (nearest_stencil(3), (1, 1, 0), 12),
        (nearest_stencil(3), (1, 2, 3), 48),
        # each axis its own rate: reflections only
        ({(1, 0, 0): 0.1, (-1, 0, 0): 0.1, (0, 1, 0): 0.15, (0, -1, 0): 0.15,
          (0, 0, 1): 0.25, (0, 0, -1): 0.25}, (1, 2, 0), 4),
        # a drift: no reflection or transposition keeps the law
        ({(1, 0, 0): 0.5, (0, 2, 0): 0.3, (0, 0, -1): 0.2}, (1, 2, 3), 1),
    ])
    def test_orbit_sizes(self, stencil, u, size):
        steps = np.array(list(stencil), dtype=np.int64)
        probs = np.array(list(stencil.values()))
        orbit = _orbit(u, _symmetry_generators(steps, probs))
        assert len(orbit) == size
        assert _lattice_code(np.array([u]))[0] in orbit

    def test_orbit_equivalent_marked_starts_equal(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        starts = [((1, 0, 0), 0, 1), ((0, 1, 0), 0, 1)]
        rep = estimate_H(tm, starts, T=20.0, replicas=300,
                         rng=np.random.default_rng(36))
        assert rep.per_start[starts[0]] == rep.per_start[starts[1]]

    def test_limit_stderr_matches_spread_over_seeds(self, z3_critical):
        # the fitted A's reported SE against its spread over 40 seeds: the
        # sample SD of 40 draws is within 30% of the truth at about 2.7 SD
        walk = lattice_walk(z3_critical)
        fits, ses = [], []
        for seed in range(40):
            [curve] = pair_integral_curves(walk, [(2, 0, 0)], 0, 0, 20.0, 400,
                                           np.random.default_rng(seed))
            fits.append(_tail_fit(curve[0], 3)[0] @ curve[1].mean(axis=1))
            ses.append(pair_limit(*curve, 3).limit_stderr)
        assert 0.7 <= np.std(fits, ddof=1) / np.mean(ses) <= 1.3

    def test_tail_fit_two_terms(self):
        # R(t) = A - c1 t^(-1/2) - c2 t^(-3/2) on Z^3 checkpoints
        cps = np.geomspace(0.5, 200.0, 22)
        A, c1, c2 = 0.2581930296, 0.31, 0.47
        curve = A - c1 * cps ** -0.5 - c2 * cps ** -1.5
        assert abs(_tail_fit(cps, 3) @ curve - [A, c1, c2]).max() <= 1e-12
        # the one-term fit A - c t^(-1/2) is biased by the next term
        last = cps >= cps[-1] / 10.0
        X = np.column_stack([np.ones(last.sum()), -cps[last] ** -0.5])
        one_term = np.linalg.lstsq(X, curve[last], rcond=None)[0][0]
        assert abs(one_term - A) > 1e-4


class TestHeatBound:
    def test_small_t_limit(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        rng = np.random.default_rng(15)
        rep = heat_bound_check(tm, [1e-6], ((0, 0, 0), "A"), (1, 0, 0),
                               replicas=4000, rng=rng)
        # no jumps yet: estimate = kappa * alpha(xi0 - xi1)
        walk = lattice_walk(tm)
        expect = rep["kappa"] * alpha_of(walk, np.array([[-1, 0, 0]]))[0]
        assert rep["estimate"][0] == pytest.approx(expect, rel=1e-6)

    def test_z3_flat(self, z3_critical):
        # the 1/t transient has died out by the [20, 200] decade
        rng = np.random.default_rng(16)
        grid = np.geomspace(2.0, 200.0, 12)
        rep = heat_bound_check(z3_critical, grid, (0, 0, 0), (1, 0, 0),
                               replicas=150000, rng=rng)
        assert rep["flat"]
        # scaled estimate near the local-CLT constant (3 / 2 pi)^{3/2}
        C = (3 / (2 * np.pi)) ** 1.5
        assert abs(rep["scaled"][-1] - C) <= 5 * rep["scaled_stderr"][-1]

    def test_compound_poisson_oracle(self):
        # one-point mark space, d = 1: E alpha(xi(t) - xi1) equals the
        # truncated compound-Poisson sum over jump counts,
        # sum_n e^{-t} t^n / n! * alpha^{*n}(xi1 - xi0)
        from math import factorial
        space, model = lattice_model(1)
        tm, _, _ = calibrate(model, space)
        rng = np.random.default_rng(17)
        t = 2.5
        rep = heat_bound_check(tm, [t], (0,), (1,), replicas=200000, rng=rng)
        base = np.array([0.5, 0.0, 0.5])
        # E alpha(xi(t) - 1) = sum_n P(n jumps) (alpha^{*n} * alpha)(1)
        #                    = sum_n P(n jumps) alpha^{*(n+1)}(1)
        cur = base.copy()
        probe = 0.0
        for n in range(0, 51):
            centre = len(cur) // 2
            val = cur[centre + 1]
            probe += np.exp(-t) * t ** n / factorial(n) * val
            cur = np.convolve(cur, base)
        se = rep["stderr"][0]
        assert abs(rep["estimate"][0] - rep["kappa"] * probe) <= 3.5 * se

    def test_drifting_stencil_bounded(self):
        # the scaled curve of a drifting walk decays, so its last-decade slope
        # drifts down: below -3 SE at 40000 replicas, yet bounded
        space, model = drift_model()
        tm, _, _ = calibrate(model, space)
        for seed in (1, 2, 3):
            rep = heat_bound_check(tm, np.geomspace(1.0, 100.0, 12), (0, 0, 0), (0, 0, 0),
                                   replicas=40000, rng=np.random.default_rng(seed))
            assert rep["drift_last_decade"] < -3 * rep["drift_stderr"]
            assert rep["bounded"] and not rep["flat"]

    def test_growing_curve_not_bounded(self, z3_critical, monkeypatch):
        # weights inflated by sqrt(n) make the scaled curve grow like t^{1/2}:
        # its last-decade slope rises by about 7 SE at 40000 replicas
        heat_terms = walkers._heat_terms

        def inflated(*args):
            walk, start, kappa, point, K = heat_terms(*args)
            return walk, start, kappa, point * np.sqrt(np.arange(point.shape[1])), K

        monkeypatch.setattr(walkers, "_heat_terms", inflated)
        rep = heat_bound_check(z3_critical, np.geomspace(1.0, 100.0, 12), (0, 0, 0),
                               (1, 0, 0), replicas=40000, rng=np.random.default_rng(2705))
        growth = np.polyfit(np.log(rep["t"][-4:]), np.log(rep["scaled"][-4:]), 1)[0]
        assert growth == pytest.approx(0.5, abs=0.1)
        assert not rep["flat"] and not rep["bounded"]

    @pytest.mark.parametrize("case", ["z3", "marked z3", "z1"])
    def test_matches_every_step_reference(self, case):
        # a hit is credited only at the grid times whose weight range holds
        # its step, which drops zero terms only: the values equal those of a
        # loop that credits every grid time at every step, from the same draws
        if case == "z3":
            (space, model), x0 = lattice_model(3), (0, 0, 0)
        elif case == "marked z3":
            (space, model), x0 = marked_model(v=[1.0, 3.0], d=3), ((0, 0, 0), "A")
        else:
            (space, model), x0 = lattice_model(1), (0,)
        tm, _, _ = calibrate(model, space)
        xi1 = (1,) + (0,) * (space.dim - 1)
        grid = np.geomspace(1.0, 100.0, 12)
        rep = heat_bound_check(tm, grid, x0, xi1, replicas=2000,
                               rng=np.random.default_rng(23))
        vals = heat_bound_values(tm, grid, x0, xi1, 2000, np.random.default_rng(23))
        assert np.array_equal(rep["estimate"], vals.mean(axis=1))
        assert np.array_equal(rep["stderr"], vals.std(axis=1, ddof=1) / np.sqrt(2000))


def _stationary_jump_rate(walk):
    """The mean jump rate of the walker's marks in their stationary law: the
    embedded chain's stationary mu, weighted by the mean holding times."""
    vals, vecs = np.linalg.eig(walk.mark_trans.T)
    mu = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return 1.0 / np.sum(mu / mu.sum() / walk.v)


class TestExactHeatBound:
    def test_z1_bessel_closed_form(self, z1_critical):
        # a rate-v walk on Z: E alpha(xi(t)) = |alpha| P(X_t = 1) = |alpha| e^{-vt} I_1(vt)
        from scipy import special
        grid = np.geomspace(1e-3, 100.0, 15)
        rep = heat_bound_exact(z1_critical, grid, (0,), (0,))
        walk = lattice_walk(z1_critical)
        closed = rep["kappa"] * walk.support_alpha.sum() * special.ive(1, walk.v[0] * grid)
        np.testing.assert_allclose(rep["estimate"], closed, rtol=1e-12, atol=0.0)
        assert not rep["stderr"].any() and rep["drift_stderr"] == 0.0
        assert rep["flat"]

    @pytest.mark.parametrize("marked, x0", [(False, (0, 0, 0)), (True, ((0, 0, 0), "A")),
                                            (True, ((0, 0, 0), "B"))])
    def test_scaled_curve_nears_local_clt_limit(self, marked, x0):
        # N_t ~ lambda t at the marks' stationary jump rate lambda, and
        # P(S_{n+1} = 0) + P(S_n = 0) ~ 2 (d / 2 pi n)^{d/2}, so t^{3/2} times
        # the bound nears kappa |alpha| (2 pi lambda / 3)^{-3/2}
        space, model = marked_model(v=[1.0, 3.0], d=3) if marked else lattice_model(3)
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        rep = heat_bound_exact(tm, np.geomspace(1.0, 300.0, 11), x0, (0, 0, 0))
        limit = (rep["kappa"] * walk.support_alpha.sum()
                 * (2 * np.pi * _stationary_jump_rate(walk) / 3) ** -1.5)
        error = np.abs(rep["scaled"] / limit - 1.0)
        assert (np.diff(error) < 0).all()
        assert error[-1] < 5e-3
        assert rep["flat"]

    def test_marked_z3_within_monte_carlo_error(self):
        # the exact curve lies within a Bonferroni z-limit of the Monte Carlo
        # estimate at every grid time
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0], d=3)
        tm, _, _ = calibrate(model, space)
        grid = np.geomspace(1.0, 100.0, 12)
        x0 = ((0, 0, 0), "A")
        exact = heat_bound_exact(tm, grid, x0, (0, 0, 0))
        mc = heat_bound_check(tm, grid, x0, (0, 0, 0), replicas=20000,
                              rng=np.random.default_rng(2601))
        z = stats.norm.isf(1e-3 / (2 * len(grid)))
        assert np.all(np.abs(exact["estimate"] - mc["estimate"]) <= z * mc["stderr"])
        assert exact["kappa"] == mc["kappa"]

    def test_growing_curve_not_flat(self, z3_critical, monkeypatch):
        # a point law inflated by sqrt(n) makes the scaled curve grow like
        # t^{1/2}: its last-decade slope drifts by far more than HEAT_FLAT_RTOL
        point_law = walkers._point_law
        monkeypatch.setattr(walkers, "_point_law",
                            lambda x, n_max: point_law(x, n_max) * np.sqrt(np.arange(n_max + 1)))
        rep = heat_bound_exact(z3_critical, np.geomspace(1.0, 100.0, 12), (0, 0, 0),
                               (0, 0, 0))
        growth = np.polyfit(np.log(rep["t"][-4:]), np.log(rep["scaled"][-4:]), 1)[0]
        assert growth == pytest.approx(0.5, abs=0.05)
        assert not rep["flat"] and not rep["bounded"]

    def test_other_stencil_rejected(self):
        space = build_space({"type": "lattice", "d": 1, "R": 1, "boundary": "unbounded"})
        model = RateModel(birth=Kernel("stencil", stencil={(-1,): 0.3, (1,): 0.7}),
                          death=np.ones(space.size))
        tm, _, _ = calibrate(model, space)
        with pytest.raises(ModelError, match="nearest-neighbour"):
            heat_bound_exact(tm, [1.0, 2.0], (0,), (0,))


class TestPointLaw:
    @pytest.mark.parametrize("d, n_max", [(1, 64), (2, 40), (3, 20), (4, 8)])
    def test_matches_convolution_window(self, d, n_max):
        # the point law at every cell of the recursion's full window, read
        # once per orbit of the axis reflections and permutations
        _, last = iterated_convolution(nearest_stencil(d), d, n_max)
        cells = np.abs(np.indices(last.shape).reshape(d, -1).T - n_max)
        orbits, which = np.unique(np.sort(cells, axis=1), axis=0, return_inverse=True)
        law = np.array([_point_law(u, n_max)[n_max] for u in orbits])
        np.testing.assert_allclose(law[which.ravel()], last.ravel(), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d, n_max", [(1, 64), (2, 64), (3, 64), (4, 24)])
    def test_sups_match_recursion(self, d, n_max):
        # the sup of alpha^{*n} lies at some (1^j, 0^{d-j}) at every n
        with metrics.recording() as rec:
            rep = convolution_bound_check(nearest_stencil(d), d, n_max)
        assert rep["exact"]
        assert "convolution.cells" not in rec["counters"]
        assert rec["counters"]["walkers.point_law_terms"] == (
            (d + 1) * (n_max + 1) * (1 + (d - 1) * (n_max + 1)))
        sups, _, _ = _convolution(nearest_stencil(d), d, n_max)
        np.testing.assert_allclose(rep["sup"], sups, rtol=1e-12, atol=0.0)

    def test_small_laws(self):
        # P(S_n = 0) on Z^2 is C(n, n/2)^2 / 4^n
        from math import comb
        law = _point_law((0, 0), 20)
        exact = [comb(n, n // 2) ** 2 / 4 ** n if n % 2 == 0 else 0.0 for n in range(21)]
        np.testing.assert_allclose(law, exact, rtol=1e-12, atol=0.0)
        assert _point_law((2, -1, 0), 2).tolist() == [0.0, 0.0, 0.0]

    def test_blocks_do_not_change_the_law(self, monkeypatch):
        whole = _point_law((3, 1, 2), 90)
        monkeypatch.setattr(walkers, "_POINT_BLOCK", 500)
        assert np.array_equal(_point_law((3, 1, 2), 90), whole)

    @pytest.mark.parametrize("stencil, expected", [
        (nearest_stencil(3), True),
        (nearest_stencil(2, mass=0.9), True),                 # any equal weight
        ({**nearest_stencil(2), (0, 0): 0.0}, True),          # a zero entry is off the support
        ({**nearest_stencil(2), (0, 0): 0.1}, False),
        ({(-1, 0): 0.25, (1, 0): float(np.nextafter(0.25, 1.0)), (0, -1): 0.25,
          (0, 1): 0.25}, False),                               # one ulp off equal
        ({(-1,): 0.5, (2,): 0.5}, False),
        ({(1, 0): 0.5, (-1, 0): 0.5}, False),                 # axis 2 missing
        ({(1, 1): 0.25, (-1, -1): 0.25, (1, -1): 0.25, (-1, 1): 0.25}, False),
    ])
    def test_nearest_neighbour_predicate(self, stencil, expected):
        d = len(next(iter(stencil)))
        steps = np.array(list(stencil)).reshape(len(stencil), d)
        assert _nearest_neighbour(steps, np.array(list(stencil.values()))) is expected

    def test_other_stencils_run_the_recursion(self):
        st = {(-1,): 0.2, (0,): 0.5, (2,): 0.3}
        with metrics.recording() as rec:
            rep = convolution_bound_check(st, 1, 12)
        assert not rep["exact"] and rec["counters"]["convolution.cells"] > 0
        assert "walkers.point_law_terms" not in rec["counters"]


class TestConvolution:
    def test_identity_n1(self):
        sups, _ = iterated_convolution(nearest_stencil(3), 3, 1)
        assert sups[0] == pytest.approx(1 / 6)

    def test_alpha2_at_zero(self):
        _, last = iterated_convolution(nearest_stencil(3), 3, 2)
        centre = tuple(s // 2 for s in last.shape)
        assert last[centre] == pytest.approx(1 / 6, abs=1e-12)

    def test_bounded_to_64(self):
        rep = convolution_bound_check(nearest_stencil(3), 3, 64)
        assert rep["bounded"]
        assert rep["max_over_median"] <= 2.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ModelError):
            iterated_convolution({(0,): 0.7}, 1, 4)

    def test_z1_binomial(self):
        # alpha^{*n}(x) = C(n, (n + x) / 2) / 2^n for n + x even
        from math import comb
        n_max = 40
        sups, last = iterated_convolution({(-1,): 0.5, (1,): 0.5}, 1, n_max)
        x = np.arange(-n_max, n_max + 1)
        exact = np.array([comb(n_max, (n_max + c) // 2) / 2 ** n_max
                          if (n_max + c) % 2 == 0 else 0.0 for c in x])
        assert np.allclose(last, exact, rtol=1e-12, atol=0.0)
        n = np.arange(1, n_max + 1)
        assert np.allclose(sups, [comb(k, k // 2) / 2 ** k for k in n],
                           rtol=1e-12, atol=0.0)

    def test_asymmetric_lazy_stencil(self):
        st = {(-1,): 0.2, (0,): 0.5, (2,): 0.3}
        base = np.array([0.0, 0.2, 0.5, 0.0, 0.3])      # offsets -2..2
        cur = base
        sups, last = iterated_convolution(st, 1, 12)
        for n in range(2, 13):
            cur = np.convolve(cur, base)
            assert sups[n - 1] == pytest.approx(cur.max(), rel=1e-13)
        assert np.abs(last - cur).max() <= 1e-15

    def test_z3_matches_fft(self):
        from scipy import signal

        def fft_convolution(stencil, d, n_max):
            base = np.zeros((3,) * d)
            for k, v in stencil.items():
                base[tuple(np.asarray(k) + 1)] = v
            cur, sups = base.copy(), [base.max()]
            for _ in range(2, n_max + 1):
                cur = np.clip(signal.fftconvolve(cur, base, mode="full"), 0.0, None)
                sups.append(cur.max())
            return np.array(sups), cur

        sups, last = iterated_convolution(nearest_stencil(3), 3, 24)
        ref_sups, ref_last = fft_convolution(nearest_stencil(3), 3, 24)
        assert last.shape == ref_last.shape
        assert np.abs(sups / ref_sups - 1.0).max() <= 1e-12
        assert np.abs(last - ref_last).max() <= 1e-12 * ref_last.max()


def _direct_convolution(stencil, d, n_max):
    """sup alpha^{*n} for n = 1..n_max and alpha^{*n_max} on the full box, by
    repeated direct convolution of the dense base array."""
    K = max(max(abs(c) for c in k) for k in stencil)
    base = np.zeros((2 * K + 1,) * d)
    for k, v in stencil.items():
        base[tuple(np.asarray(k) + K)] = v
    cur, sups = base, [base.max()]
    for _ in range(2, n_max + 1):
        cur = signal.convolve(cur, base, mode="full", method="direct")
        sups.append(cur.max())
    return np.array(sups), cur


class TestHalfBoxConvolution:
    """The recursion runs on x_i >= 0 of each reflection-symmetric axis and
    matches a full-box direct convolution."""

    @pytest.mark.parametrize("stencil, d, n_max, symmetric", [
        # symmetric in x only
        ({(-1, 0): 0.2, (1, 0): 0.2, (0, 1): 0.25, (0, -1): 0.15, (0, 0): 0.1,
          (1, 1): 0.05, (-1, 1): 0.05}, 2, 24, (True, False)),
        # K = 2, symmetric in both axes: two reflected layers are read
        ({(-2, 0): 0.1, (2, 0): 0.1, (0, -2): 0.15, (0, 2): 0.15, (1, 1): 0.05,
          (-1, 1): 0.05, (1, -1): 0.05, (-1, -1): 0.05, (0, 0): 0.3}, 2, 20, (True, True)),
        # no symmetric axis
        ({(1, 0, 0): 0.3, (0, 1, 0): 0.2, (0, 0, -1): 0.25, (-1, -1, 0): 0.15,
          (0, 0, 2): 0.1}, 3, 12, (False, False, False)),
        # the mirror of (1, 0) is 1 ulp off: x is not symmetric, y is
        ({(-1, 0): 0.25, (1, 0): float(np.nextafter(0.25, 1.0)), (0, -1): 0.25,
          (0, 1): 0.25}, 2, 24, (False, True)),
    ])
    def test_matches_direct_convolution(self, stencil, d, n_max, symmetric):
        with metrics.recording() as rec:
            sups, last = iterated_convolution(stencil, d, n_max)
        ref_sups, ref_last = _direct_convolution(stencil, d, n_max)
        # the half box: n K + 1 cells on a symmetric axis, 2 n K + 1 elsewhere
        K = max(max(abs(c) for c in k) for k in stencil)
        assert rec["counters"] == {
            "convolution.symmetric_axes": sum(symmetric),
            "convolution.cells": sum(np.prod([n * K + 1 if s else 2 * n * K + 1
                                              for s in symmetric])
                                     for n in range(2, n_max + 1))}
        np.testing.assert_allclose(sups, ref_sups, rtol=1e-13, atol=0.0)
        assert last.shape == ref_last.shape
        assert np.abs(last - ref_last).max() <= 1e-15 * ref_last.max()
        # the bound check reads the same recursion
        assert np.array_equal(convolution_bound_check(stencil, d, n_max)["sup"], sups)

    @pytest.mark.parametrize("stencil", [
        {(-1,): 0.5, (1,): 0.5 + 9e-10},                    # asymmetric
        {(-1,): 0.5 + 4.5e-10, (1,): 0.5 + 4.5e-10},        # symmetric
    ])
    def test_mass_leakage_rejected(self, stencil):
        # within MASS_TOL of 1 at n = 1, about twice as far off at n = 2
        with pytest.raises(ModelError, match="leakage"):
            convolution_bound_check(stencil, 1, 4)

    def test_unnormalized_symmetric_rejected(self):
        with pytest.raises(ModelError, match="normalized"):
            convolution_bound_check(nearest_stencil(2, mass=0.9), 2, 4)


def _generator_cdf(v, trans, p0, t, k_max):
    """``P(N_t <= k)`` for k = 0..k_max from the matrix exponential of the
    generator of (count, mark), with counts above k_max absorbed in one level."""
    from scipy.linalg import expm
    M = len(v)
    G = np.zeros(((k_max + 2) * M,) * 2)
    for c in range(k_max + 1):
        for s in range(M):
            G[c * M + s, c * M + s] = -v[s]
            G[c * M + s, (c + 1) * M:(c + 2) * M] += v[s] * trans[s]
    p = np.zeros(len(G))
    p[:M] = p0 / np.sum(p0)
    return np.cumsum((p @ expm(G * t)).reshape(k_max + 2, M).sum(axis=1))[:-1]


class TestJumpCountLaw:
    def test_one_mark_is_poisson(self):
        t = np.array([0.0, 0.3, 2.0, 17.5, 50.0])
        cdf = jump_count_cdf(np.array([2.0]), np.ones((1, 1)), np.ones(1), t, 150)
        exact = stats.poisson.cdf(np.arange(151), 2.0 * t[:, None])
        assert np.abs(cdf - exact).max() <= 1e-14

    def test_matches_generator_expm(self):
        # a chain with self-jumps and an unequal start law
        v = np.array([0.7, 2.0, 3.5])
        trans = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]])
        p0 = np.array([0.5, 0.2, 0.3])
        t_grid = [0.1, 1.0, 4.0, 9.0]
        cdf = jump_count_cdf(v, trans, p0, t_grid, 12)
        for row, t in zip(cdf, t_grid):
            assert np.abs(row - _generator_cdf(v, trans, p0, t, 12)).max() <= 1e-13

    def test_oversized_law_rejected(self, monkeypatch):
        # 4 start laws on 4 marks to 3 jumps at one time: a law of 64
        # entries is the cap itself (its 32-entry Poisson table is under it),
        # and a fifth mark takes it over before anything is allocated
        monkeypatch.setattr(walkers, "LAW_CAP", 64)
        for M, ok in [(4, True), (5, False)]:
            args = (np.ones(M), np.full((M, M), 1.0 / M), np.eye(M)[:4], [1e-3])
            if ok:
                assert jump_count_law(*args, k_max=3).shape == (4, 1, 4, M)
            else:
                with pytest.raises(ModelError, match="on 5 marks to 3 jumps need 80 entries, "
                                   "over LAW_CAP = 64"):
                    jump_count_law(*args, k_max=3)

    def test_terms_counted(self):
        # a Poisson(40) tail below POISSON_TAIL takes about 40 + 13 sqrt(40) terms
        with metrics.recording() as rec:
            jump_count_cdf(np.array([1.0, 4.0]), np.full((2, 2), 0.5), np.ones(2),
                           [2.5, 10.0], 5)
        terms = rec["counters"]["walkers.weight_terms"]
        assert 40 + 5 * np.sqrt(40) <= terms <= 40 + 20 * np.sqrt(40)


class TestPoissonDomination:
    def test_homogeneous_equality(self):
        nu, trans = np.array([1.0]), np.array([[1.0]])
        t_grid, k_grid = [0.5, 1.0, 2.0], [0, 1, 2, 4]
        rep = poisson_domination_check(np.array([2.0]), trans, nu, 2.0, t_grid=t_grid,
                                       k_grid=k_grid)
        assert rep["passed"]
        # one mark at rate lambda0 is the Poisson process itself
        assert np.array_equal(rep["chain_cdf"], rep["poisson_cdf"])
        assert np.abs(rep["poisson_cdf"] - stats.poisson.cdf(
            k_grid, 2.0 * np.asarray(t_grid)[:, None])).max() <= 1e-14
        # the Monte Carlo counts sit within 3 SE above and 4 SE below it
        counts = mark_chain_jump_counts(np.array([2.0]), trans, nu,
                                        t_grid, 20000, np.random.default_rng(18))
        mc, se = empirical_cdf(counts, k_grid)
        assert np.all(mc <= rep["chain_cdf"] + 3 * se)
        assert np.all(mc >= rep["chain_cdf"] - 4 * se)

    def test_state_dependent_dominated(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0])
        tm, _, _ = calibrate(model, space)
        trans = theta_kernel(tm)
        t_grid, k_grid = [0.5, 1, 2, 4], [0, 1, 2, 3, 5, 8]
        rep = poisson_domination_check(tm.v, trans, tm.nu, 1.0, t_grid=t_grid,
                                       k_grid=k_grid)
        assert rep["passed"]
        assert rep["max_excess"] <= rep["tolerance"] == DOMINATION_TOL
        # strictly below the Poisson CDF wherever it is not rounding-small
        assert np.all(rep["chain_cdf"] < rep["poisson_cdf"])
        counts = mark_chain_jump_counts(tm.v, trans, tm.nu, t_grid, 20000,
                                        np.random.default_rng(19))
        mc, se = empirical_cdf(counts, k_grid)
        assert np.all(np.abs(mc - rep["chain_cdf"]) <= 3 * se)

    def test_lambda0_above_min_rejected(self):
        with pytest.raises(ModelError):
            poisson_domination_check(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                                     2.0, [1.0], [1])

    def test_jump_count_identity(self):
        # the jump counts of the mark chain and of the full marked walker both
        # have the exact law's mean
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1.0, 3.0])
        tm, _, _ = calibrate(model, space)
        walk = lattice_walk(tm)
        rng = np.random.default_rng(20)
        t_grid = np.array([1.0, 2.0])
        p0 = np.array([1.0, 0.0])
        # E N_t = sum_k P(N_t > k); N_2 exceeds 60 with probability below 1e-30
        exact = (1.0 - jump_count_cdf(walk.v, walk.mark_trans, p0, t_grid, 60)).sum(axis=1)
        counts = mark_chain_jump_counts(walk.v, walk.mark_trans, tm.nu,
                                        t_grid, 20000, rng, s0=0)
        # direct path simulation of the full process
        full = np.zeros((4000, len(t_grid)), dtype=int)
        for i in range(4000):
            path = simulate_jump(tm, ((0,), "A"), float(t_grid[-1]), rng, walk)
            for j, t in enumerate(t_grid):
                full[i, j] = int(np.searchsorted(path.times, t,
                                                 side="right")) - 1
        for sample in (counts, full):
            se = sample.std(axis=0, ddof=1) / np.sqrt(len(sample))
            assert np.all(np.abs(sample.mean(axis=0) - exact) <= 3.5 * se)


class TestLowerTail:
    def test_B_constant(self):
        assert LOWER_TAIL_B == pytest.approx((1 - np.log(2)) / 2)

    def test_exact_value_lam1_t10(self):
        rep = lower_tail_bound_check(1.0, [10.0])
        assert rep["exact_cdf"][0] == pytest.approx(
            stats.poisson.cdf(5, 10.0), abs=1e-14)
        assert rep["passed"]

    def test_grid_lam2(self):
        rep = lower_tail_bound_check(2.0, np.arange(1, 51, dtype=float))
        assert rep["passed"]
        assert rep["max_ratio"] < 1.0

    def test_early_grid_rejected(self):
        with pytest.raises(ModelError):
            lower_tail_bound_check(1.0, [0.5, 5.0])
