"""Acceptance suite: end-to-end criteria at their stated tolerances.

Each test prints a single ``ACCEPTANCE n: PASS`` line with the measured
quantities once its assertions hold.  Monte Carlo criteria are seeded so the
suite is deterministic.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (lattice_model, marked_model, nearest_stencil,
                      random_finite_model)
from reference import (apply_Lhat, empirical_cdf, iterated_convolution,
                       jump_criticality_residual, mark_chain_jump_counts, semigroup_apply)
from contactlab.cli import main as cli_main
from contactlab.criticality import (TransformedModel, calibrate,
                                    ground_transform,
                                    solve_ground_state, theta_kernel)
from contactlab.hierarchy import (bound_constant_D, evolve_hierarchy,
                                  factorial_bound_check, generator_matrix,
                                  poisson_initial, source_f,
                                  stationary_pair_mc)
from contactlab.model import Kernel, RateModel, build_space
from contactlab.simulator import empirical_correlations, run_replicas
from contactlab.walkers import (LOWER_TAIL_B, convolution_bound_check,
                                estimate_H, heat_bound_check, lower_tail_bound_check,
                                poisson_domination_check)


def kron_sum_matrix(G, n):
    """Order-n operator built independently as a Kronecker sum."""
    size = G.shape[0]
    I = np.eye(size)
    total = np.zeros((size ** n, size ** n))
    for i in range(n):
        factors = [I] * n
        factors[i] = G
        M = factors[0]
        for f in factors[1:]:
            M = np.kron(M, f)
        total += M
    return total


def periodic_model(d, R):
    space = build_space({"type": "lattice", "d": d, "R": R,
                         "boundary": "periodic"})
    model = RateModel(birth=Kernel("stencil", stencil=nearest_stencil(d)),
                      death=np.ones(space.size))
    return space, model


# ----- shared heavy fixtures (module scope) --------------------------------

@pytest.fixture(scope="module")
def z3tm():
    space, model = lattice_model(3)
    tm, _, _ = calibrate(model, space)
    return tm


@pytest.fixture(scope="module")
def z3_transience(z3tm):
    """Transience reports on Z^3 at horizon T and 2T, 1e5 replicas."""
    starts = [(0, 0, 0), (2, 0, 0)]
    reps = {}
    for T in (150.0, 300.0):
        rng = np.random.default_rng(314)
        reps[T] = estimate_H(z3tm, starts, T=T, replicas=100_000, rng=rng)
    return reps


# the k_2 starts of criteria 7 and 8: 0, e_1 and 2 e_1
K2_STARTS = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]


@pytest.fixture(scope="module")
def z3_mc_long(z3tm):
    """Long-horizon two-walker estimate used as oracle and for convergence."""
    rng = np.random.default_rng(202)
    return stationary_pair_mc(z3tm, rho=0.1, T=4000.0, replicas=20_000,
                              displacements=K2_STARTS, rng=rng)


# ----- criteria -------------------------------------------------------------

def test_criterion_01_calibration():
    # homogeneous nearest-neighbour model: psi = 1, r = 1
    space, model = lattice_model(3)
    tm, gs, report = calibrate(model, space)
    assert np.abs(tm.psi - 1.0).max() <= 1e-10
    assert abs(report["r_after_rescale"] - 1.0) <= 1e-10
    assert report["criticality_residual"] <= 1e-10

    # two-mark model against a dense eigen-solve of the mark kernel
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    v = np.array([1.0, 3.0])
    mspace, mmodel = marked_model(Q=Q, v=v)
    gs_m = solve_ground_state(mmodel, mspace)
    K = Q * mspace.nu[None, :] / v[:, None]          # alpha mass = 1
    w, vecs = np.linalg.eig(K)
    i = int(np.argmax(w.real))
    r_dense = float(w[i].real)
    q_dense = np.abs(vecs[:, i].real)
    q_dense = q_dense * (gs_m.q[0] / q_dense[0])
    assert abs(gs_m.eigenvalue - r_dense) <= 1e-10
    assert np.abs(gs_m.q - q_dense).max() <= 1e-10
    tm_m, _, rep_m = calibrate(mmodel, mspace)
    assert rep_m["criticality_residual"] <= 1e-10
    print(f"ACCEPTANCE 1: PASS - homogeneous residual "
          f"{report['criticality_residual']:.2e}, marked |r - r_dense| = "
          f"{abs(gs_m.eigenvalue - r_dense):.2e}, marked residual "
          f"{rep_m['criticality_residual']:.2e}")


def test_criterion_02_level_one():
    rho = 0.7
    worst_resid = 0.0
    worst_drift = 0.0
    cases = [periodic_model(1, 3), periodic_model(2, 2), periodic_model(3, 1)]
    rng = np.random.default_rng(5)
    cases.append(random_finite_model(rng, size=4))
    for space, model in cases:
        tm, _, _ = calibrate(model, space)
        k1 = np.full(space.size, rho)
        f1 = source_f(1, tm, np.asarray(1.0))
        resid = np.abs(apply_Lhat(1, tm, k1) + f1).max()
        worst_resid = max(worst_resid, float(resid))
        _, traj = evolve_hierarchy(tm, [k1], np.linspace(0.0, 10.0, 201))[1]
        drift = float(np.abs(traj - rho).max())
        worst_drift = max(worst_drift, drift)
    assert worst_resid <= 1e-12
    assert worst_drift <= 1e-10
    print(f"ACCEPTANCE 2: PASS - level-1 residual <= {worst_resid:.2e}, "
          f"evolve drift over [0,10] <= {worst_drift:.2e}")


def test_criterion_03_operator_equivalence():
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(100):
        size = int(rng.integers(2, 4))
        space = build_space({"type": "finite", "points": list(range(size)),
                             "weights": (rng.random(size) + 0.5).tolist()})
        b = rng.random((size, size)) + 0.1
        V = rng.random(size) + 0.3
        tm = TransformedModel(space=space, b=b, mbar=space.weights.copy(),
                              death=V, psi=np.ones(size), reversible=False)
        G = generator_matrix(tm)
        for n in (1, 2, 3):
            k = rng.random((size,) * n)
            out = apply_Lhat(n, tm, k)
            oracle = (kron_sum_matrix(G, n) @ k.ravel()).reshape(k.shape)
            worst = max(worst, float(np.abs(out - oracle).max()))
    assert worst <= 1e-13
    print(f"ACCEPTANCE 3: PASS - 100 random models, n <= 3, "
          f"max deviation {worst:.2e}")


def test_criterion_04_positivity_and_constants():
    rng = np.random.default_rng(44)
    worst_neg = 0.0
    worst_ones = 0.0
    for trial in range(100):
        size = int(rng.integers(2, 5))
        space, model = random_finite_model(rng, size=size)
        tm, _, _ = calibrate(model, space)
        for t in (0.3, 1.0):
            E = expm(t * generator_matrix(tm))
            k = rng.random((size, size))
            out = semigroup_apply(tm, t, k, E=E)
            worst_neg = min(worst_neg, float(out.min()))
            fixed = semigroup_apply(tm, t, np.ones((size, size)), E=E)
            worst_ones = max(worst_ones, float(np.abs(fixed - 1.0).max()))
    assert worst_neg >= -1e-12
    assert worst_ones <= 1e-10
    print(f"ACCEPTANCE 4: PASS - 100 critical models: min entry "
          f"{worst_neg:.2e}, ones deviation {worst_ones:.2e}")


def test_criterion_05_simulator_vs_dense():
    rng = np.random.default_rng(7)
    space, model = random_finite_model(rng, size=4)
    tm, _, _ = calibrate(model, space)
    rho = 0.5
    snaps = [0.5, 1.0, 2.0]
    logs = run_replicas(tm, rho, 2.0, snaps, 100_000, seed=2024)
    traj = evolve_hierarchy(tm, [poisson_initial(n, rho, space) for n in (1, 2)],
                            np.linspace(0.0, 2.0, 41))
    worst_sigma = 0.0
    for t in snaps:
        for n in (1, 2):
            times, tensors = traj[n]
            dense = tensors[int(np.argmin(np.abs(times - t)))]
            est = empirical_correlations(logs, space, t, n, tm.mbar)
            sigmas = np.abs(est.values - dense) / est.stderr
            worst_sigma = max(worst_sigma, float(sigmas.max()))
            assert np.all(np.abs(est.values - dense) <= 3.0 * est.stderr)
    print(f"ACCEPTANCE 5: PASS - k1/k2 at t in {{0.5, 1, 2}} within 3 SE "
          f"of dense evolve (worst {worst_sigma:.2f} SE, 1e5 replicas)")


def test_criterion_06_transience_dichotomy(z3_transience):
    r1, r2 = z3_transience[150.0], z3_transience[300.0]
    assert r1.converged and r2.converged
    assert r2.tail_exponent_fit <= -1.05
    rel = abs(r2.H_hat - r1.H_hat) / r1.H_hat
    assert rel <= 0.05

    space, model = lattice_model(1, R=1)
    tm1, _, _ = calibrate(model, space)
    rep1 = estimate_H(tm1, [(0,)], T=200.0, replicas=100_000,
                      rng=np.random.default_rng(11))
    assert not rep1.converged
    # running integral grows like sqrt(T): fitted growth exponent near 1/2
    assert 0.3 <= rep1.growth_exponent <= 0.8
    print(f"ACCEPTANCE 6: PASS - Z^3 H_hat {r1.H_hat:.4f} -> {r2.H_hat:.4f} "
          f"({100 * rel:.2f}% under doubling T); Z^1 converged = "
          f"{rep1.converged}, growth exponent {rep1.growth_exponent:.2f}")


def test_criterion_07_stationary_k2(z3tm, z3_transience, z3_mc_long):
    rho = 0.1
    mc = stationary_pair_mc(z3tm, rho=rho, T=1000.0, replicas=20_000,
                            displacements=K2_STARTS, rng=np.random.default_rng(101))
    oracle = z3_mc_long            # different seed, 4x horizon
    assert mc.displacements == oracle.displacements
    combined = np.hypot(mc.stderr, oracle.stderr)
    sigmas = np.abs(mc.values - oracle.values) / combined
    assert np.all(sigmas <= 3.0)

    H = z3_transience[300.0].H_hat
    report = factorial_bound_check({1: rho, 2: mc.values.max()}, rho, H)
    assert report["passed"]
    bound = bound_constant_D(rho, H) * H ** 2 * 4.0
    assert mc.values.max() <= bound
    print(f"ACCEPTANCE 7: PASS - k2 within {sigmas.max():.2f} combined SE "
          f"of the independent estimate; sup k2 = {mc.values.max():.4f} <= "
          f"D H^2 (2!)^2 = {bound:.4f} with measured H = {H:.3f}")


def test_criterion_08_convergence(z3tm, z3_mc_long):
    T_grid = np.geomspace(2.0, 4000.0, 12)
    rep = z3_mc_long.convergence(T_grid)
    assert rep["converged"]
    assert rep["distance"][-1] <= rep["threshold"]
    assert rep["distance"][-1] < rep["distance"][0]
    print(f"ACCEPTANCE 8: PASS - distance {rep['distance'][0]:.2e} -> "
          f"{rep['distance'][-1]:.2e} <= 3 SE threshold "
          f"{rep['threshold']:.2e} at T = {T_grid[-1]:.0f}")


def test_criterion_09_lemma_suite(z3tm):
    # (a) convolution bound and the exact two-step return value
    conv = convolution_bound_check(nearest_stencil(3), 3, 64)
    assert conv["bounded"] and conv["max_over_median"] <= 2.0
    _, a2 = iterated_convolution(nearest_stencil(3), 3, 2)
    mid = tuple(s // 2 for s in a2.shape)
    assert abs(a2[mid] - 1.0 / 6.0) <= 1e-12

    # (b) Poisson domination of the mark-chain jump counts on an 8x8 grid:
    # the exact law, cross-checked by 20k Monte Carlo chains within 3 SE
    mspace, mmodel = marked_model(Q=[[2.0, 1.0], [1.0, 2.0]], v=[1.0, 3.0])
    tm_m, _, _ = calibrate(mmodel, mspace)
    trans = theta_kernel(tm_m)
    t_grid, k_grid = np.linspace(0.5, 4.0, 8), np.arange(8)
    dom = poisson_domination_check(tm_m.v, trans, tm_m.nu, lambda0=float(tm_m.v.min()),
                                   t_grid=t_grid, k_grid=k_grid)
    assert dom["passed"]
    counts = mark_chain_jump_counts(tm_m.v, trans, tm_m.nu, t_grid, 20_000,
                                    np.random.default_rng(55))
    mc, se = empirical_cdf(counts, k_grid)
    assert np.all(np.abs(mc - dom["chain_cdf"]) <= 3 * se)

    # (c) heat bound: estimate * t^{3/2} flat over the last decade
    heat = heat_bound_check(z3tm, np.geomspace(2.0, 200.0, 12),
                            x0=(0, 0, 0), xi1=(1, 0, 0), replicas=150_000,
                            rng=np.random.default_rng(66))
    assert heat["flat"]

    # (d) exact lower-tail bound at every grid point
    assert abs(LOWER_TAIL_B - (1.0 - math.log(2.0)) / 2.0) <= 1e-15
    tail = lower_tail_bound_check(2.0, np.arange(1.0, 51.0))
    assert tail["passed"] and tail["max_ratio"] < 1.0
    print(f"ACCEPTANCE 9: PASS - convolution max/median "
          f"{conv['max_over_median']:.2f}, domination excess "
          f"{dom['max_excess']:.2e} (Monte Carlo within "
          f"{np.max(np.abs(mc - dom['chain_cdf']) / se):.2f} SE), heat drift "
          f"{heat['drift_last_decade']:+.3f} "
          f"(3 SE {3 * heat['drift_stderr']:.3f}), lower-tail max ratio "
          f"{tail['max_ratio']:.3f}")


def test_criterion_10_jump_model():
    space = build_space({"type": "lattice", "d": 1, "R": 2,
                         "boundary": "periodic"})
    J = Kernel("stencil", stencil={k: 0.4 * v for k, v
                                   in nearest_stencil(1).items()})
    model = RateModel(birth=Kernel("stencil", stencil=nearest_stencil(1)),
                      death=np.ones(space.size), jump=J)
    gs = solve_ground_state(model, space)
    resid = jump_criticality_residual(model, space, gs)
    assert resid <= 1e-10
    tm = ground_transform(model, space, gs)
    rho = 0.5
    snaps = [0.5, 1.0, 2.0]
    logs = run_replicas(tm, rho, 2.0, snaps, 100_000, seed=91)
    worst = 0.0
    for t in snaps:
        k1 = empirical_correlations(logs, space, t, 1, tm.mbar)
        # k1 proportional to psi: the mbar-convention density equals rho psi / psi
        sigmas = np.abs(k1.values - rho * gs.psi) / k1.stderr
        worst = max(worst, float(sigmas.max()))
        assert np.all(np.abs(k1.values - rho * gs.psi) <= 3.0 * k1.stderr)
    print(f"ACCEPTANCE 10: PASS - jump balance residual {resid:.2e}; "
          f"k1 proportional to psi within 3 SE over [0,2] "
          f"(worst {worst:.2f} SE)")


def test_criterion_11_reproducibility(tmp_path):
    cfg = {"model": {"space": {"type": "finite", "points": [0, 1, 2, 3],
                               "weights": [1.0, 0.8, 1.2, 1.0]},
                     "birth": {"form": "dense",
                               "matrix": [[0.2, 0.9, 0.4, 0.3],
                                          [0.8, 0.1, 0.6, 0.5],
                                          [0.3, 0.7, 0.2, 0.9],
                                          [0.6, 0.4, 0.8, 0.2]]},
                     "death": [1.0, 1.4, 0.9, 1.1]},
           "rho": 0.5, "T": 1.0, "snapshot_times": [0.5, 1.0], "replicas": 200}
    cfgp = tmp_path / "sim.json"
    cfgp.write_text(json.dumps(cfg))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["simulate", "--config", str(cfgp),
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"ACCEPTANCE 11: PASS - byte-identical CSVs across two runs: "
          f"{', '.join(csvs)}")
