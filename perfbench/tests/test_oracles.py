"""The benchmark's exact oracles against closed forms and brute-force solves."""

import itertools

import numpy as np
import pytest

from perfbench import oracles


def test_green_z3_origin_is_watson_constant():
    assert abs(oracles.lattice_green_z3((0, 0, 0)) - 1.516386059151978) <= 1e-9


def test_green_z3_is_harmonic_off_the_origin():
    # G(0) = 1 + G(e1) (one unit of holding time, then a neighbour) and
    # G(e1) is the mean of G over the six neighbours of e1
    g = oracles.lattice_green_z3
    assert abs(g((0, 0, 0)) - 1.0 - g((1, 0, 0))) <= 1e-9
    neighbours = [(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]
    assert abs(g((1, 0, 0)) - np.mean([g(x) for x in neighbours])) <= 1e-9


def test_pair_transience_z3_values():
    half_w = (oracles.WATSON_Z3 - 1.0) / 2.0
    assert abs(oracles.pair_transience_z3((0, 0, 0)) - half_w) <= 1e-9
    assert abs(oracles.pair_transience_z3((1, 0, 0)) - half_w) <= 1e-9
    assert abs(oracles.pair_transience_z3((2, 0, 0)) - 0.1286679436) <= 1e-9


def test_pair_transience_z3_at_a_finite_horizon():
    # the missing tail is (1/2) int_{2T}^inf p_s(e) ds ~ (3 / (2 pi))^{3/2} / sqrt(2T)
    for T in (200.0, 800.0):
        gap = oracles.pair_transience_z3((0, 0, 0)) - oracles.pair_transience_z3((0, 0, 0), T)
        assert abs(gap - (1.5 / np.pi) ** 1.5 / np.sqrt(2 * T)) <= 1e-4
    assert oracles.pair_transience_z3((2, 0, 0), 200.0) < oracles.pair_transience_z3((2, 0, 0))


def _two_point(rho, t):
    """k2 of b = [[0, 1], [1, 0]], mbar = 1, V = 1 (G has eigenvalues 0, -2)."""
    e = rho * (1.0 - np.exp(-4.0 * t)) / 4.0
    base = rho ** 2 + rho * t
    return np.array([[base - e, base + e], [base + e, base - e]])


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_moments_expm_two_point_closed_form(t):
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    k1, k2 = oracles.moments_expm(B - np.eye(2), B, 0.4, t)
    assert np.allclose(k1, 0.4, atol=1e-13)
    assert np.abs(k2 - _two_point(0.4, t)).max() <= 1e-12


def _leaky_symmetric(size, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((size, size))
    A = A + A.T
    return A - np.diag(A.sum(axis=1) + 0.3), A


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_moments_spectral_matches_expm(t):
    G, B = _leaky_symmetric(5, 0)
    k1e, k2e = oracles.moments_expm(G, B, 0.7, t)
    k1s, k2s = oracles.moments_spectral(G, B, 0.7, t)
    assert np.abs(k1e - k1s).max() <= 1e-12
    assert np.abs(k2e - k2s).max() <= 1e-12


def test_stationary_solves_match_kronecker_sum_at_four_points():
    G, B = _leaky_symmetric(4, 1)
    rho = 0.3
    f2 = np.zeros((4, 4))
    for x1, x2 in itertools.product(range(4), repeat=2):
        f2[x1, x2] = rho * B[x1, x2] + rho * B[x2, x1]
    k2 = np.linalg.solve(oracles.kron_sum(G, 2), -f2.ravel()).reshape(4, 4) + rho ** 2
    f3 = np.zeros((4, 4, 4))
    for x in itertools.product(range(4), repeat=3):
        for i in range(3):
            rest = tuple(x[m] for m in range(3) if m != i)
            for j in range(3):
                if j != i:
                    f3[x] += k2[rest] * B[x[i], x[j]]
    k3 = np.linalg.solve(oracles.kron_sum(G, 3), -f3.ravel()).reshape(4, 4, 4) + rho ** 3

    assert np.abs(oracles.source_k3(B, k2) - f3).max() <= 1e-13
    assert np.abs(oracles.stationary_k2_sylvester(G, B, rho) - k2).max() <= 1e-12
    k2e, k3e = oracles.stationary_k3_eigen(G, B, rho)
    assert np.abs(k2e - k2).max() <= 1e-12
    assert np.abs(k3e - k3).max() <= 1e-12


def test_critical_dense_balances_births_and_deaths():
    rng = np.random.default_rng(3)
    A = rng.random((5, 5)) + 0.2
    w = rng.random(5) + 0.5
    V = rng.random(5) + 0.5
    G, B, mbar, psi, r = oracles.critical_dense(A, w, V)
    assert psi.max() == 1.0 and psi.min() > 0
    assert np.abs(G @ np.ones(5)).max() <= 1e-12      # sum_y b mbar = V
    assert np.allclose(B * psi[:, None] * r, A)


def test_window_kernels():
    nearest3 = {s: 1.0 / 6 for s in [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                     (0, -1, 0), (0, 0, 1), (0, 0, -1)]}
    A = oracles.window_kernel(3, 3, nearest3)
    # 6 neighbours per point, less one per face point per face (6 * 49)
    assert A.shape == (343, 343) and np.count_nonzero(A) == 6 * 343 - 6 * 49
    assert np.allclose(A, A.T) and A.sum(axis=1).max() == pytest.approx(1.0)
    assert np.count_nonzero(oracles.window_kernel(3, 3, nearest3, periodic=True)) == 6 * 343
    ring = oracles.window_kernel(1, 2, {(1,): 0.5, (-1,): 0.5}, periodic=True)
    assert np.allclose(ring.sum(axis=1), 1.0)
