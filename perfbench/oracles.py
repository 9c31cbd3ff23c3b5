"""Exact reference values that the benchmark checks contactlab's outputs against.

Everything here is built from the model description alone, with numpy and
scipy, and never calls contactlab:

* the Green's function of the nearest-neighbour walk on Z^3 (Watson 1939),
  which gives the two-walker transience constant H exactly;
* the ground-state calibration of dense and lattice-window models;
* the level-1 and level-2 correlation functions at time t, by the matrix
  exponential of the Kronecker-sum generator augmented with its source, or
  in closed form on the eigenbasis of a symmetric generator;
* the stationary k2 (Sylvester equation) and k3 (eigenbasis of a symmetric
  generator).

Conventions follow the hierarchy: ``G = b mbar - diag(V)`` is the level-1
generator, ``B = b`` the transformed birth matrix, and the source of level n
is ``f_n(x) = sum_i sum_{j != i} k_{n-1}(x without x_i) B[x_i, x_j]``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import integrate, linalg, special

WATSON_Z3 = 1.516386059151978   # G(0) of the rate-1 simple walk on Z^3


# ---------------------------------------------------------------------------
# Z^3 lattice Green's function and the transience constant
# ---------------------------------------------------------------------------

def lattice_green_z3(x, horizon: float = np.inf) -> float:
    """G(x) = int_0^horizon P_0(X_t = x) dt for the rate-1 simple walk on Z^3.

    ``P_0(X_t = x) = prod_i ive(x_i, t/3)``.  The integral is split at
    t = 1; an infinite tail is mapped to (0, 1] by t = 1/u^2, where the
    t^{-3/2} decay makes the integrand smooth.
    """
    x = np.abs(np.asarray(x, dtype=int)).reshape(3)

    def density(t):
        return float(np.prod(special.ive(x, t / 3.0)))

    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    head, _ = integrate.quad(density, 0.0, min(1.0, horizon), **opts)
    if horizon <= 1.0:
        return head
    if np.isfinite(horizon):
        return head + integrate.quad(density, 1.0, horizon, **opts)[0]
    tail, _ = integrate.quad(lambda u: 2.0 * density(1.0 / u ** 2) / u ** 3
                             if u > 0 else 2.0 * (1.5 / np.pi) ** 1.5,
                             0.0, 1.0, **opts)
    return head + tail


def pair_transience_z3(u, T: float = np.inf) -> float:
    """int_0^T E_u alpha(X_t - Y_t) dt on Z^3; H(u) for T = inf.

    Both walkers jump at rate 1 with the nearest-neighbour law and
    ``alpha`` is that law (mass 1), so the difference walk has rate 2 and
    the integral is ``(1/2) mean_e G(u + e)`` over the six unit vectors e,
    with G taken up to the horizon 2T.
    """
    u = np.asarray(u, dtype=int).reshape(3)
    units = np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)])
    return 0.5 * float(np.mean([lattice_green_z3(u + e, 2.0 * T) for e in units]))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def window_kernel(d: int, R: int, stencil: dict,
                  periodic: bool = False) -> np.ndarray:
    """Stencil kernel A[i, j] = alpha(x_i - x_j) on the window [-R, R]^d.

    Points are in lexicographic order.  Unbounded windows lose mass at the
    edge rows; periodic ones wrap displacements to the minimal image.
    """
    pts = np.array(list(itertools.product(range(-R, R + 1), repeat=d)))
    disp = pts[:, None, :] - pts[None, :, :]
    if periodic:
        disp = (disp + R) % (2 * R + 1) - R
    A = np.zeros((len(pts), len(pts)))
    for step, rate in stencil.items():
        A[np.all(disp == np.asarray(step), axis=2)] = rate
    return A


def critical_dense(A, weights, death):
    """Calibrate a dense model to criticality and apply the ground-state transform.

    Returns ``(G, B, mbar, psi, r)``: the Perron pair ``(r, psi)`` of
    ``A w / V`` (psi sup-normalized), ``B = (A / r) / psi`` per row,
    ``mbar = psi w`` and ``G = B mbar - diag(V)``.
    """
    A = np.asarray(A, dtype=float)
    w = np.asarray(weights, dtype=float)
    V = np.asarray(death, dtype=float)
    vals, vecs = np.linalg.eig(A * w[None, :] / V[:, None])
    k = int(np.argmax(vals.real))
    r = float(vals[k].real)
    psi = np.abs(vecs[:, k].real)
    psi /= psi.max()
    B = (A / r) / psi[:, None]
    mbar = psi * w
    return B * mbar[None, :] - np.diag(V), B, mbar, psi, r


# ---------------------------------------------------------------------------
# time evolution of k1, k2 from Poisson(rho) initial data (mbar convention)
# ---------------------------------------------------------------------------

def kron_sum(G: np.ndarray, n: int) -> np.ndarray:
    """Order-n Kronecker sum  sum_i I x .. x G (slot i) x .. x I."""
    size = G.shape[0]
    eye = np.eye(size)
    total = np.zeros((size ** n, size ** n))
    for i in range(n):
        term = np.ones((1, 1))
        for j in range(n):
            term = np.kron(term, G if j == i else eye)
        total += term
    return total


def _source_matrix(B: np.ndarray) -> np.ndarray:
    """S with vec(f_2) = S k_1:  f_2[x1, x2] = k1[x2] B[x1, x2] + k1[x1] B[x2, x1]."""
    size = B.shape[0]
    S = np.zeros((size * size, size))
    for x1 in range(size):
        for x2 in range(size):
            S[x1 * size + x2, x2] += B[x1, x2]
            S[x1 * size + x2, x1] += B[x2, x1]
    return S


def moments_expm(G, B, rho: float, t: float):
    """(k1(t), k2(t)) by expm of the augmented Kronecker-sum generator.

    The pair ``(vec k2, k1)`` solves the block-triangular linear system
    ``d/dt [k2; k1] = [[G (+) G, S], [0, G]] [k2; k1]`` (S carries the
    source), so one matrix exponential gives the exact solution.
    """
    size = G.shape[0]
    M = np.zeros((size * size + size,) * 2)
    M[:size * size, :size * size] = kron_sum(G, 2)
    M[:size * size, size * size:] = _source_matrix(B)
    M[size * size:, size * size:] = G
    z0 = np.concatenate([np.full(size * size, rho ** 2), np.full(size, rho)])
    z = linalg.expm(t * M) @ z0
    return z[size * size:], z[:size * size].reshape(size, size)


def _phi(a, b, t):
    """int_0^t exp(b (t - s)) exp(a s) ds, stable when a is close to b."""
    h = (a - b) * t
    small = np.abs(h) < 1e-8
    ratio = np.where(small, 1.0 + 0.5 * h, np.expm1(h) / np.where(small, 1.0, h))
    return t * np.exp(b * t) * ratio


def moments_spectral(G, B, rho: float, t: float):
    """(k1(t), k2(t)) in closed form on the eigenbasis of a symmetric G.

    With ``G = U diag(lam) U^T`` and ``k1(s) = sum_k a_k e^{lam_k s} u_k``,
    the level-2 source is a sum of exponentials and each eigen-coefficient
    of k2 integrates exactly.
    """
    G = np.asarray(G, dtype=float)
    if not np.allclose(G, G.T, atol=1e-13):
        raise ValueError("moments_spectral needs a symmetric generator")
    lam, U = np.linalg.eigh(G)
    a = U.T @ np.full(len(lam), float(rho))
    k1 = U @ (np.exp(lam * t) * a)
    # F_k = B diag(u_k) + diag(u_k) B^T, in the eigenbasis
    Bu = U.T @ B                                   # (i, x)
    Fhat = (np.einsum("ix,xk,xj->kij", Bu, U, U)
            + np.einsum("xk,xi,jx->kij", U, U, Bu))
    pair = lam[:, None] + lam[None, :]
    C0 = U.T @ np.full((len(lam),) * 2, rho ** 2) @ U
    C = np.exp(pair * t) * C0
    C += np.einsum("k,kij,kij->ij", a, Fhat,
                   _phi(lam[:, None, None], pair[None, :, :], t))
    return k1, U @ C @ U.T


# ---------------------------------------------------------------------------
# stationary k2, k3
# ---------------------------------------------------------------------------

def source_k2(B, k1) -> np.ndarray:
    return np.asarray(k1)[None, :] * B + np.asarray(k1)[:, None] * B.T


def source_k3(B, k2) -> np.ndarray:
    """f_3[a, b, c] = sum_i k2(x without x_i) sum_{j != i} B[x_i, x_j]."""
    return (k2[None, :, :] * (B[:, :, None] + B[:, None, :])
            + k2[:, None, :] * (B.T[:, :, None] + B[None, :, :])
            + k2[:, :, None] * (B.T[:, None, :] + B.T[None, :, :]))


def stationary_k2_sylvester(G, B, rho: float) -> np.ndarray:
    """k2 = rho^2 + K with G K + K G^T = -f_2(k1 = rho)."""
    F = source_k2(B, np.full(G.shape[0], float(rho)))
    return linalg.solve_sylvester(G, G.T, -F) + rho ** 2


def stationary_k3_eigen(G, B, rho: float):
    """(k2, k3) on the eigenbasis of a symmetric G.

    On that basis the level-n operator is diagonal with eigenvalues
    ``lam_i + lam_j (+ lam_k)``, so each stationary level is a division.
    """
    G = np.asarray(G, dtype=float)
    if not np.allclose(G, G.T, atol=1e-13):
        raise ValueError("stationary_k3_eigen needs a symmetric generator")
    lam, U = np.linalg.eigh(G)
    f2 = U.T @ source_k2(B, np.full(len(lam), float(rho))) @ U
    k2 = U @ (-f2 / (lam[:, None] + lam[None, :])) @ U.T + rho ** 2
    f3 = np.einsum("abc,ai,bj,ck->ijk", source_k3(B, k2), U, U, U, optimize=True)
    c3 = -f3 / (lam[:, None, None] + lam[None, :, None] + lam[None, None, :])
    k3 = np.einsum("ijk,ai,bj,ck->abc", c3, U, U, U, optimize=True)
    return k2, k3 + rho ** 3
