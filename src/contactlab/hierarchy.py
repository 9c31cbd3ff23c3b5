"""Correlation-function hierarchy: operators, evolution, stationary solutions.

Level n of the hierarchy evolves by

    dk/dt = Lhat_n k + f_n,
    (Lhat_n k)(x_1..x_n) = -(sum_i V(x_i)) k
                           + sum_i sum_y b(x_i, y) k(.., y, ..) mbar(y),
    f_n(x_1..x_n) = sum_i k_prev(.., x_i dropped, ..) sum_{j != i} b(x_i, x_j),

with f_1 = 0.  A correlation function k_n is a plain array of shape
``(size,) * n`` over the space points (mbar convention), symmetric under
every permutation of its axes.  Lhat_n is the Kronecker sum of the level-1
generator G over the n axes, so exp(t Lhat_n) is the n-fold tensor power of
exp(tG).  When the critical birth matrix a = psi b is symmetric (a
reversible kernel; Kelly, *Reversibility and Stochastic Networks*), G is
similar to the symmetric P G P^{-1} with P = diag(psi sqrt(w)), w = mbar /
psi the space weights, so one symmetric eigendecomposition G = W diag(lam)
W^{-1} diagonalizes every Lhat_n.  The stationary solution is then one
division by the sums of eigenvalues, and levels 1 and 2 evolve in closed
form: k_1(t) = W exp(lam t) W^{-1} k_1(0), and level 2 is stepped exactly
between output times with the phi_1 function of exponential integrators
(Hochbruck and Ostermann 2010).  Otherwise levels 1..N evolve exactly as
one linear system dz/dt = A z on the flattened (k_1, ..., k_N), whose
sparse block-lower-triangular generator A has Lhat_n on its diagonal and
the source map k_{n-1} -> f_n below it; z(t) = exp(tA) z(0) is computed by
``expm_multiply`` (Al-Mohy and Higham 2011) to double precision at the
requested output times.  The stationary solution is k_n = int_0^inf exp(t
Lhat_n) f_n dt + rho^n, built recursively.  On a finite space the integral
is -Lhat_n^{-1} f_n, which ``stationary_k`` solves directly: in the
eigenbasis for a reversible kernel, and by Bartels-Stewart on one Schur
form of G for any other, in real arithmetic when G's spectrum is real (its
real Schur form is then triangular) and in complex arithmetic otherwise.
scipy is imported only by the Schur solve and by ``expm_multiply``.  The
solution exists exactly when the spectral abscissa of G is negative, and a
DivergenceError reports the leading eigenvalues otherwise.  On unbounded
lattices, marked ones included, k_2 is estimated instead
(``stationary_pair_mc``) by the Feynman-Kac two-walker representation
exp(t Lhat_2) f = E_{x,y} f(X_t, Y_t).  Its source term b(x, y) + b(y, x)
needs no integrand of its own: exchanging the walkers makes the integral of
b(Y, X) from (u, s_x, s_y) that of b(X, Y) from (-u, s_y, s_x), the
per-start integral the transience estimate reads.  The summed running
integral is extrapolated by ``walkers.pair_limit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from . import metrics
from .criticality import TransformedModel
from .errors import ConvergenceError, DivergenceError, ModelError
from .walkers import lattice_walk, pair_integral_curves, pair_limit, parse_start

__all__ = [
    "PairCorrelationMC",
    "generator_matrix",
    "source_f",
    "evolve_hierarchy",
    "check_trajectory",
    "check_level",
    "poisson_initial",
    "stationary_k",
    "stationary_pair_mc",
    "factorial_bound_check",
    "bound_constant_D",
]


@dataclass
class PairCorrelationMC:
    """Monte Carlo second correlation function on a displacement grid."""

    rho: float
    displacements: list
    values: np.ndarray
    stderr: np.ndarray
    curves: dict = field(default_factory=dict)  # per displacement: its PairLimit

    def convergence(self, T_grid) -> dict:
        """Distance rho (limit - running) of the evolved k_2 from this estimate
        at the times ``T_grid``, the largest over the displacements.  At the
        last time the distance is itself an estimate, with standard error rho
        ``gap_stderr``: converged unless it exceeds 3 SE of the estimate by
        more than 3 SE of its own (a one-sided 3-SE test per displacement)."""
        T_grid = np.asarray(T_grid, dtype=float)
        dist = np.max([self.rho * np.interp(T_grid, c.t, c.limit - c.running)
                       for c in self.curves.values()], axis=0)
        gap_se = self.rho * max(c.gap_stderr for c in self.curves.values())
        threshold = 3 * (float(self.stderr.max()) + gap_se)
        return {"t": T_grid, "distance": dist, "threshold": threshold,
                "converged": bool(dist[-1] <= threshold)}


def generator_matrix(tm: TransformedModel) -> np.ndarray:
    """Level-1 generator G[x, y] = b(x, y) mbar(y) - V(x) delta_{xy}."""
    return tm.b * tm.mbar[None, :] - np.diag(tm.death)


def _apply_axis(M: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(M, k, axes=([1], [axis])), 0, axis)


def _source_terms(n: int, B: np.ndarray):
    """The terms of f_n: for each ordered pair of axes i != j, yield i and B
    shaped to broadcast with axis i as its first argument and axis j as its
    second, so f_n = sum over terms of b(x_i, x_j) k_prev(.., x_i dropped, ..)."""
    size = len(B)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            sh = [1] * n
            sh[i], sh[j] = size, size
            yield i, (B if i < j else B.T).reshape(sh)


def source_f(n: int, tm: TransformedModel, k_prev: np.ndarray) -> np.ndarray:
    """Lower-level coupling f_n built from the level-(n-1) array ``k_prev``."""
    if n < 1:
        raise ModelError("source level must be >= 1")
    if n == 1:
        return np.zeros(tm.space.size)
    if np.ndim(k_prev) != n - 1:
        raise ModelError(f"expected order {n - 1} input, got {np.ndim(k_prev)}")
    out = np.zeros((tm.space.size,) * n)
    for i, Bij in _source_terms(n, tm.b):
        out += np.expand_dims(k_prev, i) * Bij  # constant along axis i
    return out


def poisson_initial(n: int, rho: float, space) -> np.ndarray:
    """Initial data of the Poisson measure with intensity rho.

    In the mbar convention this is the constant array rho^n over
    ``(size,) * n`` (the marked per-mark profile q is absorbed by the
    measure change).
    """
    return np.full((space.size,) * n, float(rho) ** n)


def _apply_each_axis(M: np.ndarray, k: np.ndarray) -> np.ndarray:
    """M applied along every tensor axis of k (the n-fold tensor power of M)."""
    for i in range(k.ndim):
        k = _apply_axis(M, k, i)
    return k


def _point_group(generators: np.ndarray, size: int) -> np.ndarray:
    """Every point permutation that the rows of ``generators`` generate, one
    per row, the identity first; the identity alone when they number more
    than ``SYMMETRY_CAP`` entries in all."""
    elements = [np.arange(size, dtype=generators.dtype)]
    seen = {elements[0].tobytes()}
    for h in elements:   # grows while it is read: a breadth-first closure
        for x in generators.take(h, axis=1):
            if x.tobytes() not in seen:
                seen.add(x.tobytes())
                elements.append(x)
        if len(elements) * size > SYMMETRY_CAP:
            return np.array(elements[:1])
    return np.array(elements)


def _canonical_cells(n: int, size: int, generators=()) -> np.ndarray:
    """The C-order flat index of the least cell in the orbit of each cell of
    an order-n tensor over ``size`` points, under every permutation of the n
    indices and under the group of point permutations that ``generators``
    (index arrays) generate, each acting on all n indices at once.  A
    tensor that takes at each cell its value at that index is exactly
    invariant under both.  Computed once per order, size and generators
    (the solvers and the CSV writer share it), and read-only.

    The group is enumerated (``_point_group``: 48 elements on Z^3, none but
    the identity past ``SYMMETRY_CAP``).  Along a
    stabilizer chain (Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991) a cell's least image with its indices in their given
    order takes for each index in turn the least point of its current
    image's orbit under the stabilizer of the points placed so far, and an
    element that reaches it moves the indices still to place.  The least
    over the orders of the indices is the least over the axis permutations
    that a bubble network of adjacent axis swaps composes.
    """
    return _orbit_map(n, size, tuple(np.asarray(g, np.intp).tobytes()
                                     for g in generators))


@lru_cache(maxsize=8)
def _orbit_map(n: int, size: int, generators: tuple) -> np.ndarray:
    """``_canonical_cells`` of the generators given as bytes of intp arrays."""
    point = np.min_scalar_type(size - 1)
    group = _point_group(np.array([np.frombuffer(g, np.intp) for g in generators],
                                  point).reshape(-1, size), size)
    # an element index below each image point: one minimum picks both
    shift = (len(group) - 1).bit_length()
    packed = group.astype(np.intp) << shift | np.arange(len(group))[:, None]
    # the image of each index under the element placed so far, and the flat
    # index of the least points placed, as broadcast arrays
    image = [np.arange(size, dtype=point).reshape((size,) + (1,) * (n - 1 - i))
             for i in range(n)]
    placed = np.zeros((1,) * n, np.intp)
    for j in range(n):
        prefixes = np.flatnonzero(np.bincount(placed.ravel(), minlength=size ** j))
        stabilizer = np.ones((prefixes.size, len(group)), bool)
        for i in range(j):
            c = prefixes // size ** (j - 1 - i) % size
            stabilizer &= (group[:, c] == c).T
        # the least packed image of each point under each prefix's stabilizer
        row, element = np.nonzero(stabilizer)
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        least = np.minimum.reduceat(packed[element], starts)
        best = least.ravel().take(np.searchsorted(prefixes, placed) * size + image[j])
        if j + 1 < n:
            moved = (best & ((1 << shift) - 1)) * size
            image[j + 1:] = [group.ravel().take(moved + x) for x in image[j + 1:]]
        placed = placed * size + (best >> shift)
    for top in range(n - 1, 0, -1):
        for i in range(top):
            placed = np.minimum(placed, placed.swapaxes(i, i + 1))
    cells = placed.ravel()
    cells.flags.writeable = False
    return cells


def _eigenbasis(tm: TransformedModel):
    """Eigenvalues lam of G and the maps W^{-1}, W with G = W diag(lam) W^{-1},
    for a reversible kernel (the birth matrix a = psi b symmetric).

    With w = mbar / psi and P = diag(p), p = psi sqrt(w), S = P G P^{-1} =
    sqrt(w) a sqrt(w) - V is symmetric, so S = Q diag(lam) Q^T with Q
    orthogonal, W = P^{-1} Q and W^{-1} = Q^T P.  A constant psi makes p
    sqrt(mbar) up to a factor.
    """
    s = np.sqrt(tm.mbar / tm.psi)
    p = tm.psi * s
    lam, Q = np.linalg.eigh(p[:, None] * tm.b * s - np.diag(tm.death))
    return lam, Q.T * p, Q / p[:, None]


def _augmented_generator(tm: TransformedModel, N: int):
    """Generator A of z = (vec k_1, ..., vec k_N), with dz/dt = A z, as a
    scipy CSR matrix.

    Block (n, n) is Lhat_n, the Kronecker sum of G over n axes; block
    (n, n-1) is the matrix of the source map k_{n-1} -> f_n.  Vectors are
    tensors flattened in C order.
    """
    import scipy.sparse as sp

    size = tm.space.size
    G = sp.csr_matrix(generator_matrix(tm))
    blocks = [[None] * N for _ in range(N)]
    blocks[0][0] = L = G
    for n in range(2, N + 1):
        # G on the last axis, Lhat_{n-1} on the others
        blocks[n - 1][n - 1] = L = sp.kronsum(G, L, format="csr")
        # each term repeats k_{n-1} along a new axis i, then weights by b(x_i, x_j)
        blocks[n - 1][n - 2] = sum(
            sp.diags(np.broadcast_to(Bij, (size,) * n).ravel())
            @ sp.kron(sp.kron(sp.identity(size ** i), np.ones((size, 1))),
                      sp.identity(size ** (n - 1 - i)))
            for i, Bij in _source_terms(n, tm.b))
    A = sp.bmat(blocks, format="csr")
    A.eliminate_zeros()
    return A


# the most float64 entries an evolved trajectory may hold, len(times) times
# size + size^2 + ... + size^N (128 MiB; the CLI writes about 30 bytes of CSV
# per entry on top); a larger grid is a ModelError before anything is allocated
EVOLVE_CAP = 1 << 24
# the most float64 entries of one stationary level, size^n (128 MiB); the
# solve holds a few arrays of that size at once.  A larger level is a
# ModelError before anything is allocated
STATIONARY_CAP = 1 << 24
# the closed-form level 2 holds (size, size, size) tables: the sources of the
# modes and one per distinct step; above this many points expm_multiply of
# the sparse generator is the smaller and the faster
CLOSED_FORM_POINTS = 100
# the closed form keeps the tables of this many distinct steps
STEP_TABLES = 8
# the most entries (elements x points) of an enumerated window symmetry group,
# as on Z^5 at R = 1; the canonical cells of a window with a larger group
# (Z^6, or Z^5 at R = 2) run over the index permutations alone
SYMMETRY_CAP = 1 << 22


def _check_entries(what: str, entries: int, cap: int, name: str) -> None:
    """Raise ModelError when ``what`` needs more than ``cap`` entries."""
    if entries > cap:
        raise ModelError(f"{what} need {entries} entries, over {name} = {cap}")


def check_trajectory(n_times: int, size: int, N: int) -> None:
    """Raise ModelError when ``n_times`` output times of levels 1..N over
    ``size`` points exceed ``EVOLVE_CAP`` entries."""
    _check_entries(f"{n_times} output times of levels 1..{N} over {size} points",
                   n_times * sum(size ** n for n in range(1, N + 1)), EVOLVE_CAP,
                   "EVOLVE_CAP")


def check_level(n: int, size: int) -> None:
    """Raise ModelError when the stationary level n over ``size`` points
    exceeds ``STATIONARY_CAP`` entries."""
    _check_entries(f"stationary level {n} over {size} points", size ** n,
                   STATIONARY_CAP, "STATIONARY_CAP")


def _evolve_expm_multiply(tm: TransformedModel, k0: list, times: np.ndarray) -> list:
    """Levels 1..N at ``times``, each step one ``expm_multiply`` of the
    augmented generator (``evolve.expm_multiply_calls``)."""
    from scipy.sparse.linalg import expm_multiply

    size, N = tm.space.size, len(k0)
    A = _augmented_generator(tm, N)
    trace = A.trace()
    z = np.concatenate([np.ravel(k).astype(float) for k in k0])
    states = np.empty((len(times), z.size))
    # expm_multiply's norm estimates draw from (and so advance) np.random
    global_state = np.random.get_state()
    try:
        for i, h in enumerate(np.diff(times, prepend=0.0)):
            z = states[i] = expm_multiply(h * A, z, traceA=h * trace)
            metrics.count("evolve.expm_multiply_calls")
    finally:
        np.random.set_state(global_state)
    offsets = np.cumsum([0] + [size ** n for n in range(1, N + 1)])
    return [states[:, offsets[n - 1]:offsets[n]].reshape((len(times),) + (size,) * n)
            for n in range(1, N + 1)]


def _evolve_eigenbasis(tm: TransformedModel, k0: list, times: np.ndarray) -> list:
    """Levels 1 and 2 at ``times`` in closed form, for a reversible kernel.

    With G = W diag(lam) W^{-1} and a(t) = exp(lam t) W^{-1} k_1(0), k_1(t) =
    W a(t).  C = W^{-1} k_2 W^{-T} obeys dC/dt = nu C + sum_l a_l(t) Fhat_l
    entrywise, with nu_ij = lam_i + lam_j and Fhat_l = W^{-1} f_2(w_l) W^{-T}
    the source of mode l (w_l the l-th column of W).  A step of length h from
    t is then exact:

        C <- exp(nu h) C + sum_l a_l(t) Fhat_l Phi_l(h),
        Phi_l(h)_ij = int_0^h exp(lam_l s + nu_ij (h - s)) ds
                    = h exp(m h) phi_1(-|lam_l - nu_ij| h),

    with m = max(lam_l, nu_ij) and phi_1(z) = expm1(z) / z, taken at
    non-positive z only.  The tables of the last ``STEP_TABLES`` distinct
    steps are kept.  Initial data that are exactly symmetric under index
    permutations give levels that are too, and exactly invariant under the
    window symmetries that leave the data invariant, by the canonical-cell
    rule of ``stationary_k``.
    """
    lam, to_basis, from_basis = _eigenbasis(tm)
    metrics.count("evolve.eigh")
    start = to_basis @ k0[0]
    modes = np.exp(np.outer(times, lam)) * start   # a(t) at each output time
    k1 = modes @ from_basis.T
    symmetric = len(k0) == 1 or np.array_equal(k0[1], k0[1].T)
    # the window symmetries that also leave the initial data invariant
    generators = [g for g in tm.symmetries if np.array_equal(k0[0][g], k0[0])
                  and (len(k0) == 1 or np.array_equal(k0[1][np.ix_(g, g)], k0[1]))]
    if symmetric and generators:
        k1 = k1[:, _canonical_cells(1, len(lam), generators)]
    if len(k0) == 1:
        return [k1]
    size = len(lam)
    nu = lam[:, None] + lam
    # f_2(w) = b diag(w) + (b diag(w))^T, so Fhat_l = H_l + H_l^T with
    # H_l = (W^{-1} b) diag(w_l) W^{-T}; H[l, i, j] from one product
    H = ((to_basis @ tm.b)
         @ (from_basis[:, :, None] * to_basis.T[:, None, :]).reshape(size, -1))
    H = H.reshape(size, size, size).transpose(1, 0, 2)
    source = H + H.transpose(0, 2, 1)
    # Phi = exp(m h) expm1(gap h) / gap, with h in place of expm1(gap h) / gap
    # where gap is 0
    gap = -np.abs(lam[:, None, None] - nu)
    tie = gap == 0
    inv_gap = np.divide(1.0, gap, out=np.zeros_like(gap), where=~tie)

    @lru_cache(maxsize=STEP_TABLES)
    def step(h: float):
        decay = np.exp(nu * h)
        phi = np.expm1(gap * h) * inv_gap
        phi[tie] = h
        phi *= np.maximum(np.exp(lam * h)[:, None, None], decay)   # exp(m h)
        return decay, (source * phi).reshape(size, -1)

    C = to_basis @ k0[1] @ to_basis.T
    basis = np.empty((len(times), size, size))
    for i, h in enumerate(np.diff(times, prepend=0.0)):
        decay, table = step(float(h))
        C = basis[i] = decay * C + (start @ table).reshape(size, size)
        start = modes[i]
    k2 = from_basis @ basis @ from_basis.T
    if symmetric:
        cells = _canonical_cells(2, size, generators)
        k2 = k2.reshape(len(times), -1)[:, cells].reshape(k2.shape)
    return [k1, k2]


@metrics.phase("evolve")
def evolve_hierarchy(tm: TransformedModel, k0: list, times) -> dict:
    """Exact solution of levels 1..N at the output ``times``.

    ``k0`` lists the initial arrays of orders 1..N, shaped ``(size,) * n``
    (``poisson_initial`` for Poisson data).  ``times`` is any finite,
    non-negative, non-decreasing grid of at most ``EVOLVE_CAP`` entries in
    all (``check_trajectory``); no step size controls the accuracy.  A
    reversible kernel at N = 1, or at N = 2 on at most
    ``CLOSED_FORM_POINTS`` points, evolves in closed form in the eigenbasis
    of G (one ``eigh``, counted as ``evolve.eigh``).  Any other input is
    carried from one output time to the next by ``expm_multiply`` of the
    augmented generator, counted as ``evolve.expm_multiply_calls``, one per
    output time.  Returns ``{n: (times, k_n)}`` with ``k_n`` of shape
    ``(len(times),) + (size,) * n``.
    """
    size = tm.space.size
    N = len(k0)
    if N < 1 or any(np.shape(k) != (size,) * n for n, k in enumerate(k0, 1)):
        raise ModelError(f"initial data must be arrays of orders 1..N over "
                         f"{size} points")
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) < 0)):
        raise ModelError("output times must be a non-empty, finite, non-negative "
                         "and non-decreasing grid")
    check_trajectory(len(times), size, N)
    if tm.reversible and (N == 1 or N == 2 and size <= CLOSED_FORM_POINTS):
        levels = _evolve_eigenbasis(tm, [np.asarray(k, dtype=float) for k in k0], times)
    else:
        levels = _evolve_expm_multiply(tm, k0, times)
    return {n: (times, k) for n, k in enumerate(levels, 1)}


# A level-n stationary solution exists iff the spectral abscissa of the
# level-1 generator is negative; calibration leaves critical models within
# about 1e-12 of zero, so anything above -SPECTRAL_TOL counts as critical.
SPECTRAL_TOL = 1e-8


def _kron_sum_solve(T: np.ndarray, C: np.ndarray, shift: complex = 0.0) -> np.ndarray:
    """Solve (shift + sum over axes of T) X = C for upper-triangular T.

    Bartels-Stewart back-substitution: the last two axes are one triangular
    Sylvester equation T X + X T^H = C (LAPACK trsyl of T's dtype, real or
    complex); every further leading axis is swept from its last index to
    its first, each slice a smaller problem shifted by the diagonal entry
    of T.
    """
    if C.ndim == 2:
        from scipy.linalg import get_lapack_funcs

        trsyl = get_lapack_funcs("trsyl", (T,))
        X, scale, info = trsyl(T + shift * np.eye(len(T)), T.conj(), C,
                               trana="N", tranb="C")
        metrics.count("stationary.trsyl_calls")
        if info != 0:
            raise ConvergenceError(f"triangular Sylvester solve failed (info={info})")
        return X / scale
    X = np.empty_like(C)
    for a in range(len(T) - 1, -1, -1):
        rhs = C[a] - np.tensordot(T[a, a + 1:], X[a + 1:], axes=1)
        X[a] = _kron_sum_solve(T, rhs, shift + T[a, a])
    return X


def _check_abscissa(eig: np.ndarray) -> None:
    """Raise DivergenceError when the spectral abscissa of G, the largest
    real part of its eigenvalues ``eig``, is not negative (the integrals
    diverge)."""
    abscissa = float(eig.real.max())
    if abscissa >= -SPECTRAL_TOL:
        lead = eig[np.argsort(-eig.real)[:5]]
        raise DivergenceError(
            "level-1 generator has spectral abscissa "
            f"{abscissa:.3e} >= -{SPECTRAL_TOL:g}: non-transient model",
            diagnostics={"spectral_abscissa": abscissa, "tol": SPECTRAL_TOL,
                         "leading_eigenvalues": [[float(z.real), float(z.imag)]
                                                 for z in lead]})


def _triangular_form(tm: TransformedModel):
    """Schur form G = Z T Z^H of the level-1 generator with T triangular.

    The real Schur form is kept when it is triangular (real spectrum), so
    the solves run in real arithmetic; a 2x2 block (a complex pair) turns
    it into the complex Schur form.  Raises DivergenceError on a critical G.
    """
    from scipy.linalg import rsf2csf, schur

    T, Z = schur(generator_matrix(tm))
    if np.any(np.diag(T, -1)):
        T, Z = rsf2csf(T, Z)
    metrics.count(f"stationary.schur_{T.dtype}")
    _check_abscissa(np.diag(T))
    return T, Z


@metrics.phase("stationary")
def stationary_k(n: int, tm: TransformedModel, rho: float) -> np.ndarray:
    """Stationary correlation function k_n = int exp(t Lhat_n) f_n dt + rho^n.

    Solves Lhat_n (k_n - rho^n) = -f_n directly on a finite space, level by
    level with f_n built from k_{n-1}.  A reversible kernel (the critical
    birth matrix a = psi b symmetric: a lattice window with a symmetric
    stencil, or a dense model with a symmetric matrix, for two) is solved in
    the eigenbasis of G, where Lhat_n is diagonal: one numpy ``eigh``,
    counted as ``stationary.eigh``.  Any other kernel is solved on one scipy
    Schur form of G (``stationary.schur_<dtype>``), by one triangular
    Sylvester solve per slice (``stationary.trsyl_calls``).  Raises
    DivergenceError on critical models, and ModelError before anything is
    allocated on a level of more than ``STATIONARY_CAP`` entries
    (``check_level``).  Each level is exactly symmetric: an entry takes the
    solve's value at the least cell of its orbit under the index
    permutations and the window symmetries of the model
    (``_canonical_cells``); the number of the last level's orbits is the
    value ``stationary.orbits``.  Returns k_n, of shape
    ``(size,) * n``.  ``stationary_pair_mc`` estimates k_2 on unbounded
    lattices.
    """
    if n < 1:
        raise ModelError("stationary level must be >= 1")
    check_level(n, tm.space.size)
    k = np.full(tm.space.size, float(rho))
    if n == 1:
        return k
    if tm.reversible:
        lam, to_basis, from_basis = _eigenbasis(tm)
        metrics.count("stationary.eigh")
        _check_abscissa(lam)
    else:
        T, from_basis = _triangular_form(tm)
        to_basis = from_basis.conj().T
    for m in range(2, n + 1):
        # -Lhat_m^{-1} f_m in a basis where Lhat_m is diagonal, with the
        # eigenvalues lam_i + lam_j (+ lam_k), or triangular
        C = _apply_each_axis(to_basis, -source_f(m, tm, k))
        C = C / reduce(np.add.outer, [lam] * m) if tm.reversible else _kron_sum_solve(T, C)
        X = _apply_each_axis(from_basis, C).real
        # k_m is symmetric: every entry takes the value at its canonical cell
        cells = _canonical_cells(m, len(X), tm.symmetries)
        k = X.ravel()[cells].reshape(X.shape) + float(rho) ** m
    metrics.record("stationary.orbits", np.count_nonzero(cells == np.arange(cells.size)))
    return k


@metrics.phase("stationary")
def stationary_pair_mc(tm: TransformedModel, rho: float, *, rng: np.random.Generator,
                       displacements, T: float = 200.0,
                       replicas: int = 20000) -> PairCorrelationMC:
    """k_2 = rho^2 + rho E int_0^inf [b(X,Y) + b(Y,X)] dt by Monte Carlo.

    The ``displacements`` are two-walker starts as ``estimate_H`` takes them
    (``parse_start``): ``u = x0 - y0``, or ``(u, s_x, s_y)`` on a marked
    model, and the results are keyed the same way.  Exchanging the walkers
    turns the integral of b(Y, X) from ``(u, s_x, s_y)`` into that of b(X, Y)
    from ``(-u, s_y, s_x)``, so with I the integral of b(X, Y) that
    ``estimate_H`` reads, ``k_2(u, s_x, s_y) = rho^2 + rho [I(u, s_x, s_y) +
    I(-u, s_y, s_x)]``.  Each start and its exchange share one skeleton
    (``pair_integral_curves``), and their running integrals are added per
    replica.  Each sum is the ``pair_limit`` of its running value on [0, T],
    and its standard error is that of the fitted limit (``limit_stderr``); a
    DivergenceError reports one that is not integrable.  All starts share
    the skeleton, so their estimates are correlated.
    """
    walk = lattice_walk(tm)
    d = walk.d
    nmark = len(walk.v) if tm.marked else 0
    starts = [parse_start(u, d, nmark) for u in displacements]
    disps, sx, sy = (list(c) for c in zip(*starts))
    curves = pair_integral_curves(walk, disps + [tuple(-c for c in u) for u in disps],
                                  sx + sy, sy + sx, T, replicas, rng)
    keys = [start if nmark else start[0] for start in starts]
    values, errs, limits = [], [], {}
    for key, (cps, own), (_, swap) in zip(keys, curves, curves[len(keys):]):
        lim = pair_limit(cps, own + swap, d)
        if not lim.integrable:
            raise DivergenceError(
                "two-walker interaction integral is not integrable "
                f"(fitted exponent {lim.exponent:.3f})",
                diagnostics={"t": lim.t, "running": lim.running,
                             "exponent": lim.exponent})
        values.append(rho ** 2 + rho * lim.limit)
        errs.append(rho * lim.limit_stderr)
        limits[key] = lim
    return PairCorrelationMC(rho=rho, displacements=keys, values=np.array(values),
                             stderr=np.array(errs), curves=limits)


def bound_constant_D(rho: float, H: float) -> float:
    """D = sum_{n >= 1} (rho / H)^n / (n!)^2, summed over its first 60 terms."""
    n = np.arange(1, 61)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    return float(np.sum(np.exp(n * np.log(rho / H) - 2 * log_fact)))


def factorial_bound_check(sups: dict, rho: float, H: float) -> dict:
    """Check sup k_n <= D H^n (n!)^2, D = ``bound_constant_D(rho, H)``, for
    each order n of ``sups``, which maps it to the computed sup of k_n."""
    if H <= 0:
        raise ModelError("factorial bound check needs a positive H")
    D = bound_constant_D(rho, H)
    report = {"per_level": {}, "passed": True, "D": D, "H": H}
    for n, sup in sups.items():
        sup = float(sup)
        bound = D * H ** n * math.factorial(n) ** 2
        ratio = sup / bound
        ok = ratio <= 1.0
        report["per_level"][n] = {"sup": sup, "bound": bound,
                                  "ratio": ratio, "passed": ok}
        report["passed"] = report["passed"] and ok
    return report
