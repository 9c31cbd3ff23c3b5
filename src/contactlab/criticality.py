"""Ground-state calibration of rate models to the critical regime.

The principal eigenpair of the positive operator

    (T psi)(x) = sum_y [a(x, y) / V(x)] psi(y) m(y)

is found directly: one dense eigensolve locates the root r, and inverse
iteration with ``sigma I - T`` (``sigma`` just above r; numpy's ``solve``)
gives the sup-normalized eigenvector within a few solves, stopped when the
Collatz-Wielandt bracket certifies r.  A lattice kernel
``alpha(xi - xi') Q(s, s')`` (a stencil is ``Q`` = ones, and a plain lattice
one mark of weight ``weights[0]``) whose death rates ``v(s)`` depend on the
mark only reduces to the mark-only kernel ``alpha_mass Q(s, s') / v(s)``
against ``nu``, and the eigenfunction is reported with the ``sum q nu = 1``
normalization.  The birth kernel is rescaled by ``1/r`` to land exactly on
criticality, and the ground-state transform ``b = a / psi``,
``mbar = psi * m`` is applied; it records whether the critical birth
matrix a is symmetric (a reversible kernel, whose level-1 generator the
hierarchy diagonalizes by one symmetric eigendecomposition).
Rescaling keeps the eigenvector, so calibration solves once: the ratios
``inflow / V = T psi / psi`` of the transformed model bracket the rescaled
Perron root (Collatz 1942; Wielandt 1950).  On a translation-invariant
critical model ``theta_kernel`` gives the walkers' row-stochastic mark jump
law ``Theta nu`` as a plain (M, M) array, and is the one place that checks
its row mass against ``MASS_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .errors import ConvergenceError, ModelError, ReducibleKernelError
from .model import (Kernel, RateModel, StateSpace, _mark_factor, kernel_matrix,
                    window_symmetries)

__all__ = [
    "GroundState",
    "TransformedModel",
    "perron_solve",
    "solve_ground_state",
    "rescale_to_critical",
    "ground_transform",
    "criticality_residual",
    "theta_kernel",
    "calibrate",
]

DEFAULT_TOL = 1e-12
POSITIVITY_FLOOR = 1e-12
# inverse iteration shifts by SIGMA_GAP max(|r|, 1) above the eigvals root,
# far above its rounding error, so each solve cuts the non-Perron part by
# about SIGMA_GAP / (relative spectral gap)
SIGMA_GAP = 1e-9
MAX_SOLVES = 10
# largest deviation from 1 accepted for a jump law's or a stencil's total mass
MASS_TOL = 1e-9


@dataclass(frozen=True)
class GroundState:
    """Principal eigenpair (r, psi) plus the per-mark profile of a
    translation-invariant model."""

    psi: np.ndarray            # per point
    eigenvalue: float
    normalization: str         # "sup" | "mark-nu"
    q: np.ndarray | None = None  # per mark (translation-invariant models only)
    iterations: int = 0        # inverse-iteration solves
    bracket: tuple | None = None  # final Collatz-Wielandt (min, max)


@dataclass(frozen=True)
class TransformedModel:
    """Critical model after the ground-state transform.

    ``b`` and ``jump_b`` are dense matrices over the space points; ``mbar``
    is the transformed measure.  A translation-invariant model carries the
    multi-species payload ``(alpha, Q, q, v)`` alongside the dense view (needed
    by the unbounded walkers); a plain lattice is one mark.  ``reversible``
    says that the birth matrix ``a = psi b`` is symmetric: the generator
    ``b mbar - V`` is then similar to a symmetric matrix.  ``symmetries``
    holds the point permutations of the window that leave the model exactly
    invariant (``model.window_symmetries``).
    """

    space: StateSpace
    b: np.ndarray
    mbar: np.ndarray
    death: np.ndarray
    psi: np.ndarray
    jump_b: np.ndarray | None = None
    reversible: bool = False
    symmetries: tuple = ()
    # translation-invariant payload (None for generic dense models)
    alpha: dict | None = None           # displacement stencil of b's spatial part
    Q: np.ndarray | None = None         # mark kernel (post-rescale; ones for a stencil)
    q: np.ndarray | None = None         # per-mark ground state
    v: np.ndarray | None = None         # per-mark death rates

    @property
    def translation_invariant(self) -> bool:
        return self.alpha is not None

    @property
    def marked(self) -> bool:
        """The space has marks (a plain lattice has one, implicitly)."""
        return self.space.marks is not None

    @property
    def nu(self) -> np.ndarray:
        """Per-mark weights ``nu`` of a translation-invariant model (1 on a
        plain lattice): the first lattice point's, as marks run inner."""
        return self.space.weights[:len(self.q)]


def perron_solve(T: np.ndarray, tol: float):
    """Perron pair of a non-negative matrix by one eigensolve and inverse iteration.

    ``eigvals`` gives the root ``r`` as the eigenvalue of largest real part;
    a second eigenvalue within ``tol max(r, 1)`` of it means a reducible
    kernel with a non-simple root, which has no unique positive
    eigenvector.  Inverse iteration with ``sigma I - T``, ``sigma`` just
    above ``r``, then runs from the ones vector (each ``np.linalg.solve``
    maps the positive cone into itself) until the Collatz-Wielandt
    bracket ``[min Tx/x, max Tx/x]`` has width at most ``tol`` relative to
    the root.  Returns ``(r, x, solves, bracket)`` with ``r`` the bracket's
    midpoint and ``x`` sup-normalized.
    """
    w = np.linalg.eigvals(T)
    top = np.sort(w.real)[::-1]
    r = float(top[0])
    if len(top) > 1 and top[1] >= r - tol * max(r, 1.0):
        raise ReducibleKernelError(
            f"Perron root {r:.6g} is not simple; kernel reducible")
    shifted = (r + SIGMA_GAP * max(abs(r), 1.0)) * np.eye(len(T)) - T
    x = np.ones(len(T))
    for solves in range(1, MAX_SOLVES + 1):
        y = np.linalg.solve(shifted, x)
        x = y / y[np.argmax(np.abs(y))]
        if np.any(x <= POSITIVITY_FLOOR):
            raise ReducibleKernelError(
                "eigenvector entry below positivity floor; kernel reducible")
        ratios = (T @ x) / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(hi, 1.0):
            return 0.5 * (lo + hi), x, solves, (lo, hi)
    raise ConvergenceError(
        f"inverse iteration did not certify the Perron root in {MAX_SOLVES} "
        f"solves (bracket width {hi - lo:.3e})")


def _mark_death(model: RateModel, nmark: int) -> np.ndarray | None:
    """Per-mark death rates v(s) if V(xi, s) = v(s) (points run lattice-outer,
    marks-inner), or None if V depends on the lattice point."""
    V = model.death.reshape(-1, nmark)
    return V[0] if np.all(V == V[0]) else None


def solve_ground_state(model: RateModel, space: StateSpace) -> GroundState:
    """Krein-Rutman pair of the normalized birth operator.

    A lattice kernel whose death rates depend on the mark only solves the
    mark-only problem with kernel ``alpha_mass Q(s, s') / v(s)`` against
    ``nu`` and reports ``q`` with ``sum q nu = 1``; any other model solves
    the full per-point problem with sup-norm normalization.
    """
    if model.birth.form != "dense" and space.structure != "finite":
        Q = _mark_factor(model.birth, space)
        v = _mark_death(model, len(Q))
        if v is not None:
            nu = space.weights[:len(Q)]
            alpha_mass = sum(model.birth.stencil.values())
            K = (Q / v[:, None]) * nu[None, :] * alpha_mass
            r, q, solves, bracket = perron_solve(K, DEFAULT_TOL)
            q = q / float(q @ nu)
            return GroundState(psi=np.tile(q, space.size // len(q)), eigenvalue=r,
                               normalization="mark-nu", q=q, iterations=solves,
                               bracket=bracket)
        if space.boundary == "unbounded":
            raise ModelError("a lattice kernel on an unbounded window needs death "
                             "rates that depend on the mark only: the window is a "
                             "viewport, not the space")
    A = kernel_matrix(model.birth, space)
    T = (A * space.weights[None, :]) / model.death[:, None]
    r, psi, solves, bracket = perron_solve(T, DEFAULT_TOL)
    return GroundState(psi=psi, eigenvalue=r, normalization="sup",
                       iterations=solves, bracket=bracket)


def rescale_to_critical(model: RateModel, gs: GroundState) -> RateModel:
    """Divide the birth kernel by r so the principal eigenvalue becomes 1.

    The jump kernel and death rates are untouched; a model with r = 1 is
    returned unchanged (same kernel payload).
    """
    if gs.eigenvalue <= 0:
        raise ModelError("ground-state eigenvalue must be positive")
    if gs.eigenvalue == 1.0:
        return model
    return model.with_birth(model.birth.scaled(1.0 / gs.eigenvalue))


def ground_transform(model: RateModel, space: StateSpace,
                     gs: GroundState) -> TransformedModel:
    """Apply b = a / psi, mbar = psi * m to a critical model, and record
    whether a is symmetric (``reversible``) and the window's exact
    symmetries of the model (``symmetries``)."""
    psi = np.asarray(gs.psi, dtype=float)
    if np.any(psi <= POSITIVITY_FLOOR * psi.max()):
        raise ModelError("psi entry below positivity floor")
    A = kernel_matrix(model.birth, space)
    b = A / psi[:, None]
    mbar = psi * space.weights
    jump_b = None
    if model.jump is not None:
        jump_b = kernel_matrix(model.jump, space) / psi[:, None]

    alpha = Q = q = v = None
    if gs.q is not None:
        alpha = dict(model.birth.stencil)
        Q = _mark_factor(model.birth, space).copy()
        q = gs.q.copy()
        v = _mark_death(model, len(q))
    return TransformedModel(space=space, b=b, mbar=mbar, death=model.death.copy(),
                            psi=psi, jump_b=jump_b,
                            reversible=bool(np.array_equal(A, A.T)),
                            symmetries=window_symmetries(model, space),
                            alpha=alpha, Q=Q, q=q, v=v)


def _balance(tm: TransformedModel):
    """Birth inflow ``sum_y b(x, y) mbar(y)`` and death rate ``V(x)``, per
    mark for translation-invariant models; ``inflow / V = T psi / psi`` for
    the critical operator.

    Translation-invariant models use the displacement-sum identity (exact on
    the unbounded lattice, where window edge rows are not meaningful).
    """
    if not tm.translation_invariant:
        return tm.b @ tm.mbar, tm.death
    mass = sum(tm.alpha.values())
    return mass * (tm.Q @ (tm.q * tm.nu)) / tm.q, tm.v


def criticality_residual(tm: TransformedModel) -> float:
    """sup_x | sum_y b(x, y) mbar(y) - V(x) |."""
    inflow, V = _balance(tm)
    return float(np.abs(inflow - V).max())


def theta_kernel(tm: TransformedModel) -> np.ndarray:
    """The mark jump law ``Theta(s, s') nu(s')``, (M, M) and row-stochastic,
    with ``Theta(s, s') = |alpha| Q(s, s') q(s') / (v(s) q(s))``.

    Criticality makes each row's mass 1; a row further than ``MASS_TOL``
    from it is a ``ModelError`` (a miscalibrated model), and the rows are
    divided by their mass against rounding.
    """
    if not tm.translation_invariant:
        raise ModelError("theta_kernel requires a translation-invariant model")
    alpha_mass = sum(tm.alpha.values())
    theta = alpha_mass * tm.Q * tm.q[None, :] / (tm.v[:, None] * tm.q[:, None])
    trans = theta * tm.nu[None, :]
    rows = trans.sum(axis=1)
    if np.abs(rows - 1.0).max() > MASS_TOL:
        raise ModelError(f"mark jump law mass {rows.max():.6g} deviates from 1: "
                         "model miscalibrated")
    return trans / rows[:, None]


@metrics.phase("calibrate")
def calibrate(model: RateModel, space: StateSpace):
    """Full pipeline: solve once, rescale to r = 1, transform.

    Returns ``(tm, gs, report)``.  ``gs`` is the critical ground state: the
    solved ``psi`` (and ``q``), which rescaling keeps, with the range of the
    Collatz-Wielandt ratios ``inflow / V`` as its bracket of the rescaled
    Perron root and the bracket's midpoint as its eigenvalue.
    """
    gs0 = solve_ground_state(model, space)
    tm = ground_transform(rescale_to_critical(model, gs0), space, gs0)
    ratios = np.divide(*_balance(tm))
    lo, hi = float(ratios.min()), float(ratios.max())
    gs = replace(gs0, eigenvalue=0.5 * (lo + hi), bracket=(lo, hi))
    metrics.count("calibrate.solves", gs.iterations)
    metrics.record("calibrate.bracket_width", hi - lo)
    report = {
        "r_initial": gs0.eigenvalue,
        "r_after_rescale": gs.eigenvalue,
        "iterations": gs.iterations,
        "criticality_residual": criticality_residual(tm),
        "normalization": gs.normalization,
    }
    return tm, gs, report
