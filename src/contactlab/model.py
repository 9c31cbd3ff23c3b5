"""State spaces, measures and rate models for contact processes.

A state space is a finite enumeration of points with strictly positive
measure weights.  Three flavors are supported:

* ``finite``   -- an arbitrary finite weighted set;
* ``lattice``  -- the integer window ``[-R, R]^d`` with unit weights, with
  either ``periodic`` wrapping (used by the particle simulator) or
  ``unbounded`` displacements (used by the walker Monte Carlo, whose
  coordinates are plain integers and never truncated);
* ``product``  -- lattice window times a finite mark set with weights ``nu``
  (points enumerated lattice-outer, marks-inner).

Rate models hold a birth kernel ``a(x, y)`` (dense matrix, translation
invariant stencil, or factorized ``alpha(xi - xi') * Q(s, s')``), per-point
death rates ``V(x) > 0`` and an optional jump kernel ``J(y, x)``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, SpaceError

__all__ = [
    "StateSpace",
    "Kernel",
    "RateModel",
    "build_space",
    "kernel_matrix",
    "load_model_config",
    "model_from_dict",
]


@dataclass(frozen=True)
class StateSpace:
    """Enumerated points with positive weights (the reference measure)."""

    points: tuple
    weights: np.ndarray
    structure: str  # "finite" | "lattice" | "product"
    dim: int | None = None
    radius: int | None = None
    boundary: str | None = None  # "periodic" | "unbounded"
    marks: tuple | None = None
    nu: np.ndarray | None = None
    index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise SpaceError("empty state space")
        if len(set(self.points)) != len(self.points):
            raise SpaceError("duplicate point identifiers")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.points),):
            raise SpaceError("weights shape does not match points")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise SpaceError("weights must be strictly positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "index", {p: i for i, p in enumerate(self.points)})

    @property
    def size(self) -> int:
        return len(self.points)

    def locate(self, point) -> int:
        try:
            return self.index[point]
        except KeyError:
            raise SpaceError(f"unknown point {point!r}") from None

    def coordinate(self, point):
        """Lattice coordinate of a point (the point itself on pure lattices)."""
        if self.structure == "product":
            return point[0]
        return point


def _lattice_points(d: int, R: int):
    return [tuple(p) for p in itertools.product(range(-R, R + 1), repeat=d)]


def build_space(spec: dict) -> StateSpace:
    """Build and validate a StateSpace from a description dict.

    ``spec["type"]`` selects the flavor; see the module docstring for the
    accepted keys of each.
    """
    kind = spec.get("type")
    if kind in ("finite", "finite-set"):
        points = tuple(spec["points"])
        weights = np.asarray(spec.get("weights", np.ones(len(points))), dtype=float)
        return StateSpace(points, weights, "finite")
    if kind in ("lattice", "lattice-window"):
        d, R = int(spec["d"]), int(spec["R"])
        boundary = spec.get("boundary", "periodic")
        if boundary not in ("periodic", "unbounded"):
            raise SpaceError(f"unknown boundary mode {boundary!r}")
        pts = _lattice_points(d, R)
        return StateSpace(tuple(pts), np.ones(len(pts)), "lattice",
                          dim=d, radius=R, boundary=boundary)
    if kind == "product":
        d, R = int(spec["d"]), int(spec["R"])
        boundary = spec.get("boundary", "periodic")
        marks = tuple(spec["marks"])
        nu = np.asarray(spec["nu"], dtype=float)
        if len(marks) != len(nu):
            raise SpaceError("marks and nu length mismatch")
        if np.any(nu <= 0):
            raise SpaceError("nu weights must be strictly positive")
        lat = _lattice_points(d, R)
        points = tuple((xi, s) for xi in lat for s in marks)
        weights = np.array([nu[marks.index(s)] for _, s in points])
        return StateSpace(points, weights, "product",
                          dim=d, radius=R, boundary=boundary, marks=marks, nu=nu)
    raise SpaceError(f"unknown space type {kind!r}")


@dataclass(frozen=True)
class Kernel:
    """One birth-like kernel in any of the three representations.

    ``form`` is ``dense`` (matrix over points), ``stencil`` (map from
    lattice displacements to rates) or ``factorized`` (stencil ``alpha``
    on displacements times a strictly positive mark matrix ``Q``).
    """

    form: str
    matrix: np.ndarray | None = None
    stencil: dict | None = None     # tuple displacement -> rate
    Q: np.ndarray | None = None

    def __post_init__(self):
        if self.form == "dense":
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ModelError("dense kernel must be a square matrix")
            if not np.all(np.isfinite(m)) or np.any(m < 0):
                raise ModelError("kernel entries must be finite and non-negative")
            object.__setattr__(self, "matrix", m)
        elif self.form == "stencil":
            self._check_stencil()
        elif self.form == "factorized":
            self._check_stencil()
            Q = np.asarray(self.Q, dtype=float)
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise ModelError("mark kernel Q must be a square matrix")
            if np.any(Q <= 0):
                raise ModelError("factorized mark kernel Q must be strictly positive")
            object.__setattr__(self, "Q", Q)
        else:
            raise ModelError(f"unknown kernel form {self.form!r}")

    def _check_stencil(self):
        st = {tuple(int(c) for c in np.atleast_1d(k)): float(v)
              for k, v in self.stencil.items()}
        if not st:
            raise ModelError("empty stencil")
        if any(v < 0 or not np.isfinite(v) for v in st.values()):
            raise ModelError("stencil values must be finite and non-negative")
        object.__setattr__(self, "stencil", st)

    def scaled(self, factor: float) -> "Kernel":
        if self.form == "dense":
            return Kernel("dense", matrix=self.matrix * factor)
        if self.form == "stencil":
            return Kernel("stencil", stencil={k: v * factor for k, v in self.stencil.items()})
        return Kernel("factorized", stencil=dict(self.stencil), Q=self.Q * factor)


@dataclass(frozen=True)
class RateModel:
    """Birth kernel, per-point death rates and optional jump kernel."""

    birth: Kernel
    death: np.ndarray
    jump: Kernel | None = None
    death_marks: np.ndarray | None = None  # per-mark v(s) when death depends on marks only

    def __post_init__(self):
        V = np.asarray(self.death, dtype=float)
        if V.ndim != 1:
            raise ModelError("death rates must be a flat per-point array")
        if not np.all(np.isfinite(V)) or np.any(V <= 0):
            raise ModelError("death rates must be strictly positive and finite")
        object.__setattr__(self, "death", V)
        if self.death_marks is not None:
            object.__setattr__(self, "death_marks",
                               np.asarray(self.death_marks, dtype=float))

    def with_birth(self, birth: Kernel) -> "RateModel":
        return RateModel(birth=birth, death=self.death, jump=self.jump,
                         death_marks=self.death_marks)


def _mark_factor(kern: Kernel, space: StateSpace) -> np.ndarray:
    """The (nmark, nmark) mark factor of a lattice kernel: ``Q``, or ones for a
    stencil; a plain lattice has one mark."""
    nmark = len(space.marks) if space.structure == "product" else 1
    if kern.form != "factorized":
        return np.ones((nmark, nmark))
    if kern.Q.shape != (nmark, nmark):
        raise ModelError(f"mark kernel Q is {kern.Q.shape[0]}x{kern.Q.shape[1]} "
                         f"but the space has {nmark} mark(s)")
    return kern.Q


def kernel_matrix(kern: Kernel | None, space: StateSpace) -> np.ndarray:
    """Dense matrix A[i, j] = a(x_i, x_j) over the enumerated points.

    For stencil kernels on periodic windows displacements are wrapped to the
    minimal image; on unbounded windows edge rows simply lose mass (the
    window is a viewport, not the true space).
    """
    n = space.size
    if kern is None:
        return np.zeros((n, n))
    if kern.form == "dense":
        if kern.matrix.shape != (n, n):
            raise ModelError("dense kernel shape does not match space size")
        return kern.matrix.copy()
    if space.structure == "finite":
        raise ModelError(f"a {kern.form} kernel needs a lattice space")
    d, R = space.dim, space.radius
    width = 2 * R + 1
    Q = _mark_factor(kern, space)
    nmark = len(Q)
    # lattice coordinates in enumeration order (last axis fastest)
    y = np.indices((width,) * d).reshape(d, -1).T - R
    A = np.zeros((len(y), nmark, len(y), nmark))
    for disp, a in kern.stencil.items():
        if len(disp) != d:
            raise ModelError(f"stencil entry {disp} is not {d}-dimensional")
        x = y + disp
        if space.boundary == "periodic":
            # a minimal-image displacement x - y lies in [-R, R]^d
            if max(abs(c) for c in disp) > R:
                continue
            x = (x + R) % width - R
            src = np.arange(len(y))
        else:
            src = np.flatnonzero(np.all(np.abs(x) <= R, axis=1))
        dst = np.ravel_multi_index(tuple((x[src] + R).T), (width,) * d)
        A[dst, :, src, :] = a * Q
    return A.reshape(n, n)


# ---------------------------------------------------------------------------
# JSON model configuration
# ---------------------------------------------------------------------------

def _nearest_stencil(dim: int, rate: float) -> dict:
    """Uniform nearest-neighbour stencil with total mass ``rate``."""
    per = rate / (2 * dim)
    out = {}
    for axis in range(dim):
        for sign in (-1, 1):
            off = [0] * dim
            off[axis] = sign
            out[tuple(off)] = per
    return out


def _stencil_entries(d: dict, dim: int | None, key: str) -> dict:
    if d.get(key) == "nearest":
        if dim is None:
            raise ModelError("'nearest' stencil shorthand requires a lattice space")
        return _nearest_stencil(dim, float(d.get("rate", 1.0)))
    return {tuple(k): float(v) for k, v in d[key]}


def _kernel_from_dict(d: dict, dim: int | None = None) -> Kernel:
    form = d.get("form")
    if form == "dense":
        return Kernel("dense", matrix=np.asarray(d["matrix"], dtype=float))
    if form == "stencil":
        return Kernel("stencil", stencil=_stencil_entries(d, dim, "entries"))
    if form == "factorized":
        entries = _stencil_entries(d, dim, "alpha")
        return Kernel("factorized", stencil=entries, Q=np.asarray(d["Q"], dtype=float))
    raise ModelError(f"unknown kernel form {form!r}")


def _death_from_config(d, space: StateSpace):
    if isinstance(d, (int, float)):
        return np.full(space.size, float(d)), None
    if isinstance(d, dict) and "per_mark" in d:
        if space.structure != "product":
            raise ModelError("per-mark death rates require a product space")
        vm = np.asarray(d["per_mark"], dtype=float)
        if vm.shape != (len(space.marks),):
            raise ModelError("per-mark death rate length mismatch")
        V = np.array([vm[space.marks.index(p[1])] for p in space.points])
        return V, vm
    V = np.asarray(d, dtype=float)
    if V.shape != (space.size,):
        raise ModelError(f"{V.size} death rates for {space.size} points")
    return V, None


def model_from_dict(cfg: dict) -> tuple[StateSpace, RateModel]:
    """Build (space, model) from a parsed model-config dict."""
    if "space" not in cfg or "birth" not in cfg or "death" not in cfg:
        raise ModelError("model config needs 'space', 'birth' and 'death' keys")
    space = build_space(cfg["space"])
    dim = space.dim if space.structure in ("lattice", "product") else None
    birth = _kernel_from_dict(cfg["birth"], dim)
    death, death_marks = _death_from_config(cfg["death"], space)
    jump = _kernel_from_dict(cfg["jump"], dim) if cfg.get("jump") else None
    for kern in (birth, jump):
        if kern is not None and kern.form == "factorized":
            _mark_factor(kern, space)
    return space, RateModel(birth=birth, death=death, jump=jump,
                            death_marks=death_marks)


def load_model_config(path) -> tuple[StateSpace, RateModel]:
    with open(path) as fh:
        cfg = json.load(fh)
    return model_from_dict(cfg)
