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
from dataclasses import dataclass

import numpy as np

from .errors import ContactLabError, ModelError, SpaceError

__all__ = [
    "StateSpace",
    "Kernel",
    "RateModel",
    "build_space",
    "kernel_matrix",
    "model_from_dict",
    "window_symmetries",
]

# the keys of a model config and, per type or form, of its space and kernels
MODEL_KEYS = {"space", "birth", "death", "jump"}
SPACE_KEYS = {"finite": {"type", "points", "weights"},
              "lattice": {"type", "d", "R", "boundary"},
              "product": {"type", "d", "R", "boundary", "marks", "nu"}}
KERNEL_KEYS = {"dense": {"form", "matrix"},
               "stencil": {"form", "entries", "rate"},
               "factorized": {"form", "alpha", "rate", "Q"}}


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

    @property
    def size(self) -> int:
        return len(self.points)

    def coordinate(self, point):
        """Lattice coordinate of a point (the point itself on pure lattices)."""
        if self.structure == "product":
            return point[0]
        return point


def _lattice_points(d: int, R: int):
    return [tuple(p) for p in itertools.product(range(-R, R + 1), repeat=d)]


def build_space(spec: dict) -> StateSpace:
    """Build and validate a StateSpace from a description dict.

    ``spec["type"]`` selects the flavor; ``SPACE_KEYS`` lists the keys
    each accepts.
    """
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind not in SPACE_KEYS:
        raise SpaceError(f"unknown space type {kind!r}")
    _check_keys(spec, SPACE_KEYS[kind], f"{kind} space")
    if kind == "finite":
        points = tuple(spec["points"])
        weights = np.asarray(spec.get("weights", np.ones(len(points))), dtype=float)
        return StateSpace(points, weights, "finite")
    d, R = spec["d"], spec["R"]
    for key, val, low in (("d", d, 1), ("R", R, 0)):
        if not (isinstance(val, (int, np.integer)) and not isinstance(val, bool)
                and val >= low):
            raise SpaceError(f"lattice {key} must be an integer >= {low}, got {val!r}")
    boundary = spec.get("boundary", "periodic")
    if boundary not in ("periodic", "unbounded"):
        raise SpaceError(f"unknown boundary mode {boundary!r}")
    lat = _lattice_points(d, R)
    if kind == "lattice":
        return StateSpace(tuple(lat), np.ones(len(lat)), "lattice",
                          dim=d, radius=R, boundary=boundary)
    marks = tuple(spec["marks"])
    nu = np.asarray(spec["nu"], dtype=float)
    if len(marks) != len(nu):
        raise SpaceError("marks and nu length mismatch")
    if np.any(nu <= 0):
        raise SpaceError("nu weights must be strictly positive")
    points = tuple((xi, s) for xi in lat for s in marks)
    weights = np.array([nu[marks.index(s)] for _, s in points])
    return StateSpace(points, weights, "product",
                      dim=d, radius=R, boundary=boundary, marks=marks, nu=nu)


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

    def __post_init__(self):
        V = np.asarray(self.death, dtype=float)
        if V.ndim != 1:
            raise ModelError("death rates must be a flat per-point array")
        if not np.all(np.isfinite(V)) or np.any(V <= 0):
            raise ModelError("death rates must be strictly positive and finite")
        object.__setattr__(self, "death", V)

    def with_birth(self, birth: Kernel) -> "RateModel":
        return RateModel(birth=birth, death=self.death, jump=self.jump)


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


def _unique(a) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened: a plain ``np.unique``
    by one sort, without the ``np.ma.is_masked`` test that loads
    ``numpy.ma``."""
    a = np.sort(np.ravel(a))
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _symmetry_generators(steps: np.ndarray, step_probs: np.ndarray) -> list:
    """The single-axis reflections and axis transpositions that each map the
    step law onto itself exactly, as (d, d) signed permutation matrices."""
    d = steps.shape[1]
    on = step_probs != 0
    law = dict(zip(map(tuple, steps[on].tolist()), step_probs[on]))
    candidates = []
    for i in range(d):
        g = np.eye(d, dtype=np.int64)
        g[i, i] = -1
        candidates.append(g)
        for j in range(i + 1, d):
            g = np.eye(d, dtype=np.int64)
            g[[i, j]] = g[[j, i]]
            candidates.append(g)
    return [g for g in candidates
            if dict(zip(map(tuple, (steps[on] @ g).tolist()), step_probs[on])) == law]


def window_symmetries(model: RateModel, space: StateSpace) -> tuple:
    """Point permutations of the lattice or product window ``space``, as
    index arrays, one per single-axis reflection or axis transposition g
    (the point at lattice coordinate xi, mark s goes to xi g, s) that leaves
    ``model`` exactly invariant: its birth and jump stencils
    (``_symmetry_generators``), its death rates and the weights.  Empty on a
    finite space and for a dense kernel."""
    kernels = [k for k in (model.birth, model.jump) if k is not None]
    if space.structure == "finite" or any(k.form == "dense" for k in kernels):
        return ()
    d, R = space.dim, space.radius
    keys = None
    for kern in kernels:
        steps = np.array(list(kern.stencil), dtype=np.int64).reshape(-1, d)
        found = {g.tobytes(): g for g in
                 _symmetry_generators(steps, np.array(list(kern.stencil.values())))}
        keys = found if keys is None else {k: g for k, g in keys.items() if k in found}
    width = 2 * R + 1
    y = np.indices((width,) * d).reshape(d, -1).T - R
    nmark = space.size // len(y)
    perms = []
    for g in keys.values():
        lattice = np.ravel_multi_index(tuple((y @ g + R).T), (width,) * d)
        perm = (lattice[:, None] * nmark + np.arange(nmark)).ravel()
        if (np.array_equal(model.death[perm], model.death)
                and np.array_equal(space.weights[perm], space.weights)):
            perms.append(perm)
    return tuple(perms)


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

def _check_keys(spec: dict, allowed: set, what: str):
    """Every key of ``spec`` is one of ``allowed``."""
    unknown = set(spec) - allowed
    if unknown:
        raise ModelError(f"unknown {what} keys: {', '.join(sorted(map(str, unknown)))}")


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
    """The stencil of ``d[key]``: ``"nearest"`` with total mass ``rate``, or
    explicit ``[displacement, rate]`` entries, which take no ``rate``."""
    if d.get(key) == "nearest":
        if dim is None:
            raise ModelError("'nearest' stencil shorthand requires a lattice space")
        rate = d.get("rate", 1.0)
        if isinstance(rate, bool):
            raise ModelError(f"stencil rate must be a number, got {rate!r}")
        return _nearest_stencil(dim, float(rate))
    if "rate" in d:
        raise ModelError(f"'rate' scales only the 'nearest' shorthand; explicit "
                         f"'{key}' entries carry their own rates")
    entries = [(tuple(k), float(v)) for k, v in d[key]]
    stencil = dict(entries)
    if len(stencil) != len(entries):
        keys = [k for k, _ in entries]
        dups = [list(k) for k in stencil if keys.count(k) > 1]
        raise ModelError(f"stencil '{key}' repeats the displacements {dups}")
    return stencil


def _kernel_from_dict(d: dict, dim: int | None = None) -> Kernel:
    form = d.get("form") if isinstance(d, dict) else None
    if form not in KERNEL_KEYS:
        raise ModelError(f"unknown kernel form {form!r}")
    _check_keys(d, KERNEL_KEYS[form], f"{form} kernel")
    if form == "dense":
        return Kernel("dense", matrix=np.asarray(d["matrix"], dtype=float))
    if form == "stencil":
        return Kernel("stencil", stencil=_stencil_entries(d, dim, "entries"))
    entries = _stencil_entries(d, dim, "alpha")
    return Kernel("factorized", stencil=entries, Q=np.asarray(d["Q"], dtype=float))


def _death_from_config(d, space: StateSpace) -> np.ndarray:
    if isinstance(d, bool):
        raise ModelError(f"death rate must be a number, got {d!r}")
    if isinstance(d, (int, float)):
        return np.full(space.size, float(d))
    if isinstance(d, dict):
        _check_keys(d, {"per_mark"}, "death")
        if space.structure != "product":
            raise ModelError("per-mark death rates require a product space")
        vm = np.asarray(d["per_mark"], dtype=float)
        if vm.shape != (len(space.marks),):
            raise ModelError("per-mark death rate length mismatch")
        return np.array([vm[space.marks.index(p[1])] for p in space.points])
    V = np.asarray(d, dtype=float)
    if V.shape != (space.size,):
        raise ModelError(f"{V.size} death rates for {space.size} points")
    return V


def model_from_dict(cfg: dict) -> tuple[StateSpace, RateModel]:
    """Build (space, model) from a parsed model-config dict; an unknown key
    (see ``MODEL_KEYS``) or a malformed value is a ``ModelError``."""
    try:
        if not (isinstance(cfg, dict) and {"space", "birth", "death"} <= set(cfg)):
            raise ModelError("model config needs 'space', 'birth' and 'death' keys")
        _check_keys(cfg, MODEL_KEYS, "model")
        space = build_space(cfg["space"])
        dim = space.dim if space.structure in ("lattice", "product") else None
        birth = _kernel_from_dict(cfg["birth"], dim)
        death = _death_from_config(cfg["death"], space)
        jump = _kernel_from_dict(cfg["jump"], dim) if cfg.get("jump") else None
        for kern in (birth, jump):
            if kern is not None and kern.form == "factorized":
                _mark_factor(kern, space)
        return space, RateModel(birth=birth, death=death, jump=jump)
    except ContactLabError:
        raise
    except KeyError as exc:
        raise ModelError(f"model config is missing the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelError(f"malformed model config: {exc}") from exc
