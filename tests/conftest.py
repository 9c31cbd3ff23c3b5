"""Shared model builders for the test suite."""

import numpy as np
import pytest

from contactlab.criticality import calibrate
from contactlab.model import Kernel, RateModel, build_space, model_from_dict


def nearest_stencil(d, mass=1.0):
    """Nearest-neighbour stencil with total mass ``mass``."""
    per = mass / (2 * d)
    out = {}
    for axis in range(d):
        for sign in (-1, 1):
            off = [0] * d
            off[axis] = sign
            out[tuple(off)] = per
    return out


def lattice_model(d, R=1, boundary="unbounded"):
    """Homogeneous critical nearest-neighbour model on a Z^d window."""
    space = build_space({"type": "lattice", "d": d, "R": R,
                         "boundary": boundary})
    model = RateModel(birth=Kernel("stencil", stencil=nearest_stencil(d)),
                      death=np.ones(space.size))
    return space, model


def random_finite_model(rng, size=4):
    """Random strictly positive dense model on a weighted finite space."""
    space = build_space({"type": "finite",
                         "points": list(range(size)),
                         "weights": (rng.random(size) + 0.5).tolist()})
    A = rng.random((size, size)) + 0.2
    V = rng.random(size) + 0.5
    return space, RateModel(birth=Kernel("dense", matrix=A), death=V)


def marked_model(Q=None, v=None, d=1, R=1):
    """Factorized lattice x marks model."""
    Q = np.asarray(Q if Q is not None else [[2.0, 1.0], [1.0, 2.0]])
    v = np.asarray(v if v is not None else [1.0, 1.0], dtype=float)
    space = build_space({"type": "product", "d": d, "R": R,
                         "boundary": "unbounded",
                         "marks": ["A", "B"], "nu": [0.5, 0.5]})
    model = RateModel(birth=Kernel("factorized",
                                   stencil=nearest_stencil(d), Q=Q),
                      death=np.array([v[space.marks.index(p[1])]
                                      for p in space.points]))
    return space, model


@pytest.fixture
def z3_critical():
    space, model = lattice_model(3)
    tm, gs, report = calibrate(model, space)
    return tm


@pytest.fixture
def z1_critical():
    space, model = lattice_model(1)
    tm, gs, report = calibrate(model, space)
    return tm


@pytest.fixture
def finite4_critical():
    rng = np.random.default_rng(7)
    space, model = random_finite_model(rng, size=4)
    tm, gs, report = calibrate(model, space)
    return tm
