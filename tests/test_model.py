"""State spaces, kernels, and model validation."""

import numpy as np
import pytest

from contactlab.errors import ModelError, SpaceError
from contactlab.model import (Kernel, RateModel, _unique, build_space, kernel_matrix,
                              model_from_dict, window_symmetries)

from conftest import nearest_stencil
from reference import locate


class TestBuildSpace:
    def test_finite_counting_measure(self):
        sp = build_space({"type": "finite", "points": [0, 1, 2],
                          "weights": [1, 1, 1]})
        assert sp.size == 3
        assert sp.weights.sum() == 3.0

    def test_lattice_window_periodic(self):
        sp = build_space({"type": "lattice", "d": 3, "R": 1,
                          "boundary": "periodic"})
        assert sp.size == 27
        assert np.all(sp.weights == 1.0)

    def test_product_space(self):
        sp = build_space({"type": "product", "d": 1, "R": 1,
                          "boundary": "unbounded",
                          "marks": ["A", "B"], "nu": [0.5, 0.5]})
        assert sp.size == 6
        assert np.all(sp.weights == 0.5)

    def test_product_weights_marginalize(self):
        sp = build_space({"type": "product", "d": 1, "R": 1,
                          "boundary": "unbounded",
                          "marks": ["A", "B"], "nu": [0.3, 0.7]})
        for xi in (-1, 0, 1):
            mass = sum(sp.weights[locate(sp, ((xi,), s))] for s in ("A", "B"))
            assert mass == pytest.approx(1.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(SpaceError):
            build_space({"type": "finite", "points": [0, 1],
                         "weights": [1.0, 0.0]})

    def test_rejects_duplicates(self):
        with pytest.raises(SpaceError):
            build_space({"type": "finite", "points": [0, 0],
                         "weights": [1.0, 1.0]})

    def test_rejects_empty(self):
        with pytest.raises(SpaceError):
            build_space({"type": "finite", "points": [], "weights": []})

    @pytest.mark.parametrize("d, R", [(0, 1), (-1, 1), (1, -1), (2.7, 1.9), (2.0, 1),
                                      (True, 1), ("2", 1), (None, 1)])
    def test_rejects_unusable_lattice_size(self, d, R):
        for kind, extra in (("lattice", {}), ("product", {"marks": ["A"], "nu": [1.0]})):
            with pytest.raises(SpaceError, match="integer"):
                build_space({"type": kind, "d": d, "R": R, **extra})

    def test_zero_radius_is_one_point(self):
        assert build_space({"type": "lattice", "d": 2, "R": 0}).points == ((0, 0),)

    def test_periodic_displacement_wraps(self):
        sp = build_space({"type": "lattice", "d": 1, "R": 2,
                          "boundary": "periodic"})
        K = kernel_matrix(Kernel("stencil", stencil={(-1,): 0.25, (1,): 0.75}), sp)
        # (2,) - (-2,) = 4 wraps to the minimal image -1
        assert K[locate(sp, (2,)), locate(sp, (-2,))] == 0.25

    def test_product_enumeration_row_major(self):
        sp = build_space({"type": "product", "d": 1, "R": 1,
                          "boundary": "unbounded",
                          "marks": ["A", "B"], "nu": [0.5, 0.5]})
        assert sp.points[0] == ((-1,), "A")
        assert sp.points[1] == ((-1,), "B")


def loop_kernel_matrix(kern, space):
    """Point-pair double loop over minimal-image displacements (the oracle)."""
    A = np.zeros((space.size, space.size))
    for i, x in enumerate(space.points):
        for j, y in enumerate(space.points):
            disp = np.subtract(space.coordinate(x), space.coordinate(y))
            if space.boundary == "periodic":
                disp = (disp + space.radius) % (2 * space.radius + 1) - space.radius
            a = kern.stencil.get(tuple(int(u) for u in np.atleast_1d(disp)), 0.0)
            if kern.form == "factorized":
                a *= kern.Q[space.marks.index(x[1]), space.marks.index(y[1])]
            A[i, j] = a
    return A


SKEWED_2D = {(1, 0): 0.3, (-1, 0): 0.1, (0, 1): 0.25, (0, -2): 0.15,
             (1, 1): 0.05, (0, 0): 0.15}


class TestKernelEval:
    """Kernel entries a(x_i, x_j) as kernel_matrix assembles them."""

    @pytest.mark.parametrize("spec, kern", [
        ({"type": "lattice", "d": 2, "R": 2, "boundary": "unbounded"},
         Kernel("stencil", stencil=SKEWED_2D)),
        ({"type": "lattice", "d": 2, "R": 2, "boundary": "periodic"},
         Kernel("stencil", stencil=SKEWED_2D)),
        # narrower than the stencil: the (0, -2) entry is never a minimal image
        ({"type": "lattice", "d": 2, "R": 1, "boundary": "periodic"},
         Kernel("stencil", stencil=SKEWED_2D)),
        ({"type": "product", "d": 1, "R": 2, "boundary": "unbounded",
          "marks": ["A", "B", "C"], "nu": [0.2, 0.3, 0.5]},
         Kernel("factorized", stencil={(1,): 0.6, (-2,): 0.4},
                Q=[[1.0, 2.0, 0.5], [3.0, 1.5, 1.0], [0.7, 0.2, 2.5]])),
        ({"type": "product", "d": 2, "R": 1, "boundary": "periodic",
          "marks": ["A", "B"], "nu": [0.5, 0.5]},
         Kernel("stencil", stencil=SKEWED_2D)),
    ])
    def test_matches_point_pair_loop(self, spec, kern):
        sp = build_space(spec)
        assert np.array_equal(kernel_matrix(kern, sp), loop_kernel_matrix(kern, sp))

    def test_dense_lookup(self):
        sp = build_space({"type": "finite", "points": [0, 1],
                          "weights": [1, 1]})
        A = np.array([[0.0, 2.5], [1.0, 0.0]])
        assert kernel_matrix(Kernel("dense", matrix=A), sp)[0, 1] == 2.5

    def test_nearest_neighbour_stencil(self):
        sp = build_space({"type": "lattice", "d": 3, "R": 1,
                          "boundary": "unbounded"})
        K = kernel_matrix(Kernel("stencil", stencil=nearest_stencil(3)), sp)
        o = locate(sp, (0, 0, 0))
        assert K[o, locate(sp, (1, 0, 0))] == pytest.approx(1 / 6)
        assert K[o, locate(sp, (1, 1, 0))] == 0.0

    def test_factorized_product(self):
        sp = build_space({"type": "product", "d": 1, "R": 1,
                          "boundary": "unbounded",
                          "marks": ["A", "B"], "nu": [0.5, 0.5]})
        K = kernel_matrix(Kernel("factorized", stencil={(0,): 0.3},
                                 Q=[[1.0, 2.0], [2.0, 1.0]]), sp)
        assert K[locate(sp, ((0,), "A")), locate(sp, ((0,), "B"))] == pytest.approx(0.6)

    def test_even_stencil_symmetric(self):
        sp = build_space({"type": "lattice", "d": 2, "R": 1,
                          "boundary": "unbounded"})
        K = kernel_matrix(Kernel("stencil", stencil=nearest_stencil(2)), sp)
        assert np.array_equal(K, K.T)

    def test_unknown_point(self):
        sp = build_space({"type": "finite", "points": [0, 1],
                          "weights": [1, 1]})
        with pytest.raises(SpaceError):
            locate(sp, 99)


class TestValidateModel:
    def test_constant_death_passes(self):
        m = RateModel(birth=Kernel("dense", matrix=np.ones((3, 3))),
                      death=np.ones(3))
        assert m.death.min() == m.death.max() == 1.0

    def test_nonpositive_death_flagged(self):
        for death in ([1.0, 0.0, 2.0], [1.0, np.inf, 2.0]):
            with pytest.raises(ModelError):
                RateModel(birth=Kernel("dense", matrix=np.ones((3, 3))),
                          death=np.array(death))

    def test_row_mass_nearest_neighbour(self):
        sp = build_space({"type": "lattice", "d": 3, "R": 1,
                          "boundary": "periodic"})
        K = kernel_matrix(Kernel("stencil", stencil=nearest_stencil(3)), sp)
        assert np.allclose(K.T @ sp.weights, 1.0)


class TestWindowSymmetries:
    """The exact symmetries of a model on its window, as point permutations."""

    @staticmethod
    def symmetries(stencil, d=2, R=2, boundary="unbounded", death=None, jump=None):
        space = build_space({"type": "lattice", "d": d, "R": R, "boundary": boundary})
        V = np.ones(space.size) if death is None else death(np.array(space.points))
        model = RateModel(birth=Kernel("stencil", stencil=stencil), death=V,
                          jump=None if jump is None else Kernel("stencil", stencil=jump))
        return space, window_symmetries(model, space)

    def test_each_permutation_keeps_the_kernel_and_death(self):
        # the kernel matrix and the death rates are invariant, entry by entry
        stencil = {(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.2, (0, -1): 0.2, (1, 1): 0.1,
                   (-1, -1): 0.1, (1, -1): 0.1, (-1, 1): 0.1}
        death = lambda x: 1.0 + np.abs(x).sum(axis=1)   # noqa: E731
        for boundary in ("unbounded", "periodic"):
            space, perms = self.symmetries(stencil, boundary=boundary, death=death)
            assert len(perms) == 3
            A = kernel_matrix(Kernel("stencil", stencil=stencil), space)
            V = death(np.array(space.points))
            for g in perms:
                assert sorted(g) == list(range(space.size))
                assert np.array_equal(A[np.ix_(g, g)], A) and np.array_equal(V[g], V)

    @pytest.mark.parametrize("stencil, death, jump, count", [
        (nearest_stencil(2), None, None, 3),
        # each axis its own rate: the reflections only
        ({(1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.2, (0, -1): 0.2}, None, None, 2),
        # a drift along x: the y reflection only
        ({(1, 0): 0.3, (-1, 0): 0.1, (0, 1): 0.2, (0, -1): 0.2}, None, None, 1),
        # a death rate that grows along x
        (nearest_stencil(2), lambda x: 2.0 + 0.1 * x[:, 0], None, 1),
        # a jump kernel along x only keeps the reflections
        (nearest_stencil(2), None, {(1, 0): 0.1, (-1, 0): 0.1}, 2),
    ])
    def test_generators_kept(self, stencil, death, jump, count):
        _, perms = self.symmetries(stencil, death=death, jump=jump)
        assert len(perms) == count

    def test_product_window_keeps_marks(self):
        space = build_space({"type": "product", "d": 1, "R": 2, "boundary": "unbounded",
                             "marks": ["A", "B"], "nu": [0.5, 1.5]})
        model = RateModel(birth=Kernel("factorized", stencil=nearest_stencil(1),
                                       Q=[[2.0, 1.0], [1.0, 2.0]]),
                          death=np.tile([1.0, 3.0], 5))
        [g] = window_symmetries(model, space)
        assert [space.points[i] for i in g] == [((-x,), s) for (x,), s in space.points]

    def test_none_off_the_lattice_or_for_dense_kernels(self):
        finite = build_space({"type": "finite", "points": [0, 1]})
        dense = RateModel(birth=Kernel("dense", matrix=np.ones((2, 2))), death=np.ones(2))
        assert window_symmetries(dense, finite) == ()
        window = build_space({"type": "lattice", "d": 1, "R": 1})
        dense = RateModel(birth=Kernel("dense", matrix=np.ones((3, 3))), death=np.ones(3))
        assert window_symmetries(dense, window) == ()


@pytest.mark.parametrize("a", [np.array([], dtype=np.int64), np.array([3, 1, 3, -2, 1]),
                               np.random.default_rng(72).integers(-40, 40, (30, 7)),
                               np.array([0.5, 2.0, 0.5, 1.0])])
def test_unique_is_np_unique(a):
    assert np.array_equal(_unique(a), np.unique(a))


class TestModelFromDict:
    def test_round_trip(self, tmp_path):
        cfg = {"space": {"type": "lattice", "d": 3, "R": 1,
                         "boundary": "unbounded"},
               "birth": {"form": "stencil", "entries": "nearest", "rate": 1.0},
               "death": 1.0}
        sp, m = model_from_dict(cfg)
        assert sp.size == 27
        K = kernel_matrix(m.birth, sp)
        assert K[locate(sp, (0, 0, 0)), locate(sp, (1, 0, 0))] == pytest.approx(1 / 6)

    def test_missing_keys(self):
        with pytest.raises(ModelError):
            model_from_dict({"space": {"type": "finite", "points": [0],
                                       "weights": [1]}})

    def test_death_length_mismatch(self):
        with pytest.raises(ModelError):
            model_from_dict({"space": {"type": "finite", "points": [0, 1]},
                             "birth": {"form": "dense", "matrix": np.ones((2, 2))},
                             "death": [1.0, 1.0, 1.0]})

    def test_per_mark_death(self):
        cfg = {"space": {"type": "product", "d": 1, "R": 1,
                         "boundary": "unbounded",
                         "marks": ["A", "B"], "nu": [0.5, 0.5]},
               "birth": {"form": "factorized", "alpha": "nearest",
                         "Q": [[2, 1], [1, 2]]},
               "death": {"per_mark": [1.0, 3.0]}}
        sp, m = model_from_dict(cfg)
        assert m.death[locate(sp, ((0,), "B"))] == 3.0

    @pytest.mark.parametrize("form, key", [("stencil", "entries"), ("factorized", "alpha")])
    def test_duplicate_displacement_rejected(self, form, key):
        # a dict would keep the last 0.5 at +1 and calibrate to r = 1.0, not 1.5
        kern = {"form": form, key: [[[1], 0.5], [[1], 0.5], [[-1], 0.5]]}
        if form == "factorized":
            kern["Q"] = [[1.0]]
        cfg = {"space": {"type": "lattice", "d": 1, "R": 2, "boundary": "unbounded"},
               "birth": kern, "death": 1.0}
        with pytest.raises(ModelError, match=r"repeats the displacements \[\[1\]\]"):
            model_from_dict(cfg)

    @pytest.mark.parametrize("kern, death", [
        # explicit entries carry their own rates: a rate next to them would be
        # dropped ({+-1: 0.2}, where "nearest" at rate 4 is {+-1: 2.0})
        ({"form": "stencil", "entries": [[[1], 0.2], [[-1], 0.2]], "rate": 4.0}, 1.0),
        ({"form": "factorized", "alpha": [[[1], 0.2], [[-1], 0.2]], "rate": 4.0,
          "Q": [[1.0]]}, 1.0),
        # a boolean is no number: it would become 1.0
        ({"form": "stencil", "entries": "nearest", "rate": True}, 1.0),
        ({"form": "stencil", "entries": "nearest"}, True),
    ])
    def test_dropped_or_coerced_numbers_rejected(self, kern, death):
        cfg = {"space": {"type": "lattice", "d": 1, "R": 2, "boundary": "unbounded"},
               "birth": kern, "death": death}
        with pytest.raises(ModelError):
            model_from_dict(cfg)

    def test_nearest_rate_scales_the_stencil(self):
        cfg = {"space": {"type": "lattice", "d": 1, "R": 2, "boundary": "unbounded"},
               "birth": {"form": "stencil", "entries": "nearest", "rate": 4.0},
               "death": 2}
        _, m = model_from_dict(cfg)
        assert m.birth.stencil == {(-1,): 2.0, (1,): 2.0}
        assert np.array_equal(m.death, np.full(5, 2.0))

    def test_mark_kernel_shape_mismatch(self):
        cfg = {"space": {"type": "product", "d": 1, "R": 1,
                         "boundary": "unbounded",
                         "marks": ["A", "B"], "nu": [0.5, 0.5]},
               "birth": {"form": "factorized", "alpha": "nearest",
                         "Q": np.ones((3, 3)).tolist()},
               "death": {"per_mark": [1.0, 3.0]}}
        with pytest.raises(ModelError, match="Q is 3x3 but the space has 2"):
            model_from_dict(cfg)
        kern = Kernel("factorized", stencil=nearest_stencil(1), Q=np.ones((3, 3)))
        with pytest.raises(ModelError, match="Q is 3x3 but the space has 2"):
            kernel_matrix(kern, build_space(cfg["space"]))
