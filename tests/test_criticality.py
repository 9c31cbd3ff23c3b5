"""Ground-state calibration and the transformed model."""

from dataclasses import replace

import numpy as np
import pytest

from contactlab import criticality, metrics
from contactlab.criticality import (calibrate, criticality_residual,
                                    ground_transform, perron_solve,
                                    rescale_to_critical, solve_ground_state,
                                    theta_kernel)
from contactlab.errors import ConvergenceError, ModelError, ReducibleKernelError
from contactlab.model import (Kernel, RateModel, build_space, kernel_matrix,
                              model_from_dict)
from contactlab.walkers import lattice_walk

from conftest import lattice_model, marked_model, nearest_stencil, random_finite_model
from reference import jump_criticality_residual, locate


def mark_oracle(Q, v, nu):
    """Dense eigen-solve of the mark problem: K q = r q with
    K[s, s'] = Q[s, s'] nu[s'] / v[s]; q normalized to sum q nu = 1."""
    Q, v, nu = map(np.asarray, (Q, v, nu))
    K = Q * nu[None, :] / v[:, None]
    w, Vv = np.linalg.eig(K)
    i = int(np.argmax(w.real))
    q = np.abs(Vv[:, i].real)
    q = q / float(q @ nu)
    return float(w[i].real), q


class TestSolveGroundState:
    def test_homogeneous_stencil(self):
        space, model = lattice_model(3)
        gs = solve_ground_state(model, space)
        assert np.allclose(gs.psi, 1.0)
        assert gs.eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_constant_Q_marked(self):
        space, model = marked_model(Q=[[1, 1], [1, 1]], v=[1, 1])
        gs = solve_ground_state(model, space)
        assert gs.eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(gs.q, 1.0, atol=1e-10)

    def test_marked_matches_dense_eig(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1, 1])
        gs = solve_ground_state(model, space)
        r_star, q_star = mark_oracle([[2, 1], [1, 2]], [1, 1], [0.5, 0.5])
        assert gs.eigenvalue == pytest.approx(r_star, abs=1e-10)
        assert np.allclose(gs.q, q_star, atol=1e-10)

    def test_marked_unequal_death_matches_oracle(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1, 3])
        gs = solve_ground_state(model, space)
        r_star, q_star = mark_oracle([[2, 1], [1, 2]], [1, 3], [0.5, 0.5])
        assert gs.eigenvalue == pytest.approx(r_star, abs=1e-10)
        assert np.allclose(gs.q, q_star, atol=1e-10)

    def test_marked_psi_constant_in_space(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1, 3])
        gs = solve_ground_state(model, space)
        for s in space.marks:
            vals = [gs.psi[locate(space, p)] for p in space.points if p[1] == s]
            assert np.ptp(vals) == 0.0

    def test_marked_normalization(self):
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1, 3])
        gs = solve_ground_state(model, space)
        assert float(gs.q @ space.nu) == pytest.approx(1.0, abs=1e-12)

    def test_reducible_kernel_rejected(self):
        space = build_space({"type": "finite", "points": [0, 1],
                             "weights": [1, 1]})
        A = np.array([[1.0, 0.0], [0.0, 1e-30]])
        model = RateModel(birth=Kernel("dense", matrix=A), death=np.ones(2))
        with pytest.raises(ReducibleKernelError):
            solve_ground_state(model, space)


def ring_operator(death, size=100):
    """T = A / V of the nearest-neighbour ring with rate 1/2 per neighbour."""
    A = np.zeros((size, size))
    idx = np.arange(size)
    A[idx, (idx + 1) % size] = A[idx, (idx - 1) % size] = 0.5
    return A / np.asarray(death)[:, None]


class TestPerronSolve:
    def test_bracket_holds_eigvals_root(self):
        rng = np.random.default_rng(3)
        T = rng.random((6, 6)) + 0.05
        lam, x, solves, (lo, hi) = perron_solve(T, tol=1e-12)
        root = float(np.max(np.linalg.eigvals(T).real))
        assert lo - 1e-14 <= root <= hi + 1e-14
        assert hi - lo <= 1e-12
        assert lam == pytest.approx(root, abs=1e-12)
        assert x.max() == 1.0 and np.all(x > 0)
        assert np.allclose(T @ x, lam * x, rtol=0, atol=1e-12)

    def test_bipartite_kernel_converges(self):
        # the root 1 has the eigenvalue -1 at the same modulus; power
        # iteration without a shift oscillates here
        T = np.array([[0.0, 1.0], [1.0, 0.0]])
        lam, x, solves, bracket = perron_solve(T, tol=1e-12)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(x, 1.0)

    def test_localized_eigenvector_certified(self):
        # death 1 + 0.6 U on the 100-point ring localizes psi (min/max about
        # 5e-9); the inverse-iteration vector still certifies the root
        U = np.random.default_rng(1).random(100)
        T = ring_operator(1.0 + 0.6 * U)
        lam, x, solves, (lo, hi) = perron_solve(T, tol=1e-12)
        assert x.min() < 1e-8
        assert solves <= 4
        assert hi - lo <= 1e-12 * hi
        root = float(np.max(np.linalg.eigvals(T).real))
        assert lo - 1e-14 <= root <= hi + 1e-14

    def test_non_simple_root_rejected(self):
        # two identical disconnected blocks: the root 1.2 is double, and
        # any positive combination of the block vectors is an eigenvector
        T = np.array([[.2, 1, 0, 0], [1, .2, 0, 0], [0, 0, .2, 1], [0, 0, 1, .2]])
        with pytest.raises(ReducibleKernelError, match="not simple"):
            perron_solve(T, tol=1e-12)
        space = build_space({"type": "finite", "points": [0, 1, 2, 3]})
        model = RateModel(birth=Kernel("dense", matrix=T), death=np.ones(4))
        with pytest.raises(ReducibleKernelError):
            calibrate(model, space)

    def test_uncertified_bracket_raises(self):
        # a spectral gap of 4e-10: the root is simple, but each solve cuts
        # the second eigenvector only by a factor of about 0.8, so the
        # bracket is not certified within the solve budget
        T = np.array([[1.0, 1e-10], [1e-10, 1.0 + 3e-10]])
        with pytest.raises(ConvergenceError, match="did not certify"):
            perron_solve(T, tol=1e-12)


class TestRescaleAndTransform:
    def test_rescale_halves_supercritical(self):
        space, model = lattice_model(3)
        doubled = model.with_birth(model.birth.scaled(2.0))
        gs = solve_ground_state(doubled, space)
        assert gs.eigenvalue == pytest.approx(2.0, abs=1e-10)
        crit = rescale_to_critical(doubled, gs)
        gs2 = solve_ground_state(crit, space)
        assert gs2.eigenvalue == pytest.approx(1.0, abs=1e-11)

    def test_rescale_critical_is_identity(self):
        # d = 1: the stencil mass 0.5 + 0.5 is exactly 1.0 in floating point
        space, model = lattice_model(1)
        gs = solve_ground_state(model, space)
        assert gs.eigenvalue == 1.0
        crit = rescale_to_critical(model, gs)
        assert crit.birth.stencil == model.birth.stencil

    def test_rescale_then_solve_near_one(self):
        rng = np.random.default_rng(11)
        space, model = random_finite_model(rng)
        gs = solve_ground_state(model, space)
        crit = rescale_to_critical(model, gs)
        gs2 = solve_ground_state(crit, space)
        assert abs(gs2.eigenvalue - 1.0) <= 1e-11

    def test_trivial_psi_transform(self):
        space, model = lattice_model(3)
        gs = solve_ground_state(model, space)
        tm = ground_transform(model, space, gs)
        A = kernel_matrix(model.birth, space)
        assert np.array_equal(tm.b, A)
        assert np.array_equal(tm.mbar, space.weights)

    def test_componentwise_transform(self):
        space = build_space({"type": "finite", "points": [0, 1],
                             "weights": [1.0, 1.0]})
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = RateModel(birth=Kernel("dense", matrix=A),
                          death=np.ones(2))
        from contactlab.criticality import GroundState
        gs = GroundState(psi=np.array([2.0, 0.5]), eigenvalue=1.0,
                         normalization="sup")
        tm = ground_transform(model, space, gs)
        assert np.allclose(tm.b, A / np.array([[2.0], [0.5]]))
        assert np.allclose(tm.mbar, np.array([2.0, 0.5]))

    def test_records_a_symmetric_birth_matrix(self):
        # reversible: the rescaled birth matrix a is symmetric, whatever psi
        # does to b = a / psi; a symmetric mark kernel Q on a symmetric
        # stencil counts, a random dense matrix does not
        A = np.array([[0.2, 1.0, 0.4], [1.0, 0.3, 0.6], [0.4, 0.6, 0.5]])
        space = build_space({"type": "finite", "points": [0, 1, 2],
                             "weights": [0.5, 1.0, 2.0]})
        dense = RateModel(birth=Kernel("dense", matrix=A), death=np.array([1.0, 1.5, 2.0]))
        cases = [((space, dense), True), (lattice_model(3), True), (marked_model(), True),
                 (marked_model(Q=[[2.0, 1.0], [0.5, 2.0]]), False),
                 (random_finite_model(np.random.default_rng(5)), False)]
        for (sp, model), reversible in cases:
            tm, _, _ = calibrate(model, sp)
            assert tm.reversible is reversible
        tm, _, _ = calibrate(dense, space)
        assert not np.array_equal(tm.b, tm.b.T)

    def test_birth_intensity_identity(self):
        rng = np.random.default_rng(5)
        space, model = random_finite_model(rng)
        tm, gs, _ = calibrate(model, space)
        A = kernel_matrix(rescale_to_critical(model,
                          solve_ground_state(model, space)).birth, space)
        lhs = tm.b * tm.mbar[None, :]
        rhs = A * (gs.psi * space.weights)[None, :] / gs.psi[:, None] * gs.psi[:, None]
        # b(y,x) mbar(y) = a(y,x) m(y) up to rounding: compare directly
        direct = A * space.weights[None, :] * (gs.psi[None, :] / gs.psi[:, None])
        assert np.allclose(lhs, direct, rtol=1e-14, atol=0.0)


class TestResiduals:
    def test_calibrated_residual_small(self):
        rng = np.random.default_rng(2)
        space, model = random_finite_model(rng)
        tm, gs, report = calibrate(model, space)
        assert report["criticality_residual"] <= 1e-10

    def test_stencil_with_unequal_death_is_dense(self):
        # psi is not constant, so the model is not translation invariant and
        # the residual is taken on the dense rows
        space = build_space({"type": "lattice", "d": 1, "R": 3,
                             "boundary": "periodic"})
        death = [1, 1.2, 0.9, 1.1, 1, 1.3, 0.8]
        model = RateModel(birth=Kernel("stencil", stencil=nearest_stencil(1)),
                          death=np.array(death))
        tm, gs, report = calibrate(model, space)
        assert not tm.translation_invariant
        assert report["criticality_residual"] <= 1e-10

        unbounded = build_space({"type": "lattice", "d": 1, "R": 3,
                                 "boundary": "unbounded"})
        with pytest.raises(ModelError):
            calibrate(model, unbounded)

    def test_residual_linear_in_scaling(self):
        space, model = lattice_model(3, boundary="periodic")
        tm, gs, _ = calibrate(model, space)
        inflated = tm.__class__(space=tm.space, b=tm.b * 1.1, mbar=tm.mbar,
                                death=tm.death, psi=tm.psi,
                                reversible=tm.reversible, alpha=None)
        resid = criticality_residual(inflated)
        assert resid == pytest.approx(0.1 * tm.death.max(), rel=1e-10)

    def test_row_stochastic_b_zero_residual(self):
        space = build_space({"type": "finite", "points": [0, 1, 2],
                             "weights": [1, 1, 1]})
        P = np.array([[0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.4, 0.4, 0.2]])
        from contactlab.criticality import TransformedModel
        tm = TransformedModel(space=space, b=P, mbar=np.ones(3),
                              death=np.ones(3), psi=np.ones(3), reversible=False)
        assert criticality_residual(tm) <= 1e-15

    def test_jump_residual_degenerate(self):
        rng = np.random.default_rng(9)
        space, model = random_finite_model(rng)
        gs = solve_ground_state(model, space)
        crit = rescale_to_critical(model, gs)
        gs = solve_ground_state(crit, space)
        withJ = RateModel(birth=crit.birth, death=crit.death,
                          jump=Kernel("dense", matrix=np.zeros((4, 4))))
        tm = ground_transform(crit, space, gs)
        assert jump_criticality_residual(withJ, space, gs) == pytest.approx(
            criticality_residual(tm), abs=1e-12)

    def test_jump_residual_symmetric_zero(self):
        space, model = lattice_model(3, boundary="periodic")
        gs = solve_ground_state(model, space)
        J = Kernel("stencil", stencil={k: 0.5 * v for k, v
                                       in nearest_stencil(3).items()})
        withJ = RateModel(birth=model.birth, death=model.death, jump=J)
        assert jump_criticality_residual(withJ, space, gs) <= 1e-12

    def test_jump_residual_matches_brute_force(self):
        rng = np.random.default_rng(13)
        space, model = random_finite_model(rng)
        J = rng.random((4, 4)) * 0.1
        withJ = RateModel(birth=model.birth, death=model.death,
                          jump=Kernel("dense", matrix=J))
        gs = solve_ground_state(model, space)
        A = kernel_matrix(model.birth, space)
        m = space.weights
        brute = max(
            abs(sum((A[i, j] + J[i, j]) * gs.psi[j] * m[j] for j in range(4))
                - (model.death[i] + sum(J[j, i] * m[j] for j in range(4)))
                * gs.psi[i])
            for i in range(4))
        assert jump_criticality_residual(withJ, space, gs) == pytest.approx(
            brute, abs=1e-12)


class TestCalibrate:
    def test_one_ground_state_solve(self, monkeypatch):
        cases = [random_finite_model(np.random.default_rng(21)),
                 marked_model(Q=[[2, 1], [1, 2]], v=[1, 3])]
        calls = []
        solve = criticality.perron_solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(criticality, "perron_solve", counted)
        for space, model in cases:
            calls.clear()
            with metrics.recording() as rec:
                _, gs, report = calibrate(model, space)
            assert len(calls) == 1
            assert report["iterations"] == solve_ground_state(model, space).iterations
            assert rec["counters"]["calibrate.solves"] == report["iterations"] >= 1
            lo, hi = gs.bracket
            assert rec["values"]["calibrate.bracket_width"] == hi - lo

    def test_bracket_certifies_rescaled_root(self):
        # the Collatz-Wielandt bracket holds the Perron root of the rescaled
        # operator: 21 random finite models and a periodic window with
        # unequal death
        rng = np.random.default_rng(23)
        cases = [random_finite_model(rng, size=2 + i % 7) for i in range(21)]
        ring = build_space({"type": "lattice", "d": 1, "R": 3, "boundary": "periodic"})
        cases.append((ring, RateModel(birth=Kernel("stencil", stencil=nearest_stencil(1)),
                                      death=np.array([1, 1.2, 0.9, 1.1, 1, 1.3, 0.8]))))
        for space, model in cases:
            tm, gs, _ = calibrate(model, space)
            crit = rescale_to_critical(model, solve_ground_state(model, space))
            T = kernel_matrix(crit.birth, space) * space.weights[None, :] / model.death[:, None]
            root = float(np.linalg.eigvals(T).real.max())
            lo, hi = gs.bracket
            assert lo - 1e-14 <= root <= hi + 1e-14
            assert hi - lo <= 1e-11
            assert criticality_residual(tm) <= 1e-10

    @pytest.mark.parametrize("boundary", ["periodic", "unbounded"])
    @pytest.mark.parametrize("death", [1.0, {"per_mark": [1.0, 3.0]}])
    def test_stencil_on_product_space(self, boundary, death):
        # a stencil is the multi-species model with Q = ones: its root is
        # mass sum(nu) / v for constant death, not the one-mark mass nu_0 / v
        space, model = model_from_dict({
            "space": {"type": "product", "d": 1, "R": 3, "boundary": boundary,
                      "marks": ["A", "B"], "nu": [0.5, 0.5]},
            "birth": {"form": "stencil", "entries": "nearest", "rate": 1.0},
            "death": death})
        tm, gs, report = calibrate(model, space)
        assert report["criticality_residual"] <= 1e-10
        if boundary == "periodic":
            T = tm.b * tm.mbar[None, :] / tm.death[:, None]
            assert abs(float(np.linalg.eigvals(T).real.max()) - 1.0) <= 1e-10


class TestThetaKernel:
    def test_constant_kernel(self):
        space, model = marked_model(Q=[[1, 1], [1, 1]], v=[1, 1])
        tm, gs, _ = calibrate(model, space)
        trans = theta_kernel(tm)
        assert np.allclose(trans, space.nu[None, :] / space.nu.sum())

    def test_rows_sum_to_one(self):
        for v in ([1, 1], [1, 3]):
            space, model = marked_model(Q=[[2, 1], [1, 2]], v=v)
            tm, gs, _ = calibrate(model, space)
            assert np.allclose(theta_kernel(tm).sum(axis=1), 1.0, atol=1e-12)

    def test_requires_marked(self, z3_critical):
        # a plain lattice is one mark, which Theta nu keeps; a dense model
        # has no mark kernel
        probs = theta_kernel(z3_critical)
        assert probs.shape == (1, 1) and probs[0, 0] == pytest.approx(1.0, abs=1e-12)
        space, model = random_finite_model(np.random.default_rng(5))
        tm, _, _ = calibrate(model, space)
        with pytest.raises(ModelError):
            theta_kernel(tm)

    def test_miscalibrated_law_rejected(self):
        # the one mass check of the mark law: rows within MASS_TOL of 1 are
        # divided by their mass, a row further off is a miscalibrated model,
        # which the walkers meet through theta_kernel
        space, model = marked_model(Q=[[2, 1], [1, 2]], v=[1, 3])
        tm, _, _ = calibrate(model, space)
        near = theta_kernel(replace(tm, Q=tm.Q * (1 + 0.1 * criticality.MASS_TOL)))
        assert np.abs(near.sum(axis=1) - 1.0).max() <= 1e-15
        bad = replace(tm, Q=tm.Q * (1 + 10 * criticality.MASS_TOL))
        for build in (theta_kernel, lattice_walk):
            with pytest.raises(ModelError, match="miscalibrated"):
                build(bad)
