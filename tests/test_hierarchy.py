"""Correlation hierarchy: operators, evolution, stationary solutions."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm, schur

from contactlab import hierarchy, metrics
from contactlab.criticality import TransformedModel, calibrate
from contactlab.errors import DivergenceError, ModelError
from contactlab.hierarchy import (_augmented_generator, bound_constant_D,
                                  evolve_hierarchy,
                                  factorial_bound_check, generator_matrix,
                                  poisson_initial, source_f,
                                  stationary_k, stationary_pair_mc)
from contactlab.model import Kernel, RateModel, build_space, kernel_matrix

from conftest import lattice_model, marked_model, nearest_stencil, random_finite_model
from reference import (apply_Lhat, convergence_check, fixpoint_canonical_cells,
                       semigroup_apply, sorted_index_cells)
from contactlab.walkers import lattice_walk, pair_integral_curves, pair_limit


def kron_sum_matrix(G, n):
    """Independently built matrix of the order-n operator: sum over axes of
    G acting on one coordinate (Kronecker sum)."""
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


def augmented_matrix(tm, N):
    """Dense generator of (vec k_1, ..., vec k_N), built independently:
    Kronecker sums on the diagonal, source_f of each unit tensor below it."""
    G = generator_matrix(tm)
    size = len(G)
    off = np.cumsum([0] + [size ** n for n in range(1, N + 1)])
    M = np.zeros((off[-1], off[-1]))
    for n in range(1, N + 1):
        M[off[n - 1]:off[n], off[n - 1]:off[n]] = kron_sum_matrix(G, n)
        if n > 1:
            for c, e in enumerate(np.eye(size ** (n - 1))):
                unit = e.reshape((size,) * (n - 1))
                M[off[n - 1]:off[n], off[n - 2] + c] = source_f(n, tm, unit).ravel()
    return M


def dissipative_tm(rng, size=3, leak=0.5):
    """Strictly subcritical transformed model (integrals converge)."""
    space, model = random_finite_model(rng, size=size)
    tm, gs, _ = calibrate(model, space)
    return tm.__class__(space=tm.space, b=tm.b * (1.0 - leak), mbar=tm.mbar,
                        death=tm.death, psi=tm.psi, reversible=tm.reversible)


def reversible_tm():
    """Critical dense model with a symmetric birth matrix and unequal death
    rates and weights: a reversible kernel whose psi varies about tenfold."""
    rng = np.random.default_rng(23)
    A = rng.random((5, 5))
    space = build_space({"type": "finite", "points": list(range(5)),
                         "weights": [0.2, 1.0, 3.0, 0.5, 2.0]})
    model = RateModel(birth=Kernel("dense", matrix=A + A.T),
                      death=np.array([0.5, 1.0, 4.0, 1.5, 0.8]))
    tm, _, _ = calibrate(model, space)
    assert tm.reversible and tm.psi.max() > 10 * tm.psi.min()
    return tm


class TestOperators:
    def test_criticality_kills_constants(self, finite4_critical):
        k = np.full((4, 4), 3.7)
        out = apply_Lhat(2, finite4_critical, k)
        assert np.abs(out).max() <= 1e-10

    def test_n1_matches_matrix_product(self, finite4_critical):
        tm = finite4_critical
        G = generator_matrix(tm)
        k = np.array([1.0, 0.0, 0.0, 0.0])
        out = apply_Lhat(1, tm, k)
        assert np.allclose(out, G @ k, atol=1e-14)

    def test_kronecker_sum_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            space, model = random_finite_model(rng, size=3)
            tm, _, _ = calibrate(model, space)
            G = generator_matrix(tm)
            for n in (2, 3):
                k = rng.random((3,) * n)
                out = apply_Lhat(n, tm, k)
                oracle = (kron_sum_matrix(G, n) @ k.ravel()).reshape(k.shape)
                assert np.abs(out - oracle).max() <= 1e-13

    def test_source_two_terms(self, finite4_critical):
        tm = finite4_critical
        rho = 0.7
        f = source_f(2, tm, np.full(4, rho))
        expect = rho * (tm.b + tm.b.T)
        assert np.allclose(f, expect, atol=1e-14)

    def test_source_zero_kernel(self, finite4_critical):
        tm = finite4_critical
        zero_tm = tm.__class__(space=tm.space, b=np.zeros_like(tm.b),
                               mbar=tm.mbar, death=tm.death, psi=tm.psi,
                               reversible=True)
        f = source_f(2, zero_tm, np.full(4, 0.5))
        assert np.all(f == 0.0)

    def test_source_triple_loop_oracle(self):
        rng = np.random.default_rng(31)
        space, model = random_finite_model(rng, size=2)
        tm, _, _ = calibrate(model, space)
        k2 = rng.random((2, 2))
        k2 = 0.5 * (k2 + k2.T)
        f = source_f(3, tm, k2)
        oracle = np.zeros((2, 2, 2))
        for idx in itertools.product(range(2), repeat=3):
            total = 0.0
            for i in range(3):
                rest = tuple(idx[j] for j in range(3) if j != i)
                total += k2[rest] * sum(tm.b[idx[i], idx[j]]
                                        for j in range(3) if j != i)
            oracle[idx] = total
        assert np.abs(f - oracle).max() <= 1e-14

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(41)
        space, model = random_finite_model(rng, size=3)
        tm, _, _ = calibrate(model, space)
        sym = rng.random((3, 3, 3))
        sym = sum(np.transpose(sym, p) for p in itertools.permutations(range(3)))
        out = apply_Lhat(3, tm, sym)
        k2 = rng.random((3, 3))
        k2 = 0.5 * (k2 + k2.T)
        f = source_f(3, tm, k2)
        for p in itertools.permutations(range(3)):
            assert np.abs(out - np.transpose(out, p)).max() <= 1e-12
            assert np.abs(f - np.transpose(f, p)).max() <= 1e-12

    def test_order_mismatch(self, finite4_critical):
        with pytest.raises(ModelError):
            apply_Lhat(2, finite4_critical, np.ones(4))
        with pytest.raises(ModelError):
            source_f(2, finite4_critical, np.ones((4, 4)))


class TestSemigroup:
    def test_positivity_and_constants(self):
        rng = np.random.default_rng(55)
        space, model = random_finite_model(rng, size=4)
        tm, _, _ = calibrate(model, space)
        ones = np.ones((4, 4))
        for t in (0.1, 1.0, 10.0):
            out = semigroup_apply(tm, t, ones)
            assert np.abs(out - 1.0).max() <= 1e-10
            k = rng.random((4, 4))
            kt = semigroup_apply(tm, t, k)
            assert kt.min() >= -1e-12

    def test_pure_birth_lower_bound(self):
        # semigroup at time t dominates exp(-t Vmax) * (pure-birth semigroup)
        rng = np.random.default_rng(66)
        space, model = random_finite_model(rng, size=3)
        tm, _, _ = calibrate(model, space)
        B = tm.b * tm.mbar[None, :]
        vmax = tm.death.max()
        t = 0.7
        Ebirth = expm(t * B)
        E = expm(t * generator_matrix(tm))
        for _ in range(5):
            f = rng.random(3)
            assert np.all(E @ f >= np.exp(-t * vmax) * (Ebirth @ f) - 1e-12)


class TestEvolve:
    def test_closed_form_matches_dense_expm(self):
        # a reversible kernel at N <= 2 evolves in closed form in the
        # eigenbasis of G: on an unbounded window (psi constant) and on a
        # dense model whose psi varies, from random initial data, on a uniform
        # grid and on one with t = 0 and a repeated time
        space, model = lattice_model(2)
        cases = [calibrate(model, space)[0], reversible_tm()]
        rng = np.random.default_rng(29)
        for tm in cases:
            size = tm.space.size
            for N in (1, 2):
                M = augmented_matrix(tm, N)
                k0 = [rng.random((size,) * n) for n in range(1, N + 1)]
                z0 = np.concatenate([k.ravel() for k in k0])
                for times in (np.linspace(0.0, 2.0, 9), [0.0, 0.1, 0.35, 0.4, 0.4, 1.7, 3.0]):
                    with metrics.recording() as rec:
                        res = evolve_hierarchy(tm, k0, times)
                    assert rec["counters"] == {"evolve.eigh": 1}
                    for i, t in enumerate(times):
                        got = np.concatenate([res[n][1][i].ravel()
                                              for n in range(1, N + 1)])
                        assert np.abs(got - expm(t * M) @ z0).max() <= 1e-12

    def test_closed_form_symmetric_only_from_symmetric_data(self):
        # Poisson k_2(0) gives an exactly symmetric k_2(t); a non-symmetric
        # k_2(0) keeps the asymmetry of its exact evolution
        tm = reversible_tm()
        times = np.linspace(0.0, 1.0, 5)
        _, k2 = evolve_hierarchy(tm, [poisson_initial(n, 0.5, tm.space)
                                      for n in (1, 2)], times)[2]
        assert np.array_equal(k2, k2.transpose(0, 2, 1))
        rng = np.random.default_rng(31)
        k0 = [rng.random(5), rng.random((5, 5))]
        _, k2 = evolve_hierarchy(tm, k0, times)[2]
        exact = (expm(times[-1] * augmented_matrix(tm, 2))
                 @ np.concatenate([k.ravel() for k in k0]))[5:].reshape(5, 5)
        assert np.abs(exact - exact.T).max() > 1e-3
        assert np.abs(k2[-1] - exact).max() <= 1e-12

    def test_other_inputs_take_expm_multiply(self):
        # N = 3, a non-reversible kernel, and N = 2 past CLOSED_FORM_POINTS
        rev, other = reversible_tm(), dissipative_tm(np.random.default_rng(3))
        space, model = lattice_model(1, R=hierarchy.CLOSED_FORM_POINTS // 2)
        wide = calibrate(model, space)[0]
        assert not other.reversible and wide.reversible
        for tm, N in ((rev, 3), (other, 2), (wide, 2)):
            k0 = [poisson_initial(n, 0.5, tm.space) for n in range(1, N + 1)]
            with metrics.recording() as rec:
                evolve_hierarchy(tm, k0, [0.0, 0.5])
            assert rec["counters"] == {"evolve.expm_multiply_calls": 2}

    def test_trajectory_cap(self, monkeypatch):
        # len(times) * (size + size^2) entries: 3 * 20 on four points
        tm = dissipative_tm(np.random.default_rng(3), size=4)
        k0 = [poisson_initial(n, 0.5, tm.space) for n in (1, 2)]
        monkeypatch.setattr(hierarchy, "EVOLVE_CAP", 60)
        evolve_hierarchy(tm, k0, [0.0, 0.5, 1.0])
        with pytest.raises(ModelError, match="EVOLVE_CAP"):
            evolve_hierarchy(tm, k0, [0.0, 0.5, 1.0, 1.5])

    def test_constant_k1_stationary(self, finite4_critical):
        k0 = poisson_initial(1, 0.8, finite4_critical.space)
        grid = np.linspace(0.0, 5.0, 101)
        times, traj = evolve_hierarchy(finite4_critical, [k0], grid)[1]
        assert np.abs(traj - 0.8).max() <= 1e-10

    def test_matches_dense_expm(self):
        # random critical models, N = 2 and 3, uniform and non-uniform grids
        rng = np.random.default_rng(17)
        for size in (2, 3, 4):
            space, model = random_finite_model(rng, size=size)
            tm, _, _ = calibrate(model, space)
            for N in (2, 3):
                M = augmented_matrix(tm, N)
                k0 = [rng.random((size,) * n) for n in range(1, N + 1)]
                z0 = np.concatenate([k.ravel() for k in k0])
                for times in (np.linspace(0.0, 2.0, 5), [0.1, 0.35, 0.4, 0.4, 1.7, 3.0]):
                    res = evolve_hierarchy(tm, k0, times)
                    for i, t in enumerate(times):
                        got = np.concatenate([res[n][1][i].ravel()
                                              for n in range(1, N + 1)])
                        assert np.abs(got - expm(t * M) @ z0).max() <= 1e-12

    def test_generator_blocks(self):
        # diagonal blocks apply Lhat_n, the blocks below them f_n; all others are 0
        rng = np.random.default_rng(18)
        cases = [random_finite_model(rng, size=s) for s in (2, 3, 4)]
        cases.append(lattice_model(1, R=2, boundary="periodic"))
        for space, model in cases:
            tm, _, _ = calibrate(model, space)
            size = space.size
            A = _augmented_generator(tm, 3)
            off = np.cumsum([0, size, size ** 2, size ** 3])
            for r in range(3):
                for c in range(3):
                    block = A[off[r]:off[r + 1], off[c]:off[c + 1]]
                    k = rng.random((size,) * (c + 1))
                    if r == c:
                        expect = apply_Lhat(r + 1, tm, k)
                    elif r == c + 1:
                        expect = source_f(r + 1, tm, k)
                    else:
                        assert block.count_nonzero() == 0
                        continue
                    assert np.abs(block @ k.ravel() - expect.ravel()).max() <= 1e-13

    def test_global_rng_does_not_change_result(self):
        # at h |A|_1 > 63 expm_multiply estimates the 1-norms of powers of A,
        # drawing from the global np.random stream; T = 60 on this model
        # takes that branch
        rng = np.random.default_rng(19)
        space, model = random_finite_model(rng, size=6)
        tm, _, _ = calibrate(model, space)
        k0 = [poisson_initial(n, 0.5, space) for n in (1, 2)]
        runs = []
        for seed in (1, 2):
            np.random.seed(seed)
            res = evolve_hierarchy(tm, k0, [0.0, 60.0])
            runs.append(b"".join(res[n][1].tobytes() for n in (1, 2)))
        assert runs[0] == runs[1]

    def test_global_rng_state_restored(self):
        # at T = 60 on this model expm_multiply draws from np.random;
        # evolution hands the global stream back as it found it
        rng = np.random.default_rng(19)
        space, model = random_finite_model(rng, size=6)
        tm, _, _ = calibrate(model, space)
        k0 = [poisson_initial(n, 0.5, space) for n in (1, 2)]
        np.random.seed(3)
        before = np.random.get_state()
        evolve_hierarchy(tm, k0, [0.0, 60.0])
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])

    def test_rejects_bad_input(self, finite4_critical):
        tm = finite4_critical
        k0 = [poisson_initial(n, 0.5, tm.space) for n in (1, 2)]
        for times in ([], [1.0, 0.5], [-0.1, 1.0], [0.0, np.inf], [[0.0, 1.0]]):
            with pytest.raises(ModelError):
                evolve_hierarchy(tm, k0, times)
        for bad in ([], k0[::-1], [k0[0], np.ones((3, 3))]):
            with pytest.raises(ModelError):
                evolve_hierarchy(tm, bad, [1.0])

    def test_two_point_analytic_oracle(self):
        # closed-form exponential of a 2x2 generator
        space = build_space({"type": "finite", "points": [0, 1],
                             "weights": [1.0, 1.0]})
        A = np.array([[0.4, 0.6], [0.3, 0.7]])
        model = RateModel(birth=Kernel("dense", matrix=A), death=np.ones(2))
        tm, _, _ = calibrate(model, space)
        G = generator_matrix(tm)
        k0 = np.array([1.0, 0.25])
        T = 1.3
        times, traj = evolve_hierarchy(tm, [k0], np.linspace(0.0, T, 65))[1]
        oracle = expm(T * G) @ k0
        assert np.abs(traj[-1] - oracle).max() <= 1e-10

    def test_level2_nonnegative(self, finite4_critical):
        k0 = [poisson_initial(n, 0.5, finite4_critical.space) for n in (1, 2)]
        res = evolve_hierarchy(finite4_critical, k0, np.linspace(0.0, 2.0, 41))
        _, traj = res[2]
        assert traj.min() >= -1e-12


class TestPoissonInitial:
    def test_constant(self):
        space = build_space({"type": "finite", "points": [0, 1],
                             "weights": [1, 1]})
        k = poisson_initial(3, 0.5, space)
        assert k.shape == (2, 2, 2)
        assert np.all(k == 0.125)


class TestStationary:
    def test_level1_exact(self, finite4_critical):
        k = stationary_k(1, finite4_critical, 0.3)
        assert np.all(k == 0.3)

    def test_finite_critical_diverges(self, finite4_critical):
        with pytest.raises(DivergenceError) as exc:
            stationary_k(2, finite4_critical, 0.5)
        diag = exc.value.diagnostics
        assert diag["spectral_abscissa"] >= -diag["tol"]
        assert json.loads(json.dumps(diag)) == diag  # plain floats and lists

    def test_matches_kronecker_sum_solve(self):
        rng = np.random.default_rng(99)
        tm = dissipative_tm(rng, size=4)
        G = generator_matrix(tm)
        assert np.abs(G @ G.T - G.T @ G).max() > 1e-2  # non-normal generator
        k = stationary_k(1, tm, 0.5)
        for n in (2, 3):
            f = source_f(n, tm, k)
            k = stationary_k(n, tm, 0.5)
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(k - 0.5 ** n - oracle.reshape(f.shape)).max() <= 1e-10
            # exactly symmetric under every permutation of the indices
            for perm in itertools.permutations(range(n)):
                assert np.array_equal(k, k.transpose(perm))

    @pytest.mark.parametrize("case", ["real spectrum", "complex pair", "symmetric window"])
    def test_real_and_complex_schur_paths(self, case):
        # a reversible kernel (the symmetric lattice window) is solved in the
        # eigenbasis of G, any other that does not factor on a Schur form of
        # G.  A drifting birth-death chain as a dense kernel on five points
        # is not symmetric and has no window to factor, but G is tridiagonal
        # with positive off-diagonal products, so similar to a symmetric
        # matrix: a real spectrum, a triangular real Schur form and real
        # arithmetic.  A directed 3-cycle birth kernel gives G a complex
        # eigenvalue pair, a 2x2 block in its real Schur form, and the
        # complex path
        if case == "symmetric window":
            space, model = lattice_model(2)
            tm, _, _ = calibrate(model, space)
        else:
            if case == "real spectrum":
                line = build_space({"type": "lattice", "d": 1, "R": 2,
                                    "boundary": "unbounded"})
                A = kernel_matrix(Kernel("stencil", stencil={(1,): 0.75, (-1,): 0.25}),
                                  line)
                death = np.array([1.0, 1.2, 0.8, 1.5, 1.0])
            else:
                A = np.roll(np.eye(3), 1, axis=1) + 0.1
                death = np.array([1.0, 1.5, 2.0])
            space = build_space({"type": "finite", "points": list(range(len(A)))})
            model = RateModel(birth=Kernel("dense", matrix=A), death=death)
            tm, _, _ = calibrate(model, space)
            tm = tm.__class__(space=tm.space, b=tm.b * 0.5, mbar=tm.mbar,
                              death=tm.death, psi=tm.psi, reversible=tm.reversible)
        assert tm.factors is None or case == "symmetric window"
        G = generator_matrix(tm)
        assert tm.reversible == (case == "symmetric window")
        if case == "symmetric window":
            counters = {"stationary.eigh": 1}
        else:
            dtype = "complex128" if case == "complex pair" else "float64"
            assert np.any(np.diag(schur(G)[0], -1)) == (dtype == "complex128")
            counters = {f"stationary.schur_{dtype}": 1,
                        "stationary.trsyl_calls": 1 + len(G)}
        with metrics.recording() as rec:
            k = stationary_k(3, tm, 0.5)
        assert rec["counters"] == counters
        k2 = stationary_k(2, tm, 0.5)
        for n, kn, prev in ((2, k2, stationary_k(1, tm, 0.5)), (3, k, k2)):
            f = source_f(n, tm, prev)
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(kn - 0.5 ** n - oracle.reshape(f.shape)).max() <= 1e-10

    def test_eigenbasis_matches_kronecker_sum_solve(self):
        # a symmetric b with a non-constant mbar: G = b mbar - V is neither
        # symmetric nor normal, and only its similarity to the symmetric
        # mbar^{1/2} b mbar^{1/2} - V makes the eigenbasis solve exact
        rng = np.random.default_rng(5)
        size = 5
        B = rng.random((size, size))
        B = B + B.T
        mbar = rng.random(size) + 0.5
        space = build_space({"type": "finite", "points": list(range(size)),
                             "weights": mbar.tolist()})
        # each row of G sums to -0.5: a strictly sub-critical generator
        tm = TransformedModel(space=space, b=B, mbar=mbar, death=B @ mbar + 0.5,
                              psi=np.ones(size), reversible=True)
        G = generator_matrix(tm)
        assert np.abs(G @ G.T - G.T @ G).max() > 1e-2
        k = stationary_k(1, tm, 0.5)
        for n in (2, 3):
            f = source_f(n, tm, k)
            with metrics.recording() as rec:
                k = stationary_k(n, tm, 0.5)
            assert rec["counters"] == {"stationary.eigh": 1}
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(k - 0.5 ** n - oracle.reshape(f.shape)).max() <= 1e-10
            for perm in itertools.permutations(range(n)):
                assert np.array_equal(k, k.transpose(perm))

    def test_critical_periodic_window_diverges(self):
        # a periodic window keeps the constants: abscissa 0, symmetric b
        space, model = lattice_model(2, R=2, boundary="periodic")
        tm, _, _ = calibrate(model, space)
        assert np.array_equal(tm.b, tm.b.T)
        with metrics.recording() as rec, pytest.raises(DivergenceError) as exc:
            stationary_k(2, tm, 0.5)
        assert rec["counters"] == {"stationary.eigh": 1}
        diag = exc.value.diagnostics
        assert abs(diag["spectral_abscissa"]) <= 1e-12
        assert json.loads(json.dumps(diag)) == diag  # plain floats and lists
        assert all(type(re) is float and im == 0.0
                   for re, im in diag["leading_eigenvalues"])

    def test_reversible_kernel_with_varying_psi(self):
        # a symmetric birth matrix a with unequal death and weights: b = a / psi
        # is not symmetric, and G is similar to a symmetric matrix through
        # diag(psi sqrt(w)), not through diag(sqrt(mbar))
        tm = reversible_tm()
        tm = tm.__class__(space=tm.space, b=tm.b * 0.5, mbar=tm.mbar,
                          death=tm.death, psi=tm.psi, reversible=tm.reversible)
        assert not np.array_equal(tm.b, tm.b.T)
        G = generator_matrix(tm)
        k = stationary_k(1, tm, 0.5)
        for n in (2, 3):
            f = source_f(n, tm, k)
            with metrics.recording() as rec:
                k = stationary_k(n, tm, 0.5)
            assert rec["counters"] == {"stationary.eigh": 1}
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(k - 0.5 ** n - oracle.reshape(f.shape)).max() <= 1e-10
            for perm in itertools.permutations(range(n)):
                assert np.array_equal(k, k.transpose(perm))

    def test_dissipative_residual(self):
        rng = np.random.default_rng(77)
        tm = dissipative_tm(rng)
        k = stationary_k(2, tm, 0.5)
        # stationarity of the integral part: Lhat (k - rho^2) + f = 0
        f = source_f(2, tm, np.full(3, 0.5))
        resid = apply_Lhat(2, tm, k - 0.25) + f
        assert np.abs(resid).max() <= 1e-12

    def test_recurrence_inequality(self):
        # K_n <= n^2 K_{n-1} H + rho^n with H = sup of the pair integral
        rng = np.random.default_rng(88)
        tm = dissipative_tm(rng)
        rho = 0.5
        k1 = stationary_k(1, tm, rho)
        k2 = stationary_k(2, tm, rho)
        k3 = stationary_k(3, tm, rho)
        # dense H for the dissipative model: integral of the two-walker
        # semigroup applied to b, maximized over starts
        G = generator_matrix(tm)
        G2 = kron_sum_matrix(G, 2)
        Hmat = -np.linalg.solve(G2, tm.b.ravel())
        H = float(Hmat.max())
        K1, K2, K3 = (float(np.abs(k).max()) for k in (k1, k2, k3))
        assert K2 <= 4 * K1 * H + rho ** 2 + 1e-9
        assert K3 <= 9 * K2 * H + rho ** 3 + 1e-9


class TestBounds:
    def test_D_series(self):
        from math import factorial
        rho, H = 0.5, 0.25
        terms = sum((rho / H) ** n / factorial(n) ** 2
                    for n in range(1, 40))
        assert bound_constant_D(rho, H) == pytest.approx(terms, rel=1e-12)

    def test_level1_ratio_below_one(self):
        rho, H = 0.3, 0.2
        rep = factorial_bound_check({1: rho}, rho, H)
        assert rep["D"] == bound_constant_D(rho, H)
        assert rep["per_level"][1]["ratio"] <= 1.0
        assert rep["passed"]

    def test_zero_intensity_holds(self):
        # rho = 0 makes D and every k_n zero: 0 <= 0 holds, where 0 / 0 once
        # raised ZeroDivisionError
        rep = factorial_bound_check({1: 0.0, 2: 0.0}, 0.0, 0.2)
        assert rep["D"] == 0.0
        assert rep["passed"]
        assert not factorial_bound_check({1: 1e-300}, 0.0, 0.2)["passed"]

    def test_constructed_violation_flagged(self):
        rho, H = 0.3, 0.2
        rep = factorial_bound_check({2: 10.0}, rho, H)
        assert not rep["passed"]

    def test_reads_one_sup_per_order(self):
        # D >= rho / H, its first term, so order 1 at rho passes; an order-2 sup
        # 1.5 times D H^2 (2!)^2 fails, and with it the whole check
        rho, H = 0.3, 0.2
        D = bound_constant_D(rho, H)
        rep = factorial_bound_check({1: rho, 2: 1.5 * D * H ** 2 * 4}, rho, H)
        assert list(rep["per_level"]) == [1, 2]
        one, two = rep["per_level"][1], rep["per_level"][2]
        assert one == {"sup": rho, "bound": D * H, "ratio": rho / (D * H), "passed": True}
        assert two["sup"] == 1.5 * D * H ** 2 * 4 and two["bound"] == D * H ** 2 * 4
        assert two["ratio"] == pytest.approx(1.5, rel=1e-15) and not two["passed"]
        assert not rep["passed"]


class TestConvergence:
    def test_level1_zero_distance(self, finite4_critical):
        rep = convergence_check(1, finite4_critical, 0.5, [0.5, 1.0, 2.0])
        assert np.abs(rep["distance"]).max() <= 1e-10
        assert rep["converged"]

    def test_finite_critical_reports_divergence(self, finite4_critical):
        rep = convergence_check(2, finite4_critical, 0.5, [1.0, 2.0])
        assert not rep["converged"]
        assert "divergence" in rep


class TestPairCorrelationMC:
    STARTS = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]

    @staticmethod
    def summed_limit(own, swap, d):
        """``pair_limit`` of the per-replica sum of two running integrals."""
        return pair_limit(own[0], own[1] + swap[1], d)

    def test_stderr_is_the_fitted_limits(self):
        # each k_2 reads rho times the SE of the fitted limit of its start's
        # and its exchanged start's running integrals, summed per replica,
        # from the one skeleton pair_integral_curves runs
        space, model = lattice_model(3)
        tm, _, _ = calibrate(model, space)
        mc = stationary_pair_mc(tm, 0.2, rng=np.random.default_rng(7),
                                displacements=self.STARTS, T=50.0, replicas=2000)
        swapped = [tuple(-c for c in u) for u in self.STARTS]
        curves = pair_integral_curves(lattice_walk(tm), self.STARTS + swapped, 0, 0, 50.0,
                                      2000, np.random.default_rng(7))
        for k, se in enumerate(mc.stderr):
            assert se == 0.2 * self.summed_limit(curves[k], curves[k + 3], 3).limit_stderr

    def test_exchange_identity_on_a_drifting_stencil(self):
        # on a stencil that is not its own mirror image, b(Y, X) from u is
        # b(X, Y) from -u, a different running integral: k_2 is rho^2 + rho
        # times the fitted limit of the two summed, bit for bit
        space = build_space({"type": "lattice", "d": 3, "R": 1, "boundary": "unbounded"})
        drift = {(1, 0, 0): 0.3, (-1, 0, 0): 0.1, (0, 1, 0): 0.15, (0, -1, 0): 0.15,
                 (0, 0, 1): 0.15, (0, 0, -1): 0.15}
        model = RateModel(birth=Kernel("stencil", stencil=drift), death=np.ones(space.size))
        tm, _, _ = calibrate(model, space)
        starts = [(1, 0, 0), (0, 2, 0)]
        mc = stationary_pair_mc(tm, 0.2, rng=np.random.default_rng(9),
                                displacements=starts, T=400.0, replicas=2000)
        curves = pair_integral_curves(lattice_walk(tm), starts + [(-1, 0, 0), (0, -2, 0)],
                                      0, 0, 400.0, 2000, np.random.default_rng(9))
        assert not np.array_equal(curves[0][1], curves[2][1])
        for k, u in enumerate(starts):
            lim = self.summed_limit(curves[k], curves[k + 2], 3)
            assert mc.values[k] == 0.2 ** 2 + 0.2 * lim.limit
            assert mc.curves[u].limit == lim.limit

    def test_short_horizon_not_converged(self):
        # the tail of the running integral on Z^3 left after T = 50 is about
        # four times its 3-SE allowance at 20000 replicas; after T = 400 it is
        # within it at 2000 replicas
        space, model = lattice_model(3)
        tm, _, _ = calibrate(model, space)
        for T, replicas, expect in ((50.0, 20000, False), (400.0, 2000, True)):
            mc = stationary_pair_mc(tm, 0.2, rng=np.random.default_rng(8), T=T,
                                    displacements=self.STARTS, replicas=replicas)
            rep = mc.convergence([T])
            gap_se = max(0.2 * c.gap_stderr for c in mc.curves.values())
            assert rep["threshold"] == 3 * (mc.stderr.max() + gap_se)
            assert rep["converged"] is expect


def _window(d, R, boundary="unbounded", stencil=None, death=None):
    """A Z^d window model: nearest-neighbour unless ``stencil`` is given,
    death 1 unless ``death`` maps the lattice coordinates (P, d) to rates."""
    space = build_space({"type": "lattice", "d": d, "R": R, "boundary": boundary})
    x = np.array(space.points)
    V = np.ones(space.size) if death is None else death(x)
    return space, RateModel(birth=Kernel("stencil", stencil=stencil or nearest_stencil(d)),
                            death=V)


def _critical(space, model):
    """The calibrated transformed model of ``model`` on ``space``."""
    return calibrate(model, space)[0]


def _subcritical(tm):
    """``tm`` with half its birth kernel: a stationary solution exists on a
    periodic window too, and the window symmetries are kept."""
    return dataclasses.replace(tm, b=tm.b * 0.5)


def _symmetric_cases():
    """Calibrated windows with exact symmetries: unbounded and periodic Z^1,
    Z^2, Z^3 (the periodic ones with a death rate that varies with |x|^2, so
    that psi is a per-point solve), and a product window."""
    radial = lambda x: 1.0 + 0.1 * (x ** 2).sum(axis=1)   # noqa: E731
    cases = {}
    for d, R in ((1, 3), (2, 2), (3, 1)):
        cases[f"Z{d} unbounded"] = _window(d, R)
        cases[f"Z{d} periodic"] = _window(d, R, "periodic", death=radial)
    cases["product"] = marked_model(Q=[[2.0, 1.0], [1.0, 2.0]], v=[1.0, 3.0], d=2, R=1)
    return {name: _subcritical(calibrate(model, space)[0])
            if space.boundary == "periodic" else calibrate(model, space)[0]
            for name, (space, model) in cases.items()}


SYMMETRIC = _symmetric_cases()


def _old_rule(monkeypatch):
    """Make the hierarchy symmetrize by the sorted-index rule of 0.25.0."""
    monkeypatch.setattr(hierarchy, "_canonical_cells",
                        lambda n, size, generators=(): sorted_index_cells(n, size))


def _outputs(tm):
    """Stationary k_2, k_3 and evolved k_1, k_2 (N = 1 and N = 2) of ``tm``
    from Poisson data at rho = 0.3."""
    times = np.linspace(0.0, 1.0, 5)
    out = [stationary_k(n, tm, 0.3) for n in (2, 3)]
    for N in (1, 2):
        res = evolve_hierarchy(tm, [poisson_initial(n, 0.3, tm.space)
                                    for n in range(1, N + 1)], times)
        out += [res[n][1] for n in range(1, N + 1)]
    return out


class TestWindowSymmetry:
    @pytest.mark.parametrize("n, size", [(1, 5), (2, 1), (2, 7), (3, 6), (3, 49), (4, 5)])
    def test_sorting_network_is_the_sorted_index(self, n, size):
        # without window symmetries each cell maps to its sorted index, so
        # outputs are those of the np.sort rule, byte for byte
        assert np.array_equal(hierarchy._canonical_cells(n, size),
                              sorted_index_cells(n, size))

    @pytest.mark.parametrize("name", ["Z1 unbounded", "Z2 periodic", "Z3 unbounded",
                                      "product"])
    def test_least_cell_of_each_orbit(self, name):
        # brute force over every signed axis permutation, which all leave a
        # nearest-neighbour window invariant: the least sorted image of a cell
        tm = SYMMETRIC[name]
        space, d = tm.space, tm.space.dim
        group = []
        for axes in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                def image(p):
                    xi = tuple(signs[i] * space.coordinate(p)[axes[i]] for i in range(d))
                    return (xi, p[1]) if space.structure == "product" else xi
                group.append([space.points.index(image(p)) for p in space.points])
        size = space.size
        for n in (1, 2, 3) if size < 20 else (1, 2):
            expect = [min(np.ravel_multi_index(sorted(h[c] for c in cell), (size,) * n)
                          for h in group)
                      for cell in itertools.product(range(size), repeat=n)]
            got = hierarchy._canonical_cells(n, size, tm.symmetries)
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_outputs_exactly_invariant(self, name):
        # stationary k_2, k_3 and evolved k_1, k_2, under every detected
        # symmetry (the generators of the group) and index permutation
        tm = SYMMETRIC[name]
        assert len(tm.symmetries) == tm.space.dim * (tm.space.dim + 1) // 2
        k2, k3, *evolved = _outputs(tm)
        for g in tm.symmetries:
            assert np.array_equal(k2, k2[np.ix_(g, g)])
            assert np.array_equal(k3, k3[np.ix_(g, g, g)])
            for k in evolved:
                assert np.array_equal(k, k[(slice(None),) + np.ix_(*[g] * (k.ndim - 1))])
        for k in (k2, k3):
            for perm in itertools.permutations(range(k.ndim)):
                assert np.array_equal(k, k.transpose(perm))
        assert np.array_equal(evolved[-1], evolved[-1].transpose(0, 2, 1))

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_values_move_at_rounding_level(self, name, monkeypatch):
        new = _outputs(SYMMETRIC[name])
        _old_rule(monkeypatch)
        for a, b in zip(new, _outputs(SYMMETRIC[name])):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_sublattice_splitting_stencil(self, monkeypatch):
        # steps of +-2 e_i split the window into sublattices that never
        # meet; the symmetrized values stay within 1e-12 of the solves
        stencil = {(2, 0): 0.25, (-2, 0): 0.25, (0, 2): 0.25, (0, -2): 0.25}
        tm = _critical(*_window(2, 3, stencil=stencil))
        assert len(tm.symmetries) == 3
        new = _outputs(tm)
        _old_rule(monkeypatch)
        for a, b in zip(new, _outputs(tm)):
            assert (np.abs(a - b) <= 1e-12 * np.abs(b)).all()

    @pytest.mark.parametrize("case", ["drift", "death"])
    def test_models_without_symmetry_keep_their_bytes(self, case, monkeypatch):
        # a drifting stencil and a death rate that no symmetry keeps: no
        # window symmetry, and the bytes of the 0.25.0 rule
        if case == "drift":
            tm = _critical(*_window(1, 3, stencil={(1,): 0.75, (-1,): 0.25}))
        else:
            rng = np.random.default_rng(71)
            space, model = _window(2, 2, "periodic",
                                   death=lambda x: 1.0 + 0.2 * rng.random(len(x)))
            tm = _subcritical(calibrate(model, space)[0])
        assert tm.symmetries == ()
        new = _outputs(tm)
        _old_rule(monkeypatch)
        for a, b in zip(new, _outputs(tm)):
            assert a.tobytes() == b.tobytes()

    def test_wide_windows_are_exactly_invariant(self, monkeypatch):
        # the window symmetries apply above CLOSED_FORM_POINTS too: k_2 on
        # the 121-point Z^2 window is exactly invariant under them, within
        # 1e-13 of the sorted-index rule
        tm = _critical(*_window(2, 5))
        assert tm.space.size > hierarchy.CLOSED_FORM_POINTS and len(tm.symmetries) == 3
        k2 = stationary_k(2, tm, 0.3)
        for g in tm.symmetries:
            assert np.array_equal(k2, k2[np.ix_(g, g)])
        assert np.array_equal(k2, k2.T)
        _old_rule(monkeypatch)
        old = stationary_k(2, tm, 0.3)
        assert k2.tobytes() != old.tobytes()
        assert np.abs(k2 - old).max() <= 1e-13 * np.abs(old).max()

    @pytest.mark.parametrize("name", sorted(SYMMETRIC) + ["Z3 R=3"])
    def test_map_equals_fixpoint_reference(self, name):
        # the stabilizer-chain map is the fixpoint map of 0.26.0, with the
        # window symmetries and without them
        tm = _critical(*_window(3, 3)) if name == "Z3 R=3" else SYMMETRIC[name]
        size = tm.space.size
        for n in (1, 2) if size > 100 else (1, 2, 3):
            for generators in (tm.symmetries, ()):
                got = hierarchy._canonical_cells(n, size, generators)
                assert np.array_equal(got, fixpoint_canonical_cells(n, size, generators))
        assert not got.flags.writeable
        assert hierarchy._canonical_cells(n, size) is got   # computed once

    @pytest.mark.parametrize("cap, enumerated", [(8 * 25, True), (8 * 25 - 1, False)])
    def test_symmetry_cap(self, monkeypatch, cap, enumerated):
        # the 8 symmetries of the 25-point Z^2 window hold 200 entries; a
        # group over SYMMETRY_CAP keeps the index permutations alone
        tm = SYMMETRIC["Z2 unbounded"]
        monkeypatch.setattr(hierarchy, "SYMMETRY_CAP", cap)
        hierarchy._orbit_map.cache_clear()
        try:
            got = hierarchy._canonical_cells(2, 25, tm.symmetries)
        finally:
            hierarchy._orbit_map.cache_clear()
        expect = fixpoint_canonical_cells(2, 25, tm.symmetries if enumerated else ())
        assert np.array_equal(got, expect)

    def test_evolve_keeps_only_symmetries_of_the_data(self):
        # initial k_1 invariant under the x reflection only: k_1(t) and
        # k_2(t) keep that one, and match the exact evolution
        tm = _critical(*_window(2, 2))
        x = np.array(tm.space.points)
        k0 = [0.3 + 0.01 * x[:, 1] + 0.001 * x[:, 0] ** 2, np.full((25, 25), 0.09)]
        times = [0.0, 0.4, 1.0]
        res = evolve_hierarchy(tm, k0, times)
        M = augmented_matrix(tm, 2)
        z0 = np.concatenate([k.ravel() for k in k0])
        flip = [tm.space.points.index((-a, b)) for a, b in tm.space.points]
        for i, t in enumerate(times):
            got = np.concatenate([res[1][1][i], res[2][1][i].ravel()])
            assert np.abs(got - expm(t * M) @ z0).max() <= 1e-12
            assert np.array_equal(res[1][1][i], res[1][1][i][flip])
        assert not np.array_equal(res[1][1][-1], res[1][1][-1][::-1])


def _half_birth(tm):
    """``tm`` with half its birth kernel, its axis factors halved alike: a
    stationary solution exists on a periodic window too."""
    shift = tm.death[0] / tm.space.dim * np.eye(2 * tm.space.radius + 1)
    return dataclasses.replace(tm, b=tm.b * 0.5, factors=tuple(
        ((F + shift) * 0.5 - shift, lp) for F, lp in tm.factors))


DRIFT1 = {(1,): 0.75, (-1,): 0.25}
DRIFT2 = {(1, 0): 0.3, (-1, 0): 0.1, (0, 1): 0.15, (0, -1): 0.15}
FACTORED = {
    "Z1 drift": (1, 2, "unbounded", DRIFT1),
    "Z1 periodic": (1, 3, "periodic", None),
    "Z2 nearest": (2, 1, "unbounded", None),
    "Z2 drift": (2, 1, "unbounded", DRIFT2),
    "Z2 periodic": (2, 1, "periodic", None),
    "Z2 steps of 1 and 2": (2, 1, "unbounded",
                            {(2, 0): 0.1, (-2, 0): 0.1, (1, 0): 0.15, (-1, 0): 0.15,
                             (0, 2): 0.05, (0, -2): 0.05, (0, 1): 0.2, (0, -1): 0.2}),
    "Z3 nearest": (3, 1, "unbounded", None),
    "Z3 drift": (3, 1, "unbounded", {(1, 0, 0): 0.3, (-1, 0, 0): 0.1, (0, 1, 0): 0.15,
                                     (0, -1, 0): 0.15, (0, 0, 1): 0.15,
                                     (0, 0, -1): 0.15}),
}


def _factored(name):
    d, R, boundary, stencil = FACTORED[name]
    tm = _critical(*_window(d, R, boundary, stencil=stencil))
    assert tm.factors is not None
    return _half_birth(tm) if boundary == "periodic" else tm


class TestAxisFactors:
    @pytest.mark.parametrize("name", sorted(FACTORED))
    def test_stationary_matches_kronecker_sum_solve(self, name):
        # one eigh per distinct one-axis factor, applied one sub-axis at a
        # time; n = 3 where the dense oracle fits (at most 9 points)
        tm = _factored(name)
        G = generator_matrix(tm)
        distinct = len({F.tobytes() for F, _ in tm.factors})
        k = stationary_k(1, tm, 0.4)
        for n in (2, 3) if tm.space.size <= 9 else (2,):
            f = source_f(n, tm, k)
            with metrics.recording() as rec:
                k = stationary_k(n, tm, 0.4)
            assert rec["counters"] == {"stationary.eigh": distinct}
            assert rec["values"]["stationary.factors"] == [len(F) for F, _ in tm.factors]
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(k - 0.4 ** n - oracle.reshape(f.shape)).max() <= 1e-10
            for g in tm.symmetries:
                assert np.array_equal(k, k[np.ix_(*[g] * n)])

    @pytest.mark.parametrize("name", ["Z1 drift", "Z2 drift", "Z2 periodic", "Z3 nearest"])
    def test_closed_form_evolve_matches_dense_expm(self, name):
        tm = _factored(name)
        size = tm.space.size
        rng = np.random.default_rng(37)
        times = [0.0, 0.3, 0.3, 1.1, 2.5]
        for N in (1, 2):
            M = augmented_matrix(tm, N)
            k0 = [rng.random((size,) * n) for n in range(1, N + 1)]
            z0 = np.concatenate([k.ravel() for k in k0])
            with metrics.recording() as rec:
                res = evolve_hierarchy(tm, k0, times)
            assert rec["counters"] == {"evolve.eigh": len({F.tobytes()
                                                           for F, _ in tm.factors})}
            for i, t in enumerate(times):
                got = np.concatenate([res[n][1][i].ravel() for n in range(1, N + 1)])
                assert np.abs(got - expm(t * M) @ z0).max() <= 1e-12

    @pytest.mark.parametrize("R, levels", [(3, {2: "eigh", 3: "schur"}),
                                           (15, {2: "schur"})])
    def test_drift_leaves_the_eigenbasis_when_ill_conditioned(self, R, levels):
        # the 3:1 drift's W has condition 3^R per level: 729 at R = 3, n = 2
        # is solved in the eigenbasis, 3^9 at n = 3 and 3^30 at R = 15, n = 2
        # on the Schur form, each as accurate as the Kronecker-sum solve
        tm = _critical(*_window(1, R, stencil=DRIFT1))
        G = generator_matrix(tm)
        k = stationary_k(1, tm, 0.4)
        for n, path in levels.items():
            f = source_f(n, tm, k)
            with metrics.recording() as rec:
                k = stationary_k(n, tm, 0.4)
            assert set(rec["counters"]) == ({"stationary.eigh"} if path == "eigh" else
                                            {"stationary.schur_float64",
                                             "stationary.trsyl_calls"})
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(k - 0.4 ** n - oracle.reshape(f.shape)).max() <= 1e-10

    @pytest.mark.parametrize("stencil, R, paths", [
        (DRIFT1, 6, ["evolve.eigh", "evolve.expm_multiply_calls"]),
        (DRIFT1, 15, ["evolve.expm_multiply_calls"] * 2),
        ({(1,): 0.99, (-1,): 0.01}, 1, ["evolve.eigh", "evolve.expm_multiply_calls"]),
        ({(1,): 0.99, (-1,): 0.01}, 10, ["evolve.expm_multiply_calls"] * 2)])
    def test_evolve_leaves_the_closed_form_when_ill_conditioned(self, stencil, R, paths):
        # condition 3^R of W on level 1 and 9^R on level 2 against the cap
        # 1e3; a 99:1 drift has 99^R on level 1, so only R = 1 is within it
        tm = _critical(*_window(1, R, stencil=stencil))
        size = tm.space.size
        rng = np.random.default_rng(41)
        times = [0.0, 0.3, 1.1, 2.5]
        for N, counter in enumerate(paths, 1):
            M = augmented_matrix(tm, N)
            k0 = [rng.random((size,) * n) for n in range(1, N + 1)]
            z0 = np.concatenate([k.ravel() for k in k0])
            with metrics.recording() as rec:
                res = evolve_hierarchy(tm, k0, times)
            assert counter in rec["counters"]
            for i, t in enumerate(times):
                got = np.concatenate([res[n][1][i].ravel() for n in range(1, N + 1)])
                assert np.abs(got - expm(t * M) @ z0).max() <= 1e-12

    def test_cubic_window_counts_one_eigh(self):
        # the three identical factors of the 343-point Z^3 window: one eigh of 7
        tm = _critical(*_window(3, 3))
        with metrics.recording() as rec:
            stationary_k(2, tm, 0.1)
        assert rec["counters"] == {"stationary.eigh": 1}
        assert rec["values"]["stationary.factors"] == [7, 7, 7]


class TestProductWindow:
    @pytest.mark.parametrize("Q", [[[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [0.5, 2.0]]])
    def test_stationary_matches_kronecker_sum_solve(self, Q):
        # an unbounded product window (Z^1, R = 2, two marks): a symmetric Q
        # is reversible (eigenbasis), another takes the Schur solve
        space, model = marked_model(Q=Q, v=[1.0, 3.0], d=1, R=2)
        tm, _, _ = calibrate(model, space)
        assert tm.reversible == (Q[0][1] == Q[1][0]) and len(tm.symmetries) == 1
        G = generator_matrix(tm)
        k = stationary_k(1, tm, 0.4)
        for n in (2, 3):
            f = source_f(n, tm, k)
            k = stationary_k(n, tm, 0.4)
            oracle = -np.linalg.solve(kron_sum_matrix(G, n), f.ravel())
            assert np.abs(k - 0.4 ** n - oracle.reshape(f.shape)).max() <= 1e-10


def test_stationary_level_cap(monkeypatch):
    # size^n entries: 3^2 on the Z^1 window R = 1; a larger level is refused
    tm = _critical(*_window(1, 1))
    monkeypatch.setattr(hierarchy, "STATIONARY_CAP", 9)
    stationary_k(2, tm, 0.5)
    with pytest.raises(ModelError, match="STATIONARY_CAP"):
        stationary_k(3, tm, 0.5)
