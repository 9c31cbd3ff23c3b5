"""Auxiliary Markov jump walkers and the probabilistic lemma checks.

The walker jumps from x with holding rate V(x) and jump law
``b(x, dy) mbar(dy) / V(x)``.  For translation-invariant critical models
(a stencil or factorized kernel with death rates ``v(s)``) the walker lives
on the unbounded lattice: the displacement increment is drawn from the
normalized stencil ``alpha`` and the mark moves independently with the
stochastic kernel ``Theta(s, .) nu`` (``theta_kernel``); a plain lattice is
one mark, which never changes.  The transience functional

    sup_{x,y} int_0^inf E_{x,y} b(X(t), Y(t)) dt

is estimated by path integrals of ``b`` along piecewise-constant
two-walker trajectories (no time-discretization error), extrapolated to
T = inf by one tail fit ``A - c1 t^{1 - d/2} - c2 t^{-d/2}``, ``pair_limit``.
Two conditional Monte Carlo steps lower the variance without bias: each
holding piece on the integrand's support is credited with its conditional
mean given its start, and each start reads the integrand averaged over its
orbit under the reflections and axis transpositions that preserve the
stencil.  All walker Monte Carlo runs on one vectorized stepper,
``_jump_chain``, which steps only the replicas short of the next grid
time.  A replica's state is two integers: the lattice code of its signed
walker sum (``_lattice_code``, ``63 // d`` bits per coordinate) and the
index of its joint marks.  Each jump is one draw from a Walker alias table
of (walker, step, new mark) for that joint state, and the integrand is
looked up on the sorted codes of its support through a hashed prefilter
(``_on_support``).  No draw depends on the code, so two-walker starts with
the same initial marks share one chain of ``X - Y`` from 0, each reading
the integrand on its own shifted support (common random numbers).  A start
or a jump count that could carry a coordinate out of the code's range is a
``ModelError``.
``simulate_jump`` is the scalar single-path reference the stepper is tested
against.

Of the lemma checks only the heat-kernel bound is Monte Carlo.  The
convolution bound is a deterministic recursion, and the jump-count law of
the mark chain is exact by uniformization (``jump_count_cdf``): the Poisson
domination compares it with the Poisson CDF, which is the same law for one
mark at rate ``lambda0`` and which the lower-tail bound reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .criticality import TransformedModel, ThetaKernel, theta_kernel
from .errors import ModelError
from .model import Kernel

__all__ = [
    "WalkerPath",
    "TransienceReport",
    "LatticeWalk",
    "lattice_walk",
    "simulate_jump",
    "pair_integral_curves",
    "PairLimit",
    "pair_limit",
    "parse_start",
    "estimate_H",
    "heat_bound_check",
    "convolution_bound_check",
    "iterated_convolution",
    "jump_count_cdf",
    "poisson_domination_check",
    "lower_tail_bound_check",
    "LOWER_TAIL_B",
]

# decay exponent in the lower-tail bound  P(n(t) <= floor(l0 t / 2)) <= M t exp(-B l0 t)
LOWER_TAIL_B = (1.0 - np.log(2.0)) / 2.0
# largest deviation from 1 accepted for a jump law's or a stencil's total mass
MASS_TOL = 1e-9
# a jump-count CDF may exceed the Poisson CDF it is dominated by only by rounding
DOMINATION_TOL = 1e-12
# the Poisson(Lambda t) tail mass that jump_count_cdf's uniformization leaves out
POISSON_TAIL = 1e-18
# a fitted integrand exponent counts as integrable only at or below -1 - margin
INTEGRABILITY_MARGIN = 0.05


@dataclass
class WalkerPath:
    """Piecewise-constant trajectory: jump times and visited states."""

    times: np.ndarray   # strictly increasing, times[0] = 0
    states: list        # states[i] held on [times[i], times[i+1])

    def state_at(self, t: float):
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.states[i]


@dataclass
class TransienceReport:
    H_hat: float
    stderr: float
    tail_exponent_fit: float
    horizon: float
    converged: bool
    growth_exponent: float = float("nan")   # fitted exponent of the running integral
    per_start: dict = field(default_factory=dict)
    times: np.ndarray | None = None
    running: np.ndarray | None = None       # mean running integral, H_hat's start


# ---------------------------------------------------------------------------
# Walk law extraction
# ---------------------------------------------------------------------------

def _lattice_code(D) -> np.ndarray:
    """Signed int64 code ``sum_i D[:, i] 2^(b i)`` of each row of D (R, d).

    ``b = 63 // d`` bits per coordinate.  The code is linear in D, so a step
    adds its own code, and one-to-one while every coordinate lies strictly
    inside ``(-2^(b-1), 2^(b-1))``; a coordinate outside is a ``ModelError``.
    """
    D = np.asarray(D, dtype=np.int64)
    d = D.shape[1]
    b = 63 // d
    if D.size and int(np.abs(D).max()) >= 1 << (b - 1):
        raise ModelError(f"lattice coordinate {int(np.abs(D).max())} is out of the "
                         f"walker code range |x| < 2^{b - 1} in d = {d}")
    return D @ (np.int64(1) << (b * np.arange(d, dtype=np.int64)))


# Knuth's multiplicative hash constant, 2^64 over the golden ratio (odd)
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash(codes: np.ndarray, bits: int) -> np.ndarray:
    """The top ``bits`` bits of the int64 ``codes`` times ``_HASH_MULT`` mod
    2^64, as int64."""
    h = codes.view(np.uint64) * _HASH_MULT
    return (h >> np.uint64(64 - bits)).view(np.int64)


def _support_hash(support: np.ndarray):
    """``(table, bits)``: a boolean table of at least 64 slots per code of
    ``support``, True at the ``_hash`` of each, for ``_on_support``."""
    bits = len(support).bit_length() + 6
    table = np.zeros(1 << bits, dtype=bool)
    table[_hash(support, bits)] = True
    return table, bits


def _on_support(support: np.ndarray, hashed, codes: np.ndarray):
    """Indices of the ``codes`` that lie on the sorted ``support``, and their
    positions in it (``np.isin`` and ``np.searchsorted``).

    The table ``hashed = _support_hash(support)`` passes every code on the
    support and about 1 in 64 of the others; a sorted search and an
    equality test decide those candidates.
    """
    table, bits = hashed
    cand = np.flatnonzero(table.take(_hash(codes, bits)))
    found = codes[cand]
    pos = np.searchsorted(support, found)
    hit = support.take(pos, mode="clip") == found
    return cand[hit], pos[hit]


@dataclass(frozen=True)
class LatticeWalk:
    """Sampling-ready description of the lattice walker."""

    d: int
    steps: np.ndarray        # (S, d) displacement increments
    step_probs: np.ndarray   # (S,)
    v: np.ndarray            # (M,) per-mark holding rates
    mark_trans: np.ndarray   # (M, M) row-stochastic
    Q: np.ndarray            # (M, M) mark factor of b (post-rescale)
    q: np.ndarray            # (M,)
    support: np.ndarray      # sorted lattice codes of the nonzero alpha entries
    support_alpha: np.ndarray  # alpha at those codes
    K: int                   # sup norm of the largest step

    def alpha_at(self, codes: np.ndarray) -> np.ndarray:
        """alpha at lattice codes; zero off the support."""
        out = np.zeros(len(codes))
        near, pos = _on_support(self.support, _support_hash(self.support), codes)
        out[near] = self.support_alpha[pos]
        return out

    def alpha_of(self, disp: np.ndarray) -> np.ndarray:
        """Vectorized stencil lookup; zero outside the support box."""
        D = np.atleast_2d(np.asarray(disp, dtype=np.int64))
        out = np.zeros(len(D))
        inside = np.flatnonzero(np.all(np.abs(D) <= self.K, axis=1))
        out[inside] = self.alpha_at(_lattice_code(D[inside]))
        return out

    def b_pair(self, disp, sx, sy) -> np.ndarray:
        """b(X, Y) = alpha(xi_X - xi_Y) Q(s_X, s_Y) / q(s_X)."""
        return self.alpha_of(disp) * self.Q[sx, sy] / self.q[sx]


def lattice_walk(tm: TransformedModel) -> LatticeWalk:
    """Build the walk law from a translation-invariant critical model."""
    if not tm.translation_invariant:
        raise ModelError("lattice walk requires a translation-invariant model")
    d = tm.space.dim
    items = sorted(tm.alpha.items())
    steps = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), d)
    vals = np.array([v for _, v in items])
    # the jump-law mass lives in the mark rows: alpha_mass * Theta nu ~ 1
    trans = theta_kernel(tm).transition_probs()
    rows = trans.sum(axis=1)
    if np.abs(rows - 1.0).max() > MASS_TOL:
        raise ModelError(
            f"walker jump law mass {rows.max():.6g} deviates from 1: "
            "model miscalibrated")
    K = max(int(np.abs(steps).max()), 1)
    nonzero = vals != 0
    codes = _lattice_code(steps[nonzero])
    order = np.argsort(codes)
    probs = vals / vals.sum()
    return LatticeWalk(d=d, steps=steps, step_probs=probs, v=tm.v,
                       mark_trans=trans / rows[:, None], Q=tm.Q, q=tm.q,
                       support=codes[order], support_alpha=vals[nonzero][order],
                       K=K)


# ---------------------------------------------------------------------------
# Single-path simulation (exact jump chain)
# ---------------------------------------------------------------------------

def _walker_start(tm: TransformedModel, x0):
    """Lattice coordinate and mark index of a one-walker start point."""
    if tm.marked:
        return (np.asarray(tm.space.coordinate(x0), dtype=np.int64),
                tm.space.marks.index(x0[1]))
    return np.asarray(x0, dtype=np.int64).reshape(tm.space.dim), 0


def _draw(cum: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index from cumulative probabilities."""
    return min(int(np.searchsorted(cum, rng.random())), len(cum) - 1)


def simulate_jump(tm: TransformedModel, x0, T: float,
                  rng: np.random.Generator) -> WalkerPath:
    """One walker trajectory on [0, T].

    Translation-invariant models walk the unbounded lattice; generic dense
    models walk the enumerated points with jump law ``b(x,.) mbar / V(x)``.
    """
    if tm.translation_invariant:
        walk = lattice_walk(tm)
        marked = tm.marked
        xi, s = _walker_start(tm, x0)
        step_cum = np.cumsum(walk.step_probs)
        mark_cum = np.cumsum(walk.mark_trans, axis=1)
        times = [0.0]
        states = [(tuple(xi), tm.space.marks[s]) if marked else tuple(xi)]
        t = 0.0
        while True:
            t += rng.exponential(1.0 / walk.v[s])
            if t >= T:
                break
            xi = xi + walk.steps[_draw(step_cum, rng)]
            if marked:
                s = _draw(mark_cum[s], rng)
                states.append((tuple(xi), tm.space.marks[s]))
            else:
                states.append(tuple(xi))
            times.append(t)
        return WalkerPath(times=np.array(times), states=states)
    # dense finite-space walk
    V = tm.death
    P = tm.b * tm.mbar[None, :] / V[:, None]
    rows = P.sum(axis=1)
    if np.abs(rows - 1.0).max() > 1e-9:
        raise ModelError("jump law rows deviate from 1: model miscalibrated")
    cum = np.cumsum(P, axis=1)
    i = tm.space.locate(x0)
    times, states = [0.0], [tm.space.points[i]]
    t = 0.0
    while True:
        t += rng.exponential(1.0 / V[i])
        if t >= T:
            break
        i = _draw(cum[i], rng)
        times.append(t)
        states.append(tm.space.points[i])
    return WalkerPath(times=np.array(times), states=states)


# ---------------------------------------------------------------------------
# Vectorized jump-chain stepper
# ---------------------------------------------------------------------------

def _alias_table(P: np.ndarray):
    """Walker alias tables of the rows of P (J, O), each summing to 1.

    Returns ``(thresh, alias)`` of P's shape.  With ``u`` uniform on [0, O),
    row r draws outcome ``i = floor(u)`` if ``u - i < thresh[r, i]`` and
    ``alias[r, i]`` otherwise, so outcome i has probability
    ``(thresh[r, i] + sum over alias[r, k] = i of (1 - thresh[r, k])) / O``.
    An outcome of probability 0 gets threshold 0 and is no alias, so it is
    never drawn.
    """
    J, O = P.shape
    thresh = np.ones((J, O))
    alias = np.tile(np.arange(O), (J, 1))
    for r in range(J):
        p = P[r] * O
        small = [i for i in range(O) if p[i] < 1.0]
        large = [i for i in range(O) if p[i] >= 1.0]
        while small and large:
            lo, hi = small.pop(), large.pop()
            thresh[r, lo], alias[r, lo] = p[lo], hi
            p[hi] -= 1.0 - p[lo]
            (small if p[hi] < 1.0 else large).append(hi)
        # what is left holds p = 1 up to rounding and keeps threshold 1
    return thresh, alias


def _jump_chain(v, mark_trans, steps, step_probs, s, sign, t_grid, rng, reach=0,
                support=None):
    """Advance R replicas of W = len(sign) independent walkers to each grid time.

    Walker w holds an exponential time at rate ``v[s_w]``, then moves by a
    step drawn from ``step_probs`` and takes a mark drawn from row
    ``mark_trans[s_w]``.  A replica's state is the lattice code of
    ``sum_w sign[w] (xi_w(t) - xi_w(0))``, which starts at 0, and its joint
    mark index ``js``, the C-order index of its marks (``s`` (R, W) at the
    start).  Each jump is one alias draw of (walker, step, new mark) from the
    table of its ``js``, with probability ``v[s_w] / sum v * p_step *
    Theta(s_w, m')``; the move adds the step's code and looks up the next
    ``js``.  No draw depends on the code, so a caller reads several starts
    off one chain by adding each start's code to it.

    The integrands, if any, are ``support = (codes, table)``: ``table[k, js,
    p]`` is integrand k at the sorted lattice codes ``codes[p]``, zero
    elsewhere.  At each grid time the generator yields ``(I, n, code)``: per
    replica the running integral of each integrand (one row per integrand),
    the jump count and the lattice code, updated in place afterwards.  Only
    replicas short of the grid time are stepped; clamping their holding
    times there is exact by memorylessness.  A holding piece that starts at
    ``ta`` on the support, with holding rate r, is credited with its
    conditional mean given its start, ``b (1 - e^{-r (tb - ta)}) / r``, in
    place of the sampled ``b (min(t_jump, tb) - ta)``: the same expectation
    (conditional Monte Carlo), less variance, and the same draws.  ``reach``
    is the largest start coordinate the codes are added to; a jump count
    that could carry such a sum out of the code's range is a ``ModelError``.
    The chain, its loop iterations, jumps, replica slots (iterations times
    the replicas active as a grid interval starts; jumps / slots is the
    active fraction) and support hits (replica-steps credited on the
    support) are counted in ``metrics``.
    """
    R, W = s.shape
    nmark, d = len(v), steps.shape[1]
    marks = np.array(list(np.ndindex(*(nmark,) * W)), dtype=np.int64)  # (J, W)
    J = len(marks)
    place = nmark ** np.arange(W - 1, -1, -1)
    vw = v[marks]
    rate = vw.sum(axis=1)
    # outcome (w, j, m') of joint state js, flattened to js * O + o
    P = ((vw / rate[:, None])[:, :, None, None] * step_probs[:, None]
         * mark_trans[marks][:, :, None, :])
    O = P[0].size
    thresh, alias = _alias_table(P.reshape(J, O))
    # every threshold 1: each outcome is its own bin, and no alias is read
    uniform = bool((thresh == 1.0).all())
    thresh = thresh.ravel()
    alias = (alias + O * np.arange(J)[:, None]).ravel()
    dcode = np.broadcast_to(np.multiply.outer(sign, _lattice_code(steps))[:, :, None],
                            P.shape[1:]).ravel()
    dcode = np.tile(dcode, J)
    new_js = (np.arange(J)[:, None, None, None] + place[:, None, None]
              * (np.arange(nmark) - marks[:, :, None, None]))
    new_js = np.broadcast_to(new_js, P.shape).ravel()
    if support is not None:
        # b / r per joint state: a piece's credit is this times 1 - e^{-r (tb - ta)}
        sup_codes, sup_table = support[0], support[1] / rate[:, None]
        hashed = _support_hash(sup_codes)
    # the range guard: no coordinate of a start plus the code may reach 2^(b - 1)
    K = int(np.abs(steps).max())
    limit = 1 << (63 // d - 1)
    code = np.zeros(R, dtype=np.int64)
    js = s @ place
    I = np.zeros((0 if support is None else len(sup_table), R))
    n = np.zeros(R, dtype=np.int64)
    metrics.count("walkers.chains")
    t0 = 0.0     # every replica has been advanced to t0
    for tb in t_grid:
        # the active replicas' index, time, code and joint marks, compacted as
        # replicas reach tb; a grid time at or before t0 steps none
        idx = np.arange(R if tb > t0 else 0)
        active = idx.size
        ta, ca, ja = np.full(R, t0), code.copy(), js.copy()
        it = jumps = credited = 0
        while idx.size:
            r = rate[ja] if J > 1 else rate[0]
            t_jump = ta + rng.standard_exponential(idx.size) / r
            if support is not None:
                near, pos = _on_support(sup_codes, hashed, ca)
                if near.size:
                    I[:, idx[near]] -= sup_table[:, ja[near] if J > 1 else 0, pos] * np.expm1(
                        (r[near] if J > 1 else r) * (ta[near] - tb))
                    credited += near.size
            hit = t_jump < tb
            done = np.flatnonzero(~hit)
            if done.size:
                # a replica that finishes at iteration it has jumped it times
                out = idx[done]
                code[out] = ca[done]
                n[out] += it
                keep = np.flatnonzero(hit)
                idx, ta, ca = idx[keep], t_jump[keep], ca[keep]
                if J > 1:
                    js[out] = ja[done]
                    ja = ja[keep]
            else:
                ta = t_jump
            it += 1
            jumps += idx.size
            u = rng.random(idx.size) * O
            b = u.astype(np.int64)
            o = b + ja * O if J > 1 else b
            if not uniform:
                o = np.where(u - b < thresh[o], o, alias[o])
            ca += dcode[o]
            if J > 1:
                ja = new_js[o]
        t0 = max(t0, tb)
        metrics.count("walkers.replica_slots", it * active)
        metrics.count("walkers.iterations", it)
        metrics.count("walkers.jumps", jumps)
        metrics.count("walkers.support_hits", credited)
        if reach + K * int(n.max(initial=0)) >= limit:
            raise ModelError(
                f"walker displacement may leave the lattice code range 2^"
                f"{63 // d - 1} in d = {d}: start {reach} + {K} x {int(n.max())} jumps")
        yield I, n, code


def _geometric_checkpoints(T: float):
    """Eight checkpoints per decade from t = 0.5 up to T (the last is T)."""
    if not T > 0:
        raise ModelError(f"the horizon T = {T} must be positive")
    n = max(int(np.ceil(np.log10(T / 0.5) * 8)), 1)
    cps = 0.5 * (T / 0.5) ** (np.arange(1, n + 1) / n)
    cps[-1] = T
    return cps


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


def _orbit(u, generators) -> np.ndarray:
    """Sorted lattice codes of the orbit of the point u under the group that
    the ``generators`` generate."""
    orbit = np.asarray(u, dtype=np.int64).reshape(1, -1)
    while True:
        grown = np.unique(np.concatenate([orbit] + [orbit @ g for g in generators]),
                          axis=0)
        if len(grown) == len(orbit):
            return np.unique(_lattice_code(orbit))
        orbit = grown


def pair_integral_curves(walk: LatticeWalk, displacements, s0x: int, s0y: int,
                         T: float, replicas: int, rng: np.random.Generator,
                         symmetrized: bool = False) -> list:
    """Running path integrals of b(X_t, Y_t) for two independent walkers.

    The walkers start at each of the ``displacements`` ``x0 - y0`` (d-tuples)
    with marks ``s0x`` and ``s0y``.  Returns one ``(checkpoints,
    mean_running, stderr_running, per_replica)`` per displacement, with
    ``per_replica`` the (checkpoints, replicas) running integrals.  Each
    holding interval on the integrand's support is credited with its
    conditional mean given its start (b is piecewise constant; see
    ``_jump_chain``).  ``symmetrized`` integrates ``b(X, Y) + b(Y, X)``
    instead.

    The group generated by the single-axis reflections and axis
    transpositions that preserve the stencil leaves the law of ``X - Y``
    (and of the marks) unchanged, so the integral from u has the same mean
    from every point of u's orbit: each displacement reads b averaged over
    its orbit, which keeps the estimate unbiased and lowers its variance.

    The increments of ``X - Y`` and the marks do not depend on the start, so
    one chain of ``X - Y`` from 0 serves every displacement u, which reads b
    on the support shifted by ``-code(w)`` for each w in its orbit (common
    random numbers).  Each curve is the one a call with u alone returns from
    the same generator state; the curves of different displacements are
    correlated, and those of displacements with one orbit are equal.
    """
    cps = _geometric_checkpoints(T)
    disps = np.asarray(displacements, dtype=np.int64).reshape(-1, walk.d)
    if not len(disps):
        raise ModelError("pair_integral_curves needs at least one displacement")
    generators = _symmetry_generators(walk.steps, walk.step_probs)
    orbits = [_orbit(u, generators) for u in disps]
    metrics.count("walkers.orbit_points", sum(len(o) for o in orbits))
    # b on the joint marks js = s_x M + s_y, at the sorted support codes
    M = len(walk.v)
    sx, sy = np.divmod(np.arange(M * M), M)
    if symmetrized:
        codes = np.union1d(walk.support, -walk.support)
        table = (walk.alpha_at(codes) * (walk.Q[sx, sy] / walk.q[sx])[:, None]
                 + walk.alpha_at(-codes) * (walk.Q[sy, sx] / walk.q[sy])[:, None])
    else:
        codes = walk.support
        table = walk.support_alpha * (walk.Q[sx, sy] / walk.q[sx])[:, None]
    # every displacement's orbit-averaged table on one sorted code table
    merged = np.unique(np.concatenate([(codes - o[:, None]).ravel() for o in orbits]))
    tables = np.zeros((len(disps), M * M, len(merged)))
    for k, orbit in enumerate(orbits):
        for shift in orbit:
            tables[k][:, np.searchsorted(merged, codes - shift)] += table
        tables[k] /= len(orbit)
    s = np.tile(np.array([s0x, s0y], dtype=np.int64), (replicas, 1))
    running = np.empty((len(disps), len(cps), replicas))
    chain = _jump_chain(walk.v, walk.mark_trans, walk.steps, walk.step_probs, s, (1, -1),
                        cps, rng, reach=int(np.abs(disps).max()),
                        support=(merged, tables))
    for i, (I, _, _) in enumerate(chain):
        running[:, i] = I
    mean = running.mean(axis=2)
    stderr = running.std(axis=2, ddof=1) / np.sqrt(replicas)
    return [(cps, m, e, r) for m, e, r in zip(mean, stderr, running)]


@dataclass(frozen=True)
class PairLimit:
    """A running two-walker integral and its extrapolation to T = inf."""

    t: np.ndarray
    running: np.ndarray
    stderr: np.ndarray
    exponent: float  # fitted p of the integrand E b ~ t^p over the last decade
    limit: float     # A of the tail fit (``_tail_fit``), floored at running[-1]
    limit_stderr: float  # standard error of the fitted A

    @property
    def integrable(self) -> bool:
        """The integrand decays faster than 1/t by ``INTEGRABILITY_MARGIN``."""
        return self.exponent <= -1.0 - INTEGRABILITY_MARGIN


def pair_limit(cps: np.ndarray, mean: np.ndarray, se: np.ndarray,
               per_replica: np.ndarray, d: int) -> PairLimit:
    """The limit T -> inf of a ``pair_integral_curves`` result in d dimensions.

    The fitted A is a fixed linear functional ``w . mean`` of the checkpoint
    means, so its standard error is that of ``w . per_replica`` over the
    replicas.
    """
    w = _tail_fit(cps, d)[0]
    A = float(w @ mean)
    return PairLimit(t=cps, running=mean, stderr=se,
                     exponent=_increment_exponent(cps, mean),
                     limit=max(A, float(mean[-1])),
                     limit_stderr=float((w @ per_replica).std(ddof=1)
                                        / np.sqrt(per_replica.shape[1])))


def _tail_fit(cps: np.ndarray, d: int) -> np.ndarray:
    """Linear weights of the least-squares fit ``R(t) = A - c1 t^(1 - d/2)
    - c2 t^(-d/2)`` over the last decade: rows ``(A, c1, c2)``, zero before
    the last decade, so that ``_tail_fit(cps, d) @ R`` is the fit."""
    sel = cps >= cps[-1] / 10.0
    t = cps[sel]
    W = np.zeros((3, len(cps)))
    W[:, sel] = np.linalg.pinv(np.column_stack(
        [np.ones(t.size), -t ** (1.0 - d / 2.0), -t ** (-d / 2.0)]))
    return W


def _increment_exponent(cps: np.ndarray, mean: np.ndarray):
    """Fitted exponent p of the integrand E b ~ t^p over the last decade:
    ``-inf`` if it holds 3 checkpoint increments or more, none is positive
    and the running integral is positive at T (the integrand has died out),
    ``nan`` if fewer than 3 positive ones leave no fit otherwise (a curve that
    is 0 throughout has not started)."""
    dR = np.diff(mean)
    dt = np.diff(cps)
    mid = np.sqrt(cps[1:] * cps[:-1])
    last = mid >= cps[-1] / 10.0
    sel = last & (dR > 0)
    if sel.sum() < 3:
        dead = last.sum() >= 3 and not sel.any() and mean[-1] > 0
        return -np.inf if dead else np.nan
    slope, _ = np.polyfit(np.log(mid[sel]), np.log(dR[sel] / dt[sel]), 1)
    return float(slope)


def _running_exponent(cps: np.ndarray, mean: np.ndarray):
    sel = (cps >= cps[-1] / 100.0) & (mean > 0)
    if sel.sum() < 3:
        return float("nan")
    slope, _ = np.polyfit(np.log(cps[sel]), np.log(mean[sel]), 1)
    return float(slope)


def parse_start(start, d: int, nmark: int) -> tuple:
    """A two-walker start as ``(disp, s_x, s_y)`` with ``disp`` a d-tuple.

    Unmarked walks (``nmark == 0``) take a plain displacement ``x0 - y0``;
    marked walks take ``(disp, s_x, s_y)`` with mark indices below ``nmark``.
    """
    try:
        disp, sx, sy = start if nmark else (start, 0, 0)
        disp = tuple(int(c) for c in np.atleast_1d(disp))
        sx, sy = int(sx), int(sy)
    except (TypeError, ValueError):
        disp = None
    if disp is None or len(disp) != d or not (
            0 <= sx < max(nmark, 1) and 0 <= sy < max(nmark, 1)):
        form = "[disp, s_x, s_y]" if nmark else "a displacement"
        raise ModelError(f"start {start!r} is not {form} on a {d}-dimensional "
                         f"{'marked' if nmark else 'unmarked'} model")
    return disp, sx, sy


@metrics.phase("transience")
def estimate_H(tm: TransformedModel, start_pairs, T: float, replicas: int,
               rng: np.random.Generator) -> TransienceReport:
    """Estimate the transience constant H over a grid of start pairs.

    ``start_pairs`` is a list of initial displacements ``x0 - y0``, or of
    ``(disp, s_x, s_y)`` for marked models (see ``parse_start``); the
    per-start results are keyed the same way.  For each start the exact
    two-walker path integral is averaged over replicas; starts with the
    same marks share one chain (``pair_integral_curves``), run per mark pair
    in order of first appearance, so their estimates are correlated.  The
    extrapolated limit of the running integral (``pair_limit``) is each
    start's ``estimate``, with its own standard error ``estimate_stderr``;
    ``stderr`` is that of the running integral at T.  The estimate plus 3
    ``stderr`` gives the per-start value, and H_hat is the grid maximum; a
    run that has not converged reports the largest running integral at T
    instead.  The report's ``stderr`` and curve are those of the start that
    gives H_hat.  ``converged`` requires the fitted integrand exponent
    (``nan`` on too short a horizon) to clear -1 by ``INTEGRABILITY_MARGIN``.
    """
    walk = lattice_walk(tm)
    d = walk.d
    nmark = len(walk.v) if tm.marked else 0
    starts = [parse_start(start, d, nmark) for start in start_pairs]
    # one chain per initial mark pair, in order of first appearance
    groups = {}
    for d0, s0x, s0y in starts:
        groups.setdefault((s0x, s0y), []).append(d0)
    limits = {}
    for (s0x, s0y), disps in groups.items():
        group = pair_integral_curves(walk, disps, s0x, s0y, T, replicas, rng)
        limits.update(((d0, s0x, s0y), pair_limit(*curve, d))
                      for d0, curve in zip(disps, group))
    per_start = {}
    converged = True
    for d0, s0x, s0y in starts:
        lim = limits[d0, s0x, s0y]
        per_start[(d0, s0x, s0y) if nmark else d0] = {
            "estimate": lim.limit, "estimate_stderr": lim.limit_stderr,
            "stderr": float(lim.stderr[-1]), "tail_exponent": lim.exponent,
            "running_final": float(lim.running[-1]),
            "growth_exponent": _running_exponent(lim.t, lim.running),
        }
        converged = converged and lim.integrable

    def value(lim: PairLimit) -> float:
        if converged:
            return lim.limit + 3 * float(lim.stderr[-1])
        # no finite extrapolation is meaningful; the raw running integral
        return float(lim.running[-1])

    # the first start with the largest value gives H_hat, its stderr and curve
    worst = max((limits[start] for start in starts), key=value)
    return TransienceReport(
        H_hat=float(value(worst)), stderr=float(worst.stderr[-1]),
        tail_exponent_fit=float(np.max([v["tail_exponent"] for v in per_start.values()])),
        horizon=float(T), converged=bool(converged),
        growth_exponent=float(np.max([v["growth_exponent"] for v in per_start.values()])),
        per_start=per_start, times=worst.t, running=worst.running)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------

def heat_bound_check(tm: TransformedModel, t_grid, x0, xi1, replicas: int,
                     rng: np.random.Generator) -> dict:
    """Heat-kernel bound: E_x b(X(t), y) <= kappa E alpha(xi(t) - xi_1).

    Estimates ``kappa * E alpha(xi(t) - xi_1)`` by Monte Carlo (the
    zero-jump singular part ``exp(-v t) alpha(xi_0 - xi_1)`` is included by
    the paths that have not jumped) and reports ``estimate * t^{d/2}``
    together with a flatness verdict over the last decade.
    """
    walk = lattice_walk(tm)
    d = walk.d
    xi0, s0 = _walker_start(tm, x0)
    xi1 = np.asarray(xi1, dtype=np.int64).reshape(walk.d)
    kappa = walk.Q.max() / walk.q.min()
    t_grid = np.asarray(t_grid, dtype=float)
    start = xi0 - xi1                          # xi(t) - xi_1 at t = 0
    shift = _lattice_code(start[None])
    s = np.full((replicas, 1), s0, dtype=np.int64)
    vals = np.array([kappa * walk.alpha_at(shift + code) for _, _, code in _jump_chain(
        walk.v, walk.mark_trans, walk.steps, walk.step_probs, s, (1,), t_grid, rng,
        reach=int(np.abs(start).max()))])
    est = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / np.sqrt(replicas)
    scaled = est * t_grid ** (d / 2.0)
    scaled_se = se * t_grid ** (d / 2.0)
    last = t_grid >= t_grid[-1] / 10.0
    # flat over the last decade: endpoints agree within combined 3 SE
    i0 = int(np.argmax(last))
    drift = scaled[-1] - scaled[i0]
    drift_se = float(np.hypot(scaled_se[-1], scaled_se[i0]))
    return {
        "t": t_grid, "estimate": est, "stderr": se,
        "scaled": scaled, "scaled_stderr": scaled_se,
        "sup_scaled": float(scaled.max()),
        "drift_last_decade": float(drift), "drift_stderr": drift_se,
        "flat": bool(abs(drift) <= 3 * drift_se),
        "kappa": float(kappa),
    }


def _convolution(alpha: Kernel | dict, d: int, n_max: int):
    """``alpha^{*n}`` for n = 1..n_max by the stencil recursion ``alpha^{*(n+1)}
    = sum_k alpha_k shift_k(alpha^{*n})``, on a window that grows by the
    stencil radius K each step.  On an axis where the stencil equals its mirror
    ``x_i -> -x_i`` exactly, so does every ``alpha^{*n}``: the window holds only
    ``x_i >= 0``, and the K layers below 0 are read by reflection.  The window
    holds the whole support; its mass (cells with ``x_i > 0`` twice on each
    symmetric axis) is still checked against ``MASS_TOL``.  Returns the sups,
    ``alpha^{*n_max}`` on the window and the symmetric-axis mask.
    """
    st = alpha.stencil if isinstance(alpha, Kernel) else {
        tuple(np.atleast_1d(k)): float(v) for k, v in alpha.items()}
    K = max(max(abs(c) for c in k) for k in st)
    base = np.zeros((2 * K + 1,) * d)
    for k, v in st.items():
        base[tuple(np.asarray(k) + K)] = v
    total = base.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise ModelError(f"stencil mass {total:.6g} is not normalized to 1")
    sym = [bool(np.array_equal(base, np.flip(base, axis=i))) for i in range(d)]
    metrics.count("convolution.symmetric_axes", sum(sym))
    # one product v * alpha^{*n} per distinct value; the entry k moves index p
    # to p + k_i - K on a symmetric axis (read from -K), else to p + k_i + K
    groups = {}
    for k, v in st.items():
        if v != 0.0:
            groups.setdefault(v, []).append(
                [c - K if s else c + K for c, s in zip(k, sym)])
    cur = base[tuple(slice(K, None) if s else slice(None) for s in sym)]
    sups = [float(cur.max())]
    for n in range(2, n_max + 1):
        src = np.pad(cur, [(K, 0) if s else (0, 0) for s in sym], mode="reflect")
        cur = np.zeros(tuple(n * K + 1 if s else 2 * n * K + 1 for s in sym))
        for v, shifts in groups.items():
            scaled = v * src
            for h in shifts:
                cur[tuple(slice(max(c, 0), m + c) for c, m in zip(h, src.shape))] += (
                    scaled[tuple(slice(max(-c, 0), None) for c in h)])
        metrics.count("convolution.cells", cur.size)
        mass = cur
        for i in reversed(range(d)):
            mass = 2 * mass.sum(axis=i) - mass.take(0, axis=i) if sym[i] else mass.sum(axis=i)
        if abs(float(mass) - 1.0) > MASS_TOL:
            raise ModelError(f"convolution mass leakage {abs(float(mass) - 1.0):.3e}")
        sups.append(float(cur.max()))
    return np.array(sups), cur, sym


def iterated_convolution(alpha: Kernel | dict, d: int, n_max: int):
    """``(sups, last)``: ``sups[n-1] = sup alpha^{*n}``, and ``alpha^{*n_max}``
    on the full window, unfolded once from ``_convolution``'s half window."""
    sups, half, sym = _convolution(alpha, d, n_max)
    return sups, np.pad(half, [(m - 1, 0) if s else (0, 0)
                               for m, s in zip(half.shape, sym)], mode="reflect")


def convolution_bound_check(alpha, d: int, n_max: int) -> dict:
    """Verify sup alpha^{*n} * n^{d/2} stays bounded (no divergence trend)."""
    sups, _, _ = _convolution(alpha, d, n_max)
    n = np.arange(1, n_max + 1)
    scaled = sups * n ** (d / 2.0)
    med = float(np.median(scaled))
    return {
        "n": n, "sup": sups, "scaled": scaled,
        "max_over_median": float(scaled.max() / med),
        "bounded": bool(scaled.max() <= 2.0 * med),
    }


def jump_count_cdf(v: np.ndarray, trans: np.ndarray, p0: np.ndarray, t_grid,
                   k_max: int) -> np.ndarray:
    """``P(N_t <= k)`` for k = 0..k_max at each grid time: the exact law of the
    jump count N_t of the mark chain started from the law ``p0``.

    The chain holds at rate ``v[s]`` and jumps to mark s' with probability
    ``trans[s, s']`` (a jump to s itself counts).  Uniformized at ``Lambda =
    max v`` (Jensen 1953), it makes one move per Poisson(Lambda t) event: a
    jump with probability ``v[s] / Lambda``, else a virtual stay.  The law of
    (count, mark) after n events, counts above k_max dropped, is weighted by
    ``exp(-Lambda t) (Lambda t)^n / n!`` (``math.lgamma``) for as many n as
    the Poisson(Lambda t_max) tail needs to fall below ``POISSON_TAIL``, so
    about ``Lambda t_max + 10 sqrt(Lambda t_max)`` terms.  Their number is
    counted in ``metrics`` as ``lemmas.uniformized_terms``.
    """
    v = np.asarray(v, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    lam = float(v.max())
    mean = lam * float(t_grid.max())
    # past the mean the weights fall at least geometrically with ratio
    # r = mean / (n + 1), so the tail beyond term n is at most w_n r / (1 - r)
    n, logw = 0, -mean
    while mean and (n <= mean or math.exp(logw) * mean / (n + 1 - mean) > POISSON_TAIL):
        n += 1
        logw += math.log(mean / n)
    terms = n + 1
    metrics.count("lemmas.uniformized_terms", terms)
    jump = (v / lam)[:, None] * np.asarray(trans, dtype=float)
    stay = 1.0 - v / lam
    p = np.zeros((k_max + 1, len(v)))
    p[0] = np.asarray(p0, dtype=float) / np.sum(p0)
    below = np.empty((terms, k_max + 1))   # P(count <= k) after n events
    for n in range(terms):
        below[n] = np.cumsum(p.sum(axis=1))
        p[1:] = p[1:] * stay + p[:-1] @ jump
        p[0] *= stay
    lt = lam * t_grid[:, None]
    ns = np.arange(terms)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = -lt + ns * np.log(lt) - np.array([math.lgamma(k + 1.0) for k in ns])
    logw[:, 0] = -lt[:, 0]                # (Lambda t)^0 = 1 at t = 0 too
    # the kept terms hold all but POISSON_TAIL of the mass: normalizing them
    # removes the rounding error they share
    w = np.exp(logw)
    return (w / w.sum(axis=1, keepdims=True)) @ below


def poisson_domination_check(v: np.ndarray, theta: ThetaKernel, lambda0: float,
                             t_grid, k_grid) -> dict:
    """Exact CDF of the state-dependent jump count versus Poisson(lambda0).

    The mark chain starts from ``nu``.  Passes iff ``P(N_t <= k) <=
    PoissonCDF(k; lambda0 t) + DOMINATION_TOL`` at every (t, k) grid cell;
    both sides come from ``jump_count_cdf``, the Poisson one as the one-mark
    chain at rate lambda0, and the tolerance only absorbs rounding.
    """
    v = np.asarray(v, dtype=float)
    if lambda0 > v.min() + 1e-12:
        raise ModelError("lambda0 must be a lower bound for the mark rates")
    trans = theta.transition_probs()
    trans = trans / trans.sum(axis=1, keepdims=True)
    t_grid = np.asarray(t_grid, dtype=float)
    k_grid = np.asarray(k_grid, dtype=int)
    k_max = int(k_grid.max())
    chain = jump_count_cdf(v, trans, theta.nu, t_grid, k_max)[:, k_grid]
    poisson = _poisson_cdf(lambda0, t_grid, k_max)[:, k_grid]
    ok = chain - poisson <= DOMINATION_TOL
    return {
        "t": t_grid, "k": k_grid, "chain_cdf": chain, "poisson_cdf": poisson,
        "cells_ok": ok, "passed": bool(ok.all()),
        "max_excess": float((chain - poisson).max()), "tolerance": DOMINATION_TOL,
    }


def _poisson_cdf(lam: float, t_grid, k_max: int) -> np.ndarray:
    """``PoissonCDF(k; lam t)`` for k = 0..k_max: the one-mark chain's law."""
    return jump_count_cdf(np.array([lam]), np.ones((1, 1)), np.ones(1), t_grid, k_max)


def lower_tail_bound_check(lambda0: float, t_grid) -> dict:
    """Exact lower-tail bound P(n(t) <= floor(l0 t / 2)) <= M t exp(-B l0 t).

    ``B = (1 - ln 2) / 2`` and ``M = lambda0 / 2``.  The grid must
    start at t >= 2 / lambda0 (below that the floor is 0 and the bound is a
    boundary convention, excluded by contract).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.min() < 2.0 / lambda0:
        raise ModelError("t grid must start at t >= 2 / lambda0")
    Mt = 0.5 * lambda0
    kflr = np.floor(0.5 * lambda0 * t_grid).astype(int)
    exact = _poisson_cdf(lambda0, t_grid, int(kflr.max()))[np.arange(t_grid.size), kflr]
    bound = Mt * t_grid * np.exp(-LOWER_TAIL_B * lambda0 * t_grid)
    ratio = exact / bound
    return {
        "t": t_grid, "exact_cdf": exact, "bound": bound, "ratio": ratio,
        "max_ratio": float(ratio.max()), "passed": bool(np.all(exact <= bound)),
        "B": LOWER_TAIL_B, "M_tilde": float(Mt),
    }
