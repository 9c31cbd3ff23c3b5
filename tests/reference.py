"""Monte Carlo references that the exact and skeleton code is cross-checked
against: a scalar single-path walker, the exponential-clock jump chain of
both walkers, and the mark-chain jump counts read off that chain; the
pointwise lookups of a point's index, of a walk's stencil and of b; and
the skeleton walk stepped one step at a time from the same group draws;
the scalar single-trajectory contact process, which picks each event by its
destination, against the particle-attributed ``run_replicas``; the
residual of the jump-extended balance condition; the sorted-index cells of
a tensor by ``np.sort``, and the canonical cells by a fixpoint over the
window symmetries' generators; the hierarchy operator Lhat_n and its semigroup,
applied axis by axis, and the distance of the evolved hierarchy from its
stationary solution; the heat-bound values
credited at every grid time and skeleton step; the skeleton sums credited
hit by hit, with a take and a product per mark; and the iterated
convolution unfolded onto its full window."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from contactlab import metrics
from contactlab.criticality import GroundState, TransformedModel
from contactlab.errors import DivergenceError, ModelError, SpaceError
from contactlab.hierarchy import (evolve_hierarchy, generator_matrix, poisson_initial,
                                  stationary_k)
from contactlab.model import RateModel, StateSpace, kernel_matrix
from contactlab.simulator import DEFAULT_EVENT_CAP, EventLog
from contactlab.walkers import (LatticeWalk, _convolution, _lattice_code, _on_support,
                                _skeleton_hits, _skeleton_weights, _step_law, _support_hash,
                                _walker_start, lattice_walk)


def locate(space: StateSpace, point) -> int:
    """The index of ``point`` in ``space.points``."""
    try:
        return space.points.index(point)
    except ValueError:
        raise SpaceError(f"unknown point {point!r}") from None


def alpha_at(walk: LatticeWalk, codes: np.ndarray) -> np.ndarray:
    """alpha at lattice codes; zero off the support."""
    out = np.zeros(len(codes))
    near, pos = _on_support(walk.support, _support_hash(walk.support), codes)
    out[near] = walk.support_alpha[pos]
    return out


def alpha_of(walk: LatticeWalk, disp: np.ndarray) -> np.ndarray:
    """Vectorized stencil lookup; zero outside the support box."""
    D = np.atleast_2d(np.asarray(disp, dtype=np.int64))
    out = np.zeros(len(D))
    inside = np.flatnonzero(np.all(np.abs(D) <= walk.K, axis=1))
    out[inside] = alpha_at(walk, _lattice_code(D[inside]))
    return out


def b_pair(walk: LatticeWalk, disp, sx, sy) -> np.ndarray:
    """b(X, Y) = alpha(xi_X - xi_Y) Q(s_X, s_Y) / q(s_X)."""
    return alpha_of(walk, disp) * walk.Q[sx, sy] / walk.q[sx]


@dataclass
class WalkerPath:
    """Piecewise-constant trajectory: jump times and visited states."""

    times: np.ndarray   # strictly increasing, times[0] = 0
    states: list        # states[i] held on [times[i], times[i+1])

    def state_at(self, t: float):
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.states[i]


def _draw(cum: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index from cumulative probabilities."""
    return min(int(np.searchsorted(cum, rng.random())), len(cum) - 1)


def simulate_jump(tm: TransformedModel, x0, T: float,
                  rng: np.random.Generator, walk: LatticeWalk | None = None) -> WalkerPath:
    """One walker trajectory on [0, T].

    Translation-invariant models walk the unbounded lattice, with the walk
    law ``walk`` (built from ``tm`` when not given); generic dense models
    walk the enumerated points with jump law ``b(x,.) mbar / V(x)``.
    """
    if tm.translation_invariant:
        walk = lattice_walk(tm) if walk is None else walk
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
    i = locate(tm.space, x0)
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


def skeleton_hits(codes: np.ndarray, probs: np.ndarray, replicas: int, K: int,
                  support: np.ndarray, rng: np.random.Generator):
    """The hits of ``replicas`` skeleton walks ``S_0..S_K`` on the sorted
    ``support`` as ``(replica, position in support, n)`` in (n, replica)
    order, from the draws ``_skeleton_hits`` makes: one index per group of
    k steps (``O^k <= 1296``) into the k-tuples of step outcomes in
    ``itertools.product`` order, uniform or an inverse-CDF draw under their
    product law.  Each tuple is decoded into its k steps, and each position
    is looked up with ``np.isin``."""
    O = len(codes)
    k = 1
    while O ** (k + 1) <= 1296:
        k += 1
    tuples = list(itertools.product(range(O), repeat=k))
    law = np.array([math.prod(probs[o] for o in tup) for tup in tuples])
    digits = np.array(tuples)                                    # (O^k, k)
    code = np.zeros(replicas, dtype=np.int64)
    hits = []

    def look(n):
        on = np.flatnonzero(np.isin(code, support))
        hits.append((on, np.searchsorted(support, code[on]), np.full(on.size, n)))

    look(0)
    for first in range(1, K + 1, k):
        if (probs == probs[0]).all():
            t = rng.integers(len(tuples), size=replicas, dtype=np.uint16)
        else:
            cdf = np.cumsum(law)
            t = np.searchsorted(cdf / cdf[-1], rng.random(replicas), side="right")
        for j, n in enumerate(range(first, min(first + k, K + 1))):
            code = code + codes[digits[t, j]]
            look(n)
    return tuple(np.concatenate(field) for field in zip(*hits))


def skeleton_sums(walk: LatticeWalk, codes: np.ndarray, probs: np.ndarray, replicas: int,
                  K: int, reach: int, support: np.ndarray, tables: np.ndarray,
                  weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``walkers._skeleton_sums`` from the same hits, each hit's credit
    formed for itself: per column, ``sum_m tables[k, m, pos] weights[k, c,
    m, n]`` by one take of the table and one of the weights per mark."""
    M = tables.shape[1]
    mine = tables.any(axis=1)                                  # (start, support code)
    nonzero = weights.any(axis=2)                              # (start, column, n)
    first = nonzero.argmax(axis=2)
    last = nonzero.shape[2] - 1 - nonzero[:, :, ::-1].argmax(axis=2)
    sums = np.zeros((len(tables), weights.shape[1], replicas))
    for near, pos, step in _skeleton_hits(walk, codes, probs, replicas, K, reach,
                                          support, rng):
        for k, (table, weight) in enumerate(zip(tables, weights)):
            on = np.flatnonzero(mine[k].take(pos))
            n, p, r = step[on], pos[on], near[on]
            for c, (lo, hi) in enumerate(np.searchsorted(n, np.c_[first[k], last[k] + 1])):
                if lo == hi:
                    continue
                credit = table[0].take(p[lo:hi]) * weight[c, 0].take(n[lo:hi])
                for m in range(1, M):
                    credit += table[m].take(p[lo:hi]) * weight[c, m].take(n[lo:hi])
                sums[k, c] += np.bincount(r[lo:hi], credit, minlength=replicas)
    return sums


def clock_pair_curves(walk: LatticeWalk, displacements, s0x: int, s0y: int, T: float,
                      checkpoints, replicas: int, rng: np.random.Generator):
    """Mean and standard error of the running integral of b(X_t, Y_t) at each
    checkpoint, per displacement (rows), from ``_jump_chain``: two walkers
    with exponential clocks and marks, each holding piece on the support
    credited with its conditional mean.  No orbit averaging."""
    disps = np.asarray(displacements, dtype=np.int64).reshape(-1, walk.d)
    M = len(walk.v)
    sx, sy = np.divmod(np.arange(M * M), M)
    weight = walk.Q[sx, sy] / walk.q[sx]
    merged = np.unique(np.concatenate([walk.support - c for c in _lattice_code(disps)]))
    tables = np.zeros((len(disps), M * M, len(merged)))
    for k, c in enumerate(_lattice_code(disps)):
        tables[k][:, np.searchsorted(merged, walk.support - c)] = (
            walk.support_alpha * weight[:, None])
    s = np.tile(np.array([s0x, s0y], dtype=np.int64), (replicas, 1))
    running = np.array([I.copy() for I, _, _ in _jump_chain(
        walk.v, walk.mark_trans, walk.steps, walk.step_probs, s, (1, -1),
        np.asarray(checkpoints, dtype=float), rng, reach=int(np.abs(disps).max()),
        support=(merged, tables))])                       # (checkpoints, starts, R)
    return (running.mean(axis=2).T,
            (running.std(axis=2, ddof=1) / np.sqrt(replicas)).T)


def mark_chain_jump_counts(v: np.ndarray, trans: np.ndarray, nu: np.ndarray,
                           t_grid, replicas: int, rng: np.random.Generator,
                           s0: int | None = None) -> np.ndarray:
    """Jump counts N_t of the mark chain at each grid time, per replica
    (replicas, times): the chain starts from ``nu``, or from the mark ``s0``.

    The stepper runs one walker in d = 1 whose only step is 0, so only the
    mark moves and each jump is counted.
    """
    if s0 is None:
        s = rng.choice(len(v), size=replicas, p=nu / nu.sum())
    else:
        s = np.full(replicas, s0, dtype=np.int64)
    chain = _jump_chain(v, trans, np.zeros((1, 1), dtype=np.int64), np.ones(1),
                        s[:, None], (1,), np.asarray(t_grid, dtype=float), rng)
    return np.column_stack([n.copy() for _, n, _ in chain])


def empirical_cdf(counts: np.ndarray, k_grid):
    """``P(N_t <= k)`` at each (time, k) cell of the ``counts`` (replicas,
    times) and its binomial standard error, floored at one replica's worth."""
    R = len(counts)
    cdf = (counts[:, :, None] <= np.asarray(k_grid)).mean(axis=0)
    return cdf, np.sqrt(np.maximum(cdf * (1 - cdf), 1.0 / R) / R)


def simulate_contact(tm: TransformedModel, counts0, T: float, snapshot_times,
                     rng: np.random.Generator, event_cap: int = DEFAULT_EVENT_CAP,
                     keep_events: bool = True) -> EventLog:
    """One exact-jump trajectory on [0, T] with snapshots at the given times."""
    size = tm.space.size
    counts = np.asarray(counts0, dtype=np.int64).copy()
    if counts.shape != (size,) or np.any(counts < 0):
        raise ModelError("initial counts must be a non-negative per-point vector")
    birth_M = tm.b * tm.mbar[:, None]     # birth_M[y, x] = b(y, x) mbar(y)
    V = tm.death
    jump_M = None
    if tm.jump_b is not None:
        jump_M = tm.jump_b * tm.mbar[:, None]    # jump_M[y, x] = jb(y, x) mbar(y)
        jump_out = jump_M.sum(axis=0)            # total jump rate per particle at x
    snap_times = sorted(float(t) for t in snapshot_times)
    snaps: dict[float, np.ndarray] = {}
    events = []
    t = 0.0
    si = 0
    n_events = 0
    truncated = False
    while True:
        birth_w = birth_M @ counts
        birth_rate = float(birth_w.sum())
        death_w = V * counts
        death_rate = float(death_w.sum())
        jump_rate = 0.0
        if jump_M is not None:
            jump_w_out = jump_out * counts
            jump_rate = float(jump_w_out.sum())
        total = birth_rate + death_rate + jump_rate
        t_next = t + (rng.exponential(1.0 / total) if total > 0 else np.inf)
        while si < len(snap_times) and snap_times[si] <= min(t_next, T):
            snaps[snap_times[si]] = counts.copy()
            si += 1
        if t_next >= T or total == 0.0:
            t = min(T, t_next)
            break
        t = t_next
        u = rng.random() * total
        if u < death_rate:
            i = int(np.searchsorted(np.cumsum(death_w), u))
            counts[i] -= 1
            kind = "death"
            pt = (i,)
        elif u < death_rate + birth_rate:
            i = int(np.searchsorted(np.cumsum(birth_w), u - death_rate))
            counts[i] += 1
            kind = "birth"
            pt = (i,)
        else:
            uj = u - death_rate - birth_rate
            i = int(np.searchsorted(np.cumsum(jump_w_out), uj))
            dest_w = jump_M[:, i]
            j = int(np.searchsorted(np.cumsum(dest_w), rng.random() * dest_w.sum()))
            counts[i] -= 1
            counts[j] += 1
            kind = "jump"
            pt = (i, j)
        if keep_events:
            events.append((t, kind, pt))
        n_events += 1
        if n_events >= event_cap:
            truncated = True
            break
    return EventLog(events=events, snapshots=snaps, truncated=truncated,
                    final_counts=counts, event_cap=event_cap)


def jump_criticality_residual(model: RateModel, space: StateSpace,
                              gs: GroundState) -> float:
    """Residual of the jump-extended balance condition.

    sup_x | sum_y (a + J)(x, y) psi(y) m(y)
            - (V(x) + sum_y J(y, x) m(y)) psi(x) |.
    """
    psi = gs.psi
    A = kernel_matrix(model.birth, space)
    J = kernel_matrix(model.jump, space)
    inflow = (A + J) @ (psi * space.weights)
    outflow = (model.death + J.T @ space.weights) * psi
    return float(np.abs(inflow - outflow).max())


def sorted_index_cells(n: int, size: int) -> np.ndarray:
    """The C-order flat index of each cell of an order-n tensor over ``size``
    points with its indices sorted ascending, by ``np.sort`` of every index
    (the symmetrization rule of artifact version 0.25.0)."""
    cells = np.sort(np.indices((size,) * n).reshape(n, -1), axis=0)
    return np.ravel_multi_index(tuple(cells), (size,) * n)


def _sorted_cells(points: list, size: int) -> np.ndarray:
    """The C-order flat index of each cell ``points`` (n index arrays that
    broadcast together) with its indices sorted ascending, by a bubble
    network of compare-swaps."""
    x = list(points)
    for top in range(len(x) - 1, 0, -1):
        for i in range(top):
            x[i], x[i + 1] = np.minimum(x[i], x[i + 1]), np.maximum(x[i], x[i + 1])
    flat = x[0].astype(np.intp)   # the last swaps leave x[0] full-shaped
    for xi in x[1:]:
        flat *= size
        flat += xi
    return flat.ravel()


def fixpoint_canonical_cells(n: int, size: int, generators=()) -> np.ndarray:
    """The canonical-cell map of artifact version 0.26.0: the C-order flat
    index of the least cell in the orbit of each cell of an order-n tensor
    over ``size`` points, under every permutation of the n indices and under
    the group of point permutations that ``generators`` (index arrays)
    generate, each acting on all n indices at once.

    Sorting a cell's indices gives the least cell of its orbit under the
    index permutations (``_sorted_cells``, on broadcast index arrays of the
    smallest integer type).  Over the sorted cells, each generator maps a
    cell to the sorted image of its points, and the least flat index is
    carried along these maps until no cell changes: the least of its orbit.
    """
    axes = np.arange(size, dtype=np.min_scalar_type(size - 1))
    cells = _sorted_cells([axes.reshape((size,) + (1,) * (n - 1 - i)) for i in range(n)],
                          size)
    if not generators:
        return cells
    sorted_ = np.flatnonzero(cells == np.arange(cells.size))
    points = np.unravel_index(sorted_, (size,) * n)
    # the position among the sorted cells of each sorted cell's flat index
    position = np.empty_like(cells)
    position[sorted_] = np.arange(sorted_.size)
    images = [position[_sorted_cells([g[p] for p in points], size)] for g in generators]
    least = sorted_.copy()
    while True:
        before = least.copy()
        for image in images:
            np.minimum(least, least[image], out=least)
        if np.array_equal(least, before):
            position[sorted_] = least   # now the least cell of each orbit
            return position[cells]


def _apply_axis(M: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(M, k, axes=([1], [axis])), 0, axis)


def _apply_each_axis(M: np.ndarray, k: np.ndarray) -> np.ndarray:
    """M applied along every tensor axis of k (the n-fold tensor power of M)."""
    for i in range(k.ndim):
        k = _apply_axis(M, k, i)
    return k


def apply_Lhat(n: int, tm: TransformedModel, k: np.ndarray) -> np.ndarray:
    """Hierarchy operator at level n (sum of the level-1 generator per axis)
    applied to the order-n array ``k``."""
    k = np.asarray(k, dtype=float)
    if k.ndim != n or n < 1:
        raise ModelError(f"expected an array of order {n}, got {k.ndim}")
    G = generator_matrix(tm)
    out = np.zeros_like(k)
    for i in range(n):
        out += _apply_axis(G, k, i)
    return out


def semigroup_apply(tm: TransformedModel, t: float, k: np.ndarray,
                    E: np.ndarray | None = None) -> np.ndarray:
    """exp(t Lhat_n) k via the tensorized level-1 exponential."""
    if E is None:
        E = expm(t * generator_matrix(tm))
    return _apply_each_axis(E, np.asarray(k, dtype=float))


def convergence_check(n: int, tm: TransformedModel, rho: float, T_grid,
                      tol: float = 1e-8) -> dict:
    """Distance of the evolved solution from the stationary one over time.

    Evolves exactly from Poisson initial data and reports
    ``sup |k_t - k_rho|`` at the grid times; converged when it is at most
    ``tol`` at the last one.  A DivergenceError from the stationary solve is
    reported as non-convergence with the growth of ``sup |k_t|`` as the
    diagnostic.  ``PairCorrelationMC.convergence`` is the Monte Carlo verdict.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    k0 = [poisson_initial(m, rho, tm.space) for m in range(1, n + 1)]
    try:
        k_inf = stationary_k(n, tm, rho)
    except DivergenceError as exc:
        _, traj = evolve_hierarchy(tm, k0, T_grid)[n]
        return {"t": T_grid, "distance": None,
                "norm_growth": np.abs(traj).reshape(len(T_grid), -1).max(axis=1),
                "converged": False, "divergence": str(exc),
                "diagnostics": exc.diagnostics}
    _, traj = evolve_hierarchy(tm, k0, T_grid)[n]
    dist = np.abs(traj - k_inf).reshape(len(T_grid), -1).max(axis=1)
    return {"t": T_grid, "distance": dist, "threshold": tol,
            "converged": bool(dist[-1] <= tol), "stationary": k_inf}


def heat_bound_values(tm: TransformedModel, t_grid, x0, xi1, replicas: int,
                      rng: np.random.Generator) -> np.ndarray:
    """The per-replica values ``kappa sum_n P(N_t = n) alpha(xi_0 - xi_1 +
    S_n)`` (times, replicas) of ``heat_bound_check``, from the same skeleton
    draws, with every hit credited at every grid time whatever its weight."""
    walk = lattice_walk(tm)
    xi0, s0 = _walker_start(tm, x0)
    start = xi0 - np.asarray(xi1, dtype=np.int64).reshape(walk.d)
    weights, [K] = _skeleton_weights(walk.v, walk.mark_trans, np.eye(len(walk.v))[[s0]],
                                     t_grid, integrated=False)
    point = weights[0].sum(axis=2)
    vals = np.zeros((len(point), replicas))
    for near, pos, step in _skeleton_hits(walk, *_step_law(walk), replicas, int(K),
                                          int(np.abs(start).max()),
                                          walk.support - _lattice_code(start[None])[0], rng):
        hit = walk.support_alpha[pos]
        for i, w in enumerate(point):
            vals[i] += np.bincount(near, w[step] * hit, minlength=replicas)
    return vals * (walk.Q.max() / walk.q.min())


def iterated_convolution(alpha: dict, d: int, n_max: int):
    """``(sups, last)``: ``sups[n-1] = sup alpha^{*n}``, and ``alpha^{*n_max}``
    on the full window, unfolded once from ``_convolution``'s half window."""
    sups, half, sym = _convolution(alpha, d, n_max)
    return sups, np.pad(half, [(m - 1, 0) if s else (0, 0)
                               for m, s in zip(half.shape, sym)], mode="reflect")
