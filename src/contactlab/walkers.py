"""Auxiliary Markov jump walkers and the probabilistic lemma checks.

The walker jumps from x with holding rate V(x) and jump law
``b(x, dy) mbar(dy) / V(x)``.  For translation-invariant critical models
(a stencil or factorized kernel with death rates ``v(s)``) the walker lives
on the unbounded lattice: the displacement increment is drawn from the
normalized stencil ``alpha`` and the mark moves independently with the
row-stochastic law ``Theta(s, .) nu`` that ``theta_kernel`` returns and
checks; a plain lattice is one mark, which never changes.  The transience
functional

    sup_{x,y} int_0^inf E_{x,y} b(X(t), Y(t)) dt

is estimated by path integrals of ``b`` along the two walkers, extrapolated
to T = inf by one tail fit ``A - c1 t^{1 - d/2} - c2 t^{-d/2}``,
``pair_limit``.

All walker Monte Carlo simulates only the spatial skeleton
(``_skeleton_hits``): a walker's position after ``N_t`` jumps is ``xi_0 +
S_{N_t}``, with ``S`` a walk of i.i.d. steps independent of the jump count
of the marks, and ``X - Y`` factors the same way on a reflection-symmetric
stencil or a one-mark model.  The clocks and marks enter through their exact
(count, mark) law by uniformization, ``jump_count_law`` (conditional Monte
Carlo), and one loop (``_skeleton_sums``) credits each skeleton hit with
those weights for both functionals, the pair integral and the heat bound.
A replica is one int64 lattice code (``_lattice_code``), the integrand is
looked up through a hashed prefilter (``_on_support``), each start reads it
averaged over its stencil-symmetry orbit, and one skeleton serves every
start (common random numbers).  A start that the skeleton
could carry out of the code's range is a ``ModelError`` before any draw.

The lemma checks are exact on a nearest-neighbour stencil (equal weights
on the ``+-e_i``, ``_nearest_neighbour``): ``_point_law`` gives ``P(S_n =
x)`` of its skeleton in closed form, which yields both the convolution sups
and the heat-kernel bound (``heat_bound_exact``).  On any other stencil the
convolution bound is a deterministic recursion (``_convolution``) and the
heat-kernel bound is Monte Carlo in its skeleton only (``heat_bound_check``).
The Poisson domination compares the exact jump-count law of the mark chain
(``jump_count_cdf``) with the Poisson CDF, which is the same law for one
mark at rate ``lambda0`` and which the lower-tail bound reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .criticality import MASS_TOL, TransformedModel, theta_kernel
from .errors import ModelError
from .model import _symmetry_generators, _unique

__all__ = [
    "TransienceReport",
    "LatticeWalk",
    "lattice_walk",
    "pair_integral_curves",
    "PairLimit",
    "pair_limit",
    "parse_start",
    "estimate_H",
    "heat_bound_check",
    "heat_bound_exact",
    "convolution_bound_check",
    "jump_count_law",
    "jump_count_cdf",
    "poisson_domination_check",
    "lower_tail_bound_check",
    "LOWER_TAIL_B",
]

# decay exponent in the lower-tail bound  P(n(t) <= floor(l0 t / 2)) <= M t exp(-B l0 t)
LOWER_TAIL_B = (1.0 - np.log(2.0)) / 2.0
# a jump-count CDF may exceed the Poisson CDF it is dominated by only by rounding
DOMINATION_TOL = 1e-12
# the Poisson(Lambda t) tail mass that jump_count_law's uniformization leaves
# out, and the weight below which a count lies past the skeleton's length K
POISSON_TAIL = 1e-18
# jump_count_law drops the entries of the (count, mark) law below this
LAW_TRIM = 1e-30
# a fitted integrand exponent counts as integrable only at or below -1 - margin
INTEGRABILITY_MARGIN = 0.05
# the most float64 entries (1 GiB) jump_count_law allocates for its law or
# the block-diagonal jump matrix of its start laws; a larger law is a
# ModelError.  8 marks (64 joint marks) to T = 150 take 0.73 of it.
LAW_CAP = 1 << 27
# heat_bound_exact's curve is flat when its last-decade slope drift is at most
# this fraction of its last slope in size, and bounded when it rises by at most that
HEAT_FLAT_RTOL = 0.01


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


def lattice_walk(tm: TransformedModel) -> LatticeWalk:
    """Build the walk law from a translation-invariant critical model."""
    if not tm.translation_invariant:
        raise ModelError("lattice walk requires a translation-invariant model")
    d = tm.space.dim
    items = sorted(tm.alpha.items())
    steps = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), d)
    vals = np.array([v for _, v in items])
    trans = theta_kernel(tm)
    K = max(int(np.abs(steps).max()), 1)
    nonzero = vals != 0
    codes = _lattice_code(steps[nonzero])
    order = np.argsort(codes)
    probs = vals / vals.sum()
    return LatticeWalk(d=d, steps=steps, step_probs=probs, v=tm.v,
                       mark_trans=trans, Q=tm.Q, q=tm.q,
                       support=codes[order], support_alpha=vals[nonzero][order],
                       K=K)


# ---------------------------------------------------------------------------
# Skeleton stepper
# ---------------------------------------------------------------------------

def _walker_start(tm: TransformedModel, x0):
    """Lattice coordinate and mark index of a one-walker start point."""
    if tm.marked:
        return (np.asarray(tm.space.coordinate(x0), dtype=np.int64),
                tm.space.marks.index(x0[1]))
    return np.asarray(x0, dtype=np.int64).reshape(tm.space.dim), 0


# a block of _skeleton_hits closes once it holds this many steps or hits
_BLOCK = 64
_BLOCK_HITS = 1 << 18
# the most step tuples one skeleton draw picks from: 6^4 on nearest-neighbour Z^3
_GROUP_OUTCOMES = 1296


def _step_groups(codes: np.ndarray, probs: np.ndarray):
    """``(prefix, law)`` of the k-tuples of steps, k the largest with ``O^k
    <= _GROUP_OUTCOMES`` (at least 1) for the O step ``codes`` of law
    ``probs``, in ``itertools.product`` order: ``prefix[j]`` (k, O^k) is
    each tuple's code after its first j + 1 steps, and ``law`` its
    probability."""
    O = len(probs)
    k = 1
    while O ** (k + 1) <= _GROUP_OUTCOMES:
        k += 1
    tuples = np.indices((O,) * k).reshape(k, -1)
    return np.cumsum(codes[tuples], axis=0), np.prod(probs[tuples], axis=0)


def _skeleton_hits(walk: LatticeWalk, codes: np.ndarray, probs: np.ndarray, replicas: int,
                   K: int, reach: int, support: np.ndarray, rng: np.random.Generator):
    """Yield the hits of ``replicas`` skeleton walks ``S_n``, n = 0..K, on the
    sorted lattice codes ``support`` in blocks of int32 arrays: replica,
    position in ``support`` and n, in (n, replica) order.

    Each group of k steps (``_step_groups``) is one draw of a k-tuple of
    ``codes`` under the product law of ``probs``: a uniform integer below
    ``O^k`` when the law is uniform, else ``searchsorted`` of a uniform in
    the tuples' CDF.  The group screens the replicas once with the hash
    table of the reach set ``support - prefix``, and ``_on_support`` decides
    the positions (up to S_K) of those that pass.  A block closes with the
    group that brings it to ``_BLOCK`` steps or ``_BLOCK_HITS`` hits, so it
    holds fewer than ``_BLOCK_HITS + k replicas`` hits.  K steps that could
    carry a start ``reach`` away out of the code's range are a ``ModelError``
    before any draw.  K, the replica-steps and the hits go to ``metrics``.
    """
    d = walk.d
    if reach + K * walk.K >= 1 << (63 // d - 1):
        raise ModelError(f"walker displacement may leave the lattice code range 2^"
                         f"{63 // d - 1} in d = {d}: start {reach} + {walk.K} x {K} steps")
    metrics.count("walkers.skeleton_steps", K)
    metrics.count("walkers.replica_steps", K * replicas)
    prefix, law = _step_groups(codes, probs)
    k, G = prefix.shape
    uniform = (probs == probs[0]).all()
    # the tuples' CDF over its own last entry, so that every u < 1 lands below G
    cdf = np.cumsum(law)
    cdf /= cdf[-1]
    hashed = _support_hash(support)
    reach_table, reach_bits = _support_hash(_unique(support[:, None] - _unique(prefix)))

    def close(block, total):
        metrics.count("walkers.support_hits", total)
        return tuple(np.concatenate(field).astype(np.int32) for field in zip(*block))

    code = np.zeros(replicas, dtype=np.int64)
    near, where = _on_support(support, hashed, code)
    block, steps, total = [(near, where, np.zeros_like(near))], 1, near.size
    for first in range(1, K + 1, k):
        kk = min(k, K + 1 - first)
        if uniform:
            t = rng.integers(G, size=replicas, dtype=np.uint16 if G <= 1 << 16 else np.int64)
        else:
            t = np.searchsorted(cdf, rng.random(replicas), side="right")
        cand = np.flatnonzero(reach_table.take(_hash(code, reach_bits)))
        # the candidates' positions after each step of the group, step-major
        at = code[cand] + prefix[:kk].take(t[cand], axis=1)
        hit, where = _on_support(support, hashed, at.ravel())
        j, i = np.divmod(hit, cand.size)
        block.append((cand[i], where, first + j))
        steps, total = steps + kk, total + hit.size
        code += prefix[kk - 1].take(t)
        if steps >= _BLOCK or total >= _BLOCK_HITS:
            yield close(block, total)
            block, steps, total = [], 0, 0
    if block:
        yield close(block, total)


def _skeleton_sums(walk: LatticeWalk, codes: np.ndarray, probs: np.ndarray, replicas: int,
                   K: int, reach: int, support: np.ndarray, tables: np.ndarray,
                   weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The (starts, columns, replicas) sums ``sum_n sum_m tables[k, m, S_n]
    weights[k, c, m, n]`` over the skeleton walks of ``_skeleton_hits``.

    ``tables`` (starts, M, support) holds each start's integrand per mark at
    the sorted ``support`` codes, and ``weights`` (starts, columns, M, steps)
    each column's weight per mark and step.  A hit at step n is credited to
    a start only where its table is nonzero, its own codes, and to a column
    only from the first to the last step at which some weight of that column
    is nonzero.  Per block of hits, start and column, the marks are
    contracted once into a credit table ``g[n - n0, q] = sum_m weights[k, c,
    m, n] tables[k, m, own_k[q]]`` over the block's steps n0.. and the
    start's own codes ``own_k``, and each hit reads its credit with one
    gather at ``(n - n0) len(own_k) + q``.  The (hit, column) pairs gathered
    are counted in ``metrics`` as ``walkers.credit_pairs``.
    """
    M = tables.shape[1]
    mine = tables.any(axis=1)                                  # (start, support code)
    nonzero = weights.any(axis=2)                              # (start, column, n)
    first = nonzero.argmax(axis=2)
    last = nonzero.shape[2] - 1 - nonzero[:, :, ::-1].argmax(axis=2)
    # each start's tables on its own codes, and a support code's index among them
    own = [table[:, row] for table, row in zip(tables, mine)]
    index = np.cumsum(mine, axis=1) - 1
    sums = np.zeros((len(tables), weights.shape[1], replicas))
    pairs = 0
    for near, pos, step in _skeleton_hits(walk, codes, probs, replicas, K, reach,
                                          support, rng):
        for k, (table, weight) in enumerate(zip(own, weights)):
            on = np.flatnonzero(mine[k].take(pos))
            if not on.size:
                continue
            n, r = step[on], near[on]
            n0, n1 = int(n[0]), int(n[-1]) + 1
            h = (n - n0).astype(np.int64) * table.shape[1] + index[k].take(pos[on])
            for c, (lo, hi) in enumerate(np.searchsorted(n, np.c_[first[k], last[k] + 1])):
                if lo == hi:
                    continue
                g = weight[c, 0, n0:n1, None] * table[0]
                for m in range(1, M):
                    g += weight[c, m, n0:n1, None] * table[m]
                sums[k, c] += np.bincount(r[lo:hi], g.ravel().take(h[lo:hi]),
                                          minlength=replicas)
                pairs += hi - lo
    metrics.count("walkers.credit_pairs", pairs)
    return sums


def _step_law(walk: LatticeWalk, mirrored: bool = False):
    """Sorted lattice codes of the steps of ``walk`` and their probabilities;
    ``mirrored`` gives ``(alpha + alpha(-.)) / 2`` instead, which is alpha
    itself on a reflection-symmetric stencil."""
    on = walk.step_probs != 0
    codes, probs = _lattice_code(walk.steps[on]), walk.step_probs[on]
    if mirrored:
        codes, inverse = np.unique(np.concatenate([codes, -codes]), return_inverse=True)
        probs = np.bincount(inverse, np.concatenate([probs, probs]) / 2.0)
    order = np.argsort(codes)
    return codes[order], probs[order]


def _pair_chain(walk: LatticeWalk):
    """Holding rates and jump law of the joint marks ``(s_x, s_y)`` of two
    independent walkers, indexed ``s_x M + s_y``: either walker jumps, at its
    own rate, and renews its own mark."""
    M = len(walk.v)
    sx, sy = np.divmod(np.arange(M * M), M)
    rate = walk.v[sx] + walk.v[sy]
    flux = walk.v[:, None] * walk.mark_trans
    return rate, (np.kron(flux, np.eye(M)) + np.kron(np.eye(M), flux)) / rate[:, None]


def jump_count_law(v: np.ndarray, trans: np.ndarray, p0: np.ndarray, t_grid,
                   integrated: bool = False, k_max: int | None = None) -> np.ndarray:
    """The exact (count, mark) law ``w`` (S, times, counts, M) of a mark chain
    that holds at rate ``v[s]``, jumps to s' with probability ``trans[s, s']``
    (a jump to s itself counts) and starts from each row of ``p0`` (S, M):
    ``P(N_t = n, m_t = m)``, or with ``integrated`` the occupation time
    ``int_0^t P(N_s = n, m_s = m) ds``; counts above ``k_max`` are dropped.

    Uniformized at ``Lambda = max v`` (Jensen 1953), the chain makes a jump
    with probability ``v[s] / Lambda`` at each Poisson(Lambda t) event.  With
    ``p_j`` the law after j events, ``w = sum_j c_j p_j``, ``c_j =
    Pois_j(Lambda t)`` or ``P(Pois(Lambda t) > j) / Lambda``.  Each time reads
    the events of its window, outside which ``Pois_j`` is below
    ``POISSON_TAIL * 1e-3``, normalized to remove their shared rounding;
    below it the integral reads a running sum of the ``p_j``.  The times
    whose window holds each event, and those whose window opens after it,
    are found for all events before the loop.  Each event
    moves only the band of counts with an entry above ``LAW_TRIM``.  The
    events are counted in ``metrics`` as ``walkers.weight_terms``.  A Poisson
    table, law or jump matrix of more than ``LAW_CAP`` entries is a
    ``ModelError`` before it is allocated.
    """
    v = np.asarray(v, dtype=float)
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    order = np.argsort(t_grid)
    lam = float(v.max())
    L = lam * t_grid[order]
    top = int(np.ceil(L[-1] + 12.0 * np.sqrt(L[-1]) + 30.0))
    if len(L) * (top + 1) > LAW_CAP:
        raise ModelError(f"the Poisson weights of {len(L)} times to {top} events need "
                         f"{len(L) * (top + 1)} entries, over LAW_CAP = {LAW_CAP}")
    j = np.arange(top + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = (-L[:, None] + j * np.log(L[:, None])
                - np.array([math.lgamma(k + 1.0) for k in j]))
    logw[:, 0] = -L                           # (Lambda t)^0 = 1 at t = 0 too
    pois = np.exp(logw)
    inside = pois >= POISSON_TAIL * 1e-3
    first, last = inside.argmax(axis=1), top - inside[:, ::-1].argmax(axis=1)
    pois = np.where(inside, pois, 0.0)
    pois /= pois.sum(axis=1, keepdims=True)
    if integrated:
        # P(Pois > j) / Lambda: the window's mass above j, 1 / Lambda below it
        c = np.zeros_like(pois)
        c[:, :-1] = pois[:, :0:-1].cumsum(axis=1)[:, ::-1] / lam
        c[j < first[:, None]] = 1.0 / lam
    else:
        c = pois
    J = int(last[-1])
    metrics.count("walkers.weight_terms", J + 1)
    ncap = J if k_max is None else min(int(k_max), J)
    # column s M + m holds mark m of start law s
    S, M = p0.shape
    size = max((S * M) ** 2, len(L) * (ncap + 1) * S * M)
    if size > LAW_CAP:
        raise ModelError(f"the (count, mark) law of {S} start laws on {M} marks to "
                         f"{ncap} jumps needs {size} entries, over LAW_CAP = {LAW_CAP}")
    start = (p0 / p0.sum(axis=1, keepdims=True)).ravel()
    jump = np.kron(np.eye(S), (v / lam)[:, None] * np.asarray(trans, dtype=float))
    stay = np.tile(1.0 - v / lam, S)
    if not stay.any():
        # every event is a jump: the count is the event count, and the marks
        # after n jumps have the law start @ jump^n
        law = np.empty((ncap + 1, S * M))
        law[0] = start
        for n in range(ncap):
            law[n + 1] = law[n] @ jump
        w = c[:, :ncap + 1, None] * law
    else:
        p = np.zeros((ncap + 2, S * M))     # the last row takes what leaves the cap
        p[0] = start
        w = np.zeros((len(L), ncap + 1, S * M))
        below = np.zeros((ncap + 1, S * M))
        # the times whose window holds event e are a[e]..b[e] - 1, and those
        # whose window starts at event e + 1 are b[e]..b[e + 1] - 1
        events = np.arange(J + 2)
        a = np.searchsorted(last, events).tolist()
        b = np.searchsorted(first, events, side="right").tolist()
        c = np.ascontiguousarray(c.T)        # (events, times)
        lo = hi = 0                          # p is zero outside the counts lo..hi
        for e in range(J + 1):
            seg = p[lo:hi + 1]
            w[a[e]:b[e], lo:hi + 1] += c[e, a[e]:b[e], None, None] * seg
            if integrated:
                below[lo:hi + 1] += seg
                for i in range(b[e], b[e + 1]):
                    w[i] += below / lam
            moved = seg @ jump
            seg *= stay
            p[lo + 1:hi + 2] += moved
            hi = min(hi + 1, ncap)
            p[ncap + 1] = 0.0
            # the band loses the end counts with no entry above LAW_TRIM
            while lo <= hi and p[lo].max() < LAW_TRIM:
                p[lo] = 0.0
                lo += 1
            while hi > lo and p[hi].max() < LAW_TRIM:
                p[hi] = 0.0
                hi -= 1
    w = w.reshape(len(L), ncap + 1, S, M).transpose(2, 0, 1, 3)
    return w[:, np.argsort(order)]


def _skeleton_weights(v, trans, p0, t_grid, integrated: bool):
    """``jump_count_law`` cut at each start's skeleton length K: the last
    count at which a weight (per unit time for the integral) reaches
    ``POISSON_TAIL``.  Returns the weights, zero past each start's K, and K."""
    w = jump_count_law(v, trans, p0, t_grid, integrated)
    t = np.asarray(t_grid, dtype=float)
    scale = np.where(t > 0, t, 1.0) if integrated else np.ones_like(t)
    big = (w / scale[:, None, None] >= POISSON_TAIL).any(axis=(1, 3))   # (S, counts)
    K = np.array([np.flatnonzero(row).max(initial=0) for row in big])
    w = w[:, :, :int(K.max()) + 1].copy()
    for s, k in enumerate(K):
        w[s, :, k + 1:] = 0.0
    return w, K


def _geometric_checkpoints(T: float):
    """Eight checkpoints per decade from t = 0.5 up to T (the last is T)."""
    if not T > 0:
        raise ModelError(f"the horizon T = {T} must be positive")
    n = max(int(np.ceil(np.log10(T / 0.5) * 8)), 1)
    cps = 0.5 * (T / 0.5) ** (np.arange(1, n + 1) / n)
    cps[-1] = T
    return cps


def _orbit(u, generators) -> np.ndarray:
    """Sorted lattice codes of the orbit of the point u under the group that
    the ``generators`` generate."""
    orbit = np.asarray(u, dtype=np.int64).reshape(1, -1)
    while True:
        grown = np.concatenate([orbit] + [orbit @ g for g in generators])
        codes, first = np.unique(_lattice_code(grown), return_index=True)
        if len(codes) == len(orbit):
            return codes
        orbit = grown[first]


def pair_integral_curves(walk: LatticeWalk, displacements, s0x, s0y, T: float,
                         replicas: int, rng: np.random.Generator) -> list:
    """Running path integrals of b(X_t, Y_t) for two independent walkers.

    The walkers start at each of the ``displacements`` ``x0 - y0`` (d-tuples)
    with marks ``s0x`` and ``s0y``, one pair for all or one per displacement.
    Returns one ``(checkpoints, per_replica)`` per displacement, with
    ``per_replica`` the (checkpoints, replicas) running integrals.

    Each jump of either walker moves ``X - Y`` by one step of alpha or of
    its mirror image.  On a reflection-symmetric stencil both are alpha, and
    on a one-mark model each walker jumps with probability 1/2, so ``X - Y =
    u + S_{N_t}``: a skeleton ``S`` stepping by ``(alpha + alpha(-.)) / 2``,
    read at the jump count ``N_t`` of the joint marks, which is independent
    of it.  Other marked models do not factor: a ``ModelError``.  Given the
    skeleton (conditional Monte Carlo), a replica's integral to t is ``sum_n
    sum_m b(u + S_n, m) c(t, n, m)`` with the exact occupation times of
    ``jump_count_law``, cut at each start's own skeleton length K.

    The reflections and axis transpositions that preserve the stencil leave
    the law of ``X - Y`` and the marks unchanged, so each displacement reads
    b averaged over its orbit: on the support shifted by ``-code(w)`` for
    each w in it.  Starts with the same orbit and joint initial marks are
    credited once and share their curve.  One skeleton serves every start
    (common random numbers), and each curve is the one a call with that
    start alone returns from the same generator state.
    """
    cps = _geometric_checkpoints(T)
    disps = np.asarray(displacements, dtype=np.int64).reshape(-1, walk.d)
    if not len(disps):
        raise ModelError("pair_integral_curves needs at least one displacement")
    M = len(walk.v)
    codes, probs = _step_law(walk, mirrored=True)
    own = _step_law(walk)
    if M > 1 and not (np.array_equal(codes, own[0]) and np.array_equal(probs, own[1])):
        raise ModelError("two marked walkers factor through one skeleton only on a "
                         "reflection-symmetric stencil")
    # the joint initial marks s_x M + s_y, one per displacement
    s0 = np.broadcast_to(np.asarray(s0x) * M + np.asarray(s0y), (len(disps),))
    generators = _symmetry_generators(walk.steps, walk.step_probs)
    # starts with the same orbit and joint initial marks share one curve
    keys = [(_orbit(u, generators).tobytes(), int(js)) for u, js in zip(disps, s0)]
    distinct = list(dict.fromkeys(keys))
    which = [distinct.index(key) for key in keys]
    orbits = [np.frombuffer(orbit, dtype=np.int64) for orbit, _ in distinct]
    s0 = np.array([js for _, js in distinct])
    metrics.count("walkers.orbit_points", sum(len(o) for o in orbits))
    # b on the joint marks js = s_x M + s_y, at the sorted support codes
    sx, sy = np.divmod(np.arange(M * M), M)
    table = walk.support_alpha * (walk.Q[sx, sy] / walk.q[sx])[:, None]
    # every distinct start's orbit-averaged table on one sorted code table
    merged = _unique(np.concatenate([(walk.support - o[:, None]).ravel() for o in orbits]))
    tables = np.zeros((len(orbits), M * M, len(merged)))
    for k, orbit in enumerate(orbits):
        for shift in orbit:
            tables[k][:, np.searchsorted(merged, walk.support - shift)] += table
        tables[k] /= len(orbit)
    # the weights of every joint initial mark, so that they do not depend on
    # which starts share the call
    rate, trans = _pair_chain(walk)
    weights, K = _skeleton_weights(rate, trans, np.eye(M * M), cps, integrated=True)
    # the occupation times of each checkpoint interval, which a step's hits
    # are credited with where its weight grows; the curves are their running sums
    gain = np.diff(weights[s0], axis=1, prepend=0.0)
    gain[gain < POISSON_TAIL * np.diff(cps, prepend=0.0)[:, None, None]] = 0.0
    running = _skeleton_sums(walk, codes, probs, replicas, int(K[s0].max()),
                             int(np.abs(disps).max()), merged, tables,
                             np.ascontiguousarray(gain.transpose(0, 1, 3, 2)), rng)
    # the running sums, one contiguous checkpoint row at a time (the same
    # additions as np.cumsum over axis 1, without its strided pass)
    for c in range(1, len(cps)):
        running[:, c] += running[:, c - 1]
    return [(cps, running[k]) for k in which]


@dataclass(frozen=True)
class PairLimit:
    """A running two-walker integral and its extrapolation to T = inf."""

    t: np.ndarray
    running: np.ndarray
    stderr: np.ndarray
    exponent: float  # fitted p of the integrand E b ~ t^p over the last decade
    limit: float     # A of the tail fit (``_tail_fit``), floored at running[-1]
    limit_stderr: float  # standard error of the fitted A
    gap_stderr: float    # standard error of A - running[-1]

    @property
    def integrable(self) -> bool:
        """The integrand decays faster than 1/t by ``INTEGRABILITY_MARGIN``."""
        return self.exponent <= -1.0 - INTEGRABILITY_MARGIN


def pair_limit(cps: np.ndarray, per_replica: np.ndarray, d: int) -> PairLimit:
    """The limit T -> inf of a ``pair_integral_curves`` result in d dimensions.

    The running integral is the replica mean of ``per_replica`` (checkpoints,
    replicas), with its standard error.  The fitted A is a fixed linear
    functional ``w . mean`` of the checkpoint means, so its standard error is
    that of ``w . per_replica`` over the replicas, and that of the gap ``A -
    mean[-1]`` is that of ``w . per_replica - per_replica[-1]``.
    """
    root = np.sqrt(per_replica.shape[1])
    mean = per_replica.mean(axis=1)
    w = _tail_fit(cps, d)[0]
    A = float(w @ mean)
    fits = w @ per_replica
    return PairLimit(t=cps, running=mean, stderr=per_replica.std(axis=1, ddof=1) / root,
                     exponent=_increment_exponent(cps, mean),
                     limit=max(A, float(mean[-1])),
                     limit_stderr=float(fits.std(ddof=1) / root),
                     gap_stderr=float((fits - per_replica[-1]).std(ddof=1) / root))


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
    two-walker path integral is averaged over replicas; all starts, whatever
    their marks, share one skeleton (``pair_integral_curves``), so their
    estimates are correlated.  The extrapolated limit of the running
    integral (``pair_limit``) is each start's ``estimate``, with its own
    standard error ``estimate_stderr``; ``stderr`` is that of the running
    integral at T.  The estimate plus 3 ``estimate_stderr`` gives the
    per-start value, and H_hat is the grid maximum; a run that has not
    converged reports the largest running integral at T instead.  The
    report's ``stderr`` and curve are those of the start that gives H_hat.
    ``converged`` requires the fitted integrand exponent (``nan`` on too
    short a horizon) to clear -1 by ``INTEGRABILITY_MARGIN``.
    """
    walk = lattice_walk(tm)
    d = walk.d
    nmark = len(walk.v) if tm.marked else 0
    starts = [parse_start(start, d, nmark) for start in start_pairs]
    disps, s0x, s0y = zip(*starts)
    curves = pair_integral_curves(walk, disps, s0x, s0y, T, replicas, rng)
    limits = [pair_limit(*curve, d) for curve in curves]
    per_start = {}
    converged = True
    for (d0, sx, sy), lim in zip(starts, limits):
        per_start[(d0, sx, sy) if nmark else d0] = {
            "estimate": lim.limit, "estimate_stderr": lim.limit_stderr,
            "stderr": float(lim.stderr[-1]), "tail_exponent": lim.exponent,
            "running_final": float(lim.running[-1]),
            "growth_exponent": _running_exponent(lim.t, lim.running),
        }
        converged = converged and lim.integrable

    def value(lim: PairLimit) -> float:
        if converged:
            return lim.limit + 3 * lim.limit_stderr
        # no finite extrapolation is meaningful; the raw running integral
        return float(lim.running[-1])

    # the first start with the largest value gives H_hat, its stderr and curve
    worst = max(limits, key=value)
    return TransienceReport(
        H_hat=float(value(worst)), stderr=float(worst.stderr[-1]),
        tail_exponent_fit=float(np.max([v["tail_exponent"] for v in per_start.values()])),
        horizon=float(T), converged=bool(converged),
        growth_exponent=float(np.max([v["growth_exponent"] for v in per_start.values()])),
        per_start=per_start, times=worst.t, running=worst.running)


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------

def _heat_terms(tm: TransformedModel, t_grid, x0, xi1):
    """What both heat-kernel bounds read: the walk, ``xi_0 - xi_1``, kappa,
    the exact ``P(N_t = n)`` (times, counts) of the walker's marks and its
    skeleton length K (``_skeleton_weights``)."""
    walk = lattice_walk(tm)
    xi0, s0 = _walker_start(tm, x0)
    start = xi0 - np.asarray(xi1, dtype=np.int64).reshape(walk.d)
    weights, [K] = _skeleton_weights(walk.v, walk.mark_trans, np.eye(len(walk.v))[[s0]],
                                     np.asarray(t_grid, dtype=float), integrated=False)
    return walk, start, walk.Q.max() / walk.q.min(), weights[0].sum(axis=2), int(K)


def _heat_verdict(t_grid: np.ndarray, curves: np.ndarray, z: float, rtol: float) -> dict:
    """The heat bound's verdict from the (times, columns) ``curves`` of ``t *
    scaled``, one column per replica or the exact curve alone: the drift is
    the mean change of the slope from the first to the last interval of the
    last decade (on an ascending grid), which a curve ``C - c / t`` does not
    have.  With ``tol = z drift_stderr + rtol |last slope|`` the curve is
    ``flat`` when ``|drift| <= tol`` and ``bounded`` when ``drift <= tol``."""
    slopes = np.diff(curves, axis=0) / np.diff(t_grid)[:, None]
    inside = np.flatnonzero(t_grid[:-1] >= t_grid[-1] / 10.0)
    if not inside.size:
        return {"drift_last_decade": 0.0, "drift_stderr": 0.0, "flat": True, "bounded": True}
    change = slopes[-1] - slopes[inside[0]]
    drift = float(change.mean())
    se = float(change.std(ddof=1) / np.sqrt(change.size)) if change.size > 1 else 0.0
    tol = z * se + rtol * abs(float(slopes[-1].mean()))
    return {"drift_last_decade": drift, "drift_stderr": se,
            "flat": bool(abs(drift) <= tol), "bounded": bool(drift <= tol)}


def heat_bound_check(tm: TransformedModel, t_grid, x0, xi1, replicas: int,
                     rng: np.random.Generator) -> dict:
    """Heat-kernel bound: E_x b(X(t), y) <= kappa E alpha(xi(t) - xi_1).

    The walker's position after ``N_t`` jumps is ``xi_0 + S_{N_t}``, a
    skeleton walk ``S`` of i.i.d. alpha-steps read at the jump count of its
    marks, which is independent of it.  So each replica of the skeleton
    gives ``kappa sum_n P(N_t = n) alpha(xi_0 - xi_1 + S_n)`` with the exact
    law ``P(N_t = n)`` of ``jump_count_law``, cut at the skeleton length K
    (``_skeleton_weights``): only the skeleton is Monte Carlo.  Reports the
    mean, ``estimate * t^{d/2}`` and the verdicts of ``_heat_verdict`` on
    the per-replica curves: ``flat``, the drift is within 3 SE of 0, and
    ``bounded``, it is at most 3 SE above 0.  A decaying curve, as on a
    drifting stencil, drifts down: bounded but not flat.
    """
    walk, start, kappa, point, K = _heat_terms(tm, t_grid, x0, xi1)
    d = walk.d
    t_grid = np.asarray(t_grid, dtype=float)
    # alpha(start + S_n) is nonzero where S_n lies on the support shifted by -start
    [vals] = _skeleton_sums(walk, *_step_law(walk), replicas, K,
                            int(np.abs(start).max()),
                            walk.support - _lattice_code(start[None])[0],
                            walk.support_alpha[None, None], point[None, :, None], rng)
    vals *= kappa
    est = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / np.sqrt(replicas)
    scale = t_grid ** (d / 2.0)
    scaled, scaled_se = est * scale, se * scale
    return {
        "t": t_grid, "estimate": est, "stderr": se,
        "scaled": scaled, "scaled_stderr": scaled_se,
        "sup_scaled": float(scaled.max()),
        **_heat_verdict(t_grid, vals * (t_grid * scale)[:, None], 3.0, 0.0),
        "kappa": float(kappa),
    }


def heat_bound_exact(tm: TransformedModel, t_grid, x0, xi1) -> dict:
    """``heat_bound_check`` without Monte Carlo, on a nearest-neighbour stencil.

    There ``E alpha(xi_0 - xi_1 + S_n) = |alpha| P(S_{n+1} = xi_0 - xi_1)``
    (``_point_law``), so the bound is ``kappa |alpha| sum_n P(N_t = n)
    P(S_{n+1} = xi_0 - xi_1)``, with the law of ``N_t`` and the cut K of
    ``heat_bound_check``.  Returns its keys with zero standard errors; the
    verdicts of ``_heat_verdict`` take ``HEAT_FLAT_RTOL`` times the last
    slope as their tolerance.
    """
    walk, start, kappa, point, K = _heat_terms(tm, t_grid, x0, xi1)
    if not _nearest_neighbour(walk.steps, walk.step_probs):
        raise ModelError("heat_bound_exact needs a nearest-neighbour stencil")
    t_grid = np.asarray(t_grid, dtype=float)
    est = kappa * walk.support_alpha.sum() * (point @ _point_law(start, K + 1)[1:])
    scaled = est * t_grid ** (walk.d / 2.0)
    zero = np.zeros_like(est)
    return {
        "t": t_grid, "estimate": est, "stderr": zero,
        "scaled": scaled, "scaled_stderr": zero,
        "sup_scaled": float(scaled.max()),
        **_heat_verdict(t_grid, (t_grid * scaled)[:, None], 0.0, HEAT_FLAT_RTOL),
        "kappa": float(kappa),
    }


def _nearest_neighbour(steps, probs) -> bool:
    """Whether the step law of ``steps`` (S, d) with weights ``probs`` puts
    one and the same weight on each of ``+-e_i`` and none elsewhere."""
    steps = np.asarray(steps, dtype=np.int64)
    probs = np.asarray(probs, dtype=float)
    on = probs != 0
    unit = np.eye(steps.shape[1], dtype=np.int64)
    return bool(on.sum() == len(unit) * 2 and (probs[on] == probs[on][0]).all()
                and set(map(tuple, steps[on].tolist()))
                == set(map(tuple, np.concatenate([unit, -unit]).tolist())))


# the most terms _point_law forms at once (8 MiB of float64)
_POINT_BLOCK = 1 << 20


def _point_law(x, n_max: int) -> np.ndarray:
    """``P(S_n = x)`` for n = 0..n_max on the nearest-neighbour walk on Z^d,
    d = len(x).

    The steps split binomially over the axes: of the n steps of the walk on
    the first j axes, m fall on axis j with probability ``C(n, m) j^-m
    (1 - 1/j)^(n - m)``, and the one-axis walk of m steps ends at k with
    probability ``C(m, (m + k) / 2) 2^-m``.  So each axis is one (n_max + 1)^2
    sum of non-negative terms, formed from ``math.lgamma`` in blocks of at
    most ``_POINT_BLOCK``.  The terms are counted in ``metrics`` as
    ``walkers.point_law_terms``.
    """
    x = np.abs(np.atleast_1d(np.asarray(x, dtype=np.int64)))
    n = np.arange(n_max + 1)
    logfact = np.array([math.lgamma(k + 1.0) for k in n])

    def log_binomial(top, bottom):
        """``log C(top, bottom)``, ``-inf`` where bottom is not in 0..top."""
        ok = (bottom >= 0) & (bottom <= top)
        return np.where(ok, logfact[top] - logfact[np.clip(bottom, 0, top)]
                        - logfact[np.clip(top - bottom, 0, None)], -np.inf)

    def axis(k):
        """log P(the one-axis walk ends at k after n steps), n = 0..n_max."""
        up, odd = np.divmod(n + k, 2)
        return np.where(odd == 0, log_binomial(n, up), -np.inf) - n * math.log(2.0)

    law = np.exp(axis(x[0]))
    # blocks of rows n bound the (rows, n_max + 1) terms to _POINT_BLOCK entries
    blocks = np.array_split(n, -(-len(n) ** 2 // _POINT_BLOCK))
    for j, k in enumerate(x[1:], start=2):
        on_axis = axis(k) - n * math.log(j)        # m = n steps on axis j
        rows = []
        for top in blocks:
            rest = np.clip(top[:, None] - n, 0, None)      # the steps on axes < j
            terms = np.exp(log_binomial(top[:, None], n) + on_axis
                           + rest * math.log1p(-1.0 / j))
            rows.append((terms * law.take(rest)).sum(axis=1))
        law = np.concatenate(rows)
    metrics.count("walkers.point_law_terms", (n_max + 1) * (1 + (len(x) - 1) * (n_max + 1)))
    return law


def _stencil(alpha: dict) -> dict:
    """The stencil ``alpha`` as ``{displacement tuple: weight}``."""
    return {tuple(np.atleast_1d(k)): float(v) for k, v in alpha.items()}


def _convolution(alpha: dict, d: int, n_max: int):
    """``alpha^{*n}`` for n = 1..n_max by the stencil recursion ``alpha^{*(n+1)}
    = sum_k alpha_k shift_k(alpha^{*n})``, on a window that grows by the
    stencil radius K each step.  On an axis where the stencil equals its mirror
    ``x_i -> -x_i`` exactly, so does every ``alpha^{*n}``: the window holds only
    ``x_i >= 0``, and the K layers below 0 are read by reflection.  The window
    holds the whole support; its mass (cells with ``x_i > 0`` twice on each
    symmetric axis) is still checked against ``MASS_TOL``.  Returns the sups,
    ``alpha^{*n_max}`` on the window and the symmetric-axis mask.
    """
    st = _stencil(alpha)
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


def convolution_bound_check(alpha, d: int, n_max: int) -> dict:
    """Verify sup alpha^{*n} * n^{d/2} stays bounded (no divergence trend).

    On a nearest-neighbour stencil (``exact``) ``alpha^{*n} = |alpha|^n
    P(S_n = .)``, and each one-axis factor of ``_point_law`` does not drop
    when its coordinate moves 2 towards 0, so the sup lies at some ``(1^j,
    0^{d-j})`` with j = n (mod 2); the mass checks of ``_convolution`` hold
    for ``|alpha|^n``.  Other stencils run the recursion ``_convolution``.
    """
    st = _stencil(alpha)
    exact = _nearest_neighbour(list(st), list(st.values()))
    n = np.arange(1, n_max + 1)
    if exact:
        mass = float(np.sum(list(st.values())))
        if abs(mass - 1.0) > MASS_TOL:
            raise ModelError(f"stencil mass {mass:.6g} is not normalized to 1")
        leakage = np.abs(mass ** n - 1.0)
        if (leakage > MASS_TOL).any():
            raise ModelError(f"convolution mass leakage {leakage[leakage > MASS_TOL][0]:.3e}")
        sups = mass ** n * np.max([_point_law((1,) * j + (0,) * (d - j), n_max)[1:]
                                   for j in range(d + 1)], axis=0)
    else:
        sups, _, _ = _convolution(alpha, d, n_max)
    scaled = sups * n ** (d / 2.0)
    # np.median's arithmetic on the sorted values, without its np.ma test
    ordered = np.sort(scaled)
    med = float((ordered[(n_max - 1) // 2] + ordered[n_max // 2]) / 2)
    return {
        "n": n, "sup": sups, "scaled": scaled,
        "max_over_median": float(scaled.max() / med),
        "bounded": bool(scaled.max() <= 2.0 * med), "exact": exact,
    }


def jump_count_cdf(v: np.ndarray, trans: np.ndarray, p0: np.ndarray, t_grid,
                   k_max: int) -> np.ndarray:
    """``P(N_t <= k)`` for k = 0..k_max at each grid time: the exact law of the
    jump count N_t of the mark chain started from the law ``p0``, the
    cumulative sum of ``jump_count_law`` over counts and marks."""
    law = jump_count_law(v, trans, p0, t_grid, k_max=k_max)[0].sum(axis=2)
    cdf = np.cumsum(law, axis=1)
    # counts that no event reaches: the CDF has reached its total
    return np.pad(cdf, [(0, 0), (0, k_max + 1 - cdf.shape[1])], mode="edge")


def poisson_domination_check(v: np.ndarray, trans: np.ndarray, nu: np.ndarray,
                             lambda0: float, t_grid, k_grid) -> dict:
    """Exact CDF of the state-dependent jump count versus Poisson(lambda0).

    The mark chain holds at rate ``v[s]``, jumps with the row-stochastic law
    ``trans`` (``theta_kernel``) and starts from ``nu``.  Passes iff ``P(N_t <= k) <=
    PoissonCDF(k; lambda0 t) + DOMINATION_TOL`` at every (t, k) grid cell;
    both sides come from ``jump_count_cdf``, the Poisson one as the one-mark
    chain at rate lambda0, and the tolerance only absorbs rounding.
    """
    v = np.asarray(v, dtype=float)
    if lambda0 > v.min() + 1e-12:
        raise ModelError("lambda0 must be a lower bound for the mark rates")
    t_grid = np.asarray(t_grid, dtype=float)
    k_grid = np.asarray(k_grid, dtype=int)
    k_max = int(k_grid.max())
    chain = jump_count_cdf(v, trans, nu, t_grid, k_max)[:, k_grid]
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
