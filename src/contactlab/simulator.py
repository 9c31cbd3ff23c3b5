"""Event-driven simulation of the contact process on finite spaces.

Exact Gillespie scheme on the transformed model: each particle at x dies at
rate V(x), a new particle appears at y with rate sum_{x in gamma} b(y, x)
mbar(y), and (when a jump kernel is present) a particle at x relocates to y
at rate jump_b(y, x) mbar(y).  These rates are a superposition of
independent per-particle clocks, so ``run_replicas`` picks each event by the
particle that causes it: a site by its particles' total rate, then that
particle's outcome.  It advances all replicas in lockstep on one random
stream.  Empirical correlation functions are read off replica snapshots
with falling-factorial counts at repeated points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .criticality import TransformedModel
from .errors import ModelError
from .model import _unique

__all__ = [
    "EventLog",
    "ReplicaBatch",
    "MomentEstimate",
    "sample_poisson_initial",
    "snapshot_grid",
    "run_replicas",
    "empirical_correlations",
]

DEFAULT_EVENT_CAP = 1_000_000
# the fewest replicas empirical_correlations estimates moments from
MIN_REPLICAS = 100
# the most falling-factorial products (2 MB) empirical_correlations holds
# per order: it sums its moments over chunks of replicas this bounds
MOMENT_CHUNK = 1 << 18


@dataclass
class EventLog:
    events: list                      # (time, kind, point index) tuples
    snapshots: dict                   # time -> counts vector
    truncated: bool = False
    final_counts: np.ndarray | None = None
    event_cap: int = DEFAULT_EVENT_CAP


@dataclass
class ReplicaBatch:
    """Replicas run together, as stacked per-replica arrays.

    ``snapshots`` maps each snapshot time to the (R, size) counts; the row of
    a replica truncated before that time holds -1.  Item ``r`` is the
    ``EventLog`` view of replica ``r``: no event list, no final counts, and
    no snapshots the replica never reached.
    """

    snapshots: dict                   # time -> (R, size) counts
    truncated: np.ndarray             # (R,) bool
    event_cap: int = DEFAULT_EVENT_CAP

    def __len__(self) -> int:
        return len(self.truncated)

    def __getitem__(self, r: int) -> EventLog:
        return EventLog(events=[], truncated=bool(self.truncated[r]),
                        snapshots={t: c[r] for t, c in self.snapshots.items()
                                   if c[r, 0] >= 0},
                        event_cap=self.event_cap)

    def __iter__(self):
        return (self[r] for r in range(len(self)))


@dataclass
class MomentEstimate:
    order: int
    values: np.ndarray
    stderr: np.ndarray
    replicas: int
    time: float


def sample_poisson_initial(tm: TransformedModel, rho: float,
                           rng: np.random.Generator, replicas: int) -> np.ndarray:
    """(replicas, size) product-Poisson counts with intensity rho * mbar per point."""
    return rng.poisson(rho * tm.mbar, size=(replicas, tm.space.size))


def snapshot_grid(T: float, snapshot_times) -> np.ndarray:
    """Sorted distinct snapshot times: at least one, each finite and in [0, T]."""
    grid = _unique(np.asarray(snapshot_times, dtype=float))
    if not (np.isfinite(T) and T >= 0):
        raise ModelError(f"the horizon T = {T} must be finite and non-negative")
    if grid.size == 0:
        raise ModelError("no snapshot times")
    if np.any(~np.isfinite(grid) | (grid < 0) | (grid > T)):
        raise ModelError(f"snapshot times must be finite and lie in [0, T = {T}]")
    return grid


def _particle_outcomes(tm: TransformedModel):
    """One particle's clocks at each site, as a padded outcome table.

    A particle at x dies at rate V(x), gives birth at y at rate b(y, x)
    mbar(y) and jumps to y at rate jump_b(y, x) mbar(y).  Its outcomes
    j = 0, 1, ... are the nonzero ones of these rates: the death, then the
    births and the jumps, each by y; W is the most at any site.  Returns
    ``rate``, with ``rate[x]`` the particle's total rate at x, and three
    tables over (j, x): ``cum[j, x]``, the probability of outcomes 0..j,
    inf from x's last outcome on; and, at ``j * size + x``, ``lose`` and
    ``gain``, the sites that the outcome takes one particle from and adds
    one to, or ``size`` (a sink row) for none.
    """
    size = tm.space.size
    # R[x, o]: outcome o of a particle at x, in blocks death | birth | jump
    blocks = [np.diag(tm.death), (tm.b * tm.mbar[:, None]).T]
    if tm.jump_b is not None:
        blocks.append((tm.jump_b * tm.mbar[:, None]).T)
    R = np.hstack(blocks)
    rate = R.sum(axis=1)
    x, o = np.nonzero(R)                         # by site, then outcome
    nnz = np.bincount(x, minlength=size)
    j = np.arange(len(x)) - np.repeat(np.cumsum(nnz) - nnz, nnz)
    W = max(int(nnz.max()), 1)
    prob = np.zeros((W, size))
    prob[j, x] = R[x, o] / rate[x]
    cum = np.cumsum(prob, axis=0)
    cum[np.arange(W)[:, None] >= nnz - 1] = np.inf
    kind, y = np.divmod(o, size)                 # 0 death, 1 birth, 2 jump
    lose = np.full(W * size, size)
    gain = np.full(W * size, size)
    lose[j * size + x] = np.where(kind == 1, size, x)
    gain[j * size + x] = np.where(kind == 0, size, y)
    return rate, cum, lose, gain


@metrics.phase("simulate")
def run_replicas(tm: TransformedModel, rho: float, T: float, snapshot_times,
                 replicas: int, seed: int,
                 event_cap: int = DEFAULT_EVENT_CAP) -> ReplicaBatch:
    """Independent replicas advanced in lockstep on one stream from ``seed``.

    Each iteration performs one exact Gillespie event in every active
    replica.  One exponential gives the holding time at the replica's total
    rate ``sum_x c_x rate_x``.  Then one uniform picks the site x of the
    particle that causes the event, by inverse CDF over the weights ``c_x
    rate_x``, and one more picks that particle's outcome from the
    ``_particle_outcomes`` table at x: a death at x, a birth at y or a jump
    to y.  The counts are held site-major, as (size, active replicas), so
    the cumulative sums over sites and the comparisons run along contiguous
    rows; an event costs O(size + W) per replica.  A replica leaves the
    active set once its next event time passes T, or once it reaches
    ``event_cap`` events, which flags it as truncated.  A snapshot at t_s
    takes the counts before the first event after t_s.  Initial counts are
    product-Poisson with intensity rho * mbar.  The run counts
    ``simulator.iterations``, ``simulator.events`` and
    ``simulator.truncated``, and records ``simulator.active_fraction``, the
    mean active replicas per iteration over ``replicas``.
    """
    size = tm.space.size
    T = float(T)
    grid = snapshot_grid(T, snapshot_times)
    next_snap = np.append(grid, np.inf)
    rng = np.random.default_rng(seed)
    rate, out_cum, lose, gain = _particle_outcomes(tm)
    # site-major counts of the active replicas, with a sink row at ``size``
    # that an outcome without a loss or a gain writes to
    counts = np.zeros((size + 1, replicas), dtype=np.int64)
    counts[:size] = sample_poisson_initial(tm, rho, rng, replicas).T
    snaps = np.full((len(grid), size, replicas), -1, dtype=np.int64)
    truncated = np.zeros(replicas, dtype=bool)
    # the active replicas' state, compacted as replicas leave
    idx = np.arange(replicas)
    t = np.zeros(replicas)
    si = np.zeros(replicas, dtype=np.int64)      # next snapshot per replica
    n_ev = np.zeros(replicas, dtype=np.int64)
    iterations = events = active = 0
    while idx.size:
        n = idx.size
        iterations += 1
        active += n
        cum = counts[:size] * rate[:, None]
        for row, prev in zip(cum[1:], cum[:-1]):
            row += prev
        total = cum[-1]
        hold = rng.exponential(size=n)
        t_next = t + np.divide(hold, total, out=np.full(n, np.inf), where=total > 0)
        # snapshots at or before min(t_next, T) take the pre-event counts
        cross = np.flatnonzero(t_next >= next_snap[si])
        if cross.size:
            lo = si[cross]
            hi = np.searchsorted(grid, t_next[cross], side="right")
            for j in range(lo.min(), hi.max()):
                m = cross[(lo <= j) & (j < hi)]
                snaps[j][:, idx[m]] = counts[:size].take(m, axis=1)
            si[cross] = hi
        # leaving: past T (an extinct replica's t_next is inf) or at the cap
        cap = n_ev + 1 >= event_cap
        stop = t_next >= T
        leave = stop | cap
        go = np.flatnonzero(~stop)
        events += go.size
        # the site of the particle that causes the event, then its outcome
        u = np.zeros(n)
        u[go] = rng.random(go.size) * total[go]
        x = (cum <= u).sum(axis=0)[go]
        u = rng.random(go.size)
        k = np.zeros(go.size, dtype=np.intp)
        for row in out_cum[:-1]:
            k += row[x] <= u
        o = k * size + x
        flat = counts.reshape(-1)
        flat[lose[o] * n + go] -= 1
        flat[gain[o] * n + go] += 1
        if leave.any():
            out = np.flatnonzero(leave)
            truncated[idx[out]] = ~stop[out]
            keep = np.flatnonzero(~leave)
            idx, t, si, n_ev, counts = (idx[keep], t_next[keep], si[keep],
                                        n_ev[keep] + 1, counts.take(keep, axis=1))
        else:
            t, n_ev = t_next, n_ev + 1
    metrics.count("simulator.iterations", iterations)
    metrics.count("simulator.events", events)
    metrics.count("simulator.truncated", int(truncated.sum()))
    metrics.record("simulator.active_fraction",
                   active / iterations / replicas if iterations else 0.0)
    return ReplicaBatch(snapshots={float(ts): np.ascontiguousarray(snaps[j].T)
                                   for j, ts in enumerate(grid)},
                        truncated=truncated, event_cap=event_cap)


def empirical_correlations(batch: ReplicaBatch, space, t: float, n: int,
                           mbar: np.ndarray) -> MomentEstimate:
    """Empirical k_n at snapshot time t (mbar convention).

    A replica with counts c estimates k_n(i_1..i_n) by the falling-factorial
    product F_n(I) = prod_m (c_{i_m} - rep_m), rep_m the number of earlier
    points i_1..i_{m-1} equal to i_m (plain products at distinct points),
    over mbar_{i_1} ... mbar_{i_n}; the standard error is the across-replica
    standard deviation of that estimator over sqrt(R).  Both come from two
    sums over the replicas' counts C (R x size), S1 of F_n and S2 of F_n^2,
    built one order at a time from F_0 = 1 and S1_0 = S2_0 = R: with
    rep_m(I, j) the points of I equal to j, F_m(I, j) = F_{m-1}(I) (c_j -
    rep_m(I, j)), so

        S1_m = F_{m-1}^T C - rep_m o S1_{m-1},
        S2_m = (F_{m-1}^2)^T (C o C) - 2 rep_m o (F_{m-1}^2)^T C
               + rep_m^2 o S2_{m-1},

    and order n holds F_{n-1}, size^(n-1) numbers per replica.  The three
    matrix products of each order run over chunks of replicas whose F_{n-1}
    holds at most MOMENT_CHUNK numbers (one chunk unless R size^(n-1)
    exceeds it), added up in turn, and the rep terms are applied once.
    Then, with scale the n-fold outer product of mbar,

        values = S1 / R / scale,
        stderr = sqrt((S2 - S1^2 / R) / (R - 1) / R) / scale.

    The counts are integers, so S1 and S2 are exact, in any chunking, while
    they stay below 2^53, and a constant cell has a stderr of exactly 0;
    the difference is clamped at 0 against rounding beyond that.  A
    truncated replica is an error: dropping it would bias the moments
    toward the replicas that stayed under the cap.
    """
    if n < 1:
        raise ModelError(f"the order n = {n} must be at least 1")
    R = len(batch)
    n_trunc = int(np.count_nonzero(batch.truncated))
    if n_trunc:
        raise ModelError(f"{n_trunc} of {R} replicas were truncated "
                         f"at the event cap of {batch.event_cap} events")
    if R < MIN_REPLICAS:
        raise ModelError(f"need at least {MIN_REPLICAS} replicas")
    size = space.size
    t = float(t)
    if t not in batch.snapshots:
        raise ModelError(f"no snapshot at t = {t}")
    C = batch.snapshots[t].astype(float)
    # rep_1 = 0, rep_2, ..., rep_n
    reps, scale = [np.zeros((1, size))], 1.0
    for m in range(1, n + 1):
        scale = np.multiply.outer(scale, mbar)
        if m < n:
            reps.append((reps[-1][:, None, :] + np.eye(size)).reshape(-1, size))
    # the products F_{m-1}^T C, (F_{m-1}^2)^T (C o C) and (F_{m-1}^2)^T C of
    # each order m, summed over the chunks; None, not 0.0, before the first
    # chunk: 0.0 + -0.0 would drop a sign
    sums = [None] * n
    step = max(1, MOMENT_CHUNK // size ** (n - 1))
    for lo in range(0, R, step):
        c = C[lo:lo + step]
        r, sq = len(c), c * c
        # order 0: the empty product over the empty cell
        F = np.ones((r, 1))
        for m, rep in enumerate(reps):
            F2 = F * F
            part = (F.T @ c, F2.T @ sq, F2.T @ c)
            if sums[m] is None:
                sums[m] = part
            else:
                for total, add in zip(sums[m], part):
                    total += add
            if m < n - 1:
                F = (F[:, :, None] * (c[:, None, :] - rep)).reshape(r, -1)
    S1 = S2 = np.full(1, float(R))
    for rep, (fc, f2sq, f2c) in zip(reps, sums):
        S1, S2 = ((fc - rep * S1[:, None]).ravel(),
                  (f2sq - 2 * rep * f2c + rep * rep * S2[:, None]).ravel())
    S1, S2 = S1.reshape(scale.shape), S2.reshape(scale.shape)
    values = S1 / R / scale
    stderr = np.sqrt(np.maximum(S2 - S1 ** 2 / R, 0.0) / (R - 1) / R) / scale
    return MomentEstimate(order=n, values=values, stderr=stderr,
                          replicas=R, time=t)
