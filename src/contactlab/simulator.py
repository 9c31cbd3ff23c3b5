"""Event-driven simulation of the contact process on finite spaces.

Exact Gillespie scheme on the transformed model: each particle at x dies at
rate V(x), a new particle appears at y with rate sum_{x in gamma} b(y, x)
mbar(y), and (when a jump kernel is present) a particle at x relocates to y
at rate jump_b(y, x) mbar(y).  ``run_replicas`` advances all replicas in
lockstep on one random stream; ``simulate_contact`` is the scalar
single-trajectory reference.  Empirical correlation functions are read off
replica snapshots with falling-factorial counts at repeated points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import metrics
from .criticality import TransformedModel
from .errors import ModelError

__all__ = [
    "EventLog",
    "ReplicaBatch",
    "MomentEstimate",
    "simulate_contact",
    "sample_poisson_initial",
    "snapshot_grid",
    "run_replicas",
    "empirical_correlations",
]

DEFAULT_EVENT_CAP = 1_000_000
# the fewest replicas empirical_correlations estimates moments from
MIN_REPLICAS = 100


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
    ``EventLog`` view of replica ``r``: no event list, and no snapshots the
    replica never reached.
    """

    snapshots: dict                   # time -> (R, size) counts
    final_counts: np.ndarray          # (R, size)
    truncated: np.ndarray             # (R,) bool
    event_cap: int = DEFAULT_EVENT_CAP

    def __len__(self) -> int:
        return len(self.truncated)

    def __getitem__(self, r: int) -> EventLog:
        return EventLog(events=[], truncated=bool(self.truncated[r]),
                        snapshots={t: c[r] for t, c in self.snapshots.items()
                                   if c[r, 0] >= 0},
                        final_counts=self.final_counts[r], event_cap=self.event_cap)

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


def snapshot_grid(T: float, snapshot_times) -> np.ndarray:
    """Sorted distinct snapshot times: at least one, each finite and in [0, T]."""
    grid = np.unique(np.asarray(snapshot_times, dtype=float))
    if not (np.isfinite(T) and T >= 0):
        raise ModelError(f"the horizon T = {T} must be finite and non-negative")
    if grid.size == 0:
        raise ModelError("no snapshot times")
    if np.any(~np.isfinite(grid) | (grid < 0) | (grid > T)):
        raise ModelError(f"snapshot times must be finite and lie in [0, T = {T}]")
    return grid


@metrics.phase("simulate")
def run_replicas(tm: TransformedModel, rho: float, T: float, snapshot_times,
                 replicas: int, seed: int,
                 event_cap: int = DEFAULT_EVENT_CAP) -> ReplicaBatch:
    """Independent replicas advanced in lockstep on one stream from ``seed``.

    Each iteration performs one exact Gillespie event in every active
    replica: one exponential holding time at the replica's total rate, then
    one uniform picks the event by inverse CDF over the row-wise cumulative
    ``[death | birth | jump]`` weights (and, for a jump, one more uniform
    picks the destination from the source's column of ``jump_M``).  A
    replica leaves the active set once its next event time passes T, or
    once it reaches ``event_cap`` events, which flags it as truncated.  A
    snapshot at t_s takes the counts before the first event after t_s, the
    rule of ``simulate_contact``.  Initial counts are product-Poisson with
    intensity rho * mbar.
    """
    size = tm.space.size
    T = float(T)
    grid = snapshot_grid(T, snapshot_times)
    rng = np.random.default_rng(seed)
    counts = sample_poisson_initial(tm, rho, rng, replicas)
    birth_M = tm.b * tm.mbar[:, None]            # birth_M[y, x] = b(y, x) mbar(y)
    # weights = counts @ rate_M: V * counts | counts @ birth_M.T | jump_out * counts
    blocks = [np.diag(tm.death), birth_M.T]
    if tm.jump_b is not None:
        jump_M = tm.jump_b * tm.mbar[:, None]    # jump_M[y, x] = jb(y, x) mbar(y)
        blocks.append(np.diag(jump_M.sum(axis=0)))
        dest_cum = np.cumsum(jump_M, axis=0).T   # row x: destination CDF from x
    rate_M = np.hstack(blocks)
    snaps = np.full((len(grid), replicas, size), -1, dtype=np.int64)
    final = np.empty((replicas, size), dtype=np.int64)
    truncated = np.zeros(replicas, dtype=bool)
    # the active replicas' state, compacted as replicas leave
    idx = np.arange(replicas)
    t = np.zeros(replicas)
    si = np.zeros(replicas, dtype=np.int64)      # next snapshot per replica
    n_ev = np.zeros(replicas, dtype=np.int64)
    while idx.size:
        cum = np.cumsum(counts @ rate_M, axis=1)
        total = cum[:, -1]
        hold = rng.exponential(size=idx.size)
        t_next = t + np.divide(hold, total, out=np.full(idx.size, np.inf),
                               where=total > 0)
        # snapshots at or before min(t_next, T) take the pre-event counts
        hi = np.searchsorted(grid, np.minimum(t_next, T), side="right")
        cross = np.flatnonzero(hi > si)
        if cross.size:
            for j in range(si[cross].min(), hi[cross].max()):
                m = cross[(si[cross] <= j) & (j < hi[cross])]
                snaps[j, idx[m]] = counts[m]
            si = hi
        # leaving: past T (an extinct replica's t_next is inf) or at the cap
        cap = n_ev + 1 >= event_cap
        stop = t_next >= T
        leave = stop | cap
        go = np.flatnonzero(~stop)
        u = rng.random(go.size) * total[go]
        e = (cum[go] <= u[:, None]).sum(axis=1)
        kind, i = np.divmod(e, size)             # 0 death, 1 birth, 2 jump
        counts[go, i] += np.where(kind == 1, 1, -1)
        jumps = np.flatnonzero(kind == 2)
        if jumps.size:
            src_cum = dest_cum[i[jumps]]
            uj = rng.random(jumps.size) * src_cum[:, -1]
            counts[go[jumps], (src_cum <= uj[:, None]).sum(axis=1)] += 1
        if leave.any():
            out = np.flatnonzero(leave)
            final[idx[out]] = counts[out]
            truncated[idx[out]] = ~stop[out]
            keep = np.flatnonzero(~leave)
            idx, t, si, n_ev, counts = (idx[keep], t_next[keep], si[keep],
                                        n_ev[keep] + 1, counts[keep])
        else:
            t, n_ev = t_next, n_ev + 1
    return ReplicaBatch(snapshots={float(ts): snaps[j] for j, ts in enumerate(grid)},
                        final_counts=final, truncated=truncated,
                        event_cap=event_cap)


def empirical_correlations(batch: ReplicaBatch, space, t: float, n: int,
                           mbar: np.ndarray) -> MomentEstimate:
    """Empirical k_n at snapshot time t (mbar convention).

    Distinct points use plain product counts, repeated points the falling
    factorial; the standard error is the across-replica variance of the
    per-replica estimator.  A truncated replica is an error: dropping it
    would bias the moments toward the replicas that stayed under the cap.
    """
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
    cmat = batch.snapshots[t].astype(float)
    if n == 1:
        sample = cmat / mbar[None, :]
    elif n == 2:
        sample = cmat[:, :, None] * cmat[:, None, :]
        rng_i = np.arange(size)
        sample[:, rng_i, rng_i] -= cmat
        sample /= np.outer(mbar, mbar)[None, :, :]
    else:
        # per cell, over all replicas: prod over distinct points i of the
        # falling factorial c_i (c_i - 1) ... (c_i - m_i + 1)
        sample = np.empty((R,) + (size,) * n)
        for idx in np.ndindex(*(size,) * n):
            prod = np.ones(R)
            for i, m in Counter(idx).items():
                for k in range(m):
                    prod *= np.maximum(cmat[:, i] - k, 0.0)
            sample[(slice(None),) + idx] = prod / np.prod([mbar[i] for i in idx])
    values = sample.mean(axis=0)
    stderr = sample.std(axis=0, ddof=1) / np.sqrt(R)
    return MomentEstimate(order=n, values=values, stderr=stderr,
                          replicas=R, time=t)
