"""Event-driven simulation of the contact process on finite spaces.

Exact Gillespie scheme on the transformed model: each particle at x dies at
rate V(x), a new particle appears at y with rate sum_{x in gamma} b(y, x)
mbar(y), and (when a jump kernel is present) a particle at x relocates to y
at rate jump_b(y, x) mbar(y).  Empirical correlation functions are read off
replica snapshots with falling-factorial counts at repeated points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criticality import TransformedModel
from .errors import ModelError

__all__ = [
    "EventLog",
    "MomentEstimate",
    "simulate_contact",
    "sample_poisson_initial",
    "run_replicas",
    "empirical_correlations",
]

DEFAULT_EVENT_CAP = 1_000_000


@dataclass
class EventLog:
    events: list                      # (time, kind, point index) tuples
    snapshots: dict                   # time -> counts vector
    truncated: bool = False
    final_counts: np.ndarray | None = None
    event_cap: int = DEFAULT_EVENT_CAP


@dataclass
class MomentEstimate:
    order: int
    values: np.ndarray
    stderr: np.ndarray
    replicas: int
    time: float


def sample_poisson_initial(tm: TransformedModel, rho: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Product-Poisson counts with intensity rho * mbar per point."""
    return rng.poisson(rho * tm.mbar)


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


def run_replicas(tm: TransformedModel, rho: float, T: float, snapshot_times,
                 replicas: int, seed: int, initial=None,
                 event_cap: int = DEFAULT_EVENT_CAP) -> list[EventLog]:
    """Independent replicas with per-replica streams spawned from a master seed.

    ``initial`` is either None (product-Poisson with intensity rho * mbar)
    or a fixed counts vector.  Truncated replicas are kept in the list and
    flagged; moment estimation refuses them.
    """
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(replicas)]
    logs = []
    for rng in streams:
        c0 = sample_poisson_initial(tm, rho, rng) if initial is None else initial
        logs.append(simulate_contact(tm, c0, T, snapshot_times, rng,
                                     event_cap=event_cap, keep_events=False))
    return logs


def _factorial_product(counts: np.ndarray, idx: tuple) -> float:
    """prod over the tuple of falling-factorial occupation counts."""
    out = 1.0
    seen: dict[int, int] = {}
    for i in idx:
        k = seen.get(i, 0)
        out *= counts[i] - k
        if out == 0.0:
            return 0.0
        seen[i] = k + 1
    return out


def empirical_correlations(logs, space, t: float, n: int,
                           mbar: np.ndarray) -> MomentEstimate:
    """Empirical k_n at snapshot time t (mbar convention).

    Distinct points use plain product counts, repeated points the falling
    factorial; the standard error is the across-replica variance of the
    per-replica estimator.  A truncated replica is an error: dropping it
    would bias the moments toward the replicas that stayed under the cap.
    """
    truncated = [log for log in logs if log.truncated]
    if truncated:
        raise ModelError(f"{len(truncated)} of {len(logs)} replicas were truncated "
                         f"at the event cap of {truncated[0].event_cap} events")
    if len(logs) < 100:
        raise ModelError("need at least 100 replicas")
    size = space.size
    t = float(t)
    cmat = np.empty((len(logs), size))
    for r, log in enumerate(logs):
        if t not in log.snapshots:
            raise ModelError(f"snapshot at t = {t} missing from a replica")
        cmat[r] = log.snapshots[t]
    if n == 1:
        sample = cmat / mbar[None, :]
    elif n == 2:
        sample = cmat[:, :, None] * cmat[:, None, :]
        rng_i = np.arange(size)
        sample[:, rng_i, rng_i] -= cmat
        sample /= np.outer(mbar, mbar)[None, :, :]
    else:
        idx_all = list(np.ndindex(*(size,) * n))
        sample = np.empty((len(logs),) + (size,) * n)
        for r in range(len(logs)):
            for idx in idx_all:
                sample[(r,) + idx] = _factorial_product(cmat[r], idx)
        denom = np.empty((size,) * n)
        for idx in idx_all:
            denom[idx] = np.prod([mbar[i] for i in idx])
        sample /= denom
    values = sample.mean(axis=0)
    stderr = sample.std(axis=0, ddof=1) / np.sqrt(len(logs))
    return MomentEstimate(order=n, values=values, stderr=stderr,
                          replicas=len(logs), time=t)
