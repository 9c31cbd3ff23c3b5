"""Monte Carlo references that the exact lemma code is cross-checked against."""

import numpy as np

from contactlab.walkers import _jump_chain


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
