"""The benchmark's three workloads: their CLI steps and their exact checks.

A workload is a list of ``Step``s, each one ``contactlab`` CLI command with
a config built from the workload seed.  ``checks`` reads the outputs of one
pass and compares them with the exact oracles in ``oracles.py``; it returns
``(name, passed, detail)`` triples.  Why each workload exists, and what each
step costs, is written down in ``NOTES.md``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from perfbench import oracles

# Standard errors the Monte Carlo steps are scored against in
# time_to_target_se_s: a step's wall time times (SE / target)^2 is the time
# it would need to reach the target.  Each target is close to the SE the step
# reaches at the sizes below.
TARGET_SE = {
    "transience_z3": 1.7e-3,
    "transience_marked": 2.4e-3,
    "simulate_dense4": 1.5e-2,
    "simulate_jump5": 1.6e-2,
    "simulate_window": 5.2e-2,
}

# family-wise false-alarm rate of a "within z SE of exact" check over many
# cells; the per-cell threshold never drops below 5 SE
FAMILY_ALPHA = 1e-6
MIN_Z = 5.0


@dataclass(frozen=True)
class Step:
    name: str               # also the output directory of the step
    command: str
    config: dict
    stochastic: bool = False
    expect_exit: int = 0
    timed: bool = True      # untimed steps run once, after the timed ones
    target_se: float | None = None


def _nearest(d: int, rate: float = 1.0) -> dict:
    per = rate / (2 * d)
    out = {}
    for axis in range(d):
        for sign in (-1, 1):
            step = [0] * d
            step[axis] = sign
            out[tuple(step)] = per
    return out


def _window(d: int, R: int, boundary: str = "unbounded") -> dict:
    return {"space": {"type": "lattice", "d": d, "R": R, "boundary": boundary},
            "birth": {"form": "stencil", "entries": "nearest", "rate": 1.0},
            "death": 1.0}


Z3 = _window(3, 1)
MARKED_Z3 = {
    "space": {"type": "product", "d": 3, "R": 1, "boundary": "unbounded",
              "marks": ["A", "B"], "nu": [0.5, 0.5]},
    "birth": {"form": "factorized", "alpha": "nearest", "rate": 1.0,
              "Q": [[2.0, 1.0], [1.0, 2.0]]},
    "death": {"per_mark": [1.0, 3.0]},
}
DENSE4 = {
    "space": {"type": "finite", "points": [0, 1, 2, 3],
              "weights": [1.0, 0.8, 1.2, 1.0]},
    "birth": {"form": "dense", "matrix": [[0.2, 0.9, 0.4, 0.3],
                                          [0.8, 0.1, 0.6, 0.5],
                                          [0.3, 0.7, 0.2, 0.9],
                                          [0.6, 0.4, 0.8, 0.2]]},
    "death": [1.0, 1.4, 0.9, 1.1],
}
JUMP5 = {**_window(1, 2, "periodic"),
         "jump": {"form": "stencil", "entries": "nearest", "rate": 0.4}}
Z3_WINDOW = _window(3, 3)     # 343 points
Z2_WINDOW = _window(2, 3)     # 49 points
SNAPSHOTS = [0.5, 1.0, 2.0]


def ring_model(seed: int, size: int = 100) -> dict:
    """Dense nearest-neighbour ring with death 1 + 0.05 U.

    U is one fixed Uniform(0, 1) profile, rotated by the seed.  Rotations
    keep the spectrum, so calibration takes the same ~21k power iterations
    for every seed; independent draws of U range from 13k to 54k.
    """
    U = np.roll(np.random.default_rng(1).random(size), seed % size)
    A = np.zeros((size, size))
    idx = np.arange(size)
    A[idx, (idx + 1) % size] = A[idx, (idx - 1) % size] = 0.5
    return {"space": {"type": "finite", "points": list(range(size))},
            "birth": {"form": "dense", "matrix": A.tolist()},
            "death": (1.0 + 0.05 * U).tolist()}


def steps(workload: str, seed: int) -> list[Step]:
    if workload == "walkers-z3":
        return [
            Step("transience_z3", "transience",
                 {"model": Z3, "T": 200.0, "replicas": 20000},
                 stochastic=True, target_se=TARGET_SE["transience_z3"]),
            Step("lemmas_marked", "verify-lemmas",
                 {"model": MARKED_Z3, "replicas": 20000}, stochastic=True),
            Step("transience_marked", "transience",
                 {"model": MARKED_Z3, "T": 150.0, "replicas": 10000,
                  "starts": [[[0, 0, 0], 0, 0], [[1, 0, 0], 0, 1],
                             [[2, 0, 0], 1, 1]]},
                 stochastic=True, target_se=TARGET_SE["transience_marked"]),
        ]
    if workload == "sim-small":
        return [
            Step("simulate_dense4", "simulate",
                 {"model": DENSE4, "rho": 0.5, "T": 2.0,
                  "snapshot_times": SNAPSHOTS, "replicas": 30000},
                 stochastic=True, target_se=TARGET_SE["simulate_dense4"]),
            Step("simulate_jump5", "simulate",
                 {"model": JUMP5, "rho": 0.5, "T": 2.0,
                  "snapshot_times": SNAPSHOTS, "replicas": 10000},
                 stochastic=True, target_se=TARGET_SE["simulate_jump5"]),
        ]
    if workload == "dense-window":
        ring = ring_model(seed)
        return [
            Step("stationary_z3_k2", "stationary",
                 {"model": Z3_WINDOW, "rho": 0.1, "n": 2}),
            Step("stationary_z2_k3", "stationary",
                 {"model": Z2_WINDOW, "rho": 0.1, "n": 3}),
            Step("evolve_z2", "evolve",
                 {"model": Z2_WINDOW, "rho": 0.1, "N": 2, "T": 2.0}),
            Step("simulate_window", "simulate",
                 {"model": Z2_WINDOW, "rho": 1.0, "T": 2.0,
                  "snapshot_times": [1.0, 2.0], "replicas": 1000},
                 stochastic=True, target_se=TARGET_SE["simulate_window"]),
            Step("stationary_ring", "stationary",
                 {"model": ring, "rho": 0.1, "n": 2}, expect_exit=3),
            Step("calibrate_ring", "calibrate", {"model": ring}, timed=False),
        ]
    raise KeyError(workload)


WORKLOADS = ("walkers-z3", "sim-small", "dense-window")


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def step_se(step: Step, outdir: Path) -> float:
    """Root-mean-square standard error over the estimates a Monte Carlo step reports.

    The maximum over the 4802 moment cells of ``simulate_window`` spreads by
    +-15% between seeds (one rare large count decides it); the mean of the
    variances is as steady as the wall time.
    """
    if step.command == "transience":
        per = _json(outdir / "transience.json")["per_start"]
        se = [v["stderr"] for v in per.values()]
    else:
        with open(outdir / "moments.csv") as fh:
            se = [float(row["stderr"]) for row in csv.DictReader(fh)]
    return float(np.sqrt(np.mean(np.square(se))))


def read_moments(outdir: Path, size: int) -> dict:
    """{(t, order): (values, stderr)} from a simulate moments.csv."""
    out: dict = {}
    with open(outdir / "moments.csv") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["t"]), int(row["order"]))
            if key not in out:
                shape = (size,) * key[1]
                out[key] = (np.full(shape, np.nan), np.full(shape, np.nan))
            idx = tuple(int(row[f"x{i + 1}"]) for i in range(key[1]))
            out[key][0][idx] = float(row["value"])
            out[key][1][idx] = float(row["stderr"])
    return out


def read_tensor(path: Path, size: int, order: int) -> np.ndarray:
    """Dense tensor from a ``x1..xn,value`` CSV written in index order."""
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=order)
    return values.reshape((size,) * order)


def read_evolve_final(path: Path, size: int, order: int):
    """(t, tensor) of the last time point of an evolve_k<n>.csv."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    last = data[-size ** order:]
    return float(last[0, 0]), last[:, -1].reshape((size,) * order)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def z_limit(cells: int) -> float:
    """Per-cell SE multiple that keeps the family-wise false alarm at FAMILY_ALPHA."""
    return max(MIN_Z, float(stats.norm.isf(FAMILY_ALPHA / (2 * cells))))


def within_se(name, est: dict, exact: dict):
    """One check: every cell of every (t, order) estimate within z SE of exact."""
    cells = sum(v[0].size for v in est.values())
    z = z_limit(cells)
    worst = 0.0
    for key, (vals, se) in est.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.where(vals == exact[key], 0.0, np.abs(vals - exact[key]) / se)
        worst = max(worst, float(np.max(np.nan_to_num(dev, nan=np.inf))))   # a missing cell fails
    return (name, bool(worst <= z), f"worst {worst:.2f} SE over {cells} cells (limit {z:.2f})")


def checks(workload: str, seed: int, outdirs: dict) -> list[tuple[str, bool, str]]:
    """Exact-oracle checks of one pass; ``outdirs`` maps step name -> directory."""
    out = []
    if workload == "walkers-z3":
        rep = _json(outdirs["transience_z3"] / "transience.json")
        out.append(("transience_z3 converged", bool(rep["converged"]), ""))
        # the extrapolated estimate against H (at 4 SE, although the reported
        # SE belongs to the running integral; see NOTES.md), and the running
        # integral at T against its exact finite-horizon value
        z = z_limit(3)
        for start in ((0, 0, 0), (1, 0, 0), (2, 0, 0)):
            got = rep["per_start"][str(start)]
            for label, key, horizon, limit in (
                    ("estimate", "estimate", np.inf, 4.0),
                    ("running integral at T", "running_final", rep["horizon"], z)):
                exact = oracles.pair_transience_z3(start, horizon)
                dev = abs(got[key] - exact) / got["stderr"]
                out.append((f"H{start} {label} within {limit:.2f} SE of exact",
                            bool(dev <= limit),
                            f"{got[key]:.6f} vs {exact:.10f} ({dev:.2f} SE)"))
        marked = _json(outdirs["transience_marked"] / "transience.json")
        out.append(("transience_marked converged", bool(marked["converged"]), ""))
        lemmas = _json(outdirs["lemmas_marked"] / "lemmas.json")
        out.append(("lemmas passed", bool(lemmas["passed"]), ""))
    elif workload == "sim-small":
        G, B, _, _, _ = oracles.critical_dense(DENSE4["birth"]["matrix"],
                                               DENSE4["space"]["weights"],
                                               DENSE4["death"])
        est = read_moments(outdirs["simulate_dense4"], 4)
        exact = {}
        for t in SNAPSHOTS:
            k1, k2 = oracles.moments_expm(G, B, 0.5, t)
            exact[(t, 1)], exact[(t, 2)] = k1, k2
        out.append(within_se("dense4 k1, k2 vs expm", est, exact))
        A = oracles.window_kernel(1, 2, _nearest(1), periodic=True)
        _, _, _, psi, _ = oracles.critical_dense(A, np.ones(5), np.ones(5))
        est = read_moments(outdirs["simulate_jump5"], 5)
        k1 = {k: v for k, v in est.items() if k[1] == 1}
        out.append(within_se("jump5 k1 = rho psi", k1,
                              {k: 0.5 * psi for k in k1}))
        for name in ("simulate_dense4", "simulate_jump5"):
            trunc = _json(outdirs[name] / "simulate.json")["truncated"]
            out.append((f"{name} no truncated replica", trunc == 0, str(trunc)))
    elif workload == "dense-window":
        A3 = oracles.window_kernel(3, 3, _nearest(3))
        G3 = A3 - np.eye(len(A3))
        k2 = read_tensor(outdirs["stationary_z3_k2"] / "stationary_k2.csv", 343, 2)
        gap = float(np.abs(k2 - oracles.stationary_k2_sylvester(G3, A3, 0.1)).max())
        out.append(("z3 k2 vs Sylvester", gap <= 1e-5, f"gap {gap:.2e}"))
        A2 = oracles.window_kernel(2, 3, _nearest(2))
        G2 = A2 - np.eye(49)
        k3 = read_tensor(outdirs["stationary_z2_k3"] / "stationary_k3.csv", 49, 3)
        gap = float(np.abs(k3 - oracles.stationary_k3_eigen(G2, A2, 0.1)[1]).max())
        out.append(("z2 k3 vs eigenbasis", gap <= 1e-5, f"gap {gap:.2e}"))
        t, k2 = read_evolve_final(outdirs["evolve_z2"] / "evolve_k2.csv", 49, 2)
        gap = float(np.abs(k2 - oracles.moments_spectral(G2, A2, 0.1, t)[1]).max())
        out.append(("z2 evolve k2 vs exact", gap <= 1e-6, f"gap {gap:.2e} at t={t}"))
        est = read_moments(outdirs["simulate_window"], 49)
        exact = {}
        for t in (1.0, 2.0):
            k1, k2 = oracles.moments_spectral(G2, A2, 1.0, t)
            exact[(t, 1)], exact[(t, 2)] = k1, k2
        out.append(within_se("window k1, k2 vs exact", est, exact))
        trunc = _json(outdirs["simulate_window"] / "simulate.json")["truncated"]
        out.append(("simulate_window no truncated replica", trunc == 0, str(trunc)))
        out.append(("ring divergence.json written",
                    (outdirs["stationary_ring"] / "divergence.json").exists(), ""))
        ring = ring_model(seed)
        cal = _json(outdirs["calibrate_ring"] / "calibration.json")
        _, _, _, _, r = oracles.critical_dense(ring["birth"]["matrix"],
                                               np.ones(100), ring["death"])
        out.append(("ring calibration residual <= 1e-10",
                    cal["criticality_residual"] <= 1e-10,
                    f"{cal['criticality_residual']:.2e}"))
        out.append(("ring eigenvalue vs eig", abs(cal["r"] - r) <= 1e-9,
                    f"{cal['r']:.12f} vs {r:.12f}"))
    else:
        raise KeyError(workload)
    return out
