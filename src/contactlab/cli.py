"""Command-line experiment harness.

    contactlab <command> --config <file> [--seed N] [--out DIR]

One JSON config per run; every stochastic output is reproducible from
(config, seed).  ``CONFIG`` lists, for each command, every key it reads
with its default or ``REQUIRED``, and ``NUMERIC_KEYS`` the type and lower
bound of each number; ``main`` checks the config against both before any
model is calibrated.  Outputs land in the run directory together with a
``manifest.json`` that records the seed, the digest of the config as given,
and each file with a content digest.

Exit codes: 0 success, 1 check failure, 2 config error, 3 numerical
divergence (with diagnostics in the report).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import locale  # noqa: F401
import math
import sys
import time
from pathlib import Path

import numpy as np
# these load on first use: locale for argparse's first parser (through
# gettext) and numpy.random for main's default_rng; loading them here keeps
# that out of the commands
import numpy.random  # noqa: F401

from . import __version__, metrics
from .criticality import calibrate, theta_kernel
from .errors import (ConfigError, ContactLabError, DivergenceError, ModelError,
                     _check_tensors)
from .hierarchy import (EVOLVE_CAP, _canonical_cells, check_level, check_trajectory,
                        evolve_hierarchy, factorial_bound_check, poisson_initial,
                        stationary_k, stationary_pair_mc)
from .model import model_from_dict
from .simulator import MIN_REPLICAS, empirical_correlations, run_replicas, snapshot_grid
from .walkers import (_nearest_neighbour, convolution_bound_check, estimate_H,
                      heat_bound_check, heat_bound_exact, lower_tail_bound_check,
                      parse_start, poisson_domination_check)

REQUIRED = object()
# a model config sets one of the two (see _model_from_config)
MODEL = {"model": None, "model_file": None}
# the config keys each command reads, each with its default or REQUIRED;
# None is a default derived from the model, or no value at all (model,
# model_file, seed).  Any other key is a config error.  The montecarlo
# backend of stationary reads its own keys.
CONFIG = {
    "calibrate": {**MODEL, "seed": None},
    "transience": {**MODEL, "seed": REQUIRED, "starts": None, "T": 1000.0,
                   "replicas": 100_000},
    "evolve": {**MODEL, "seed": None, "rho": REQUIRED, "N": 2, "T": 2.0, "dt": 0.05},
    "stationary": {**MODEL, "seed": None, "rho": REQUIRED, "n": 2, "backend": "dense"},
    "stationary montecarlo": {**MODEL, "seed": REQUIRED, "rho": REQUIRED, "n": 2,
                              "backend": "montecarlo", "displacements": None,
                              "T": 200.0, "replicas": 20000},
    "simulate": {**MODEL, "seed": REQUIRED, "rho": REQUIRED, "T": 2.0,
                 "snapshot_times": None, "replicas": 1000, "orders": [1, 2]},
    "verify-lemmas": {**MODEL, "seed": REQUIRED, "replicas": 20000},
    "verify-bounds": {**MODEL, "seed": REQUIRED, "rho": REQUIRED, "starts": None,
                      "T": 200.0, "replicas": 20000},
    "report": {"seed": None, "runs": REQUIRED},
}

EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DIVERGENCE = 0, 1, 2, 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_lines(rows) -> list:
    """One byte block of the CSV lines of tuple rows, each cell through
    ``_fmt``."""
    return ["".join(",".join(map(_fmt, row)) + "\n" for row in rows).encode()]


def _digest(blocks) -> str:
    """The sha256 hex digest of the byte ``blocks`` one after another: that
    of the file they are written to, without reading it back."""
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    return digest.hexdigest()


def _write_csv(path: Path, header, blocks) -> str:
    """The ``header`` line, then the byte ``blocks`` (whole lines each); the
    sha256 hex digest of the file."""
    blocks = [(",".join(header) + "\n").encode(), *blocks]
    with open(path, "wb") as fh:
        fh.writelines(blocks)
    return _digest(blocks)


# rows per block of _tensor_rows: its uint8 table is a block's bytes with
# padding, so a whole 117k-row tensor at once would raise the peak memory
BLOCK_ROWS = 8192


def _index_fields(n: int, size: int, width: int | None = None) -> list:
    """Byte-string columns ``x1..xn`` of every index of an order-n tensor
    over ``size`` points in C order, then ``width - n`` empty columns."""
    labels = np.array([b"%d" % i for i in range(size)])
    cols = [labels[ix] for ix in np.indices((size,) * n).reshape(n, -1)]
    return cols + [np.zeros(size ** n, "S1")] * ((width or n) - n)


def _format_floats(a, cells=None) -> np.ndarray:
    """``.17g`` byte strings of the floats of ``a`` in C order, as an
    ``S`` array.  Each distinct bit pattern is formatted once (so -0 stays
    apart from 0), and every cell holding it takes that string.  Where ``a``
    takes at every cell of its trailing axes the value at the cell that
    ``cells`` maps it to (``hierarchy._canonical_cells``), only the values at
    those cells are sorted.  The strings are totalled as the value
    ``write.values_formatted``."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    rows = None if cells is None else bits.reshape(-1, cells.size)
    if rows is not None and np.array_equal(rows[:, cells], rows):
        rep = cells == np.arange(cells.size)
        uniq, inverse = np.unique(rows[:, rep], return_inverse=True)
        inverse = inverse.reshape(len(rows), -1)[:, (np.cumsum(rep) - 1)[cells]]
    else:
        uniq, inverse = np.unique(bits, return_inverse=True)
    metrics.add("write.values_formatted", uniq.size)
    vals = tuple(uniq.view(np.float64).tolist())
    # one %-format over all of them: the conversion of format(v, ".17g"),
    # without a Python call per value
    strs = (b"%.17g\n" * len(vals) % vals).split(b"\n")[:-1]
    return np.array(strs, dtype="S")[inverse.ravel()]


def _tensor_rows(lead: tuple, index: list, *cols) -> list:
    """Byte blocks of at most ``BLOCK_ROWS`` CSV lines ``lead,x1..xn,values``
    of same-shape tensors in C index order; ``index`` is from
    ``_index_fields`` and each of ``cols`` is the ``_format_floats`` of one
    tensor.  The fields of a block are laid side by side as fixed-width
    bytes, with the separators between them, and the NUL padding of the
    shorter strings is dropped."""
    head = np.frombuffer("".join(_fmt(x) + "," for x in lead).encode(), np.uint8)
    cols = [*index, *cols]
    blocks = []
    for lo in range(0, len(cols[0]), BLOCK_ROWS):
        part = [c[lo:lo + BLOCK_ROWS] for c in cols]
        m = len(part[0])
        fields = [np.broadcast_to(head, (m, head.size))]
        for c in part:
            fields += [c.view(np.uint8).reshape(m, c.itemsize),
                       np.broadcast_to(np.uint8(ord(",")), (m, 1))]
        table = np.concatenate(fields, axis=1)
        table[:, -1] = ord("\n")
        table = table.ravel()
        blocks.append(table[table != 0].tobytes())
    return blocks


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


class Run:
    """Collects output files and writes the manifest at the end."""

    def __init__(self, config: dict, outdir: Path):
        self.config = config
        self.outdir = outdir
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.started = time.time()
        self.checks: dict[str, bool] = {}
        self.digests: dict[str, str] = {}   # sha256 of each output, as written

    @metrics.phase("write")
    def write_json(self, name: str, payload: dict):
        data = (json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
                + "\n").encode()
        (self.outdir / name).write_bytes(data)
        self.digests[name] = _digest([data])

    @metrics.phase("write")
    def write_csv(self, name: str, header, lines):
        self.digests[name] = _write_csv(self.outdir / name, header, lines)

    def finish(self, command: str, recorded: dict):
        """Write ``manifest.json``: the outputs' digests, the checks and the
        ``recorded`` metrics, which are not digested (their timings vary)."""
        manifest = {
            "artifact_version": __version__,
            "command": command,
            "config_digest": hashlib.sha256(
                json.dumps(self.config, sort_keys=True).encode()).hexdigest(),
            "seed": self.config.get("seed"),
            "wall_clock_seconds": round(time.time() - self.started, 3),
            "checks": self.checks,
            "outputs": self.digests,
            "metrics": recorded,
        }
        path = self.outdir / "manifest.json"
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


def _load_config(path) -> dict:
    """The JSON object in the file at ``path``."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _model_from_config(cfg: dict, config_path: str):
    if "model" in cfg:
        return model_from_dict(cfg["model"])
    if "model_file" in cfg:
        path = cfg["model_file"]
        if not isinstance(path, str):
            raise ConfigError(f"config key 'model_file' must be a path, got {path!r}")
        # a relative path is relative to the config's directory
        return model_from_dict(_load_config(Path(config_path).parent / path))
    raise ConfigError("config needs a 'model' dict or 'model_file' path")


def _settings(command: str, cfg: dict) -> dict:
    """The config's values over its ``CONFIG`` entry's defaults.  A key the
    entry lacks, a missing REQUIRED key, a null value or a malformed number
    is a config error."""
    entry = ("stationary montecarlo" if command == "stationary"
             and cfg.get("backend") == "montecarlo" else command)
    table = CONFIG[entry]
    unknown = set(cfg) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys for '{entry}': "
                          f"{', '.join(sorted(unknown))}")
    for key, default in table.items():
        if default is REQUIRED and key not in cfg:
            raise ConfigError(f"config key '{key}' is required for '{entry}'")
        if key in cfg and cfg[key] is None:
            raise ConfigError(f"config key '{key}' is null")
    _check_numbers(cfg, entry)
    return {**table, **cfg}


def _starts(cfg: dict, key: str, d: int, nmark: int = 0) -> list:
    """Two-walker starts from the config's ``key``, as ``parse_start`` takes
    them; by default the displacements 0, e_1 and 2 e_1 (from marks 0, 0)."""
    starts = cfg[key]
    if starts is None:
        disps = [[0] * d, [1] + [0] * (d - 1), [2] + [0] * (d - 1)]
        return [[u, 0, 0] for u in disps] if nmark else disps
    try:
        if not (isinstance(starts, list) and starts):
            raise ModelError(f"{starts!r} is not a non-empty list")
        for s in starts:
            parse_start(s, d, nmark)
    except ModelError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc
    return starts


# numeric config keys: (type, lower bound, whether the bound is strict); every
# command that reads replicas reports a ddof=1 standard error, so >= 2
NUMERIC_KEYS = {
    "T": (float, 0, False), "rho": (float, 0, False), "dt": (float, 0, True),
    "replicas": (int, 2, False), "N": (int, 1, False), "n": (int, 1, False),
    "seed": (int, 0, False),
}
# the entries whose T is a two-walker horizon, which must be positive
WALKER_HORIZON = ("transience", "verify-bounds", "stationary montecarlo")


def _check_numbers(cfg: dict, entry: str):
    """Each numeric key present is a finite number of its type (an int key
    takes no float; a boolean is no number) at or above its lower bound (above
    it for the T of a ``WALKER_HORIZON`` entry)."""
    for key, (kind, low, strict) in NUMERIC_KEYS.items():
        if key not in cfg:
            continue
        strict = strict or (key == "T" and entry in WALKER_HORIZON)
        val = cfg[key]
        ok = (isinstance(val, (int,) if kind is int else (int, float))
              and not isinstance(val, bool) and math.isfinite(val)
              and (val > low or (val == low and not strict)))
        if not ok:
            what = "an integer" if kind is int else "a finite number"
            raise ConfigError(f"config key '{key}' must be {what} "
                              f"{'>' if strict else '>='} {low}, got {val!r}")


def _rho(cfg: dict, power: int) -> float:
    """The config's rho, a config error unless ``rho ** power``, the highest
    power of it the command forms, is a finite float."""
    rho = float(cfg["rho"])
    try:
        rho ** power
    except OverflowError:
        raise ConfigError(f"config key 'rho' = {rho!r} is too large: rho^{power} "
                          "is not a finite float") from None
    return rho


# ---------------------------------------------------------------------------
# commands: each takes the settings of _settings, the run, the random
# generator (None without a seed) and the parsed (space, model)
# ---------------------------------------------------------------------------

def _no_jumps(command: str, model, engine: str = "the correlation hierarchy") -> None:
    """Refuse a jump kernel: the correlation hierarchy has no jump term, and
    the two-walker engine moves its walkers by the birth stencil alone."""
    if model.jump is not None:
        raise ModelError(f"{command} runs {engine}, which has no jump term: a "
                         "model with a jump kernel is not supported")


# the engine of transience, verify-lemmas, verify-bounds and montecarlo stationary
WALKERS = "the two-walker engine"


def cmd_calibrate(cfg, run: Run, rng, space, model):
    tm, gs, report = calibrate(model, space)
    payload = {
        "r": report["r_initial"],
        "r_after_rescale": report["r_after_rescale"],
        "criticality_residual": report["criticality_residual"],
        "iterations": report["iterations"],
        "normalization": report["normalization"],
    }
    run.write_json("calibration.json", payload)
    tm_payload = {
        "psi": tm.psi, "mbar": tm.mbar, "death": tm.death, "b": tm.b,
        "alpha": ([[list(k), v] for k, v in tm.alpha.items()]
                  if tm.alpha is not None else None),
        "Q": tm.Q, "q": tm.q, "v": tm.v,
    }
    run.write_json("transformed_model.json", tm_payload)
    ok = report["criticality_residual"] <= 1e-10
    run.checks["criticality_residual"] = bool(ok)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_transience(cfg, run: Run, rng, space, model):
    nmark = len(space.marks or ())
    starts = _starts(cfg, "starts", space.dim or 1, nmark)
    _no_jumps("transience", model, WALKERS)
    tm, _, _ = calibrate(model, space)
    rep = estimate_H(tm, starts, T=float(cfg["T"]), replicas=cfg["replicas"], rng=rng)
    run.write_json("transience.json", {
        "H_hat": rep.H_hat, "stderr": rep.stderr, "converged": rep.converged,
        "tail_exponent_fit": rep.tail_exponent_fit,
        "growth_exponent": rep.growth_exponent, "horizon": rep.horizon,
        "per_start": {str(k): v for k, v in rep.per_start.items()},
    })
    if rep.times is not None:
        run.write_csv("transience_curve.csv", ["t", "running_integral"],
                      _csv_lines(zip(rep.times, rep.running)))
    run.checks["transience_converged"] = rep.converged
    return EXIT_OK


def cmd_evolve(cfg, run: Run, rng, space, model):
    rho, N, T = _rho(cfg, cfg["N"]), cfg["N"], float(cfg["T"])
    _no_jumps("evolve", model)
    # the evolution is exact: dt only spaces the output times (T = 0 has one);
    # a grid over EVOLVE_CAP entries is refused before anything is allocated
    steps = max(round(min(T / float(cfg["dt"]), EVOLVE_CAP)), 1) if T > 0 else 0
    check_trajectory(steps + 1, space.size, N)
    tm, _, _ = calibrate(model, space)
    grid = np.linspace(0.0, T, steps + 1)
    k0 = [poisson_initial(n, rho, space) for n in range(1, N + 1)]
    for n, (times, traj) in evolve_hierarchy(tm, k0, grid).items():
        with metrics.phase("write"):
            index = _index_fields(n, space.size)
            # one call over the trajectory: values repeated across times share a string
            values = _format_floats(traj, _canonical_cells(n, space.size, tm.symmetries))
            m = len(index[0])
            blocks = []
            for i, t in enumerate(times):
                blocks += _tensor_rows((t,), index, values[i * m:(i + 1) * m])
            run.write_csv(f"evolve_k{n}.csv",
                          ["t"] + [f"x{i + 1}" for i in range(n)] + ["value"], blocks)
    return EXIT_OK


def cmd_stationary(cfg, run: Run, rng, space, model):
    n, backend = cfg["n"], cfg["backend"]
    rho = _rho(cfg, 2 if backend == "montecarlo" else n)
    if backend == "montecarlo":
        if n != 2:
            raise ConfigError(f"the montecarlo backend computes n = 2 only, not n = {n}")
        nmark = len(space.marks or ())
        starts = _starts(cfg, "displacements", space.dim or 1, nmark)
        _no_jumps("montecarlo stationary", model, WALKERS)
    elif backend != "dense":
        raise ConfigError(f"unknown backend {backend!r}: use 'dense' or 'montecarlo'")
    else:
        # a jump kernel or a level over STATIONARY_CAP entries is refused first
        _no_jumps("dense stationary", model)
        check_level(n, space.size)
    tm, _, _ = calibrate(model, space)
    try:
        if backend == "montecarlo":
            k = stationary_pair_mc(tm, rho, rng=rng, displacements=starts, T=cfg["T"],
                                   replicas=cfg["replicas"])
        else:
            k = stationary_k(n, tm, rho)
    except DivergenceError as exc:
        run.write_json("divergence.json",
                       {"error": str(exc), "diagnostics": exc.diagnostics})
        run.checks["stationary_converged"] = False
        return EXIT_DIVERGENCE
    if backend == "montecarlo":
        cols = [f"u{i + 1}" for i in range(space.dim)] + (["s_x", "s_y"] if nmark else [])
        # a marked start (u, s_x, s_y) fills u1..ud, s_x, s_y
        flat = [(*s[0], *s[1:]) if nmark else s for s in k.displacements]
        run.write_csv("stationary_k2.csv", cols + ["value", "stderr"],
                      _csv_lines(s + (val, se) for s, val, se in
                                 zip(flat, k.values, k.stderr)))
    else:
        with metrics.phase("write"):
            run.write_csv(f"stationary_k{n}.csv",
                          [f"x{i + 1}" for i in range(n)] + ["value"],
                          _tensor_rows((), _index_fields(n, space.size),
                                       _format_floats(k, _canonical_cells(
                                           n, space.size, tm.symmetries))))
    run.checks["stationary_converged"] = True
    return EXIT_OK


def cmd_simulate(cfg, run: Run, rng, space, model):
    rho, T, orders = float(cfg["rho"]), float(cfg["T"]), cfg["orders"]
    try:
        snap = [float(t) for t in
                ([T] if cfg["snapshot_times"] is None else cfg["snapshot_times"])]
        snapshot_grid(T, snap)
    except (TypeError, ValueError, ModelError) as exc:
        raise ConfigError(str(exc)) from exc
    if len(set(snap)) < len(snap):
        raise ConfigError(f"config key 'snapshot_times' repeats a time: {snap!r}")
    if not (isinstance(orders, list) and orders and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders)
            and len(set(orders)) == len(orders)):
        raise ConfigError("config key 'orders' must be a non-empty list of "
                          f"distinct integers >= 1, got {orders!r}")
    if cfg["replicas"] < MIN_REPLICAS:
        raise ConfigError(f"config key 'replicas' must be >= {MIN_REPLICAS} for "
                          f"simulate, got {cfg['replicas']}")
    # the moments' tensors take the budget of an evolved trajectory
    _check_tensors(f"the moments of orders {orders} at {len(snap)} snapshot times over "
                   f"{space.size} points", len(snap), space.size, sorted(orders),
                   EVOLVE_CAP, "EVOLVE_CAP")
    tm, _, _ = calibrate(model, space)
    batch = run_replicas(tm, rho, T, snap, cfg["replicas"], seed=cfg["seed"])
    with metrics.phase("moments"):
        ests = [empirical_correlations(batch, space, t, n, tm.mbar)
                for t in snap for n in orders]
    width = max(orders)
    with metrics.phase("write"):
        index = {n: _index_fields(n, space.size, width) for n in orders}
        blocks = []
        for est in ests:
            blocks += _tensor_rows((est.time, est.order), index[est.order],
                                   _format_floats(est.values), _format_floats(est.stderr))
        header = ["t", "order"] + [f"x{i + 1}" for i in range(width)] + ["value", "stderr"]
        run.write_csv("moments.csv", header, blocks)
    run.write_json("simulate.json",
                   {"replicas": cfg["replicas"], "truncated": int(batch.truncated.sum()),
                    "snapshot_times": snap})
    return EXIT_OK


def cmd_verify_lemmas(cfg, run: Run, rng, space, model):
    replicas = cfg["replicas"]
    _no_jumps("verify-lemmas", model, WALKERS)
    tm, _, _ = calibrate(model, space)
    if not tm.translation_invariant:
        raise ModelError("verify-lemmas requires a translation-invariant model")
    d = space.dim or 1
    results = {}
    ok = True
    with metrics.phase("lemmas.convolution"):
        conv = convolution_bound_check(tm.alpha, d, 64)
    results["convolution"] = {"max_over_median": conv["max_over_median"],
                              "bounded": conv["bounded"]}
    ok &= conv["bounded"]
    run.write_csv("convolution.csv", ["n", "sup", "scaled"],
                  _csv_lines(zip(conv["n"], conv["sup"], conv["scaled"])))
    # lam0, the lowest holding rate, bounds the mark chain's jump rate from
    # below; the lower-tail bound holds from t = 2 / lam0
    lam0 = float(tm.v.min())
    tgrid = np.linspace(2.0 / lam0, 40.0 / lam0, 8)
    lower = lower_tail_bound_check(lam0, tgrid)
    results["lower_tail"] = {"max_ratio": lower["max_ratio"],
                             "passed": lower["passed"]}
    ok &= lower["passed"]
    with metrics.phase("lemmas.poisson_domination"):
        dom = poisson_domination_check(tm.v, theta_kernel(tm), tm.nu, lam0, tgrid,
                                       list(range(8)))
    results["poisson_domination"] = {"passed": dom["passed"],
                                     "max_excess": dom["max_excess"]}
    ok &= dom["passed"]
    x0 = ((tuple([0] * d), space.marks[0]) if tm.marked else tuple([0] * d))
    # a nearest-neighbour stencil takes the exact convolution and heat bound
    exact = _nearest_neighbour(list(tm.alpha), list(tm.alpha.values()))
    metrics.count("lemmas.exact_convolution", conv["exact"])
    metrics.count("lemmas.exact_heat_bound", exact)
    grid = np.geomspace(1.0, 100.0, 12)
    with metrics.phase("lemmas.heat_bound"):
        hb = (heat_bound_exact(tm, grid, x0, tuple([0] * d)) if exact else
              heat_bound_check(tm, grid, x0, tuple([0] * d), replicas, rng))
    results["heat_bound"] = {"sup_scaled": hb["sup_scaled"], "flat": hb["flat"],
                             "bounded": hb["bounded"], "exact": exact}
    ok &= hb["bounded"]
    results["passed"] = bool(ok)
    run.write_json("lemmas.json", results)
    for name, res in results.items():
        if name == "passed":
            continue
        verdict = res.get("passed", res.get("bounded"))
        run.checks[f"lemma_{name}"] = bool(verdict)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify_bounds(cfg, run: Run, rng, space, model):
    rho, T, replicas = _rho(cfg, 2), float(cfg["T"]), cfg["replicas"]
    starts = _starts(cfg, "starts", space.dim or 1, len(space.marks or ()))
    _no_jumps("verify-bounds", model, WALKERS)
    tm, _, _ = calibrate(model, space)
    trans = estimate_H(tm, starts, T=T, replicas=replicas, rng=rng)
    if not trans.converged:
        run.write_json("bounds.json", {"error": "transience not established",
                                       "H_hat": trans.H_hat,
                                       "converged": False})
        run.checks["factorial_bound"] = False
        return EXIT_DIVERGENCE
    try:
        k2 = stationary_pair_mc(tm, rho, rng=rng, displacements=starts, T=T,
                                replicas=replicas)
    except DivergenceError as exc:
        run.write_json("bounds.json", {"error": str(exc), "converged": False})
        run.checks["factorial_bound"] = False
        return EXIT_DIVERGENCE
    rep = factorial_bound_check({1: rho, 2: k2.values.max()}, rho, trans.H_hat)
    run.write_json("bounds.json", {
        "H": trans.H_hat, "D": rep["D"],
        "per_level": {str(k): v for k, v in rep["per_level"].items()},
        "passed": rep["passed"],
    })
    run.checks["factorial_bound"] = rep["passed"]
    return EXIT_OK if rep["passed"] else EXIT_CHECK_FAILED


def cmd_report(cfg, run: Run, rng):
    runs = cfg["runs"]
    if not (isinstance(runs, list) and runs and all(isinstance(r, str) for r in runs)):
        raise ConfigError("report needs a 'runs' list of run directories")
    table = []
    all_ok = True
    for rdir in runs:
        mpath = Path(rdir) / "manifest.json"
        man = _load_config(mpath)
        checks = man.get("checks", {})
        if "command" not in man or not isinstance(checks, dict):
            raise ConfigError(f"manifest {mpath} needs a 'command' and a 'checks' object")
        for check, passed in checks.items():
            table.append((man["command"], check, "pass" if passed else "fail"))
            all_ok &= bool(passed)
    run.write_csv("report.csv", ["command", "check", "status"], _csv_lines(table))
    run.write_json("report.json", {"checks": len(table), "all_passed": all_ok})
    run.checks["all_runs_passed"] = all_ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


COMMANDS = {
    "calibrate": cmd_calibrate,
    "transience": cmd_transience,
    "evolve": cmd_evolve,
    "stationary": cmd_stationary,
    "simulate": cmd_simulate,
    "verify-lemmas": cmd_verify_lemmas,
    "verify-bounds": cmd_verify_bounds,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="contactlab",
                                     description="contact-process laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        settings = _settings(args.command, cfg)
        parts = () if args.command == "report" else _model_from_config(cfg, args.config)
        rng = np.random.default_rng(cfg["seed"]) if "seed" in cfg else None
        run = Run(cfg, Path(args.out or "out"))
        with metrics.recording() as recorded:
            code = COMMANDS[args.command](settings, run, rng, *parts)
        run.finish(args.command, recorded)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ContactLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
