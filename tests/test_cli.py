"""Command-line interface: dispatch, exit codes, manifests, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from contactlab import cli, metrics
from contactlab.cli import _fmt, _format_floats, _index_fields, _tensor_rows, main
from contactlab.criticality import calibrate
from contactlab.hierarchy import evolve_hierarchy, poisson_initial, stationary_k
from contactlab.model import model_from_dict
from contactlab.simulator import empirical_correlations, run_replicas


LATTICE_MODEL = {
    "space": {"type": "lattice", "d": 3, "R": 1, "boundary": "unbounded"},
    "birth": {"form": "stencil", "entries": "nearest", "rate": 1.0},
    "death": 1.0,
}

MARKED_MODEL = {
    "space": {"type": "product", "d": 3, "R": 1, "boundary": "unbounded",
              "marks": ["A", "B"], "nu": [0.5, 0.5]},
    "birth": {"form": "factorized", "alpha": "nearest", "rate": 1.0,
              "Q": [[2.0, 1.0], [1.0, 2.0]]},
    "death": {"per_mark": [1.0, 3.0]},
}

# a stencil on a product space: the multi-species model with Q = ones
STENCIL_PRODUCT_MODEL = dict(MARKED_MODEL, birth=LATTICE_MODEL["birth"])

# a stencil that is not its own mirror image, and the marked model on it
DRIFT = [[[1, 0, 0], 0.3], [[-1, 0, 0], 0.1], [[0, 1, 0], 0.15],
         [[0, -1, 0], 0.15], [[0, 0, 1], 0.15], [[0, 0, -1], 0.15]]
DRIFT_MARKED_MODEL = dict(MARKED_MODEL, birth={"form": "factorized", "alpha": DRIFT,
                                               "Q": [[2.0, 1.0], [1.0, 2.0]]})

FINITE_MODEL = {
    "space": {"type": "finite", "points": [0, 1, 2, 3],
              "weights": [1.0, 0.8, 1.2, 1.0]},
    "birth": {"form": "dense",
              "matrix": [[0.2, 0.9, 0.4, 0.3],
                         [0.8, 0.1, 0.6, 0.5],
                         [0.3, 0.7, 0.2, 0.9],
                         [0.6, 0.4, 0.8, 0.2]]},
    "death": [1.0, 1.4, 0.9, 1.1],
}


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_cli(tmp_path, command, cfg, seed=None, outname="out"):
    cfgp = write_config(tmp_path, f"{command}.json", cfg)
    out = tmp_path / outname
    argv = [command, "--config", cfgp, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out


def _no_calibration(*args, **kwargs):
    raise AssertionError("the config should be rejected before calibration")


class TestExitCodes:
    def test_calibrate_ok(self, tmp_path):
        code, out = run_cli(tmp_path, "calibrate", {"model": LATTICE_MODEL})
        assert code == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["criticality_residual"] <= 1e-10
        assert abs(report["r"] - 1.0) <= 1e-10

    def test_missing_seed_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "simulate",
                          {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                           "snapshot_times": [0.5], "replicas": 120})
        assert code == 2

    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                      "snapshots": [0.5], "replicas": 120}),
        ("calibrate", {"model": FINITE_MODEL, "dt": 0.1}),
        ("stationary", {"model": FINITE_MODEL, "rho": 0.5, "n": 2, "tol": 1e-12}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1,
                        "backend": "montecarlo", "horizon": 10}),
        ("transience", {"model": MARKED_MODEL, "T": 5, "replicas": 100,
                        "starts": [[0, 0, 0]]}),
        ("verify-bounds", {"model": MARKED_MODEL, "rho": 0.1, "T": 20,
                           "replicas": 200, "starts": [[0, 0, 0]]}),
        ("stationary", {"model": MARKED_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "displacements": [[[0, 0, 0], 0, 2]], "T": 20, "replicas": 200}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "displacements": [[1, 0]], "T": 20, "replicas": 200}),
        ("calibrate", {"model": dict(MARKED_MODEL, birth={
            "form": "factorized", "alpha": "nearest", "Q": [[1.0] * 3] * 3})}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                      "snapshot_times": [-1.0, 0.5], "replicas": 120}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                      "snapshot_times": [0.5, 1.0], "replicas": 120}),
        ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 200,
                           "heat_t_grid": [10, 1, 5]}),
        ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 200,
                           "t_grid": [8.0, 2.0, 4.0]}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": "abc",
                      "replicas": 120}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                      "replicas": "x"}),
        ("simulate", {"model": FINITE_MODEL, "rho": -0.5, "T": 0.5,
                      "replicas": 120}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                      "replicas": 120, "orders": [0]}),
        ("transience", {"model": LATTICE_MODEL, "T": 0, "replicas": 200}),
        ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 200, "k_grid": ["a"]}),
        ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 200,
                           "k_grid": [1.5, 2.7]}),
        ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 200, "k_grid": [-1]}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "displacements": [5], "T": 20, "replicas": 200}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "displacements": 5, "T": 20, "replicas": 200}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "T": 20, "replicas": 200, "integrability_margin": "x"}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "T": 20, "replicas": 200, "integrability_margin": 0.1}),
        ("transience", {"model": LATTICE_MODEL, "T": 5, "replicas": 100, "starts": 5}),
        ("simulate", {"model": dict(FINITE_MODEL, jmup=FINITE_MODEL["birth"]),
                      "rho": 0.5, "T": 0.5, "replicas": 120}),
        ("calibrate", {"model": dict(FINITE_MODEL, space={
            "type": "finite", "points": [0, 1, 2, 3], "wieghts": [1.0, 0.8, 1.2, 1.0]})}),
        ("calibrate", {"model": dict(LATTICE_MODEL, space={
            "type": "lattice", "d": 3, "R": 1, "boundry": "unbounded"})}),
        ("calibrate", {"model": dict(LATTICE_MODEL, space={"type": "lattice", "R": 1})}),
        ("calibrate", {"model": dict(LATTICE_MODEL, space={"type": "lattice", "d": 3,
                                                           "R": "x"})}),
        ("calibrate", {"model": dict(FINITE_MODEL, birth={"form": "dense"})}),
        ("calibrate", {"model": dict(FINITE_MODEL, death="abc")}),
        ("calibrate", {"model_file": "missing_model.json"}),
        ("calibrate", [{"model": FINITE_MODEL}]),
        ("report", {"runs": 5}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "controls": 5}),
        ("stationary", {"model": FINITE_MODEL, "rho": 0.5, "backend": "spectral"}),
        ("verify-bounds", {"model": LATTICE_MODEL, "rho": 0.1, "T": 20,
                           "replicas": 200, "mc_tolerance": 0.5}),
        # no translation-invariant walk law: a model error, not a failed check
        ("verify-lemmas", {"model": FINITE_MODEL, "replicas": 200}),
        ("verify-lemmas", {"model": dict(LATTICE_MODEL, space={
            "type": "lattice", "d": 1, "R": 3, "boundary": "periodic"},
            death=[1.0, 1.2, 0.9, 1.1, 1.0, 0.8, 1.3])}),
        # a montecarlo key on the dense backend
        ("stationary", {"model": FINITE_MODEL, "rho": 0.5, "replicas": 200}),
        ("evolve", {"model": FINITE_MODEL, "rho": 0.5, "output_dir": "elsewhere"}),
        ("transience", {"model": LATTICE_MODEL, "T": 5, "replicas": 100,
                        "starts": None}),
    ])
    def test_unsupported_config_is_config_error(self, tmp_path, command, cfg):
        code, _ = run_cli(tmp_path, command, cfg, seed=1)
        assert code == 2

    @pytest.mark.parametrize("command, cfg", [
        ("transience", {"model": LATTICE_MODEL, "T": 5, "replicas": 100, "starts": []}),
        ("verify-bounds", {"model": LATTICE_MODEL, "rho": 0.1, "T": 20,
                           "replicas": 200, "starts": []}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "displacements": [], "T": 20, "replicas": 200}),
        # one replica: each of these reports a ddof=1 standard error
        ("transience", {"model": LATTICE_MODEL, "T": 5, "replicas": 1}),
        ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 1}),
        ("verify-bounds", {"model": LATTICE_MODEL, "rho": 0.1, "T": 20, "replicas": 1}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "T": 20, "replicas": 1}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5, "replicas": 1}),
        # a missing required key, a negative horizon, or n = 3 for montecarlo
        ("evolve", {"model": FINITE_MODEL, "N": 2, "T": 0.5}),
        ("simulate", {"model": FINITE_MODEL, "T": 0.5, "replicas": 120}),
        ("verify-bounds", {"model": LATTICE_MODEL, "T": 20, "replicas": 200}),
        ("evolve", {"model": FINITE_MODEL, "rho": 0.5, "T": -1}),
        ("stationary", {"model": LATTICE_MODEL, "backend": "montecarlo"}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "n": 3}),
        # simulate estimates moments from at least 100 replicas, at one time or more
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5, "replicas": 99}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5, "replicas": 120,
                      "snapshot_times": []}),
        # the two-walker commands integrate over (0, T]: T = 0 is no horizon
        ("transience", {"model": LATTICE_MODEL, "T": 0, "replicas": 100}),
        ("verify-bounds", {"model": LATTICE_MODEL, "rho": 0.1, "T": 0, "replicas": 200}),
        ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "backend": "montecarlo",
                        "T": 0, "replicas": 200}),
        # a stencil on a product space has marks, so its starts carry them
        ("stationary", {"model": STENCIL_PRODUCT_MODEL, "rho": 0.1,
                        "backend": "montecarlo", "displacements": [[1, 0, 0]],
                        "T": 20, "replicas": 200}),
        ("verify-bounds", {"model": STENCIL_PRODUCT_MODEL, "rho": 0.1, "T": 20,
                           "replicas": 200, "starts": [[0, 0, 0]]}),
        # a repeated time or order would repeat its rows of moments.csv
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 1.0, "replicas": 120,
                      "snapshot_times": [1.0, 0.5, 1.0]}),
        ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 1.0, "replicas": 120,
                      "orders": [1, 1]}),
        # a rate next to explicit stencil entries, which it would not scale
        ("transience", {"model": dict(LATTICE_MODEL, birth={
            "form": "stencil", "entries": DRIFT, "rate": 4.0}), "T": 5, "replicas": 100}),
        # a level of order 2^63, whose size^n is never formed
        ("evolve", {"model": FINITE_MODEL, "rho": 0.5, "N": 2 ** 63}),
        ("stationary", {"model": FINITE_MODEL, "rho": 0.5, "n": 2 ** 63}),
    ])
    def test_rejected_before_calibration(self, tmp_path, monkeypatch, command, cfg):
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        code, _ = run_cli(tmp_path, command, cfg, seed=1)
        assert code == 2

    @pytest.mark.parametrize("size", [{"d": 0, "R": 1}, {"d": 2.7, "R": 1.9},
                                      {"d": 1, "R": -1}])
    @pytest.mark.parametrize("command, cfg", [
        ("calibrate", {}), ("transience", {"T": 5, "replicas": 100}),
        ("simulate", {"rho": 0.1, "replicas": 100}), ("verify-lemmas", {"replicas": 200})])
    def test_unusable_lattice_size_rejected(self, tmp_path, monkeypatch, command, cfg,
                                            size):
        # d = 0 once died in kernel_matrix (exit 1), d = 2.7 ran as d = 2
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        model = dict(LATTICE_MODEL, space=dict(LATTICE_MODEL["space"], **size))
        code, _ = run_cli(tmp_path, command, {"model": model, **cfg}, seed=1)
        assert code == 2

    def test_bad_config_file(self, tmp_path):
        assert main(["calibrate", "--config",
                     str(tmp_path / "missing.json")]) == 2

    def test_negative_tolerance_rejected(self, tmp_path):
        code, _ = run_cli(tmp_path, "calibrate",
                          {"model": LATTICE_MODEL, "tol": -1.0})
        assert code == 2

    def test_recurrent_stationary_exits_3(self, tmp_path):
        code, out = run_cli(tmp_path, "stationary",
                            {"model": FINITE_MODEL, "rho": 0.5, "n": 2,
                             "backend": "dense"})
        assert code == 3
        div = json.loads((out / "divergence.json").read_text())
        assert div["diagnostics"]["spectral_abscissa"] >= -div["diagnostics"]["tol"]

    def test_critical_periodic_window_exits_3(self, tmp_path):
        # a symmetric birth kernel takes the eigenbasis solve, which decides
        # divergence too; its eigenvalues are real, written as [re, 0.0]
        window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"],
                                             "boundary": "periodic"}}
        code, out = run_cli(tmp_path, "stationary", {"model": window, "rho": 0.5, "n": 2})
        assert code == 3
        diag = json.loads((out / "divergence.json").read_text())["diagnostics"]
        assert abs(diag["spectral_abscissa"]) <= 1e-12
        assert all(im == 0.0 for _, im in diag["leading_eigenvalues"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["counters"]["stationary.eigh"] == 1

    def test_oversized_mark_law_exits_2(self, tmp_path):
        # 16 Gauss-Legendre marks: the pair chain's 256 joint marks from 256
        # start laws once built a 32 GiB jump matrix and died with exit 1;
        # the law's size is checked against walkers.LAW_CAP before any of it
        s, w = np.polynomial.legendre.leggauss(16)
        s, w = (s + 1.0) / 2.0, w / 2.0
        model = {"space": {"type": "product", "d": 3, "R": 1, "boundary": "unbounded",
                           "marks": [f"m{i}" for i in range(16)], "nu": w.tolist()},
                 "birth": {"form": "factorized", "alpha": "nearest", "rate": 1.0,
                           "Q": (1.0 + np.outer(s, s)).tolist()},
                 "death": {"per_mark": (1.0 + 2.0 * s).tolist()}}
        began = time.perf_counter()
        tracemalloc.start()
        try:
            code, _ = run_cli(tmp_path, "transience",
                              {"model": model, "T": 50, "replicas": 1000}, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 64 * 2 ** 20
        assert time.perf_counter() - began < 10.0


    def test_oversized_evolve_grid_exits_2(self, tmp_path, monkeypatch):
        # dt = 1e-9 once asked np.linspace for 10^9 + 1 output times (8 GB);
        # the grid's len(times) * (size + size^2) entries are checked against
        # hierarchy.EVOLVE_CAP before any of it
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        tracemalloc.start()
        try:
            code, _ = run_cli(tmp_path, "evolve", {"model": FINITE_MODEL, "rho": 0.5,
                                                   "T": 1, "dt": 1e-9})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20

    @pytest.mark.parametrize("cap, expect", [(11 * 20, 0), (11 * 20 - 1, 2)])
    def test_evolve_grid_cap_boundary(self, tmp_path, monkeypatch, cap, expect):
        # 11 output times of levels 1 and 2 on four points: 11 * (4 + 16) entries
        from contactlab import hierarchy
        monkeypatch.setattr(hierarchy, "EVOLVE_CAP", cap)
        code, _ = run_cli(tmp_path, "evolve", {"model": FINITE_MODEL, "rho": 0.5,
                                               "N": 2, "T": 0.5, "dt": 0.05})
        assert code == expect

    def test_oversized_stationary_level_exits_2(self, tmp_path, monkeypatch):
        # n = 4 on the 343-point Z^3 window once asked np.zeros for 343^4
        # entries (103 GiB) in source_f; the level's size^n entries are
        # checked against hierarchy.STATIONARY_CAP before calibrating
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"], "R": 3}}
        tracemalloc.start()
        try:
            code, _ = run_cli(tmp_path, "stationary", {"model": window, "rho": 0.1, "n": 4})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20

    @pytest.mark.parametrize("command", ["transience", "verify-bounds"])
    def test_oversized_horizon_exits_2(self, tmp_path, command):
        # T = 1e12 on Z^3 once asked np.arange for the 2e12 events of the
        # jump-count law's Poisson table (14.6 TiB) and died with exit 1; its
        # times x events entries are checked against walkers.LAW_CAP first
        cfg = {"model": LATTICE_MODEL, "T": 1e12, "replicas": 100}
        if command == "verify-bounds":
            cfg["rho"] = 0.1
        began = time.perf_counter()
        code, _ = run_cli(tmp_path, command, cfg, seed=1)
        assert code == 2
        assert time.perf_counter() - began < 0.5

    def test_jump_kernel_refused_by_the_hierarchy(self, tmp_path, monkeypatch, capsys):
        # the correlation hierarchy has no jump term: evolve and dense
        # stationary refuse a jump kernel before calibrating, and simulate
        # moves particles by it
        model = {"space": {"type": "lattice", "d": 1, "R": 2, "boundary": "periodic"},
                 "birth": {"form": "stencil", "entries": "nearest", "rate": 1.0},
                 "death": 1.0,
                 "jump": {"form": "stencil", "entries": "nearest", "rate": 0.4}}
        code, _ = run_cli(tmp_path, "simulate", {"model": model, "rho": 0.5,
                                                 "replicas": 100}, seed=1)
        assert code == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        for command in ("evolve", "stationary"):
            code, _ = run_cli(tmp_path, command, {"model": model, "rho": 0.5},
                              outname=command)
            err = capsys.readouterr().err
            assert code == 2
            assert "jump kernel" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [
        ("transience", {}), ("verify-lemmas", {}), ("verify-bounds", {"rho": 0.1}),
        ("stationary", {"rho": 0.1, "backend": "montecarlo"})])
    def test_jump_kernel_refused_by_the_walkers(self, tmp_path, monkeypatch, capsys,
                                                command, extra):
        # the two-walker engine moves its walkers by the birth stencil alone:
        # a jump kernel exits 2 before calibrating, not with the numbers of
        # the jump-free model
        model = dict(LATTICE_MODEL, jump={"form": "stencil",
                                          "entries": [[[1, 0, 0], 0.4]]})
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        code, _ = run_cli(tmp_path, command, {"model": model, "replicas": 100, **extra},
                          seed=1)
        err = capsys.readouterr().err
        assert code == 2
        assert "two-walker engine" in err and "jump kernel" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"model": dict(LATTICE_MODEL, space={**LATTICE_MODEL["space"],
                                                          "d": 2, "R": 3}),
                      "rho": 1.0}),
        ("transience", {"model": LATTICE_MODEL, "T": 200.0})])
    def test_oversized_replica_counts_exit_2(self, tmp_path, capsys, command, cfg):
        # 2e9 replicas once asked np.zeros for 745 GiB of simulator counts on
        # the 49-point window, and for 939 GiB of running integrals on Z^3;
        # both sizes are checked against a cap before anything is allocated
        began = time.perf_counter()
        code, _ = run_cli(tmp_path, command, {**cfg, "replicas": 2_000_000_000}, seed=1)
        assert time.perf_counter() - began < 0.5
        err = capsys.readouterr().err
        assert code == 2
        assert "_CAP" in err and "Traceback" not in err

    @pytest.mark.parametrize("cap, expect", [(900, 0), (899, 2)])
    def test_simulate_replica_cap_boundary(self, tmp_path, monkeypatch, cap, expect):
        # 100 replicas on four points with one snapshot: (4 + 1 + 4) * 100
        from contactlab import simulator
        monkeypatch.setattr(simulator, "SIMULATE_CAP", cap)
        code, _ = run_cli(tmp_path, "simulate", {"model": FINITE_MODEL, "rho": 0.5,
                                                 "replicas": 100}, seed=1)
        assert code == expect

    @pytest.mark.parametrize("cap, expect", [(4800, 0), (4799, 2)])
    def test_walker_replica_cap_boundary(self, tmp_path, monkeypatch, cap, expect):
        # 200 replicas of the three default starts at the 8 checkpoints of T = 5
        from contactlab import walkers
        monkeypatch.setattr(walkers, "REPLICA_CAP", cap)
        code, _ = run_cli(tmp_path, "transience", {"model": LATTICE_MODEL, "T": 5,
                                                   "replicas": 200}, seed=1)
        assert code == expect

    @pytest.mark.parametrize("cap, expect", [(9, 0), (8, 2)])
    def test_stationary_level_cap_boundary(self, tmp_path, monkeypatch, cap, expect):
        # level 2 on the three-point Z^1 window: 3^2 entries
        from contactlab import hierarchy
        monkeypatch.setattr(hierarchy, "STATIONARY_CAP", cap)
        window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"], "d": 1}}
        code, _ = run_cli(tmp_path, "stationary", {"model": window, "rho": 0.5})
        assert code == expect

    @pytest.mark.parametrize("command, cfg, power", [
        ("evolve", {"model": FINITE_MODEL, "N": 2}, 2),
        ("evolve", {"model": FINITE_MODEL, "N": 3}, 3),
        ("stationary", {"model": FINITE_MODEL, "n": 3}, 3),
        ("stationary", {"model": LATTICE_MODEL, "backend": "montecarlo"}, 2),
        ("verify-bounds", {"model": LATTICE_MODEL}, 2)])
    def test_rho_power_bound(self, tmp_path, monkeypatch, capsys, command, cfg, power):
        # rho = 1e300 once died on OverflowError from rho ** n (exit 1); the
        # largest rho whose power is finite reaches calibration, the next is
        # refused before it
        class Calibrating(Exception):
            pass

        def calibrating(*args, **kwargs):
            raise Calibrating

        def finite(rho):
            try:
                return math.isfinite(rho ** power)
            except OverflowError:
                return False

        monkeypatch.setattr(cli, "calibrate", calibrating)
        top = sys.float_info.max ** (1.0 / power)
        while finite(math.nextafter(top, math.inf)):
            top = math.nextafter(top, math.inf)
        while not finite(top):
            top = math.nextafter(top, 0.0)
        with pytest.raises(Calibrating):
            run_cli(tmp_path, command, {**cfg, "rho": top}, seed=1)
        code, _ = run_cli(tmp_path, command, {**cfg, "rho": math.nextafter(top, math.inf)},
                          seed=1)
        err = capsys.readouterr().err
        assert code == 2
        assert f"rho^{power} is not a finite float" in err and "Traceback" not in err

    def test_unsampled_intensity_exits_2(self, tmp_path, capsys):
        # rho = 1e300 once died on numpy's "lam value too large" (exit 1)
        code, _ = run_cli(tmp_path, "simulate", {"model": FINITE_MODEL, "rho": 1e300}, seed=1)
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot sample" in err and "Traceback" not in err

    def test_oversized_simulate_orders_exit_2(self, tmp_path, monkeypatch, capsys):
        # orders [7] on the 49-point window once ran the whole simulation and
        # died on a 2.1 GiB moment array; the moments are checked against
        # EVOLVE_CAP before calibrating, and no power of 2^63 is formed
        monkeypatch.setattr(cli, "calibrate", _no_calibration)
        window = dict(LATTICE_MODEL, space={**LATTICE_MODEL["space"], "d": 2, "R": 3})
        for orders in ([7], [1, 2 ** 63]):
            began = time.perf_counter()
            code, _ = run_cli(tmp_path, "simulate", {"model": window, "rho": 1.0,
                                                     "orders": orders}, seed=1)
            assert time.perf_counter() - began < 0.5
            err = capsys.readouterr().err
            assert code == 2
            assert "EVOLVE_CAP" in err and "Traceback" not in err

    @pytest.mark.parametrize("cap, expect", [(40, 0), (39, 2)])
    def test_simulate_orders_cap_boundary(self, tmp_path, monkeypatch, cap, expect):
        # orders 1 and 2 at two snapshot times on four points: 2 * (4 + 16)
        monkeypatch.setattr(cli, "EVOLVE_CAP", cap)
        code, _ = run_cli(tmp_path, "simulate", {"model": FINITE_MODEL, "rho": 0.5,
                                                 "snapshot_times": [0.5, 1.0],
                                                 "replicas": 100}, seed=1)
        assert code == expect

    @pytest.mark.parametrize("command, space", [
        # 5.1e8 points once died on MemoryError in build_space
        ("transience", {"d": 3, "R": 400}),
        # 64 axes once died in kernel_matrix's np.indices
        ("calibrate", {"d": 64, "R": 0}),
        # a power of 2^63 is never formed
        ("calibrate", {"d": 2 ** 63, "R": 1})])
    def test_unheld_window_exits_2(self, tmp_path, capsys, command, space):
        window = dict(LATTICE_MODEL, space={**LATTICE_MODEL["space"], **space})
        began = time.perf_counter()
        tracemalloc.start()
        try:
            code, _ = run_cli(tmp_path, command, {"model": window}, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert peak < 2 ** 20
        assert time.perf_counter() - began < 0.5


# run in a fresh process: the argv lists of the commands that must not
# import scipy, then of those that load it on demand; prints their exit codes,
# whether numpy.ma is loaded after the import and after each command, and the
# scipy modules loaded after each group
_SCIPY_GUARD = """
import json, sys
from contactlab.cli import main
groups = json.loads(sys.argv[1])
out = {"numpy.ma": "numpy.ma" in sys.modules}
for name in ("without", "with"):
    codes, masked = [], []
    for argv in groups[name]:
        codes.append(main(argv))
        masked.append("numpy.ma" in sys.modules)
    out[name] = {"codes": codes, "numpy.ma": masked,
                 "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}
print(json.dumps(out))
"""


def test_commands_load_scipy_only_when_they_need_it(tmp_path):
    # scipy is imported only by the Schur solve of a non-reversible kernel
    # that does not factor (a drifting window factors) and by expm_multiply
    # (N >= 3 here); every other command runs without it.
    # numpy.ma (which a plain np.unique loads) is loaded by no command
    # without scipy, and scipy loads it itself
    window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"], "d": 2}}
    symmetric_dense = {"space": {"type": "finite", "points": [0, 1, 2],
                                 "weights": [0.5, 1.0, 2.0]},
                       "birth": {"form": "dense", "matrix": [[0.2, 1.0, 0.4],
                                                             [1.0, 0.3, 0.6],
                                                             [0.4, 0.6, 0.5]]},
                       "death": [1.0, 1.5, 2.0]}
    drift_window = dict(LATTICE_MODEL, birth={"form": "stencil", "entries": DRIFT})
    groups = {
        "without": [("calibrate", {"model": FINITE_MODEL}, None, 0),
                    ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "replicas": 100}, 1, 0),
                    ("transience", {"model": LATTICE_MODEL, "T": 5, "replicas": 200}, 1, 0),
                    ("verify-lemmas", {"model": MARKED_MODEL, "replicas": 200}, 1, 0),
                    ("verify-lemmas", {"model": drift_window, "replicas": 200}, 1, 0),
                    ("verify-bounds", {"model": LATTICE_MODEL, "rho": 0.1, "T": 5,
                                       "replicas": 200}, 1, 3),
                    ("stationary", {"model": window, "rho": 0.5}, None, 0),
                    ("stationary", {"model": drift_window, "rho": 0.1}, None, 0),
                    ("stationary", {"model": symmetric_dense, "rho": 0.5}, None, 3),
                    ("evolve", {"model": window, "rho": 0.5, "N": 2, "T": 0.5}, None, 0),
                    ("evolve", {"model": drift_window, "rho": 0.1, "N": 2, "T": 0.5},
                     None, 0)],
        "with": [("stationary", {"model": DRIFT_MARKED_MODEL, "rho": 0.1}, None, 0),
                 ("evolve", {"model": window, "rho": 0.5, "N": 3, "T": 0.2, "dt": 0.1},
                  None, 0)],
    }
    argvs, expected = {}, {}
    for name, runs in groups.items():
        argvs[name], expected[name] = [], []
        for i, (command, cfg, seed, code) in enumerate(runs):
            argv = [command, "--config", write_config(tmp_path, f"{name}{i}.json", cfg),
                    "--out", str(tmp_path / f"{name}{i}")]
            argvs[name].append(argv + (["--seed", str(seed)] if seed is not None else []))
            expected[name].append(code)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["numpy.ma"] is False
    assert out["without"] == {"codes": expected["without"],
                              "numpy.ma": [False] * len(expected["without"]),
                              "scipy": []}
    assert out["with"]["codes"] == expected["with"]
    assert "scipy.linalg" in out["with"]["scipy"]


class TestOutputs:
    def test_manifest_lists_all_files(self, tmp_path):
        code, out = run_cli(tmp_path, "calibrate", {"model": FINITE_MODEL})
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        produced = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == produced
        for name, digest in manifest["outputs"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_manifest_metrics(self, tmp_path):
        # the metrics block counts each command's solves and times its phases;
        # a rerun changes the timings but no digest
        window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"], "d": 2}}
        cases = [("calibrate", {"model": FINITE_MODEL}, {"calibrate", "write"}),
                 ("stationary", {"model": window, "rho": 0.5, "n": 2},
                  {"calibrate", "stationary", "write"})]
        recorded = {}
        for command, cfg, phases in cases:
            _, out1 = run_cli(tmp_path, command, cfg, outname=f"{command}1")
            _, out2 = run_cli(tmp_path, command, cfg, outname=f"{command}2")
            m1, m2 = (json.loads((out / "manifest.json").read_text())
                      for out in (out1, out2))
            assert m1["outputs"] == m2["outputs"]
            assert set(m1["metrics"]["phases_s"]) == phases
            assert all(t >= 0 for t in m1["metrics"]["phases_s"].values())
            recorded[command] = m1["metrics"]
        cal = json.loads((tmp_path / "calibrate1" / "calibration.json").read_text())
        assert recorded["calibrate"]["counters"] == {"calibrate.solves": cal["iterations"]}
        assert 0 <= recorded["calibrate"]["values"]["calibrate.bracket_width"] <= 1e-12
        # the homogeneous window takes the one-mark Perron solve, and its
        # symmetric birth kernel the eigenbasis solve
        assert recorded["stationary"]["counters"] == {"calibrate.solves": 1,
                                                      "stationary.eigh": 1}

    def test_evolve_writes_levels(self, tmp_path):
        code, out = run_cli(tmp_path, "evolve",
                            {"model": FINITE_MODEL, "rho": 0.5, "N": 2,
                             "T": 0.5, "dt": 0.05})
        assert code == 0
        assert (out / "evolve_k1.csv").exists()
        assert (out / "evolve_k2.csv").exists()
        lines = (out / "evolve_k2.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,value"
        # dt spaces the output times of every level: 11 times over [0, 0.5]
        assert len(lines) == 1 + 11 * 16
        assert len((out / "evolve_k1.csv").read_text().splitlines()) == 1 + 11 * 4

    def test_evolve_counts_expm_multiply_calls(self, tmp_path, monkeypatch):
        # one expm_multiply call carries the state to each output time
        cfg = {"model": FINITE_MODEL, "rho": 0.5, "N": 2, "T": 0.5, "dt": 0.1}
        code, out = run_cli(tmp_path, "evolve", cfg, outname="a")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        times = {row.split(",")[0]
                 for row in (out / "evolve_k1.csv").read_text().splitlines()[1:]}
        assert len(times) == 6
        assert manifest["metrics"]["counters"]["evolve.expm_multiply_calls"] == 6
        # the digested outputs are the same when nothing is counted
        from contactlab import hierarchy
        monkeypatch.setattr(hierarchy.metrics, "count", lambda *a: None)
        code, quiet = run_cli(tmp_path, "evolve", cfg, outname="b")
        assert code == 0
        bare = json.loads((quiet / "manifest.json").read_text())
        assert "evolve.expm_multiply_calls" not in bare["metrics"]["counters"]
        assert bare["outputs"] == manifest["outputs"]

    def test_evolve_counts_eigh_on_a_reversible_kernel(self, tmp_path):
        # a symmetric window at N = 2 evolves in closed form: one eigh, no
        # expm_multiply, and an exactly symmetric k_2 from Poisson data
        window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"], "d": 2}}
        code, out = run_cli(tmp_path, "evolve", {"model": window, "rho": 0.5, "N": 2,
                                                 "T": 0.5, "dt": 0.1})
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["counters"] == {"calibrate.solves": 1, "evolve.eigh": 1}
        rows = [r.split(",") for r in (out / "evolve_k2.csv").read_text().splitlines()[1:]]
        cells = {(t, x, y): v for t, x, y, v in rows}
        assert len(cells) == 6 * 81
        assert all(v == cells[t, y, x] for (t, x, y), v in cells.items())

    def test_evolve_at_t0_writes_each_point_once(self, tmp_path):
        code, out = run_cli(tmp_path, "evolve",
                            {"model": FINITE_MODEL, "rho": 0.5, "N": 2, "T": 0})
        assert code == 0
        for n, size in ((1, 4), (2, 16)):
            rows = (out / f"evolve_k{n}.csv").read_text().splitlines()[1:]
            assert len(rows) == size
            assert {row.split(",")[0] for row in rows} == {"0"}
        # k_1 at t = 0 is the Poisson intensity
        k1 = (out / "evolve_k1.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[-1]) for row in k1] == [0.5] * 4

    def test_walker_counters_in_manifest(self, tmp_path):
        # one skeleton per run, whatever the starts' marks: K steps for each
        # replica, K below the uniformization's event count.  A pair of
        # rate-1 walkers jumps Poisson(2 T) times, so K is about 2 T plus ten
        # standard deviations.  On nearest-neighbour Z^3 the orbit of 0 is one
        # point and that of e_1 six.  Both cases have 3 distinct starts, and
        # 8 checkpoints per decade from t = 0.5: 15 to T = 30 and 8 to T = 5.
        cases = [({"model": LATTICE_MODEL, "T": 30, "replicas": 1500}, 1 + 6 + 6, 15),
                 ({"model": MARKED_MODEL, "T": 5, "replicas": 200,
                   "starts": [[[0, 0, 0], 0, 0], [[1, 0, 0], 0, 0],
                              [[0, 0, 0], 0, 1]]}, 1 + 6 + 1, 8)]
        lengths = []
        for i, (cfg, orbit_points, columns) in enumerate(cases):
            code, out = run_cli(tmp_path, "transience", cfg, seed=11, outname=f"t{i}")
            assert code == 0
            counters = json.loads((out / "manifest.json").read_text())["metrics"]["counters"]
            K = counters["walkers.skeleton_steps"]
            assert counters["walkers.replica_steps"] == K * cfg["replicas"]
            assert K < counters["walkers.weight_terms"]
            # a replica is credited on the support at most once per skeleton point
            hits = counters["walkers.support_hits"]
            assert 1 <= hits <= (K + 1) * cfg["replicas"]
            # a hit is gathered once per column of each start whose integrand
            # it meets and whose weight window holds its step
            assert hits <= counters["walkers.credit_pairs"] <= 3 * columns * hits
            assert counters["walkers.orbit_points"] == orbit_points
            assert not {"walkers.chains", "walkers.iterations", "walkers.jumps",
                        "walkers.replica_slots"} & set(counters)
            lengths.append(K)
        assert 60 + 5 * np.sqrt(60) <= lengths[0] <= 60 + 20 * np.sqrt(60)

    def test_transience_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "transience",
                            {"model": LATTICE_MODEL, "T": 30,
                             "replicas": 1500}, seed=11)
        assert code == 0
        rep = json.loads((out / "transience.json").read_text())
        assert rep["H_hat"] > 0
        assert list(rep["per_start"]) == ["(0, 0, 0)", "(1, 0, 0)", "(2, 0, 0)"]
        # the extrapolated estimate's own SE next to the running integral's at T
        for start in rep["per_start"].values():
            assert start["estimate_stderr"] > 0 and start["stderr"] > 0
        assert (out / "transience_curve.csv").exists()

    def test_marked_transience_keys_by_full_start(self, tmp_path):
        code, out = run_cli(tmp_path, "transience",
                            {"model": MARKED_MODEL, "T": 5, "replicas": 200,
                             "starts": [[[0, 0, 0], 0, 0], [[0, 0, 0], 0, 1]]},
                            seed=11)
        assert code == 0
        rep = json.loads((out / "transience.json").read_text())
        assert sorted(rep["per_start"]) == ["((0, 0, 0), 0, 0)", "((0, 0, 0), 0, 1)"]

    def test_stencil_on_product_transience_takes_marked_starts(self, tmp_path):
        # the mark count comes from the space, whatever the birth kernel's form
        code, out = run_cli(tmp_path, "transience",
                            {"model": STENCIL_PRODUCT_MODEL, "T": 5, "replicas": 200,
                             "starts": [[[0, 0, 0], 0, 1]]}, seed=11)
        assert code == 0
        rep = json.loads((out / "transience.json").read_text())
        assert list(rep["per_start"]) == ["((0, 0, 0), 0, 1)"]
        code, _ = run_cli(tmp_path, "transience",
                          {"model": STENCIL_PRODUCT_MODEL, "T": 5, "replicas": 200,
                           "starts": [[0, 0, 0]]}, seed=11, outname="plain")
        assert code == 2

    def test_marked_asymmetric_stencil_transience_rejected(self, tmp_path):
        # two marked walkers on a stencil that is not its own mirror image do
        # not factor through one skeleton walk: exit 2, while the same
        # stencil with one mark runs, and verify-lemmas' one walker runs too
        code, _ = run_cli(tmp_path, "transience",
                          {"model": DRIFT_MARKED_MODEL, "T": 5, "replicas": 200,
                           "starts": [[[0, 0, 0], 0, 1]]}, seed=11, outname="marked")
        assert code == 2
        plain = dict(LATTICE_MODEL, birth={"form": "stencil", "entries": DRIFT})
        code, _ = run_cli(tmp_path, "transience", {"model": plain, "T": 5, "replicas": 200},
                          seed=11, outname="plain")
        assert code == 0
        code, _ = run_cli(tmp_path, "verify-lemmas",
                          {"model": DRIFT_MARKED_MODEL, "replicas": 200},
                          seed=11, outname="lemmas")
        assert code == 0

    @pytest.mark.parametrize("command, cfg", [
        ("stationary", {"rho": 0.1, "backend": "montecarlo", "T": 5, "replicas": 200}),
        ("verify-bounds", {"rho": 0.1, "T": 5, "replicas": 200})])
    def test_marked_asymmetric_stencil_pair_commands_rejected(self, tmp_path, command, cfg):
        # the k_2 and bound commands run the same two-walker skeleton
        code, _ = run_cli(tmp_path, command, {"model": DRIFT_MARKED_MODEL, **cfg}, seed=11)
        assert code == 2

    def test_marked_pair_commands_key_by_full_start(self, tmp_path):
        # both pair commands take [disp, s_x, s_y] starts on a marked model, by
        # default 0, e_1 and 2 e_1 from marks (0, 0), a stencil on a product
        # space included; stationary_k2.csv spreads a start over u1..u3, s_x, s_y
        def k2_rows(out):
            header, *rows = (out / "stationary_k2.csv").read_text().splitlines()
            assert header == "u1,u2,u3,s_x,s_y,value,stderr"
            return [row.split(",") for row in rows]

        code, out = run_cli(tmp_path, "stationary",
                            {"model": STENCIL_PRODUCT_MODEL, "rho": 0.1,
                             "backend": "montecarlo", "T": 100, "replicas": 1000},
                            seed=11, outname="product")
        assert code == 0
        assert [row[:5] for row in k2_rows(out)] == [
            ["0", "0", "0", "0", "0"], ["1", "0", "0", "0", "0"], ["2", "0", "0", "0", "0"]]
        # k_2 is symmetric under the exchange (u, s_x, s_y) -> (-u, s_y, s_x):
        # both starts add the same two running integrals
        code, out = run_cli(tmp_path, "stationary",
                            {"model": MARKED_MODEL, "rho": 0.1, "backend": "montecarlo",
                             "displacements": [[[1, 0, 0], 0, 1], [[-1, 0, 0], 1, 0]],
                             "T": 100, "replicas": 1000}, seed=11, outname="marked")
        assert code == 0
        first, second = k2_rows(out)
        assert first[:5] == ["1", "0", "0", "0", "1"]
        assert second[:5] == ["-1", "0", "0", "1", "0"]
        assert first[5:] == second[5:]
        code, out = run_cli(tmp_path, "verify-bounds",
                            {"model": MARKED_MODEL, "rho": 0.1, "replicas": 2000,
                             "starts": [[[0, 0, 0], 0, 1], [[1, 0, 0], 1, 1]]},
                            seed=11, outname="bounds")
        assert code == 0
        assert json.loads((out / "bounds.json").read_text())["passed"]

    def test_marked_k2_matches_the_embedded_chain_series(self, tmp_path):
        # H on MARKED_MODEL from (0, A, A) and (2 e_1, B, B), from the series
        # over the embedded joint-mark chain with Bessel-product step laws
        # (agreeing with a Fourier quadrature to 1e-5).  With s_x = s_y the
        # exchanged start has the same integral, so k_2 = rho^2 + 2 rho H.
        rho = 0.1
        code, out = run_cli(tmp_path, "stationary",
                            {"model": MARKED_MODEL, "rho": rho, "backend": "montecarlo",
                             "displacements": [[[0, 0, 0], 0, 0], [[2, 0, 0], 1, 1]],
                             "T": 150, "replicas": 10000}, seed=18)
        assert code == 0
        rows = (out / "stationary_k2.csv").read_text().splitlines()[1:]
        for row, H in zip(rows, (0.2725506, 0.1346589)):
            value, se = map(float, row.split(",")[5:])
            assert abs(value - (rho ** 2 + 2 * rho * H)) <= 4 * se

    def test_simulate_moments(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate",
                            {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
                             "snapshot_times": [0.5], "replicas": 150,
                             "orders": [1, 2]}, seed=3)
        assert code == 0
        lines = (out / "moments.csv").read_text().splitlines()
        assert lines[0] == "t,order,x1,x2,value,stderr"

    def test_simulator_counters_in_manifest(self, tmp_path, monkeypatch):
        # every replica is active in each iteration up to its last, which
        # passes T, so the active replica-iterations are the events plus one
        # per replica (none is truncated)
        cfg = {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5,
               "snapshot_times": [0.25, 0.5], "replicas": 150}
        code, out = run_cli(tmp_path, "simulate", cfg, seed=3, outname="a")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        counters, values = manifest["metrics"]["counters"], manifest["metrics"]["values"]
        its, events = counters["simulator.iterations"], counters["simulator.events"]
        assert counters["simulator.truncated"] == 0
        assert events >= its - 1 >= 1
        assert values["simulator.active_fraction"] == pytest.approx(
            (events + 150) / (its * 150), rel=1e-12)
        assert "simulator" not in (out / "simulate.json").read_text()
        # the moments are their own phase, apart from the simulation
        assert {"simulate", "moments"} <= set(manifest["metrics"]["phases_s"])
        # the digested outputs are the same when nothing is recorded
        from contactlab import simulator
        monkeypatch.setattr(simulator.metrics, "count", lambda *a: None)
        monkeypatch.setattr(simulator.metrics, "record", lambda *a: None)
        monkeypatch.setattr(simulator.metrics, "phase", lambda name: nullcontext())
        code, quiet = run_cli(tmp_path, "simulate", cfg, seed=3, outname="b")
        assert code == 0
        bare = json.loads((quiet / "manifest.json").read_text())
        assert not any(k.startswith("simulator.") for k in bare["metrics"]["counters"])
        assert "moments" not in bare["metrics"]["phases_s"]
        assert bare["outputs"] == manifest["outputs"]

    def test_report_aggregates(self, tmp_path):
        run_cli(tmp_path, "calibrate", {"model": FINITE_MODEL},
                outname="cal")
        cfgp = write_config(tmp_path, "report.json",
                            {"runs": [str(tmp_path / "cal")]})
        out = tmp_path / "rep"
        assert main(["report", "--config", cfgp, "--out", str(out)]) == 0
        table = (out / "report.csv").read_text().splitlines()
        assert table[0] == "command,check,status"
        assert any("calibrate" in line for line in table[1:])

    @pytest.mark.parametrize("manifest", [
        "{not json", json.dumps({"checks": {"x": True}}),
        json.dumps({"command": "calibrate", "checks": ["x"]}), json.dumps([1])])
    def test_report_rejects_bad_manifest(self, tmp_path, manifest):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "manifest.json").write_text(manifest)
        code, _ = run_cli(tmp_path, "report", {"runs": [str(tmp_path / "run")]})
        assert code == 2

    def test_manifest_records_seed(self, tmp_path):
        _, out = run_cli(tmp_path, "calibrate", {"model": FINITE_MODEL}, outname="a")
        assert json.loads((out / "manifest.json").read_text())["seed"] is None
        _, out = run_cli(tmp_path, "calibrate", {"model": FINITE_MODEL, "seed": 4},
                         outname="b")
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4
        _, out = run_cli(tmp_path, "calibrate", {"model": FINITE_MODEL, "seed": 4},
                         seed=9, outname="c")
        assert json.loads((out / "manifest.json").read_text())["seed"] == 9

    def test_verify_lemmas_outputs(self, tmp_path):
        code, out = run_cli(tmp_path, "verify-lemmas",
                            {"model": MARKED_MODEL, "replicas": 2000}, seed=5)
        lemmas = json.loads((out / "lemmas.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        verdicts = {"convolution": "bounded", "lower_tail": "passed",
                    "poisson_domination": "passed", "heat_bound": "bounded"}
        assert manifest["checks"] == {f"lemma_{name}": lemmas[name][key]
                                      for name, key in verdicts.items()}
        # every verdict is exact on nearest-neighbour Z^3, and each holds
        assert lemmas["passed"] and all(manifest["checks"].values())
        assert code == 0
        assert lemmas["heat_bound"]["exact"] is True
        assert len((out / "convolution.csv").read_text().splitlines()) == 1 + 64
        # the lemma phases are timed; the convolution reads the point law at
        # (1^j, 0^{3-j}), j = 0..3, to n = 64, with no recursion and no draw
        recorded = manifest["metrics"]
        assert {"lemmas.convolution", "lemmas.poisson_domination",
                "lemmas.heat_bound"} <= set(recorded["phases_s"])
        counters = recorded["counters"]
        assert counters["lemmas.exact_convolution"] == counters["lemmas.exact_heat_bound"] == 1
        assert counters["walkers.point_law_terms"] > 4 * 65 * (1 + 2 * 65)
        assert "convolution.cells" not in counters
        assert "walkers.replica_steps" not in counters
        # uniformization to t = 40 / lambda0: the lower tail and the Poisson side
        # of the domination run one mark at lambda0 = 1, the mark chain runs at
        # Lambda = 3, and so does the heat bound's walker to t = 100; each
        # needs about Lambda t + 10 sqrt(Lambda t) terms
        means = (40.0, 40.0, 120.0, 300.0)
        assert (sum(m + 5 * np.sqrt(m) for m in means)
                <= counters["walkers.weight_terms"]
                <= sum(m + 20 * np.sqrt(m) for m in means))

    def test_verify_lemmas_draws_only_in_heat_bound(self, tmp_path, monkeypatch):
        # off nearest neighbours the other three verdicts are exact: the
        # generator reaches the Monte Carlo heat bound unused, and a plain
        # stencil gets the domination verdict too
        heat_bound_check = cli.heat_bound_check
        states = []

        def spy(tm, t_grid, x0, xi1, replicas, rng):
            states.append(rng.bit_generator.state)
            return heat_bound_check(tm, t_grid, x0, xi1, replicas, rng)

        monkeypatch.setattr(cli, "heat_bound_check", spy)
        plain = dict(LATTICE_MODEL, birth={"form": "stencil", "entries": DRIFT})
        code, out = run_cli(tmp_path, "verify-lemmas",
                            {"model": plain, "replicas": 2000}, seed=5)
        assert states == [np.random.default_rng(5).bit_generator.state]
        lemmas = json.loads((out / "lemmas.json").read_text())
        assert lemmas["heat_bound"]["exact"] is False
        counters = json.loads((out / "manifest.json").read_text())["metrics"]["counters"]
        assert counters["lemmas.exact_convolution"] == counters["lemmas.exact_heat_bound"] == 0
        # one mark at rate lambda0 is the Poisson law itself
        assert lemmas["poisson_domination"] == {"passed": True, "max_excess": 0.0}
        # the drifting stencil's scaled curve decays: bounded, whether flat or not
        assert lemmas["heat_bound"]["bounded"] and code == 0


def test_readme_key_tables_match_config():
    # README has one table per CONFIG entry, listing its keys besides the model
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = {name: re.findall(r"^\| `(\w+)` \|", body, re.M) for name, body in
              re.findall(r"^#### `([^`]+)`\n(.*?)(?=^#|^Exit codes)", readme, re.M | re.S)}
    assert tables == {name: [k for k in keys if k not in cli.MODEL]
                      for name, keys in cli.CONFIG.items()}


def test_tensor_rows_match_cellwise_format():
    # the joined blocks equal a cell-by-cell loop over the tensors, index
    # padding included, with repeated values, -0 beside 0, nan, +-inf and a
    # subnormal
    rng = np.random.default_rng(4)
    vals, errs = rng.random((4, 4)), rng.random((4, 4)) * 1e-300
    vals[0, :3] = errs[3, :3] = vals[3, 3]
    vals[1] = [-0.0, 0.0, np.nan, np.inf]
    vals[2, :2] = [-np.inf, 5e-324]
    errs[2, :3] = [1.0 / 3.0, 0.0, -0.0]
    got = b"".join(_tensor_rows((0.5, 2), _index_fields(2, 4, width=3),
                                _format_floats(vals), _format_floats(errs))).decode()
    loop = [(0.5, 2) + idx + ("",) + (vals[idx], errs[idx]) for idx in np.ndindex(4, 4)]
    assert got == "".join(",".join(map(_fmt, row)) + "\n" for row in loop)
    assert [line.split(",")[5] for line in got.splitlines()[4:10]] == [
        "-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"]
    # any bit pattern, nan payloads and subnormals of either sign included
    bits = rng.integers(-2 ** 63, 2 ** 63, 20000, dtype=np.int64).view(np.float64)
    assert _format_floats(bits).tolist() == [_fmt(v).encode() for v in bits.tolist()]


def test_orbit_aware_format_matches_full_path():
    # tensors constant on the orbits of the Z^2 window's symmetries, with
    # -0 beside 0 and values repeated across orbits: formatting only the
    # representatives gives the bytes of formatting every cell
    from contactlab.hierarchy import _canonical_cells

    space, model = model_from_dict({**LATTICE_MODEL, "space": {
        **LATTICE_MODEL["space"], "d": 2, "R": 2}})
    generators = calibrate(model, space)[0].symmetries
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        cells = _canonical_cells(n, space.size, generators)
        reps = np.flatnonzero(cells == np.arange(cells.size))
        # three output times, as evolve formats a trajectory
        vals = rng.choice([-0.0, 0.0, 1.0 / 3.0, 2.5, -7e-300], size=(3, cells.size))
        vals[:, reps[-1]] = rng.random(3)
        a = vals[:, cells].reshape((3,) + (space.size,) * n)
        for tensor in (a, a[1]):
            with metrics.recording() as rec:
                got = _format_floats(tensor, cells)
            assert got.tolist() == _format_floats(tensor).tolist()
            assert rec["values"]["write.values_formatted"] == len(
                set(tensor.ravel().view(np.int64).tolist()))
    # a tensor that is not constant on them takes the full path
    a[0].flat[cells.size - 1] = 4.0
    assert _format_floats(a, cells).tolist() == _format_floats(a).tolist()


def test_dense_stationary_formats_each_orbit_once(tmp_path):
    # the 343-point Z^3 window's 48 symmetries: 117,649 rows, each orbit's
    # value formatted once, recorded outside the digested outputs
    window = {**LATTICE_MODEL, "space": {**LATTICE_MODEL["space"], "R": 3}}
    code, out = run_cli(tmp_path, "stationary", {"model": window, "rho": 0.1, "n": 2})
    assert code == 0
    rows = (out / "stationary_k2.csv").read_text().splitlines()[1:]
    assert len(rows) == 343 ** 2
    values = json.loads((out / "manifest.json").read_text())["metrics"]["values"]
    assert values["write.values_formatted"] == len({r.split(",")[2] for r in rows}) < 2000
    assert values["write.values_formatted"] <= values["stationary.orbits"] < 2000


def _cellwise_write_csv(path, header, rows):
    """The row-by-row CSV writer the byte-column writer replaced."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def test_tensor_csvs_match_row_by_row_writer(tmp_path):
    # stationary n = 2, 3 and evolve on a 9-point window, and n = 3 on a
    # 21-point line, whose 9261 rows end in a partial second block, byte for byte
    window = dict(LATTICE_MODEL, space={"type": "lattice", "d": 2, "R": 1,
                                        "boundary": "unbounded"})
    line = dict(LATTICE_MODEL, space={"type": "lattice", "d": 1, "R": 10,
                                      "boundary": "unbounded"})
    assert 21 ** 3 // cli.BLOCK_ROWS == 1 and 21 ** 3 % cli.BLOCK_ROWS
    ref = tmp_path / "ref"
    ref.mkdir()
    for name, model, n in (("window", window, 2), ("window", window, 3), ("line", line, 3)):
        space, rate_model = model_from_dict(model)
        tm, _, _ = calibrate(rate_model, space)
        code, out = run_cli(tmp_path, "stationary", {"model": model, "rho": 0.1, "n": n},
                            outname=f"{name}{n}")
        assert code == 0
        k = stationary_k(n, tm, 0.1)
        _cellwise_write_csv(ref / f"{name}_k{n}.csv",
                            [f"x{i + 1}" for i in range(n)] + ["value"],
                            (idx + (k[idx],) for idx in np.ndindex(k.shape)))
        assert ((out / f"stationary_k{n}.csv").read_bytes()
                == (ref / f"{name}_k{n}.csv").read_bytes())
    space, rate_model = model_from_dict(window)
    tm, _, _ = calibrate(rate_model, space)
    code, out = run_cli(tmp_path, "evolve",
                        {"model": window, "rho": 0.1, "N": 2, "T": 0.5, "dt": 0.05})
    assert code == 0
    k0 = [poisson_initial(n, 0.1, space) for n in (1, 2)]
    for n, (times, traj) in evolve_hierarchy(tm, k0, np.linspace(0, 0.5, 11)).items():
        _cellwise_write_csv(ref / f"evolve_k{n}.csv",
                            ["t"] + [f"x{i + 1}" for i in range(n)] + ["value"],
                            ((t,) + idx + (k[idx],) for t, k in zip(times, traj)
                             for idx in np.ndindex(k.shape)))
        assert ((out / f"evolve_k{n}.csv").read_bytes()
                == (ref / f"evolve_k{n}.csv").read_bytes())


def test_moments_csv_matches_row_by_row_writer(tmp_path):
    # orders 3 and 1 at two times: the order-1 rows leave x2 and x3 empty
    times, orders = [0.25, 0.5], [3, 1]
    code, out = run_cli(tmp_path, "simulate",
                        {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5, "replicas": 150,
                         "snapshot_times": times, "orders": orders}, seed=3)
    assert code == 0
    space, rate_model = model_from_dict(FINITE_MODEL)
    tm, _, _ = calibrate(rate_model, space)
    batch = run_replicas(tm, 0.5, 0.5, times, 150, seed=3)
    rows = []
    for t in times:
        for n in orders:
            est = empirical_correlations(batch, space, t, n, tm.mbar)
            rows += [(t, n) + idx + ("",) * (3 - n) + (est.values[idx], est.stderr[idx])
                     for idx in np.ndindex(est.values.shape)]
    _cellwise_write_csv(tmp_path / "moments.csv",
                        ["t", "order", "x1", "x2", "x3", "value", "stderr"], rows)
    assert (out / "moments.csv").read_bytes() == (tmp_path / "moments.csv").read_bytes()


def test_tensor_csv_is_built_a_block_at_a_time(tmp_path):
    # writing a 117,649-row tensor holds its bytes and one block's table;
    # a table of all rows at once took about three times the file size
    k = np.random.default_rng(5).random((49,) * 3)
    index, values = _index_fields(3, 49), _format_floats(k)
    path = tmp_path / "k3.csv"
    tracemalloc.start()
    try:
        cli._write_csv(path, ["x1", "x2", "x3", "value"], _tensor_rows((), index, values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_nested_phase_counts_once(monkeypatch):
    ticks = iter(range(10))
    monkeypatch.setattr(metrics.time, "perf_counter", lambda: float(next(ticks)))
    with metrics.recording() as rec:
        with metrics.phase("write"):
            with metrics.phase("write"):
                with metrics.phase("moments"):
                    pass
    assert rec["phases_s"] == {"write": 3.0, "moments": 1.0}


@pytest.mark.parametrize("command, cfg, compute", [
    ("stationary", {"model": LATTICE_MODEL, "rho": 0.1, "n": 2}, "stationary"),
    ("evolve", {"model": FINITE_MODEL, "rho": 0.5, "N": 2, "T": 0.5}, "evolve"),
    ("simulate", {"model": FINITE_MODEL, "rho": 0.5, "T": 0.5, "replicas": 150},
     "moments")])
def test_write_phase_times_csv_assembly(tmp_path, monkeypatch, command, cfg, compute):
    # formatting a tensor counts under write, not under the phase that
    # computed the tensor
    calls, format_floats = [], cli._format_floats

    def slow(a, *cells):
        calls.append(a)
        time.sleep(0.05)
        return format_floats(a, *cells)

    monkeypatch.setattr(cli, "_format_floats", slow)
    code, out = run_cli(tmp_path, command, cfg, seed=1)
    assert code == 0
    phases = json.loads((out / "manifest.json").read_text())["metrics"]["phases_s"]
    assert phases["write"] >= 0.05 * len(calls) > phases[compute]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"model": LATTICE_MODEL, "T": 20, "replicas": 800}
        _, out1 = run_cli(tmp_path, "transience", cfg, seed=7, outname="a")
        _, out2 = run_cli(tmp_path, "transience", cfg, seed=7, outname="b")
        assert (out1 / "transience_curve.csv").read_bytes() == \
               (out2 / "transience_curve.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_different_seed_differs(self, tmp_path):
        cfg = {"model": LATTICE_MODEL, "T": 20, "replicas": 800}
        _, out1 = run_cli(tmp_path, "transience", cfg, seed=7, outname="a")
        _, out2 = run_cli(tmp_path, "transience", cfg, seed=8, outname="b")
        assert (out1 / "transience_curve.csv").read_bytes() != \
               (out2 / "transience_curve.csv").read_bytes()

    @pytest.mark.parametrize("model", [LATTICE_MODEL, MARKED_MODEL])
    def test_verify_lemmas_nearest_neighbour_seed_free(self, tmp_path, monkeypatch, model):
        # on a nearest-neighbour stencil every lemma verdict is exact: no Monte
        # Carlo heat bound runs, and the outputs do not depend on the seed
        def no_monte_carlo(*args, **kwargs):
            raise AssertionError("the Monte Carlo heat bound ran on nearest neighbours")

        monkeypatch.setattr(cli, "heat_bound_check", no_monte_carlo)
        digests = []
        for seed in (1, 2):
            code, out = run_cli(tmp_path, "verify-lemmas", {"model": model, "replicas": 200},
                                seed=seed, outname=f"seed{seed}")
            assert code == 0
            digests.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert digests[0] == digests[1]
        assert set(digests[0]) == {"convolution.csv", "lemmas.json"}
