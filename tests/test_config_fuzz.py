"""Config fuzzer: extreme values of every numeric key, ``orders`` and the
lattice's ``d`` and ``R``, one key at a time, through ``cli.main``.

Every run must end with exit 0, 2 or 3 and raise nothing: a value the lab
cannot hold is a config error, never a traceback, an exhausted memory or a
run without end.  All configs run in one child process, which limits its
own address space and wall time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from contactlab import cli
from contactlab.cli import CONFIG, NUMERIC_KEYS, WALKER_HORIZON

# the seed of the fuzzer's one draw (the order of the runs) and of every run
SEED = 34
# the extremes each numeric key takes, besides its lower bound
EXTREMES = [0, 1e-300, 1e300, 2 ** 63]
# the child's address-space limit and wall time
ADDRESS_SPACE = 2 << 30
WALL_SECONDS = 30

# a small transient window: nearest-neighbour Z^3, 27 points
SPACE = {"type": "lattice", "d": 3, "R": 1, "boundary": "unbounded"}
# small values of the keys each command runs long with
BASE = {"T": 2.0, "replicas": 100, "rho": 0.1, "N": 2, "n": 2, "dt": 0.5,
        "seed": SEED}

# the child: each run's exit code, or the exception it raised, and the end
# of its standard error
CHILD = """
import io, json, resource, signal, sys
from contextlib import redirect_stderr
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
signal.alarm({wall})
from contactlab.cli import main
results = []
for argv in json.load(open(sys.argv[1])):
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            code = main(argv)
    except BaseException as exc:
        code = f"{{type(exc).__name__}}: {{exc}}"[:300]
    results.append([code, err.getvalue()[-300:]])
print(json.dumps(results))
"""


def _configs(tmp_path: Path) -> list:
    """The argv of every fuzzed run, in the order the seeded draw gives."""
    runs = []
    for entry, table in CONFIG.items():
        command, _, backend = entry.partition(" ")
        if command == "report":
            base = {"runs": [], "seed": SEED}
        else:
            base = {"model": {"space": dict(SPACE),
                              "birth": {"form": "stencil", "entries": "nearest",
                                        "rate": 1.0},
                              "death": 1.0}}
            base.update({k: v for k, v in BASE.items() if k in table})
            if entry in WALKER_HORIZON:
                base["T"] = 200.0     # long enough to converge on Z^3
            if backend:
                base["backend"] = backend
        variants = [(key, val) for key in NUMERIC_KEYS if key in table
                    for val in EXTREMES + [NUMERIC_KEYS[key][1]]]
        if "orders" in table:
            variants += [("orders", [val]) for val in EXTREMES + [1]]
        if "model" in table:
            variants += [(key, val) for key, low in (("d", 1), ("R", 0))
                         for val in EXTREMES + [low]]
        for key, val in variants:
            cfg = json.loads(json.dumps(base))
            if key in ("d", "R"):
                cfg["model"]["space"][key] = val
            else:
                cfg[key] = val
            path = tmp_path / f"config{len(runs)}.json"
            path.write_text(json.dumps(cfg))
            runs.append([command, "--config", str(path),
                         "--out", str(tmp_path / f"out{len(runs)}")])
    rng = np.random.default_rng(SEED)
    return [runs[i] for i in rng.permutation(len(runs))]


def test_extreme_configs_exit_0_2_or_3(tmp_path):
    runs = _configs(tmp_path)
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(limit=ADDRESS_SPACE, wall=WALL_SECONDS),
         str(tmp_path / "runs.json")],
        env=env, capture_output=True, text=True, timeout=2 * WALL_SECONDS)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    bad = [(argv[0], Path(argv[2]).read_text(), res)
           for argv, res in zip(runs, results)
           if res[0] not in (0, 2, 3) or "Traceback" in res[1]]
    assert not bad, "\n".join(map(str, bad))
