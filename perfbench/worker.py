"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py <spec.json>

The spec names the contactlab source directory, the steps (CLI argument
lists, each marked timed or not), whether to trace, and where to write the
result.  The worker times ``import contactlab.cli`` plus loading every
config (set-up), then each timed step through ``contactlab.cli.main``, with
the reference computation timed before each of them and after the last
(at least three times per process).
Then it reads its own peak resident memory, and only after that runs the
untimed steps.  It imports nothing heavy before the set-up clock starts.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


MIN_REFERENCES = 3


def reference() -> float:
    """Time a fixed computation unrelated to contactlab (about 0.1 s).

    Python arithmetic, a loop of small numpy operations and a few passes over
    20k-element arrays, like the three kinds of work in contactlab.  The
    host's speed drifts by tens of percent within minutes; passes time this
    between their steps so that run.py can take that drift out.
    """
    import numpy as np

    start = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i
    rng = np.random.default_rng(0)
    M, c = rng.random((4, 4)), np.ones(4)
    for _ in range(6000):
        w = M @ c
        c = c + (np.cumsum(w) > float(w.sum()) / 2)
    x = np.zeros(20000)
    for _ in range(60):
        u = rng.random(20000)
        x = np.where(u < 0.5, x + u, x - u)
    return time.perf_counter() - start


def run_step(cli, step: dict) -> dict:
    start = time.perf_counter()
    error = None
    try:
        code = cli.main(step["argv"])
    except Exception as exc:  # a crashing command is a failed check, not a crashed pass
        code, error = None, f"{type(exc).__name__}: {exc}"
    return {"name": step["name"], "wall_s": time.perf_counter() - start,
            "exit": code, "error": error}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import contactlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"contactlab imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    for step in spec["steps"]:
        with open(step["config"]) as fh:
            json.load(fh)
    setup_s = time.perf_counter() - T0

    tracer = restore = None
    if spec.get("trace"):
        sys.path.insert(0, spec["bench_root"])
        from perfbench import trace
        tracer = trace.Tracer()
        restore = trace.install(tracer)

    timed, refs = [], []
    for step in spec["steps"]:
        if step["timed"]:
            refs.append(reference())
            timed.append(run_step(cli, step))
    refs.append(reference())
    while len(refs) < MIN_REFERENCES:
        refs.append(reference())
    out = {"setup_s": setup_s, "steps": timed, "ref_s": refs,
           "wall_s": sum(r["wall_s"] for r in timed),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        restore()
        out["layers"] = trace.layer_metrics(tracer.spans, out["wall_s"])
    out["steps"] += [run_step(cli, s) for s in spec["steps"] if not s["timed"]]
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
