"""contactlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload walkers-z3 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the one holding ``src/contactlab``).
A workload is a batch of CLI commands run back to back through
``contactlab.cli.main`` in one fresh process (a pass).  The run makes
passes until the next one would end after ``--seconds`` (at least two),
checks every pass's exit codes and byte-identical outputs, and checks the
first pass's outputs against exact oracles, outside the timed region.

``--trace 0`` reports the end-to-end metrics (medians over passes).  Each
pass also times a fixed reference computation between its steps; times
named ``*_norm_s``, and ``setup_s``, are rescaled by it to a nominal host
speed, because this host's speed drifts by tens of percent within minutes.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and counts.  The last line of standard output is the result
object; the line before it holds the full report: median, quartiles and
sample count of every metric, per-step times, every check and the machine
record.  Exits 2 without a result when there is no contactlab source, and
1 when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import machine, metrics, workloads  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
WORK_DIR = ROOT / "perfbench" / "_work"
MIN_PASSES = 2
MIN_SETUPS = 5          # set-up samples per end-to-end run (passes + set-up-only processes)
MAX_MEASURE_S = 120.0   # never start a pass that would end later than this
WORKER_TIMEOUT_S = 150

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "time_to_target_se_norm_s": "s"}
# Time of worker.reference() on the 2-vCPU host the bounds were set on; times
# ending in _norm_s, and setup_s, are rescaled to that host speed
# (metrics.normalized).
REF_NOMINAL_S = 0.1
PER_LAYER_UNITS = {"_per_s": "1/s", "_s": "s", "_frac": "ratio", "_bytes": "B"}


class BenchError(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Workload:
    """Configs and passes of one workload in a private work directory."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.steps = workloads.steps(name, seed)
        (workdir / "configs").mkdir()
        self.configs = {}
        for step in self.steps:
            path = workdir / "configs" / f"{step.name}.json"
            path.write_text(json.dumps(step.config))
            self.configs[step.name] = path

    def _argv(self, step, pass_dir: Path) -> list[str]:
        argv = [step.command, "--config", str(self.configs[step.name]),
                "--out", str(pass_dir / step.name)]
        return argv + ["--seed", str(self.seed)] if step.stochastic else argv

    def run_pass(self, tag: str, steps, trace: bool = False) -> dict:
        pass_dir = self.workdir / tag
        pass_dir.mkdir()
        spec = {"src": str(ROOT / "src"), "bench_root": str(ROOT), "trace": trace,
                "result": str(pass_dir / "result.json"),
                "steps": [{"name": s.name, "timed": s.timed,
                           "config": str(self.configs[s.name]),
                           "argv": self._argv(s, pass_dir)} for s in steps]}
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(spec_path)],
                                  cwd=pass_dir, env=machine.worker_env(ROOT / "src"),
                                  capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {tag} took over {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((pass_dir / "result.json").read_text())
        result["dir"], result["traced"] = pass_dir, trace
        return result


def _manifest_digests(outdir: Path):
    try:
        return json.loads((outdir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return None


def run_checks(wl: Workload, passes: list[dict]) -> list[tuple[str, bool, str]]:
    """Exit codes of every step of every pass, byte-identical outputs across
    passes, and the exact oracles on the first pass."""
    out = []
    for p in passes:
        for r in p["steps"]:
            step = next(s for s in wl.steps if s.name == r["name"])
            detail = r["error"] or f"exit {r['exit']}"
            out.append((f"{p['dir'].name} {step.name} exit {step.expect_exit}",
                        r["exit"] == step.expect_exit, detail))
    first = passes[0]["dir"]
    for p in passes[1:]:
        same = True
        for s in wl.steps:
            if s.timed:
                digests = _manifest_digests(first / s.name)
                same &= digests is not None and digests == _manifest_digests(p["dir"] / s.name)
        out.append((f"{p['dir'].name} outputs byte-identical to {first.name}", same, ""))
    try:
        out += workloads.checks(wl.name, wl.seed,
                                {s.name: first / s.name for s in wl.steps})
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.append(("oracle outputs readable", False, f"{type(exc).__name__}: {exc}"))
    return out


def _norm(p: dict, seconds: float) -> float:
    return metrics.normalized(seconds, p["ref_s"], REF_NOMINAL_S)


def monte_carlo_se(wl: Workload, first: dict) -> dict:
    """SE of each Monte Carlo step that exited as expected in the first pass
    (later passes write the same bytes; a check says so)."""
    out = {}
    for r in first["steps"]:
        step = next(s for s in wl.steps if s.name == r["name"])
        if step.target_se is not None and r["exit"] == step.expect_exit:
            out[step.name] = workloads.step_se(step, first["dir"] / step.name)
    return out


def _time_to_target(wl: Workload, p: dict, se: dict) -> float:
    return metrics.time_to_target(
        (r["wall_s"], se[r["name"]], next(s.target_se for s in wl.steps if s.name == r["name"]))
        for r in p["steps"] if r["name"] in se)


def _output_bytes(pass_dir: Path) -> int:
    """Bytes the commands of a pass wrote (its step directories)."""
    return sum(f.stat().st_size for d in pass_dir.iterdir() if d.is_dir()
               for f in d.rglob("*") if f.is_file())


def measure(wl: Workload, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next would end after ``seconds`` (at least MIN_PASSES)."""
    wl.run_pass("warmup", [])          # byte-compiles and warms the file cache
    timed = [s for s in wl.steps if s.timed]
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        steps = wl.steps if not passes else timed
        passes.append(wl.run_pass(f"pass{len(passes)}", steps,
                                  trace=trace and len(passes) % 2 == 1))
        now = time.perf_counter()
        ends_at = now - start + (now - began)
        if ends_at > MAX_MEASURE_S or (len(passes) >= MIN_PASSES and ends_at > seconds):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contactlab" / "cli.py").is_file():
        print(f"no contactlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        wl = Workload(args.workload, args.seed, workdir)
        passes = measure(wl, args.seconds, bool(args.trace))
        checks = run_checks(wl, passes)
        failed = sum(not ok for _, ok, _ in checks)
        for name, ok, detail in checks:
            if not ok:
                print(f"check failed: {name} {detail}", file=sys.stderr)
        plain = [p for p in passes if not p["traced"]]
        se = monte_carlo_se(wl, passes[0])
        samples, raw = {}, {}
        if args.trace:
            traced = [p for p in passes if p["traced"]]
            if not traced:
                raise BenchError(f"the first pass took over {MAX_MEASURE_S} s")
            for name in traced[0]["layers"]:
                samples[name] = [p["layers"][name] for p in traced]
            samples["cli.output_bytes"] = [_output_bytes(p["dir"]) for p in traced]
            samples["trace.overhead_frac"] = [
                metrics.summary(_norm(p, p["wall_s"]) for p in traced)["median"]
                / metrics.summary(_norm(p, p["wall_s"]) for p in plain)["median"] - 1.0]
            samples["check_fail_frac"] = [metrics.check_fail_frac(failed, len(checks))]
            units = {name: per_layer_unit(name) for name in samples}
        else:
            setups = list(passes)
            while len(setups) < MIN_SETUPS:
                setups.append(wl.run_pass(f"setup{len(setups)}", []))
            ttt = [_time_to_target(wl, p, se) for p in plain]
            samples = {"wall_norm_s": [_norm(p, p["wall_s"]) for p in plain],
                       "setup_s": [_norm(p, p["setup_s"]) for p in setups],
                       "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
                       "time_to_target_se_norm_s": [_norm(p, t) for p, t in zip(plain, ttt)]}
            units = END_TO_END
            raw = {"wall_s": [p["wall_s"] for p in plain], "time_to_target_se_s": ttt,
                   "setup_s": [p["setup_s"] for p in setups]}
        summaries = {name: metrics.summary(vals) for name, vals in samples.items()}
        raw["ref_s"] = [r for p in passes for r in p["ref_s"]]
        step_walls = {}
        for s in wl.steps:
            if s.timed:
                step_walls[s.name] = metrics.summary(
                    r["wall_s"] for p in plain for r in p["steps"] if r["name"] == s.name)
            if s.name in se:
                step_walls[s.name]["se"] = se[s.name]
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "passes": len(passes), "metrics": summaries, "steps": step_walls,
                  "raw": {name: metrics.summary(vals) for name, vals in raw.items()},
                  "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
                  "machine": machine.record(ROOT)}
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": {name: {"value": s["median"], "unit": units[name]}
                        for name, s in summaries.items()}}))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
