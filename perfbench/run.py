"""Wall-clock benchmark of the physics pipeline and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pe20-dense --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for why each workload exists.  Every repetition
runs in a fresh process (``rep.py``) with BLAS/OpenMP pinned to one
thread.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` an untraced and a traced repetition run and the per-layer
metrics are printed, with the tracing overhead and the span-sum check.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files (journals, telemetry sidecars) go to a temporary
directory under ``.perfbench_work/`` in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median  # noqa: E402

ROOT = Path.cwd()
SERVICE = "service-campaign"
#: Set-up-only processes per run.  Each repetition also times its own
#: set-up, and ``setup_s`` is the median of all of them.  One more
#: physics set-up would add ~6 s to every physics run.
SETUP_REPS = 1
#: Every run must end within this many seconds (the contract allows 180).
DEADLINE_S = 170.0
#: A span-sum check fails when more of the wall than this is unnamed.
UNSPANNED_LIMIT = 0.01
#: BLAS/OpenMP threads per repetition, pinned through these variables.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A repetition failed to run; no result is printed."""


class Runner:
    """Starts repetitions as child processes within the run's deadline."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update({v: str(THREADS) for v in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["TMPDIR"] = str(work)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def child(self, role: str, trace: int = 0, journal: Path = None
              ) -> Tuple[Dict[str, Any], float]:
        """Run one ``rep.py`` role; returns its JSON and its process wall."""
        cmd = [sys.executable, str(HERE / "rep.py"), role,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(trace)]
        if journal is not None:
            cmd += ["--journal", str(journal)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} repetition passed the deadline") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{role} repetition exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def repeat(self, role_fn, seconds: float) -> List[Any]:
        """Call ``role_fn`` until ``seconds`` have passed (at least once),
        stopping early if another call would not fit the deadline."""
        out, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out.append(role_fn())
            took = time.perf_counter() - t0
            if time.perf_counter() - start >= seconds or self.remaining() < 1.5 * took:
                return out


def physics_workload(r: Runner, trace: bool) -> Dict[str, Any]:
    if trace:
        base, _ = r.child("run")
        traced, _ = r.child("run", trace=1)
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["time_to_alpha_s"] - base["time_to_alpha_s"]
        return {"runs": [base, traced], "layers": layers}
    setups = [r.child("setup")[0]["setup_s"] for _ in range(SETUP_REPS)]
    reps = r.repeat(lambda: r.child("run"), r.args.seconds)
    runs = [out for out, _ in reps]
    return {"runs": runs, "metrics": {
        "time_to_alpha_s": median([o["time_to_alpha_s"] for o in runs]),
        "setup_s": median(setups + [o["setup_s"] for o in runs]),
        "campaign_s": median([wall for _, wall in reps]),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in runs),
    }}


def service_workload(r: Runner, trace: bool) -> Dict[str, Any]:
    history = r.work / "history.jsonl"
    prep, _ = r.child("prep", journal=history)
    size = history.stat().st_size

    def campaign(trace_flag: int = 0) -> Dict[str, Any]:
        # A campaign only appends to the journal, so cutting it back to
        # its prepared size restores the history for the next one
        # without rewriting 22 MB.
        try:
            return r.child("run", trace=trace_flag, journal=history)[0]
        finally:
            os.truncate(history, size)

    if trace:
        base = campaign()
        traced = campaign(1)
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["time_to_alpha_s"] - base["time_to_alpha_s"]
        layers["service.submit_p50_ms"] = base["submit_p50_ms"]
        layers["service.submit_p99_ms"] = base["submit_p99_ms"]
        layers["service.drain_tasks_per_s"] = base["drain_tasks_per_s"]
        return {"runs": [base, traced], "layers": layers, "prep": prep}
    setups = [r.child("setup", journal=history)[0]["setup_s"]
              for _ in range(SETUP_REPS)]
    runs = r.repeat(campaign, r.args.seconds)
    return {"runs": runs, "prep": prep, "metrics": {
        "time_to_alpha_s": median([o["time_to_alpha_s"] for o in runs]),
        "setup_s": median(setups + [o["setup_s"] for o in runs]),
        "campaign_s": median([o["campaign_s"] for o in runs]),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in runs),
    }}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("perfbench: run from the root of a checkout holding src/repro "
              "and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        runner = Runner(args, work)
        fn = service_workload if args.workload == SERVICE else physics_workload
        res = fn(runner, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    runs = res["runs"]
    problems = [p for o in runs for p in o["problems"]]
    problems += res.get("prep", {}).get("problems", [])
    failed = sum(o["failed"] for o in runs) + bool(res.get("prep", {}).get("problems"))
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        layers = res["layers"]
        unspanned = layers["trace.unspanned_frac"]
        ok = unspanned <= UNSPANNED_LIMIT
        print(f"span-sum check: named layers + loop self time cover "
              f"{100 * (1 - unspanned):.3f}% of the traced wall "
              f"({'ok' if ok else 'FAILED'}, limit {100 * UNSPANNED_LIMIT:g}%)")
        if not ok:
            problems.append("span-sum check failed")
            failed += 1
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            problems.append(f"{name} was not measured")
            m["value"] = 0.0
    info = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
            "blas_threads": THREADS, "repetitions": len(runs),
            "prep_s": res.get("prep", {}).get("prep_s")}
    for o in runs:
        for k in ("expected", "submit_samples", "alerts"):
            if k in o:
                info[k] = o[k]
        if "phase_s" in o:
            info.setdefault("phase_s", []).append(
                {k: round(v, 3) for k, v in o["phase_s"].items()})
        info.setdefault("time_to_alpha_s", []).append(round(o["time_to_alpha_s"], 3))
        if o.get("steal_s") is not None:
            info.setdefault("steal_s", []).append(round(o["steal_s"], 3))
    print("info: " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for prob in problems[:20]:
        print(f"problem: {prob}")
    print(json.dumps({"correct": not problems, "attempted": sum(o["attempted"] for o in runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
