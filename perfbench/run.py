"""xpmsim benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole passes of the workload for S seconds: it starts
another pass only while the mean pass so far would still end within S,
and always makes at least one. Every job of a pass runs in a fresh
interpreter (worker.py) and every operation is checked against the
references in refs.py. The last line of standard output is one JSON
object with correct, attempted, failed and metrics.

A job still running PASS_MARGIN_S seconds after S has passed is stopped,
and the run exits with code 3 without a result: a pass cut short cannot
be counted, and the program's operations did not fail.

--trace 0 reports, as medians over the run:
  setup_s      fresh interpreter start plus the xpmsim and CLI imports,
               over the jobs of the run;
  wall_s       per pass, the sum over its jobs from the end of set-up to
               the last output written;
  cpu_s        per pass, user plus system CPU of its jobs after set-up;
  peak_rss_mb  per pass, the highest peak resident memory of its jobs.
--trace 1 alternates untraced and traced passes, reports the per-layer
metrics of the traced ones (see tracer.py), their wall time over the
untraced ones as trace.wall_ratio, and requires the outputs of both to be
byte-identical. Run records and span traces go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import operator
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RUNS = BENCH_DIR / "runs"
PASS_MARGIN_S = 140.0  # room past --seconds for the last pass, or a long first one


class RunCut(Exception):
    """A job outlived the run's deadline."""


def _blas_threads():
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": _blas_threads(), "pool_threads": os.cpu_count()}


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def job(self, job: workloads.Job, trace: bool) -> dict:
        """Run one job in a fresh interpreter."""
        spec_path, report_path = self.work / "spec.json", self.work / "report.json"
        spec = {"root": str(ROOT), "kind": job.kind, "trace": trace,
                "argv": job.argv, "params": job.params}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        for stale in (report_path, job.output and self.work / job.output):
            if stale and stale.exists():
                stale.unlink()
        budget = self.deadline - time.monotonic()
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(spec_path), str(report_path)],
                                  cwd=self.work, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            raise RunCut(f"{job.name} was still running at the run's deadline") from None
        if proc.returncode != 0 or not report_path.exists():
            return {"error": f"{job.kind}: worker exited {proc.returncode}: "
                             + proc.stderr.decode(errors="replace")[-2000:]}
        report = json.loads(report_path.read_text(encoding="utf-8"))
        out = {"setup_s": report["t_setup"] - t_spawn,
               "wall_s": report["t_done"] - report["t_setup"],
               "cpu_s": report["cpu_s"], "rss_mb": report["maxrss_kb"] / 1024.0,
               "layers": report.get("layers"), "spans": report.get("spans"),
               "error": report["error"]}
        if out["error"]:
            return out
        if job.kind == "cli":
            if report["payload"]["rc"] != 0:
                out["error"] = f"xpmsim {' '.join(job.argv)} exited {report['payload']['rc']}"
                return out
            raw = (self.work / job.output).read_bytes()
            out["signature"], out["result"] = raw, json.loads(raw)
        else:
            out["result"] = report["payload"]
            out["signature"] = json.dumps(report["payload"], sort_keys=True).encode()
        return out

    def run_pass(self, workload: workloads.Workload, trace: bool) -> dict:
        record = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setups": [],
                  "job_wall_s": {}, "ops": {}, "signatures": {}, "layers": {}, "spans": {}}
        for job in workload.jobs:
            res = self.job(job, trace)
            if res["error"] is None:
                try:
                    problems = job.check(res["result"])
                except Exception as exc:  # a malformed output fails its operations
                    problems = {op: [f"check raised {type(exc).__name__}: {exc}"]
                                for op in job.ops}
            else:
                problems = {op: [res["error"]] for op in job.ops}
            record["ops"].update({op: list(problems.get(op, ["not checked"]))
                                  for op in job.ops})
            if "wall_s" not in res:
                continue
            record["wall_s"] += res["wall_s"]
            record["cpu_s"] += res["cpu_s"]
            record["peak_rss_mb"] = max(record["peak_rss_mb"], res["rss_mb"])
            record["setups"].append(res["setup_s"])
            record["job_wall_s"][job.name] = res["wall_s"]
            record["signatures"][job.name] = res.get("signature")
            if res["layers"] is not None:
                for name, value in res["layers"].items():
                    merge = max if name == "grids.amp_mb" else operator.add
                    record["layers"][name] = merge(record["layers"].get(name, 0), value)
                record["spans"][job.name] = res["spans"]
        return record


def tally(records: list[dict]) -> tuple[int, dict]:
    """Operations attempted over all passes, and each failed one's problem lists."""
    attempted, failures = 0, {}
    for record in records:
        for op, problems in record["ops"].items():
            attempted += 1
            if problems:
                failures.setdefault(op, []).append(problems)
    return attempted, failures


def unknown_failures(failures: dict) -> set[str]:
    """Failed operations with any problem that is not a known fault."""
    return {op for op, passes in failures.items()
            if not all(workloads.is_known_fault(p) for problems in passes for p in problems)}


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "xpmsim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no xpmsim sources under {ROOT / 'src'}\n")
        return 2

    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    RUNS.mkdir(exist_ok=True)
    trace = bool(args.trace)
    with tempfile.TemporaryDirectory(dir=RUNS, prefix="work-") as work:
        runner = Runner(Path(work), started + args.seconds + PASS_MARGIN_S)
        plain, traced = [], []
        t0 = time.monotonic()
        try:
            while True:
                plain.append(runner.run_pass(workload, trace=False))
                if trace:
                    traced.append(runner.run_pass(workload, trace=True))
                # start another round only if it should end within the run length
                elapsed = time.monotonic() - t0
                if elapsed + elapsed / len(plain) > args.seconds:
                    break
        except RunCut as cut:
            sys.stderr.write(f"perfbench: {cut}; no result\n")
            return 3

    attempted, failures = tally(plain + traced)
    failed = sum(len(v) for v in failures.values())
    differing = [name for a, b in zip(plain, traced)
                 for name, sig in a["signatures"].items() if b["signatures"].get(name) != sig]
    for name in sorted(set(differing)):
        sys.stderr.write(f"perfbench: traced output of {name} differs from untraced\n")
    unknown = unknown_failures(failures)
    for op, problems in sorted(failures.items()):
        sys.stderr.write(f"perfbench: {'FAILED' if op in unknown else 'known fault'} {op} "
                         f"on {len(problems)} pass(es): {problems[0][0]}\n")
    correct = not differing and not unknown

    if trace:
        metrics = {name: {"value": _median(r["layers"].get(name, 0) for r in traced),
                          "unit": _unit(name)} for name in tracer.metric_names()}
        metrics["trace.wall_ratio"] = {
            "value": _median(r["wall_s"] for r in traced) / _median(r["wall_s"] for r in plain),
            "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": _median(s for r in plain for s in r["setups"]), "unit": "s"},
            "wall_s": {"value": _median(r["wall_s"] for r in plain), "unit": "s"},
            "cpu_s": {"value": _median(r["cpu_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": _median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "passes": len(plain),
              "pass_wall_s": [r["wall_s"] for r in plain],
              "traced_wall_s": [r["wall_s"] for r in traced],
              "job_wall_s": [r["job_wall_s"] for r in plain],
              "failures": {op: p[0][:5] for op, p in failures.items()}, "metrics": metrics}
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        (RUNS / f"spans-{tag}.json").write_text(json.dumps(traced[-1]["spans"]),
                                                encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "render.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
