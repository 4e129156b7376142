"""The CLI tasks run on the calling thread alone.

NumPy's bundled OpenBLAS starts helper threads when it loads. It hands a
product to them by its own size rule, and on a small machine a handoff can
stall for milliseconds while the helpers spin. The spectrum products of the
CLI tasks are sized to stay on the calling thread (see the copropagating
module docstring). Each task runs in a fresh interpreter, which counts the
context switches of every thread but the main one, from
/proc/self/task/*/status, before and after the task: a helper that was
never scheduled has the same count afterwards. The test sets no BLAS or
thread environment variable, so it runs the library as a user's
invocation does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import xpmsim

PROBE = textwrap.dedent("""
    import glob, json, os, sys, time
    from xpmsim.cli.main import main

    def switches():
        counts = {}
        for path in glob.glob("/proc/self/task/*/status"):
            tid = int(path.split("/")[-2])
            if tid == os.getpid():
                continue
            with open(path, encoding="ascii") as fh:
                fields = dict(line.split(":", 1) for line in fh if ":" in line)
            counts[tid] = (int(fields["voluntary_ctxt_switches"])
                           + int(fields["nonvoluntary_ctxt_switches"]))
        return counts

    time.sleep(0.5)
    before = switches()
    code = main(sys.argv[1:])
    after = switches()
    print(json.dumps({"code": code, "threads": len(os.listdir("/proc/self/task")),
                      "before": before, "after": after}))
""")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
@pytest.mark.parametrize("profile", ["gaussian", "square"])
@pytest.mark.parametrize("task", ["coeffs", "fig1", "fig2", "fig3", "fig4"])
def test_task_leaves_helper_threads_unscheduled(task, profile, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpmsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, task, "--profile", profile,
         "--out", str(tmp_path / f"{task}.csv")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["code"] == 0
    if report["threads"] == 1:
        pytest.skip("the process runs a single thread")
    assert report["after"] == report["before"]
