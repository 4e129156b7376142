"""The CLI tasks and the library's BLAS-heavy paths use one thread.

NumPy's bundled OpenBLAS starts helper threads when it loads. It hands a
product to them by its own size rule, and on a small machine a handoff can
stall for milliseconds while the helpers spin. The spectrum products of the
CLI tasks and of C1, the entropy sweep's sampled sinc blocks, the head-on
tables, amplitudes and entropy blocks and the grid route's kernel rows
are sized to stay on the calling thread (see the note on real
products in numerics, next to real_products). Each task runs
in a fresh interpreter, which counts the context switches of every thread
but the main one, from /proc/self/task/*/status, before and after the
task: a helper that was never scheduled has the same count afterwards. The
test sets no BLAS or thread environment variable, so it runs the library
as a user's invocation does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import xpmsim

COUNTER = textwrap.dedent("""
    import glob, json, os, sys, time

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
    code = run()
    after = switches()
    print(json.dumps({"code": code, "threads": len(os.listdir("/proc/self/task")),
                      "before": before, "after": after}))
""")

PROBE = textwrap.dedent("""
    import sys
    from xpmsim.cli.main import main

    def run():
        return main(sys.argv[1:])
""") + COUNTER

# C1 at one k0 on both coefficient axes: each chunk's spectra are one
# numerics.real_products call; at k0 = 30 and 100 a chunk's product is
# 1.0-6.3M multiply-adds, which OpenBLAS threads in one product
C1_PROBE = textwrap.dedent("""
    import sys
    from xpmsim import compute_C1, make_profile

    prof = make_profile("gaussian")

    def run():
        compute_C1(prof, prof, float(sys.argv[1]))
        return 0
""") + COUNTER


# the entropy sweep at one k0: its sinc row blocks go through block @ vecs and
# dens @ block**2 @ dens, in blocks of numerics.gemm_rows rows; at k0 = 100 the
# two coefficient axes hold 1536 and 3064 nodes, 10 and 37 blocks
SWEEP_PROBE = textwrap.dedent("""
    import sys
    import numpy as np
    from xpmsim import entropy_phase_sweep, make_profile

    prof = make_profile("gaussian")

    def run():
        entropy_phase_sweep(prof, prof, float(sys.argv[1]), np.linspace(0.0, np.pi, 5))
        return 0
""") + COUNTER


# the head-on oracle of criterion 09 and the benchmark: the tables over the
# fig4 ladder, then both amplitudes at every time, each one real product
# sized to stay on the calling thread (numerics.real_products)
ORACLE_PROBE = textwrap.dedent("""
    import math
    from xpmsim import (InteractionTables, two_particle_headon_closed,
                        two_particle_headon_series)
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import collision_setup

    setup = collision_setup(RunConfig(task="fig4"), math.pi)

    def run():
        tables = InteractionTables(setup)
        tables.ensure(setup, setup.times)
        for t in setup.times:
            two_particle_headon_closed(setup, t, tables=tables)
            two_particle_headon_series(setup, t, tables=tables)
        return 0
""") + COUNTER


# the collision entropy of the benchmark's collision workload: the rank-18
# factor of the reduced kernel and its Gram are einsums on the calling thread
# (headon._line_entropy)
ENTROPY_PROBE = textwrap.dedent("""
    import math
    from xpmsim import InteractionTables, collision_entropy
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import collision_setup

    setup = collision_setup(RunConfig(task="fig4"), math.pi)

    def run():
        tables = InteractionTables(setup)
        for t in (1e-3, 2e-3):
            collision_entropy(setup, t, tables=tables)
        return 0
""") + COUNTER


# the grid route of criterion 05 and the benchmark: criterion 05's lattice, one
# interaction_grids pair per k0; its kernel rows are sampled in row blocks of
# numerics.gemm_rows rows (copropagating._kernel_sums)
GRID_ROUTE_PROBE = textwrap.dedent("""
    from xpmsim import (SystemParams, grid_metrics_copropagating, interaction_grids,
                        make_profile)
    from xpmsim.cli.validate import _LATTICE_K0, _LATTICE_PHI

    prof = make_profile("gaussian")

    def run():
        for k0 in _LATTICE_K0:
            grids = interaction_grids(prof, prof, k0)
            for phi in _LATTICE_PHI:
                grid_metrics_copropagating(prof, prof, SystemParams.copropagating(k0, phi),
                                           grids=grids)
        return 0
""") + COUNTER


def run_probe(probe, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpmsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, *args],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["code"] == 0
    if report["threads"] == 1:
        pytest.skip("the process runs a single thread")
    return report


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
@pytest.mark.parametrize("profile", ["gaussian", "square"])
@pytest.mark.parametrize("task", ["coeffs", "fig1", "fig2", "fig3", "fig4"])
def test_task_leaves_helper_threads_unscheduled(task, profile, tmp_path):
    report = run_probe(PROBE, task, "--profile", profile,
                       "--out", str(tmp_path / f"{task}.csv"))
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
@pytest.mark.parametrize("k0", [30, 100])
def test_c1_leaves_helper_threads_unscheduled(k0):
    report = run_probe(C1_PROBE, str(k0))
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_entropy_sweep_leaves_helper_threads_unscheduled():
    report = run_probe(SWEEP_PROBE, "100")
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_headon_oracle_leaves_helper_threads_unscheduled():
    report = run_probe(ORACLE_PROBE)
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_collision_entropy_leaves_helper_threads_unscheduled():
    report = run_probe(ENTROPY_PROBE)
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_grid_route_leaves_helper_threads_unscheduled():
    report = run_probe(GRID_ROUTE_PROBE)
    assert report["after"] == report["before"]
