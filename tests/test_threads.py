"""The CLI tasks and the library's BLAS-heavy paths use one thread.

NumPy's bundled OpenBLAS starts helper threads when it loads. It hands a
product to them by its own size rule, and on a small machine a handoff can
stall for milliseconds while the helpers spin. When xpmsim is the first to
import numpy and no BLAS thread variable is set, numpy loads with one
OpenBLAS thread and there is no helper (xpmsim/__init__.py);
test_import_loads_numpy_single_threaded checks that rule. A library user who
imported numpy first keeps numpy's pool, so the spectrum products of the
CLI tasks and of C1, the entropy sweep's sampled sinc blocks, the head-on
tables, amplitudes and entropy blocks and the grid route's kernel rows
are also sized to stay on the calling thread (see the note on real
products in numerics, next to real_products). Each probe checks that
harder case: with no BLAS thread variable set, it imports numpy before
xpmsim, so OpenBLAS starts its default pool, and runs its task in a fresh
interpreter, which counts the context switches of every thread but the
main one, from /proc/self/task/*/status, before and after the task: a
helper that was never scheduled has the same count afterwards. The state
API's reduced kernel, its eigenvalues and series_term over a full grid are
single products that OpenBLAS threads under numpy's pool, so validate's
probe leaves out criteria 07, 08 and 12, which call them.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

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


# validate's criteria but 07, 08 and 12 (see the module docstring): the
# transition and C1, C2, the grid route, the head-on closed form against the
# series at every 40th node, and the collision limits
VALIDATE_PROBE = textwrap.dedent("""
    from xpmsim.cli.validate import _CRITERIA, _Context

    ctx = _Context()

    def run():
        for number, _, fn, _ in _CRITERIA:
            if number not in (7, 8, 12):
                fn(ctx)
        return 0
""") + COUNTER


def run_fresh(fresh_python, code, *args, **env_vars):
    """The JSON of the last line that code prints in a fresh interpreter."""
    out = fresh_python("-c", code, *args, **env_vars)
    return json.loads(out.stdout.splitlines()[-1])


def run_probe(fresh_python, probe, *args):
    # numpy first, so that OpenBLAS keeps its default pool (a library user's case)
    report = run_fresh(fresh_python, "import numpy\n" + probe, *args)
    assert report["code"] == 0
    if report["threads"] == 1:
        pytest.skip("the process runs a single thread")
    return report


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
@pytest.mark.parametrize("profile", ["gaussian", "square"])
@pytest.mark.parametrize("task", ["coeffs", "fig1", "fig2", "fig3", "fig4"])
def test_task_leaves_helper_threads_unscheduled(task, profile, tmp_path, fresh_python):
    report = run_probe(fresh_python, PROBE, task, "--profile", profile,
                       "--out", str(tmp_path / f"{task}.csv"))
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
@pytest.mark.parametrize("k0", [30, 100])
def test_c1_leaves_helper_threads_unscheduled(k0, fresh_python):
    report = run_probe(fresh_python, C1_PROBE, str(k0))
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_entropy_sweep_leaves_helper_threads_unscheduled(fresh_python):
    report = run_probe(fresh_python, SWEEP_PROBE, "100")
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_headon_oracle_leaves_helper_threads_unscheduled(fresh_python):
    report = run_probe(fresh_python, ORACLE_PROBE)
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_collision_entropy_leaves_helper_threads_unscheduled(fresh_python):
    report = run_probe(fresh_python, ENTROPY_PROBE)
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_grid_route_leaves_helper_threads_unscheduled(fresh_python):
    report = run_probe(fresh_python, GRID_ROUTE_PROBE)
    assert report["after"] == report["before"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_validate_leaves_helper_threads_unscheduled(fresh_python):
    report = run_probe(fresh_python, VALIDATE_PROBE)
    assert report["after"] == report["before"]


# argv: which module to import first (numpy or xpmsim), then the variables to report
IMPORT_PROBE = textwrap.dedent("""
    import json, os, sys
    if sys.argv[1] == "numpy":
        import numpy
    import xpmsim
    print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                      "env": {var: os.environ.get(var) for var in sys.argv[2:]}}))
""")

# python -m xpmsim.cli.main, counting the threads alive when it exits
CLI_PROBE = textwrap.dedent("""
    import atexit, json, os, runpy, sys
    atexit.register(lambda: print(json.dumps({"threads": len(os.listdir("/proc/self/task"))})))
    runpy.run_module("xpmsim.cli.main", run_name="__main__", alter_sys=True)
""")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread /proc/self/task/*/status")
def test_import_loads_numpy_single_threaded(tmp_path, fresh_python, thread_vars):
    bare = run_fresh(fresh_python, IMPORT_PROBE, "xpmsim", *thread_vars)
    assert bare == {"threads": 1, "env": dict.fromkeys(thread_vars)}
    cli = run_fresh(fresh_python, CLI_PROBE, "coeffs", "--out", str(tmp_path / "coeffs.csv"))
    assert cli == {"threads": 1}
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no helper on one core")
    numpy_alone = run_fresh(fresh_python, "import json, os, numpy\n"
                            "print(json.dumps(len(os.listdir('/proc/self/task'))))")
    assert numpy_alone > 1
    # numpy loaded first keeps its pool
    assert run_fresh(fresh_python, IMPORT_PROBE, "numpy")["threads"] == numpy_alone
    # a thread count the user set is OpenBLAS's to read, and stays set
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        preset = run_fresh(fresh_python, IMPORT_PROBE, "xpmsim", *thread_vars, **{var: "2"})
        assert preset == {"threads": 2, "env": {**dict.fromkeys(thread_vars), var: "2"}}
