"""One benchmark job in a fresh interpreter, as a user's invocation runs.

Usage: python3 worker.py SPEC.json REPORT.json

SPEC names the checkout root, the job kind and its parameters, and
whether to trace. The worker imports xpmsim and its CLI from the
checkout's src/, marks the end of set-up, runs the job, and writes REPORT:
the set-up and end times on the system-wide monotonic clock, the job's CPU
time and peak resident memory, the job's outputs and, when traced, its
spans and per-layer metrics. Job kinds:

- cli: xpmsim's own main() with the given arguments; the output is the
  file it writes.
- grid-route: grid_metrics_copropagating over a (k0, Phi) lattice, with
  one interaction_grids pair per k0.
- headon-routes: two_particle_headon_series against
  two_particle_headon_closed at every time of one collision pass, plus the
  closed amplitude at the grid nodes nearest the requested spot points (a
  fraction of the pass, an offset from each pulse centre) and, read after
  the timed work, the A, B, D tables there.
- collision-entropy: collision_entropy at the requested times.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _grid_route(params: dict):
    from xpmsim import (SystemParams, grid_metrics_copropagating,
                        interaction_grids, make_profile)

    prof = make_profile("gaussian")
    points = []
    for k0 in params["k0"]:
        grids = interaction_grids(prof, prof, k0)
        for phi in params["phi"]:
            m = grid_metrics_copropagating(prof, prof, SystemParams.copropagating(k0, phi),
                                           grids=grids)
            points.append([k0, phi, m.fidelity, m.phase])
    return {"points": points}, None


def _headon_routes(params: dict):
    import numpy as np
    from xpmsim import (InteractionTables, two_particle_headon_closed,
                        two_particle_headon_series)
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import collision_setup

    setup = collision_setup(RunConfig(task="fig4"), params["phi"])
    tables = InteractionTables(setup)
    tables.ensure(setup, setup.times)
    last = len(setup.times) - 1
    spots: dict[int, list] = {}
    for frac, off1, off2 in params["spots"]:
        q = min(max(1, round(frac * last)), last)
        i = int(np.argmin(np.abs(setup.grid1.nodes - (setup.f1.center + off1))))
        j = int(np.argmin(np.abs(setup.grid2.nodes - (setup.f2.center + off2))))
        spots.setdefault(q, []).append((i, j))
    sup, values, cells = [], [], []
    for q, t in enumerate(setup.times):
        closed = two_particle_headon_closed(setup, t, tables=tables)
        series = two_particle_headon_series(setup, t, tables=tables)
        sup.append(float(np.max(np.abs(closed.psi - series.psi))))
        for i, j in spots.get(q, ()):
            psi = complex(closed.psi[i, j])
            values.append({"t": t, "z1": float(setup.grid1.nodes[i]),
                           "z2": float(setup.grid2.nodes[j]), "psi": [psi.real, psi.imag]})
            cells.append((i, j))

    def add_tables(payload: dict) -> None:
        # read after the timed work, so the seed's spot points add no table calls to it
        for spot, (i, j) in zip(values, cells):
            a_tab, b_tab, d_tab = tables.at(setup, spot["t"])
            spot.update(A=float(a_tab[i, j]), B=float(b_tab[j]), D=float(d_tab[i, j]))

    return {"times": list(setup.times), "sup": sup, "spots": values}, add_tables


def _collision_entropy(params: dict):
    from xpmsim import InteractionTables, collision_entropy
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import collision_setup

    setup = collision_setup(RunConfig(task="fig4"), params["phi"])
    tables = InteractionTables(setup)
    return {"S_L": [collision_entropy(setup, t, tables=tables) for t in params["times"]]}, None


# each job returns its outputs and, optionally, a step that completes them
# after the timed work
_API = {"grid-route": _grid_route, "headon-routes": _headon_routes,
        "collision-entropy": _collision_entropy}


def main() -> int:
    spec_path, report_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import xpmsim
    import xpmsim.cli.main as cli

    t_setup = time.monotonic()
    if not os.path.abspath(xpmsim.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"worker: xpmsim imported from {xpmsim.__file__}, not {src}\n")
        return 2
    recorder = None
    if spec["trace"]:
        import tracer
        recorder = tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    report: dict = {"t_setup": t_setup, "error": None, "payload": None}
    finish = None
    try:
        if spec["kind"] == "cli":
            report["payload"] = {"rc": cli.main(spec["argv"])}
        else:
            report["payload"], finish = _API[spec["kind"]](spec["params"])
    except Exception:
        report["error"] = traceback.format_exc()
    report["t_done"] = time.monotonic()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    report["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    report["maxrss_kb"] = usage1.ru_maxrss
    if recorder is not None:
        report["layers"] = recorder.summary()
        report["spans"] = recorder.export()
    if finish is not None:
        try:
            finish(report["payload"])
        except Exception:
            report["error"] = traceback.format_exc()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
