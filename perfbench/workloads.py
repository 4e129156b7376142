"""The benchmark's workloads: the jobs of one pass and how each is checked.

A pass is a list of jobs, each run in a fresh interpreter by worker.py.
A job carries one or more operations; every operation is checked against
the independent references in refs.py and fails when any check does.
Tolerances follow the accuracy the program documents or gates on: the
coefficient rtol 1e-6 and transition xtol 1e-4 in the coeffs provenance,
C2's rtol 1e-9, the 1e-3 bounds of validation criteria 05 and 07, and the
1e-6 bound of criterion 09.

The timed work is the program's default lattices and grids; the seed
picks only the spot points of the costlier references (collision times,
head-on table points). Where a reference is cheap every output is checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

import refs

K0_SET = (0.5, 1.0, 2.5, 5.0, 10.0)          # coeffs and fig2 default k0 list
LATTICE_K0 = np.linspace(0.1, 8.0, 80)        # fig3 default lattice
LATTICE_PHI = np.linspace(0.0, math.pi, 64)
FIG2_PHI = np.linspace(0.0, math.pi, 65)
HEADON_PHIS = (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
HEADON_TIMES = np.linspace(0.0, 2e-3, 121)    # a full pass at the default geometry
C05_K0 = (0.5, 1.0, 2.5, 5.0, 10.0)          # validation criterion 05's lattice
C05_PHI = (0.5, 1.5, 2.5, math.pi)
ENTROPY_TIMES = (1e-3, 2e-3)

# collision_entropy traces the state on the co-moving window and misses the
# correction's kernel tail, so it fails against the whole-line reference on
# every pass until that is mended.
WINDOW_FAULT = "collision_entropy misses the correction's kernel tail beyond the window"


class KnownFault(str):
    """A problem that is a known fault of the program, not a new failure."""


def is_known_fault(problem: str) -> bool:
    return isinstance(problem, KnownFault)


@dataclass
class Job:
    name: str
    kind: str
    ops: tuple[str, ...]
    check: object                  # callable(result) -> {op: [problems]}
    argv: list | None = None
    params: dict = field(default_factory=dict)
    output: str | None = None      # file a cli job writes, relative to the work dir


@dataclass
class Workload:
    name: str
    jobs: list[Job]


class Problems(list):
    def close(self, label: str, got, want, atol: float, rtol: float = 0.0) -> None:
        if not abs(got - want) <= atol + rtol * abs(want):
            self.append(f"{label}: got {got!r}, reference {want!r}")

    def axis(self, axis: dict, name: str, values) -> None:
        got = np.asarray(axis["values"], dtype=float)
        want = np.asarray(values, dtype=float)
        if axis["name"] != name or got.shape != want.shape or not np.allclose(
                got, want, rtol=1e-12, atol=1e-15):
            self.append(f"axis {axis['name']!r} is not the default {name} axis")


def _cli(name: str, task: str, ops: tuple[str, ...], check, *flags: str) -> Job:
    out = f"{name}.json"
    return Job(name, "cli", ops, check, output=out,
               argv=[task, *flags, "--format", "json", "--out", out])


# ------------------------------------------------------------ coefficients

@lru_cache(maxsize=None)
def _coeffs(profile: str, k0: float):
    return refs.coefficients(profile, k0)


@lru_cache(maxsize=None)
def _transition(profile: str) -> float:
    return refs.transition_k0(profile)


def _check_coeffs(profile: str, op: str):
    def check(doc: dict) -> dict:
        p = Problems()
        p.axis(doc["axes"][0], "k0", K0_SET)
        for k0, c1, c2 in zip(K0_SET, doc["columns"]["C1"], doc["columns"]["C2"]):
            ref1, ref2 = _coeffs(profile, k0)
            p.close(f"C1(k0={k0})", c1, ref1, 0.0, 1e-6)
            p.close(f"C2(k0={k0})", c2, ref2, 0.0, 1e-9)
        p.close("transition_k0", doc["provenance"]["transition_k0"],
                _transition(profile), 1e-4)
        return {op: p}
    return check


def _check_fig3(profile: str, op: str):
    def check(doc: dict) -> dict:
        p = Problems()
        p.axis(doc["axes"][0], "k0", LATTICE_K0)
        p.axis(doc["axes"][1], "Phi", LATTICE_PHI)
        fid = np.asarray(doc["columns"]["F"]).reshape(LATTICE_K0.size, LATTICE_PHI.size)
        for a, k0 in enumerate(LATTICE_K0):
            c1, c2 = _coeffs(profile, float(k0))
            for b, phi in enumerate(LATTICE_PHI):
                p.close(f"F(k0={k0:.4g}, Phi={phi:.4g})", fid[a, b],
                        refs.fidelity(c1, c2, phi), 1e-5)
        return {op: p}
    return check


def coeff_lattice(rng: random.Random) -> Workload:
    jobs = []
    for profile in ("gaussian", "square"):
        flags = ("--profile", profile)
        op = f"coeffs[{profile}]"
        jobs.append(_cli(f"coeffs-{profile}", "coeffs", (op,),
                         _check_coeffs(profile, op), *flags))
        op = f"fig3[{profile}]"
        jobs.append(_cli(f"fig3-{profile}", "fig3", (op,), _check_fig3(profile, op), *flags))
    return Workload("coeff-lattice", jobs)


# ------------------------------------------------------------ entropy sweep

@lru_cache(maxsize=None)
def _copro_entropy(k0: float) -> np.ndarray:
    return refs.copro_entropy(k0, FIG2_PHI)


def _check_fig2(doc: dict) -> dict:
    p = Problems()
    p.axis(doc["axes"][0], "k0", K0_SET)
    p.axis(doc["axes"][1], "Phi", FIG2_PHI)
    shape = (len(K0_SET), FIG2_PHI.size)
    fid = np.asarray(doc["columns"]["F"]).reshape(shape)
    ent = np.asarray(doc["columns"]["S_L"]).reshape(shape)
    for a, k0 in enumerate(K0_SET):
        c1, c2 = _coeffs("gaussian", k0)
        s_ref = _copro_entropy(k0)
        for b, phi in enumerate(FIG2_PHI):
            p.close(f"F(k0={k0}, Phi={phi:.4g})", fid[a, b], refs.fidelity(c1, c2, phi), 1e-5)
            p.close(f"S_L(k0={k0}, Phi={phi:.4g})", ent[a, b], s_ref[b], 1e-3)
    return {"fig2": p}


def entropy_sweep(rng: random.Random) -> Workload:
    return Workload("entropy-sweep", [_cli("fig2", "fig2", ("fig2",), _check_fig2)])


# ------------------------------------------------------------ collisions

@lru_cache(maxsize=None)
def _collision(phi: float) -> refs.Collision:
    return refs.Collision(phi)


@lru_cache(maxsize=None)
def _collision_metrics(phi: float, t: float) -> tuple[float, float]:
    return _collision(phi).metrics(t)


@lru_cache(maxsize=None)
def _collision_entropy(phi: float, t: float) -> float:
    return _collision(phi).entropy(t)


def _check_fig4(spots: list[int]):
    def check(doc: dict) -> dict:
        p = Problems()
        p.axis(doc["axes"][0], "phi", HEADON_PHIS)
        p.axis(doc["axes"][1], "t", HEADON_TIMES)
        n_t = HEADON_TIMES.size
        fid = np.asarray(doc["columns"]["F"]).reshape(len(HEADON_PHIS), n_t)
        theta = np.asarray(doc["columns"]["theta"]).reshape(len(HEADON_PHIS), n_t)
        gauge = np.asarray(doc["columns"]["gauge"]).reshape(len(HEADON_PHIS), n_t)
        for a, phi in enumerate(HEADON_PHIS):
            for q, t in enumerate(HEADON_TIMES):
                p.close(f"gauge(t={t:.4g})", gauge[a, q], 1e-3 * 1e4 * t, 0.0, 1e-12)
            for q in spots:
                t = float(HEADON_TIMES[q])
                f_ref, th_ref = _collision_metrics(phi, t)
                p.close(f"F(phi={phi:.4g}, t={t:.4g})", fid[a, q], f_ref, 1e-6)
                p.close(f"theta(phi={phi:.4g}, t={t:.4g})", theta[a, q], th_ref, 1e-6)
            prov = doc["provenance"]
            p.close(f"f_final(phi={phi:.4g})", prov[f"f_final[phi={phi:.6g}]"], fid[a, -1], 0.0)
            p.close(f"f_min(phi={phi:.4g})", prov[f"f_min[phi={phi:.6g}]"], fid[a].min(), 0.0)
        return {"fig4": p}
    return check


def _entropy_op(t: float) -> str:
    return f"collision_entropy[phi=pi,t={t:g}]"


def _check_collision_entropy(payload: dict) -> dict:
    # only a finite value that misses the reference is the window fault; a
    # crash, a malformed payload or a non-finite value is a new failure
    out = {}
    for t, s in zip(ENTROPY_TIMES, payload["S_L"]):
        p = Problems()
        label, ref = f"S_L(phi=pi, t={t:g})", _collision_entropy(math.pi, t)
        if not (isinstance(s, (int, float)) and math.isfinite(s)):
            p.append(f"{label}: got {s!r}, not a finite number")
        elif not abs(s - ref) <= 1e-9 + 1e-2 * ref:
            p.append(KnownFault(f"{label}: got {s!r}, reference {ref!r} ({WINDOW_FAULT})"))
        out[_entropy_op(t)] = p
    return out


def collision(rng: random.Random) -> Workload:
    # four interior times per pass plus the end of the pass, the same for each phi
    spots = sorted(rng.sample(range(1, HEADON_TIMES.size - 1), 4)) + [HEADON_TIMES.size - 1]
    ops = tuple(_entropy_op(t) for t in ENTROPY_TIMES)
    return Workload("collision", [
        _cli("fig4", "fig4", ("fig4",), _check_fig4(spots)),
        Job("collision-entropy", "collision-entropy", ops, _check_collision_entropy,
            params={"phi": math.pi, "times": list(ENTROPY_TIMES)}),
    ])


# ------------------------------------------------------------ oracle routes

def _check_grid_route(payload: dict) -> dict:
    p = Problems()
    lattice = [(k0, phi) for k0 in C05_K0 for phi in C05_PHI]
    if [tuple(pt[:2]) for pt in payload["points"]] != lattice:
        p.append("grid route did not cover criterion 05's lattice")
    for k0, phi, fid, theta in payload["points"]:
        c1, c2 = _coeffs("gaussian", k0)
        p.close(f"F_grid(k0={k0}, Phi={phi:.4g})", fid, refs.fidelity(c1, c2, phi), 1e-3)
        p.close(f"theta_grid(k0={k0}, Phi={phi:.4g})", theta,
                refs.conditional_phase(c1, phi), 1e-3)
    return {"grid-route": p}


@lru_cache(maxsize=None)
def _headon_point(z1: float, z2: float, t: float):
    col = _collision(math.pi)
    return col.tables_quad(z1, z2, t), col.amplitude(z1, z2, t)


def _check_headon_routes(payload: dict) -> dict:
    p = Problems()
    p.axis({"name": "t", "values": payload["times"]}, "t", HEADON_TIMES)
    for t, sup in zip(payload["times"], payload["sup"]):
        p.close(f"sup|closed - series|(t={t:.4g})", sup, 0.0, 1e-6)
    for spot in payload["spots"]:
        (a, b, d), amp = _headon_point(spot["z1"], spot["z2"], spot["t"])
        where = f"(z1={spot['z1']:.4g}, z2={spot['z2']:.4g}, t={spot['t']:.4g})"
        for name, ref in (("A", a), ("B", b), ("D", d)):
            p.close(name + where, spot[name], ref, 1e-18, 1e-8)
        p.close("psi_closed" + where, complex(*spot["psi"]), amp, 1e-8)
    return {"headon-routes": p}


def oracle_routes(rng: random.Random) -> Workload:
    # spot points: a fraction of the pass, then offsets from the two pulse centres
    spots = [(rng.uniform(0.05, 1.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
             for _ in range(8)]
    return Workload("oracle-routes", [
        Job("grid-route", "grid-route", ("grid-route",), _check_grid_route,
            params={"k0": list(C05_K0), "phi": list(C05_PHI)}),
        Job("headon-routes", "headon-routes", ("headon-routes",), _check_headon_routes,
            params={"phi": math.pi, "spots": spots}),
    ])


WORKLOADS = {
    "coeff-lattice": coeff_lattice,
    "entropy-sweep": entropy_sweep,
    "collision": collision,
    "oracle-routes": oracle_routes,
}
