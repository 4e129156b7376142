"""Tests of the benchmark itself: its references, checks and counting.

Run from the repository root with `python -m pytest perfbench`. Each
reference is checked against a value found another way: adaptive
quadrature of the defining integral, an algebraically different formula,
or a figure measured independently and recorded in CHANGES.md.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import sici

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def sinc(x):
    return np.sinc(x / math.pi)


@pytest.mark.parametrize("k0", [0.3, 1.7, 6.0])
def test_c1_gaussian_against_double_quad(k0):
    f = refs.gaussian
    val, _ = dblquad(lambda y, x: float(f(x) * f(y) ** 3 * sinc(k0 * (x - y))),
                     -9.0, 9.0, -9.0, 9.0, epsabs=1e-12, epsrel=1e-11)
    assert refs.c1_gaussian(k0) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("k0", [0.1, 2.0, 8.0])
def test_c1_square_against_double_quad(k0):
    # width 2: f = 2^(-1/2) on [-1, 1], so f(x) f(y) |f(y)|^2 = 1/4
    val, _ = dblquad(lambda y, x: 0.25 * float(sinc(k0 * (x - y))),
                     -1.0, 1.0, -1.0, 1.0, epsabs=1e-13, epsrel=1e-12)
    assert refs.c1_square(k0) == pytest.approx(val, abs=1e-10)


@pytest.mark.parametrize("k0", [0.5, 3.0])
def test_c2_against_quad_of_the_reduced_integrand(k0):
    # int sinc^2(k0 x) dx = pi/k0 leaves (pi/k0) int f1^2 f2^2
    gauss, _ = quad(lambda z: float(refs.gaussian(z)) ** 4, -np.inf, np.inf)
    assert refs.c2_gaussian(k0) == pytest.approx(math.pi / k0 * gauss, rel=1e-12)
    assert refs.c2_square(k0) == pytest.approx(math.pi / k0 * 2.0 * 0.25, rel=1e-12)
    tail = 400.0 * math.pi / k0
    core, _ = quad(lambda x: float(sinc(k0 * x)) ** 2, -tail, tail, limit=2000)
    assert core == pytest.approx(math.pi / k0, rel=2e-3)


@pytest.mark.parametrize("profile", ["gaussian", "square"])
def test_transition_is_the_half_crossing(profile):
    root = refs.transition_k0(profile)
    assert refs.coefficients(profile, root)[0] == pytest.approx(0.5, abs=1e-12)
    assert refs.coefficients(profile, root - 1e-6)[0] > 0.5
    assert refs.coefficients(profile, root + 1e-6)[0] < 0.5
    if profile == "gaussian":
        assert 2.4 <= root <= 2.6  # validation criterion 01's window


def test_square_c1_series_limit():
    # sine integral route agrees with its small-k0 expansion 1 - (k0 w)^2/36
    k0 = 1e-3
    assert refs.c1_square(k0) == pytest.approx(1.0 - (2.0 * k0) ** 2 / 36.0, abs=1e-11)
    assert float(sici(0.0)[0]) == 0.0


@pytest.mark.parametrize("c1,c2", [(0.3, 0.2), (0.5, 0.3), (0.9, 2.0)])
def test_gate_formulas_against_the_overlap_route(c1, c2):
    # psi = free + alpha * correction: <free|psi> = 1 + alpha C1 and
    # |psi|^2 = 1 + 2 Re(alpha) C1 + |alpha|^2 C2
    for phi in np.linspace(0.0, math.pi, 9):
        alpha = complex(math.cos(phi) - 1.0, math.sin(phi))
        amp = 1.0 + alpha * c1
        nsq = 1.0 + 2.0 * alpha.real * c1 + abs(alpha) ** 2 * c2
        assert refs.fidelity(c1, c2, phi) == pytest.approx(min(abs(amp) ** 2 / nsq, 1.0),
                                                           abs=1e-14)
        if abs(amp) > 1e-9:
            assert refs.conditional_phase(c1, phi) == pytest.approx(
                math.atan2(amp.imag, amp.real), abs=1e-14)


def test_copro_entropy_matches_the_recorded_scan():
    # S_L(pi) per k0 from the scan recorded in CHANGES.md, three decimals
    scan = {0.5: 0.073, 1.0: 0.299, 2.5: 0.559, 5.0: 0.738, 6.0: 0.741,
            10.0: 0.634, 20.0: 0.403}
    for k0, value in scan.items():
        assert refs.copro_entropy(k0, [math.pi])[0] == pytest.approx(value, abs=6e-4)
    assert abs(refs.copro_entropy(2.5, [0.0])[0]) < 1e-13


def test_copro_entropy_against_a_sampled_state():
    # brute force at k0 = 10: Z1 on a wide Gauss-panel grid, SVD of the amplitude
    k0, phi = 10.0, 2.0
    edges = np.linspace(-300.0, 300.0, 1501)
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * (edges[1] - edges[0])
    z1 = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    w1 = np.tile(half * w, edges.size - 1)
    z2, w2 = refs._gauss_legendre(-10.0, 10.0, 200)
    f = refs.gaussian
    psi = np.outer(f(z1), f(z2)) + (np.exp(1j * phi) - 1.0) * (
        sinc(k0 * (z1[:, None] - z2[None, :])) * (f(z2) ** 2)[None, :])
    m = np.sqrt(w1)[:, None] * psi * np.sqrt(w2)[None, :]
    s = np.linalg.svd(m, compute_uv=False) ** 2
    s /= s.sum()
    assert refs.copro_entropy(k0, [phi])[0] == pytest.approx(1.0 - float(np.sum(s * s)),
                                                             abs=2e-4)


def test_collision_references_match_recorded_figures():
    # whole-line finals of fig4 and the collision entropy, as recorded in CHANGES.md
    finals = {math.pi / 4: 0.0532, math.pi / 2: 0.0126, 3 * math.pi / 4: 0.0053,
              math.pi: 0.0037}
    for phi, value in finals.items():
        col = refs.Collision(phi)
        assert col.metrics(col.pass_time)[0] == pytest.approx(value, abs=6e-5)
    col = refs.Collision(math.pi)
    assert col.entropy(1e-3) == pytest.approx(5.1e-3, rel=2e-2)
    assert col.entropy(2e-3) == pytest.approx(1.2e-6, rel=5e-2)
    assert col.metrics(0.0) == (1.0, 0.0)


def test_collision_reference_is_converged():
    col = refs.Collision(math.pi / 2)
    base = col.metrics(1.3e-3)
    fine = col.metrics(1.3e-3, n2=320, ns=32, nk=48)
    assert base == pytest.approx(fine, abs=1e-12)
    assert col.entropy(1.3e-3) == pytest.approx(col.entropy(1.3e-3, n2=320, ns=32, nk=48),
                                                abs=1e-12)


def test_tables_quad_against_closed_forms():
    col = refs.Collision(math.pi)
    z1, z2, t = -4.3, 5.6, 1.1e-3
    a, b, d = col.tables_quad(z1, z2, t)
    ks = col.k0
    si = lambda v: float(sici(v)[0])  # noqa: E731
    a_ref = (si(ks * (z2 - z1)) - si(ks * (z2 - z1 - col.v_r * t))) / (math.pi * col.v_r)
    assert a == pytest.approx(a_ref, rel=1e-10)
    assert b == pytest.approx(float(col._b(z2, t)), rel=1e-10)
    s, ws = refs._gauss_legendre(0.0, t, 400)
    y = z2 - col.v_r * s
    d_ref = float(ws @ (col.commutator(z2 - z1 - col.v_r * s) * refs.gaussian(y, col.c1)))
    assert d == pytest.approx(d_ref, rel=1e-10)
    free = float(refs.gaussian(z1, col.c1) * refs.gaussian(z2, col.c2))
    assert col.amplitude(z1, z2, 0.0) == free


def test_exp_remainder_branches_agree():
    for x in (1e-4, 0.3, 0.49):
        direct = complex(math.cos(x) - 1.0, math.sin(x) - x)
        assert refs.exp_remainder(x) == pytest.approx(direct, rel=1e-6 if x < 1e-3 else 1e-12)
    x = 1e-4
    assert refs.exp_remainder(x) == pytest.approx(complex(-x * x / 2, -x ** 3 / 6), rel=1e-8)


# ------------------------------------------------------------ checks and counting

def coeffs_doc(profile):
    k0s = list(workloads.K0_SET)
    pairs = [refs.coefficients(profile, k) for k in k0s]
    return {"axes": [{"name": "k0", "values": k0s}],
            "columns": {"C1": [p[0] for p in pairs], "C2": [p[1] for p in pairs]},
            "provenance": {"transition_k0": refs.transition_k0(profile)}}


class FakeRunner(run.Runner):
    """Runner whose jobs return prepared results instead of starting workers."""

    def __init__(self, results):
        self.results = results

    def job(self, job, trace):
        if isinstance(self.results[job.name], Exception):  # the worker crashed
            return {"error": f"{job.kind}: worker exited 1: {self.results[job.name]}"}
        return {"error": None, "result": self.results[job.name], "setup_s": 0.5,
                "wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 10.0, "layers": None,
                "spans": None, "signature": b""}


def test_a_corrupted_output_is_a_failed_operation():
    wl = workloads.coeff_lattice(workloads.random.Random(0))
    wl.jobs = [j for j in wl.jobs if j.name.startswith("coeffs")]
    good = {f"coeffs-{p}": coeffs_doc(p) for p in ("gaussian", "square")}
    record = FakeRunner(good).run_pass(wl, trace=False)
    assert run.tally([record]) == (2, {})

    bad = json.loads(json.dumps(good))
    bad["coeffs-square"]["columns"]["C1"][2] *= 1.0 + 1e-5
    record = FakeRunner(bad).run_pass(wl, trace=False)
    attempted, failures = run.tally([record])
    assert attempted == 2 and list(failures) == ["coeffs[square]"]
    assert "C1(k0=2.5)" in failures["coeffs[square]"][0][0]


def test_a_malformed_output_fails_without_crashing_the_run():
    wl = workloads.entropy_sweep(workloads.random.Random(0))
    record = FakeRunner({"fig2": {"axes": []}}).run_pass(wl, trace=False)
    attempted, failures = run.tally([record])
    assert attempted == 1 and "check raised" in failures["fig2"][0][0]


def _entropy_failures(result):
    wl = workloads.collision(workloads.random.Random(0))
    wl.jobs = [j for j in wl.jobs if j.kind == "collision-entropy"]
    record = FakeRunner({"collision-entropy": result}).run_pass(wl, trace=False)
    attempted, failures = run.tally([record])
    assert attempted == 2
    return failures, run.unknown_failures(failures)


def test_the_window_fault_is_known_only_as_a_finite_miss():
    t1, t2 = (workloads._entropy_op(t) for t in workloads.ENTROPY_TIMES)
    reference = [refs.Collision(math.pi).entropy(t) for t in workloads.ENTROPY_TIMES]
    assert _entropy_failures({"S_L": reference}) == ({}, set())

    # the windowed values the program gives today (see README)
    failures, unknown = _entropy_failures({"S_L": [0.109, 9.2e-12]})
    assert set(failures) == {t1, t2} and unknown == set()

    assert _entropy_failures({"S_L": [float("nan"), 9.2e-12]})[1] == {t1}
    assert _entropy_failures({"S_L": [0.109]})[1] == {t2}
    assert _entropy_failures({"S_L": None})[1] == {t1, t2}
    assert _entropy_failures(RuntimeError("Traceback ..."))[1] == {t1, t2}

    wl = workloads.collision(workloads.random.Random(0))
    record = FakeRunner({"fig4": None, "collision-entropy": {"S_L": reference}}).run_pass(
        wl, trace=False)
    attempted, failures = run.tally([record])
    assert attempted == 3 and run.unknown_failures(failures) == {"fig4"}


def test_a_job_past_the_deadline_cuts_the_run(tmp_path):
    job = workloads.collision(workloads.random.Random(0)).jobs[1]
    runner = run.Runner(tmp_path, deadline=0.0)  # long gone: the job gets 1 s
    with pytest.raises(run.RunCut):
        runner.job(job, trace=False)


def test_same_seed_same_spot_points():
    a = workloads.oracle_routes(workloads.random.Random(7)).jobs[1].params
    b = workloads.oracle_routes(workloads.random.Random(7)).jobs[1].params
    c = workloads.oracle_routes(workloads.random.Random(8)).jobs[1].params
    assert a == b and a != c


def test_traced_worker_output_is_byte_identical(tmp_path):
    outputs = {}
    for trace in (False, True):
        spec = {"root": str(HERE.parent), "kind": "cli", "trace": trace, "params": None,
                "argv": ["coeffs", "--k0", "2.5", "--format", "json", "--out", "c.json"]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(HERE / "worker.py"), "spec.json", "report.json"],
                       cwd=tmp_path, check=True, timeout=120, stdout=subprocess.DEVNULL)
        report = json.loads((tmp_path / "report.json").read_text())
        outputs[trace] = (tmp_path / "c.json").read_bytes()
    assert outputs[False] == outputs[True]
    layers = report["layers"]
    assert layers["coeff.c1.calls"] == 1 + layers["coeff.transition.c1_calls"]
    assert layers["render.bytes"] == len(outputs[True])
    assert layers["task.busy_s"] >= layers["coeff.transition.busy_s"] > 0.0
    assert {s["thread"] for s in report["spans"]} >= {0}
