"""Output ledger: every default CLI output and validate's report, pinned.

The 30 default outputs (coeffs and fig1-fig4, gaussian and square pulses,
csv, json and svg) are regenerated in process, through the CLI's own config
loading, run_task and renderers, and their sha256 digests compared with
output_ledger.json beside this file. validate's report is compared line by
line with its runtimes stripped. The last bits of the outputs hang on numpy,
its BLAS and the SIMD targets its ufuncs dispatch to on this CPU, so the
ledger records all three, and on another build the tests fail and say so
rather than report moved outputs. Outputs regenerated in the pytest process
run on the numpy pytest loaded; one case also runs two tasks as a user
does, `python -m xpmsim.cli.main` in a fresh interpreter, where xpmsim loads
numpy with one BLAS thread.

An intended output change rewrites the ledger in the same change, and the
moved outputs are listed in CHANGES.md:

    PYTHONPATH=src python tests/test_outputs.py --write
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from xpmsim.cli.main import build_parser, load_run_config
from xpmsim.cli.output import RENDERERS
from xpmsim.cli.sweeps import run_task
from xpmsim.cli.validate import run_validate

LEDGER = Path(__file__).with_name("output_ledger.json")
TASKS = ("coeffs", "fig1", "fig2", "fig3", "fig4")
PROFILES = ("gaussian", "square")
# the float64 ufuncs the outputs lean on: gaussian samples go through exp,
# the k-side transforms through sin and cos, and fig1's and fig4's theta
# through arctan2. On an X86_V4 target exp and arctan2 differ from libm in
# the last bit for about 5% and 8% of random inputs, so another target may
# move outputs that the code did not
SIMD_UFUNCS = ("arctan2", "cos", "exp", "sin")


def simd_targets() -> dict:
    """The SIMD target each of SIMD_UFUNCS dispatches to for float64 on this CPU."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.1 does not report its dispatch
        return dict.fromkeys(SIMD_UFUNCS, "unknown")
    info = opt_func_info(func_name=f"^({'|'.join(SIMD_UFUNCS)})$", signature="^d+$")
    return {name: next(iter(info[name].values()))["current"] for name in SIMD_UFUNCS}


def build() -> dict:
    """numpy's version, its BLAS (name and version) and its float64 SIMD targets."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name, "simd": simd_targets()}


def digests() -> dict:
    """sha256 of each default output, keyed '<task>-<profile>.<format>'.

    The format does not enter the computation (config_hash leaves the
    output keys out), so each task runs once per profile and is rendered
    three times.
    """
    out = {}
    for task in TASKS:
        for profile in PROFILES:
            result = run_task(load_run_config(
                build_parser().parse_args([task, "--profile", profile])))
            for fmt, render in RENDERERS.items():
                out[f"{task}-{profile}.{fmt}"] = hashlib.sha256(
                    render(result).encode("utf-8")).hexdigest()
    return out


def report_lines(report) -> list:
    """validate's report, each criterion's runtime suffix " (1.2 s)" stripped."""
    return [re.sub(r" \(\d+\.\d s\)$", "", line) for line in report.text.splitlines()]


def check_build(ledger: dict) -> None:
    here = build()
    pinned = {key: ledger.get(key) for key in here}
    assert here == pinned, (
        f"the ledger was written on a different build ({pinned}), this run has "
        f"{here}: the outputs' last bits are not comparable; rewrite the ledger "
        "on this build from a known-good checkout")


def test_a_changed_simd_dispatch_is_a_different_build():
    # a CPU whose exp loop dispatches elsewhere is another build, not moved outputs
    here = build()
    check_build(here)
    moved = {**here, "simd": {**here["simd"], "exp": "baseline"}}
    with pytest.raises(AssertionError, match="different build"):
        check_build(moved)


def test_default_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    check_build(ledger)
    got = digests()
    assert sorted(got) == sorted(ledger["outputs"])
    moved = [name for name, digest in got.items() if ledger["outputs"][name] != digest]
    assert not moved, f"outputs moved from the ledger: {', '.join(moved)}"


def test_cli_outputs_in_a_fresh_interpreter_match_the_ledger(tmp_path, fresh_python):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    check_build(ledger)
    moved = []
    for task, fmt in (("fig4", "json"), ("fig3", "csv")):
        path = tmp_path / f"{task}.{fmt}"
        fresh_python("-m", "xpmsim.cli.main", task, "--format", fmt, "--out", str(path))
        if hashlib.sha256(path.read_bytes()).hexdigest() != ledger["outputs"][
                f"{task}-gaussian.{fmt}"]:
            moved.append(path.name)
    assert not moved, f"CLI outputs moved from the ledger: {', '.join(moved)}"


def test_validate_report_matches_the_ledger(tmp_path, monkeypatch):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    check_build(ledger)
    monkeypatch.chdir(tmp_path)
    got = report_lines(run_validate())
    moved = [line for line, pinned in zip(got, ledger["validate"]) if line != pinned]
    assert len(got) == len(ledger["validate"]) and not moved, (
        "validate's report moved from the ledger:\n" + "\n".join(moved))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_outputs.py --write")
    ledger = {**build(), "outputs": digests(), "validate": report_lines(run_validate())}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
