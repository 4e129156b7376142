"""Output ledger: every default CLI output and validate's report, pinned.

The 30 default outputs (coeffs and fig1-fig4, gaussian and square pulses,
csv, json and svg) are regenerated in process, through the CLI's own config
loading, run_task and renderers, and their sha256 digests compared with
output_ledger.json beside this file. validate's report is compared line by
line with its runtimes stripped. The last bits of the outputs hang on numpy
and its BLAS, so the ledger records both, and on another build the tests
fail and say so rather than report moved outputs.

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

from xpmsim.cli.main import build_parser, load_run_config
from xpmsim.cli.output import RENDERERS
from xpmsim.cli.sweeps import run_task
from xpmsim.cli.validate import run_validate

LEDGER = Path(__file__).with_name("output_ledger.json")
TASKS = ("coeffs", "fig1", "fig2", "fig3", "fig4")
PROFILES = ("gaussian", "square")


def build() -> dict:
    """numpy's version and its BLAS, name and version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


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
    assert here == {key: ledger[key] for key in here}, (
        f"the ledger was written with numpy {ledger['numpy']} and {ledger['blas']}, "
        f"this run has numpy {here['numpy']} and {here['blas']}: the outputs' last "
        "bits are not comparable; rewrite the ledger on this build from a "
        "known-good checkout")


def test_default_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    check_build(ledger)
    got = digests()
    assert sorted(got) == sorted(ledger["outputs"])
    moved = [name for name, digest in got.items() if ledger["outputs"][name] != digest]
    assert not moved, f"outputs moved from the ledger: {', '.join(moved)}"


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
