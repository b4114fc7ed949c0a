"""Every artifact of every fingerprinted run is byte-identical to the record.

tests/fingerprints.json holds the SHA-256 of each file a run writes, per
case: the cheap overrides of test_harness for every scenario, constant_decay
and stress_3d at their full presets, and an mms ladder that stops in its
first solve.  Each case runs in its own directory with the relative out_dir
"out" (custom reads its snapshots by relative path too), so no absolute
path enters a hashed file.

numpy picks its float kernels (exp, log, cos, ...) at run time by version
and CPU SIMD targets, so the record is compared only where both match and
the test skips elsewhere.  Rewrite the record with

    python tools/fingerprints.py

and only for an intended change of the artifacts.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kslab import GridSpec, constant_field, load_config, make_grid, run_scenario, write_snapshot
from test_harness import _CHEAP

RECORD_PATH = Path(__file__).with_name("fingerprints.json")
OUT_DIR = "out"

# case -> (scenario, overrides)
CASES = {
    **{f"cheap-{scenario}": (scenario, overrides)
       for scenario, overrides in _CHEAP.items()},
    "constant_decay": ("constant_decay", []),
    "stress_3d": ("stress_3d", []),
    "mms-stop": ("mms", ["grid.cells=8 8", "run.t_end=0.005",
                         "solver.blowup_sup_threshold=2"]),
}


def platform_key() -> dict:
    """numpy's version and the SIMD targets its dispatch uses here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    simd = sorted(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))
    return {"numpy": np.__version__, "simd": simd}


def run_case(case: str) -> dict:
    """Run one case in the current directory; its exit code and the SHA-256
    of every file under out_dir, by path relative to it."""
    scenario, overrides = CASES[case]
    text = f"[run]\nscenario = {scenario}\n"
    if scenario == "custom":
        g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
        for name, value in (("n0", 1.5), ("c0", 0.5)):
            write_snapshot(constant_field(g, value), 0.0, f"{name}.ksf")
            text += f"{name}_snapshot = {name}.ksf\n"
    Path("case.ini").write_text(text)
    code, _ = run_scenario(load_config("case.ini",
                                       overrides=[f"run.out_dir={OUT_DIR}", *overrides]))
    out = Path(OUT_DIR)
    files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return {"exit": code, "files": files}


def _record() -> dict:
    return json.loads(RECORD_PATH.read_text())


def test_record_covers_every_case():
    assert set(_record()["cases"]) == set(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_artifacts_match_fingerprints(case, tmp_path, monkeypatch):
    record = _record()
    here = platform_key()
    made = {key: record[key] for key in here}
    if made != here:
        pytest.skip(f"fingerprints made with {made}, running {here}")
    monkeypatch.chdir(tmp_path)
    got, want = run_case(case), record["cases"][case]
    changed = sorted(name for name in got["files"].keys() | want["files"].keys()
                     if got["files"].get(name) != want["files"].get(name))
    assert (got["exit"], changed) == (want["exit"], [])
