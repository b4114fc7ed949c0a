"""Rewrite tests/fingerprints.json: the SHA-256 of every artifact of every
case in tests/test_fingerprints.py, with numpy's version and SIMD targets.

    python tools/fingerprints.py

Each case runs in a fresh temporary directory.  Rewrite the record only for
an intended change of the artifacts, and name every changed hash.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_fingerprints as fp  # noqa: E402


def main() -> int:
    cases = {}
    cwd = os.getcwd()
    for case in fp.CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                cases[case] = fp.run_case(case)
            finally:
                os.chdir(cwd)
        print(f"{case}: exit {cases[case]['exit']}, {len(cases[case]['files'])} files")
    record = {**fp.platform_key(), "cases": cases}
    fp.RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {fp.RECORD_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
