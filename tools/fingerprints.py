"""Rewrite tests/fingerprints.json: the SHA-256 of every artifact of every
case in tests/test_fingerprints.py, with numpy's version and SIMD targets.

    python tools/fingerprints.py

Each case runs in a fresh temporary directory.  Before rewriting, it prints
each case and file whose hash (or exit code) differs from the old record.
Rewrite the record only for an intended change of the artifacts, and name
every changed hash.
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


def changes(old: dict, new: dict) -> list[str]:
    """One line per case and file whose hash or exit code differs between
    two records' cases: a file added or gone shows as None on its side."""
    lines = []
    for case in sorted(old.keys() | new.keys()):
        was, now = old.get(case, {}), new.get(case, {})
        if was.get("exit") != now.get("exit"):
            lines.append(f"{case}: exit {was.get('exit')} -> {now.get('exit')}")
        was_files, now_files = was.get("files", {}), now.get("files", {})
        for name in sorted(was_files.keys() | now_files.keys()):
            if was_files.get(name) != now_files.get(name):
                lines.append(f"{case}/{name}: {was_files.get(name)} -> "
                             f"{now_files.get(name)}")
    return lines


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
    old = json.loads(fp.RECORD_PATH.read_text()) if fp.RECORD_PATH.exists() else {}
    lines = changes(old.get("cases", {}), cases)
    print(f"{len(lines)} changed against the old record")
    for line in lines:
        print(f"  {line}")
    fp.RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {fp.RECORD_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
