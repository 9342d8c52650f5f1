"""The committed identity record, regenerated and compared.

``tools/identity.json`` holds every count, asymptotic column, table and
report that ``tools/identity_check.py`` produces.  This test runs the tool
again and compares the two: a change that moves a number must regenerate
the record in the same commit, so the diff shows what moved.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tools" / "identity.json"
#: numpy picks its exp, log and pow kernels by CPU; between this record's CPU
#: (AVX512 kernels) and the X86_V2 baseline (NPY_DISABLE_CPU_FEATURES) the record's
#: floats moved by at most 4 units in the last place, and no count, exit code or
#: report line moved.  Where the regenerated ``environment`` differs from the
#: record's, floats are compared to twice that; where it is the same, exactly.
ULPS = 8


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float, ulps: int) -> bool:
    return a == b or abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b)))


def _differences(old, new, path: str, ulps: int, csv_rows: bool = False):
    """Where ``new`` differs from ``old``: ints, bools, text and report lines
    exactly, floats within ``ulps``, CSV rows cell by cell."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            yield f"{path}: keys {sorted(old.keys() ^ new.keys())} added or removed"
            return
        for key in old:
            yield from _differences(old[key], new[key], f"{path}/{key}", ulps, key == "rows")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}: {len(old)} entries, now {len(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{path}[{i}]", ulps, csv_rows)
    elif isinstance(old, float) and isinstance(new, float):
        if not _close(old, new, ulps):
            yield f"{path}: {old!r}, now {new!r}"
    elif csv_rows and isinstance(old, str) and isinstance(new, str):
        cells = list(zip(old.split(","), new.split(",")))
        if len(old.split(",")) != len(new.split(",")) or not all(
                a == b or (_float(a) is not None and _float(b) is not None
                           and _close(_float(a), _float(b), ulps)) for a, b in cells):
            yield f"{path}: {old!r}, now {new!r}"
    elif type(old) is not type(new) or old != new:
        yield f"{path}: {old!r}, now {new!r}"


def test_identity_record_is_reproduced(tmp_path):
    record = json.loads(RECORD.read_text())
    made_with = record["environment"]["numpy"]
    if made_with != np.__version__:
        pytest.skip(f"tools/identity.json was made with numpy {made_with}, this is "
                    f"{np.__version__}: the draws depend on numpy's variate algorithms, "
                    "so regenerate the record with tools/identity_check.py")
    out = tmp_path / "identity.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "identity_check.py"), str(out),
                    "--src", str(ROOT / "src")], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    new = json.loads(out.read_text())
    # the CPU features may differ, and with them the float kernels' last bits
    ulps = 0 if record.pop("environment") == new.pop("environment") else ULPS
    moved = list(_differences(record, new, "", ulps))
    assert not moved, f"{len(moved)} entries moved; first: {moved[:5]}"
