"""Same bytes: the outputs of a compact command set against the sha256
digests committed in golden_manifest.json.

scripts/golden_manifest.py holds the command set and regenerates the
manifest.  It runs the set in a child process with every numpy dispatch
target disabled and the OpenBLAS kernel pinned, so the digests rest on
the numpy version and its baseline SIMD targets recorded with them, not
on the CPU: with numpy's AVX-512 loops on, as with them off, the test
compares the same bytes.  With another numpy or baseline the test skips.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_manifest", ROOT / "scripts" / "golden_manifest.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    made, here = manifest["environment"], golden.environment()
    facts = ("numpy", "numpy_baseline")
    if [made[k] for k in facts] != [here[k] for k in facts]:
        pytest.skip(f"the golden manifest was made with numpy {made['numpy']}"
                    f" on {made['numpy_baseline']}, this is numpy "
                    f"{here['numpy']} on {here['numpy_baseline']}")
    digests = golden.run_pinned(tmp_path)["files"]
    moved = sorted(name for name in manifest["files"].keys() | digests.keys()
                   if manifest["files"].get(name) != digests.get(name))
    assert not moved, f"outputs differ from the golden manifest: {moved}"
