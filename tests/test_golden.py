"""Same bytes: the outputs of a compact command set against the sha256
digests committed in golden_manifest.json.

scripts/golden_manifest.py holds the command set and regenerates the
manifest.  The digests hold only for the numpy and scipy versions, and
the numpy SIMD targets, recorded with them; anywhere else the test skips.
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
    if (made["numpy"], made["scipy"]) != (here["numpy"], here["scipy"]):
        pytest.skip(f"the golden manifest was made with numpy {made['numpy']} "
                    f"and scipy {made['scipy']}, this is numpy "
                    f"{here['numpy']} and scipy {here['scipy']}")
    if made["numpy_simd"] != here["numpy_simd"]:
        pytest.skip(f"the golden manifest was made where numpy dispatches to "
                    f"{made['numpy_simd']}, here it dispatches to "
                    f"{here['numpy_simd']}")
    digests = golden.run(tmp_path)
    moved = sorted(name for name in manifest["files"].keys() | digests.keys()
                   if manifest["files"].get(name) != digests.get(name))
    assert not moved, f"outputs differ from the golden manifest: {moved}"
