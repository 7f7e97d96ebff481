"""Same bytes: the outputs of a compact command set against the sha256
digests committed in golden_manifest.json.

scripts/golden_manifest.py holds the command set and regenerates the
manifest.  The digests hold only for the numpy version recorded with
them; with another version the test skips.  They do not
rest on the numpy SIMD targets recorded beside them: every digest
matched with numpy's dispatch targets all disabled
(NPY_DISABLE_CPU_FEATURES) and the OpenBLAS kernel pinned
(OPENBLAS_CORETYPE Haswell, Katmai or SkylakeX), so a machine with other
targets runs the test too.
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
    if made["numpy"] != here["numpy"]:
        pytest.skip(f"the golden manifest was made with numpy {made['numpy']}"
                    f", this is numpy {here['numpy']}")
    digests = golden.run(tmp_path)
    moved = sorted(name for name in manifest["files"].keys() | digests.keys()
                   if manifest["files"].get(name) != digests.get(name))
    assert not moved, f"outputs differ from the golden manifest: {moved}"
