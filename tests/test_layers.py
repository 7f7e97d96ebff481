"""One direction of imports: each evenf module imports only modules of a
lower rank, so no reader or extractor depends on the simulator.  The
imports are read from the source with ast: evenf/__init__ imports every
module, so a fresh process would load them all anyway."""

import ast
import math
from pathlib import Path

import pytest

import evenf

PACKAGE = Path(evenf.__file__).resolve().parent
# __init__ is exempt: it gathers the public names of every module
RANK = {"core": 0, "ingest": 1, "eenf": 1, "venf": 2, "simulate": 2,
        "svgplot": 2, "evaluate": 3, "cli": 4}


def _imported(path: Path) -> set[str]:
    """The evenf modules that the source at path imports, by ``from .x
    import``, ``from . import x`` or ``import evenf.x``, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("evenf.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:     # absolute: only evenf's own modules
                if parts[0] != "evenf":
                    continue
                parts = parts[1:]
            found |= {parts[0]} if parts and parts[0] else {
                a.name for a in node.names}
    return found


def test_every_module_has_a_rank():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(RANK)


@pytest.mark.parametrize("name", sorted(RANK))
def test_imports_go_down_the_module_order(name):
    up = sorted(m for m in _imported(PACKAGE / f"{name}.py")
                if RANK.get(m, math.inf) >= RANK[name])
    assert not up, (f"{name} (rank {RANK[name]}) imports {up}, of its own "
                    "rank or above")


def test_the_reader_sees_every_import_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .core import EventStream\nfrom . import eenf as e\n"
                   "import evenf.venf\nfrom evenf.ingest import _lines\n"
                   "from evenf import cli\nimport numpy, os.path\n"
                   "from numpy import linalg\n"
                   "def f():\n    from .simulate import simulate_events\n")
    assert _imported(src) == {"core", "eenf", "venf", "ingest", "cli",
                              "simulate"}
