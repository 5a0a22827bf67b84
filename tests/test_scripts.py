"""Every script under scripts/ imports against the package; their
__main__ guards keep them from running."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
