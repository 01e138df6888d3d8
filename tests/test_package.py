"""The package surface: names come from their modules, the package holds only its version."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_MODULES = re.findall(r"^\| `(beamcanyon\.\w+)` \|", (ROOT / "README.md").read_text(), re.M)


def test_package_exports_only_its_version():
    # a fresh interpreter, so that no submodule imported by another test shows as an attribute
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import beamcanyon, json; print(json.dumps([sorted(vars(beamcanyon)), beamcanyon.__version__]))"
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    names, version = json.loads(run.stdout)
    assert [name for name in names if not name.startswith("_")] == []
    assert version == re.search(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)


def test_readme_lists_every_module():
    assert sorted(README_MODULES) == sorted(
        f"beamcanyon.{p.stem}" for p in (ROOT / "src" / "beamcanyon").glob("*.py") if not p.stem.startswith("_")
    )


@pytest.mark.parametrize("module", README_MODULES)
def test_readme_module_imports(module):
    importlib.import_module(module)
