"""What each entry point loads, read from ``sys.modules`` of a fresh
interpreter: ``import lula_lab`` loads no submodule and no numpy, the CLI
module and ``--help`` load no package module but ``cli`` and ``errors``, and
``train``, ``laplace`` and ``eval`` never load ``lula`` or ``demo``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lula_lab
from lula_lab.network import Network, save
from lula_lab.numerics import Rng

SRC = str(Path(lula_lab.__file__).resolve().parents[1])

BOUNDARY_INI = """
[data]
size = 60

[model]
dims = 2,8,2

[train]
epochs = 1

[laplace]
lambda_grid = 0.1,1
sample_count = 5

[eval]
runs = 1
sample_count = 5
"""


def _loaded(script: str, *args: str) -> set[str]:
    """The names in ``sys.modules`` after ``script`` ran with ``args`` in a
    fresh interpreter; the script must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script + "\nprint(json.dumps(sorted(sys.modules)))", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name.startswith("lula_lab.")}


def test_import_package_loads_no_submodule_and_no_numpy():
    loaded = _loaded("import json, sys\nimport lula_lab")
    assert _package_modules(loaded) == set()
    assert "numpy" not in loaded


def test_import_cli_loads_only_cli_and_errors():
    loaded = _loaded("import json, sys\nimport lula_lab.cli")
    assert _package_modules(loaded) == {"lula_lab.cli", "lula_lab.errors"}


def test_help_loads_only_cli_and_errors():
    script = (
        "import json, sys\n"
        "from lula_lab import cli\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    loaded = _loaded(script)
    assert _package_modules(loaded) == {"lula_lab.cli", "lula_lab.errors"}


@pytest.mark.parametrize("command", ["train", "laplace", "eval"])
def test_command_loads_neither_lula_nor_demo(command, tmp_path):
    config = tmp_path / "cfg.ini"
    config.write_text(BOUNDARY_INI)
    model = tmp_path / "model.txt"
    save(Network.init_random([2, 8, 2], "relu", Rng(0)), str(model))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command != "train":
        argv += ["--model", str(model)]
    script = (
        "import json, sys\n"
        "from lula_lab import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
    )
    loaded = _loaded(script, *argv)
    assert "lula_lab.laplace" in loaded
    assert not {"lula_lab.lula", "lula_lab.demo"} & loaded
