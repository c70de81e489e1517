"""What each entry point loads, read from ``sys.modules`` of a fresh
interpreter: ``import lula_lab`` loads no submodule and no numpy, the CLI
module and ``--help`` load no package module but ``cli`` and ``errors``, and
each command loads one exact set of package modules. Also the CLI's exit
hook: ``gc.freeze`` registered once per process, run only at exit."""

import gc
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


def _run(args: list[str], cwd=None) -> bytes:
    """The standard output of a fresh interpreter run with ``args`` in
    ``cwd``; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=300
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def _loaded(script: str, *args: str) -> set[str]:
    """The names in ``sys.modules`` after ``script`` ran with ``args`` in a
    fresh interpreter; the script must exit 0."""
    stdout = _run(["-c", script + "\nprint(json.dumps(sorted(sys.modules)))", *args])
    return set(json.loads(stdout.decode().splitlines()[-1]))


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


TRAIN_MODULES = {
    f"lula_lab.{name}"
    for name in ("cli", "config", "data", "errors", "network", "numerics", "training")
}
POSTERIOR_MODULES = TRAIN_MODULES | {"lula_lab.laplace"}
COMMAND_MODULES = {
    "train": TRAIN_MODULES,
    "laplace": POSTERIOR_MODULES,
    "eval": POSTERIOR_MODULES | {"lula_lab.metrics"},
    "lula": POSTERIOR_MODULES | {"lula_lab.lula"},
    "demo-toy": POSTERIOR_MODULES | {"lula_lab.lula", "lula_lab.demo"},
}


def _command_argv(command: str, tmp_path) -> list[str]:
    """``command`` on BOUNDARY_INI, reading a fresh 2,8,2 model where it
    takes one, writing under ``tmp_path``."""
    config = tmp_path / "cfg.ini"
    config.write_text(BOUNDARY_INI)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command in ("laplace", "lula", "eval"):
        model = tmp_path / "model.txt"
        save(Network.init_random([2, 8, 2], "relu", Rng(0)), str(model))
        argv += ["--model", str(model)]
    return argv


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_exactly_its_modules(command, tmp_path):
    script = (
        "import json, sys\n"
        "from lula_lab import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
    )
    loaded = _loaded(script, *_command_argv(command, tmp_path))
    assert _package_modules(loaded) == COMMAND_MODULES[command]


def test_main_freezes_nothing_while_its_caller_lives(tmp_path):
    from lula_lab import cli

    frozen = gc.get_freeze_count()
    assert cli.main(_command_argv("train", tmp_path)) == 0
    assert gc.get_freeze_count() == frozen


def test_main_registers_one_freeze_at_exit_however_often_it_runs(tmp_path):
    # gc.freeze, swapped for a counting stand-in before main runs, is what
    # main registers; the stand-in reports every call at exit
    script = (
        "import gc, sys\n"
        "from lula_lab import cli\n"
        "freeze = gc.freeze\n"
        "def counting():\n"
        "    sys.stdout.write('froze\\n')\n"
        "    freeze()\n"
        "gc.freeze = counting\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert gc.get_freeze_count() == 0\n"
    )
    stdout = _run(["-c", script, *_command_argv("train", tmp_path)]).decode()
    assert stdout.splitlines().count("froze") == 1
    assert stdout.endswith("froze\n")


def test_module_run_writes_the_in_process_bytes(tmp_path, monkeypatch, capsys):
    from lula_lab import cli

    config = tmp_path / "cfg.ini"
    config.write_text(BOUNDARY_INI)
    argv = ["train", "--config", str(config), "--out", "model.txt", "--seed", "4"]
    inside, module = tmp_path / "in_process", tmp_path / "module"
    inside.mkdir()
    module.mkdir()
    monkeypatch.chdir(inside)
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert _run(["-m", "lula_lab.cli", *argv], cwd=module) == stdout != b""
    for name in ("model.txt", "model_history.csv"):
        assert (module / name).read_bytes() == (inside / name).read_bytes()
