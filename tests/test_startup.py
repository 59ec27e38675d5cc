"""What a process loads before its command runs.

``repro/__init__.py`` imports nothing, ``repro.cli`` loads each
command's packages inside that command, and the serving stack names the
synthetic world and the Tele-KG only as annotations.  This test process
has long since imported everything, so each check runs in a fresh
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def _loaded_after(statement: str) -> list[str]:
    """Modules in ``sys.modules`` after ``statement`` in a new process."""
    result = _run(f"{statement}\nimport json, sys\n"
                  "print(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _under(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_repro_loads_no_subpackage_and_no_numpy():
    loaded = _loaded_after("import repro")
    assert _under(loaded, "repro") == ["repro"]
    assert "numpy" not in loaded


def test_cli_help_runs_without_numpy():
    result = _run("import runpy, sys\n"
                  "sys.modules['numpy'] = None\n"
                  "sys.argv = ['repro', '--help']\n"
                  "runpy.run_module('repro', run_name='__main__')")
    assert result.returncode == 0, result.stderr
    assert "serve-net" in result.stdout


def test_lint_command_runs_without_numpy():
    result = _run("import sys\n"
                  "sys.modules['numpy'] = None\n"
                  "from repro.cli import main\n"
                  "sys.exit(main(['lint', '--list-rules']))")
    assert result.returncode == 0, result.stderr


def test_bench_list_loads_no_linter():
    loaded = _loaded_after("from repro.cli import main\n"
                           "assert main(['bench', 'list']) == 0")
    assert _under(loaded, "repro.bench")
    assert _under(loaded, "repro.lint") == []


def test_training_runtime_loads_no_serving_module():
    loaded = _loaded_after("import repro.training.runtime")
    assert _under(loaded, "repro.serving") == []


def test_training_runtime_loads_no_named_shared_memory():
    loaded = _loaded_after("import repro.training.runtime")
    assert "multiprocessing.shared_memory" not in loaded
    assert "secrets" not in loaded


def test_serving_stack_loads_no_world_kg_or_experiments():
    loaded = _loaded_after("import repro.serving, repro.netserve")
    for package in ("repro.world", "repro.kg", "repro.corpus",
                    "repro.experiments", "repro.evaluation", "repro.tasks",
                    "networkx"):
        assert _under(loaded, package) == [], package


def test_world_episodes_and_kg_run_without_networkx():
    result = _run(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.kg import build_tele_kg\n"
        "from repro.world import TelecomWorld\n"
        "world = TelecomWorld.generate(seed=0, alarms_per_theme=2,\n"
        "                              kpis_per_theme=2, topology_nodes=6)\n"
        "episodes = world.simulate_episodes(3)\n"
        "kg = build_tele_kg(world)\n"
        "print(len(episodes), world.topology.num_edges > 0)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["3", "True"]
