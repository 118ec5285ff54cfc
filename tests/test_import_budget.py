"""The import budget: a cold process loads only what it runs.

Every case is a fresh interpreter and asserts on ``sys.modules``
membership -- exact, not timed, so it cannot flake.  Module counts are
taken over a bare ``python -c pass`` in the same environment, because
site ``.pth`` hooks load modules before any test code runs.  The package
``__init__``s are lazy export tables (``repro._lazy``); these tests
pin what that buys (``import repro`` is free, a CLI command pulls in
only its own layers) and what it must not break (the export surface,
whatever is imported first).
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).parents[1])

#: the four commands of the e2e benchmark's ``cli_cold`` workload
CLI_COLD = {
    "help": ["--help"],
    "plan": ["plan", "adi", "--size", "64", "--json"],
    "run": ["run", "adi", "--size", "64", "--iterations", "4", "--json"],
    "trace": ["trace", "pic", "--size", "64", "--steps", "20", "--json",
              "--compact"],
}

#: submodules that define an export of their own name
SHADOWED = (
    "repro.runtime.forall",
    "repro.compiler.optimize",
    "repro.api.session",
    "repro.sim.simulate",
    "repro.sim.critical_path",
)


def child(code: str, *argv: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return its ``sys.modules``
    names at exit (the last line of its stderr)."""
    code += ("\nimport sys; "
             "sys.stderr.write('\\n' + ' '.join(sorted(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, timeout=120,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stderr.rsplit("\n", 1)[1].split()


@functools.cache
def bare_start() -> list[str]:
    """What ``python -c pass`` loads here: site hooks included."""
    return child("pass")


def loaded(modules: list[str], *roots: str) -> list[str]:
    return [m for m in modules
            if any(m == r or m.startswith(r + ".") for r in roots)]


def test_import_repro_is_free():
    """The 60-module budget less the 33-module bare start it was set on."""
    modules = child("import repro")
    assert loaded(modules, "numpy", "networkx", "asyncio",
                  "multiprocessing") == []
    assert loaded(modules, "repro") == ["repro", "repro._lazy"]
    assert len(set(modules) - set(bare_start())) < 60 - 33


@pytest.mark.parametrize("command", sorted(CLI_COLD))
def test_cli_command_loads_only_its_own_layers(command):
    modules = child(
        "import sys, io, contextlib\n"
        "from repro.__main__ import main\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n",
        *CLI_COLD[command])
    assert loaded(modules, "networkx", "asyncio", "repro.serve",
                  "repro.adapt") == []
    # a serial stage never touches the worker fleet
    assert loaded(modules, "multiprocessing",
                  "repro.backend.multiprocess") == []
    # main() builds the flags of the command it runs, and nothing else:
    # the top-level help is the commands' names and help lines alone
    modules = sorted(set(modules) - set(bare_start()))
    if command == "help":
        assert loaded(modules, "numpy") == []
        assert loaded(modules, "repro") == [
            "repro", "repro.__main__", "repro._lazy"]
    else:
        assert loaded(modules, "repro.obs.compare", "repro.obs.trajectory",
                      "repro.perf", "subprocess") == []


def test_spawned_worker_imports_only_the_transport_tier():
    modules = child("import repro.backend.worker")
    assert loaded(modules, "repro.api", "repro.planner", "repro.apps",
                  "repro.runtime", "repro.machine") == []
    assert "numpy" in modules


@pytest.mark.parametrize("submodule", SHADOWED)
@pytest.mark.parametrize("first", ["submodule", "attribute"])
def test_export_shadowed_by_its_own_submodule(submodule, first):
    """``repro.runtime.forall`` is the function -- never the module the
    import system binds under the same name -- whichever of ``import
    repro.runtime.forall`` and the attribute access comes first."""
    package, name = submodule.rsplit(".", 1)
    steps = [f"import {submodule}", f"repro.{name}; {package}.{name}"]
    if first == "attribute":
        steps.reverse()
    child(
        f"import sys, repro, {package}\n"
        + "\n".join(steps) + "\n"
        f"import {submodule}\n"
        f"export = sys.modules[{submodule!r}].{name}\n"
        f"assert callable(export), export\n"
        f"assert {package}.{name} is export, {package}.{name}\n"
        f"assert repro.{name} is export, repro.{name}\n"
        f"from {package} import {name} as imported\n"
        f"assert imported is export, imported\n"
    )


def test_every_export_is_the_same_object_whatever_came_first():
    """Import every submodule of every package first, then walk every
    package's ``__all__``: only the deliberate module exports are
    modules, and the root re-exports are the subpackages' objects."""
    child(
        "import importlib, inspect, pkgutil, sys\n"
        "import repro\n"
        "packages = ['repro'] + ['repro.' + m.name for m in\n"
        "            pkgutil.iter_modules(repro.__path__) if m.ispkg]\n"
        "assert len(packages) == 15, packages\n"
        "for package in packages[1:]:\n"
        "    path = importlib.import_module(package).__path__\n"
        "    for m in pkgutil.iter_modules(path):\n"
        "        importlib.import_module(package + '.' + m.name)\n"
        "modules = set()\n"
        "for package in packages:\n"
        "    pkg = sys.modules[package]\n"
        "    for name in pkg.__all__:\n"
        "        value = getattr(pkg, name)\n"
        "        assert value is getattr(pkg, name)\n"
        "        if inspect.ismodule(value):\n"
        "            modules.add(value.__name__)\n"
        "        for sub in map(sys.modules.get, packages[1:]):\n"
        "            if (package == 'repro' and name in sub.__all__\n"
        "                    and name != 'Block'):\n"
        "                assert value is getattr(sub, name), name\n"
        "expected = {'repro.' + n for n in (\n"
        "    'adapt api apps backend compiler faults lang obs perf planner '\n"
        "    'serve sim backend.calibrate').split()}\n"
        "assert modules == expected, modules ^ expected\n"
    )


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(repro.__all__)
    for name, value in namespace.items():
        assert value is getattr(repro, name)


def test_dir_lists_every_export_before_it_is_resolved():
    for package in (repro, repro.obs, repro.sim):
        assert set(package.__all__) <= set(dir(package))
    assert "__version__" in dir(repro) and "__getattr__" in dir(repro)


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError,
                       match=r"'repro' has no attribute 'nope'"):
        repro.nope
    with pytest.raises(AttributeError,
                       match=r"'repro\.obs' has no attribute 'nope'"):
        repro.obs.nope
    assert not hasattr(repro, "nope")
    with pytest.raises(ImportError):
        exec("from repro.sim import nope", {})  # noqa: S102


def test_concurrent_first_access_resolves_one_object():
    """The serve thread pool resolves lazy names concurrently on a cold
    server: every thread must get the one object, wherever the import
    lock lets it in."""
    seen = child(
        "import sys, threading, json\n"
        "import repro\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def resolve():\n"
        "    barrier.wait()\n"
        "    seen.append((id(repro.PlanningService), id(repro.Engine),\n"
        "                 id(repro.metrics_registry)))\n"
        "old = sys.getswitchinterval()\n"
        "sys.setswitchinterval(1e-6)\n"
        "try:\n"
        "    threads = [threading.Thread(target=resolve) for _ in range(8)]\n"
        "    [t.start() for t in threads]\n"
        "    [t.join(60) for t in threads]\n"
        "finally:\n"
        "    sys.setswitchinterval(old)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert len(seen) == 8 and len(set(seen)) == 1, seen\n"
        "import repro.serve, repro.runtime, repro.obs\n"
        "assert repro.PlanningService is repro.serve.service.PlanningService\n"
        "assert repro.Engine is repro.runtime.engine.Engine\n"
        "assert repro.metrics_registry is repro.obs.metrics.registry\n"
    )
    assert "repro.serve.service" in seen


def test_irregular_without_networkx_fails_at_mesh_build_and_says_why():
    """networkx is imported where a mesh is built, so its absence is
    one clear error from the workload that needs it -- the registry,
    the CLI and every other workload are unaffected."""
    child(
        "import sys\n"
        "sys.modules['networkx'] = None  # what a missing package looks like\n"
        "import repro\n"
        "assert 'irregular' in repro.available_workloads()\n"
        "with repro.session(nprocs=2) as sess:\n"
        "    sess.workload('adi', size=8, iterations=1).run()\n"
        "    try:\n"
        "        sess.workload('irregular', size=16, steps=1).run()\n"
        "    except ImportError as exc:\n"
        "        assert 'irregular' in str(exc), exc\n"
        "        assert 'networkx' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError('ran without networkx')\n"
        "del sys.modules['networkx']\n"
    )
