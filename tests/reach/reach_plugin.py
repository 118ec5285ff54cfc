"""Reach recorder, pytest half (loaded through ``PYTEST_PLUGINS`` by
``sitecustomize`` when ``REPRO_REACH_DIR`` is set).

Tags the session -- and every process it starts -- ``tier1``, except a
run of ``benchmarks/bench_*.py`` files only, which is product surface.
Re-installs the hook before each test: a test that runs cProfile
replaces it, and every function called after that would read as never
called.
"""

import os

import sitecustomize


def pytest_configure(config):
    bench = config.args and all(
        os.path.basename(str(a)).startswith("bench_") for a in config.args)
    os.environ["REPRO_REACH_TAG"] = "product" if bench else "tier1"


def pytest_runtest_setup(item):
    sitecustomize.install()
