"""Suite-wide guard: tests never touch the repo tree.

The committed bench artifacts (``BENCH_*``, ``ADAPT_COVERAGE.json``)
are baselines the regression sentinel reads; a test that inherits a
CLI default such as ``--trajectory BENCH_TRAJECTORY.jsonl`` silently
rewrites them.  Snapshot their bytes at session start and fail the run
if any differ at the end.
"""

from pathlib import Path

import pytest

_ROOT = Path(__file__).parent


def _artifacts() -> dict[Path, bytes]:
    paths = [*_ROOT.glob("BENCH_*"), _ROOT / "ADAPT_COVERAGE.json"]
    return {p: p.read_bytes() for p in paths if p.is_file()}


@pytest.fixture(scope="session", autouse=True)
def _bench_artifacts_untouched():
    before = _artifacts()
    yield
    after = _artifacts()
    changed = sorted(
        p.name for p in before.keys() | after.keys()
        if before.get(p) != after.get(p)
    )
    assert not changed, (
        f"the test run modified committed bench artifacts: {changed} "
        f"(pass an explicit tmp_path --out/--trajectory instead)"
    )
