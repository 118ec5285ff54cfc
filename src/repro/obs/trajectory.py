"""Bench trajectory store: append-only JSONL history of bench runs.

The ``BENCH_*.json`` files are *snapshots* — each run overwrites the
last, so "did this PR make anything slower?" cannot be answered from
them alone.  The trajectory store keeps every run: one
JSON line per bench report, stamped with a schema version, the
recording time, and an environment fingerprint (repro/python/numpy
versions, best-effort git SHA, and calibrate-style machine probes), so
entries remain attributable and comparable months later.

The store is deliberately dumb and robust: append-only writes under an
exclusive lock, reads that skip corrupt lines instead of failing, and
filters by ``kind`` (a bench family of :data:`repro.obs.compare.FAMILIES`)
and smoke flag.  The regression sentinel (:mod:`repro.obs.compare`)
uses it both as a baseline source (latest compatible entry) and as the
noise model for its wall-clock tolerance band; an entry stamped
``"ok": false`` (the run failed its own gates) serves as neither.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import threading
import time
from hashlib import sha256
from typing import List, Optional

__all__ = [
    "DEFAULT_TRAJECTORY_PATH",
    "TRAJECTORY_SCHEMA",
    "TrajectoryStore",
    "env_digest",
    "environment_fingerprint",
    "git_sha",
]

#: where the CLI appends bench runs unless told otherwise
DEFAULT_TRAJECTORY_PATH = "BENCH_TRAJECTORY.jsonl"

#: schema stamp on every trajectory entry
TRAJECTORY_SCHEMA = "repro-trajectory/1"

_append_lock = threading.Lock()


def git_sha(short: bool = True) -> Optional[str]:
    """Best-effort git SHA of the working tree this package runs from.

    Returns ``None`` when git is unavailable, the package is not inside
    a repository, or the lookup takes too long — a bench run must never
    fail because of provenance stamping.
    """
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(
            cmd,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def _probe_machine() -> dict:
    """Calibrate-style micro-probes: rough compute and memory rates.

    Small fixed-size numpy operations, timed once — enough to tell two
    machine classes apart in the trajectory (a laptop vs a CI runner),
    cheap enough (< ~50 ms) to run on every bench invocation.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    n = 192
    a = rng.normal(size=(n, n))
    t0 = time.perf_counter()
    a @ a
    dt = time.perf_counter() - t0
    flop_rate = (2.0 * n**3 / dt) if dt > 0 else float("inf")

    buf = rng.normal(size=1 << 20)  # 8 MiB of float64
    t0 = time.perf_counter()
    buf.copy()
    dt = time.perf_counter() - t0
    copy_rate = (buf.nbytes / dt) if dt > 0 else float("inf")
    return {
        "cpus": os.cpu_count(),
        "matmul_gflops": round(flop_rate / 1e9, 3),
        "copy_gbps": round(copy_rate / 1e9, 3),
    }


def environment_fingerprint(probe: bool = True) -> dict:
    """The provenance stamp attached to every bench report and
    trajectory entry.

    ``probe=False`` skips the timed machine micro-probes (for cheap
    callers like ``/healthz`` that only need the version facts).
    """
    import numpy as np

    from .. import __version__

    env = {
        "repro": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "arch": platform.machine(),
        "platform": platform.platform(),
        "hostname": platform.node(),
    }
    if probe:
        env["machine"] = _probe_machine()
    return env


def env_digest(env: dict) -> str:
    """Stable digest of the *identity* half of an environment
    fingerprint — the key the sentinel groups trajectory entries by
    when modeling wall-clock noise (numbers from different machine
    classes never share a band).

    The identity is what changes the numbers: the python and numpy
    versions, the OS and CPU architecture, and the CPU count.  The
    kernel build, hostname, ``repro`` version and git SHA are
    annotations: a VM's kernel tag changes between otherwise equal
    sessions, and comparing across versions is what a trajectory is
    for.  Entries recorded before ``system``/``arch`` were stamped get
    both from their ``platform`` string."""
    plat = env.get("platform") or ""
    stable = {
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "system": env.get("system", plat.split("-")[0] or None),
        "arch": env.get("arch", plat.split("-with-")[0].rsplit("-", 1)[-1]
                        if plat else None),
        "cpus": (env.get("machine") or {}).get("cpus"),
    }
    blob = json.dumps(stable, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


class TrajectoryStore:
    """Append-only JSONL history of bench runs.

    One line per run::

        {"schema": "repro-trajectory/1", "kind": "perf",
         "recorded_at": <unix seconds>, "env": {...}, "env_digest": ...,
         "ok": <the run passed its own gates>,
         "report": {... the full BENCH_*.json document ...}}
    """

    def __init__(self, path: str = DEFAULT_TRAJECTORY_PATH):
        self.path = str(path)

    # -- writing -----------------------------------------------------------
    def append(self, kind: str, report: dict, env: dict | None = None,
               ok: bool = True) -> dict:
        """Append one bench report; returns the stored entry."""
        from .compare import FAMILIES

        if kind not in FAMILIES:
            raise ValueError(
                f"kind must be one of {tuple(FAMILIES)}, got {kind!r}"
            )
        env = env if env is not None else report.get("env") or {}
        entry = {
            "schema": TRAJECTORY_SCHEMA,
            "kind": kind,
            "recorded_at": time.time(),
            "env": env,
            "env_digest": env_digest(env),
            "ok": bool(ok),
            "report": report,
        }
        line = json.dumps(entry, sort_keys=True)
        with _append_lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return entry

    # -- reading -----------------------------------------------------------
    def entries(
        self,
        kind: str | None = None,
        smoke: bool | None = None,
    ) -> List[dict]:
        """Every stored entry (oldest first), skipping corrupt lines.

        ``kind`` filters by bench family; ``smoke`` by the report's
        smoke flag (smoke and full-size runs are never comparable).
        """
        if not os.path.exists(self.path):
            return []
        out: List[dict] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn/corrupt line is skipped, not fatal
                if not isinstance(entry, dict) or "report" not in entry:
                    continue
                if kind is not None and entry.get("kind") != kind:
                    continue
                if smoke is not None:
                    if bool(entry["report"].get("smoke")) != bool(smoke):
                        continue
                out.append(entry)
        return out

    def latest(
        self, kind: str | None = None, smoke: bool | None = None
    ) -> Optional[dict]:
        """The most recent matching entry that passed its own gates
        (entries without an ``ok`` stamp count as ok), or ``None``."""
        passed = [e for e in self.entries(kind, smoke) if e.get("ok", True)]
        return passed[-1] if passed else None

    def __len__(self) -> int:
        return len(self.entries())

    # -- noise model -------------------------------------------------------
    def wall_samples(
        self,
        bench: str,
        *,
        smoke: bool | None = None,
        size: dict | None = None,
        env_key: str | None = None,
        field: str = "vectorized_seconds",
    ) -> List[float]:
        """Historical wall-clock samples for one perf bench.

        Only entries whose bench ``size`` matches (when given) are
        comparable; ``env_key`` further restricts to one machine class,
        by the digest of each entry's ``env`` as :func:`env_digest`
        computes it now (not the one stamped when it was recorded).
        """
        samples: List[float] = []
        for entry in self.entries(kind="perf", smoke=smoke):
            if not entry.get("ok", True):
                continue  # a failed run's timings are not noise samples
            if env_key is not None \
                    and env_digest(entry.get("env") or {}) != env_key:
                continue
            for b in entry["report"].get("benches", ()):
                if b.get("name") != bench:
                    continue
                if size is not None and b.get("size") != size:
                    continue
                value = b.get(field)
                if isinstance(value, (int, float)):
                    samples.append(float(value))
        return samples

    def noise_band(
        self,
        bench: str,
        *,
        smoke: bool | None = None,
        size: dict | None = None,
        env_key: str | None = None,
        field: str = "vectorized_seconds",
        sigmas: float = 3.0,
        min_samples: int = 3,
    ) -> Optional[float]:
        """Upper tolerance bound (seconds) for one bench's wall clock.

        ``mean + sigmas * std`` over the comparable history — ``None``
        when fewer than ``min_samples`` comparable samples exist (the
        sentinel then falls back to a relative tolerance)."""
        samples = self.wall_samples(
            bench, smoke=smoke, size=size, env_key=env_key, field=field
        )
        if len(samples) < min_samples:
            return None
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        return mean + sigmas * (var**0.5)
