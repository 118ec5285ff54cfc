"""Shared plumbing of the end-to-end benchmark: clocks, percentiles,
the in-memory span recorder and its self-time table, resource and
environment stamps, and the scratch directory child processes run in.

Nothing here imports ``repro`` — ``run.py`` decides when that import
happens so its cost lands in ``setup_s`` and not in module load.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: scratch space for child-process cwd, incident dumps and trace files;
#: inside the checkout (the benchmark contract forbids writing
#: elsewhere) and listed in .gitignore (the tree stays clean)
WORK = HERE / ".work"

#: environment every child inherits — single-threaded BLAS, fixed hash
#: seed and a fixed terminal width (argparse wraps --help to COLUMNS)
NOISE_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "COLUMNS": "80",
}

now_ns = time.perf_counter_ns


# -- statistics --------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Quantile ``q`` in [0, 1] by linear interpolation between the
    order statistics bracketing rank ``q * (n - 1)``."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of no samples")
    rank = q * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def timed_ms(fn, reps: int) -> list[float]:
    """Wall milliseconds of ``reps`` calls of ``fn`` (results dropped)."""
    out = []
    for _ in range(reps):
        t0 = now_ns()
        fn()
        out.append((now_ns() - t0) / 1e6)
    return out


def median_ms(fn, reps: int) -> float:
    return median(timed_ms(fn, reps))


# -- span recorder -----------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The recorder of an untraced run: ``span`` costs one call."""

    tracing = False

    def span(self, name: str):
        return _NULL_SPAN

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        pass

    def next_op(self) -> None:
        pass


class _Span:
    __slots__ = ("rec", "idx")

    def __init__(self, rec: "Recorder", idx: int):
        self.rec = rec
        self.idx = idx

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.idx][2] = now_ns()
        rec._stack.pop()
        return False


class Recorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent, op, tid]``.

    One recorder per client thread (the stack is not shared); spans of
    one op share ``op``, the index the workload loop advances with
    :meth:`next_op`.  ``parent`` is the index of the enclosing span in
    this recorder's list, or -1 for an op's root span.
    """

    tracing = True

    def __init__(self, tid: int = 0):
        self.tid = tid
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, now_ns(), 0, parent, self.op, self.tid])
        self._stack.append(idx)
        return _Span(self, idx)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an already-measured interval (a child process's own
        stamps) under the currently open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.op, self.tid])

    def next_op(self) -> None:
        self.op += 1


def self_time_table(recorders: list[Recorder]) -> dict:
    """Mean self time per op, by span name and by layer (the span-name
    prefix before the first dot).  A span's self time is its duration
    minus its direct children's; the op's root span belongs to the
    harness, so its self time is the ``unattributed`` remainder and
    either set of rows sums to the mean op time exactly."""
    by_span: dict[str, float] = {}
    ops = 0
    total_ns = 0
    for rec in recorders:
        child_ns = [0] * len(rec.spans)
        for _name, start, end, parent, _op, _tid in rec.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _op, _tid) in enumerate(rec.spans):
            if parent < 0:
                ops += 1
                total_ns += end - start
                name = "unattributed"
            by_span[name] = by_span.get(name, 0.0) + (end - start) - child_ns[i]
    if not ops:
        return {"ops": 0, "op_ms": 0.0, "by_span": {}, "by_layer": {}}
    by_span = {k: v / ops / 1e6 for k, v in sorted(by_span.items())}
    by_layer: dict[str, float] = {}
    for name, ms in by_span.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + ms
    return {"ops": ops, "op_ms": total_ns / ops / 1e6,
            "by_span": by_span, "by_layer": by_layer}


def chrome_trace(recorders: list[Recorder]) -> dict:
    """The spans as a ``chrome://tracing`` / Perfetto document."""
    events = []
    for rec in recorders:
        for name, start, end, _parent, op, tid in rec.spans:
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "args": {"op": op},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def format_self_time(name: str, table: dict) -> str:
    op_ms = table["op_ms"]
    lines = [f"self time per op — {name} ({table['ops']} traced ops, "
             f"op {op_ms:.3f} ms):"]
    for title, rows in (("by layer", table["by_layer"]),
                        ("by span", table["by_span"])):
        lines.append(f"  {title}:")
        for key, ms in sorted(rows.items(), key=lambda kv: -kv[1]):
            share = ms / op_ms if op_ms else 0.0
            lines.append(f"    {key:28s} {ms:10.3f} ms  {share:6.1%}")
        lines.append(f"    {'sum':28s} {sum(rows.values()):10.3f} ms")
    return "\n".join(lines)


# -- resources and environment ----------------------------------------------


def peak_rss_mb() -> float:
    """Max RSS of this process plus the largest waited-for child, MB
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _src_lines() -> int | None:
    try:
        return sum(
            sum(1 for _ in open(p, "rb")) for p in SRC.rglob("*.py")
        )
    except OSError:
        return None


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def env_stamp() -> dict:
    """Provenance attached to every report."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
        "load1": round(load1, 2),
        "load_warning": (
            f"1-minute load {load1:.2f} exceeds nproc={nproc}: timings "
            f"are contended" if load1 > nproc else None
        ),
    }


# -- child processes ---------------------------------------------------------


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(NOISE_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_INCIDENT_DIR"] = str(workdir)
    env.pop("REPRO_OBS", None)
    # children cache bytecode as an installed package would (sandboxes
    # often set this; recompiling src/ on every cold start is ~20% of
    # `import repro` and not what a user pays)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@contextmanager
def scratch_dir():
    """A private directory under ``.work`` for one run, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_child(argv: list[str], workdir: Path, timeout: float = 120.0):
    """Run ``python <argv>`` to completion in ``workdir``; returns
    ``(returncode, stdout bytes, stderr bytes)``."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=workdir, env=child_env(workdir),
        stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants (Linux): a
    grandchild whose parent dies re-parents here instead of to init, so
    :func:`stop_children` sees it."""
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still swept


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat") as fh:
                    # "pid (comm) state ppid ..."; comm may hold spaces
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # gone between the listing and the read
            if ppid == me:
                out.append(int(entry.name))
    return out


def stop_children(grace: float = 3.0) -> list[int]:
    """Stop every process this one started and wait until each has
    ended; returns the pids that had to be signalled.  Called on every
    path out of ``run.py``: the benchmark must leave nothing running.

    ``multiprocessing`` starts a resource tracker with the first shared
    memory block and leaves it to notice its parent's exit — that is,
    to outlive the run — so it is shut down by name first."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it
    if not os.path.isdir("/proc"):
        return []
    signalled: set[int] = set()
    deadline = time.monotonic() + grace
    while True:
        alive = []
        for pid in child_pids():
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    alive.append(pid)
            except ChildProcessError:
                pass  # reaped elsewhere
        if not alive:
            return sorted(signalled)
        for pid in alive:
            if pid not in signalled or time.monotonic() > deadline:
                sig = signal.SIGTERM if pid not in signalled else signal.SIGKILL
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                signalled.add(pid)
        time.sleep(0.02)


def dump_json(doc, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
