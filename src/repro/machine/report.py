"""Human-readable machine reports.

The benches and examples read raw counters off the machine; this
module renders a simulated timeline for the ``trace`` command: a
per-processor busy/idle table and a one-paragraph makespan summary —
the kind of output the VFCS performance tools would surface to a
Vienna Fortran programmer deciding whether a redistribution pays for
itself.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING

from .machine import Machine

if TYPE_CHECKING:
    from ..sim.clock import Timeline

__all__ = ["timeline_table", "timeline_summary"]


# -- timeline-aware reports (discrete-event simulator) -----------------------

def timeline_table(timeline: "Timeline") -> str:
    """Per-processor busy/idle breakdown of a simulated timeline.

    The quantity the scalar accounting cannot show: how the makespan
    splits into compute, communication and idle time on *each*
    processor — the load-imbalance picture the paper's dynamic
    redistribution exists to fix.
    """
    out = io.StringIO()
    header = (
        f"{'rank':>4s} {'compute (ms)':>13s} {'comm (ms)':>10s} "
        f"{'wait (ms)':>10s} {'idle (ms)':>10s} {'util':>6s}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    span = timeline.makespan
    for p in timeline.procs:
        by_kind = p.busy_by_kind()
        compute = by_kind.get("compute", 0.0)
        comm = by_kind.get("comm", 0.0) + by_kind.get("post", 0.0)
        wait = by_kind.get("wait", 0.0)
        # the four columns partition the makespan: "wait" is idle time
        # with a recorded cause, "idle" the unattributed remainder
        idle = span - compute - comm - wait
        util = (compute + comm) / span if span > 0 else 1.0
        print(
            f"{p.rank:4d} {compute * 1e3:13.3f} {comm * 1e3:10.3f} "
            f"{wait * 1e3:10.3f} {idle * 1e3:10.3f} {util:6.2f}",
            file=out,
        )
    return out.getvalue().rstrip()


def timeline_summary(timeline: "Timeline", machine: Machine | None = None) -> str:
    """Max-clock makespan vs. summed-cost accounting, in one paragraph.

    Compares the timeline's makespan (maximum per-processor clock)
    against the total busy time divided by the processor count — the
    perfectly-balanced, perfectly-overlapped lower bound a summed
    aggregate cost would suggest — and, when ``machine`` is given, the
    machine's own aggregate clock for the same run.
    """
    m = timeline.metrics()
    balanced = m["total_busy"] / timeline.nprocs
    mode = "split-phase" if timeline.overlap else "blocking"
    parts = [
        f"{mode} makespan {m['makespan'] * 1e3:.3f} ms (max clock) vs "
        f"{balanced * 1e3:.3f} ms summed-cost bound "
        f"(total busy / {timeline.nprocs} procs)",
        f"idle {m['idle_time'] * 1e3:.3f} ms "
        f"({1 - m['efficiency']:.0%} of processor-seconds)",
        f"busy imbalance {m['imbalance']:.2f}x",
    ]
    if machine is not None:
        parts.append(f"machine aggregate clock {machine.time * 1e3:.3f} ms")
    return "; ".join(parts)
