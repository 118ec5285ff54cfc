#!/usr/bin/env python
"""Serve client: every endpoint, round-tripped against the CLI.

Starts the asyncio planning service in-process (or, with ``--url``,
talks to one already running via ``python -m repro serve``), walks a
single workload through every endpoint — ``/workloads``, ``/healthz``,
``/plan``, ``/run``, ``/trace``, ``/bench``, ``/stats`` — and then
proves the service/CLI consistency contract: the HTTP bodies of the
deterministic stages are **byte-identical** to what ``python -m repro
plan|run|trace --json`` prints for the same configuration (``run``
modulo the CLI-only ``verified_against_serial`` key).

Run:  python examples/serve_client.py [--url http://127.0.0.1:8642]
"""

import argparse
import json
import os
import subprocess
import sys
import urllib.request

from repro.serve import PlanningService, ServerThread

WORKLOAD = "adi"
SIZE, ITERATIONS = 32, 2
#: a parameter only this workload declares: the CLI's --strategy flag
#: and the service's strategy= key are built from the same table row
STRATEGY = "static_cols"


def fetch(url: str, payload: dict | None = None) -> tuple[dict, bytes]:
    """GET (payload=None) or POST one endpoint; returns (headers, body)."""
    req = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST",
    )
    with urllib.request.urlopen(req, timeout=120) as resp:
        return dict(resp.headers), resp.read()


def cli_json(*argv: str) -> bytes:
    """What ``python -m repro <argv> --json`` prints, as bytes."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--json"],
        check=True, capture_output=True, env=env,
    )
    return out.stdout.rstrip(b"\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None,
                        help="base URL of a running server (default: "
                             "start one in-process)")
    args = parser.parse_args()

    server = None
    if args.url is None:
        server = ServerThread(PlanningService()).start()
    base = (args.url or server.url).rstrip("/")
    print(f"talking to {base}")

    try:
        # -- the read-only endpoints ------------------------------------
        _, body = fetch(f"{base}/healthz")
        print(f"/healthz   -> ok, version {json.loads(body)['version']}")
        _, body = fetch(f"{base}/workloads")
        names = [w["name"] for w in json.loads(body)["workloads"]]
        print(f"/workloads -> {', '.join(names)}")

        # -- every stage for one workload -------------------------------
        request = {"workload": WORKLOAD, "size": SIZE,
                   "iterations": ITERATIONS, "strategy": STRATEGY}
        headers, plan_body = fetch(f"{base}/plan", request)
        print(f"/plan      -> {len(plan_body)} bytes "
              f"(cache {headers['X-Repro-Cache']})")
        headers, run_body = fetch(f"{base}/run", request)
        print(f"/run       -> headline {json.loads(run_body)['headline']!r}")
        headers, trace_body = fetch(f"{base}/trace", request)
        print(f"/trace     -> {len(json.loads(trace_body)['events'])} events")
        _, bench_body = fetch(f"{base}/bench", dict(request, repeats=1))
        print(f"/bench     -> {json.loads(bench_body)['repeats']} repeat(s)")
        _, stats = fetch(f"{base}/stats")
        stats = json.loads(stats)
        print(f"/stats     -> sessions {stats['sessions']['created']} created"
              f" / {stats['sessions']['reused']} reused, response cache "
              f"{stats['response_cache']['hits']} hit(s)")

        # -- the consistency contract: service bytes == CLI bytes --------
        flags = ("--size", str(SIZE), "--iterations", str(ITERATIONS),
                 "--strategy", STRATEGY)
        cli_plan = cli_json("plan", WORKLOAD, *flags)
        assert plan_body.rstrip(b"\n") == cli_plan, "/plan diverged from CLI"
        cli_trace = cli_json("trace", WORKLOAD, *flags)
        assert trace_body.rstrip(b"\n") == cli_trace, "/trace diverged from CLI"
        # the CLI's run report adds one CLI-only key (its serial
        # cross-check verdict); everything else must match exactly
        cli_run = json.loads(cli_json("run", WORKLOAD, *flags))
        cli_run.pop("verified_against_serial")
        assert json.loads(run_body) == cli_run, "/run diverged from CLI"
        print("service responses are byte-identical to the CLI --json output")

        # -- and a replay is a cache hit, byte-for-byte ------------------
        headers, again = fetch(f"{base}/plan", request)
        assert headers["X-Repro-Cache"] == "hit"
        assert again == plan_body
        print("replayed /plan: cache hit, identical bytes")
    finally:
        if server is not None:
            server.stop()


if __name__ == "__main__":
    main()
