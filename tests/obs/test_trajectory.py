"""The bench trajectory store: provenance stamps, append-only JSONL,
corrupt-line robustness, and the wall-clock noise model."""

import json
import threading

import pytest

from repro import __version__
from repro.obs.trajectory import (
    TRAJECTORY_SCHEMA,
    TrajectoryStore,
    env_digest,
    environment_fingerprint,
    git_sha,
)


def _perf_report(smoke=True, seconds=0.001, elements=100, size=None):
    return {
        "schema": "repro-bench-perf/2",
        "smoke": smoke,
        "env": {"repro": __version__, "python": "3.11", "numpy": "2.0",
                "platform": "test", "hostname": "test"},
        "benches": [
            {
                "name": "forall",
                "size": size or {"n": 8},
                "vectorized_seconds": seconds,
                "reference_ops": {"elements": elements},
                "vectorized_ops": {"elements": elements},
                "match": True,
            }
        ],
    }


# -- environment fingerprint -------------------------------------------------


def test_fingerprint_has_version_facts():
    env = environment_fingerprint(probe=False)
    assert env["repro"] == __version__
    assert env["python"] and env["numpy"] and env["platform"]
    assert "machine" not in env  # probe=False skips the timed probes


def test_fingerprint_probe_measures_machine():
    env = environment_fingerprint(probe=True)
    probe = env["machine"]
    assert probe["cpus"] >= 1
    assert probe["matmul_gflops"] > 0
    assert probe["copy_gbps"] > 0


def test_git_sha_best_effort():
    # in this repo it resolves; the contract is "str or None", never raise
    sha = git_sha()
    assert sha is None or (isinstance(sha, str) and len(sha) >= 7)


def test_env_digest_ignores_timing_probes():
    env = environment_fingerprint(probe=False)
    probed = dict(env, machine={"matmul_gflops": 1.0})
    assert env_digest(env) == env_digest(probed)
    other = dict(env, python="2.7.0")
    assert env_digest(env) != env_digest(other)


def test_env_digest_is_the_machine_class_not_the_build():
    """Kernel build tag, hostname, version and git SHA annotate an
    entry; python, numpy, OS, architecture and CPU count identify it."""
    env = {"repro": "1.10.0", "git_sha": "a7126f1", "python": "3.11.7",
           "numpy": "2.4.6", "hostname": "vm",
           "platform": "Linux-6.18.44-fc-v50-x86_64-with-glibc2.36",
           "machine": {"cpus": 2, "matmul_gflops": 30.0}}
    rebuilt = dict(env, repro="1.11.0", git_sha="93e825e", hostname="other",
                   platform="Linux-6.18.44-fc-v130-x86_64-with-glibc2.36",
                   system="Linux", arch="x86_64",
                   machine={"cpus": 2, "matmul_gflops": 20.0})
    assert env_digest(env) == env_digest(rebuilt)
    assert env_digest(env) != env_digest(dict(env, python="3.12.1"))
    assert env_digest(env) != env_digest(dict(env, machine={"cpus": 1}))
    assert env_digest(env) != env_digest(dict(rebuilt, arch="aarch64"))


def test_wall_samples_recompute_each_entrys_digest(tmp_path):
    """Rows stamped under the old identity (kernel build, version and
    hostname in the digest) still find each other."""
    path = tmp_path / "traj.jsonl"
    store = TrajectoryStore(path)
    for tag, seconds in (("v42", 0.010), ("v50", 0.012), ("v130", 0.011)):
        report = _perf_report(seconds=seconds)
        report["env"] = dict(report["env"],
                             platform=f"Linux-6.18-fc-{tag}-x86_64-with-glibc2.36",
                             machine={"cpus": 2})
        entry = store.append("perf", report)
        entry["env_digest"] = f"stale-{tag}"
        with open(path, "a") as fh:
            fh.write(json.dumps(entry) + "\n")
    key = env_digest(store.entries()[-1]["env"])
    assert len(store.wall_samples("forall", env_key=key)) == 6
    assert store.noise_band("forall", env_key=key) is not None


# -- store round trips -------------------------------------------------------


def test_append_and_read_back(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    entry = store.append("perf", _perf_report())
    assert entry["schema"] == TRAJECTORY_SCHEMA
    assert entry["kind"] == "perf"
    assert entry["env_digest"]
    (read,) = store.entries()
    assert read["report"]["benches"][0]["name"] == "forall"
    assert len(store) == 1


def test_append_rejects_unknown_kind(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    with pytest.raises(ValueError, match="kind"):
        store.append("bogus", _perf_report())


def test_filters_by_kind_and_smoke(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _perf_report(smoke=True))
    store.append("perf", _perf_report(smoke=False))
    store.append("serve", {"schema": "repro-bench-serve/2", "smoke": True})
    assert len(store.entries(kind="perf")) == 2
    assert len(store.entries(kind="serve")) == 1
    assert len(store.entries(kind="perf", smoke=True)) == 1
    assert store.latest(kind="perf", smoke=False)["report"]["smoke"] is False
    assert store.latest(kind="serve", smoke=False) is None


def test_corrupt_lines_are_skipped_not_fatal(tmp_path):
    path = tmp_path / "traj.jsonl"
    store = TrajectoryStore(path)
    store.append("perf", _perf_report())
    with open(path, "a") as fh:
        fh.write("{torn json li\n")
        fh.write("42\n")  # parses but is not an entry
        fh.write("\n")
    store.append("perf", _perf_report())
    assert len(store.entries(kind="perf")) == 2


def test_missing_file_reads_empty(tmp_path):
    store = TrajectoryStore(tmp_path / "never-written.jsonl")
    assert store.entries() == []
    assert store.latest() is None


def test_concurrent_appends_no_torn_lines(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    n_threads, per_thread = 8, 10

    def writer(i):
        for j in range(per_thread):
            store.append("perf", _perf_report(seconds=i + j / 100))

    threads = [threading.Thread(target=writer, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # every line parses (no interleaved writes) and every entry survived
    with open(store.path) as fh:
        for line in fh:
            json.loads(line)
    assert len(store.entries()) == n_threads * per_thread


# -- the noise model ---------------------------------------------------------


def test_wall_samples_filter_on_size_and_env(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _perf_report(seconds=0.010, size={"n": 8}))
    store.append("perf", _perf_report(seconds=0.012, size={"n": 8}))
    store.append("perf", _perf_report(seconds=9.0, size={"n": 64}))
    assert store.wall_samples("forall", size={"n": 8}) == [0.010, 0.012]
    assert store.wall_samples("forall", size={"n": 64}) == [9.0]
    assert store.wall_samples("forall", env_key="not-this-machine") == []
    assert store.wall_samples("nosuchbench") == []


def test_noise_band_needs_min_samples(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _perf_report(seconds=0.010))
    store.append("perf", _perf_report(seconds=0.012))
    assert store.noise_band("forall") is None  # < 3 samples
    store.append("perf", _perf_report(seconds=0.011))
    band = store.noise_band("forall")
    # mean + 3 sigma: above every sample, but not absurdly so
    assert 0.012 < band < 0.02


def test_noise_band_zero_variance(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    for _ in range(3):
        store.append("perf", _perf_report(seconds=0.010))
    assert store.noise_band("forall") == pytest.approx(0.010)


# -- runs that failed their own gates ------------------------------------------


def test_failed_entries_are_neither_baseline_nor_noise_sample(tmp_path):
    store = TrajectoryStore(tmp_path / "traj.jsonl")
    store.append("perf", _perf_report(seconds=0.010, elements=1))
    store.append("perf", _perf_report(seconds=9.0, elements=2), ok=False)
    assert [e["ok"] for e in store.entries()] == [True, False]
    assert store.latest(kind="perf")["report"]["benches"][0][
        "reference_ops"] == {"elements": 1}
    assert store.wall_samples("forall") == [0.010]
    # entries written before the stamp existed count as ok
    legacy = {k: v for k, v in store.entries()[1].items() if k != "ok"}
    with open(store.path, "a") as fh:
        fh.write(json.dumps(legacy) + "\n")
    assert store.latest(kind="perf")["report"]["benches"][0][
        "reference_ops"] == {"elements": 2}


def test_a_run_that_fails_its_gates_cannot_become_the_baseline(tmp_path):
    """ROADMAP 1(b): the all-refused ``127.0.0.1:9`` load test used to
    be appended before ``--check`` ran and then resolved as the latest
    smoke ``serve`` baseline."""
    from repro.__main__ import main
    from repro.obs.compare import resolve_baseline

    path = tmp_path / "traj.jsonl"
    store = TrajectoryStore(path)
    good = {"schema": "repro-bench-serve/2", "smoke": True,
            "total_failures": 0, "byte_identical": True, "marker": "good"}
    store.append("serve", good)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--url", "http://127.0.0.1:9", "--clients", "1",
              "--rounds", "1", "--smoke", "--check", "--out", "",
              "--metrics-out", "", "--trajectory", str(path)])
    assert exc.value.code not in (0, None)
    failed = store.entries(kind="serve")[-1]
    assert failed["ok"] is False
    assert failed["report"]["total_failures"] > 0
    # nothing answered, so nothing was compared: null, not a vacuous true
    assert failed["report"]["byte_identical"] is None
    baseline, _ = resolve_baseline(
        {"smoke": True}, kind="serve", trajectory=store
    )
    assert baseline["marker"] == "good"
