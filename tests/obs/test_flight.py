"""The always-on flight recorder: bounded notes, torn-record safety
under concurrency, incident assembly, and the serve/session wiring."""

import json
import os
import threading

import pytest

import repro.obs as obs
from repro.obs import metrics as m
from repro.obs.flight import INCIDENT_SCHEMA, FlightRecorder, flight_recorder
from repro.obs.tracing import clear_spans, request_scope, span


@pytest.fixture(autouse=True)
def clean_recorder():
    flight_recorder.reset()
    yield
    flight_recorder.reset()


# -- notes -------------------------------------------------------------------


def test_note_round_trip():
    rec = FlightRecorder(capacity=8)
    rec.note("unit.test", route="/x", status=200)
    (note,) = rec.notes()
    assert note["kind"] == "unit.test"
    assert note["route"] == "/x" and note["status"] == 200
    assert note["seq"] == 1 and note["t"] > 0 and note["thread"]


def test_capacity_bounds_memory():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.note("n", i=i)
    notes = rec.notes()
    assert len(notes) == 4
    assert [n["i"] for n in notes] == [6, 7, 8, 9]  # last-N, oldest first
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_notes_filter_by_kind_and_are_copies():
    rec = FlightRecorder()
    rec.note("a", x=1)
    rec.note("b", x=2)
    notes = rec.notes(kind="a")
    assert [n["kind"] for n in notes] == ["a"]
    notes[0]["x"] = 999  # mutating the copy must not touch the stored note
    assert rec.notes(kind="a")[0]["x"] == 1


def test_recording_works_with_observability_off():
    prev = m.set_enabled(False)
    try:
        rec = FlightRecorder()
        rec.note("dark", ok=True)
        assert rec.notes(kind="dark")
        incident = rec.incident("dark failure", error=ValueError("boom"))
        assert incident["error"]["type"] == "ValueError"
    finally:
        m.set_enabled(prev)


def test_concurrent_writers_and_dumper_see_whole_records():
    """N writer threads race a dumper; every observed record is whole
    (all fields present, fields mutually consistent) — no torn reads."""
    rec = FlightRecorder(capacity=256)
    n_writers, per_writer = 6, 200
    stop = threading.Event()
    torn = []

    def writer(wid):
        for i in range(per_writer):
            rec.note("w", writer=wid, i=i, check=wid * 100000 + i)

    def dumper():
        while not stop.is_set():
            for note in rec.notes(kind="w"):
                # a torn record would miss a field or break the invariant
                if set(note) < {"seq", "t", "thread", "kind", "writer",
                                "i", "check"}:
                    torn.append(("missing-fields", note))
                elif note["check"] != note["writer"] * 100000 + note["i"]:
                    torn.append(("inconsistent", note))

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(n_writers)]
    dump = threading.Thread(target=dumper)
    dump.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    dump.join()
    assert torn == []
    # sequence numbers are unique and the buffer holds the last capacity
    seqs = [n["seq"] for n in rec.notes()]
    assert len(seqs) == len(set(seqs)) == 256
    assert seqs == sorted(seqs)


# -- incidents ---------------------------------------------------------------


def test_incident_captures_ids_spans_and_error():
    prev = m.set_enabled(True)
    clear_spans()
    try:
        with request_scope() as rid:
            with span("stage.work", workload="adi"):
                pass
            try:
                raise RuntimeError("kaboom")
            except RuntimeError as exc:
                record = flight_recorder.incident(
                    "stage failed", error=exc, attrs={"stage": "work"}
                )
        assert record["schema"] == INCIDENT_SCHEMA
        assert record["request_id"] == rid
        assert record["trace_id"] == rid
        assert record["reason"] == "stage failed"
        assert record["attrs"] == {"stage": "work"}
        assert record["error"]["type"] == "RuntimeError"
        assert "kaboom" in record["error"]["traceback"]
        assert [s["name"] for s in record["spans"]] == ["stage.work"]
        assert flight_recorder.last_incident() is record
        # the incident also leaves a note in the stream
        (note,) = flight_recorder.notes(kind="incident")
        assert note["incident_id"] == record["incident_id"]
    finally:
        clear_spans()
        m.set_enabled(prev)


def test_incident_ids_bound_even_with_metrics_off():
    prev = m.set_enabled(False)
    try:
        with request_scope() as rid:
            record = flight_recorder.incident("dark crash")
        assert record["request_id"] == rid
    finally:
        m.set_enabled(prev)


def test_incident_dumps_json_file(tmp_path):
    record = flight_recorder.incident(
        "disk test", error=ValueError("x"), dump_dir=str(tmp_path)
    )
    path = record["dumped_to"]
    assert os.path.dirname(path) == str(tmp_path)
    doc = json.loads(open(path).read())
    assert doc["incident_id"] == record["incident_id"]
    assert doc["reason"] == "disk test"


def test_incident_dump_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_INCIDENT_DIR", str(tmp_path / "incidents"))
    record = flight_recorder.incident("env test")
    assert os.path.exists(record["dumped_to"])


def test_incident_dump_failure_never_raises(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    record = flight_recorder.incident("crash site", dump_dir=str(blocker))
    assert "dumped_to" not in record  # swallowed, not raised
    assert flight_recorder.last_incident() is record


def test_obs_reset_clears_recorder_state():
    flight_recorder.note("stale")
    flight_recorder.incident("stale incident")
    obs.reset()
    assert flight_recorder.notes() == []
    assert flight_recorder.incidents() == []
    assert flight_recorder.last_incident() is None


# -- the serve wiring --------------------------------------------------------


@pytest.fixture
def service():
    from repro.serve.service import PlanningService

    prev = m.enabled()
    svc = PlanningService(max_idle_sessions=1)
    yield svc
    svc.close()
    m.set_enabled(prev)
    obs.reset()


def test_forced_500_dumps_incident_with_request_ids(service):
    def boom():
        raise RuntimeError("synthetic 500")

    service._workloads = boom
    resp = service.dispatch("GET", "/workloads")
    assert resp.status == 500
    rid = resp.headers["X-Repro-Request-Id"]
    incident_id = resp.headers["X-Repro-Incident-Id"]
    record = flight_recorder.last_incident()
    assert record["incident_id"] == incident_id
    assert record["request_id"] == rid
    assert record["trace_id"] == rid
    assert record["error"]["type"] == "RuntimeError"
    assert record["attrs"]["route"] == "/workloads"
    # /healthz counts it
    health = service.dispatch("GET", "/healthz").json
    assert health["incidents"] == 1
    assert health["git_sha"] == service._env.get("git_sha")
    assert health["python"] and health["numpy"]


def test_stage_failure_incident_carries_finished_spans(service):
    import repro.planner.workloads as pw

    orig = pw.plan_workload

    def boom(*args, **kwargs):
        raise RuntimeError("planner exploded")

    pw.plan_workload = boom
    try:
        resp = service.dispatch(
            "POST", "/plan", b'{"workload": "adi", "size": 8}'
        )
    finally:
        pw.plan_workload = orig
    assert resp.status == 500
    record = flight_recorder.last_incident()
    # the session.plan span finished (exception path) before the dump
    assert "session.plan" in [s["name"] for s in record["spans"]]
    # two incidents: the stage wrapper's and the serve 500's
    reasons = [i["reason"] for i in flight_recorder.incidents()]
    assert "session.plan failed" in reasons
    assert any(r.startswith("serve 500") for r in reasons)


def test_every_request_leaves_a_note(service):
    service.dispatch("GET", "/healthz")
    notes = flight_recorder.notes(kind="serve.request")
    assert notes and notes[-1]["route"] == "/healthz"
    assert notes[-1]["status"] == 200
    assert notes[-1]["request_id"]
