"""The parameter table (ISSUE 16): one declaration per knob, and every
surface — CLI flag, GET query, POST body, ``sess.workload`` keyword —
reaches every registered parameter with byte-identical JSON."""

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path
from urllib.parse import urlencode

import numpy as np
import pytest

import repro
from repro.__main__ import main
from repro.api import (
    REGISTRY, SESSION_FIELDS, STAGE_OPTIONS, ExecutionOutcome, Param,
    accepted_names, register_workload, resolve,
)
from repro.api.handles import WorkloadHandle
from repro.serve import PlanningService

ROOT = Path(__file__).parents[2]

# -- surface equality --------------------------------------------------------

#: small problems, so the sweep below stays fast; passed on every case
BASE = {"size": 16, "steps": 3, "iterations": 1}

#: one non-default value per registered parameter
NON_DEFAULT = {
    "adi": {"size": 12, "iterations": 3, "strategy": "static_cols"},
    "pic": {
        "size": 24, "steps": 4, "strategy": "static", "npart": 100,
        "drift": 0.01, "diffusion": 0.001, "rebalance_every": 2,
        "cluster_width": 0.1, "imbalance_threshold": 1.1,
    },
    "smoothing": {"size": 12, "steps": 2, "distribution": "blocks2d"},
    "irregular": {
        "size": 24, "steps": 2, "distribution": "block", "kind": "ring",
        "drift": 0.25,
    },
}


def stages_of(spec) -> list[str]:
    return (["plan"] * spec.plannable + ["run", "trace"]
            + ["adapt"] * spec.adaptable)


def cli_stdout(stage: str, workload: str, values: dict) -> str:
    """``main([... "--json"])`` stdout, every value spelled as a flag."""
    head = ["adapt", "--workload", workload] if stage == "adapt" \
        else [stage, workload]
    flags = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if value is True and name == "compact":
            flags.append(flag)  # the one switch
        else:
            flags += [flag, json.dumps(value) if isinstance(value, bool)
                      else str(value)]
    out = io.StringIO()
    with redirect_stdout(out):
        main([*head, *flags, "--json"])
    return out.getvalue()


def assert_surfaces_agree(service, stage, workload, params, fields=None):
    """CLI stdout == GET body == POST body == handle JSON for one
    request (``fields``: session fields / stage options)."""
    fields = dict(fields or {})
    request = {"workload": workload, **params, **fields}
    query = urlencode({k: v if isinstance(v, str) else json.dumps(v)
                       for k, v in request.items()})
    get = service.dispatch("GET", f"/{stage}?{query}")
    post = service.dispatch("POST", f"/{stage}", json.dumps(request))
    assert get.status == post.status == 200, (get.body, post.body)
    assert get.body == post.body
    assert (get.headers["X-Repro-Fingerprint"]
            == post.headers["X-Repro-Fingerprint"])

    cli = cli_stdout(stage, workload, {**params, **fields})
    session = {k: fields.pop(k) for k in ("nprocs", "cost_model", "backend")
               if k in fields}
    seed = {"seed": fields.pop("seed")} if "seed" in fields else {}
    with repro.session(**session) as sess:
        handle = sess.workload(workload, **params, **seed)
        assert getattr(handle, stage)(**fields).json_str() == get.body

    if stage == "run":  # the CLI's one extra key
        doc = json.loads(cli)
        assert doc.pop("verified_against_serial") is None
        cli = json.dumps(doc, indent=2) + "\n"
    assert cli == get.body + "\n"


@pytest.fixture(scope="module")
def service():
    with PlanningService(observability=False) as svc:
        yield svc


def test_non_default_table_covers_the_registry():
    assert {s.name: set(s.params) for s in REGISTRY} == {
        name: set(values) for name, values in NON_DEFAULT.items()}
    for spec in REGISTRY:
        for name, value in NON_DEFAULT[spec.name].items():
            assert value != spec.params[name].default


@pytest.mark.parametrize("workload, name", [
    (workload, name) for workload, values in NON_DEFAULT.items()
    for name in values])
def test_every_parameter_through_every_surface(service, workload, name):
    spec = REGISTRY.get(workload)
    params = {**spec.accepted(BASE), name: NON_DEFAULT[workload][name]}
    for stage in stages_of(spec):
        assert_surfaces_agree(service, stage, workload, params)


@pytest.mark.parametrize("stage, workload, fields", [
    ("plan", "adi", {"cost_mode": "simulated", "method": "greedy"}),
    ("plan", "smoothing", {"nprocs": 2, "cost_model": "iPSC/860", "seed": 3}),
    ("run", "adi", {"backend": "serial", "seed": 11}),
    ("trace", "pic", {"overlap": True, "compact": True, "nprocs": 2}),
    ("trace", "adi", {"overlap": False}),
    ("adapt", "irregular", {"mode": "balanced", "window": 2, "seed": 5}),
])
def test_stage_options_and_session_fields_through_every_surface(
        service, stage, workload, fields):
    params = REGISTRY.get(workload).accepted(BASE)
    assert_surfaces_agree(service, stage, workload, params, fields)


# -- a workload registered at test time --------------------------------------


@pytest.fixture
def toy():
    @register_workload("toy", defaults={
        "size": 8,                                   # shorthand for int
        "gain": Param(float, None, "output scale"),  # nullable: typed None
        "shape": Param(str, "flat", "profile", ("flat", "ramp")),
        "flip": Param(bool, False, "negate the result"),
    })
    def _toy(ctx):
        p = ctx.params
        values = np.arange(p["size"], dtype=float) if p["shape"] == "ramp" \
            else np.ones(p["size"])
        values = values * (p["gain"] if p["gain"] is not None else 1.0)
        return ExecutionOutcome(
            solution=-values if p["flip"] else values,
            headline={"total": float(values.sum())})

    yield REGISTRY.get("toy")
    REGISTRY.unregister("toy")


def test_registering_a_workload_adds_its_flags_and_query_keys(toy, service):
    """No edit to ``__main__`` or ``service``: the registration alone
    makes the parameters flags, query keys and typed keywords."""
    assert toy.defaults == {
        "size": 8, "gain": None, "shape": "flat", "flip": False}
    assert toy.params["size"] == Param(int, 8)
    params = {"size": 5, "gain": 2.5, "shape": "ramp", "flip": True}
    assert_surfaces_agree(service, "run", "toy", params)
    assert_surfaces_agree(service, "trace", "toy", params, {"compact": True})
    listed = {w["name"]: w for w in
              service.dispatch("GET", "/workloads").json["workloads"]}
    assert listed["toy"]["defaults"] == toy.defaults

    bad = service.dispatch("GET", "/run?workload=toy&shape=cone")
    assert bad.status == 400
    assert ("workload 'toy' parameter 'shape' expects one of "
            "('flat', 'ramp'), got 'cone'") in bad.json["error"]
    err = io.StringIO()
    with pytest.raises(SystemExit), redirect_stderr(err):
        main(["run", "toy", "--shape", "cone"])
    assert bad.json["error"] in err.getvalue()  # one wording, both surfaces


def test_a_none_default_must_declare_its_type():
    with pytest.raises(TypeError, match="declares its type"):
        register_workload("typeless", defaults={"n": None})(lambda ctx: None)
    assert "typeless" not in REGISTRY


# -- the CLI lists what it did not apply -------------------------------------


def test_cli_names_the_flags_it_did_not_apply(capsys):
    main(["run", "smoothing", "--size", "12", "--steps", "2",
          "--iterations", "9", "--strategy", "static", "--json"])
    out, err = capsys.readouterr()
    assert err == ("note: --iterations, --strategy not applied: workload "
                   "'smoothing' accepts ['distribution', 'size', 'steps']\n")
    main(["run", "smoothing", "--size", "12", "--steps", "2", "--json"])
    same, quiet = capsys.readouterr()
    assert out == same and quiet == ""


# -- no knob added, none lost ------------------------------------------------

#: what the parent tree accepted, recorded before the table existed:
#: the registry defaults, serve/service.py's ``_STAGE_OPTIONS`` and the
#: session keys its ``_stage`` popped by hand
PARENT_PARAMS = {
    "adi": {"size", "iterations", "strategy"},
    "pic": {"size", "steps", "strategy", "npart", "drift", "diffusion",
            "rebalance_every", "cluster_width", "imbalance_threshold"},
    "smoothing": {"size", "steps", "distribution"},
    "irregular": {"size", "steps", "distribution", "kind", "drift"},
}
PARENT_STAGE_OPTIONS = {
    "plan": {"cost_mode", "method"},
    "run": {"backend"},
    "trace": {"overlap", "compact"},
    "bench": {"backend", "repeats"},
    "adapt": {"mode", "window"},
}
PARENT_SESSION = {"nprocs", "cost_model", "seed"}
PARENT_WORKLOADS_SHA256 = (
    "3bede4f5a59dfd08fd05044e978f12465a66162714da71be78acfeb3734c6ca9")


def test_the_table_accepts_exactly_what_the_parent_tree_did(service):
    assert set(STAGE_OPTIONS) == set(PARENT_STAGE_OPTIONS)
    assert set(SESSION_FIELDS) == PARENT_SESSION | {"backend"}
    assert {s.name for s in REGISTRY} == set(PARENT_PARAMS)
    for spec in REGISTRY:
        for stage, options in PARENT_STAGE_OPTIONS.items():
            assert accepted_names(spec, stage) == (
                PARENT_PARAMS[spec.name] | options | PARENT_SESSION)
    body = service.dispatch("GET", "/workloads").body
    assert sha256(body.encode()).hexdigest() == PARENT_WORKLOADS_SHA256


#: every documented CLI line that names a workload, and the handle call
#: it made on the parent tree: (stage, workload, parameters that differ
#: from the registry default, session fields / stage options that
#: differ from the table default).  ``backend`` is compared by name:
#: the parent's ``--backend`` default was the string "serial", the
#: table's is the config's None, and both are the in-process backend.
CLI_CALLS = {
    "adapt --workload pic --drift 0.02 --json":
        ("adapt", "pic", {"drift": 0.02, "size": 64, "steps": 40}, {}),
    "obs --workload adi --json": ("plan", "adi", {}, {}),
    "obs --workload adi --stage plan": ("plan", "adi", {}, {}),
    "obs --workload adi --stage trace --chrome-out trace.json":
        ("trace", "adi", {}, {}),
    "obs --workload smoothing --stage trace --json --chrome-out "
    "obs_trace.json": ("trace", "smoothing", {}, {}),
    "obs analyze --workload adi": ("trace", "adi", {}, {"overlap": False}),
    "obs analyze --workload adi --size 32":
        ("trace", "adi", {}, {"overlap": False}),
    "plan adi --iterations 2": ("plan", "adi", {"size": 64}, {}),
    "plan adi --iterations 2 --cost-mode simulated --json":
        ("plan", "adi", {"size": 64}, {"cost_mode": "simulated"}),
    "plan adi --nprocs 4 --cost-model Paragon":
        ("plan", "adi", {"iterations": 4, "size": 64}, {}),
    "plan adi --size 64 --json":
        ("plan", "adi", {"iterations": 4, "size": 64}, {}),
    "plan pic --size 32 --steps 10 --json": ("plan", "pic", {}, {}),
    "plan pic --steps 50": ("plan", "pic", {"size": 64, "steps": 50}, {}),
    "plan smoothing --nprocs 16 --size 128":
        ("plan", "smoothing", {"size": 128, "steps": 50}, {"nprocs": 16}),
    "plan smoothing --size 128 --nprocs 16 --cost-model iPSC/860":
        ("plan", "smoothing", {"size": 128, "steps": 50},
         {"nprocs": 16, "cost_model": "iPSC/860"}),
    "run adi --backend multiprocess":
        ("run", "adi", {}, {"backend": "multiprocess"}),
    "run adi --size 64 --iterations 4 --json":
        ("run", "adi", {"iterations": 4, "size": 64}, {}),
    "run smoothing --backend multiprocess --nprocs 4":
        ("run", "smoothing", {}, {"backend": "multiprocess"}),
    "trace adi --nprocs 4 --size 32": ("trace", "adi", {}, {}),
    "trace pic --size 64 --steps 20 --json --compact":
        ("trace", "pic", {"size": 64, "steps": 20}, {"compact": True}),
    "trace smoothing --steps 5 --size 32 --json --compact":
        ("trace", "smoothing", {"steps": 5}, {"compact": True}),
    # spellable only since the table: the lines ISSUE 16 added to CI/README
    "run pic --strategy static --json":
        ("run", "pic", {"strategy": "static"}, {}),
    "trace irregular --kind geometric --drift 0.1 --json --compact":
        ("trace", "irregular", {"drift": 0.1}, {"compact": True}),
    "plan adi --seed 3 --json":
        ("plan", "adi", {"iterations": 4, "size": 64}, {"seed": 3}),
    # ISSUE 17: CI drives every registered workload on worker processes
    "run pic --backend multiprocess":
        ("run", "pic", {}, {"backend": "multiprocess"}),
    "run irregular --backend multiprocess":
        ("run", "irregular", {}, {"backend": "multiprocess"}),
}


class _Captured(BaseException):
    """Raised by the recording stage: past ``main``'s error handler."""


def documented_cli_lines() -> list[str]:
    text = "".join(
        (ROOT / path).read_text()
        for path in (".github/workflows/ci.yml", "README.md"))
    lines = re.findall(
        r"python -m repro ((?:plan|run|trace|adapt|obs)\b[^#\n|>`]*)", text)
    budget = (ROOT / "tests" / "test_import_budget.py").read_text()
    cold = re.search(r"^CLI_COLD = (\{.*?^\})", budget, re.S | re.M).group(1)
    lines += [shlex.join(argv) for argv in eval(cold).values()]
    named = []
    for line in lines:
        argv = shlex.split(line)
        if argv[0] in ("plan", "run", "trace") or "--workload" in argv:
            named.append(shlex.join(argv))
    return sorted(set(named))


def test_every_documented_cli_line_makes_the_same_handle_call(monkeypatch):
    calls = []

    def recorder(stage):
        def record(self, **kwargs):
            config = self._session.config
            calls.append((stage, self, {
                "nprocs": config.nprocs, "seed": self.seed,
                "cost_model": self._session.cost_model.name,
                "backend": config.backend_name, **kwargs}))
            raise _Captured
        return record

    for stage in STAGE_OPTIONS:
        monkeypatch.setattr(WorkloadHandle, stage, recorder(stage))
    lines = documented_cli_lines()
    assert set(lines) == set(CLI_CALLS)
    for line in lines:
        calls.clear()
        with pytest.raises(_Captured), redirect_stdout(io.StringIO()):
            main(shlex.split(line))
        stage, handle, got = calls[0]
        want_stage, workload, params, fields = CLI_CALLS[line]
        spec = REGISTRY.get(workload)
        assert (stage, handle.name) == (want_stage, workload), line
        assert handle.params == {**spec.defaults, **params}, line
        defaults = {
            "backend": "serial",
            **{k: SESSION_FIELDS[k].default for k in PARENT_SESSION},
            **{k: row.default for k, row in STAGE_OPTIONS[stage].items()
               if k != "backend"},
        }
        assert {**defaults, **got} == {**defaults, **fields}, line


# -- README's table is written from the registry ------------------------------


def test_readme_parameter_table_is_the_registry():
    readme = (ROOT / "README.md").read_text()
    table = readme.split('<a id="workload-parameters"></a>')[1]
    table = table.split("\n\n**")[0]
    rows = [
        tuple(cell.strip(" `") for cell in line.split("|")[1:7])
        for line in table.splitlines() if line.startswith("| `")
    ]
    assert rows == [
        (spec.name, name, row.type.__name__, json.dumps(row.default),
         "--" + name.replace("_", "-"), name + "=")
        for spec in REGISTRY for name, row in spec.params.items()
    ]


# -- typing ------------------------------------------------------------------


def test_equivalent_spellings_are_one_value():
    spec = REGISTRY.get("pic")
    spellings = [resolve(spec, "run", {"size": v, "drift": d, "npart": n})
                 for v, d, n in ((16, 1, None), ("16", "1.0", "null"),
                                 (16.0, 1.0, None), (np.int64(16), "1", None))]
    assert all(req == spellings[0] for req in spellings)
    assert type(spellings[0].params["size"]) is int
    assert type(spellings[0].params["drift"]) is float
    # a session keyword is typed by the same rows
    with repro.session() as sess:
        assert sess.workload("pic", size="16").params["size"] == 16
        with pytest.raises(ValueError, match="expects int, got 1.5"):
            sess.workload("pic", size=1.5)
        with pytest.raises(ValueError, match="expects one of"):
            sess.workload("adi", size=8).plan(cost_mode="bogus")
