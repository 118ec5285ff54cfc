"""Reach recorder, interpreter half: which functions of ``src/repro``
a process calls.

Active only when ``REPRO_REACH_DIR`` names a directory.  Put this
directory on ``sys.path`` (``PYTHONPATH=src:tests/reach``, or a ``.pth``
file naming it) and every Python process started with the variable set
installs ``sys.setprofile`` / ``threading.setprofile``, records each
code object that gets a ``call`` event, and at exit -- ``atexit`` and
``os._exit`` alike, so forked fleet workers count -- writes one
``<pid>.json`` into the directory: the ``repro/...`` file and first line
of every code object it called, under the tag ``REPRO_REACH_TAG``
(``tier1`` inside pytest, set by ``reach_plugin``; ``product``
otherwise).  ``tests/reach/reach.py`` joins the dumps with an AST walk
of ``src/`` into ``REACH.json``.
"""

import os
import sys
import threading

_DIR = os.environ.get("REPRO_REACH_DIR")
_seen: dict = {}  # id(code) -> code (kept alive, so ids are not reused)
_dumped: set = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def install() -> None:
    """(Re)install the hook on this thread and on threads started later."""
    sys.setprofile(_profile)
    threading.setprofile(_profile)


def dump() -> None:
    """Write this process's calls once; a no-op after the first time."""
    pid = os.getpid()
    if pid in _dumped:
        return
    _dumped.add(pid)
    import json

    marker = os.sep + "repro" + os.sep
    calls = set()
    for code in list(_seen.values()):
        path = code.co_filename
        at = path.rfind(marker)
        if at >= 0 and os.sep + "src" + os.sep in path[:at + 1]:
            rel = path[at + len(marker):].replace(os.sep, "/")
            calls.add((rel, code.co_firstlineno))
    record = {
        "tag": os.environ.get("REPRO_REACH_TAG", "product"),
        "argv": sys.argv,
        "calls": sorted(calls),
    }
    with open(os.path.join(_DIR, f"{pid}.json"), "w") as fh:
        json.dump(record, fh)


if _DIR:
    os.makedirs(_DIR, exist_ok=True)
    plugins = os.environ.get("PYTEST_PLUGINS", "")
    if "reach_plugin" not in plugins:
        os.environ["PYTEST_PLUGINS"] = ",".join(
            p for p in (plugins, "reach_plugin") if p)
    _real_exit = os._exit

    def _exit(code):
        dump()
        _real_exit(code)

    os._exit = _exit
    import atexit

    atexit.register(dump)
    install()
