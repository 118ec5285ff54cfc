"""SerialBackend: the in-process reference semantics, via the seam."""

import numpy as np
import pytest

from repro.backend import Backend, SerialBackend, resolve_backend
from repro.backend.base import SERIAL, attached_backend
from repro.core.distribution import dist_type
from repro.machine import Machine, ProcessorArray
from repro.runtime.engine import Engine

R = ProcessorArray("R", (4,))


def test_resolve_backend():
    assert isinstance(resolve_backend(None), SerialBackend)
    assert isinstance(resolve_backend("serial"), SerialBackend)
    be = SerialBackend()
    assert resolve_backend(be) is be
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("quantum")


def test_attach_lifecycle():
    m = Machine(R)
    be = SerialBackend()
    assert be.attach(m) is be
    assert m.backend is be
    assert be.attach(m) is be  # idempotent
    other = Machine(R)
    with pytest.raises(RuntimeError, match="already attached"):
        be.attach(other)
    be.close()
    assert m.backend is SERIAL  # back on the serial default
    assert be.machine is None


def test_second_backend_on_same_machine_rejected():
    m = Machine(R)
    SerialBackend().attach(m)
    with pytest.raises(RuntimeError, match="already has a"):
        SerialBackend().attach(m)


def test_engine_seam_defaults_to_machine_backend():
    m = Machine(R)
    be = SerialBackend().attach(m)
    engine = Engine(m)
    assert engine.backend is be


def test_engine_accepts_backend_name():
    m = Machine(R)
    with attached_backend(m, "serial"):
        engine = Engine(m)
        assert isinstance(engine.backend, SerialBackend)
        assert m.backend is engine.backend


def test_serial_run_kernel():
    m = Machine(R)
    SerialBackend().attach(m)
    e = Engine(m)
    v = e.declare("V", (8,), dist=dist_type("BLOCK"))
    v.from_global(np.zeros(8))

    def fill_rank(rank, local, idx):
        local[...] = rank

    e.backend.run_kernel(e.arrays["V"], fill_rank)
    assert np.array_equal(
        v.to_global(), np.repeat(np.arange(4, dtype=float), 2)
    )


def test_attached_backend_context_owns_named_backends():
    m = Machine(R)
    with attached_backend(m, "serial") as be:
        assert m.backend is be
    assert m.backend is SERIAL  # closed on exit

    keep = SerialBackend()
    with attached_backend(m, keep) as be:
        assert be is keep
    assert m.backend is keep  # caller-owned instance stays attached
    keep.close()


def test_base_backend_is_abstract():
    be = Backend()
    with pytest.raises(NotImplementedError):
        be.move(None, None, None)
    with pytest.raises(NotImplementedError):
        be.run_kernel(None, None)
    with pytest.raises(NotImplementedError):
        be.stencil_step(None, None, None, [])
