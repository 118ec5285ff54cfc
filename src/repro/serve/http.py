"""The asyncio HTTP/1.1 front end over :class:`~repro.serve.PlanningService`.

Stdlib only: ``asyncio.start_server`` accepts connections, a minimal
HTTP/1.1 parser reads request line + headers + Content-Length body.
The service's admission step (:meth:`PlanningService.admit`) reads
each request once on the event loop and answers a hit there; an
admitted miss runs ``service.complete``, anything else (other routes,
4xx) ``service.dispatch``, on a ``ThreadPoolExecutor``, so the loop
keeps accepting while workloads execute and N in-flight requests
share the one :class:`PlanningService` and its caches.  Keep-alive is
honoured, so a client reuses its connection.

Three entry points:

- :class:`ServeServer` — the asyncio server object (``await start()``
  inside a running loop);
- :class:`ServerThread` — the server on a daemon thread with its own
  loop; ``with ServerThread(service) as url:`` is how the tests and
  the load-test harness get a real HTTP endpoint in-process;
- :func:`serve_forever` — the blocking CLI spelling
  (``python -m repro serve``).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from ..faults import plan as _faults
from .service import ENDPOINTS, PlanningService, ServeResponse, _incident, _route

__all__ = ["ServeServer", "ServerThread", "serve_forever"]

_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: refuse request bodies beyond this (the service takes small JSON)
MAX_BODY_BYTES = 1 << 20


class ServeServer:
    """One asyncio HTTP server bound to a :class:`PlanningService`:
    a request is admitted on the loop, where a hit is answered; the
    rest runs on the ``max_workers`` pool, which alone
    ``request_deadline`` bounds."""

    def __init__(
        self,
        service: PlanningService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        request_deadline: float | None = None,
    ):
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; rewritten by start()
        #: budget in seconds of a request's time on the pool (None =
        #: unlimited); an overrun answers 503 + Retry-After with an
        #: incident ID (the executor thread finishes in the background
        #: — threads cannot be cancelled — but the client is unblocked
        #: and a half-open probe's slot freed)
        self.request_deadline = request_deadline
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        #: requests seen per route (1-based ordinals, the coordinate
        #: RequestFault specs address; event-loop-thread only)
        self._route_requests: dict[str, int] = {}
        self._clients: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: connections whose handler waits on the pool
        self._busy: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # no handler may be left to be cancelled at loop stop (on
            # Python 3.11 that prints a traceback): an idle one returns
            # once its connection closes, one waiting on the pool gets
            # a bounded drain and is then cut short with a 503
            for writer in set(self._clients) - self._busy:
                writer.close()
            if self._clients:
                _, late = await asyncio.wait(
                    self._clients.values(), timeout=5.0)
                for task in late:
                    task.cancel()
                if late:
                    await asyncio.wait(late)
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.service.close()

    # -- per-connection loop ----------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients[writer] = asyncio.current_task()
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    self._write(writer, ServeResponse(400, '{"error": "malformed request line"}'))
                    break
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", 0))
                except ValueError:
                    length = -1
                if length < 0 or length > MAX_BODY_BYTES:
                    self._write(writer, ServeResponse(413, '{"error": "request body too large"}'))
                    break
                body = await reader.readexactly(length) if length else b""

                # fault injection (off unless a FaultPlan is active):
                # the nth request on a route can be delayed, answered
                # 500 without dispatching, or dropped on the floor
                route = _route(target)
                fault = self._injected_fault(route)
                if fault is not None:
                    if fault.kind == "delay":
                        await asyncio.sleep(fault.seconds)
                    elif fault.kind == "error":
                        self._write(writer, _incident(
                            500, f"injected fault on {route}",
                            f"injected request fault on {route}",
                            {"route": route, "kind": fault.kind,
                             "at_request": fault.at_request}))
                        await writer.drain()
                        break
                    elif fault.kind == "drop":
                        break  # connection closes with no response

                # a request is read once, here; only what has to be
                # computed crosses to the pool
                admitted = self.service.admit(method, target, body)
                if isinstance(admitted, ServeResponse):
                    response = admitted  # a hit
                else:
                    work = ((self.service.dispatch, method, target, body)
                            if admitted is None
                            else (self.service.complete, admitted))
                    self._busy.add(writer)
                    try:
                        response = await asyncio.wait_for(
                            asyncio.get_running_loop().run_in_executor(
                                self._executor, *work),
                            timeout=self.request_deadline,
                        )
                    except asyncio.TimeoutError:
                        if admitted is not None:
                            self.service.abandon(admitted)
                        deadline = self.request_deadline
                        response = _incident(
                            503, f"request exceeded the {deadline}s deadline",
                            f"request deadline exceeded on {route}",
                            {"route": route, "deadline": deadline},
                            retry_after=1)
                    except asyncio.CancelledError:  # close() cut it short
                        response = _incident(
                            503, "server closed before the request completed",
                            f"server closed during a request on {route}",
                            {"route": route}, retry_after=1)
                    finally:
                        self._busy.discard(writer)
                keep_alive = (
                    version != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                    and self._server.is_serving()
                )
                self._write(writer, response, keep_alive=keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request
        finally:
            del self._clients[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- fault + deadline plumbing ----------------------------------------
    def _injected_fault(self, route: str):
        """The active plan's fault for this (route, ordinal), if any.
        Counts every request per route; runs on the event-loop thread
        only, so the counter needs no lock."""
        plan = _faults.active_plan()
        if plan is None:
            return None
        nth = self._route_requests.get(route, 0) + 1
        self._route_requests[route] = nth
        return plan.request_fault(route, nth)

    @staticmethod
    def _write(
        writer: asyncio.StreamWriter,
        response: ServeResponse,
        keep_alive: bool = False,
    ) -> None:
        payload = response.body.encode()
        phrase = _PHRASES.get(response.status, "Unknown")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "keep-alive" if keep_alive else "close",
            **response.headers,
        }
        head = f"HTTP/1.1 {response.status} {phrase}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        ) + "\r\n"
        writer.write(head.encode("latin-1") + payload)


class ServerThread:
    """The server on a daemon thread — an in-process HTTP endpoint.

    ::

        with ServerThread(PlanningService()) as url:
            urllib.request.urlopen(f"{url}/healthz")

    The thread owns its own event loop; ``stop()`` (or leaving the
    ``with`` block) shuts the loop down and joins the thread.
    """

    def __init__(
        self,
        service: PlanningService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        request_deadline: float | None = None,
    ):
        self.service = service if service is not None else PlanningService()
        self._server = ServeServer(
            self.service, host=host, port=port, max_workers=max_workers,
            request_deadline=request_deadline,
        )
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return self._server.url

    @property
    def port(self) -> int:
        return self._server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self._server.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_forever(
    service: PlanningService | None = None,
    host: str = "127.0.0.1",
    port: int = 8642,
    max_workers: int = 8,
    quiet: bool = False,
    request_deadline: float | None = None,
) -> None:
    """Run the server until interrupted — ``python -m repro serve``."""
    import logging

    # one structured line per request (JSON on stderr) unless silenced
    logger = logging.getLogger("repro.serve")
    if not quiet and not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    service = service if service is not None else PlanningService()

    async def _run() -> None:
        server = ServeServer(
            service, host=host, port=port, max_workers=max_workers,
            request_deadline=request_deadline,
        )
        await server.start()
        if not quiet:
            print(f"repro.serve listening on {server.url}")
            print("  endpoints: " + " ".join(ENDPOINTS))
            print(f"  try: curl '{server.url}/plan?workload=adi&size=32'")
        try:
            await asyncio.Event().wait()  # until cancelled
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        if not quiet:
            print("\nrepro.serve stopped")
