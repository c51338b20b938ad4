"""``owl serve``'s front door: JSON-lines over a socket, many clients.

One asyncio event loop multiplexes every connected client (unix-domain
socket by default, TCP with ``tcp://``, the HTTP/JSON front end with
``http://`` — see :mod:`repro.service.http`) against one
:class:`~repro.service.scheduler.CampaignScheduler`.  The socket
protocol is a JSON object per line, ``{"op": ...}`` in, one JSON object
out:

* ``ping``                         → ``{"ok": true, "pong": ...}``
* ``submit {workload, config}``    → ``{"ok": true, "campaign": cid}``
* ``status {campaign?}``           → the scheduler's status dict
* ``results {campaign}``           → report JSON for a completed campaign
* ``watch {campaign}``             → a *stream* of event lines (stage
  transitions, then a terminal line carrying the results payload)
* ``shutdown``                     → stop fleet + server

Requests may carry ``token`` (bearer authentication) and — in open mode
— ``tenant``; dispatch itself lives in
:class:`~repro.service.api.ServiceAPI`, shared verbatim with the HTTP
front end, so the scheduler is transport-agnostic.

Scheduling runs on a background task that calls ``scheduler.tick()``
between awaits, so submissions return immediately and clients poll
``status`` — the CLI's ``owl submit --wait`` does exactly that, and
``owl results --watch`` holds a ``watch`` stream instead.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional

from repro.service.address import Address
from repro.service.api import ServiceAPI
from repro.service.scheduler import CampaignScheduler


class ServiceServer:
    """Asyncio front end over one scheduler."""

    def __init__(self, scheduler: CampaignScheduler, address: Address,
                 tick_seconds: float = 0.05,
                 tokens: Optional[Dict[str, str]] = None,
                 api: Optional[ServiceAPI] = None) -> None:
        self.scheduler = scheduler
        self.address = address
        self.tick_seconds = tick_seconds
        self.api = api if api is not None else ServiceAPI(
            scheduler, tokens=tokens, poll_seconds=tick_seconds)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------

    async def start(self) -> None:
        kind, target = self.address
        if kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(target))
        elif kind == "tcp":
            host, port = target  # type: ignore[misc]
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port)
        elif kind == "http":
            from repro.service.http import HttpFrontEnd
            host, port = target  # type: ignore[misc]
            front = HttpFrontEnd(self.api, self._stopping)
            self._server = await asyncio.start_server(
                front.handle, host=host, port=port)
        else:
            raise ValueError(f"unknown address kind {kind!r}")

    async def run(self) -> None:
        """Serve until a client asks for shutdown."""
        if self._server is None:
            await self.start()
        ticker = asyncio.ensure_future(self._tick_loop())
        try:
            await self._stopping.wait()
        finally:
            ticker.cancel()
            self._server.close()
            await self._server.wait_closed()
            if (self.scheduler.fleet is not None
                    or self.scheduler.config.external_workers):
                # the STOP sentinel also reaches workers on other hosts
                self.scheduler.queue.request_stop()
            if self.scheduler.fleet is not None:
                self.scheduler.fleet.stop()

    async def _tick_loop(self) -> None:
        while not self._stopping.is_set():
            self.scheduler.tick()
            await asyncio.sleep(self.tick_seconds)

    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = self._decode(line)
                if request is not None and request.get("op") == "watch":
                    if not await self._stream_watch(request, writer):
                        break
                    continue
                response = (self.api.handle(request) if request is not None
                            else {"ok": False, "code": "bad_request",
                                  "error": "malformed JSON request"})
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                if response.get("_shutdown"):
                    self._stopping.set()
                    break
        except (ConnectionError, OSError):
            pass  # client hung up mid-request; nothing to clean
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _decode(line: bytes) -> Optional[Dict]:
        try:
            request = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return request if isinstance(request, dict) else None

    async def _stream_watch(self, request: Dict,
                            writer: asyncio.StreamWriter) -> bool:
        """Stream one watch request; False when the client went away."""
        try:
            tenant_error = None
            try:
                self.api.authenticate(request.get("token"),
                                      request.get("tenant"))
            except Exception as error:  # noqa: BLE001 — protocol boundary
                from repro.service.api import error_response
                tenant_error = error_response(error)
            if tenant_error is not None:
                writer.write(json.dumps(tenant_error).encode("utf-8")
                             + b"\n")
                await writer.drain()
                return True
            async for event in self.api.watch_events(
                    str(request.get("campaign"))):
                writer.write(json.dumps(event).encode("utf-8") + b"\n")
                await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False  # mid-stream disconnect: drop the stream quietly


def serve_forever(scheduler: CampaignScheduler, address: Address,
                  tick_seconds: float = 0.05,
                  tokens: Optional[Dict[str, str]] = None) -> None:
    """Blocking entry point for ``owl serve`` (any transport kind)."""
    server = ServiceServer(scheduler, address, tick_seconds=tick_seconds,
                           tokens=tokens)

    async def _main() -> None:
        await server.start()
        await server.run()

    asyncio.run(_main())
