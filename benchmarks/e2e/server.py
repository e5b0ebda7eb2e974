"""A real ``repro serve`` process and a closed-loop HTTP client for it."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import HostSpeed, alive, child_env, descendants, peak_rss_mb

BOOT_LIMIT_S = 60.0
DRAIN_LIMIT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
"""Per-query deadline sent with every request (the engine's timeout)."""


class Server:
    """``python -m repro.cli serve --from-index ...`` as a child process."""

    def __init__(self, index: Path, workdir: Path, cache: bool) -> None:
        self._argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--from-index", str(index), "--port", "0",
            "--workers", "2", "--capacity", "64",
            *([] if cache else ["--no-cache"]),
        ]
        self._env = child_env(workdir)
        self._proc: subprocess.Popen | None = None
        self._family: list[int] = []
        self.port = 0

    def start(self) -> float:
        """Boot until ``/healthz`` answers ok; returns the seconds it took."""
        started = perf_counter()
        self._proc = subprocess.Popen(
            self._argv, env=self._env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.port = self._announced_port(started + BOOT_LIMIT_S)
        health = self.get("/healthz")
        if health.get("status") != "ok":
            raise RuntimeError(f"server not healthy: {health}")
        return perf_counter() - started

    def _announced_port(self, deadline: float) -> int:
        """Parse ``serving on http://host:port`` from the child's stdout."""
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - perf_counter()
            if remaining <= 0 or self._proc.poll() is not None:
                self.kill()
                raise RuntimeError(
                    "server did not announce a port within "
                    f"{BOOT_LIMIT_S:.0f} s: {buffered!r}"
                )
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if "serving on http://" not in line:
            self.kill()
            raise RuntimeError(f"unexpected ready line: {line!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def metrics(self) -> dict:
        return self.get("/metrics?format=json")

    def pids(self) -> list[int]:
        assert self._proc is not None
        return [self._proc.pid, *descendants(self._proc.pid)]

    def peak_rss_mb(self) -> float:
        """Parent plus workers; read while they are still alive."""
        self._family = self.pids()
        return peak_rss_mb(self._family)

    def stop(self) -> list[str]:
        """SIGTERM-drain; returns the hygiene problems found (none = [])."""
        assert self._proc is not None
        family = self._family or self.pids()
        problems: list[str] = []
        self._proc.send_signal(signal.SIGTERM)
        try:
            code = self._proc.wait(DRAIN_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return [f"server ignored SIGTERM for {DRAIN_LIMIT_S:.0f} s"]
        finally:
            if self._proc.stdout is not None:
                self._proc.stdout.close()
        if code != 0:
            problems.append(f"server exited {code} after SIGTERM")
        stragglers = [pid for pid in family if alive(pid)]
        if stragglers:
            problems.append(f"processes outlived the server: {stragglers}")
            for pid in stragglers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return problems

    def kill(self) -> None:
        if self._proc is None:
            return
        for pid in reversed(self.pids()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()


class Exchange:
    """Timestamps and outcome of one POST /query."""

    __slots__ = ("index", "rename", "connect", "start", "sent", "headers",
                 "read", "end", "status", "body", "nbytes")

    def __init__(self, index: int, rename: dict[str, str] | None) -> None:
        self.index = index
        self.rename = rename
        self.connect: tuple[float, float] | None = None
        self.status = 0
        self.body: dict | None = None
        self.nbytes = 0


class Client:
    """One keep-alive connection; each call waits for its reply."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._connection: http.client.HTTPConnection | None = None

    def post(self, payload: bytes, exchange: Exchange) -> None:
        if self._connection is None:
            opened = perf_counter()
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S + 20
            )
            self._connection.connect()
            exchange.connect = (opened, perf_counter())
        connection = self._connection
        exchange.start = perf_counter()
        connection.request(
            "POST", "/query", body=payload,
            headers={"Content-Type": "application/json"},
        )
        exchange.sent = perf_counter()
        response = connection.getresponse()
        exchange.headers = perf_counter()
        raw = response.read()
        exchange.read = perf_counter()
        exchange.status = response.status
        exchange.nbytes = len(raw)
        exchange.body = json.loads(raw)
        exchange.end = perf_counter()
        if response.will_close:
            self.close()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


#: Seconds of round trips between two samples of the host's speed.
MARK_EVERY_S = 0.5


def run_pass(client: Client, requests: list[tuple[bytes, Exchange]], check,
             host: HostSpeed) -> list[float]:
    """Closed loop, one client: the next request goes out only after the
    previous reply arrived and was checked, so no two requests meet in
    the server and a round trip does not depend on its neighbours.

    The host's speed is sampled before the first request, after every
    ``MARK_EVERY_S`` of round trips and after the last. Returns every
    round trip in seconds at the reference speed."""
    trips: list[float] = []
    block: list[float] = []  # round trips since the last sample

    def close_block() -> None:
        factor = host.mark()
        trips.extend(trip * factor for trip in block)
        block.clear()

    host.mark()
    for payload, exchange in requests:
        client.post(payload, exchange)
        check(exchange)
        block.append(exchange.end - exchange.start)
        if sum(block) >= MARK_EVERY_S:
            close_block()
    if block:
        close_block()
    return trips
