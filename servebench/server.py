"""Lifecycle of one ``repro serve --workers 1`` under test: spawn, wait
for readiness, scrape the ops plane, read peak memory, and end it with a
SIGTERM drain whose hygiene (exit code, orphan workers, tracebacks) is
checked rather than assumed."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.service.client import http_get, wait_until_ready

HOST = "127.0.0.1"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One spawned server; always ended through :meth:`drain` or
    :meth:`kill` (the caller's ``finally``)."""

    def __init__(self, root: Path, workdir: Path, args: list[str], *, name: str) -> None:
        self.port = free_port()
        self.http_port = free_port()
        self.stderr_path = workdir / f"{name}.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._stderr = open(self.stderr_path, "wb")
        #: Worker PIDs seen at readiness, so a failed run can reap them.
        self.known_workers: list[int] = []
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--workers", "1",
                "--host", HOST,
                "--port", str(self.port),
                "--http-port", str(self.http_port),
                *args,
            ],
            cwd=str(workdir),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        wait_until_ready(HOST, self.port, timeout=timeout, interval=0.02)
        self.known_workers = self.worker_pids()

    def get(self, path: str) -> str:
        status, body = http_get(HOST, self.http_port, path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered HTTP {status}")
        return body

    def worker_pids(self) -> list[int]:
        return list(json.loads(self.get("/healthz")).get("worker_pids", []))

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its worker processes."""
        total_kb = 0
        for pid in [self.proc.pid, *self.worker_pids()]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def drain(self) -> list[str]:
        """SIGTERM, then check exit 0, no orphaned workers and no
        traceback on stderr.  Returns the violations found."""
        problems: list[str] = []
        try:
            pids = self.worker_pids()
        except Exception as exc:  # noqa: BLE001 - reported, then killed below
            problems.append(f"healthz before drain failed: {exc}")
            pids = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code: Optional[int] = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        if code != 0:
            problems.append(f"server exited with {code}, expected 0")
        orphans = _alive(pids)
        deadline = time.monotonic() + 10
        while orphans and time.monotonic() < deadline:
            time.sleep(0.05)
            orphans = _alive(orphans)
        if orphans:
            problems.append(f"orphaned worker processes {orphans}")
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.known_workers = []
        self._stderr.close()
        if b"Traceback" in self.stderr_path.read_bytes():
            problems.append(f"traceback on server stderr ({self.stderr_path.name})")
        return problems

    def kill(self) -> None:
        """Teardown for a run that failed before its drain: SIGTERM (the
        server drains its workers), SIGKILL after a grace period, then
        any worker still alive."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in _alive(self.known_workers):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if not self._stderr.closed:
            self._stderr.close()


def _alive(pids: list[int]) -> list[int]:
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except PermissionError:
            pass
        alive.append(pid)
    return alive
