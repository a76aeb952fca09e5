"""Child processes of the benchmark: set-up probes and ``repro serve``.

Every child runs from the checkout with ``PYTHONPATH=<checkout>/src``
and no other change to the environment; thread variables are left as
found.  Each is waited for before the benchmark exits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PROBE = Path(__file__).resolve().parent / "probe.py"


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_probe(root: Path, kind: str, timeout_s: float = 60.0) -> float:
    """Seconds from spawning a fresh ``probe.py <kind>`` to its ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), kind],
        cwd=str(root), env=child_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {kind!r} failed (exit {proc.returncode}): {err.strip()[-400:]}")
    return elapsed


class Server:
    """One ``python -m repro serve`` process on a fresh root."""

    def __init__(self, root: Path, service_root: Path, extra_args: List[str]) -> None:
        self.service_root = service_root
        service_root.mkdir(parents=True, exist_ok=True)
        self._log = open(service_root.parent / f"{service_root.name}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(service_root), "--port", "0", *extra_args],
            cwd=str(root), env=child_env(root),
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.url: Optional[str] = None

    def wait_healthy(self, timeout_s: float = 60.0) -> float:
        """Block until ``GET /healthz`` answers; seconds since spawn."""
        from repro.service import ServiceClient

        deadline = self.started + timeout_s
        discovery = self.service_root / "service.json"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early with {self.proc.returncode}")
            if self.url is None and discovery.is_file():
                try:
                    self.url = json.loads(discovery.read_text())["url"]
                except (ValueError, KeyError):
                    pass
            if self.url is not None:
                try:
                    if ServiceClient(self.url, retries=0, timeout_s=2.0).healthz().get("ok"):
                        return time.perf_counter() - self.started
                except Exception:  # noqa: BLE001 - not listening yet
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not healthy within {timeout_s:g}s")

    def stop(self, grace_s: float = 20.0) -> float:
        """SIGINT (the server's clean shutdown), reap it, and kill anything
        left in its session; returns the peak RSS in MB of the server and
        every worker it reaped (``wait4`` rusage)."""
        pid = self.proc.pid
        maxrss_kb = 0
        try:
            if self.proc.returncode is None:
                os.kill(pid, signal.SIGINT)
                deadline = time.monotonic() + grace_s
                while True:
                    done, status, usage = os.wait4(pid, os.WNOHANG)
                    if done:
                        maxrss_kb = usage.ru_maxrss
                        self.proc.returncode = os.waitstatus_to_exitcode(status)
                        break
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                        _, status, usage = os.wait4(pid, 0)
                        maxrss_kb = usage.ru_maxrss
                        self.proc.returncode = os.waitstatus_to_exitcode(status)
                        break
                    time.sleep(0.02)
        finally:
            try:
                os.killpg(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self._log.close()
        return maxrss_kb / 1024.0
