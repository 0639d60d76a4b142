"""Launch ``repro serve`` as its own process tree and account for it.

The server is started the way an operator starts it (``python -m repro
serve``) with the checkout's ``src/`` on ``PYTHONPATH``; the benchmark
talks to it only over HTTP.  Its CPU time and peak memory are read from
``/proc`` over the whole tree (router plus fleet workers), so the load
generator's own work is never counted.

Shutdown follows what each mode handles: SIGINT for single-process
``serve`` (it only catches ``KeyboardInterrupt``), SIGTERM for the fleet
router (it drains every worker).  After every shutdown the benchmark
checks that no ``repro_*`` segment survives in ``/dev/shm``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_"
_LISTEN = re.compile(rb"(?:listening on|serving on http://)\s*([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_steal() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host, from ``/proc/stat``:
    time the hypervisor gave our virtual CPUs to someone else."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


class ServerError(RuntimeError):
    """The server did not come up, answer, or stop as expected."""


def shm_segments() -> list[str]:
    """Names of the ``repro_*`` segments currently in ``/dev/shm``."""
    if not SHM_DIR.is_dir():
        return []
    return sorted(p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX))


def remove_segments(names: list[str]) -> None:
    for name in names:
        try:
            (SHM_DIR / name).unlink()
        except FileNotFoundError:
            pass


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return kids
    for task in tasks:
        try:
            kids.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return kids


def process_tree(pid: int) -> list[int]:
    """``pid`` and all of its descendants that are alive now."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def _cpu_seconds(pid: int) -> float:
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is state (field 3); utime/stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` process tree over a fresh store directory."""

    def __init__(
        self,
        src_dir: Path,
        store_dir: Path,
        workers: int,
        extra_path: list[Path] = (),
        extra_env: dict[str, str] | None = None,
    ):
        self.workers = workers
        store_dir.mkdir(parents=True, exist_ok=False)
        self.store_dir = store_dir
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--store", str(store_dir / "sessions.db"),
            "--workers", str(workers),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir), *map(str, extra_path)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        # A server that hangs on shutdown is sent SIGABRT, and the fault
        # handler writes every thread's stack to the log.
        env["PYTHONFAULTHANDLER"] = "1"
        env.update(extra_env or {})
        self.launched = time.perf_counter()
        with open(store_dir / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
                env=env,
                cwd=store_dir,
            )
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.kill(self.tree())
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        os.set_blocking(self.proc.stdout.fileno(), False)
        buffer = b""
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} before listening"
                )
            chunk = self.proc.stdout.read()
            if chunk:
                buffer += chunk
                match = _LISTEN.search(buffer)
                if match:
                    return int(match.group(2))
            time.sleep(0.005)
        raise ServerError("server did not report a listening port in time")

    # --- HTTP helpers for set-up and accounting --------------------------------

    def get_json(self, path: str, timeout: float = 30.0) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise ServerError(f"GET {path} -> {response.status}: {body[:200]!r}")
        return json.loads(body)

    def wait_answering(self, timeout: float = 60.0) -> None:
        """Block until ``GET /stats`` answers."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.get_json("/stats", timeout=5.0)
                return
            except (OSError, ServerError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise ServerError("server never answered GET /stats")
                time.sleep(0.005)

    def stats(self) -> list[dict]:
        """``GET /stats`` of every serving process (one per fleet worker)."""
        payload = self.get_json("/stats")
        return list(payload["workers"].values()) if self.workers > 1 else [payload]

    # --- /proc accounting -------------------------------------------------------

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid)

    def cpu_seconds(self) -> float:
        return sum(_cpu_seconds(pid) for pid in self.tree())

    def peak_rss_mb(self) -> float:
        return sum(_peak_rss_kb(pid) for pid in self.tree()) / 1024.0

    # --- shutdown ---------------------------------------------------------------

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the tree the way it handles it and wait for every process."""
        pids = self.tree() if self.proc.poll() is None else []
        if pids:
            self.proc.send_signal(signal.SIGTERM if self.workers > 1 else signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGABRT)
                try:
                    self.proc.wait(10)
                except subprocess.TimeoutExpired:
                    pass
                self.kill(pids)
                raise ServerError(
                    f"server did not stop within {timeout:.0f}s; stacks:\n{self.log_tail()}"
                ) from None
            self._reap(pids[1:], timeout)
        self._close()
        if self.proc.returncode != 0:
            raise ServerError(
                f"server exited with code {self.proc.returncode}:\n{self.log_tail()}"
            )

    def log_tail(self, limit: int = 6000) -> str:
        return (self.store_dir / "server.log").read_bytes()[-limit:].decode(errors="replace")

    def kill(self, pids: list[int]) -> None:
        """SIGKILL ``pids`` (the tree as last seen) and wait for them."""
        for pid in reversed(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self._reap(pids[1:], 10.0)
        self._close()

    @staticmethod
    def _reap(pids: list[int], timeout: float) -> None:
        """Wait until descendants (not our children) have exited."""
        deadline = time.monotonic() + timeout
        for pid in pids:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                try:
                    state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
                except OSError:
                    break
                if state == "Z":
                    break
                time.sleep(0.01)

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
