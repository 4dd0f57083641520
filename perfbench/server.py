"""Launch, probe and stop the default CLI deployment (``python -m repro.serve``).

The server runs from the checkout's ``src/`` as a child process with
every flag at its default except the shard count (pinned to 2, what
``--workers auto`` resolves to on a 2-core host) and a free port, at a
lower scheduling priority than the load generator.  Its shard processes
are found through ``/proc`` so the benchmark can sum their memory and
CPU time and kill one to time a respawn.  The benchmark process adopts
every orphaned descendant (:func:`become_subreaper`) and stops and reaps
them all before it exits (:func:`stop_children`).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict
from typing import List
from typing import Optional

from gen import SERVE_MODELS
from loadgen import Pipe
from loadgen import clock
from loadgen import request_json

WORKERS = 2
READY_TIMEOUT_S = 120.0

#: Niceness of the server process tree (the generator runs at 0).
SERVER_NICE = 5

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def src_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    return env


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _cmdline(pid: int) -> bytes:
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process (0 once it is gone)."""
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of one process, in KiB."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``python -m repro.serve`` child process."""

    def __init__(self, root: str, out_dir: str, tag: str, trace: bool = False):
        self.root = root
        self.tag = tag
        self.slow_log = os.path.join(out_dir, "slow-%s.ndjson" % (tag,)) if trace else None
        self.log_path = os.path.join(out_dir, "server-%s.log" % (tag,))
        self.process: Optional[subprocess.Popen] = None
        self.port = None
        self.ready_s = None

    def args(self) -> List[str]:
        args = [sys.executable, "-m", "repro.serve", "--port", "0",
                "--workers", str(WORKERS)]
        for model in SERVE_MODELS:
            args += ["--model", model]
        if self.slow_log:
            args += ["--trace-sample", "1.0", "--slow-query-ms", "0",
                     "--slow-query-log", self.slow_log]
        return args

    async def start(self, probes: List[Dict]) -> float:
        """Launch and wait for one successful answer on every model.

        Returns the set-up time: process launch to the last of those
        answers (import, model build, shard spawn and digest handshake
        included).  ``probes`` holds one query per model; they are
        answered before any measured traffic, like a readiness check.
        """
        if self.slow_log and os.path.exists(self.slow_log):
            os.remove(self.slow_log)
        log = open(self.log_path, "wb")
        start = clock()
        self.process = subprocess.Popen(
            self.args(), stdout=subprocess.PIPE, stderr=log, cwd=self.root,
            env=src_env(self.root),
        )
        log.close()
        # Below the load generator's priority (inherited by the shards,
        # which spawn later), so replies are timestamped when they arrive
        # rather than when a busy server lets the generator run.
        os.setpriority(os.PRIO_PROCESS, self.process.pid, SERVER_NICE)
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.process.stdout.readline), READY_TIMEOUT_S
        )
        text = line.decode("utf-8", "replace")
        if "listening on" not in text:
            raise RuntimeError("server failed to start: %r (see %s)" % (text, self.log_path))
        self.port = int(text.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        pipe = await Pipe.open("127.0.0.1", self.port)
        try:
            for probe in probes:
                body = json.dumps(probe).encode("utf-8") + b"\n"
                status, raw, _ = await pipe.send("POST", "/v1/query", body)
                reply = json.loads(raw)
                if status != 200 or not reply.get("ok"):
                    raise RuntimeError("readiness probe failed: %r" % (raw,))
        finally:
            await pipe.close()
        self.ready_s = clock() - start
        return self.ready_s

    async def stats(self) -> Dict:
        pipe = await Pipe.open("127.0.0.1", self.port)
        try:
            status, body = await request_json(pipe, "GET", "/v1/stats")
        finally:
            await pipe.close()
        if status != 200:
            raise RuntimeError("stats failed: %r" % (body,))
        return body

    def shard_pids(self) -> List[int]:
        return [pid for pid in _children(self.process.pid)
                if b"spawn_main" in _cmdline(pid)]

    def cpu_seconds(self) -> float:
        """CPU time so far of the server and its shard processes."""
        return sum(cpu_seconds(pid) for pid in [self.process.pid] + self.shard_pids())

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid] + _children(self.process.pid)
        return sum(peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        children = _children(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout)
        self.process.stdout.close()
        deadline = time.monotonic() + timeout
        for pid in children:
            while os.path.exists("/proc/%d" % pid) and time.monotonic() < deadline:
                if _is_zombie_or_gone(pid):
                    break
                time.sleep(0.02)
            if not _is_zombie_or_gone(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass


def _is_zombie_or_gone(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] in (b"Z", b"X")
    except OSError:
        return True


def become_subreaper() -> None:
    """Adopt orphaned descendants (a shard or a multiprocessing resource
    tracker whose parent exits first), so they stay this process's to
    stop and reap."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_children(grace: float = 5.0, timeout: float = 20.0) -> None:
    """Reap every child of this process, waiting until none is left.

    Children get ``grace`` seconds to end on their own (a resource
    tracker ends once its last user has), then SIGTERM, then, after
    twice ``grace``, SIGKILL.
    """
    start = time.monotonic()
    while True:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid == 0:
                break
        children = _children(os.getpid())
        if not children:
            return
        live = [pid for pid in children if not _is_zombie_or_gone(pid)]
        waited = time.monotonic() - start
        if waited > timeout:
            raise RuntimeError("child processes %r did not end" % (live,))
        if waited > grace:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL if waited > 2 * grace else signal.SIGTERM)
                except OSError:
                    pass
        time.sleep(0.02)
