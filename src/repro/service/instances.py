"""Local shard-instance harness: real server subprocesses + a router.

The chaos tests and the bench harness need a *real* cluster — separate
OS processes with their own event loops, stores and worker pools — not
threads in one interpreter (you cannot SIGKILL a thread).  This module
spawns shard instances via the CLI (``python -m repro.experiments serve
--port 0 ...``), parses the startup banner for the bound port, and
fronts them with a :class:`~repro.service.router.ThreadedRouter`.

:class:`ShardProcess` wraps one instance with the lifecycle the chaos
test script needs: ``start`` / ``kill`` (SIGKILL, no shutdown courtesy)
/ ``restart`` — the restart re-binds the *same* port, so the router's
ring heals without reconfiguration once the health probe sees the
instance answer again.

:class:`LocalCluster` composes N shards (each with its own store
sub-directory, ``<store>/s0`` …) behind one router and is a context
manager, so a failing test still tears the subprocesses down.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .errors import ServiceError
from .router import ThreadedRouter

__all__ = ["LocalCluster", "ShardProcess"]

_BANNER = re.compile(r"serving http://([\w.\-]+):(\d+)")


class ShardProcess:
    """One shard instance hosted in a real subprocess."""

    def __init__(
        self,
        name: str,
        store_path: str,
        procs: int = 0,
        queue_limit: int = 64,
        port: int = 0,
        startup_timeout: float = 60.0,
        log_file: Optional[str] = None,
        log_level: str = "warning",
        log_format: str = "json",
    ) -> None:
        self.name = name
        self.store_path = store_path
        self.procs = procs
        self.queue_limit = queue_limit
        self.port = port  # 0 until first start binds one
        self.startup_timeout = startup_timeout
        #: structured logs go to a file, not the stdout pipe — nobody
        #: drains the pipe after startup, so chatty logging through it
        #: would eventually block the shard on a full pipe buffer
        self.log_file = log_file
        self.log_level = log_level
        self.log_format = log_format
        self.host = "127.0.0.1"
        self._process: Optional[subprocess.Popen] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    def start(self) -> "ShardProcess":
        """Spawn the serve subprocess and wait for its startup banner.

        First start binds a free port (``--port 0``); restarts reuse the
        recorded port so the router's shard table stays valid.
        """
        if self.alive:
            raise ServiceError(f"shard {self.name} is already running")
        command = [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve",
            "--host",
            self.host,
            "--port",
            str(self.port),
            "--procs",
            str(self.procs),
            "--queue-limit",
            str(self.queue_limit),
            "--store",
            str(self.store_path),
            "--name",
            self.name,
        ]
        if self.log_file is not None:
            command += [
                "--log-file",
                str(self.log_file),
                "--log-level",
                self.log_level,
                "--log-format",
                self.log_format,
            ]
        env = dict(os.environ)
        # OpenBLAS helpers spin at load, before any runtime call can set 1
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src}{os.pathsep}{existing}" if existing else src
            )
        self._process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + self.startup_timeout
        while True:
            line = self._process.stdout.readline()
            if line:
                match = _BANNER.search(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    break
            elif self._process.poll() is not None:
                raise ServiceError(
                    f"shard {self.name} exited during startup "
                    f"(code {self._process.returncode})",
                    status=500,
                )
            if time.monotonic() > deadline:
                self._process.kill()
                raise ServiceError(
                    f"shard {self.name} did not print its banner within "
                    f"{self.startup_timeout}s",
                    status=500,
                )
        return self

    def kill(self) -> None:
        """SIGKILL the instance — no drain, no goodbye (chaos mode)."""
        if self._process is None:
            return
        try:
            self._process.kill()
        except ProcessLookupError:
            pass
        self._process.wait(timeout=30.0)

    def terminate(self) -> None:
        """SIGTERM the instance and wait for its clean shutdown."""
        if self._process is None:
            return
        if self._process.poll() is None:
            try:
                self._process.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self._process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait(timeout=30.0)

    def restart(self) -> "ShardProcess":
        """Bring a killed instance back on the same port."""
        if self.alive:
            raise ServiceError(f"shard {self.name} is still running")
        if self.port == 0:
            raise ServiceError(f"shard {self.name} was never started")
        return self.start()


class LocalCluster:
    """N shard subprocesses behind one in-thread router."""

    def __init__(
        self,
        n_shards: int,
        store_root: str,
        procs: int = 0,
        queue_limit: int = 64,
        retries: int = 1,
        backoff: float = 0.05,
        health_interval: float = 0.25,
        log_dir: Optional[str] = None,
        log_level: str = "warning",
    ) -> None:
        if n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
        self.store_root = Path(store_root)
        log_root = Path(log_dir) if log_dir is not None else None
        if log_root is not None:
            log_root.mkdir(parents=True, exist_ok=True)
        self.shards: List[ShardProcess] = [
            ShardProcess(
                f"s{index}",
                store_path=str(self.store_root / f"s{index}"),
                procs=procs,
                queue_limit=queue_limit,
                log_file=(
                    str(log_root / f"s{index}.jsonl")
                    if log_root is not None
                    else None
                ),
                log_level=log_level,
            )
            for index in range(n_shards)
        ]
        self._retries = retries
        self._backoff = backoff
        self._health_interval = health_interval
        self.router: Optional[ThreadedRouter] = None

    @property
    def url(self) -> str:
        if self.router is None or self.router.url is None:
            raise ServiceError("cluster is not started")
        return self.router.url

    def shard(self, name: str) -> ShardProcess:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise ServiceError(f"no shard named {name!r}")

    def start(self) -> "LocalCluster":
        """Start every shard, then the router over their bound URLs."""
        try:
            for shard in self.shards:
                shard.start()
            self.router = ThreadedRouter(
                {shard.name: shard.url for shard in self.shards},
                retries=self._retries,
                backoff=self._backoff,
                health_interval=self._health_interval,
            )
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Tear down the router, then terminate every shard."""
        if self.router is not None:
            self.router.stop()
            self.router = None
        for shard in self.shards:
            shard.terminate()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
