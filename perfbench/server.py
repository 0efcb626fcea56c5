"""Fixtures, server processes and their memory, all driven from outside.

Fixtures (PV checkpoints, artifact stores) are built through the program's
public CLI before any timed phase and cached under ``.perfbench/`` by
(dataset, scale, seed) and a hash of the program's sources, so a changed
program never serves fixtures an earlier one built.  Servers are
``python -m repro serve`` processes in their own session, so stopping one
also stops its pool workers.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

#: Seconds a server may take to answer its first request.
START_TIMEOUT = 120.0


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_cli(*args: str, log: Path) -> None:
    """Run one ``python -m repro`` command to completion; raise on failure."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        code = subprocess.run([sys.executable, "-m", "repro", *args], env=program_env(),
                              cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode
    if code != 0:
        raise RuntimeError(f"repro {args[0]} failed with code {code}; see {log}")


def source_hash() -> str:
    """Hash of every file under ``src/repro``: the program that builds the fixtures."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(p for p in (SRC / "repro").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fixture_dir(dataset: str, scale: str, seed: int) -> Path:
    return STATE / "fixtures" / f"{dataset}-{scale}-{seed}-{source_hash()}"


def checkpoint(dataset: str, scale: str, seed: int, epochs: int) -> Path:
    """A PV RGCN checkpoint trained on the full graph (``repro train``)."""
    directory = fixture_dir(dataset, scale, seed)
    path = directory / f"pv-rgcn-e{epochs}.ckpt"
    if not path.exists():
        tmp = directory / f".tmp-{os.getpid()}.ckpt"
        repro_cli("train", "--dataset", dataset, "--scale", scale, "--seed", str(seed),
                  "--task", "PV", "--model", "RGCN", "--epochs", str(epochs),
                  "--save-checkpoint", str(tmp), log=directory / "train.log")
        os.replace(tmp, path)
    from repro.nn.checkpoint import read_checkpoint_meta

    graph = read_checkpoint_meta(str(path))["graph"]
    expected = f"{dataset.upper()}-{scale}"
    if graph != expected:
        raise RuntimeError(f"{path} was trained on {graph!r}, the server serves {expected!r}")
    return path


def artifact_store(dataset: str, scale: str, seed: int) -> Path:
    """A memory-mappable artifact store (``repro build-artifacts``)."""
    directory = fixture_dir(dataset, scale, seed)
    path = directory / "store"
    if not path.exists():
        tmp = directory / f".tmp-store-{os.getpid()}"
        repro_cli("build-artifacts", "--dataset", dataset, "--scale", scale,
                  "--seed", str(seed), "--out", str(tmp), log=directory / "store.log")
        os.replace(tmp, path)
    return path


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _ping(port: int) -> Optional[int]:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            sock.sendall(b"GET /ping HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
            head = sock.recv(64)
    except OSError:
        return None
    parts = head.split(b" ", 2)
    return int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else None


class Server:
    """One launched ``repro serve --protocol http`` process."""

    def __init__(self, args: List[str], log: Path, trace_out: Optional[Path] = None):
        self.port = free_port()
        self.trace_out = trace_out
        argv = ["serve", "--protocol", "http", "--port", str(self.port), *args]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(HERE / "tracing.py"), str(trace_out), *argv]
        log.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, env=program_env(), cwd=ROOT,
                                     stdout=self._log, stderr=subprocess.STDOUT,
                                     start_new_session=True)
        try:
            while _ping(self.port) != 200:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with code {self.proc.returncode}; see {log}")
                if time.perf_counter() - start > START_TIMEOUT:
                    raise RuntimeError(f"server did not answer within {START_TIMEOUT}s; see {log}")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def pss_mb(self) -> float:
        """Summed PSS of the server and every process below it."""
        return sum(_pss_kb(pid) for pid in _descendants(self.proc.pid)) / 1024.0

    def stop(self) -> None:
        """SIGINT (clean exit: pool closed, spans written), then kill the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log.close()


def _descendants(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, stack = [], [root]
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, []))
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
