"""Closed-loop execution of requests: one client, each request sent after the previous one ends.

CLI requests run as ``python -m comptonqcd`` child processes.  A request's
latency runs from just before the spawn to the reaping of the child; its CPU
time and peak resident set come from the child's rusage (``os.wait4``).
Each child writes its output to files of its own, read back only when the
outputs are checked, so the benchmark process stays small while children
are spawned.  ``lib-field`` requests are library calls in this process.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

REQUEST_TIMEOUT_S = 60.0
MIN_REQUESTS = 100  # a 90th percentile with ten samples beyond it
MAX_TIMED_S = 120.0  # the timed phase ends here even short of MIN_REQUESTS


@dataclass
class Outcome:
    """What one request did; ``failure`` is filled in by the checks."""

    request: object
    latency_s: float
    cpu_s: float
    maxrss_kb: int = 0
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    timed_out: bool = False
    failure: str | None = None
    result: dict = field(default_factory=dict)
    spool: tuple[str, str] | None = None  # stdout and stderr files not yet read

    def load(self) -> None:
        """Read spooled output into ``stdout`` and ``stderr``."""
        if self.spool:
            texts = []
            for path in self.spool:
                with open(path, "rb") as fh:
                    texts.append(fh.read().decode("utf-8", "replace"))
            self.stdout, self.stderr = texts
            self.spool = None


def program_env(root: str) -> dict:
    """The caller's environment, with the checkout's ``src`` first on PYTHONPATH.

    An inherited COMPTONQCD_E2 is dropped so that the program sees only the
    settings the request generates.
    """
    env = dict(os.environ)
    env.pop("COMPTONQCD_E2", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Wait for a child with a timeout and reap it with its rusage."""
    pidfd = os.pidfd_open(proc.pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        os.close(pidfd)
        if not reaped:  # interrupted: leave no child behind
            proc.kill()
            os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, not ready


class CliRunner:
    """Runs CLI requests as child processes, output captured in files."""

    def __init__(self, root: str, workdir: str, timeout: float = REQUEST_TIMEOUT_S):
        self.root = root
        self.env = program_env(root)
        self.timeout = timeout
        self.spool_dir = os.path.join(workdir, "output")
        os.makedirs(self.spool_dir, exist_ok=True)

    def command(self, req) -> list[str]:
        return [sys.executable, "-m", "comptonqcd", *req.argv]

    def run(self, req) -> Outcome:
        env = dict(self.env, **req.env)
        spool = tuple(os.path.join(self.spool_dir, f"{req.index}.{name}") for name in ("out", "err"))
        with open(spool[0], "wb") as out, open(spool[1], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.command(req), cwd=self.root, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, usage, timed_out = wait_child(proc, self.timeout)
            latency = time.perf_counter() - start
        return Outcome(req, latency, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                       code, timed_out=timed_out, spool=spool)


class LibRunner:
    """Runs lib-field requests in this process against preloaded sources."""

    def __init__(self, stressfield, quantity, sources: dict):
        self.sf = stressfield
        self.Quantity = quantity
        self.sources = sources

    def run(self, req) -> Outcome:
        p = req.params
        Q = self.Quantity
        src = self.sources[p["source"]]
        cpu0 = time.process_time()
        start = time.perf_counter()
        near, far, error = [], [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                m = Q(p["m"], 1)
                for r in p["radii"]:
                    near.append(self.sf.near_field_potential(src, m, Q(r, -1)).value)
                for r, beyond in zip(p["radii"], p["far"]):
                    far.append(self.sf.far_field_coupling(src, m, p["d"], Q(r, -1)).value if beyond else None)
            except Exception:  # a library failure is a failed request, recorded with its traceback
                error = traceback.format_exc(limit=-3)
        latency = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        clamps = [str(w.message) for w in caught if issubclass(w.category, self.sf.ClampWarning)]
        others = [f"{w.category.__name__}: {w.message}" for w in caught
                  if not issubclass(w.category, self.sf.ClampWarning)]
        outcome = Outcome(req, latency, cpu, stderr=error or "",
                          result={"near": near, "far": far, "clamps": clamps, "other_warnings": others})
        if error:
            outcome.failure = "exception: " + error.strip().splitlines()[-1]
        return outcome


def timed_loop(run, stream, seconds: float, cycle: int) -> tuple[list[Outcome], float]:
    """Send requests back to back for ``seconds``; return outcomes and the elapsed time.

    The phase goes on past ``seconds`` until MIN_REQUESTS requests are done
    and the last request cycle is complete, so every run holds the same mix
    of request shapes.  It stops at MAX_TIMED_S (or ``seconds``, if that is
    longer) in any case; the caller marks a run that ends short.
    """
    outcomes = []
    limit = max(seconds, MAX_TIMED_S)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        n = len(outcomes)
        if elapsed >= limit or (elapsed >= seconds and n >= MIN_REQUESTS and n % cycle == 0):
            return outcomes, elapsed
        outcomes.append(run(stream[n]))
