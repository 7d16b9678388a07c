"""Process control, statistics and the result record shared by all workloads."""

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Ctx:
    """What every workload needs: binaries, directories, sizes and limits."""
    build: Path          # the starbench CMake tree
    work: Path           # cwd of every job; spill files and sockets live here
    artifacts: Path      # traces, daemon stats and the footer of this run
    n: int               # star size of the batch workloads
    seconds: float       # measured time of one run
    seed: int
    budget: "Budget"
    star: dict           # expected outputs at size n (expected.STAR, overridable)
    hot_area: int        # expected area of serve-mix's hot key
    threads: int = 2     # pool size of every batch job
    workers: int = 2     # forked workers of the sharded mode
    env: dict = field(default_factory=dict)

    def binary(self, name):
        if name == "starbench_trace":
            return str(self.build / name)
        return str(self.build / "starlay" / "cli" / name)


class Budget:
    """Wall-clock deadline for one benchmark run; every job and request
    takes its timeout from here, so a hung program cannot hold the run."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(0.0, self.end - time.monotonic())

    def timeout(self, cap):
        return min(cap, self.left())


@dataclass
class Job:
    argv: list
    rc: int = -1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stdout: str = ""
    stderr: str = ""
    timed_out: bool = False

    @property
    def ok(self):
        return self.rc == 0 and not self.timed_out

    def kv(self):
        """`key value` lines of a starlay_cli report."""
        out = {}
        for line in self.stdout.splitlines():
            parts = line.split(None, 1)
            if len(parts) == 2:
                out.setdefault(parts[0], parts[1].strip())
        return out


def _drain(stream, sink):
    sink.append(stream.read())
    stream.close()


def run_job(argv, cwd, env, timeout, stdin_text=None):
    """Runs one program to completion or to timeout, whichever comes
    first.  Wall time runs from spawn to reap; CPU time and peak RSS come
    from wait4, so they cover every process the job forked and reaped.  A
    job that overstays is killed with its whole process group."""
    job = Job(argv=list(argv))
    out, err = [], []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, start_new_session=True, text=True,
                            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out), daemon=True),
               threading.Thread(target=_drain, args=(proc.stderr, err), daemon=True)]
    for r in readers:
        r.start()
    if stdin_text is not None:
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
        except OSError:
            pass
    deadline = t0 + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            job.timed_out = True
            kill_group(proc.pid)
            pid, status, ru = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    job.wall_s = time.perf_counter() - t0
    kill_group(proc.pid)  # forked workers of a crashed job
    proc.returncode = job.rc = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join(5)
    job.stdout, job.stderr = "".join(out), "".join(err)
    job.cpu_s = ru.ru_utime + ru.ru_stime
    job.rss_mb = ru.ru_maxrss / 1024.0
    return job


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    s = sorted(values)
    if not s:
        return float("nan")
    rank = p * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def median(values):
    return percentile(values, 0.5)


@dataclass
class Result:
    """Operations attempted and failed, with every failure's reason."""
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def op(self, problems):
        """Counts one operation; it failed when problems is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}
