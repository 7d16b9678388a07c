"""serve-mix: starlayd over a Unix socket, driven by closed-loop sessions.

Every request is `measure`.  Nine in ten go to the hot key, which stays
cached; the tenth walks a fixed rotation of other keys.  The cache budget
holds the hot key plus at most three rotation entries, while a rotation
key comes back only after seven others, so every rotation request is a
miss and the miss share is set by the mix, not by history.  A connection
never sends two rotation requests in a row, so at most two misses (one
per connection) land between two touches of the hot key, and the LRU
never evicts it.
"""

import json
import multiprocessing
import os
import random
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field

from expected import HOT, ROTATION, area_ratio
from harness import kill_group, median, percentile

CLIENTS = 2
CACHE_MB = 5             # hot (1.1 MB) + any two rotation entries (<= 1.7 MB each)
BLOCK_MIX = 10           # one rotation request per 10 on each connection
REQUEST_DEADLINE_S = 10
READY_DEADLINE_S = 10
SETUP_REPEATS = 3        # daemons started per run; setup_s is their median
BLOCK = 100              # requests per round of wall_s and cpu_s


class Conn:
    """One line-protocol connection."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def call(self, request):
        self.file.write(json.dumps(request).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    """A fresh starlayd with its pool pinned to one thread."""

    def __init__(self, ctx):
        self.dir = ctx.work / "serve"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = str(self.dir / "d.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        env = dict(ctx.env, STARLAY_THREADS="1")
        with open(self.dir / "starlayd.err", "ab") as err:
            self.proc = subprocess.Popen(
                [os.path.abspath(ctx.binary("starlayd")), "--socket", "d.sock",
                 "--cache-mb", str(CACHE_MB)],
                cwd=self.dir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err, start_new_session=True)
        self.rusage = None
        self.rc = None

    def wait_ready(self, timeout):
        lines = []
        reader = threading.Thread(target=lambda: lines.append(self.proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout)
        return bool(lines) and lines[0].startswith(b"listening unix")

    def connect(self, timeout=REQUEST_DEADLINE_S):
        return Conn(self.path, timeout)

    def cpu_s(self):
        """User + system CPU so far, from /proc (0 once the daemon is gone)."""
        try:
            with open(f"/proc/{self.proc.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, conn, timeout):
        """Asks for shutdown, then reaps; kills the daemon if it overstays."""
        if conn is not None:
            try:
                conn.call({"id": 0, "method": "shutdown"})
            except (OSError, ValueError):
                pass
            conn.close()
        deadline = time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                kill_group(self.proc.pid)
                pid, status, ru = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rusage = ru
        return self.rc == 0


def request(rid, fields):
    return dict(fields, id=rid, method="measure")


def check_reply(rsp, want_cache, want_area, label):
    if not isinstance(rsp, dict) or rsp.get("ok") is not True:
        return [f"{label}: failed reply {str(rsp)[:200]}"]
    problems = []
    if rsp.get("cache") != want_cache:
        problems.append(f"{label}: cache {rsp.get('cache')}, expected {want_cache}")
    area = rsp.get("result", {}).get("area")
    if area != want_area:
        problems.append(f"{label}: area {area}, expected {want_area}")
    return problems


def start(ctx, res):
    """Spawns a daemon and makes it ready to serve: readiness line, ping,
    and the hot key's cold build.  Returns (daemon, conn, seconds)."""
    t0 = time.perf_counter()
    d = Daemon(ctx)
    conn = None
    problems = []
    if not d.wait_ready(ctx.budget.timeout(READY_DEADLINE_S)):
        problems.append("starlayd: no readiness line")
    else:
        try:
            conn = d.connect(ctx.budget.timeout(REQUEST_DEADLINE_S))
            if conn.call({"id": 0, "method": "ping"}).get("ok") is not True:
                problems.append("starlayd: ping failed")
            problems += check_reply(conn.call(request(1, HOT[0])), "miss", ctx.hot_area,
                                    "hot cold build")
        except (OSError, ValueError) as e:
            problems.append(f"starlayd setup: {e!r}")
    res.op(problems)
    return d, conn, time.perf_counter() - t0


def client(idx, path, seed, hot_area, t_end, budget_end, cursor, pipe):
    """One closed-loop connection, in its own process so the clients share
    no interpreter lock.  Sends back (samples, problems): one
    (latency_ms, "hit" | "miss") sample per correct reply and one
    problem per failed request."""
    rng = random.Random(f"{seed}/{idx}")
    samples, problems = [], []
    try:
        conn = Conn(path, REQUEST_DEADLINE_S)
    except OSError as e:
        pipe.send(([], [f"client {idx}: connect: {e!r}"]))
        return
    rid, rotation_at = 0, 0
    while time.monotonic() < t_end and budget_end - time.monotonic() > REQUEST_DEADLINE_S:
        if rid % BLOCK_MIX == 0:
            rotation_at = rid + rng.randint(1, BLOCK_MIX - 2)  # never adjacent across blocks
        if rid == rotation_at:
            with cursor.get_lock():
                fields, want_area = ROTATION[cursor.value % len(ROTATION)]
                cursor.value += 1
            want_cache = "miss"
        else:
            fields, want_area, want_cache = HOT[0], hot_area, "hit"
        rid += 1
        t0 = time.perf_counter()
        try:
            rsp, broken = conn.call(request(rid, fields)), None
        except (OSError, ValueError) as e:
            rsp, broken = None, e
        t1 = time.perf_counter()
        label = f"client {idx} request {rid} {fields}"
        bad = [f"{label}: {broken!r}"] if broken else check_reply(rsp, want_cache, want_area,
                                                                  label)
        if bad:
            problems += bad[:1]
        else:
            samples.append(((t1 - t0) * 1e3, want_cache))
        if broken:
            break
    conn.close()
    pipe.send((samples, problems))


def session(ctx, res, d, seconds):
    """CLIENTS closed-loop connections for seconds.  Each sends one
    rotation request per BLOCK_MIX requests, at a seeded position; the
    rotation is walked in order across both connections from a seeded
    start.  Returns the samples of the correct replies."""
    mp = multiprocessing.get_context("fork")
    cursor = mp.Value("i", random.Random(ctx.seed).randrange(len(ROTATION)))
    t_end = time.monotonic() + seconds
    budget_end = time.monotonic() + ctx.budget.left()
    procs = []
    for idx in range(CLIENTS):
        recv, send = mp.Pipe(duplex=False)
        p = mp.Process(target=client, args=(idx, d.path, ctx.seed, ctx.hot_area, t_end,
                                            budget_end, cursor, send))
        p.start()
        procs.append((p, recv))
    samples = []
    for idx, (p, recv) in enumerate(procs):
        got = recv.recv() if recv.poll(ctx.budget.timeout(seconds + 2 * REQUEST_DEADLINE_S)) \
            else ([], [f"client {idx}: no report"])
        p.join(REQUEST_DEADLINE_S)
        if p.is_alive():
            p.kill()
            p.join()
        samples += got[0]
        for _ in got[0]:
            res.op([])
        for problem in got[1]:
            res.op([problem])
    return samples


def stats(ctx, res, conn, samples):
    """The daemon's own counters, checked against the replies seen."""
    try:
        st = conn.call({"id": 0, "method": "stats"})["result"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        res.op([f"stats: {e!r}"])
        return {}
    hits = sum(1 for s in samples if s[1] == "hit")
    misses = len(samples) - hits
    problems = []
    if res.failed == 0 and (st.get("hits"), st.get("misses"), st.get("joins")) != (
            hits, misses + 1, 0):
        problems.append(f"stats: daemon counted {st}, clients saw {hits} hits, "
                        f"{misses} misses after one cold build")
    res.op(problems)
    return st


@dataclass
class Session:
    setup_s: list = field(default_factory=list)  # one per daemon started
    samples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)    # the daemon's `stats` reply
    cpu_s: float = 0.0                           # daemon CPU during the session
    wall_s: float = 0.0
    rss_mb: float = float("nan")                 # daemon peak RSS


def serve_session(ctx, res, seconds, setups):
    """Starts setups daemons (all but the last are stopped again right
    away), runs a session on the last and stops it."""
    out = Session()
    for i in range(setups):
        d, conn, s = start(ctx, res)
        out.setup_s.append(s)
        if i + 1 < setups or conn is None:
            res.op([] if d.stop(conn, ctx.budget.timeout(READY_DEADLINE_S)) else
                   [f"starlayd exit {d.rc}"])
    if conn is None:
        return out
    cpu0 = d.cpu_s()
    t0 = time.perf_counter()
    out.samples = session(ctx, res, d, seconds)
    out.wall_s = time.perf_counter() - t0
    out.cpu_s = d.cpu_s() - cpu0
    out.stats = stats(ctx, res, conn, out.samples)
    res.op([] if d.stop(conn, ctx.budget.timeout(READY_DEADLINE_S)) else
           [f"starlayd exit {d.rc}"])
    out.rss_mb = d.rusage.ru_maxrss / 1024.0
    return out


def run_serve_mix(ctx, res):
    s = serve_session(ctx, res, ctx.seconds, SETUP_REPEATS)
    lat = [x[0] for x in s.samples]
    rounds = len(s.samples) / BLOCK
    res.put("setup_s", median(s.setup_s), "s")
    res.put("area_ratio", area_ratio(ctx.hot_area, HOT[0]["n"]), "ratio")
    res.put("wall_s", s.wall_s / rounds if rounds else float("nan"), "s")
    res.put("p10_ms", percentile(lat, 0.10), "ms")
    res.put("p99_ms", percentile(lat, 0.99), "ms")
    res.put("rss_mb", s.rss_mb, "MB")
    res.put("cpu_s", s.cpu_s / rounds if rounds else float("nan"), "s")
    return {"clients": CLIENTS, "cache_mb": CACHE_MB, "daemon_threads": 1,
            "requests": len(s.samples), "session_s": s.wall_s, "daemon_stats": s.stats}


def layer_metrics(s):
    """Per-layer view of one session: latency by cache class, throughput
    and the daemon's counters."""
    hit = [x[0] for x in s.samples if x[1] == "hit"]
    miss = [x[0] for x in s.samples if x[1] == "miss"]
    return {
        "serve.hit_p50_ms": percentile(hit, 0.50),
        "serve.hit_p99_ms": percentile(hit, 0.99),
        "serve.miss_p50_ms": percentile(miss, 0.50),
        "serve.miss_p90_ms": percentile(miss, 0.90),
        "serve.rps": len(s.samples) / s.wall_s if s.wall_s > 0 else float("nan"),
        "serve.hits": s.stats.get("hits", -1),
        "serve.misses": s.stats.get("misses", -1),
        "serve.joins": s.stats.get("joins", -1),
        "serve.evictions": s.stats.get("evictions", -1),
        "serve.miss_share": len(miss) / len(s.samples) if s.samples else float("nan"),
    }


def request_lines():
    """The hot request, then the rotation, one protocol line each."""
    return "".join(json.dumps(request(i, f)) + "\n"
                   for i, (f, _) in enumerate([HOT] + ROTATION, 1))
