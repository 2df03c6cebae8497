"""The ``serve-mixed`` workload: the async service under a closed loop.

The service runs as ``python -m repro serve --async`` with as many
pool workers as cores (at most two) and no disk cache.  Two client
threads, each on one keep-alive connection with no think time, cycle
through four request classes:

* ``hit``: identical ``/build`` and ``/route_batch`` bodies over a hot
  set primed during warm-up, which the front cache replays;
* ``cold_build``: ``/build`` of ``backbone`` and ``ldel``, alternately,
  on fresh seeds;
* ``route_batch``: ``/route_batch`` by build key on the hot backbones
  with fresh pair seeds (worker build cache hit, route engine runs);
* ``session_step``: waypoint-move batches on a session each client
  opened during warm-up.

The repository has no record of real traffic, so the shares and sizes
below are taken from the repository's own load harness
(``benchmarks/bench_serving_load.py``) and mobility defaults
(``repro.incremental.session.run_incremental_session``) where those
have them, and are equal where they do not; each constant says which.

A request that gets no 200, times out, loses its connection or fails a
check counts as failed and as missing every latency limit.  The layer
metrics come from ``GET /metrics`` deltas across the measured window.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

from common import (
    LOG_DIR,
    ROOT,
    SRC,
    Outcome,
    child_pids,
    median,
    proc_peak_rss_mb,
    tail,
    uniform_side,
)

CLASSES = ("hit", "cold_build", "route_batch", "session_step")
#: One client's request cycle; the second client starts half-way in.
#: 80% hits: the hot-set share of ``bench_serving_load.py``.  The other
#: 20% is split equally over the three classes that do work.
CYCLE = (
    "hit", "hit", "hit", "hit", "cold_build",
    "hit", "hit", "hit", "hit", "route_batch",
    "hit", "hit", "hit", "hit", "session_step",
)
CLIENTS = 2
POOL_WORKERS = max(1, min(2, os.cpu_count() or 1))
QUEUE_DEPTH = 32
POOL_MODE = "process"
#: Worker build-cache entries.  Large enough that a hot backbone stays
#: cached between two route_batch uses of its key (about 20 other
#: entries are used in between, at most); small enough to fill in the
#: first half of a run, so peak memory does not grow with the number
#: of cold builds served.
CACHE_ENTRIES = 32
RADIUS = 60.0

#: Every deployment has this many nodes: the workload's cold-build size
#: (n ≈ 500), used for the hot set and the sessions too so that one
#: size is chosen, not three.
NODES = 500
#: Hot scenarios, each primed as a backbone and an ldel ``/build`` and a
#: ``/route_batch``: the hot-set size of ``bench_serving_load.py``.
HOT_SCENARIOS = 6
#: Cold builds alternate between these pipelines (equal shares).
COLD_PIPELINES = ("backbone", "ldel")
#: The pair count and mode of ``bench_serving_load.py``'s ``/route_batch``
#: (sent here by build key, so the front end's key affinity is used).
ROUTE_PAIRS = 20
ROUTE_MODE = "gpsr"
#: Per session step, 5% of the nodes move 2 units toward their
#: waypoints: the ``move_fraction`` and mean ``speed`` (times ``dt``)
#: defaults of ``run_incremental_session``.
MOVES_PER_STEP = NODES // 20
MOVE_STEP = 2.0
#: Cold builds per pipeline rebuilt in this process to check the edge
#: counts (and time the registry layer).
COLD_SAMPLE = 3
#: Server set-ups per run; the last one is measured under load.
SETUPS = 3
REQUEST_TIMEOUT_S = 30.0


def _recipe(seed: int) -> dict:
    return {"nodes": NODES, "side": round(uniform_side(NODES), 3),
            "radius": RADIUS, "seed": seed}


def _route_batch(key: str, pair_seed: int) -> dict:
    return {"key": key, "count": ROUTE_PAIRS, "seed": pair_seed, "mode": ROUTE_MODE}


class Server:
    """One ``repro serve --async`` process and its pool workers."""

    def __init__(self, log_path) -> None:
        LOG_DIR.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--async", "--port", "0",
             "--pool-workers", str(POOL_WORKERS), "--pool-mode", POOL_MODE,
             "--queue-depth", str(QUEUE_DEPTH), "--cache-size", str(CACHE_ENTRIES)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        line = self.proc.stdout.readline().decode()
        if "http://127.0.0.1:" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split("http://127.0.0.1:")[1].split()[0])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *child_pids(self.proc.pid)]
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def _call(conn, method: str, path: str, body=None) -> tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode()
    conn.request(method, path, body=data,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _ok_json(conn, method: str, path: str, body=None) -> dict:
    status, data = _call(conn, method, path, body)
    if status != 200:
        raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
    return json.loads(data)


class Warm:
    """What warm-up leaves behind: the hot set and the open sessions."""

    def __init__(self) -> None:
        self.hit_bodies: list[tuple[str, dict, bytes]] = []
        self.hot_keys: list[str] = []
        self.sessions: list[tuple[str, list]] = []
        self.pool_mode = None


def _session_scenarios(seed: int) -> list[dict]:
    """One uniform session deployment per client, drawn until the
    service's placement (``repro.service.router``) puts client i's on
    worker i mod pool size."""
    from repro.service.router import HashRing, placement_key

    ring = HashRing(POOL_WORKERS)
    rng = random.Random(seed * 1000)
    side = uniform_side(NODES)
    scenarios = []
    for client in range(CLIENTS):
        while True:
            points = [[rng.uniform(0, side), rng.uniform(0, side)]
                      for _ in range(NODES)]
            scenario = {"points": points, "radius": RADIUS, "side": side}
            key = placement_key("POST", ["session"], {"scenario": scenario})
            if ring.worker_for(key) == client % POOL_WORKERS:
                scenarios.append(scenario)
                break
    return scenarios


def _warm_up(server: Server, seed: int, session_scenarios: list[dict]) -> Warm:
    """Health check, prime the hot set, open one session per client."""
    warm = Warm()
    conn = server.connect()
    deadline = time.monotonic() + 60
    while True:
        metrics = _ok_json(conn, "GET", "/metrics")
        if metrics.get("workers") == POOL_WORKERS:
            break
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not come up")
        time.sleep(0.05)
    # The pool falls back to threads when it cannot start processes;
    # that is another serving tier, so its figures are not reported.
    warm.pool_mode = metrics.get("pool", {}).get("mode")
    if warm.pool_mode != POOL_MODE:
        raise RuntimeError(
            f"pool runs in {warm.pool_mode!r} mode, not {POOL_MODE!r}")
    for i in range(HOT_SCENARIOS):
        scenario = _recipe(seed * 10 + i)
        for pipeline in COLD_PIPELINES:
            body = {"pipeline": pipeline, "scenario": scenario}
            key = _ok_json(conn, "POST", "/build", body)["key"]  # a miss
            warm.hit_bodies.append(("/build", body, None))
            if pipeline == "backbone":
                warm.hot_keys.append(key)
                warm.hit_bodies.append(("/route_batch", _route_batch(key, 0), None))
    # Replays are what the front cache answers with from now on.
    for i, (path, body, _) in enumerate(warm.hit_bodies):
        _ok_json(conn, "POST", path, body)
        status, replay = _call(conn, "POST", path, body)
        if status != 200:
            raise RuntimeError(f"hot {path} -> {status}")
        warm.hit_bodies[i] = (path, body, replay)
    # Session ids name their worker (``w{k}-s{n}``); client i keeps a
    # session on worker i mod pool size, so the steps do not all queue
    # on one worker for some seeds and not others.
    for client, scenario in enumerate(session_scenarios):
        opened = _ok_json(conn, "POST", "/session", {"scenario": scenario})
        if not opened["session"].startswith(f"w{client % POOL_WORKERS}-"):
            raise RuntimeError(
                f"session {opened['session']} is not on worker {client % POOL_WORKERS}")
        warm.sessions.append((opened["session"], scenario["points"]))
    # One cold build per pipeline and worker placement, so no worker
    # pays its first-build imports inside the measured window.
    for k in range(POOL_WORKERS):
        for pipeline in COLD_PIPELINES:
            _ok_json(conn, "POST", "/build", {
                "pipeline": pipeline,
                "scenario": _recipe(10_000_000 + seed * 100 + k)})
    conn.close()
    return warm


class Client(threading.Thread):
    """One closed-loop client: its next request waits for the last reply."""

    def __init__(self, index, server, warm, seed, deadline, trace) -> None:
        super().__init__(name=f"client-{index}")
        self.server = server
        self.warm = warm
        self.deadline = deadline
        #: In a traced run every other block of requests of each class
        #: is marked traced, so traced and untraced requests interleave.
        #: A block spans whole rotations of the hot bodies, hot scenarios
        #: and cold pipelines, so both halves send alike requests.
        self.trace = trace
        self.trace_block = math.lcm(
            len(warm.hit_bodies), len(warm.hot_keys), len(COLD_PIPELINES))
        self.rng = random.Random(seed * 7919 + index)
        self.fresh = 1_000_000_000 + seed * 1_000_000 + index * 500_000
        self.session, points = warm.sessions[index]
        self.positions = [list(p) for p in points]
        self.waypoints: dict[int, tuple[float, float]] = {}
        self.step = 0
        self.turn = index * len(CYCLE) // CLIENTS
        #: (class, start, end, ok, traced, kind) per request; the kind
        #: is the pipeline for a cold build and the class otherwise.
        self.records: list[tuple[str, float, float, bool, bool, str]] = []
        self.per_class = dict.fromkeys(CLASSES, 0)
        self.cold: list[tuple[str, dict, dict]] = []
        self.sent = 0
        self.problems: list[str] = []

    def _next_seed(self) -> int:
        self.fresh += 1
        return self.fresh

    def _request(self, cls: str):
        """(path, body, check, kind) for the next request of class ``cls``."""
        nth = self.per_class[cls]
        if cls == "hit":
            path, body, replay = self.warm.hit_bodies[nth % len(self.warm.hit_bodies)]
            return path, body, lambda data: data == replay, cls
        if cls == "cold_build":
            pipeline = COLD_PIPELINES[nth % len(COLD_PIPELINES)]
            body = {"pipeline": pipeline, "scenario": _recipe(self._next_seed())}

            def check_cold(data):
                reply = json.loads(data)
                self.cold.append((pipeline, body, reply))
                return reply.get("cache") == "miss" and reply.get("nodes") == NODES

            return "/build", body, check_cold, pipeline
        if cls == "route_batch":
            key = self.warm.hot_keys[nth % len(self.warm.hot_keys)]
            body = _route_batch(key, self._next_seed())
            return "/route_batch", body, (
                lambda data: json.loads(data).get("pairs") == ROUTE_PAIRS), cls
        body = {"events": self._moves()}
        expected = self.step + 1

        def check_step(data):
            reply = json.loads(data)
            self.step = reply.get("step", self.step)
            return reply.get("session") == self.session and reply.get("step") == expected

        return f"/session/{self.session}/step", body, check_step, cls

    def _moves(self) -> list[dict]:
        """Random-waypoint moves for a few nodes of this client's session."""
        side = uniform_side(NODES)
        events = []
        for node in self.rng.sample(range(NODES), MOVES_PER_STEP):
            x, y = self.positions[node]
            wx, wy = self.waypoints.get(node) or (x, y)
            gap = math.hypot(wx - x, wy - y)
            if gap < MOVE_STEP:
                wx, wy = self.rng.uniform(0, side), self.rng.uniform(0, side)
                self.waypoints[node] = (wx, wy)
                gap = math.hypot(wx - x, wy - y)
            if gap > 0:
                x += (wx - x) * min(1.0, MOVE_STEP / gap)
                y += (wy - y) * min(1.0, MOVE_STEP / gap)
            self.positions[node] = [x, y]
            events.append({"kind": "move", "node": node, "x": x, "y": y})
        return events

    def run(self) -> None:
        conn = self.server.connect()
        try:
            while time.perf_counter() < self.deadline:
                cls = CYCLE[self.turn % len(CYCLE)]
                self.turn += 1
                self.per_class[cls] += 1
                path, body, check, kind = self._request(cls)
                traced = (self.trace
                          and self.per_class[cls] // self.trace_block % 2 == 1)
                data = json.dumps(body).encode()
                started = time.perf_counter()
                try:
                    conn.request("POST", path, body=data,
                                 headers={"Content-Type": "application/json"})
                    self.sent += 1
                    response = conn.getresponse()
                    reply = response.read()
                    ended = time.perf_counter()
                except (OSError, http.client.HTTPException) as exc:
                    self.records.append(
                        (cls, started, time.perf_counter(), False, traced, kind))
                    self.problems.append(f"{cls}: {type(exc).__name__}: {exc}")
                    conn.close()
                    conn = self.server.connect()
                    continue
                ok = response.status == 200
                if ok:
                    try:
                        ok = bool(check(reply))
                    except ValueError:
                        ok = False
                if not ok:
                    self.problems.append(f"{cls}: status {response.status} {reply[:120]!r}")
                self.records.append((cls, started, ended, ok, traced, kind))
        finally:
            conn.close()


def _delta(after: dict, before: dict, *path) -> float:
    def dig(doc):
        for part in path:
            doc = doc.get(part, {}) if isinstance(doc, dict) else {}
        return doc if isinstance(doc, (int, float)) else 0

    return dig(after) - dig(before)


def _mean_ms(after: dict, before: dict, series: str) -> float:
    count = _delta(after, before, "latency", series, "count")
    total = _delta(after, before, "latency", series, "sum_s")
    return 1000.0 * total / count if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _latencies_ms(records) -> list[float]:
    """Round trips in ms; failed requests read as the client timeout."""
    return [
        (end - start) * 1000.0 if ok else REQUEST_TIMEOUT_S * 1000.0
        for _c, start, end, ok, *_ in records
    ]


def _build_s(records) -> float:
    """Geometric mean of the cold-build medians of the two pipelines: a
    relative change in either one moves it by about half as much."""
    product = 1.0
    for pipeline in COLD_PIPELINES:
        product *= median(_latencies_ms([r for r in records if r[5] == pipeline]))
    return math.sqrt(product) / 1000.0


def _class_stats(records) -> dict:
    """p50, tail (ms) and mean of the successful requests, per class."""
    out = {}
    for cls in CLASSES:
        values = _latencies_ms([r for r in records if r[0] == cls])
        good = [(end - start) * 1000.0 for c, start, end, ok, *_ in records
                if c == cls and ok]
        q, value, n = tail(values)
        out[cls] = {"p50": median(values), "tail": value, "q": q, "n": n,
                    "mean_ok": sum(good) / len(good) if good else 0.0}
    return out


def _check_cold_builds(clients) -> tuple[list[str], dict]:
    """Rebuild a sample of cold builds in-process; compare edge counts."""
    from repro.service.registry import build_scenario

    problems = []
    build_ms: dict[str, list[float]] = {"backbone": [], "ldel": []}
    for pipeline in build_ms:
        sample = [c for client in clients for c in client.cold if c[0] == pipeline]
        for _, body, reply in sample[:COLD_SAMPLE]:
            started = time.perf_counter()
            product = build_scenario(pipeline, body["scenario"])
            build_ms[pipeline].append((time.perf_counter() - started) * 1000.0)
            expected = product.summary()
            for field in ("nodes", "edges", "dominators", "connectors"):
                if expected.get(field) != reply.get(field):
                    problems.append(
                        f"cold {pipeline} seed {body['scenario']['seed']}: {field} "
                        f"{reply.get(field)} served, {expected.get(field)} in-process")
        if not sample:
            problems.append(f"no cold {pipeline} build to check")
    return problems, {k: median(v) for k, v in build_ms.items()}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome(config={
        "pool_workers": POOL_WORKERS, "pool_mode": POOL_MODE,
        "queue_depth": QUEUE_DEPTH, "cache_entries": CACHE_ENTRIES,
        "clients": CLIENTS, "disk_cache": False,
    })
    log_path = LOG_DIR / f"server-seed{seed}.log"
    setup_times = []
    server = None
    try:
        session_scenarios = _session_scenarios(seed)
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(log_path)
            warm = _warm_up(server, seed, session_scenarios)
            setup_times.append(time.perf_counter() - started)
        conn = server.connect()
        before = _ok_json(conn, "GET", "/metrics")
        out.config["pool_mode_live"] = warm.pool_mode
        started = time.perf_counter()
        deadline = started + seconds
        clients = [Client(i, server, warm, seed, deadline, trace)
                   for i in range(CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - started
        after = _ok_json(conn, "GET", "/metrics")
        conn.close()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    records = [r for client in clients for r in client.records]
    sent = sum(client.sent for client in clients)
    out.attempted = len(records)
    out.failed = sum(1 for r in records if not r[3])
    for client in clients:
        out.notes.extend(client.problems[:5])
    # Conservation: every request sent arrived at the front end (the
    # closing GET /metrics is counted by the server too).
    arrived = _delta(after, before, "front", "counters", "front.requests")
    if arrived != sent + 1:
        out.failed += 1
        out.attempted += 1
        out.notes.append(f"conservation: sent {sent}, front counted {arrived - 1}")
    cold_problems, registry_ms = _check_cold_builds(clients)
    if cold_problems:
        out.failed += len(cold_problems)
        out.notes.extend(cold_problems)

    stats = _class_stats(records)
    ok = sum(1 for r in records if r[3])
    out.end_to_end = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "build_s": _build_s(records),
        "throughput_ops": ok / elapsed,
    }
    out.notes.append(
        "set-ups " + ", ".join(f"{t:.3f}s" for t in setup_times)
        + f"; {sent} requests in {elapsed:.2f}s")
    for cls in CLASSES:
        s = stats[cls]
        out.notes.append(
            f"{cls}: p50 {s['p50']:.3f} ms, p{s['q']:g} {s['tail']:.3f} ms, "
            f"{s['n']} samples")
    for pipeline in COLD_PIPELINES:
        values = _latencies_ms([r for r in records if r[5] == pipeline])
        out.notes.append(
            f"cold {pipeline}: p50 {median(values):.3f} ms, {len(values)} samples")
    out.per_layer = {}
    for cls in CLASSES:
        out.per_layer[f"{cls}_p50_ms"] = stats[cls]["p50"]
        out.per_layer[f"{cls}_tail_ms"] = stats[cls]["tail"]
    if not trace:
        return out

    dispatch = {
        "cold_build": _mean_ms(after, before, "build.request"),
        "route_batch": _mean_ms(after, before, "routing.request"),
        "session_step": _mean_ms(after, before, "incremental.step"),
    }
    per_layer = out.per_layer

    def count(*path) -> float:
        return _delta(after, before, *path)

    hits, misses = count("cache", "hits"), count("cache", "misses")
    router_hits = count("counters", "routing.router_cache_hits")
    router_misses = count("counters", "routing.router_cache_misses")
    pairs = count("counters", "routing.pairs")
    certified = count("counters", "incremental.repairs_certified")
    fallback = count("counters", "incremental.repairs_fallback")
    per_layer.update({
        "front.cache_hit_ratio": _ratio(
            count("front", "counters", "front.cache_hits"), arrived - 1),
        "front.affinity_hits": count("front", "counters", "front.affinity_hits"),
        "front.throttled": count("front", "counters", "front.throttled"),
        "worker.build_cache_hit_ratio": _ratio(hits, hits + misses),
        "routing.pairs_per_s": _ratio(
            pairs, count("latency", "routing.batch", "sum_s")),
        "routing.delivered_ratio": _ratio(
            count("counters", "routing.delivered"), pairs),
        "routing.router_cache_hit_ratio": _ratio(
            router_hits, router_hits + router_misses),
        "incremental.step_ms": dispatch["session_step"],
        "incremental.dirty_fraction": _ratio(
            count("latency", "incremental.dirty_fraction", "sum_s"),
            count("latency", "incremental.dirty_fraction", "count")),
        "incremental.fallback_ratio": _ratio(fallback, certified + fallback),
        "registry.build_ms.backbone": registry_ms["backbone"],
        "registry.build_ms.ldel": registry_ms["ldel"],
    })
    for cls in CLASSES:
        worker_ms = dispatch.get(cls, 0.0)
        per_layer[f"service.transport_ms.{cls}"] = stats[cls]["mean_ok"] - worker_ms
        if cls in dispatch:
            per_layer[f"service.dispatch_ms.{cls}"] = worker_ms
    plain = _class_stats([r for r in records if not r[4]])
    spanned = _class_stats([r for r in records if r[4]])
    for cls in CLASSES:
        per_layer[f"trace.overhead_ratio.{cls}_p50_ms"] = _ratio(
            spanned[cls]["p50"], plain[cls]["p50"])
    per_layer["trace.overhead_ratio.build_s"] = _ratio(
        _build_s([r for r in records if r[4]]),
        _build_s([r for r in records if not r[4]]))
    return out
