"""Server workloads: ``serve_cold_bulk`` and ``serve_hot_mix``.

Both drive the shipping server, ``python -m repro serve-net`` with the
``small`` KTeleBERT checkpoint, a persistent store, an ANN index and the
tiny-world task adapters.  One connection runs a closed loop: like a
fault-analysis caller, it waits for each reply before sending again, so
the server handles one request at a time and the batches it forms do not
depend on how two clients happen to interleave.  Requests come from the
benchmark seed; the server sees only the requests.
"""

from __future__ import annotations

import collections
import itertools
import queue
import signal
import subprocess
import threading
import time

import numpy as np

from common import (
    HERE,
    PYTHON,
    ROOT,
    BenchError,
    HostProbe,
    Pass,
    child_env,
    cpu_seconds,
    fresh_dir,
    reap,
)

#: ``serve-net --adapters`` fits on this tiny world (its default seed).
WORLD_SEED = 11
API_KEY = "dev-key"
CONNECTIONS = 1
#: Fresh servers per untraced run; setup time and memory are their median.
COLD_SERVERS = 3
HOT_SERVERS = 3
#: Hot-mix working set, pre-warmed into the store and index during setup.
POOL_SIZE = 256
#: Requests per server for each second of ``--seconds``: fixed seeded
#: work, sized so the requests of all servers take about ``--seconds``
#: on a 2-vCPU host.  At ``--seconds 20`` a cold server gets 420
#: requests of 16-32 names, 10080 +- 100, so its index auto-flushes
#: exactly twice (at 4096 and 8192 pending rows) whatever the seed.
COLD_REQUESTS_PER_S = 21
HOT_REQUESTS_PER_S = 80
#: Cold names checked against the offline encoder, per server.
COLD_SAMPLE = 16
#: Served vectors are rounded to 6 decimals by the response envelope.
VECTOR_TOLERANCE = 1e-5


def tiny_world():
    """The seeded world ``serve-net --adapters`` builds its adapters on."""
    from repro.world import TelecomWorld

    return TelecomWorld.generate(seed=WORLD_SEED, alarms_per_theme=2,
                                 kpis_per_theme=2, topology_nodes=6)


class Server:
    """One ``serve-net`` child process on an ephemeral port."""

    def __init__(self, checkpoint, name: str, spans_out=None):
        work = fresh_dir(name)
        self.spawned = time.perf_counter()
        args = ["serve-net", "--checkpoint", str(checkpoint),
                "--store", str(work / "store"), "--index", str(work / "index"),
                "--adapters", "--world-seed", str(WORLD_SEED),
                "--api-key", API_KEY, "--port", "0"]
        command = ([PYTHON, "-m", "repro", *args] if spans_out is None else
                   [PYTHON, str(HERE / "traced.py"), str(spans_out), "--",
                    *args])
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._tail: collections.deque = collections.deque(maxlen=40)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(timeout_s=120.0)
        except BaseException:
            self.proc.kill()
            reap(self.proc, 10.0)
            raise

    def _read(self) -> None:
        for line in self.proc.stderr:
            self._tail.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("server did not start listening") from None
            if line is None:
                raise BenchError("server exited before listening:\n"
                                 + "".join(self._tail))
            if line.startswith("netserve listening on "):
                return int(line.strip().rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        """CPU seconds the server has used since it was spawned."""
        return cpu_seconds(self.proc.pid)

    def stop(self) -> float:
        """SIGTERM (graceful drain), reap; returns peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        rss, _ = reap(self.proc, 60.0)
        self._reader.join(5.0)
        if self.proc.returncode != 0:
            raise BenchError(f"server exited with {self.proc.returncode}:\n"
                             + "".join(self._tail))
        return rss


def drive(port: int, requests,
          keep=lambda request, reply: reply) -> list[tuple]:
    """Closed loop over ``CONNECTIONS`` connections.

    Pulls requests from the shared iterator until it ends; returns
    ``(request, keep(request, reply), sent, received)`` per request, where
    a transport failure gives ``reply=None``.
    """
    from repro.loadgen.client import NetClient, ProtocolError

    lock = threading.Lock()
    records: list[tuple] = []
    errors: list[BaseException] = []

    def connection() -> None:
        try:
            with NetClient("127.0.0.1", port, timeout_s=60.0) as client:
                while True:
                    with lock:
                        request = next(requests, None)
                    if request is None:
                        return
                    sent = time.perf_counter()
                    try:
                        reply = client.request(request)
                    except ProtocolError:
                        reply = None
                    received = time.perf_counter()
                    records.append((request, keep(request, reply), sent,
                                    received))
        except BaseException as error:  # reported after join
            errors.append(error)

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    return records


def call(port: int, request: dict) -> dict:
    """One request on a fresh connection (set-up and stats traffic)."""
    from repro.loadgen.client import NetClient

    with NetClient("127.0.0.1", port, timeout_s=60.0) as client:
        reply = client.request(request)
    if not reply.get("ok"):
        raise BenchError(f"{request.get('op')} failed: {reply}")
    return reply


def server_counters(port: int) -> dict:
    """Store hit/miss and batcher counters from the server's stats op."""
    reply = call(port, {"op": "stats", "api_key": API_KEY})
    return {"hits": reply["cache"]["hits"], "misses": reply["cache"]["misses"],
            "batches": reply["batcher"]["batches_flushed"],
            "names": reply["batcher"]["names_encoded"]}


class Tally:
    """Outcomes of the measured requests of one or more server passes."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.passes: list[Pass] = []
        self.setups_s: list[float] = []
        self.rss_mb: list[float] = []

    @property
    def cpu_ms_per_op(self) -> float:
        """Server CPU per request, divided by the host's slowdown."""
        return 1000.0 * sum(p.cpu_s / p.slowdown
                            for p in self.passes) / self.ops

    def add(self, records: list[tuple], cpu_s: float, slowdown: float,
            check) -> None:
        """Count a pass's records; ``check(request, kept)`` names a fault.

        ``cpu_s`` is the server's CPU time across the pass's requests and
        ``slowdown`` the host's meanwhile.
        """
        latencies = []
        for request, kept, sent, received in records:
            latencies.append((received - sent) * 1000.0)
            problem = check(request, kept)
            if problem is not None:
                self.failed += 1
                if len(self.wrong) < 5:
                    self.wrong.append(f"request {request.get('id')} "
                                      f"({request['op']}): {problem}")
        self.ops += len(records)
        window = max(r[3] for r in records) - min(r[2] for r in records)
        self.passes.append(Pass(len(records), window, latencies, cpu_s,
                                slowdown))


def check_ok(reply) -> str | None:
    if reply is None:
        return "transport failure"
    if not reply.get("ok"):
        return f"{reply.get('code')}: {reply.get('error')}"
    return None


def vector_error(served, expected: np.ndarray) -> str | None:
    got = np.asarray(served, dtype=np.float64)
    if got.shape != expected.shape:
        return f"vector shape {got.shape}, expected {expected.shape}"
    gap = float(np.max(np.abs(got - expected)))
    if gap > VECTOR_TOLERANCE:
        return f"served vector differs from offline encode by {gap:.3g}"
    return None


class Reference:
    """Offline vectors: ``KTeleBertProvider(load_ktelebert(ckpt))``."""

    def __init__(self, checkpoint):
        from repro.models import load_ktelebert
        from repro.service import KTeleBertProvider

        self.provider = KTeleBertProvider(load_ktelebert(checkpoint),
                                          mode="name")
        self.dim = self.provider.dim

    def vector(self, name: str) -> np.ndarray:
        return self.provider.encode_names([name])[0]


# ----------------------------------------------------------------------
# serve_cold_bulk
# ----------------------------------------------------------------------
def cold_requests(seed: int, count: int, first_id: int) -> list[dict]:
    """``count`` embeds of 16-32 names that no earlier request carried."""
    world = tiny_world()
    surfaces = ([a.name for a in world.ontology.alarms]
                + [k.name for k in world.ontology.kpis])
    nodes = list(world.topology.nodes)
    rng = np.random.default_rng([seed, first_id])
    requests, serial = [], 0
    for offset in range(count):
        names = []
        for _ in range(int(rng.integers(16, 33))):
            node = nodes[int(rng.integers(len(nodes)))]
            surface = surfaces[int(rng.integers(len(surfaces)))]
            names.append(f"{node} {surface} #{first_id}-{serial}")
            serial += 1
        requests.append({"op": "embed", "names": names, "api_key": API_KEY,
                         "id": first_id + offset})
    return requests


def cold_pass(checkpoint, requests: list[dict], tally: Tally,
              reference: Reference, seed: int, probe: HostProbe,
              spans_out=None) -> dict:
    """One fresh server with an empty store and index, fixed requests."""
    sample_rng = np.random.default_rng([seed, requests[0]["id"], 1])
    picks = sample_rng.choice(len(requests), size=COLD_SAMPLE, replace=False)
    sampled = {requests[int(i)]["names"][0] for i in picks}
    server = Server(checkpoint, "cold", spans_out=spans_out)
    try:
        call(server.port, {"op": "ping"})
        setup_s, ready = server.cpu_s(), time.perf_counter()
        before = server_counters(server.port)

        def keep(request, reply):
            # Keep only what the checks need: the envelope's shape and
            # the sampled vectors (a full cold reply is 32x32 floats).
            if reply is None or not reply.get("ok"):
                return reply
            rows = reply["embeddings"]
            return {"ok": True, "shape": (len(rows), len(rows[0])),
                    "sampled": {n: rows[i] for i, n in
                                enumerate(request["names"]) if n in sampled}}

        cpu_before, started = server.cpu_s(), time.perf_counter()
        records = drive(server.port, iter(requests), keep=keep)
        cpu_s, ended = server.cpu_s() - cpu_before, time.perf_counter()
        after = server_counters(server.port)
    finally:
        rss = server.stop()

    def check(request, kept):
        problem = check_ok(kept)
        if problem is not None:
            return problem
        if kept["shape"] != (len(request["names"]), reference.dim):
            return f"embeddings shape {kept['shape']}"
        for name, row in kept["sampled"].items():
            problem = vector_error(row, reference.vector(name))
            if problem is not None:
                return f"{name!r}: {problem}"
        return None

    tally.add(records, cpu_s, probe.slowdown(started, ended), check)
    tally.setups_s.append(setup_s / probe.slowdown(server.spawned, ready))
    tally.rss_mb.append(rss)
    return {"records": records, "before": before, "after": after}


def run_cold(checkpoint, seed: int, seconds: int, probe: HostProbe,
             servers: int = COLD_SERVERS,
             spans_out=None) -> tuple[Tally, list[dict]]:
    reference = Reference(checkpoint)
    per_server = COLD_REQUESTS_PER_S * seconds
    tally, passes = Tally(), []
    for index in range(servers):
        requests = cold_requests(seed, per_server,
                                 first_id=index * per_server)
        passes.append(cold_pass(checkpoint, requests, tally, reference, seed,
                                probe, spans_out=spans_out))
    return tally, passes


# ----------------------------------------------------------------------
# serve_hot_mix
# ----------------------------------------------------------------------
class HotMix:
    """Seeded request stream over a pre-warmed 256-name pool.

    50% embed of 1-4 pool names, 10% knn (k=10) of one pool name, 40%
    rca/eap/classify_fault drawn by :class:`repro.loadgen.RequestFactory`
    on the adapters' world seed.
    """

    def __init__(self, seed: int):
        from repro.loadgen.runner import RequestFactory, parse_mix
        from repro.tasks.fct import build_fct_dataset

        world = tiny_world()
        alarms = [a.name for a in world.ontology.alarms]
        kpis = [k.name for k in world.ontology.kpis]
        combos = [f"{a} | {k}" for a in alarms for k in kpis]
        self.rng = np.random.default_rng(seed)
        picks = self.rng.choice(len(combos), size=POOL_SIZE, replace=False)
        self.pool = [combos[int(i)] for i in picks]
        self.catalog = set(build_fct_dataset(
            world, world.simulate_episodes(30)).entity_names)
        self.tasks = RequestFactory(parse_mix("rca=1,eap=1,fct=1"),
                                    seed=seed, world_seed=WORLD_SEED)
        # Set-up traffic: the whole pool, a knn, and one op of each task
        # kind (the first use fits that adapter).
        self.warm = [{"op": "embed", "names": self.pool[i:i + 32]}
                     for i in range(0, POOL_SIZE, 32)]
        self.warm.append({"op": "knn", "names": [self.pool[0]], "k": 10})
        first_of_kind: dict[str, dict] = {}
        while len(first_of_kind) < 3:
            payload = self.tasks.build(0)[1]
            first_of_kind.setdefault(payload["op"], payload)
        self.warm.extend(first_of_kind.values())
        for number, request in enumerate(self.warm):
            request.update(api_key=API_KEY, id=f"warm-{number}")
        self.next_id = 0

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        draw = self.rng.random()
        if draw < 0.5:
            count = int(self.rng.integers(1, 5))
            picks = self.rng.choice(POOL_SIZE, size=count, replace=False)
            request = {"op": "embed", "names": [self.pool[int(i)]
                                                for i in picks]}
        elif draw < 0.6:
            request = {"op": "knn", "k": 10,
                       "names": [self.pool[int(self.rng.integers(POOL_SIZE))]]}
        else:
            request = self.tasks.build(0)[1]
        request.update(api_key=API_KEY, id=self.next_id)
        self.next_id += 1
        return request

    def check(self, expected: dict, request: dict, reply) -> str | None:
        problem = check_ok(reply)
        if problem is not None:
            return problem
        op = request["op"]
        if op == "embed":
            rows = reply["embeddings"]
            if len(rows) != len(request["names"]):
                return f"{len(rows)} rows for {len(request['names'])} names"
            for name, row in zip(request["names"], rows):
                problem = vector_error(row, expected[name])
                if problem is not None:
                    return f"{name!r}: {problem}"
        elif op == "knn":
            top = reply["neighbours"][0][0]["name"]
            if top != request["names"][0]:
                return f"knn top-1 is {top!r}, not the query name"
        elif op == "rca":
            ranked = sorted(entry["node"] for entry in reply["ranking"])
            if ranked != sorted(request["nodes"]):
                return "rca ranking is not a permutation of the nodes"
        elif op == "eap":
            confidences = [v["confidence"] for v in reply["verdicts"]]
            if len(confidences) != len(request["pairs"]):
                return "eap verdict count differs from the pair count"
            if not all(0.0 <= c <= 1.0 for c in confidences):
                return f"eap confidence outside [0, 1]: {confidences}"
        elif op == "classify_fault":
            hops = [hop["alarm"] for hop in reply["next_hops"]]
            if len(hops) > request["top_k"]:
                return f"{len(hops)} hops for top_k={request['top_k']}"
            strays = [h for h in hops if h not in self.catalog]
            if strays:
                return f"fct hops outside the alarm catalog: {strays}"
        return None


def hot_pass(checkpoint, mix: HotMix, expected: dict, requests: int,
             tally: Tally, probe: HostProbe, spans_out=None) -> dict:
    """One fresh server: warm the pool and adapters, then ``requests``."""
    server = Server(checkpoint, "hot", spans_out=spans_out)
    try:
        for request in mix.warm:
            call(server.port, request)
        setup_s, ready = server.cpu_s(), time.perf_counter()
        before = server_counters(server.port)
        cpu_before, started = server.cpu_s(), time.perf_counter()
        records = drive(server.port, itertools.islice(mix, requests))
        cpu_s, ended = server.cpu_s() - cpu_before, time.perf_counter()
        after = server_counters(server.port)
    finally:
        rss = server.stop()
    tally.add(records, cpu_s, probe.slowdown(started, ended),
              lambda request, reply: mix.check(expected, request, reply))
    tally.setups_s.append(setup_s / probe.slowdown(server.spawned, ready))
    tally.rss_mb.append(rss)
    return {"records": records, "before": before, "after": after}


def run_hot(checkpoint, seed: int, seconds: int, probe: HostProbe,
            servers: int = HOT_SERVERS,
            spans_out=None) -> tuple[Tally, list[dict]]:
    mix = HotMix(seed)
    reference = Reference(checkpoint)
    expected = {name: reference.vector(name) for name in mix.pool}
    tally, passes = Tally(), []
    for _ in range(servers):
        passes.append(hot_pass(checkpoint, mix, expected,
                               HOT_REQUESTS_PER_S * seconds, tally, probe,
                               spans_out=spans_out))
    return tally, passes
