"""The benchmark's workloads.

Each workload is set up (timed as ``setup_s``), then repeated; every
repetition starts from cleared engine caches (``clear_engines()``) and a
collected heap, measures its own wall time, and checks its outputs after
the clock stops.  Inputs derive from the workload seed only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import stats
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: The seed whose campaign payload digests are recorded in reference.json.
DEFAULT_SEED = 1

ISP_MAPS = ("abilene", "geant", "teleglobe")
SCHEMES = ("reconvergence", "fcp", "lfa", "pr")


class Rep:
    """What one measured repetition produced."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.window: Tuple[float, float] = (0.0, 0.0)
        #: Latencies (seconds) of the operations the workload timed, and
        #: when each began.
        self.latencies: List[float] = []
        self.starts: List[float] = []
        #: Counts the program keeps itself, summed into the traced report.
        self.counters: Dict[str, float] = {}
        #: Directly measured per-layer inputs (dispatch wait, client time).
        self.extra: Dict[str, float] = {}
        #: Peak RSS (MB) of the benchmark's process tree while the clock ran.
        self.rss_mb = 0.0


def _add(into: Dict[str, float], name: str, value: float) -> None:
    into[name] = into.get(name, 0) + value


def payload_digest(records: List[Dict[str, Any]]) -> str:
    """SHA-256 over the campaign payloads in ``cell_id`` order."""
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r["cell_id"]):
        digest.update(record["cell_id"].encode())
        digest.update(json.dumps(record["payload"], sort_keys=True).encode())
    return digest.hexdigest()


def reference_digest(workload: str, seed: int) -> Optional[str]:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def _campaign_counters(handle, rep: Rep) -> None:
    """Fold the program's own merged counters of a campaign into ``rep``."""
    from repro import telemetry

    for name, value in handle.engine_counters().items():
        _add(rep.counters, name, value)
    merged = handle.merged_counters()
    _add(rep.counters, "artifact_hits", merged.get("artifact_cache/hits", 0))
    _add(rep.counters, "artifact_misses", merged.get("artifact_cache/misses", 0))
    _add(rep.counters, "retries", handle.fault_counters.get("faults/retries", 0))
    _add(rep.counters, "quarantined", len(handle.quarantined))
    baseline_records = [r for r in handle.records if r["scheme"] in ("fcp", "lfa", "reconvergence")]
    memo = telemetry.merge_records(baseline_records).counters
    _add(rep.counters, "baseline_memo_hits", memo.get("outcome_memo/hits", 0))
    _add(rep.counters, "baseline_memo_misses", memo.get("outcome_memo/misses", 0))


class Workload:
    """Base class: ``setup`` once per instance, then ``rep`` repeatedly."""

    name = ""
    #: Whether a repetition's work all runs in this process's one thread
    #: (see ``CpuAlternator`` in run.py).
    serial = True
    #: Whether ``setup`` runs in this process's one thread, starting no
    #: process that would inherit a one-CPU affinity.
    serial_setup = True

    def __init__(self, seed: int, workdir: Path, outcomes: stats.Outcomes,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcomes = outcomes
        self.tracer = tracer
        self.digest: Optional[str] = None
        #: ``RssSampler`` of the untraced measured run, which reads each
        #: repetition's memory peak between ``start_clock`` and ``stop_clock``.
        self.rss = None

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, index: int) -> Rep:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def start_clock(self) -> float:
        """Open a repetition's memory window, then start its clock."""
        if self.rss is not None:
            self.rss.open_window()
        return time.perf_counter()

    def stop_clock(self, rep: Rep, start: float) -> None:
        """Stop the clock and close the memory window, before any check."""
        end = time.perf_counter()
        rep.wall, rep.window = end - start, (start, end)
        if self.rss is not None:
            rep.rss_mb = self.rss.close_window()

    def span(self, layer: str, name: str):
        from contextlib import nullcontext

        return self.tracer.span(layer, name) if self.tracer else nullcontext()

    def check_digest(self, records: List[Dict[str, Any]]) -> None:
        """Payloads repeat exactly across repetitions, and match the recorded
        reference for the default seed."""
        digest = payload_digest(records)
        if self.digest is None:
            self.digest = digest
            expected = reference_digest(self.name, self.seed)
            if expected is not None:
                self.outcomes.check(digest == expected, f"{self.name} payload digest {digest}")
        else:
            self.outcomes.check(digest == self.digest, f"{self.name} payloads repeat")


# ----------------------------------------------------------------------
# offline-embed
# ----------------------------------------------------------------------
class OfflineEmbed(Workload):
    """The offline stage alone: two Packet Re-cycling builds."""

    name = "offline-embed"
    topologies = ("fat-tree:k=6", "barabasi-albert:m=2,seed=3,size=100")
    #: build_packet_recycling's own default.  The embedding seed is fixed,
    #: not taken from the workload seed: it changes the heuristics' work by
    #: up to 2x (BA-100 builds take 4.2-9.7 s over seeds 1-12), which would
    #: swamp any bound on wall_s.
    embedding_seed = 7

    def setup(self) -> None:
        from repro.topologies.corpus import parse_topology_spec

        self.graphs = [parse_topology_spec(spec).build() for spec in self.topologies]

    def rep(self, index: int) -> Rep:
        from repro.api import build_packet_recycling
        from repro.graph.spcache import engine_counter_totals

        rep = Rep()
        built = []
        before = engine_counter_totals()
        start = self.start_clock()
        for graph in self.graphs:
            try:
                built.append(build_packet_recycling(graph, embedding_seed=self.embedding_seed))
                self.outcomes.op(True)
            except Exception as exc:  # noqa: BLE001 - a failed build is a failed op
                built.append(None)
                self.outcomes.op(False, f"build {graph.name}: {exc!r}")
        self.stop_clock(rep, start)
        rep.latencies, rep.starts = [rep.wall], [start]
        after = engine_counter_totals()
        for name in ("hits", "misses", "repair_hits", "repair_fallbacks", "evictions"):
            _add(rep.counters, name, after[name] - before.get(name, 0))

        from repro.embedding.genus import self_paired_edge_count
        from repro.embedding.validation import validate_embedding

        for graph, scheme in zip(self.graphs, built):
            if scheme is None:
                continue
            try:
                validate_embedding(graph, scheme.embedding.rotation)
                valid = True
            except Exception:  # noqa: BLE001 - any violation fails the check
                valid = False
            self.outcomes.check(valid, f"{graph.name} embedding valid")
            paired = self_paired_edge_count(scheme.embedding.rotation)
            self.outcomes.check(paired == 0, f"{graph.name} self-paired edges {paired}")
        return rep


# ----------------------------------------------------------------------
# the two campaign sweeps
# ----------------------------------------------------------------------
class Sweep(Workload):
    """A campaign run through ``run_campaign`` then ``topology_summary()``."""

    workers = 1
    with_store = False

    def spec(self):
        raise NotImplementedError

    def setup(self) -> None:
        from repro.runner.cache import ArtifactCache, cached_embedding
        from repro.runner.executor import load_topology

        self.campaign = self.spec()
        self.cache_dir = self.workdir / "cache"
        cache = ArtifactCache(self.cache_dir)
        for topology in self.campaign.topologies:
            cached_embedding(
                load_topology(topology),
                method=self.campaign.embedding_method,
                seed=self.campaign.embedding_seed,
                iterations=self.campaign.embedding_iterations,
                cache=cache,
            )

    def rep(self, index: int) -> Rep:
        from repro.runner.executor import run_campaign

        rep = Rep()
        results = self.workdir / f"rep{index}.sqlite" if self.with_store else None
        handle = None
        start = self.start_clock()
        try:
            with self.span("runner", "runner.run_campaign"):
                handle = run_campaign(
                    self.campaign, workers=self.workers, cache_dir=self.cache_dir, results=results
                )
                handle.topology_summary()
        except Exception as exc:  # noqa: BLE001 - a failed campaign fails every cell
            self.outcomes.problems.append(f"campaign: {exc!r}")
        self.stop_clock(rep, start)
        if handle is None:
            for _ in range(self.campaign.cell_count()):
                self.outcomes.op(False, "cell of a failed campaign")
            return rep
        if handle.store is not None:
            handle.store.close()
        if results is not None:
            for path in self.workdir.glob(results.name + "*"):
                path.unlink()

        rep.latencies, rep.starts = [rep.wall], [start]
        cell_seconds = [record["meta"]["elapsed_s"] for record in handle.records]
        for record in handle.records:
            self.outcomes.op(True)
        for entry in handle.quarantined:
            self.outcomes.op(False, f"quarantined {entry['cell_id']}")
        rep.extra["runner.dispatch_wait_s"] = rep.wall - sum(cell_seconds) / self.workers
        _campaign_counters(handle, rep)
        self.check_digest(handle.records)
        self.check_records(handle.records)
        return rep

    def check_records(self, records: List[Dict[str, Any]]) -> None:
        pass


class IspFailover(Sweep):
    """The paper's three maps under shared-risk and multi-link failures."""

    name = "isp-failover"

    def spec(self):
        from repro.runner.spec import CampaignSpec, ScenarioSpec

        return CampaignSpec(
            topologies=ISP_MAPS,
            schemes=SCHEMES,
            scenarios=(
                ScenarioSpec.for_model("srlg", samples=200),
                ScenarioSpec("multi-link", failures=3, samples=200),
            ),
            seed=self.seed,
        )


class CorpusSweep(Sweep):
    """Every corpus topology, many light cells, two workers, a fresh store."""

    name = "corpus-sweep"
    serial = False
    workers = 2
    with_store = True

    def spec(self):
        from repro.runner.spec import CampaignSpec, ScenarioSpec
        from repro.topologies.corpus import topology_set

        return CampaignSpec(
            topologies=tuple(topology_set("all")),
            schemes=SCHEMES,
            scenarios=(ScenarioSpec("single-link"), ScenarioSpec("node")),
            seed=self.seed,
        )

    def check_records(self, records: List[Dict[str, Any]]) -> None:
        # The paper's guarantee: PR delivers under every single link failure
        # that leaves the network connected.
        for record in records:
            if record["scheme"] == "pr" and record["scenario"]["kind"] == "single-link":
                ratio = record["payload"]["delivery_ratio"]
                self.outcomes.check(
                    ratio == 1.0, f"PR single-link delivery on {record['topology']}: {ratio}"
                )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    """A closed loop of mixed requests against ``repro serve``: first to the
    idle daemon, then while a submitted campaign job writes into the store
    being queried, until the job ends."""

    name = "serve-mixed"
    serial = False
    serial_setup = False
    socket = "serve.sock"
    #: Share of ``query`` requests in the mix; the rest are deliver/stretch.
    query_share = 0.4
    query_limits = (2, 5, 10)
    #: Job state is polled every this many requests.
    poll_every = 20
    #: Requests sent to the idle daemon before the load job is submitted.
    #: Under a job the median request swung between about 0.6 ms and 9 ms
    #: from run to run on a 2-CPU machine, so the median is taken over a
    #: fixed majority of idle-daemon requests and the job's interference
    #: shows in the tail, the request rate and wall_s.
    idle_requests = 1000

    def __init__(self, *args, trace_out: Optional[Path] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace_out = trace_out
        self.daemon: Optional[subprocess.Popen] = None
        self.expected: Dict[str, Dict[str, Any]] = {}
        self.schemes: Dict[Tuple[str, str], Any] = {}

    # -- requests ------------------------------------------------------
    def call(self, payload: Dict[str, Any], timeout: float = 60.0) -> Dict[str, Any]:
        from repro.store.serve import request

        return request(self.workdir / self.socket, payload, timeout=timeout)

    def seed_spec(self):
        from repro.runner.spec import CampaignSpec, ScenarioSpec
        from repro.topologies.corpus import topology_set

        return CampaignSpec(
            topologies=tuple(topology_set("all")),
            schemes=("reconvergence", "fcp"),
            scenarios=(ScenarioSpec("single-link"),),
            seed=self.seed,
            record_samples=False,
        )

    def load_spec(self):
        """The campaign job that writes while the loop runs.  It is
        background load, the same for every workload seed (which varies the
        requests): with its failure samples drawn from the workload seed,
        wall_s spread 0.06-0.07 of its median over five seeds, with them
        fixed 0.017."""
        from repro.runner.spec import CampaignSpec, ScenarioSpec

        return CampaignSpec(
            topologies=ISP_MAPS,
            schemes=SCHEMES,
            scenarios=(ScenarioSpec("multi-link", failures=2, samples=50),),
            seed=DEFAULT_SEED,
        )

    def setup(self) -> None:
        from repro.runner.executor import load_topology

        self.workdir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(ROOT / "perfbench" / "serve_entry.py")]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        command += [
            "serve", "--socket", self.socket, "--cache-dir", "cache",
            "--jobs", "jobs.sqlite",
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.workdir / "daemon.log", "wb") as log:
            self.daemon = subprocess.Popen(
                command, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        from repro.store.serve import request

        request(self.workdir / self.socket, {"op": "ping"}, retries=1200, retry_delay_s=0.01)
        for topology in ISP_MAPS:
            warm = self.call({"op": "warm", "topology": topology, "schemes": list(SCHEMES)})
            if not warm.get("ok"):
                raise RuntimeError(f"warm {topology}: {warm}")
        self.store = str(self.workdir / "store.sqlite")
        self.seed_campaign = self.seed_spec()
        self.seed_campaign_id = self.seed_campaign.spec_hash()
        job = self.run_job(self.seed_campaign)
        if job.get("state") != "done":
            raise RuntimeError(f"seeding the store failed: {job}")
        self.graphs = {topology: load_topology(topology) for topology in ISP_MAPS}
        self.nodes = {topology: sorted(graph.nodes()) for topology, graph in self.graphs.items()}
        self.edges = {topology: sorted(graph.edge_ids()) for topology, graph in self.graphs.items()}

    def submit(self, spec, workers: int = 1) -> str:
        response = self.call({
            "op": "submit", "spec": spec.to_dict(), "results": self.store, "workers": workers,
        })
        if not response.get("ok"):
            raise RuntimeError(f"submit: {response}")
        return response["job_id"]

    def run_job(self, spec) -> Dict[str, Any]:
        job_id = self.submit(spec)
        return self.call({"op": "job", "job_id": job_id, "wait_s": 120}, timeout=150)["job"]

    def make_request(self, rng: random.Random) -> Dict[str, Any]:
        if rng.random() < self.query_share:
            if rng.random() < 0.5:
                where = f"scheme={rng.choice(self.seed_campaign.schemes)}"
            else:
                where = f"topology={rng.choice(self.seed_campaign.topologies)}"
            return {
                "op": "query", "results": self.store,
                "filter": f"campaign:{self.seed_campaign_id} {where}",
                "limit": rng.choice(self.query_limits),
            }
        topology = rng.choice(ISP_MAPS)
        source, destination = rng.sample(self.nodes[topology], 2)
        failed = sorted(rng.sample(self.edges[topology], rng.randint(1, 3)))
        return {
            "op": rng.choice(("deliver", "stretch")), "topology": topology,
            "scheme": rng.choice(SCHEMES), "source": source,
            "destination": destination, "failed": failed,
        }

    def rep(self, index: int) -> Rep:
        rep = Rep()
        rng = random.Random(f"{self.seed}/{index}")
        stats_before = self.call({"op": "stats"})
        sent: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []

        def send() -> None:
            payload = self.make_request(rng)
            began = time.perf_counter()
            with self.span("serve", "serve.request"):
                try:
                    response = self.call(payload)
                except Exception as exc:  # noqa: BLE001 - transport errors fail the op
                    response = {"ok": False, "error": repr(exc)}
            rep.latencies.append(time.perf_counter() - began)
            rep.starts.append(began)
            sent.append((payload, response))

        start = self.start_clock()
        for _ in range(self.idle_requests):
            send()
        # The load job's cells run in a two-process pool, as a sweep's would:
        # run in the daemon's own interpreter they take its lock, and the
        # request tail then swung 115-325 ms between runs.
        job_id = self.submit(self.load_spec(), workers=2)
        self.outcomes.op(True)
        state = "queued"
        while state in ("queued", "running"):
            send()
            if len(sent) % self.poll_every == 0:
                with self.span("serve", "serve.job_poll"):
                    state = self.call({"op": "job", "job_id": job_id})["job"]["state"]
        self.stop_clock(rep, start)
        job = self.call({"op": "job", "job_id": job_id})["job"]
        self.outcomes.check(job["state"] == "done", f"load job {job['state']}: {job['last_error']}")
        stats_after = self.call({"op": "stats"})
        self._fold_stats(rep, stats_before, stats_after)
        for payload, response in sent:
            self.verify(payload, response)
        return rep

    def _fold_stats(self, rep: Rep, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        for name, value in after["engine_counters"].items():
            _add(rep.counters, name, value - before["engine_counters"].get(name, 0))
        for key, counter in (("shed", "serve/overloaded"), ("deadline", "serve/deadline_exceeded")):
            _add(rep.counters, key, after["counters"].get(counter, 0) - before["counters"].get(counter, 0))

    def verify(self, payload: Dict[str, Any], response: Dict[str, Any]) -> None:
        what = f"{payload['op']} {response.get('error_type') or ''} {response.get('error') or ''}"
        self.outcomes.op(bool(response.get("ok")), what.strip())
        if not response.get("ok"):
            return
        if payload["op"] == "query":
            self.outcomes.check(response["records"] <= payload["limit"], "query respects limit")
            return
        expected = self.expected_outcome(payload)
        got = {key: response.get(key) for key in expected}
        self.outcomes.check(got == expected, f"{payload} answered {got}, library gives {expected}")

    def expected_outcome(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The same delivery computed in this process through the library."""
        from repro.graph.spcache import engine_for
        from repro.runner.cache import ArtifactCache, cached_embedding
        from repro.runner.executor import build_scheme

        key = json.dumps([payload[k] for k in ("topology", "scheme", "source", "destination", "failed")])
        if key not in self.expected:
            graph = self.graphs[payload["topology"]]
            scheme = self.schemes.get((payload["topology"], payload["scheme"]))
            if scheme is None:
                embedding = None
                if payload["scheme"] == "pr":
                    cache = ArtifactCache(self.workdir / "cache")
                    embedding = cached_embedding(graph, cache=cache)
                scheme = build_scheme(payload["scheme"], graph, embedding=embedding)
                self.schemes[(payload["topology"], payload["scheme"])] = scheme
            outcome = scheme.deliver(
                payload["source"], payload["destination"], failed_links=payload["failed"]
            )
            expected = {
                "status": outcome.status.value,
                "hops": outcome.hops,
                "cost": outcome.cost,
            }
            if outcome.status.value == "delivered":
                baseline = engine_for(graph).distances(payload["destination"]).get(payload["source"])
                if baseline:
                    expected["stretch"] = outcome.cost / baseline
            self.expected[key] = expected
        return self.expected[key]

    def teardown(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            if daemon.poll() is None:
                self.call({"op": "shutdown"}, timeout=10.0)
            daemon.wait(timeout=20.0)
        except Exception:  # noqa: BLE001 - the daemon is stopped below either way
            pass
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)


WORKLOADS = {
    cls.name: cls for cls in (OfflineEmbed, IspFailover, CorpusSweep, ServeMixed)
}
