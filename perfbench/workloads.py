"""The benchmark's three workloads, each driving Owl's public API.

Every workload is a closed loop: a client issues its next op only after
the previous one returned.  Ops are grouped in *rounds* whose mix is fixed
(only the order and the per-op input seeds come from ``--seed``).  A run
measures whole rounds, as many as fill ``--seconds`` at each workload's
nominal :attr:`round_seconds`, so two runs with different seeds measure
the same ops of each kind, however fast the machine is.

* ``detect-full`` — one client; each round is a seeded permutation of
  seven cold ``Owl.detect`` calls (classic 100+100, ks, no store): every
  target once, ``rsa`` two more times.
* ``reanalyze-warm`` — one client over a store pre-filled with classic
  campaigns; each op re-analyses cached evidence under a seeded
  analysis-scope config, one op in four repeats an earlier config with the
  report cache on.
* ``service-mixed`` — ``owl serve`` over HTTP in its own process with the
  default two-worker fleet; one client thread per tenant submits a
  campaign, polls ``status`` until it is terminal, fetches the results and
  submits the next; the two step through one seeded order in lock-step.

Ops only keep their reports while they are measured;
:meth:`check_results` checks them afterwards, so checking costs nothing
inside the measured phase.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from checks import REFERENCE_SEED, Checker, CheckFailed, check_identical

perf_counter = time.perf_counter

#: replicas per side of a warm-up op: enough to run every code path once
WARM_UP_RUNS = 10


@dataclass
class Context:
    root: Path          # the checkout: src/ and perfbench/ live here
    workdir: Path       # scratch space inside the checkout, removed after
    seed: int
    runs: int           # replicas per side (100 is the paper's protocol)
    checker: Checker


@dataclass
class Op:
    """One planned op: everything needed to run it again identically."""
    target: str
    config: Dict
    reuse_report: bool = False
    tenant: Optional[str] = None
    resubmit: bool = False

    def key(self) -> Tuple[str, str]:
        return self.target, json.dumps(self.config, sort_keys=True)


@dataclass
class OpResult:
    op: Op
    latency: float
    error: str = ""
    report_json: str = ""
    #: the report object of an in-process op, until it is checked
    report: object = None
    #: per-op counters read from the result (PhaseStats, adaptive, ...)
    stats: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


def _base_config(runs: int, seed: int) -> Dict:
    # always_analyze: torch-conv2d and nvjpeg-decode show no potential
    # leakage between their two fixed inputs, and without it their
    # detections would stop after phase 1
    return {"seed": seed, "fixed_runs": runs, "random_runs": runs,
            "always_analyze": True}


def _tree_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


def _error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _recorded(report) -> int:
    return report.num_fixed_runs + report.num_random_runs


class InProcess:
    """Shared op execution for the two workloads that call Owl.detect."""

    name = ""
    store = None
    client_threads = 1
    rpc_seconds = ()  # no service, no RPCs

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.setup_errors: List[str] = []

    def _resolve(self, targets) -> None:
        from repro.apps.registry import resolve
        self.entries = {target: resolve(target) for target in targets}

    def execute(self, op: Op) -> OpResult:
        from repro.core import Owl, OwlConfig
        program, fixed_inputs, random_input = self.entries[op.target]
        started = perf_counter()
        try:
            owl = Owl(program, name=op.target, config=OwlConfig(**op.config))
            result = owl.detect(fixed_inputs(), random_input=random_input,
                                store=self.store,
                                reuse_report=op.reuse_report)
        except Exception as error:  # a failed op is counted, not fatal
            return OpResult(op, perf_counter() - started, _error(error))
        latency = perf_counter() - started
        stats = result.stats
        out = OpResult(op, latency, report=result.report, stats={
            "traces": stats.trace_count,
            "fused_launches": stats.replica_fused_launches,
            "fallback_launches": stats.replica_fallback_launches,
            "report_cache_hit": int(stats.report_cache_hit),
            "degradations": len(result.degradations)})
        if result.adaptive is not None:
            out.stats["adaptive_recorded"] = _recorded(result.report)
        return out

    def execute_checked(self, op: Op, label: str) -> OpResult:
        """A set-up op, checked at once; failures become set-up errors."""
        result = self.execute(op)
        self.check_results([result])
        if not result.ok:
            self.setup_errors.append(f"{label} {op.target}: {result.error}")
        return result

    def check_results(self, results: List[OpResult]) -> None:
        """Check every op's report, in op order; failures set ``error``."""
        for result in results:
            if not result.ok:
                continue
            result.report_json = result.report.to_json()
            try:
                self.check(result)
            except CheckFailed as error:
                result.error = _error(error)
            result.report = None

    def check(self, result: OpResult) -> None:
        self.ctx.checker.check_report(result.report, result.op.target,
                                      result.op.config)

    def run_round(self, ops: List[Op], recorder=None,
                  base: int = 0) -> List[OpResult]:
        results = []
        for index, op in enumerate(ops):
            if recorder is None:
                results.append(self.execute(op))
                continue
            recorder.set_op(base + index)
            with recorder.span("op"):
                results.append(self.execute(op))
        return results

    def start_replay(self) -> None:
        """Prepare to run the measured ops again, traced."""

    def child_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        pass

    def subprocess_totals(self, window):
        from spans import Totals
        return Totals({}, {}, {})

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics read from the run's files after it closed."""
        if self.store is None:
            return {}
        return {"store.blob_bytes": _tree_bytes(self.store.root / "objects")}


class DetectFull(InProcess):
    name = "detect-full"
    TARGETS = ("aes", "rsa", "nvjpeg-encode", "torch-conv2d", "dummy")
    #: every target once plus two more rsa detections.  Two targets are
    #: faster than rsa and two slower, so the median of any number of
    #: rounds is the middle of their rsa detections, not one noisy op
    #: between two kinds.  From six rounds on, the tail (the 11th op from
    #: the top) falls among the fastest aes and nvjpeg-encode detections:
    #: a low quantile of the two slow kinds, not the few slowest rsa
    ROUND = TARGETS + ("rsa",) * 2
    #: one round at 100+100 on a 2-vCPU VM (Python 3.11, NumPy 2.4)
    round_seconds = 8.6

    def setup(self) -> None:
        self._resolve(self.TARGETS)
        for target in self.TARGETS:
            self.execute_checked(Op(target, _base_config(
                min(WARM_UP_RUNS, self.ctx.runs), REFERENCE_SEED)),
                "warm-up")

    def rounds(self) -> Iterator[List[Op]]:
        """The first round runs at the reference seed, where every report
        must flag exactly the committed set; later rounds draw each op's
        input seed."""
        rng = random.Random(f"{self.name}:{self.ctx.seed}")
        first = True
        while True:
            order = list(self.ROUND)
            rng.shuffle(order)
            yield [Op(target, _base_config(
                self.ctx.runs,
                REFERENCE_SEED if first else rng.randrange(2 ** 31)))
                for target in order]
            first = False


class ReanalyzeWarm(InProcess):
    name = "reanalyze-warm"
    TARGETS = ("aes", "nvjpeg-encode", "nvjpeg-decode")
    ANALYSIS = tuple((analyzer, granularity, confidence)
                     for analyzer in ("ks", "mi", "both")
                     for granularity in (1, 64)
                     for confidence in (0.95, 0.99))
    COLD = ("ks", 1, 0.95)  # the pre-filled campaigns' analysis config
    #: one round (48 ops) at 100+100 on a 2-vCPU VM
    round_seconds = 3.7

    def setup(self) -> None:
        from repro.store import TraceStore
        self._resolve(self.TARGETS)
        self.store = TraceStore(self.ctx.workdir / "store")
        self.cold: Dict[str, str] = {}
        #: op key -> the first report bytes of that config in this run
        self.seen: Dict[Tuple[str, str], str] = {}
        for target in self.TARGETS:
            cold = self.execute_checked(self._op(target, self.COLD),
                                        "pre-fill")
            if cold.ok:
                self.cold[target] = cold.report_json
            # warm-up: the first re-analysis, which must equal the cold
            # report byte for byte
            self.execute_checked(self._op(target, self.COLD), "warm-up")

    def _op(self, target: str, analysis: Tuple, reuse: bool = False) -> Op:
        # the pre-filled campaigns use the reference seed, so every
        # re-analysis must flag exactly the committed set for its config
        analyzer, granularity, confidence = analysis
        config = _base_config(self.ctx.runs, REFERENCE_SEED)
        config.update(analyzer=analyzer, offset_granularity=granularity,
                      confidence=confidence)
        return Op(target, config, reuse_report=reuse)

    def check(self, result: OpResult) -> None:
        super().check(result)
        op = result.op
        config = op.config
        analysis = (config["analyzer"], config["offset_granularity"],
                    config["confidence"])
        if analysis == self.COLD and op.target in self.cold:
            check_identical(f"{op.target} warm vs cold", result.report_json,
                            self.cold[op.target])
        if op.reuse_report:
            check_identical(f"{op.target} {analysis} report cache",
                            result.report_json, self.seen.get(op.key()))
        else:
            self.seen.setdefault(op.key(), result.report_json)

    def rounds(self) -> Iterator[List[Op]]:
        """Each round: every (target, analysis) pair once, in seeded order,
        plus one repeat with the report cache on per three fresh ops."""
        rng = random.Random(f"{self.name}:{self.ctx.seed}")
        pairs = [(target, analysis) for target in self.TARGETS
                 for analysis in self.ANALYSIS]
        while True:
            fresh = list(pairs)
            rng.shuffle(fresh)
            ops: List[Op] = []
            for index, (target, analysis) in enumerate(fresh):
                ops.append(self._op(target, analysis))
                if index % 3 == 2:
                    again = fresh[rng.randrange(index + 1)]
                    ops.append(self._op(*again, reuse=True))
            yield ops


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _kill_worker(pid: int, timeout: float = 10.0) -> None:
    """SIGKILL *pid* if it is still a fleet worker, and wait for it."""
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return
    if b"repro.service.worker" not in cmdline:
        return  # gone, and the pid was reused
    try:
        os.kill(pid, 9)
    except OSError:
        return
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
        time.sleep(0.05)


class _Service:
    """``owl serve`` over HTTP on loopback, in its own process."""

    TOKENS = {"tenant-a": "token-a", "tenant-b": "token-b"}

    def __init__(self, ctx: Context, label: str,
                 spans_dir: Optional[Path]) -> None:
        from repro.service import ServiceClient
        self.root = ctx.workdir / label
        self.root.mkdir(parents=True)
        self.store = self.root / "store"
        self.queue = self.root / "queue"
        self.url = f"http://127.0.0.1:{_free_port()}"
        env = dict(os.environ)
        paths = [str(ctx.root / "src")]
        if spans_dir is not None:
            paths.insert(0, str(Path(__file__).resolve().parent / "hook"))
            env["PERFBENCH_SPANS"] = str(spans_dir)
        else:
            env.pop("PERFBENCH_SPANS", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--store", str(self.store), "--queue", str(self.queue),
                   "--connect", self.url]
        for tenant, token in self.TOKENS.items():
            command += ["--token", f"{token}={tenant}"]
        self.log = open(self.root / "serve.log", "w")
        self.proc = subprocess.Popen(command, cwd=self.root, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.clients = {tenant: ServiceClient(self.url, token=token,
                                              timeout=10.0)
                        for tenant, token in self.TOKENS.items()}
        self.known_pids: set = set()
        try:
            self.clients["tenant-a"].wait_until_up(timeout=60)
        except Exception:
            self.stop()
            raise

    def pids(self) -> List[int]:
        from measure import descendants
        live = [self.proc.pid] + descendants(self.proc.pid)
        self.known_pids.update(live)
        return live

    def stop(self) -> None:
        from repro.errors import OwlError
        if self.proc.poll() is None:
            try:
                self.clients["tenant-a"].shutdown()
            except (OSError, OwlError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # a worker the fleet failed to reap: make sure it is gone
        for pid in self.known_pids - {self.proc.pid}:
            _kill_worker(pid)
        self.log.close()


class ServiceMixed:
    name = "service-mixed"
    #: fresh campaign kinds: (target, extra config)
    KINDS = {
        "aes": ("aes", {}),
        "rsa": ("rsa", {}),
        "conv2d": ("torch-conv2d", {}),
        "nvjpeg-adaptive": ("nvjpeg-encode",
                            {"adaptive": True, "analyzer": "both"}),
        "aes-adaptive": ("aes", {"adaptive": True, "analyzer": "both"}),
    }
    #: one tenant's share of a round: six fresh campaigns, two resubmits
    DECK = ("aes", "rsa", "rsa", "conv2d", "nvjpeg-adaptive",
            "aes-adaptive", "resubmit", "resubmit")
    POLL_SECONDS = 0.05
    #: a campaign not terminal after this long has failed ("timed out");
    #: the slowest one takes about 6 s
    CAMPAIGN_TIMEOUT = 30.0
    client_threads = 2
    #: one round (16 campaigns) at 100+100 on a 2-vCPU VM
    round_seconds = 17.5
    store = None  # campaigns run against the service's store

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.setup_errors: List[str] = []
        self.service: Optional[_Service] = None
        self.spans_dir: Optional[Path] = None
        self.rpc_seconds: List[float] = []
        #: tenant -> its warm-up campaigns, the first a resubmission can name
        self.warm_ups: Dict[str, List[Op]] = {
            tenant: [] for tenant in _Service.TOKENS}
        #: op key -> report bytes of the first campaign with that config
        self.reports: Dict[Tuple[str, str], str] = {}
        #: set once a campaign timed out: the service is stuck, and the
        #: remaining campaigns fail at once instead of waiting in turn
        self.stuck = False

    # -- lifecycle ----------------------------------------------------

    def setup(self) -> None:
        self.service = _Service(self.ctx, "service", None)
        self._warm_up(compare_direct=True)

    def _kind_op(self, kind: str, tenant: str, seed: int, runs: int) -> Op:
        target, extra = self.KINDS[kind]
        config = _base_config(runs, seed)
        config.update(extra)
        return Op(target, config, tenant=tenant)

    def _warm_up(self, compare_direct: bool) -> None:
        """One small campaign per kind, tenants alternating.

        While the service runs them, the client computes the same reports
        with a direct ``Owl.detect`` and requires byte-identical results.
        """
        tenants = list(_Service.TOKENS)
        ops = [self._kind_op(kind, tenants[i % 2], REFERENCE_SEED,
                             WARM_UP_RUNS)
               for i, kind in enumerate(self.KINDS)]
        receipts = [self.service.clients[op.tenant].submit(
            op.target, config=op.config) for op in ops]
        direct = [self._direct(op) for op in ops] if compare_direct else []
        results = []
        for op, receipt in zip(ops, receipts):
            client = self.service.clients[op.tenant]
            client.wait_for(receipt.campaign, timeout=self.CAMPAIGN_TIMEOUT,
                            poll=self.POLL_SECONDS)
            payload = client.results(receipt.campaign)
            result = OpResult(op, 0.0, report_json=payload.report_json or "")
            if not payload.complete:
                result.error = f"campaign {payload.stage}: {payload.error}"
            results.append(result)
        self.check_results(results)
        for index, result in enumerate(results):
            if result.ok and compare_direct:
                try:
                    check_identical(f"service vs direct {result.op.key()}",
                                    result.report_json, direct[index])
                except CheckFailed as error:
                    result.error = _error(error)
            if not result.ok:
                self.setup_errors.append(
                    f"warm-up {result.op.target}: {result.error}")
            elif compare_direct:
                self.warm_ups[result.op.tenant].append(result.op)

    def _direct(self, op: Op) -> str:
        from repro.apps.registry import resolve
        from repro.core import Owl, OwlConfig
        program, fixed_inputs, random_input = resolve(op.target)
        owl = Owl(program, name=op.target, config=OwlConfig(**op.config))
        result = owl.detect(fixed_inputs(), random_input=random_input,
                            store=self.ctx.workdir / "direct")
        return result.report.to_json()

    def start_replay(self) -> None:
        """A fresh, traced service in the state setup left the first in."""
        self.service.stop()
        self.spans_dir = self.ctx.workdir / "spans"
        self.spans_dir.mkdir()
        self.service = _Service(self.ctx, "service-traced", self.spans_dir)
        self._warm_up(compare_direct=False)

    def child_pids(self) -> List[int]:
        return self.service.pids()

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()

    # -- ops ----------------------------------------------------------

    def rounds(self) -> Iterator[List[Op]]:
        """Both tenants send the round's kinds in one seeded order, and
        :meth:`run_round` keeps them in step, so two campaigns that overlap
        are of one kind.  Each tenant draws its own input seeds and
        resubmissions.  A resubmission names a fresh campaign the other
        tenant ran in an earlier round or in the warm-up, so it has
        completed by then."""
        order = random.Random(f"{self.name}:{self.ctx.seed}")
        rngs = {tenant: random.Random(f"{self.name}:{self.ctx.seed}:{tenant}")
                for tenant in _Service.TOKENS}
        ran = {tenant: list(ops) for tenant, ops in self.warm_ups.items()}
        while True:
            ops: List[Op] = []
            fresh: Dict[str, List[Op]] = {tenant: [] for tenant in rngs}
            deck = list(self.DECK)
            order.shuffle(deck)
            for tenant, rng in rngs.items():
                other = next(t for t in rngs if t != tenant)
                for kind in deck:
                    if kind == "resubmit":
                        ops.append(dataclasses.replace(
                            rng.choice(ran[other]), tenant=tenant,
                            resubmit=True))
                        continue
                    op = self._kind_op(kind, tenant, rng.randrange(2 ** 31),
                                       self.ctx.runs)
                    fresh[tenant].append(op)
                    ops.append(op)
            for tenant, ops_run in fresh.items():
                ran[tenant] += ops_run
            yield ops

    def run_round(self, ops: List[Op], recorder=None,
                  base: int = 0) -> List[OpResult]:
        """One client thread per tenant, each a closed loop over its own
        ops, in lock-step: a tenant submits its next campaign once both
        finished their previous one.  Without the lock-step a campaign's
        latency depends on which kind of the other tenant's it meets: over
        ten seeds on a 2-vCPU VM the median latency then spread up to 37%
        of its median, past its 0.25 bound."""
        by_tenant: Dict[str, List[Tuple[int, Op]]] = {}
        for index, op in enumerate(ops):
            by_tenant.setdefault(op.tenant, []).append((index, op))
        results: List[Optional[OpResult]] = [None] * len(ops)
        # a campaign returns within its deadline plus a few RPC timeouts
        step = threading.Barrier(len(by_tenant),
                                 timeout=3 * self.CAMPAIGN_TIMEOUT)

        def client_loop(tenant: str) -> None:
            try:
                for index, op in by_tenant[tenant]:
                    step.wait()
                    if recorder is None:
                        results[index] = self._campaign(op)
                        continue
                    recorder.set_op(base + index)
                    with recorder.span("op"):
                        results[index] = self._campaign(op)
            except BaseException:
                step.abort()  # release the other client
                raise

        with ThreadPoolExecutor(len(by_tenant)) as pool:
            for done in [pool.submit(client_loop, tenant)
                         for tenant in by_tenant]:
                done.result()  # re-raise a client's unexpected error
        return results

    def _campaign(self, op: Op) -> OpResult:
        if self.stuck:
            return OpResult(op, 0.0, "skipped: the service is stuck")
        client = self.service.clients[op.tenant]
        started = perf_counter()
        try:
            receipt = client.submit(op.target, config=op.config)
            while True:
                polled = perf_counter()
                row = client.status(receipt.campaign)
                self.rpc_seconds.append(perf_counter() - polled)
                if row.done:
                    break
                if polled - started > self.CAMPAIGN_TIMEOUT:
                    self.stuck = True
                    return OpResult(op, perf_counter() - started,
                                    f"timed out in stage {row.stage} after "
                                    f"{self.CAMPAIGN_TIMEOUT:.0f}s")
                time.sleep(self.POLL_SECONDS)
            payload = client.results(receipt.campaign)
        except Exception as error:  # refused, connection lost
            return OpResult(op, perf_counter() - started, _error(error))
        out = OpResult(op, perf_counter() - started,
                       report_json=payload.report_json or "",
                       stats={"degradations": row.degradations})
        if not payload.complete:
            out.error = f"campaign {payload.stage}: {payload.error}"
        return out

    def check_results(self, results: List[OpResult]) -> None:
        """Check every campaign's report; a resubmission must return the
        bytes of the campaign it repeats."""
        from repro.core.report import LeakageReport
        for result in results:
            if not result.ok:
                continue
            try:
                report = LeakageReport.from_json(result.report_json)
                if result.op.config.get("adaptive"):
                    result.stats["adaptive_recorded"] = _recorded(report)
                self.ctx.checker.check_report(report, result.op.target,
                                              result.op.config)
            except CheckFailed as error:
                result.error = _error(error)
                continue
            if not result.op.resubmit:
                self.reports.setdefault(result.op.key(), result.report_json)
        for result in results:
            if result.ok and result.op.resubmit:
                try:
                    check_identical(f"resubmit {result.op.key()}",
                                    result.report_json,
                                    self.reports.get(result.op.key()))
                except CheckFailed as error:
                    result.error = _error(error)

    # -- after the run ------------------------------------------------

    def subprocess_totals(self, window):
        """Spans the traced service's processes dumped, in *window*."""
        from spans import Span, Totals, merge_totals, summarize
        parts = [Totals({}, {}, {})]
        for path in sorted(self.spans_dir.glob("*.json")):
            rows = json.loads(path.read_text())
            parts.append(summarize([Span(name, start, end, parent, None,
                                         counts)
                                    for name, start, end, parent, counts
                                    in rows], window))
        return merge_totals(parts)

    def layer_metrics(self) -> Dict[str, float]:
        """Queue, scheduler and store figures of the traced service."""
        from repro.service.queue import JobQueue
        from measure import median
        queue = JobQueue(self.service.queue)
        lo, hi = self.window_wall
        events = [event for event in queue.journal_events()
                  if lo <= event["ts"] <= hi]

        def count(name: str) -> int:
            return sum(1 for event in events if event["event"] == name)

        turnaround = []
        for event in events:
            if event["event"] != "enqueued":
                continue
            try:
                done = queue.result_path(event["unit"]).stat().st_mtime
            except OSError:
                continue  # collected after its campaign stopped early
            turnaround.append(done - event["ts"])
        submitted = count("submitted") + count("coalesced")
        return {
            "queue.units": count("enqueued"),
            "queue.turnaround_p50_s": median(turnaround) if turnaround
            else 0.0,
            "queue.requeues": count("requeued"),
            "queue.lease_expiries": count("lease_expired"),
            "scheduler.coalesced_ratio": count("coalesced") / submitted
            if submitted else 0.0,
            "store.blob_bytes": _tree_bytes(self.service.store / "objects"),
        }


WORKLOADS = {cls.name: cls for cls in (DetectFull, ReanalyzeWarm,
                                       ServiceMixed)}
