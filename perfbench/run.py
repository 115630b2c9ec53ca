"""The repro benchmark: paper-eval, dse-sweep and serve-mix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's ``src/`` tree, driven through its user surfaces (the CLI, the
``repro.api`` library and the ``repro serve`` daemon) in fresh interpreters,
one at a time.  Every command runs in a throwaway directory under
``.perfbench-work/`` with its own ``REPRO_CACHE_DIR``, removed at the end.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` does the same
work with every layer of the program wrapped in spans (:mod:`layers`) and
prints the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--seconds`` is the
least time spent on each repeated short timing (set-up and one-shot);
every run measures whole, fixed rounds of the workload.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from child import SETUP_MARK  # noqa: E402

WORKLOADS = ("paper-eval", "dse-sweep", "serve-mix")

#: Fewest samples of every repeated timing (the reported value is their
#: median).
MIN_REPEATS = 3

#: Warm sweeps of a dse-sweep run (each followed by a one-shot sample and a
#: serve chunk, so all three spread over the run), and warm daemon restarts
#: of a serve-mix run.
DSE_WARM_PASSES = 5
SERVE_RESTARTS = 3

#: Chunks a serve stream is driven in, one per checkpoint of the run.
SERVE_CHUNKS = 5

#: Requests timed between two calibrations of the host's speed.
DRIVE_PIECE = 50

#: Seconds any one child process may take before it is killed.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child died)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
class Child:
    """Outcome of one child process.  Its times are host-speed adjusted
    by ``factor`` (:mod:`hostspeed`)."""

    def __init__(self, wall_s, factor, returncode, peak_rss_mb, stdout,
                 stderr):
        self.wall_s = wall_s * factor
        self.returncode = returncode
        self.peak_rss_mb = peak_rss_mb
        self.stdout = stdout
        self.stderr = stderr
        #: Seconds the child took to import its entry module.
        self.setup_s: Optional[float] = None
        for line in stderr.splitlines():
            if line.startswith(SETUP_MARK):
                self.setup_s = float(line.split()[1]) * factor
                break


class Context:
    """One benchmark run: its work directory, environment and samples."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: Dict[str, object] = {}
        self.clock = hostspeed.HostClock()
        #: Serve streams are calibrated with a kernel that does socket
        #: work too (:func:`hostspeed.measure_serve`).
        self.serve_clock = hostspeed.HostClock(
            measure=hostspeed.measure_serve, quick=hostspeed.measure_serve,
            reference=hostspeed.SERVE_REFERENCE_S,
        )
        self.layer_dumps: List[Path] = []
        self.cold_dump: Optional[Path] = None
        #: Entry-module import times of the children, by module.
        self.setup: Dict[str, List[float]] = {"repro.cli": [], "repro.api": []}
        self.oneshot: List[float] = []
        self._oneshot_spent = 0.0
        self._seq = 0

    def env(self, cache: Path) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def path(self, stem: str) -> Path:
        self._seq += 1
        return self.work / f"{self._seq:03d}-{stem}"

    def expect(self, problems: Sequence[str]) -> None:
        self.problems.extend(problems)

    def mark_cold(self) -> None:
        """The last traced child was the cold pass."""
        if self.trace:
            self.cold_dump = self.layer_dumps[-1]

    def take_oneshot(self, args: Sequence[str], cache: Path) -> None:
        """One ``repro run`` sample.  Samples are taken at checkpoints
        spread over the run, so their median sees the run's whole span."""
        started = time.perf_counter()
        child = run_cli(self, args, cache, "oneshot", count=False)
        self.oneshot.append(child.wall_s)
        self._oneshot_spent += time.perf_counter() - started

    def finish_oneshot(self, args: Sequence[str], cache: Path) -> float:
        """Top the one-shot samples up to :data:`MIN_REPEATS` and
        ``--seconds`` of sampling; their median."""
        while (len(self.oneshot) < MIN_REPEATS
               or self._oneshot_spent < self.seconds):
            self.take_oneshot(args, cache)
        return checks.median(self.oneshot)


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return ``(status, rusage)``; kill it first
    when it outlives ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(ctx: Context, argv: List[str], cache: Path, stem: str,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``argv`` in the work directory; time it from launch to exit."""
    out_path, err_path = ctx.path(f"{stem}.out"), ctx.path(f"{stem}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        ctx.clock.before()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.work, env=ctx.env(cache),
                                stdout=out, stderr=err)
        with ctx.clock.sampling():
            returncode, usage = _wait(proc, timeout)
            ended = time.perf_counter()
        ctx.clock.after()
    return Child(ended - started, ctx.clock.factor(started, ended),
                 returncode, usage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


def _child_argv(ctx: Context, mode: str, args: Sequence[str]) -> List[str]:
    """A child interpreter running :mod:`child`, traced when the run is."""
    argv = [sys.executable, str(HERE / "child.py")]
    if ctx.trace:
        dump = ctx.path("layers.json")
        ctx.layer_dumps.append(dump)
        argv += ["--trace", str(dump)]
    return argv + [mode, *args]


def run_cli(ctx: Context, args: Sequence[str], cache: Path, stem: str,
            count: bool = True) -> Child:
    """``repro ARGS`` in a fresh interpreter.  ``count`` makes it one of
    the workload's attempted operations (one-shot samples are not: their
    number depends on ``--seconds``)."""
    child = run_child(ctx, _child_argv(ctx, "cli", args), cache, stem)
    if child.setup_s is not None:
        ctx.setup["repro.cli"].append(child.setup_s)
    if count:
        ctx.attempted += 1
    if child.returncode != 0:
        ctx.failed += int(count)
        ctx.problems.append(
            f"repro {' '.join(args)} exited {child.returncode}: "
            f"{child.stderr.strip().splitlines()[-1:] or ''}"
        )
    return child


def import_layer(ctx: Context, cache: Path) -> Dict[str, float]:
    child = run_child(
        ctx, [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cache, "importtime",
    )
    parsed = layers.parse_importtime(child.stderr)
    if child.returncode != 0 or parsed is None:
        raise BenchError("python -X importtime -c 'import repro.cli' failed")
    return parsed


# ---------------------------------------------------------------------------
# the serve daemon and its client
# ---------------------------------------------------------------------------
def http(port: int, method: str, path: str, body: bytes = b""):
    """One HTTP/1.1 exchange on a fresh connection: (status, headers, body)."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head_bytes, _sep, payload = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _colon, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split(" ")[1]), headers, payload


class Daemon:
    """``repro serve --workers 1`` in its own process."""

    def __init__(self, ctx: Context, cache: Path):
        self.ctx = ctx
        argv = _child_argv(ctx, "cli",
                           ["serve", "--workers", "1", "--port", "0"])
        self.err_path = ctx.path("serve.err")
        self._err = open(self.err_path, "wb")
        ctx.clock.before()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ctx.work, env=ctx.env(cache),
            stdout=subprocess.DEVNULL, stderr=self._err,
        )
        self.port = None
        self.peak_rss_mb = None

    def wait_ready(self) -> float:
        """Seconds from launch until ``/v1/healthz`` answers 200, host-speed
        adjusted."""
        deadline = self.started + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            if self.port is None:
                text = self.err_path.read_text()
                marker = "listening on 127.0.0.1:"
                if marker in text:
                    self.port = int(text.split(marker)[1].split()[0])
            if self.port is not None:
                try:
                    status, _h, _b = http(self.port, "GET", "/v1/healthz")
                except OSError:
                    status = None
                if status == 200:
                    ready = time.perf_counter()
                    clock = self.ctx.clock
                    clock.after()
                    return ((ready - self.started)
                            * clock.factor(self.started, ready))
            time.sleep(0.002)
        raise BenchError(
            f"repro serve did not become ready: {self.err_path.read_text()}"
        )

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _code, usage = _wait(self.proc, 60.0)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._err.close()


def drive(ctx: Context, port: int, stream: Sequence[dict]):
    """Closed loop, one client: each request waits for its answer.

    The stream is timed in pieces of :data:`DRIVE_PIECE` requests, each
    followed by a quick calibration of the host's speed.  Returns
    ``(wall_s, latencies_ms, responses, served_from)``, times adjusted,
    where ``responses`` holds ``(key, status, body)``."""
    wall = 0.0
    latencies: List[float] = []
    responses = []
    served_from: List[str] = []
    bodies = [
        json.dumps(
            {k: v for k, v in request.items() if k != "key"}, sort_keys=True
        ).encode()
        for request in stream
    ]
    clock = ctx.serve_clock
    clock.before()
    for first in range(0, len(stream), DRIVE_PIECE):
        piece = range(first, min(first + DRIVE_PIECE, len(stream)))
        raw: List[float] = []
        # the client's own collector must not pause inside the measured
        # loop (this process holds the workload's results while it drives)
        gc.disable()
        try:
            started = time.perf_counter()
            for i in piece:
                t0 = time.perf_counter()
                status, headers, payload = http(port, "POST", "/v1/simulate",
                                                bodies[i])
                raw.append((time.perf_counter() - t0) * 1e3)
                responses.append((inputs.point_key(stream[i]), status,
                                  payload))
                served_from.append(headers.get("x-repro-served-from", ""))
            ended = time.perf_counter()
        finally:
            gc.enable()
        clock.tick()
        factor = clock.factor(started, ended)
        wall += (ended - started) * factor
        latencies += [ms * factor for ms in raw]
    ctx.attempted += len(stream)
    ctx.failed += sum(1 for _k, status, _b in responses if status != 200)
    return wall, latencies, responses, served_from


class ServeSession:
    """One fresh daemon answering ``stream`` in :data:`SERVE_CHUNKS` chunks.

    The workloads drive one chunk at each of their checkpoints, so the
    serve figures pool latencies from the run's whole span instead of one
    few-second window.  The first ask of each distinct request is a
    ``run`` (a simulation, or a result-cache read when the workload filled
    the cache); every later ask is served from the daemon's store.
    """

    def __init__(self, ctx: Context, cache: Path, stream: Sequence[dict],
                 cold: bool = False):
        self.ctx = ctx
        self.stream = list(stream)
        self.daemon = Daemon(ctx, cache)
        if cold:
            ctx.mark_cold()
        try:
            self.ready_s = self.daemon.wait_ready()
        except BaseException:
            self.daemon.stop()
            raise
        self.wall_s = 0.0
        self.latencies: List[float] = []
        self.responses: List[tuple] = []
        self.served_from: List[str] = []
        self._chunk = -(-len(self.stream) // SERVE_CHUNKS)

    def step(self) -> None:
        """Drive the next chunk of the stream."""
        done = len(self.latencies)
        part = self.stream[done:done + self._chunk]
        if part:
            wall, latencies, responses, served_from = drive(
                self.ctx, self.daemon.port, part
            )
            self.wall_s += wall
            self.latencies += latencies
            self.responses += responses
            self.served_from += served_from

    def close(self) -> Dict[str, object]:
        """Drive what is left, stop the daemon and return the figures."""
        try:
            while len(self.latencies) < len(self.stream):
                self.step()
            _s, _h, health = http(self.daemon.port, "GET", "/v1/healthz")
        finally:
            self.daemon.stop()
        ctx, latencies = self.ctx, self.latencies
        distinct = len(inputs.distinct(self.stream))
        if self.served_from.count("run") != distinct:
            ctx.problems.append(
                f"daemon ran {self.served_from.count('run')} requests for "
                f"{distinct} distinct ones"
            )
        p99 = checks.tail_percentile(latencies, 0.99)
        if p99 is None:
            ctx.problems.append(f"{len(latencies)} latencies support no p99")
            p99 = max(latencies)
        by = {kind: [ms for ms, s in zip(latencies, self.served_from)
                     if s == kind]
              for kind in ("store", "run", "dedup")}
        ctx.info["serve_layer"] = {
            "serve.served_store": len(by["store"]),
            "serve.served_run": len(by["run"]),
            "serve.served_dedup": len(by["dedup"]),
            "serve.store_p50_ms": (checks.median(by["store"])
                                   if by["store"] else 0.0),
            "serve.run_p50_ms": checks.median(by["run"]) if by["run"] else 0.0,
            "serve.healthz_p50_ms": json.loads(health)["latency_ms"]["p50"],
        }
        return {
            "serve_rps": len(latencies) / self.wall_s,
            "serve_p50_ms": checks.median(latencies),
            "serve_p99_ms": p99,
        }

    def stop(self) -> None:
        """Stop the daemon on an error path (``close`` stops it too)."""
        if self.daemon.proc.returncode is None:
            self.daemon.stop()


# ---------------------------------------------------------------------------
# the program's catalogue and reference answers (benchmark process)
# ---------------------------------------------------------------------------
def _use_program(cache: Path):
    """Import the checkout's ``repro`` into this process, on ``cache``."""
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import api

    return api


def cached_results(cache: Path) -> List[dict]:
    """Every result in a cache's disk tier, read and checksum-verified."""
    from repro.sim.cache import read_object

    objects = cache / "objects"
    paths = sorted(objects.rglob("*.json")) if objects.is_dir() else []
    return [read_object(path).to_dict() for path in paths]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def paper_eval(ctx: Context) -> Dict[str, float]:
    """``repro experiment summary`` cold and warm, with its checks."""
    api = _use_program(ctx.work / "ref-cache")
    from repro.validate import EVAL_MODELS

    cache = ctx.work / "cache"
    configs = list(api.CONFIGURATIONS)
    config = random.Random(f"oneshot/{ctx.seed}").choice(configs)
    oneshot = ["run", "resnet-50", "--config", config]
    points = [{"model": m, "config": c, "steps": inputs.SWEEP_STEPS}
              for m in EVAL_MODELS for c in configs]

    cold = run_cli(ctx, ["experiment", "summary"], cache, "cold")
    ctx.mark_cold()
    results = cached_results(cache)
    ctx.info["cached_results"] = len(results)
    ctx.info["sim_events"] = sum(r["events_processed"] for r in results)
    ctx.expect(checks.check_invariants(results))

    serve = ServeSession(ctx, cache, inputs.replay_stream(ctx.seed, points))
    try:
        warm = []
        for _ in range(MIN_REPEATS):
            warm.append(run_cli(ctx, ["experiment", "summary"], cache, "warm"))
            ctx.expect(checks.check_same_output("warm summary", cold.stdout,
                                                warm[-1].stdout))
            ctx.take_oneshot(oneshot, cache)
            serve.step()
        validate = run_cli(ctx, ["validate"], cache, "validate")
        if "32/32 fidelity checks within tolerance" not in validate.stdout:
            ctx.problems.append("repro validate: not 32/32 golden bands")
        ctx.take_oneshot(oneshot, cache)
        serve_figures = serve.close()
    finally:
        serve.stop()
    ctx.expect(checks.check_same_bodies(serve.responses))
    oneshot_s = ctx.finish_oneshot(oneshot, cache)

    if ctx.trace:
        # The surrogate checks and pass run in the traced run only: they
        # feed the surrogate.* layer figures, and in every run they would
        # add ~25 s to the slowest workload.
        run_cli(ctx, ["surrogate", "train"], cache, "surrogate-train")
        evaluation = run_cli(ctx, ["surrogate", "eval"], cache,
                             "surrogate-eval")
        if "PASS" not in evaluation.stdout:
            ctx.problems.append("repro surrogate eval did not pass")
        shutil.rmtree(cache / "objects")
        surrogate = run_cli(ctx, ["experiment", "summary", "--surrogate"],
                            cache, "surrogate")
        ctx.info["surrogate_s"] = surrogate.wall_s

    return {
        "setup_s": checks.median(ctx.setup["repro.cli"]),
        "cold_s": cold.wall_s,
        "warm_s": checks.median([c.wall_s for c in warm]),
        "oneshot_s": oneshot_s,
        "peak_rss_mb": cold.peak_rss_mb,
        **serve_figures,
    }


def _catalogue(api) -> Dict[str, tuple]:
    from repro.hardware import registry

    return {
        backend: (registry.get(backend).default_configuration,
                  tuple(api.list_configurations(backend)))
        for backend in api.list_backends()
    }


def dse_sweep(ctx: Context) -> Dict[str, float]:
    """~130 distinct design points through ``repro.api.simulate``."""
    api = _use_program(ctx.work / "ref-cache")
    cache = ctx.work / "cache"
    plan = inputs.dse_points(ctx.seed, api.list_models(), _catalogue(api))
    for point in plan:
        point["key"] = inputs.point_key(point)
    plan_path = ctx.work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    resnet = [p for p in plan if p["model"] == "resnet-50"
              and not p.get("faults") and p["frequency_scale"] == 1.0]
    point = random.Random(f"oneshot/{ctx.seed}").choice(resnet)
    oneshot = ["run", "resnet-50", "--backend", point["backend"],
               "--config", point["config"]]
    served = [{k: p[k] for k in ("model", "backend", "config", "steps",
                                 "frequency_scale")}
              for p in plan
              if p["model"] in inputs.REPLAY_MODELS and not p.get("faults")]

    def sweep(stem: str):
        out = ctx.path(f"{stem}.jsonl")
        child = run_child(ctx, _child_argv(ctx, "sweep",
                                           [str(plan_path), str(out)]),
                          cache, stem)
        if child.returncode != 0:
            raise BenchError(f"sweep child failed: {child.stderr[-2000:]}")
        ctx.setup["repro.api"].append(child.setup_s)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        ctx.attempted += len(records)
        ctx.failed += checks.failed_count(records)
        return child, records

    cold, cold_records = sweep("cold")
    ctx.mark_cold()
    ok_results = [r["result"] for r in cold_records if r["ok"]]
    ctx.expect(checks.check_invariants(ok_results))
    ctx.info["points"] = len(plan)
    ctx.info["sim_events"] = sum(r["events_processed"] for r in ok_results)

    serve = ServeSession(ctx, cache, inputs.replay_stream(ctx.seed, served))
    try:
        warm = []
        for _ in range(DSE_WARM_PASSES):
            child, records = sweep("warm")
            warm.append(child)
            ctx.expect(checks.check_sweep(plan, cold_records, records))
            ctx.take_oneshot(oneshot, cache)
            serve.step()
        serve_figures = serve.close()
    finally:
        serve.stop()
    ctx.expect(checks.check_same_bodies(serve.responses))
    expected = {r["key"]: r["result"] for r in cold_records if r["ok"]}
    for key, status, body in serve.responses:
        if (status == 200 and key in expected
                and json.loads(body)["run"] != expected[key]):
            ctx.problems.append(f"{key}: served result differs from the sweep")
            break

    return {
        "setup_s": checks.median(ctx.setup["repro.api"]),
        "cold_s": cold.wall_s,
        "warm_s": checks.median([c.wall_s for c in warm]),
        "oneshot_s": ctx.finish_oneshot(oneshot, cache),
        "peak_rss_mb": cold.peak_rss_mb,
        **serve_figures,
    }


def serve_mix(ctx: Context) -> Dict[str, float]:
    """A seeded hot-set stream against one ``repro serve`` daemon, then the
    same stream against restarted daemons on the filled cache."""
    api = _use_program(ctx.work / "ref-cache")
    cache = ctx.work / "cache"
    stream = inputs.serve_stream(ctx.seed)
    hot = next(r for r in stream if r["model"] == "alexnet")
    oneshot = ["run", "alexnet", "--config", hot["config"],
               "--steps", str(hot["steps"]),
               "--frequency-scale", str(hot["frequency_scale"])]

    references = {}
    for request in inputs.distinct(stream):
        kwargs = {k: v for k, v in request.items() if k != "model"}
        report = api.simulate(request["model"], **kwargs)
        references[inputs.point_key(request)] = (
            api.canonical_report(report).to_json() + "\n"
        ).encode()
    ctx.info["distinct"] = len(references)
    ctx.info["sim_events"] = sum(
        json.loads(body)["run"]["events_processed"]
        for body in references.values()
    )

    serve = ServeSession(ctx, cache, stream, cold=True)
    try:
        for _ in range(SERVE_CHUNKS):
            serve.step()
            ctx.take_oneshot(oneshot, cache)
        serve_figures = serve.close()
    finally:
        serve.stop()
    ctx.expect(checks.check_bodies(serve.responses, references))
    setup = [serve.ready_s]
    warm = []
    for _ in range(SERVE_RESTARTS):
        daemon = Daemon(ctx, cache)
        try:
            setup.append(daemon.wait_ready())
            wall, _lat, replies, served_from = drive(ctx, daemon.port, stream)
        finally:
            daemon.stop()
        warm.append(wall)
        ctx.expect(checks.check_bodies(replies, references))
        if served_from.count("store") != len(stream):
            ctx.problems.append("a restarted daemon did not serve from store")

    return {
        "setup_s": checks.median(setup),
        "cold_s": serve.wall_s,
        "warm_s": checks.median(warm),
        "oneshot_s": ctx.finish_oneshot(oneshot, cache),
        "peak_rss_mb": serve.daemon.peak_rss_mb,
        **serve_figures,
    }


RUNNERS = {"paper-eval": paper_eval, "dse-sweep": dse_sweep,
           "serve-mix": serve_mix}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def machine(pinned: Optional[int]) -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"cpu": cpu, "nproc": os.cpu_count(), "pinned_cpu": pinned,
            "python": platform.python_version(), "numpy": numpy_version}


def _spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer(ctx: Context, end_to_end: Dict[str, float]) -> Dict[str, float]:
    """Per-layer totals of every traced child, plus client-side figures."""
    snapshots = [json.loads(p.read_text()) for p in ctx.layer_dumps
                 if p.is_file()]
    if len(snapshots) != len(ctx.layer_dumps):
        ctx.problems.append("a traced child wrote no layer totals")
    totals = layers.merge(snapshots)
    cold_events = json.loads(ctx.cold_dump.read_text())["sim.engine.events"]
    if cold_events != ctx.info["sim_events"]:
        ctx.problems.append(
            f"traced cold pass drained {cold_events} events, its results "
            f"record {ctx.info['sim_events']}"
        )
    run_s = totals.get("sim.engine.run.s", 0.0)
    totals["sim.engine.events_per_s"] = (
        totals.get("sim.engine.events", 0) / run_s if run_s else 0.0
    )
    totals["sim.simulation.runs"] = totals.pop("sim.simulation.run.calls", 0)
    totals["sim.simulation.faulted_runs"] = totals.pop(
        "sim.simulation.faulted_run.calls", 0
    )
    totals.update(ctx.info.get("serve_layer", {}))
    totals.update(import_layer(ctx, ctx.work / "cache-import"))
    totals["trace.cold_s"] = end_to_end["cold_s"]
    return totals


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a driver's SIGTERM unwinds through the finally blocks that stop
    # and reap every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pinned = hostspeed.pin()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = _spec()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        end_to_end = RUNNERS[args.workload](ctx)
        if ctx.trace:
            wanted = [m["name"] for m in spec["per_layer"]]
            values = per_layer(ctx, end_to_end)
        else:
            wanted = [m["name"] for m in spec["end_to_end"]]
            values = end_to_end
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer"] + spec["end_to_end"]}
        missing = [name for name in wanted if name not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    print(json.dumps({"machine": machine(pinned)}, sort_keys=True))
    # raw seconds = adjusted seconds / host_factor, near enough (serve
    # stream times: / serve_host_factor)
    for name, clock in (("host", ctx.clock), ("serve_host", ctx.serve_clock)):
        ctx.info[f"{name}_calibrations"] = len(clock.marks)
        ctx.info[f"{name}_factor"] = (clock.reference
                                      / clock.median_kernel_s())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "info": {k: v for k, v in ctx.info.items()
                               if k != "serve_layer"}}, sort_keys=True))
    for problem in ctx.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
