"""Closed-loop benchmark of the lowform command line, end to end and per layer.

Run from the repository root:

    python3 benchmark/run.py --workload sphere_exact --seed 0 --seconds 10 --trace 0

One client in one process sends requests back to back, each only after the
previous one returned.  A request is a call of ``lowform.cli.main(argv)``,
in-process and with the CLI's default options, on an input generated here
from (workload seed, request index).  Every report is checked by
``checker.py``; a request fails on an unexpected exit code, a raised
exception, a failed check or going over the per-request budget.

Set-up is importing ``lowform.cli`` and one warm-up request on an instance
outside the measured set; the library's caches then stay warm, as in one
library session.  The inputs are generated and written between the two,
untimed, since their generator is the benchmark's and not the library's.
``setup_s`` is the median over this process and fresh child processes that
each repeat the import and the warm-up request.  The run then
sends the fixed set, and keeps sending further instances until ``--seconds``
have passed.  With ``--trace 0`` the last line of output holds the
end-to-end metrics; with ``--trace 1`` each request is sent twice, once
traced, and the last line holds the per-layer metrics of the traced copies
of the fixed set.  Every other line is a human-readable record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REQUEST_BUDGET_S = 120.0
SETUP_SAMPLES = 3  # this process plus two fresh child processes
WARMUP_INDEX = 1_000_000  # no run sends this many requests
TAIL_BEYOND = 10  # the tail percentile keeps this many requests above it


@dataclass(frozen=True)
class Workload:
    why: str
    fixed: int  # requests in the fixed set that wall_s and per-layer totals cover
    shape: dict  # make_instance keywords; "n" may be a tuple cycled by index
    command: tuple[str, ...]
    expect: dict


# BENCHMARK.json lists the first three.  polytope_cuts and approx_surrogate
# run the same way on request: polytope_cuts takes from under a second to
# over a minute a request, so no timed run of it is steady, and
# approx_surrogate would push the listed runs past their time budget.
WORKLOADS = {
    "sphere_exact": Workload(
        "moment layer: detection's moment matrix dominates; no LP and no Frank-Wolfe",
        fixed=9,
        shape=dict(n=(10, 12, 14), m=3, degree=4),
        command=("pipeline", "--domain", "sphere"),
        expect={"kind": "sphere", "route": "exact/sphere", "exit": 0},
    ),
    "polytope_concave": Workload(
        "LP layer: every LMO, separation and witness is a HiGHS LP; minima sit at vertices",
        fixed=24,
        shape=dict(n=6, m=2, degree=2, polytope=True, concave=True),
        command=("pipeline", "--domain", "polytope"),
        expect={"kind": "polytope", "route": "exact/polytope", "exit": 0},
    ),
    "approx_cubature": Workload(
        "cubature surrogate: many small compose calls, one per cubature node",
        fixed=12,
        shape=dict(n=6, m=2, degree=4, epsilon=0.05),
        command=("approx", "--path", "cubature", "--m", "2"),
        expect={"kind": "cubature", "exit": 0},
    ),
    "polytope_cuts": Workload(
        "LP-bound Frank-Wolfe on cubic objectives, with its heavy tail of slow requests",
        fixed=6,
        shape=dict(n=6, m=2, degree=3, polytope=True),
        command=("pipeline", "--domain", "polytope"),
        expect={"kind": "polytope", "route": "exact/polytope", "exit": 0},
    ),
    "approx_surrogate": Workload(
        "exact surrogate: large symbolic compose in extract and conditional expectation",
        fixed=3,
        shape=dict(n=8, m=2, degree=4, epsilon=0.05),
        command=("pipeline", "--domain", "sphere"),
        expect={"kind": "approx", "route": "approx", "exit": 0},
    ),
}


class RequestTimeout(BaseException):
    """Raised in the client when a request exceeds REQUEST_BUDGET_S."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Outcome:
    index: int
    seconds: float
    status: str  # "ok", "timeout", or what failed
    rho: float | None = None


class Client:
    """Writes inputs, sends requests and checks their reports."""

    def __init__(self, name: str, seed: int, work: Path, reference: dict):
        import instances

        self.seed, self.work, self.reference = seed, work, reference
        self.workload = WORKLOADS[name]
        self._make = instances.make_instance
        self.instances: dict[int, object] = {}

    def instance(self, index: int):
        """Instance ``index`` of this seed; the warm-up instance is the same
        for every seed, so set-up does the same work in every run."""
        if index not in self.instances:
            shape = dict(self.workload.shape)
            if isinstance(shape["n"], tuple):
                shape["n"] = shape["n"][index % len(shape["n"])]
            seed = 0 if index == WARMUP_INDEX else self.seed
            inst = self._make(seed, index, **shape)
            directory = self.work / str(index)
            directory.mkdir(parents=True, exist_ok=True)
            for file_name, text in inst.files.items():
                (directory / file_name).write_text(text)
            self.instances[index] = inst
        return self.instances[index]

    def reference_for(self, index: int) -> dict | None:
        """The stored minima for the warm-up and for seed 0's fixed set, which
        must hold one for this input; None for every other request."""
        if index == WARMUP_INDEX or (self.seed == 0 and index < self.workload.fixed):
            return self.reference
        return None

    def send(self, cli, index: int) -> tuple[Outcome, dict | None]:
        import checker

        inst = self.instance(index)
        directory = self.work / str(index)
        (directory / "report.json").unlink(missing_ok=True)
        status, code, seconds = call(cli, request_argv(self.workload, directory))
        report = None
        if status == "ok":
            try:
                report = json.loads((directory / "report.json").read_text())
                checker.check(self.workload.expect, inst, code, report,
                              self.reference_for(index))
            except (OSError, ValueError, KeyError, TypeError, checker.CheckFailed) as exc:
                status = f"check failed: {exc}"
        rho = report.get("rho") if report else None
        return Outcome(index, seconds, status, rho), report


def request_argv(workload: Workload, directory: Path) -> list[str]:
    """CLI arguments for the input files in ``directory``; the report goes there too."""
    argv = [*workload.command, "--input", str(directory / "h.json")]
    if (directory / "A.json").exists():
        argv += ["--A", str(directory / "A.json"), "--b", str(directory / "b.json")]
    return argv + ["--out", str(directory)]


def call(cli, argv: list[str]) -> tuple[str, object, float]:
    """Call ``cli.main(argv)`` under the request budget, its printout discarded.

    Returns (status, exit code, seconds); status is "ok", "timeout" or the
    exception the call raised.
    """
    status, code = "ok", None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REQUEST_BUDGET_S)
        try:
            code = cli.main(argv)
        except RequestTimeout:
            status = "timeout"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed request must not end the run
            status = f"exception {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
    return status, code, seconds


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_PIN},
        "clients": 1,
        "timing": "time.perf_counter in this process; no system-wide tracing "
        "or hardware performance counters are used",
        "memory": "resource.getrusage(RUSAGE_SELF).ru_maxrss",
    }


def import_cli() -> tuple[object, float]:
    """Import ``lowform.cli`` from this checkout; returns (module, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lowform.cli as cli

    seconds = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lowform was imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli, seconds


def set_up(args, work: Path, reference: dict):
    """Import the CLI, write every input of the fixed set, send one warm-up request.

    Returns (cli module, client, warm-up report, set-up seconds).  Only the
    import and the warm-up request are timed; writing the inputs and checking
    the warm-up report are not.
    """
    cli, import_s = import_cli()
    client = Client(args.workload, args.seed, work, reference)
    for index in (*range(client.workload.fixed), WARMUP_INDEX):
        client.instance(index)
    outcome, report = client.send(cli, WARMUP_INDEX)
    if outcome.status != "ok":
        raise SystemExit(f"warm-up request failed: {outcome.status}")
    return cli, client, report, import_s + outcome.seconds


def setup_sample(workload: Workload, directory: Path) -> float:
    """One set-up in this fresh process, on the warm-up inputs in ``directory``."""
    cli, import_s = import_cli()
    status, code, seconds = call(cli, request_argv(workload, directory))
    if status != "ok" or code != workload.expect["exit"]:
        raise SystemExit(f"set-up sample failed: {status}, exit code {code}")
    return import_s + seconds


def setup_samples(args, own: float, directory: Path) -> list[float]:
    """This process's set-up time plus that of fresh child processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--setup-sample", str(directory)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, time) at the highest percentile with TAIL_BEYOND requests
    above it; None below 2 * TAIL_BEYOND requests."""
    if len(times) < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return 100.0 * (1.0 - TAIL_BEYOND / len(ordered)), ordered[-TAIL_BEYOND - 1]


def measure(args, cli, client, tracer):
    """Send requests until the fixed set is done and --seconds have passed.

    With a tracer each request goes out twice, traced and untraced, in
    alternating order.  Returns (outcomes, per-layer snapshot of the fixed
    set, traced seconds, untraced seconds).
    """
    outcomes, snapshot = [], None
    traced_s = untraced_s = 0.0
    begin = time.perf_counter()
    index = 0
    while index < client.workload.fixed or time.perf_counter() - begin < args.seconds:
        client.instance(index)  # inputs past the fixed set are written untimed
        order = ((False, True) if index % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in order:
            if traced:
                tracer.request = index
                tracer.install()
            try:
                outcome, _ = client.send(cli, index)
            finally:
                if traced:
                    tracer.uninstall()
            outcomes.append(outcome)
            if traced:
                traced_s += outcome.seconds
            else:
                untraced_s += outcome.seconds
            print(f"request {index} {'traced' if traced else 'untraced'} "
                  f"{outcome.seconds:.4f} s {outcome.status} rho={outcome.rho!r}", flush=True)
        index += 1
        if tracer and index == client.workload.fixed:
            snapshot = (copy.deepcopy(tracer.totals), copy.deepcopy(tracer.counters))
    return outcomes, snapshot, traced_s, untraced_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", type=Path, metavar="DIR",
                        help="time one set-up on the warm-up inputs in DIR, print it and exit")
    args = parser.parse_args()

    os.environ.update(BLAS_PIN)  # before numpy is first imported
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_sample:
        print(json.dumps({"setup_s": setup_sample(WORKLOADS[args.workload], args.setup_sample)}))
        return 0
    sys.path.insert(0, str(HERE))
    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        cli, client, warmup, own_setup = set_up(args, work, reference)
        return run(args, cli, client, warmup, own_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run(args, cli, client, warmup, own_setup) -> int:
    import checker
    import tracer as tracing

    self_test = checker.self_test(client.workload.expect, client.instance(WARMUP_INDEX),
                                  warmup, client.reference_for(WARMUP_INDEX))
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {client.workload.why}")
    print(f"checker self-test on the warm-up report: {len(self_test)} corrupted reports rejected")
    for line in self_test:
        print(f"  rejected, {line}")
    setups = [] if args.trace else setup_samples(args, own_setup,
                                                 client.work / str(WARMUP_INDEX))
    tracer = tracing.Tracer() if args.trace else None
    outcomes, snapshot, traced_s, untraced_s = measure(args, cli, client, tracer)
    for index in sorted(client.instances):
        inst = client.instances[index]
        print(f"input {index} n={inst.n} m={inst.m} degree={inst.degree} "
              f"epsilon={inst.epsilon} terms={len(inst.h_terms)} sha256={inst.sha256()}")

    failed = [o for o in outcomes if o.status != "ok"]
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed)}
    fixed = client.workload.fixed
    if args.trace:
        totals, counters = snapshot
        layers = tracing.layer_metrics(totals, counters)
        h_terms = sum(len(client.instances[i].h_terms) for i in range(fixed))
        layers["poly.h_terms"] = (h_terms, "count")
        layers["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
        print(f"per-layer totals over the fixed set of {fixed} traced requests "
              f"(trace.overhead_share: {traced_s:.3f} s traced / {untraced_s:.3f} s untraced - 1):")
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value!r} {unit}")
        for target, sites in sorted(tracer.sites.items()):
            print(f"  wrapped {target} at {', '.join(sorted(sites))}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "sites": {k: sorted(v) for k, v in tracer.sites.items()}, "metrics": layers,
            "spans": [dict(zip(("id", "parent", "request", "name", "start", "end"), s))
                      for s in tracer.spans],
        }))
        metrics = layers
    else:
        times = [o.seconds for o in outcomes]
        wall = sum(o.seconds for o in outcomes[:fixed])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = statistics.median(setups)
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        print(f"setup_s = {setup!r} s (median of {len(setups)} set-ups: {setups})")
        print(f"wall_s = {wall!r} s (the fixed set of {fixed} requests, back to back)")
        print(f"req_p50_s = {statistics.median(times)!r} s (median of {len(times)} requests)")
        tail_at = tail(times)
        if tail_at is None:
            print(f"req_tail_s: not defined for {len(times)} requests (needs {2 * TAIL_BEYOND})")
        else:
            print(f"req_tail_s = {tail_at[1]!r} s (p{tail_at[0]:.1f} of {len(times)} requests, "
                  f"{TAIL_BEYOND} beyond it)")
        print(f"fail_share = {len(failed) / len(outcomes)!r} ratio "
              f"({len(failed)} failed of {len(outcomes)} attempted)")
        print(f"peak_rss_mb = {rss!r} MiB")
    for o in failed:
        print(f"failed request {o.index}: {o.status}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result["metrics"] = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
