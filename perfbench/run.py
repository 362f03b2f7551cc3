"""The repository benchmark: campaign set-up, throughput and latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-small --seed 1 --seconds 20 --trace 0

Each run generates the workload's scenario list from ``--seed`` and, for
about ``--seconds`` seconds, launches *rounds*: fresh interpreters
(``round.py``) that import ``repro``, run the list as a campaign and
exit.  End-to-end metrics are medians over rounds; with ``--trace 1``
every other round runs with the layer wrappers of ``tracing.py``
installed and the per-layer table is printed instead.  Every result is
checked against the digests in ``digests.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_ROUNDS = 3            # untraced rounds per run, at least
ROUND_TIMEOUT_S = 120.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)

# End-to-end metrics: every run prints all of them; the JSON result (and
# BENCHMARK.json) carries the gated ones.  The tail and the resume time are
# printed only: their run-to-run spread on the reference host exceeded the
# largest bound allowed (see README.md).
UNITS = {"setup_s": "s", "wall_s": "s", "scenarios_per_s": "1/s",
         "scenario_p50_ms": "ms", "scenario_tail_ms": "ms", "resume_s": "s",
         "peak_rss_mb": "MB", "cpu_s": "s"}
END_TO_END = ("setup_s", "wall_s", "scenarios_per_s", "scenario_p50_ms",
              "peak_rss_mb", "cpu_s")
# Counts that are a pure function of the scenario list: two traced runs
# of one seed must report them exactly equal.
DETERMINISTIC = (
    "linalg.csr.matvecs", "linalg.csr.matvec_block_calls", "linalg.csr.nnz_touched",
    "krylov.ops.orthogonalize_calls", "precond.applies", "krylov.engine.iterations",
    "reliability.faults_injected", "reliability.detections", "comm.collectives",
    "comm.messages", "campaign.store.appends", "experiments.calls",
    "krylov.registry.solves", "krylov.registry.batch_lanes",
)


class BenchmarkError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------
def _steal_jiffies() -> int:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def _versions() -> dict:
    code = ("import json, numpy, scipy, sys; print(json.dumps({'python': "
            "sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=_child_env())
    return json.loads(done.stdout) if done.returncode == 0 else {}


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def fingerprint(steal_start: int, steal_end: int) -> dict:
    ticks = os.sysconf("SC_CLK_TCK")
    return {
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        **_versions(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "steal_s": (steal_end - steal_start) / ticks,
    }


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_round(workload: str, scenarios_path: str, work: str, index: int,
              traced: bool) -> dict:
    round_dir = os.path.join(work, f"round-{index}")
    os.makedirs(round_dir)
    out = os.path.join(round_dir, "report.json")
    log = os.path.join(round_dir, "log.txt")
    command = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
               "--scenarios", scenarios_path, "--work", round_dir, "--out", out,
               "--trace", str(int(traced))]
    with open(log, "wb") as log_handle:
        launched = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                                stdout=log_handle, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"round {index} exceeded {ROUND_TIMEOUT_S:.0f} s")
        exited = time.monotonic()
    if code != 0 or not os.path.exists(out):
        with open(log, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-4000:]
        raise BenchmarkError(f"round {index} exited with code {code}:\n{tail}")
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    report["traced"] = traced
    report["setup_s"] = report["t_dispatch"] - launched
    report["wall_s"] = exited - launched - report["bench_s"]
    shutil.rmtree(round_dir)
    return report


def check_outcomes(report: dict, digests: dict) -> int:
    """Scenarios of one round that failed, timed out or gave a wrong answer."""
    failed = 0
    for done, resumed in zip(report["outcomes"], report["resumed"]):
        expected = digests.get(done["key"])
        ok = (done["status"] == "completed" and done["digest"] == expected
              and resumed["status"] == "cached" and resumed["digest"] == expected)
        failed += not ok
    return failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def tail_percentile(per_round: int) -> float | None:
    """Highest ladder percentile with at least ten of one round's samples beyond it."""
    for pct in TAIL_LADDER:
        if per_round * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(rounds: list) -> tuple:
    def median(fn):
        return statistics.median(fn(r) for r in rounds)

    def completed(r):
        return sum(o["status"] == "completed" for o in r["outcomes"])

    per_round = len(rounds[0]["outcomes"])
    pct = tail_percentile(per_round)
    if pct is None:
        # Too few scenarios per round for a percentile with ten samples
        # beyond it: the tail is each round's slowest scenario.
        tail = median(lambda r: 1e3 * max(o["elapsed"] for o in r["outcomes"]))
        tail_note = f"per-round max of {per_round} scenarios, median of {len(rounds)} rounds"
    else:
        pooled = [1e3 * o["elapsed"] for r in rounds for o in r["outcomes"]]
        tail = _percentile(pooled, pct)
        beyond = sum(v > tail for v in pooled)
        tail_note = f"p{pct:g} of {len(pooled)} samples ({beyond} beyond)"
    metrics = {
        "setup_s": median(lambda r: r["setup_s"]),
        "wall_s": median(lambda r: r["wall_s"]),
        "scenarios_per_s": median(lambda r: completed(r) / (r["wall_s"] - r["setup_s"])),
        "scenario_p50_ms": median(
            lambda r: 1e3 * statistics.median(o["elapsed"] for o in r["outcomes"])),
        "scenario_tail_ms": tail,
        "resume_s": median(lambda r: r["resume_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_kb"] / 1024.0),
        "cpu_s": median(lambda r: r["cpu_s"]),
    }
    return metrics, tail_note


def layer_metrics(report: dict, workers: int) -> dict:
    """Per-layer metrics of one traced round."""
    layers, counters = report["trace"]["layers"], report["trace"]["counters"]
    resume_layers = report["resume_trace"]["layers"]

    def calls(layer, source=layers):
        return source.get(layer, [0, 0.0, 0.0])[0]

    def total(layer, source=layers):
        return source.get(layer, [0, 0.0, 0.0])[1]

    def own(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters.get
    attempts = c("executor.attempts", 0)
    busy = c("executor.busy_s", 0.0)
    supervising = total("campaign.executor.run")
    kernel_s = total("linalg.csr.matvec") + total("linalg.csr.matvec_block")
    solves = calls("krylov.registry.solve")
    lanes = c("batch.lanes", 0)
    faults = c("reliability.faults", 0)
    metrics = {
        "import.repro_s": total("import.repro"),
        "campaign.registry.discover_s": total("campaign.registry.discover"),
        "campaign.runner.resolve_s": total("campaign.runner.resolve"),
        "campaign.runner.plan_s": total("campaign.runner.plan"),
        "campaign.executor.attempts": attempts,
        "campaign.executor.retries": attempts - c("executor.tasks", 0),
        "campaign.executor.useful_frac": ratio(c("executor.ok", 0), attempts),
        "campaign.executor.worker_busy_s": busy,
        "campaign.executor.dispatch_wait_s":
            supervising - busy / workers if supervising else 0.0,
        "campaign.executor.worker_util": ratio(busy, supervising * workers),
        "campaign.store.appends": calls("campaign.store.append"),
        "campaign.store.append_s": total("campaign.store.append"),
        "campaign.store.bytes": report["store_bytes"],
        "campaign.store.load_s": ratio(total("campaign.store.load", resume_layers),
                                       calls("campaign.store.load", resume_layers)),
        "campaign.ledger.records": calls("campaign.ledger.record"),
        "campaign.ledger.record_s": total("campaign.ledger.record"),
        "campaign.ledger.load_s": ratio(total("campaign.ledger.load", resume_layers),
                                        calls("campaign.ledger.load", resume_layers)),
        "experiments.calls": calls("experiments"),
        "experiments.run_s": total("experiments"),
        "experiments.self_s": own("experiments"),
        "linalg.matgen.calls": calls("linalg.matgen"),
        "linalg.matgen.s": total("linalg.matgen"),
        "linalg.matgen.cache_hit_frac": ratio(c("matgen.hits", 0), calls("linalg.matgen")),
        "krylov.registry.solves": solves,
        "krylov.registry.solve_s": total("krylov.registry.solve"),
        "krylov.registry.converged_frac": ratio(c("solve.converged", 0), solves + lanes),
        "krylov.registry.batch_calls": calls("krylov.registry.batch_solve"),
        "krylov.registry.batch_lanes": lanes,
        "krylov.registry.batch_s": total("krylov.registry.batch_solve"),
        "krylov.engine.iterations": c("solve.iterations", 0),
        "krylov.engine.self_s": own("krylov.registry.solve")
            + own("krylov.registry.batch_solve") + own("krylov.engine.batch"),
        "krylov.engine.batch.cohorts": c("engine.batch.cohorts", 0),
        "krylov.engine.batch.lane_iterations": c("engine.batch.lane_iterations", 0),
        "krylov.engine.batch.s": total("krylov.engine.batch"),
        "linalg.csr.matvecs": calls("linalg.csr.matvec"),
        "linalg.csr.matvec_s": total("linalg.csr.matvec"),
        "linalg.csr.matvec_block_calls": calls("linalg.csr.matvec_block"),
        "linalg.csr.matvec_block_s": total("linalg.csr.matvec_block"),
        "linalg.csr.nnz_touched": c("csr.nnz", 0),
        "linalg.csr.gflops_computed": ratio(c("csr.flops", 0), kernel_s) / 1e9,
        "linalg.csr.gbytes_per_s_computed": ratio(c("csr.bytes", 0), kernel_s) / 1e9,
        "krylov.ops.orthogonalize_calls": calls("krylov.ops.orthogonalize"),
        "krylov.ops.orthogonalize_s": total("krylov.ops.orthogonalize"),
        "krylov.ops.orthogonalize_gflops_computed":
            ratio(c("ortho.flops", 0), total("krylov.ops.orthogonalize")) / 1e9,
        "krylov.ops.dots": calls("krylov.ops.dot"),
        "krylov.ops.dot_s": total("krylov.ops.dot"),
        "krylov.ops.axpby_calls": calls("krylov.ops.axpby"),
        "krylov.ops.axpby_s": total("krylov.ops.axpby"),
        "precond.builds": calls("precond.build"),
        "precond.build_s": total("precond.build"),
        "precond.applies": calls("precond.apply"),
        "precond.apply_s": total("precond.apply"),
        "reliability.faults_injected": faults,
        "reliability.detections": c("solve.detections", 0),
        "reliability.detected_frac": ratio(c("solve.detections", 0), faults),
        "reliability.inject_s": total("reliability.inject"),
        "comm.collectives": c("comm.collectives", 0),
        "comm.messages": c("comm.messages", 0),
        "comm.bytes": c("comm.bytes", 0),
        "comm.s": total("comm"),
        "checkpoint.writes": calls("checkpoint.write"),
        "lflr.recoveries": calls("lflr.recover"),
        "trace.unattributed_frac": 1.0 - report["main_self_s"] / report["wall_s"],
    }
    sequential = report.get("sequential", {})
    for size in workloads.COHORT_SIZES:
        metrics[f"krylov.engine.batch.lane_ms.s{size}"] = 1e3 * ratio(
            c(f"batch.s{size}.seconds", 0.0), c(f"batch.s{size}.lanes", 0))
        seq_calls, seq_s = sequential.get(f"replicas-s{size}", (0, 0.0))
        metrics[f"krylov.engine.seq.solve_ms.s{size}"] = 1e3 * ratio(seq_s, seq_calls)
    return metrics


def layer_unit(name: str) -> str:
    if "_ms." in name:
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_util")):
        return "ratio"
    if name.endswith("gflops_computed"):
        return "GFLOP/s"
    if name.endswith("gbytes_per_s_computed"):
        return "GB/s"
    if name.endswith("bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        digests = json.load(handle)[args.workload]

    # Byte-compile once so no round pays for it.
    compileall.compile_dir(SRC, quiet=1)
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        return _measure(args, digests, work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, digests: dict, work: str) -> int:
    scenarios = workloads.generate(args.workload, args.seed)
    scenarios_path = os.path.join(work, "scenarios.json")
    with open(scenarios_path, "w", encoding="utf-8") as handle:
        json.dump(scenarios, handle)

    steal_start = _steal_jiffies()
    started = time.monotonic()
    rounds = []
    while True:
        plain = [r for r in rounds if not r["traced"]]
        traced_rounds = [r for r in rounds if r["traced"]]
        enough = len(plain) >= MIN_ROUNDS and (not args.trace or len(traced_rounds) >= 2)
        if enough and time.monotonic() - started >= args.seconds:
            break
        traced = bool(args.trace) and len(traced_rounds) < len(plain)
        rounds.append(run_round(args.workload, scenarios_path, work, len(rounds), traced))
    measured = time.monotonic() - started
    steal_end = _steal_jiffies()

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    attempted = sum(len(r["outcomes"]) for r in rounds)
    failed = sum(check_outcomes(r, digests) for r in rounds)
    host = fingerprint(steal_start, steal_end)

    e2e, tail_note = end_to_end(plain)
    print(f"workload {args.workload}  seed {args.seed}  scenarios/round "
          f"{len(scenarios)}  rounds {len(plain)} untraced + {len(traced_rounds)} traced"
          f"  measured {measured:.1f} s")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"outputs: {attempted - failed}/{attempted} scenarios completed with the "
          f"stored result digest (campaign and resume)")
    for name, unit in UNITS.items():
        note = f"  [{tail_note}]" if name == "scenario_tail_ms" else ""
        note += "" if name in END_TO_END else "  (printed, not gated)"
        print(f"  {name:<20} {e2e[name]:>12.5g} {unit}{note}")

    correct = failed == 0
    if args.trace:
        workers = 2 if args.workload == "campaign-small" else 1
        per_round = [layer_metrics(r, workers) for r in traced_rounds]
        layer = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        traced_wall = statistics.median(r["wall_s"] for r in traced_rounds)
        layer["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
        layer["campaign.store.resume_s"] = e2e["resume_s"]
        layer["failed_frac"] = failed / attempted
        unstable = [n for n in DETERMINISTIC if len({m[n] for m in per_round}) != 1]
        correct = correct and not unstable
        _print_layer_table(args.workload, layer, traced_rounds, unstable)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_layer_table(workload: str, layer: dict, traced_rounds: list,
                       unstable: list) -> None:
    where = ("driver-and-below layers measured inside the supervised workers "
             f"({traced_rounds[0].get('worker_tasks_traced', 0)} task snapshots per round)"
             if workload == "campaign-small" else
             "all layers measured in the round process (in-process workload)")
    print(f"per-layer table (median of {len(traced_rounds)} traced rounds; {where})")
    for name in sorted(layer):
        if ".lane_ms." in name or ".solve_ms." in name:
            continue
        print(f"  {name:<44} {layer[name]:>14.6g} {layer_unit(name)}")
    if workload == "replicas-batch":
        print("  lockstep cohort vs sequential, ms per solve:")
        print(f"    {'S':>4} {'batch lane':>12} {'sequential':>12} {'speedup':>8}")
        for size in workloads.COHORT_SIZES:
            lane = layer[f"krylov.engine.batch.lane_ms.s{size}"]
            seq = layer[f"krylov.engine.seq.solve_ms.s{size}"]
            speedup = seq / lane if lane else 0.0
            print(f"    {size:>4} {lane:>12.4f} {seq:>12.4f} {speedup:>8.2f}")
    print("  deterministic counts repeat across traced rounds: "
          + ("yes" if not unstable else "NO: " + ", ".join(unstable)))


if __name__ == "__main__":
    sys.exit(main())
