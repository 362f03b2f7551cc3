"""One benchmark round: a fresh interpreter runs one workload's campaign.

Launched by ``run.py``; not meant to be run by hand.  The round

1. imports ``repro`` and discovers the experiment registry (timed),
2. builds the :class:`~repro.campaign.Scenario` list from the JSON the
   benchmark generated and runs it through a
   :class:`~repro.campaign.CampaignRunner` configured for the workload,
3. stops the clock for everything that follows -- the benchmark's own
   work: resuming the campaign against its completed store (timed on
   its own as ``resume_s``), digesting every result, and, in traced
   rounds, collecting the layer tallies -- and reports how long that
   took, so the caller can subtract it from the process lifetime,
4. writes a JSON report and exits.

All times are ``time.monotonic()`` readings, which on Linux share one
clock across processes; the caller compares them with its own launch
time.
"""

import argparse
import functools
import glob
import hashlib
import json
import os
import resource
import time
import warnings

# Result fields that carry wall-clock readings; excluded from digests.
TIMING_KEYS = frozenset({"kernel_seconds", "elapsed"})

# Supervised workers for campaign-small (the host has two cores).
WORKERS = 2
# Resumes per round; the median is reported.
RESUME_REPEATS = 5


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def result_digest(result, canonical_json) -> str:
    """16-hex SHA-256 of the canonical result JSON, timing excluded."""
    text = canonical_json(_strip_timing(result))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _stamp_first(fn, stamps, key):
    @functools.wraps(fn)
    def run(*args, **kwargs):
        stamps.setdefault(key, time.monotonic())
        return fn(*args, **kwargs)
    return run


def runner_options(workload: str) -> dict:
    if workload == "campaign-small":
        return {"workers": WORKERS, "batch": 1}
    if workload == "replicas-batch":
        return {"workers": 1, "batch": 0}
    return {"workers": 1, "batch": 1}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scenarios", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(args.scenarios, encoding="utf-8") as handle:
        generated = json.load(handle)
    warnings.simplefilter("ignore", RuntimeWarning)

    # -- set-up: what the user pays before the first scenario runs --------
    t_import = time.monotonic()
    import repro.campaign as campaign
    from repro.campaign import executor as executor_module
    from repro.campaign import runner as runner_module
    from repro.campaign.spec import canonical_json
    t_imported = time.monotonic()
    campaign.default_registry()
    t_discovered = time.monotonic()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.add_span("import.repro", t_imported - t_import)
        tracer.add_span("campaign.registry.discover", t_discovered - t_imported)
        tracer.worker_dir = os.path.join(args.work, "trace")
        os.makedirs(tracer.worker_dir, exist_ok=True)
        tracing.install(tracer)

    stamps = {}
    runner_module.default_execute = _stamp_first(
        runner_module.default_execute, stamps, "dispatch")
    handle_cls = executor_module._WorkerHandle
    handle_cls.submit = _stamp_first(handle_cls.submit, stamps, "dispatch")

    options = runner_options(args.workload)
    store_path = os.path.join(args.work, "store.jsonl")
    store = campaign.ResultStore(store_path) if args.workload == "campaign-small" else None
    runner = campaign.CampaignRunner(store, ledger=None if store else False, **options)
    scenarios = [campaign.Scenario(s["experiment"], s["params"], s["tag"])
                 for s in generated]

    # -- the campaign ------------------------------------------------------
    outcomes = runner.run(scenarios)
    t_done = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)

    # -- benchmark-only work from here on ----------------------------------
    bench_start = time.monotonic()
    report = {
        "t_dispatch": stamps.get("dispatch", t_done),
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_kb": max(own.ru_maxrss, kids.ru_maxrss),
        "outcomes": [
            {"key": o.key, "status": o.status, "elapsed": o.elapsed,
             "digest": result_digest(o.result, canonical_json) if o.result else None}
            for o in outcomes
        ],
    }
    if tracer is not None:
        worker_snaps = []
        for path in sorted(glob.glob(os.path.join(tracer.worker_dir, "*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                worker_snaps.extend(json.loads(line) for line in handle if line.strip())
        own_snap = tracer.snapshot()
        report["trace"] = tracing.merge([own_snap] + worker_snaps)
        report["main_self_s"] = own_snap["main_self_s"]
        report["worker_tasks_traced"] = len(worker_snaps)
        tracer.enabled = False

    if store is None:
        # In-process workloads run without a store; give the resume step
        # the store a store-backed run would have written.
        store = campaign.ResultStore(store_path)
        for o in outcomes:
            store.append(o.key, experiment=o.scenario.experiment, tag=o.scenario.tag,
                         params=o.scenario.params, result=o.result, elapsed=o.elapsed)
    report["store_bytes"] = os.path.getsize(store_path)
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    # The resume is short, so it is repeated and its median reported.
    resume_times = []
    for _ in range(RESUME_REPEATS):
        resume_start = time.monotonic()
        resumed = campaign.CampaignRunner(
            campaign.ResultStore(store_path), **options).run(scenarios)
        resume_times.append(time.monotonic() - resume_start)
    report["resume_s"] = sorted(resume_times)[RESUME_REPEATS // 2]
    report["resumed"] = [
        {"key": o.key, "status": o.status,
         "digest": result_digest(o.result, canonical_json) if o.result else None}
        for o in resumed
    ]
    if tracer is not None:
        report["resume_trace"] = tracing.merge([tracer.snapshot()])
        if args.workload == "replicas-batch":
            report["sequential"] = _sequential_by_cohort(campaign, tracer, scenarios)
    report["bench_s"] = time.monotonic() - bench_start
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def _sequential_by_cohort(campaign, tracer, scenarios) -> dict:
    """Per-solve time of the same scenarios run one at a time, by cohort size."""
    groups = {}
    for scenario in scenarios:
        groups.setdefault(scenario.tag, []).append(scenario)
    sequential = {}
    for tag, members in sorted(groups.items()):
        tracer.reset()
        campaign.CampaignRunner(None, ledger=False).run(members)
        calls, seconds, _ = tracer.snapshot()["layers"].get(
            "krylov.registry.solve", [0, 0.0, 0.0])
        sequential[tag] = [calls, seconds]
    return sequential


if __name__ == "__main__":
    main()
