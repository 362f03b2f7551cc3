"""Layer tracing from outside the program.

:class:`Tracer` wraps public entry points of each layer of ``repro``
(replacing the function or method object everywhere it is bound) and
records, per layer, the number of calls, the inclusive time and the
self time (inclusive minus the time of wrapped layers below it), plus
named counters filled by per-layer hooks (iterations, nnz, faults, ...).

Nothing under ``src/`` changes: wrapping happens in the benchmark's
round process, after discovery and before the campaign runs.  Spans nest
per thread (the simulated MPI runtime runs ranks as threads); each
thread keeps its own tallies, merged when a snapshot is taken, so counts
never race.  A layer called from inside itself (an FGMRES inner solve,
a collective that waits on a request) counts and times only at its
outermost call.

Campaign workers are forked from the round process after wrapping, so
the wrappers run inside them too.  A worker resets its tallies before
each task and appends the task's snapshot to a per-worker JSONL file,
which the round process merges: driver-and-below layers are measured in
the workers that ran them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

_perf = time.perf_counter


class _Tally:
    """One thread's per-layer ``[calls, total_s, self_s]`` and counters."""

    def __init__(self, main: bool):
        self.main = main
        self.layers: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.stack: list = []          # one [child_seconds] per open span
        self.active: Dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self):
        self.enabled = True
        self._local = threading.local()
        self._tallies = []
        self._lock = threading.Lock()
        self.worker_dir: Optional[str] = None
        self.pid = os.getpid()

    # -- tallies -----------------------------------------------------------
    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally(threading.current_thread() is threading.main_thread())
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def reset(self) -> None:
        for tally in self._tallies:
            tally.layers.clear()
            tally.counters.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self._tally().counters[name] += amount

    def add_span(self, layer: str, seconds: float) -> None:
        """Record a span timed by the caller (import, discovery)."""
        entry = self._tally().layers[layer]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds

    def snapshot(self) -> dict:
        """Merged tallies: ``layers``, ``counters`` and main-thread self time."""
        tallies = list(self._tallies)
        merged = merge({"layers": t.layers, "counters": t.counters} for t in tallies)
        merged["main_self_s"] = sum(
            own for t in tallies if t.main for _, _, own in t.layers.values())
        return merged

    # -- wrapping ----------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None,
             timed: bool = True) -> Callable:
        """Wrap ``fn`` as a span of ``layer``.

        ``after(tracer, result, args, kwargs, outer, seconds)`` runs after
        the call; ``outer`` is False when the call is nested inside the
        same layer.  ``timed=False`` only runs the hook (a counter, no span).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tally = tracer._tally()
            outer = tally.active[layer] == 0
            if not timed:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, result, args, kwargs, outer, 0.0)
                return result
            frame = [0.0]
            tally.stack.append(frame)
            tally.active[layer] += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = _perf() - start
                tally.active[layer] -= 1
                tally.stack.pop()
                entry = tally.layers[layer]
                entry[2] += seconds - frame[0]
                if outer:
                    entry[0] += 1
                    entry[1] += seconds
                if tally.stack:
                    tally.stack[-1][0] += seconds
            if after is not None:
                after(tracer, result, args, kwargs, outer, seconds)
            return result

        return wrapper

    # -- worker hand-off ---------------------------------------------------
    def worker_task(self, execute: Callable) -> Callable:
        """Wrap the campaign's execute callable for forked workers."""
        tracer = self
        traced = self.wrap("experiments", execute)

        @functools.wraps(execute)
        def run(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return traced(*args, **kwargs)
            tracer.reset()
            result = traced(*args, **kwargs)
            path = os.path.join(tracer.worker_dir, f"worker-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(tracer.snapshot()) + "\n")
            return result

        return run


def merge(snapshots) -> dict:
    """Sum snapshots (round process plus worker tasks)."""
    layers: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counters: Dict[str, float] = defaultdict(float)
    for snap in snapshots:
        for layer, values in snap["layers"].items():
            entry = layers[layer]
            for i in range(3):
                entry[i] += values[i]
        for name, value in snap["counters"].items():
            counters[name] += value
    return {"layers": dict(layers), "counters": dict(counters)}


# ---------------------------------------------------------------------------
# Hooks: counters filled after a wrapped call
# ---------------------------------------------------------------------------
def _solve_done(tracer, result, args, kwargs, outer, seconds):
    if outer:
        tracer.count("solve.iterations", result.iterations)
        tracer.count("solve.converged", bool(result.converged))
        tracer.count("solve.detections", result.detected_faults)


def _batch_solve_done(tracer, results, args, kwargs, outer, seconds):
    if outer:
        lanes = len(results)
        tracer.count("batch.lanes", lanes)
        tracer.count(f"batch.s{lanes}.lanes", lanes)
        tracer.count(f"batch.s{lanes}.seconds", seconds)
        for result in results:
            tracer.count("solve.iterations", result.iterations)
            tracer.count("solve.converged", bool(result.converged))
            tracer.count("solve.detections", result.detected_faults)


def _engine_batch_done(tracer, results, args, kwargs, outer, seconds):
    tracer.count("engine.batch.lane_iterations",
                 sum(r.iterations for r in results))


def _matvec_done(tracer, y, args, kwargs, outer, seconds):
    matrix, x = args[0], args[1]
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    tracer.count("csr.nnz", matrix.nnz * rows)
    tracer.count("csr.flops", 2 * matrix.nnz * rows)
    tracer.count("csr.bytes", matrix.data.nbytes + matrix.indices.nbytes
                 + matrix.indptr.nbytes + getattr(x, "nbytes", 0) + y.nbytes)


def _orthogonalize_done(tracer, result, args, kwargs, outer, seconds):
    if not outer:
        return
    basis, w = args[0], args[1]
    method = kwargs.get("method", args[2] if len(args) > 2 else "cgs2")
    k = kwargs.get("k", args[3] if len(args) > 3 else None)
    k = basis.n_columns if k is None else int(k)
    size = getattr(w, "size", 0)
    tracer.count("ortho.flops", (8 if method == "cgs2" else 4) * size * k)


def _orthogonalize_many_done(tracer, result, args, kwargs, outer, seconds):
    rows = args[0]
    method = kwargs.get("method", args[2] if len(args) > 2 else "cgs2")
    tracer.count("ortho.flops", (8 if method == "cgs2" else 4) * rows.size)


def _journal_done(tracer, result, args, kwargs, outer, seconds):
    status, elapsed = args[2], args[5]
    tracer.count("executor.attempts")
    if status == "ok":
        tracer.count("executor.ok")
    tracer.count("executor.busy_s", float(elapsed))


def _comm_hook(kind: str, payload_nbytes):
    def done(tracer, result, args, kwargs, outer, seconds):
        if not outer:
            return
        tracer.count(kind)
        value = args[1] if len(args) > 1 else None
        tracer.count("comm.bytes", payload_nbytes(value))
    return done


def _matgen_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    timed = tracer.wrap("linalg.matgen", fn)

    @functools.wraps(fn)
    def run(*args, **kwargs):
        before = fn.cache_info().hits
        result = timed(*args, **kwargs)
        if tracer.enabled:
            tracer.count("matgen.hits", fn.cache_info().hits - before)
        return result

    run.cache_info = fn.cache_info
    return run


_COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
                "scatter", "iallreduce", "ibarrier", "iallgather", "ibcast")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already-imported ``repro`` package."""
    from repro.campaign import executor, runner, store
    from repro.checkpoint import store as checkpoint_store
    from repro.krylov import ops, registry as kregistry
    from repro.krylov.engine import batch, orthogonalize
    from repro.lflr import manager
    from repro.linalg import csr, matgen, precond as lprecond
    from repro.precond import registry as pregistry
    from repro.reliability import injector, models
    from repro.simmpi import comm, requests

    functions = {}   # original function -> wrapper, rebound in every module

    def function(module, name, layer, after=None, timed=True):
        original = getattr(module, name)
        functions[original] = tracer.wrap(layer, original, after, timed)

    def method(cls, name, layer, after=None, timed=True):
        setattr(cls, name, tracer.wrap(layer, cls.__dict__[name], after, timed))

    # Campaign: supervisor side.
    method(runner.CampaignRunner, "resolve", "campaign.runner.resolve")
    function(runner, "plan_batch_groups", "campaign.runner.plan")
    method(executor.SupervisedExecutor, "run", "campaign.executor.run",
           lambda t, r, a, k, o, s: t.count("executor.tasks", len(a[1])))
    method(executor.SupervisedExecutor, "_journal", "campaign.executor.journal",
           _journal_done, timed=False)
    method(store.ResultStore, "__init__", "campaign.store.load")
    method(store.ResultStore, "append", "campaign.store.append")
    method(executor.FailureLedger, "__init__", "campaign.ledger.load")
    method(executor.FailureLedger, "record", "campaign.ledger.record")
    functions[executor.default_execute] = tracer.worker_task(executor.default_execute)

    # Drivers and below.
    for name in matgen.__all__:
        fn = getattr(matgen, name)
        if hasattr(fn, "cache_info"):
            functions[fn] = _matgen_wrapper(tracer, fn)
    method(kregistry.RegisteredSolver, "solve", "krylov.registry.solve", _solve_done)
    function(kregistry, "batch_solve", "krylov.registry.batch_solve", _batch_solve_done)
    function(batch, "run_arnoldi_batch", "krylov.engine.batch", _engine_batch_done)
    function(batch, "run_cg_batch", "krylov.engine.batch",
             lambda t, r, a, k, o, s: (_engine_batch_done(t, r, a, k, o, s),
                                    t.count("engine.batch.cohorts")))
    function(batch, "_run_cohort", "krylov.engine.batch.cohort",
             lambda t, r, a, k, o, s: t.count("engine.batch.cohorts"), timed=False)
    method(csr.CsrMatrix, "matvec", "linalg.csr.matvec", _matvec_done)
    method(csr.CsrMatrix, "matvec_block", "linalg.csr.matvec_block", _matvec_done)
    method(ops.KrylovBasis, "orthogonalize", "krylov.ops.orthogonalize",
           _orthogonalize_done)
    method(ops._DenseKrylovBasis, "orthogonalize", "krylov.ops.orthogonalize",
           _orthogonalize_done)
    function(orthogonalize, "orthogonalize_many", "krylov.ops.orthogonalize",
             _orthogonalize_many_done)
    for name in ("dot", "idot", "fused_dots", "norm"):
        function(ops, name, "krylov.ops.dot")
    function(ops, "axpby", "krylov.ops.axpby")
    function(pregistry, "build_preconditioner", "precond.build")
    for cls in vars(lprecond).values():
        if (isinstance(cls, type) and issubclass(cls, lprecond.Preconditioner)
                and cls is not lprecond.Preconditioner and "apply" in cls.__dict__):
            method(cls, "apply", "precond.apply")
    for cls in (injector.ArrayInjector, injector.TargetedInjector,
                models.PerturbationInjector):
        method(cls, "maybe_inject", "reliability.inject")
    method(injector.InjectionSession, "record", "reliability.record",
           lambda t, r, a, k, o, s: t.count("reliability.faults"), timed=False)
    for name in _COLLECTIVES:
        method(comm.Comm, name, "comm",
               _comm_hook("comm.collectives", comm.payload_nbytes))
    for name in ("send", "isend", "sendrecv"):
        method(comm.Comm, name, "comm", _comm_hook("comm.messages", comm.payload_nbytes))
    for name in ("recv", "irecv"):
        method(comm.Comm, name, "comm")
    method(requests.Request, "wait", "comm")
    method(checkpoint_store.CheckpointStore, "write", "checkpoint.write")
    method(manager.LFLRManager, "recover", "lflr.recover")

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            try:
                wrapper = functions.get(value)
            except TypeError:   # unhashable module attribute
                continue
            if wrapper is not None:
                namespace[attr] = wrapper
