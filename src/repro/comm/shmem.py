"""Shared-memory multiprocess communicator backend (``"shmem"``).

Ranks are real OS processes, forked by :func:`launch_shmem`, wired with
one single-writer/single-reader duplex of OS pipes per ordered rank
pair plus per-rank result and control pipes back to the launcher.  The
design rules are the PR 6 doctrine the ``process-safety`` analysis rule
enforces:

* **no shared ``multiprocessing.Queue``** -- a queue's writer lock dies
  with whichever killable process holds it and silently wedges every
  sibling; every channel here has exactly one writing process, so a
  SIGKILL can never orphan a lock another rank needs;
* **no unbounded blocking** -- every read is gated behind
  ``Connection.poll(timeout)`` against an explicit deadline, so a
  mismatched program raises :class:`~repro.comm.errors.CommTimeoutError`
  instead of hanging, and a dead peer surfaces as EOF on its pipe,
  reported as :class:`~repro.comm.errors.ProcFailure` (ULFM-style);
* **numpy payloads ride ``multiprocessing.shared_memory``** above a
  size threshold -- the pipe carries a small descriptor, the vector
  data crosses via one shared segment (created by the sender, attached,
  copied and unlinked by the receiver; both sides unregister from the
  resource tracker, which would otherwise double-unlink segments whose
  lifetime is managed here).

Fault injection maps the declarative :class:`FaultSpec` axis onto real
processes, so the same spec strings mean the same thing as on the
simulator:

* ``proc_fail`` -- scheduled failure times from the spec's
  :class:`~repro.reliability.process.FailurePlan` are checked against
  the rank's logical clock (advanced by ``compute``/``advance``/message
  costs through the machine model, mirroring the simulator's virtual
  time in program order); when one strikes, the rank SIGKILLs itself.
* ``msg_corrupt`` -- the spec's ``message_corruptor`` (seeded with the
  identical per-rank stream name ``messages/{rank}``) corrupts each
  outgoing payload at the pipe boundary, after the defensive copy.
  Identical ``fault_seed`` therefore draws the identical corruption
  sequence on sim and shmem.

Collectives run a star protocol through rank 0: contributions are
gathered at the coordinator and reduced in **ascending rank order, left
to right** -- the exact reduction order of
:meth:`repro.simmpi.comm.Comm._maybe_finish_collective` -- which is
what makes distributed solves bit-identical across the two backends
(the conformance suite's differential gate pins this).
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import uuid
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import multiprocessing.resource_tracker
from multiprocessing import shared_memory
from multiprocessing.connection import Connection

import numpy as np

from repro.comm.base import BaseCommunicator
from repro.comm.errors import CommTimeoutError, ProcFailure
from repro.machine.model import MachineModel
from repro.simmpi.comm import payload_nbytes
from repro.simmpi.errors import InvalidRankError, SimMpiError
from repro.simmpi.ops import ReduceOp, SUM
from repro.simmpi.requests import CompletedRequest, Request

__all__ = ["ShmemComm", "launch_shmem", "SHM_THRESHOLD_BYTES"]

#: Payloads at or above this many bytes travel through a shared-memory
#: segment instead of the pipe itself.  Below it, pickling through the
#: pipe is faster and -- crucially -- stays under the kernel pipe
#: buffer, so buffered sends do not block the sender.
SHM_THRESHOLD_BYTES = 32768

#: Default wall-clock budget (seconds) for one blocking operation.
DEFAULT_OP_TIMEOUT = 30.0


def _copy_payload(obj: Any) -> Any:
    """Defensive copy so corruption/aliasing never reaches sender state."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, bool, str, bytes, type(None), np.generic)):
        return obj
    import copy

    return copy.deepcopy(obj)


def _untrack_shm(name: str) -> None:
    """Opt the *creator* out of the resource tracker's implicit cleanup.

    Creating (and, through CPython 3.12, attaching) registers the
    segment with the resource tracker, whose at-exit unlink would race
    the explicit receiver-side unlink this module performs.  Only the
    creation-time registration needs manual balancing: on the receiver
    side ``SharedMemory.unlink()`` itself unregisters, pairing with the
    attach-time registration.
    """
    try:
        multiprocessing.resource_tracker.unregister(
            "/" + name.lstrip("/"), "shared_memory"
        )
    except (KeyError, FileNotFoundError):  # pragma: no cover - tracker detail
        pass


class ShmemComm(BaseCommunicator):
    """Communicator bound to one forked rank process.

    Instances are created by :func:`launch_shmem` inside the child
    after ``fork``; user code receives one as the first argument of the
    SPMD function, exactly like the simulator's ``Comm``.

    Parameters
    ----------
    rank, size:
        This process's rank and the job's rank count.
    inbound:
        ``source rank -> read Connection`` of the ``source -> rank``
        pipes (this process is the only reader of each).
    outbound:
        ``dest rank -> write Connection`` of the ``rank -> dest`` pipes
        (this process is the only writer of each).
    machine:
        Machine model driving the logical clock (fault scheduling only;
        the process never sleeps on it).
    failure_times:
        Sorted logical times at which this rank SIGKILLs itself
        (the ``proc_fail`` mapping).
    message_corruptor:
        Optional ``(payload, dest, tag) -> payload`` hook applied to
        every outgoing point-to-point payload after the defensive copy
        (the ``msg_corrupt`` mapping).
    timeout:
        Wall-clock budget per blocking operation; expiry raises
        :class:`CommTimeoutError` rather than hanging.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inbound: Dict[int, Connection],
        outbound: Dict[int, Connection],
        machine: Optional[MachineModel] = None,
        failure_times: Sequence[float] = (),
        message_corruptor: Optional[Callable[[Any, int, int], Any]] = None,
        timeout: float = DEFAULT_OP_TIMEOUT,
        shm_prefix: str = "repro",
    ):
        self._rank = int(rank)
        self._size = int(size)
        self._in = inbound
        self._out = outbound
        self._machine = machine if machine is not None else MachineModel.ideal()
        self._failure_times = deque(sorted(float(t) for t in failure_times))
        self._message_corruptor = message_corruptor
        self.timeout = float(timeout)
        self._clock = 0.0
        self._coll_seq = 0
        self._shm_seq = 0
        self._shm_prefix = shm_prefix
        self._dead: set = set()
        self._pending: Dict[int, deque] = {r: deque() for r in inbound}
        #: Segments this rank created; swept by :meth:`finalize` in case
        #: a killed receiver never attached (normally already unlinked).
        self._shm_created: List[str] = []

    # -- identity ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    @property
    def machine(self) -> MachineModel:
        """The machine model driving the logical clock."""
        return self._machine

    # -- program time / fault scheduling -------------------------------
    def now(self) -> float:
        return self._clock

    def _check_own_failure(self) -> None:
        if self._failure_times and self._failure_times[0] <= self._clock:
            # The proc_fail mapping: a real hard fault, observable by
            # survivors only through broken pipes -- exactly what the
            # ULFM notification contract is about.
            os.kill(os.getpid(), signal.SIGKILL)

    def compute(self, flops: float) -> float:
        self._check_own_failure()
        self._clock += self._machine.compute_time(flops, rank=self._rank)
        self._check_own_failure()
        return self._clock

    def advance(self, seconds: float) -> float:
        self._check_own_failure()
        self._clock += float(seconds)
        self._check_own_failure()
        return self._clock

    # -- failure notification ------------------------------------------
    def alive_ranks(self) -> List[int]:
        return sorted(set(range(self._size)) - self._dead)

    def dead_ranks(self) -> List[int]:
        """Ranks *observed* dead so far (EOF or a coordinator report).

        Real processes have no shared failure oracle; knowledge spreads
        through failed operations, so a rank can be dead before it
        appears here.
        """
        return sorted(self._dead)

    def is_alive(self, rank: int) -> bool:
        self._check_rank(rank)
        return rank not in self._dead

    def _check_rank(self, rank: int) -> None:
        if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool):
            raise InvalidRankError(f"rank must be an integer, got {rank!r}")
        if not 0 <= rank < self._size:
            raise InvalidRankError(
                f"rank {rank} out of range for communicator of size {self._size}"
            )

    # -- payload encoding ----------------------------------------------
    def _encode_payload(self, obj: Any) -> Tuple:
        """Inline small payloads; stage large ndarrays in shared memory."""
        if isinstance(obj, np.ndarray) and obj.nbytes >= SHM_THRESHOLD_BYTES:
            name = f"{self._shm_prefix}-{self._rank}-{self._shm_seq}"
            self._shm_seq += 1
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(obj.nbytes, 1)
            )
            _untrack_shm(segment.name)
            staged = np.ndarray(obj.shape, dtype=obj.dtype, buffer=segment.buf)
            staged[...] = obj
            segment.close()
            self._shm_created.append(name)
            return ("shm", name, str(obj.dtype), obj.shape)
        return ("inline", obj)

    @staticmethod
    def _decode_payload(desc: Tuple) -> Any:
        if desc[0] == "inline":
            return desc[1]
        _, name, dtype, shape = desc
        segment = shared_memory.SharedMemory(name=name)
        try:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
            value = view.copy()
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - sender swept first
                pass
        return value

    def finalize(self) -> None:
        """Sweep shared-memory segments no receiver consumed.

        Called by the launcher's shutdown handshake, *after* every rank
        has returned -- so any surviving receiver has already attached
        and unlinked its segments, and whatever is left belongs to
        receivers that died before attaching.
        """
        for name in self._shm_created:
            try:
                leftover = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            leftover.close()
            leftover.unlink()
        self._shm_created.clear()

    # -- wire protocol -------------------------------------------------
    def _post(self, dest: int, message: Tuple) -> None:
        """Buffered send of one framed message; never detects peer death.

        Mirrors the simulator's eager-send semantics: a broken pipe
        (dead destination) is recorded but not raised -- failure
        surfaces at the operations that depend on the peer.
        """
        try:
            self._out[dest].send_bytes(pickle.dumps(message))
        except (BrokenPipeError, OSError):
            self._dead.add(dest)

    def _next_from(
        self,
        source: int,
        match: Callable[[Tuple], bool],
        operation: str,
        deadline: float,
    ) -> Tuple:
        """Next message from ``source`` satisfying ``match``.

        Non-matching traffic (e.g. a collective contribution arriving
        while we wait for a differently-tagged point-to-point message)
        is buffered in arrival order, preserving per-(source, tag) FIFO
        delivery.  Bounded: raises :class:`CommTimeoutError` at the
        deadline and :class:`ProcFailure` on EOF (dead peer) once no
        buffered message matches.
        """
        pending = self._pending[source]
        for i, message in enumerate(pending):
            if match(message):
                del pending[i]
                return message
        conn = self._in[source]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommTimeoutError(self._rank, operation, self.timeout)
            try:
                if conn.poll(min(remaining, 0.25)):
                    message = pickle.loads(conn.recv_bytes())
                    if match(message):
                        return message
                    pending.append(message)
            except (EOFError, OSError):
                self._dead.add(source)
                raise ProcFailure([source], operation, detected_at=self._clock)

    # -- point-to-point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_own_failure()
        self._check_rank(dest)
        if dest == self._rank:
            raise InvalidRankError("send to self is not supported; use local state")
        payload = _copy_payload(obj)
        if self._message_corruptor is not None:
            payload = self._message_corruptor(payload, dest, int(tag))
        self._post(dest, ("p2p", int(tag), self._encode_payload(payload)))
        # Same program-time accounting as the simulator's eager send.
        self._clock += self._machine.message_time(payload_nbytes(obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_own_failure()
        self._check_rank(source)
        if source == self._rank:
            raise InvalidRankError("recv from self is not supported")
        wanted = int(tag)
        message = self._next_from(
            source,
            lambda m: m[0] == "p2p" and m[1] == wanted,
            f"recv(src={source})",
            time.monotonic() + self.timeout,
        )
        return self._decode_payload(message[2])

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        # Sends are buffered, so the eager form completes immediately.
        self.send(obj, dest, tag=tag)
        return CompletedRequest(None, operation="isend")

    def irecv(self, source: int, tag: int = 0) -> Request:
        self._check_own_failure()
        self._check_rank(source)
        if source == self._rank:
            raise InvalidRankError("recv from self is not supported")
        return Request(lambda _req: self.recv(source, tag), operation="irecv")

    # -- collectives ---------------------------------------------------
    def _finish_collective(
        self,
        kind: str,
        contributions: Dict[int, Any],
        op: Optional[ReduceOp],
        root: Optional[int],
    ) -> Dict[int, Any]:
        """Per-rank results once every contribution is in.

        Reductions run over ascending ranks, left to right -- the
        simulator's exact order, hence bit-identical results.
        """
        participants = sorted(contributions)
        values = [contributions[r] for r in participants]
        if kind in ("allreduce", "reduce"):
            reducer = op if op is not None else SUM
            result = reducer.reduce(values)
            if kind == "reduce":
                return {r: (result if r == root else None) for r in participants}
            return {r: result for r in participants}
        if kind == "barrier":
            return {r: None for r in participants}
        if kind == "bcast":
            return {r: contributions.get(root) for r in participants}
        if kind in ("gather", "allgather"):
            if kind == "gather":
                return {r: (values if r == root else None) for r in participants}
            return {r: list(values) for r in participants}
        if kind == "scatter":
            chunks = contributions.get(root)
            if chunks is None or len(chunks) < len(participants):
                raise ValueError(
                    "scatter root must provide one chunk per participant"
                )
            return {r: chunks[i] for i, r in enumerate(participants)}
        raise ValueError(f"unknown collective kind {kind!r}")  # pragma: no cover

    def _collective(
        self,
        kind: str,
        value: Any,
        *,
        op: Optional[ReduceOp] = None,
        root: Optional[int] = None,
    ) -> Any:
        """Star-protocol collective through the rank-0 coordinator.

        A missing contributor (EOF on its pipe) fails the collective:
        the coordinator reports the failed set to every survivor before
        raising, so all participants observe the same
        :class:`ProcFailure` and nobody hangs; a coordinator death
        surfaces as EOF to every non-root rank.  Contributions that
        reached the pipe before the sender died still count (pipes are
        FIFO), matching the simulator's posted-before-death semantics.
        """
        self._check_own_failure()
        seq = self._coll_seq
        self._coll_seq += 1
        deadline = time.monotonic() + self.timeout
        operation = f"{kind}[{seq}]"
        nbytes = payload_nbytes(value)

        if self._rank == 0:
            contributions: Dict[int, Any] = {0: _copy_payload(value)}
            failed: set = set()
            for source in range(1, self._size):
                try:
                    message = self._next_from(
                        source,
                        lambda m: m[0] == "coll" and m[1] == seq,
                        operation,
                        deadline,
                    )
                except ProcFailure:
                    failed.add(source)
                    continue
                contributions[source] = self._decode_payload(message[2])
            if failed:
                for dest in range(1, self._size):
                    if dest not in failed:
                        self._post(dest, ("collfail", seq, sorted(failed)))
                raise ProcFailure(failed, kind, detected_at=self._clock)
            try:
                results = self._finish_collective(kind, contributions, op, root)
            except Exception as exc:  # noqa: BLE001 - re-raised on every rank
                # Contributions that admit no result: every participant
                # raises the same error rather than timing out.
                for dest in range(1, self._size):
                    self._post(dest, ("collerr", seq, exc))
                raise
            for dest in range(1, self._size):
                self._post(dest, ("collres", seq, self._encode_payload(results[dest])))
            result = results[0]
        else:
            self._post(0, ("coll", seq, self._encode_payload(_copy_payload(value))))
            message = self._next_from(
                0,
                lambda m: m[0] in ("collres", "collfail", "collerr") and m[1] == seq,
                operation,
                deadline,
            )
            if message[0] == "collerr":
                raise message[2]
            if message[0] == "collfail":
                self._dead.update(message[2])
                raise ProcFailure(message[2], kind, detected_at=self._clock)
            result = self._decode_payload(message[2])
        # Logical-time accounting mirrors the simulator's cost model so
        # proc_fail schedules strike at comparable program points.
        self._clock += self._collective_cost(kind, nbytes)
        return result

    def _collective_cost(self, kind: str, nbytes: float) -> float:
        from repro.machine.collective_cost import (
            allreduce_time,
            barrier_time,
            broadcast_time,
        )

        if kind == "barrier":
            return barrier_time(self._machine, self._size)
        if kind in ("bcast", "scatter", "gather", "allgather"):
            return broadcast_time(self._machine, self._size, nbytes)
        return allreduce_time(self._machine, self._size, nbytes)

    # -- blocking forms -------------------------------------------------
    def barrier(self) -> None:
        self._collective("barrier", None)

    def bcast(self, value: Any, root: int = 0) -> Any:
        self._check_rank(root)
        return self._collective(
            "bcast", value if self._rank == root else None, root=root
        )

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        self._check_rank(root)
        return self._collective("reduce", value, op=op, root=root)

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        return self._collective("allreduce", value, op=op)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        self._check_rank(root)
        return self._collective("gather", value, root=root)

    def allgather(self, value: Any) -> List[Any]:
        return self._collective("allgather", value)

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> Any:
        self._check_rank(root)
        payload = list(values) if (self._rank == root and values is not None) else None
        return self._collective("scatter", payload, root=root)

    # -- non-blocking collectives ---------------------------------------
    # Real processes complete these eagerly: the star protocol finishes
    # inside the call and a completed request carries the result.  SPMD
    # programs sequence their collectives identically on every rank, so
    # eager completion preserves correctness (and bit-identity); only
    # the overlap the simulator *models* is not realized.
    def iallreduce(self, value: Any, op: ReduceOp = SUM) -> Request:
        return CompletedRequest(self.allreduce(value, op=op), operation="iallreduce")

    def ibarrier(self) -> Request:
        self.barrier()
        return CompletedRequest(None, operation="ibarrier")

    def iallgather(self, value: Any) -> Request:
        return CompletedRequest(self.allgather(value), operation="iallgather")

    def ibcast(self, value: Any, root: int = 0) -> Request:
        return CompletedRequest(self.bcast(value, root=root), operation="ibcast")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShmemComm(rank={self._rank}, size={self._size}, "
            f"pid={os.getpid()}, t={self._clock:.6g})"
        )


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------
def _close_quietly(conn: Connection) -> None:
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _child_main(
    rank: int,
    size: int,
    channels: Dict[Tuple[int, int], Tuple[Connection, Connection]],
    results: Dict[int, Tuple[Connection, Connection]],
    controls: Dict[int, Tuple[Connection, Connection]],
    func: Callable[..., Any],
    args: Tuple,
    kwargs: Dict[str, Any],
    comm_kwargs: Dict[str, Any],
) -> None:
    """Body of one forked rank; never returns (``os._exit``)."""
    exit_code = 0
    try:
        # Close every inherited pipe end this rank does not own.  The
        # single-owner discipline is what makes death observable: a
        # SIGKILLed rank closes the *only* write end of its outgoing
        # pipes, so peers see EOF instead of waiting forever.
        inbound: Dict[int, Connection] = {}
        outbound: Dict[int, Connection] = {}
        for (src, dst), (read_end, write_end) in channels.items():
            if dst == rank:
                inbound[src] = read_end
            else:
                _close_quietly(read_end)
            if src == rank:
                outbound[dst] = write_end
            else:
                _close_quietly(write_end)
        for other, (read_end, write_end) in results.items():
            _close_quietly(read_end)
            if other != rank:
                _close_quietly(write_end)
        for other, (read_end, write_end) in controls.items():
            _close_quietly(write_end)
            if other != rank:
                _close_quietly(read_end)
        result_conn = results[rank][1]
        control_conn = controls[rank][0]

        comm = ShmemComm(rank, size, inbound, outbound, **comm_kwargs)
        try:
            outcome = ("ok", func(comm, *args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - reported to the launcher
            exit_code = 1
            try:
                pickle.dumps(exc)
            except Exception:  # noqa: BLE001 - unpicklable exception payload
                exc = SimMpiError(f"rank {rank} raised unpicklable {exc!r}")
            outcome = ("error", exc)
        try:
            result_conn.send_bytes(pickle.dumps(outcome))
        except (BrokenPipeError, OSError):  # pragma: no cover - launcher gone
            exit_code = 1
        # Shutdown handshake: hold shared-memory segments (and our pipe
        # ends) until the launcher has collected every outcome, so
        # receivers still draining messages can attach first.  Bounded:
        # a vanished launcher (EOF) releases us too.
        try:
            control_conn.poll(comm.timeout)
        except (EOFError, OSError):  # pragma: no cover - launcher died
            pass
        comm.finalize()
    finally:
        os._exit(exit_code)


def launch_shmem(
    n_ranks: int,
    func: Callable[..., Any],
    *args: Any,
    machine: Optional[MachineModel] = None,
    failure_plan=None,
    faults=None,
    fault_seed: Optional[int] = None,
    timeout: float = DEFAULT_OP_TIMEOUT,
    join_timeout: float = 120.0,
    **kwargs: Any,
) -> List[Any]:
    """Run ``func(comm, *args, **kwargs)`` on ``n_ranks`` OS processes.

    The shmem counterpart of :func:`repro.simmpi.runtime.run_spmd`, with
    the same fault-axis surface: ``faults``/``failure_plan`` map
    ``proc_fail`` components to scheduled self-SIGKILLs and
    ``msg_corrupt`` components to pipe-boundary payload corruption,
    seeded identically to the simulator.  Returns the per-rank return
    values in rank order; a rank killed by a hard fault yields ``None``
    (mirroring the simulator's died-rank reporting), and a rank that
    *raised* re-raises in the caller.

    Children are created with raw ``os.fork`` rather than
    ``multiprocessing.Process``: rank processes must stay spawnable
    from inside the campaign executor's (daemonic) workers, and the
    launcher does its own supervision -- per-rank result pipes with
    bounded waits, explicit ``waitpid`` reaping, and a shutdown
    handshake that keeps shared-memory segments alive until every
    outcome is in.
    """
    n_ranks = int(n_ranks)
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    # Resolve the fault axis exactly like SimRuntime does.
    from repro.simmpi.runtime import coerce_failure_plan

    corruptor_factory = None
    if faults is not None:
        from repro.reliability.registry import resolve_faults

        fault_model = resolve_faults(faults)
        if failure_plan is None:
            failure_plan = coerce_failure_plan(fault_model, n_ranks, seed=fault_seed)
        msg_model = fault_model.component("msg_corrupt")
        if msg_model is not None:
            def corruptor_factory(rank: int, _model=msg_model):
                # Identical stream naming to SimRuntime, so (fault_seed,
                # rank) replays the same corruption draws on any backend.
                return _model.message_corruptor(
                    seed=fault_seed, name=f"messages/{rank}"
                )
    plan = coerce_failure_plan(failure_plan, n_ranks, seed=fault_seed)
    machine = machine if machine is not None else MachineModel.ideal()
    job = uuid.uuid4().hex[:12]

    channels: Dict[Tuple[int, int], Tuple[Connection, Connection]] = {}
    for src in range(n_ranks):
        for dst in range(n_ranks):
            if src != dst:
                channels[(src, dst)] = multiprocessing.Pipe(duplex=False)
    results = {r: multiprocessing.Pipe(duplex=False) for r in range(n_ranks)}
    controls = {r: multiprocessing.Pipe(duplex=False) for r in range(n_ranks)}

    pids: Dict[int, int] = {}
    for rank in range(n_ranks):
        comm_kwargs = dict(
            machine=machine,
            failure_times=[f.time for f in plan.failures_for_rank(rank)],
            timeout=timeout,
            shm_prefix=f"repro-{job}",
        )
        pid = os.fork()
        if pid == 0:
            if corruptor_factory is not None:
                comm_kwargs["message_corruptor"] = corruptor_factory(rank)
            _child_main(
                rank, n_ranks, channels, results, controls,
                func, args, kwargs, comm_kwargs,
            )
            os._exit(1)  # pragma: no cover - _child_main never returns
        pids[rank] = pid

    # The launcher owns only the result read ends and control write
    # ends; releasing the channel ends is what lets EOF semantics work.
    for read_end, write_end in channels.values():
        _close_quietly(read_end)
        _close_quietly(write_end)
    for _read_end, write_end in results.values():
        _close_quietly(write_end)
    for read_end, _write_end in controls.values():
        _close_quietly(read_end)

    outcomes: Dict[int, Tuple[str, Any]] = {}
    conn_ranks = {results[r][0]: r for r in range(n_ranks)}
    deadline = time.monotonic() + join_timeout
    try:
        while len(outcomes) < n_ranks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SimMpiError(
                    f"shmem ranks {sorted(set(pids) - set(outcomes))} did not "
                    f"finish within {join_timeout}s of wall time"
                )
            ready = multiprocessing.connection.wait(
                [results[r][0] for r in range(n_ranks) if r not in outcomes],
                timeout=min(remaining, 0.5),
            )
            for conn in ready:
                rank = conn_ranks[conn]
                try:
                    outcomes[rank] = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    # The rank died (e.g. proc_fail SIGKILL) before
                    # reporting: the simulator reports died ranks as
                    # value None, and so do we.
                    outcomes[rank] = ("died", None)
    finally:
        # Release the children (shutdown handshake), then reap.
        for rank in range(n_ranks):
            try:
                controls[rank][1].send_bytes(b"shutdown")
            except (BrokenPipeError, OSError):
                pass
        reap_deadline = time.monotonic() + 10.0
        for rank, pid in pids.items():
            while True:
                try:
                    reaped, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:  # pragma: no cover - reaped elsewhere
                    break
                if reaped:
                    break
                if time.monotonic() > reap_deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.005)
        for read_end, write_end in list(results.values()) + list(controls.values()):
            _close_quietly(read_end)
            _close_quietly(write_end)

    for rank in range(n_ranks):
        status, value = outcomes[rank]
        if status == "error":
            raise value
    return [outcomes[rank][1] for rank in range(n_ranks)]
