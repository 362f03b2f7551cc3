"""The unified reliability layer: declarative fault models for every layer.

The paper's premise is that future systems expose applications to soft
faults (silent data corruption) and hard faults (process loss), and its
thesis is that the response is *algorithmic and composable*.  This
subpackage makes the fault side of that thesis first-class: one
declarative :class:`FaultSpec` model, one named-model registry, and one
capability surface (:class:`FaultModel`) consumed uniformly by the
solver engine's resilience policies, the SRP domains, the simulated
MPI runtime and every experiment driver -- so the fault axis is named,
serializable and sweepable exactly like the solver axis.

Quick tour::

    from repro import reliability

    model = reliability.resolve_faults("bitflip:p=1e-4,bits=52..62")
    with reliability.unreliable(model, seed=7) as dom:
        y = dom.run(lambda: A @ x, flops=2 * A.nnz)

    combo = reliability.resolve_faults(
        reliability.compose("bitflip:p=0.02", "proc_fail:mtbf=3600"))
    hard = combo.component("proc_fail")   # -> the process-failure model

FaultSpec string forms (the sweepable wire format; full grammar in
:mod:`repro.reliability.spec` and CAMPAIGNS.md)::

    none                                  # the fault-free control
    bitflip:p=0.02,bits=52..62            # Bernoulli exponent-bit flips
    bitflip:rate=0.5,max_faults=3         # Poisson schedule, capped
    perturb:p=0.01,scale=1000.0           # SDC value perturbation
    msg_corrupt:p=0.001                   # per-send payload corruption
    proc_fail:mtbf=3600,horizon=7200      # sampled process failures
    proc_fail:times=1.5;3.0,ranks=1;2     # explicit failure plan
    basis_bitflip:bits=0..63,at=6         # targeted Krylov-basis flip
    bitflip:p=0.05+proc_fail:mtbf=3600    # "+" composes soft + hard

Every form round-trips exactly through ``FaultSpec.parse`` /
``to_string`` / ``to_dict``, and resolves through
:func:`resolve_faults` (registry name, spec string, dict, ``FaultSpec``
or built model in; ready :class:`FaultModel` out).  The sibling axes
follow the same pattern: :mod:`repro.krylov.registry` for solvers and
:mod:`repro.precond` for preconditioners (whose
:meth:`ReliabilityDomain.preconditioner` proxy runs only ``M^{-1} v``
unreliably -- selective reliability).

Module map (mechanism -> declarative layer):

* :mod:`~repro.reliability.bitflip` -- IEEE-754 bit manipulation.
* :mod:`~repro.reliability.events` -- fault-event records and campaign
  results.
* :mod:`~repro.reliability.schedule` -- deterministic / Poisson /
  Bernoulli fault schedules.
* :mod:`~repro.reliability.injector` -- array injectors.
* :mod:`~repro.reliability.process` -- process-failure (MTBF) models
  and replayable :class:`FailurePlan`.
* :mod:`~repro.reliability.sdc` -- SDC campaign helpers and the
  outcome taxonomy.
* :mod:`~repro.reliability.domain` -- :class:`ReliabilityDomain` plus
  the ``unreliable()`` / ``reliable()`` context managers.
* :mod:`~repro.reliability.environment` -- the selective-reliability
  environment pairing one reliable and one unreliable domain.
* :mod:`~repro.reliability.cost` / :mod:`~repro.reliability.tmr` --
  reliability cost model and triple modular redundancy.
* :mod:`~repro.reliability.spec` -- declarative, serializable
  :class:`FaultSpec` (compact-string / dict round-trip).
* :mod:`~repro.reliability.models` -- :class:`FaultModel` capability
  surface over the mechanisms above.
* :mod:`~repro.reliability.registry` -- named fault models and
  :func:`resolve_faults`.
* :mod:`~repro.reliability.precision` -- :class:`PrecisionSpec`, the
  named precision registry and the ``lowprecision()`` domain (reduced
  precision as a bounded-error fault model; the fourth sweepable axis).
* :mod:`~repro.reliability.seeding` -- the per-scenario seed
  derivation shared with the campaign runner.
"""

from repro.reliability.bitflip import (
    bits_of,
    flip_bit_array,
    flip_bit_float64,
    flip_random_bit,
    float_from_bits,
    relative_perturbation,
)
from repro.reliability.events import CampaignResult, FaultEvent, FaultRecord
from repro.reliability.schedule import (
    BernoulliPerCallSchedule,
    DeterministicSchedule,
    FaultSchedule,
    NeverSchedule,
    PoissonSchedule,
)
from repro.reliability.injector import (
    ArrayInjector,
    InjectionSession,
    TargetedInjector,
)
from repro.reliability.process import (
    ExponentialFailureModel,
    FailurePlan,
    ProcessFailureModel,
    WeibullFailureModel,
    system_mtbf,
)
from repro.reliability.sdc import OUTCOME_KINDS, SdcCampaign, classify_outcome
from repro.reliability.domain import (
    DomainOperator,
    DomainPreconditioner,
    ReliabilityDomain,
    TrackedAllocation,
    reliable,
    unreliable,
)
from repro.reliability.environment import (
    SelectiveReliabilityEnvironment,
    UnreliableOperator,
)
from repro.reliability.cost import ReliabilityCostModel
from repro.reliability.tmr import TmrDisagreement, tmr_execute
from repro.reliability.spec import FaultSpec, compose
from repro.reliability.models import (
    BasisBitflipFaults,
    BitflipFaults,
    CompositeFaults,
    FaultCapabilityError,
    FaultModel,
    MessageCorruptionFaults,
    MessageCorruptor,
    NoFaults,
    PerturbationFaults,
    PerturbationInjector,
    ProcessFaults,
    build_model,
)
from repro.reliability.registry import (
    FaultRegistry,
    RegisteredFaultModel,
    default_fault_registry,
    fault_names,
    resolve_faults,
)
from repro.reliability.precision import (
    LowPrecisionOperator,
    LowPrecisionPreconditioner,
    PrecisionDomain,
    PrecisionRegistry,
    PrecisionSpec,
    RegisteredPrecision,
    default_precision_registry,
    lowprecision,
    parse_precision,
    precision_names,
)
from repro.reliability.seeding import derive_fault_seed, derive_seed, fault_stream

__all__ = [
    # bit-level primitives
    "bits_of",
    "float_from_bits",
    "flip_bit_float64",
    "flip_bit_array",
    "flip_random_bit",
    "relative_perturbation",
    # events / campaigns
    "FaultEvent",
    "FaultRecord",
    "CampaignResult",
    "SdcCampaign",
    "classify_outcome",
    "OUTCOME_KINDS",
    # schedules
    "FaultSchedule",
    "DeterministicSchedule",
    "PoissonSchedule",
    "BernoulliPerCallSchedule",
    "NeverSchedule",
    # injectors
    "ArrayInjector",
    "TargetedInjector",
    "InjectionSession",
    "PerturbationInjector",
    "MessageCorruptor",
    # process failures
    "ProcessFailureModel",
    "ExponentialFailureModel",
    "WeibullFailureModel",
    "FailurePlan",
    "system_mtbf",
    # domains / SRP
    "ReliabilityDomain",
    "TrackedAllocation",
    "DomainOperator",
    "DomainPreconditioner",
    "unreliable",
    "reliable",
    "SelectiveReliabilityEnvironment",
    "UnreliableOperator",
    "ReliabilityCostModel",
    "tmr_execute",
    "TmrDisagreement",
    # declarative layer
    "FaultSpec",
    "compose",
    "FaultModel",
    "FaultCapabilityError",
    "NoFaults",
    "BitflipFaults",
    "PerturbationFaults",
    "MessageCorruptionFaults",
    "ProcessFaults",
    "BasisBitflipFaults",
    "CompositeFaults",
    "build_model",
    "FaultRegistry",
    "RegisteredFaultModel",
    "default_fault_registry",
    "fault_names",
    "resolve_faults",
    # precision (the fourth axis)
    "PrecisionSpec",
    "RegisteredPrecision",
    "PrecisionRegistry",
    "default_precision_registry",
    "precision_names",
    "parse_precision",
    "PrecisionDomain",
    "LowPrecisionOperator",
    "LowPrecisionPreconditioner",
    "lowprecision",
    # seeding
    "derive_seed",
    "derive_fault_seed",
    "fault_stream",
]
