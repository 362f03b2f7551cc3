"""Driver-wiring reference: E8/E9/E10 placements the goldens do not pin.

The fixture ``tests/data/driver_wiring.json`` holds the canonical
``ExperimentResult`` JSON text (timing keys removed, as in the
perfbench digests) of sequential ``run()`` calls captured from the drivers before
their sequential and lockstep bodies were merged into one cohort path.
It is an independent reference for that wiring: every case is checked
through ``run()`` and through ``run_batch()`` at one and at three
scenarios, so a lane built or seeded differently from the historical
sequential run shows up as a JSON mismatch.  The drivers must also
run these placements without a RuntimeWarning.

Covered (beyond ``SPEC.golden``):

* E8 -- ``ft_gmres`` under ``perturb`` and ``proc_fail``, and the legacy
  ``fault_probability``/``bit_range`` form;
* E9 -- ``target="operator"`` under ``none``/``bitflip``/``perturb``
  with ``fgmres``, and ``ft_gmres`` under both placements (fault-free
  for the operator placement: ``ft_gmres`` cannot apply a wrapped
  operator, so a faulted operator cell raises);
* E10 -- ``target="outer"``, and ``target="inner"`` with ``fgmres``,
  over ``fp64``/``fp32``/``fp32:storage=fp16``, with and without faults.

Regenerating after an *intentional* result change::

    PYTHONPATH=src python -m pytest tests/test_driver_wiring.py --update-parity
    git diff tests/data/driver_wiring.json   # review before committing
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaign.spec import canonical_json
from repro.experiments import e8_solvers, e9_precond, e10_precision

DATA_PATH = pathlib.Path(__file__).parent / "data" / "driver_wiring.json"

# Injected faults and reduced precision overflow by design; the drivers
# classify those answers themselves, so a RuntimeWarning is a defect.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = (101, 102, 103)

_TIMING_KEYS = frozenset({"kernel_seconds", "elapsed"})

_E9_SOLVERS = ("gmres", "fgmres", "cg")
_E10_PRECISIONS = ("fp64", "fp32", "fp32:storage=fp16")

CASES = {
    "e8_ft_gmres_perturb": (e8_solvers, dict(
        grid=6, solvers=("gmres", "sdc_gmres", "ft_gmres"), policy="skeptical",
        faults="perturb:p=0.05,scale=1000.0")),
    "e8_ft_gmres_proc_fail": (e8_solvers, dict(
        grid=6, solvers=("gmres", "cg", "ft_gmres"), policy="guard",
        faults="proc_fail")),
    "e8_legacy_bitflip": (e8_solvers, dict(
        grid=6, solvers=("gmres", "cg", "sdc_gmres", "ft_gmres"), policy="skeptical",
        fault_probability=0.02, bit_range=(52, 62))),
    "e9_operator_none": (e9_precond, dict(
        grid=6, solvers=_E9_SOLVERS + ("ft_gmres",), preconds=("none", "jacobi"), faults="none",
        target="operator")),
    "e9_operator_bitflip": (e9_precond, dict(
        grid=6, solvers=_E9_SOLVERS, preconds=("none", "jacobi"),
        faults="bitflip:p=0.05,bits=52..62", target="operator")),
    "e9_operator_perturb": (e9_precond, dict(
        grid=6, solvers=_E9_SOLVERS, preconds=("none", "jacobi"),
        faults="perturb:p=0.05,scale=1000.0", target="operator")),
    "e9_precond_bitflip": (e9_precond, dict(
        grid=6, solvers=("fgmres", "ft_gmres"), preconds=("none", "jacobi"),
        faults="bitflip:p=0.05,bits=52..62", target="precond")),
    "e10_outer_none": (e10_precision, dict(
        grid=6, solvers=("gmres", "fgmres", "cg"), precisions=_E10_PRECISIONS,
        preconds=("none", "jacobi"), faults="none", target="outer")),
    "e10_outer_bitflip": (e10_precision, dict(
        grid=6, solvers=("gmres", "fgmres", "cg"), precisions=_E10_PRECISIONS,
        preconds=("none", "jacobi"), faults="bitflip:p=0.05,bits=52..62",
        target="outer")),
    "e10_inner_fgmres_none": (e10_precision, dict(
        grid=6, solvers=("fgmres",), precisions=_E10_PRECISIONS,
        preconds=("none", "jacobi"), faults="none", target="inner")),
    "e10_inner_fgmres_bitflip": (e10_precision, dict(
        grid=6, solvers=("fgmres",), precisions=_E10_PRECISIONS,
        preconds=("none", "jacobi"), faults="bitflip:p=0.05,bits=52..62",
        target="inner")),
}


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k not in _TIMING_KEYS}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _canonical(result) -> str:
    return canonical_json(_strip_timing(result.to_dict()))


@pytest.fixture(scope="module")
def reference():
    with open(DATA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("path", ["run", "run_batch_1", "run_batch_3"])
def test_driver_reproduces_reference(case, path, reference):
    module, config = CASES[case]
    if path == "run":
        results = [module.run(**dict(config, seed=SEEDS[0]))]
    elif path == "run_batch_1":
        results = module.run_batch([dict(config, seed=SEEDS[0])])
    else:
        results = module.run_batch([dict(config, seed=s) for s in SEEDS])
    assert [_canonical(r) for r in results] == reference[case][: len(results)]


def test_update_driver_wiring_fixture(update_parity):
    """Regenerates the fixture when ``--update-parity`` is passed."""
    if not update_parity:
        pytest.skip("pass --update-parity to regenerate the fixture")
    data = {
        case: [_canonical(module.run(**dict(config, seed=s))) for s in SEEDS]
        for case, (module, config) in sorted(CASES.items())
    }
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
