"""Regenerate ``digests.json``: the expected result of every pool scenario.

Runs every scenario any seed of any workload can produce (see
``workloads.pool``) through the sequential in-process path -- one
``CampaignRunner`` with one worker, no batching, no store -- and records
the timing-free digest of its result under its scenario key.

Run from the repository root::

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_digests.py

Only a change that deliberately alters results (a re-pin of the goldens
under the ROADMAP behaviour contract) should need this; review the
``git diff`` of ``digests.json`` like a golden diff.
"""

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from round import result_digest  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    from repro.campaign import CampaignRunner, Scenario
    from repro.campaign.spec import canonical_json

    digests = {}
    for workload in workloads.WORKLOADS:
        scenarios = [Scenario(s["experiment"], s["params"], s["tag"])
                     for s in workloads.pool(workload)]
        outcomes = CampaignRunner(None, ledger=False).run(scenarios)
        failed = [o.key for o in outcomes if o.status != "completed"]
        if failed:
            print(f"{workload}: {len(failed)} scenarios did not complete", file=sys.stderr)
            return 1
        digests[workload] = {o.key: result_digest(o.result, canonical_json)
                             for o in outcomes}
        print(f"{workload}: {len(outcomes)} digests")
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
