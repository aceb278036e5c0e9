"""Write digests.json: report digests of every case for run seeds 0..255.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/pin_digests.py

The committed file was produced from the package as it stood before any
performance change, so that later changes are held to byte-identical
reports. Regenerate it only when a report is meant to change.
"""
from __future__ import annotations

import json

import workloads


def main() -> None:
    pinned = {}
    for name, workload in workloads.WORKLOADS.items():
        protocols = workloads.build(workload)
        pinned[name] = {case.name: {} for case in workload.cases}
        for seed in range(workloads.PINNED_SEEDS):
            reports = workloads.run_op(workload, protocols, seed)
            for case, report in zip(workload.cases, reports):
                pinned[name][case.name][str(seed)] = workloads.digest(report)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
