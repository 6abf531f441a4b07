"""Write perfbench/reference.json: every workload's output at the default seed.

    python3 perfbench/make_reference.py

Each timed run at the default seed compares its outputs with this file, so
regenerate it only for a change that is meant to alter fedproj's outputs.
"""

from __future__ import annotations

import json
import sys

from run import _load_fedproj, _stop_resource_tracker


def main() -> int:
    if not _load_fedproj():
        return 2
    import workloads

    reference = {name: spec.reference_output(workloads.DEFAULT_SEED)
                 for name, spec in workloads.WORKLOADS.items()}
    _stop_resource_tracker()
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    print(json.dumps(reference, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
