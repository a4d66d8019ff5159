"""One repetition of a benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition so that no repetition
inherits warm in-process caches from another.  Roles:

* ``setup``: time one set-up (``SCFDriver`` construction, or opening the
  service store) and exit;
* ``run``: one measured repetition (``run_physics()``, or one service
  campaign over ``--journal``), with the correctness verdict;
* ``prep``: write the service workload's history journal (untimed).

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import physics  # noqa: E402
import service  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("role", choices=("prep", "setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--journal", type=Path,
                   help="service store journal (service workload only)")
    args = p.parse_args(argv)

    if args.workload in physics.WORKLOADS:
        if args.role == "setup":
            out = {"setup_s": physics.setup_seconds(args.workload)}
        elif args.role == "run":
            out = physics.run(args.workload, bool(args.trace))
        else:
            p.error("physics workloads need no prep")
    else:
        sidecar = args.journal.with_name(f"telemetry-{os.getpid()}.jsonl")
        if args.role == "prep":
            out = service.prepare(args.seed, args.journal)
        elif args.role == "setup":
            out = {"setup_s": service.setup_seconds(args.journal, sidecar,
                                                    args.seed)}
        else:
            out = service.run(args.seed, args.journal, sidecar,
                              bool(args.trace))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
