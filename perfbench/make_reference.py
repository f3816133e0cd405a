"""Store the expected outputs of each workload in ``reference.json``.

    python3 perfbench/make_reference.py --seeds 0-11 --seconds 20
    python3 perfbench/make_reference.py --workload live --seeds 3 --seconds 1

For each workload and seed this generates the inputs, runs the measured
process once and stores what it observed: the sha256 of the stream and
labels, the output counts and the window digests. ``run.py`` checks every
later run against the stored entry, so the expected values do not come from
the code under test. Run it only on a commit whose outputs are known to be
right, and only when the workloads themselves change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import (REFERENCE, ROOT, WORKLOADS, measure, prepare_inputs, reference_key,
                 scenario_of)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seeds", default="0-11", help="one seed or a range, as 0-11")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--cache", type=Path, default=ROOT / ".perfbench_cache")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    entries = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        for seed in parse_seeds(args.seeds):
            scenario = scenario_of(name, seed, args.seconds)
            files, _ = prepare_inputs(name, scenario, args.cache)
            with tempfile.TemporaryDirectory(dir=args.cache) as out_dir:
                result = measure(name, seed, files, Path(out_dir), trace=False,
                                 single_pass=True)
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failures']}", file=sys.stderr)
                return 1
            entries.setdefault(name, {})[reference_key(scenario)] = {
                "scenario": scenario, "observed": result["observed"]}
            REFERENCE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
            print(f"{name} {reference_key(scenario)}: {result['observed']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
