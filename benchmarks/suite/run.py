"""Contest-suite benchmark: one workload per run.

    python3 benchmarks/suite/run.py --workload trees --seed 2019 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the learner is imported from its
``src/``.  See ``benchmarks/suite/README.md``.
"""

import sys
import time

STARTED = time.perf_counter()  # set-up time counts from here

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no learner sources under {ROOT / 'src'}; run "
                         "from the root of a full checkout\n")
        return 2
    # Replace the script's own directory on the path: the learner and
    # this package are imported from the checkout root.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.suite import bench

    return bench.main(sys.argv[1:], STARTED)


if __name__ == "__main__":
    sys.exit(main())
