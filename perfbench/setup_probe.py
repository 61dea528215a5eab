"""What a user pays before the first run: import, scenario load, pool start.

    python3 perfbench/setup_probe.py SCENARIO JOBS

Prints ``ready`` once done; the caller times from launch to that line.
With JOBS > 1 it starts ``run_batch``'s kind of process pool and waits until
every worker has answered.
"""

import sys
from concurrent.futures import ProcessPoolExecutor

from scansim.cli import load_scenario


def main() -> int:
    load_scenario(sys.argv[1])
    jobs = int(sys.argv[2])
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(abs, range(jobs)))
            print("ready", flush=True)
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
