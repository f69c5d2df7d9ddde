"""Wall time and peak memory of one pclab command.

    python3 tools/peakrss.py -- pclab refute pcr-upper --n 16 --ell 2 --out DIR

The words after ``pclab`` run as ``python -m pclab.cli`` in a child
process, on the ``src/`` of the checkout that holds this file.  The
child's output goes to stderr.  Stdout gets one JSON line: the child's
``exit`` code, its ``wall_s``, and its ``ru_maxrss`` in MB as
``maxrss_mb``.  The exit status is the child's.
"""

import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if argv[:1] != ["pclab"]:
        print("usage: peakrss.py -- pclab ARGS...", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "pclab.cli", *argv[1:]], env=env, stdout=sys.stderr).returncode
    wall = time.perf_counter() - start
    # the only child this process waits for; Linux gives ru_maxrss in KiB
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"exit": code, "wall_s": round(wall, 3), "maxrss_mb": round(rss, 1)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
