"""Wall time, peak memory and garbage collections of one pclab command.

    python3 tools/peakrss.py -- pclab refute pcr-upper --n 16 --ell 2 --out DIR

The words after ``pclab`` run as the ``pclab.cli`` module in a child
process, on the ``src/`` of the checkout that holds this file.  The
child's output goes to stderr.  Stdout gets one JSON line: the child's
``exit`` code, its ``wall_s``, its ``ru_maxrss`` in MB as ``maxrss_mb``,
and as ``gc_collections`` the collections of each generation,
``[g0, g1, g2]``, that ``gc.get_stats()`` counts when the child exits
(null if it was killed before it could say).  The exit status is the
child's.
"""

import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# runs pclab.cli as ``python -m`` would, and at exit writes the collection
# counts to the pipe whose descriptor is its first argument
_CHILD = """\
import atexit, gc, json, os, runpy, sys
fd = int(sys.argv.pop(1))
atexit.register(lambda: os.write(fd, json.dumps([g["collections"] for g in gc.get_stats()]).encode()))
runpy.run_module("pclab.cli", run_name="__main__", alter_sys=True)
"""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if argv[:1] != ["pclab"]:
        print("usage: peakrss.py -- pclab ARGS...", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-c", _CHILD, str(write), *argv[1:]],
                              env=env, stdout=sys.stderr, pass_fds=(write,)).returncode
    finally:
        os.close(write)
    wall = time.perf_counter() - start
    with os.fdopen(read) as fh:
        counts = fh.read()
    # the only child this process waits for; Linux gives ru_maxrss in KiB
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"exit": code, "wall_s": round(wall, 3), "maxrss_mb": round(rss, 1),
                      "gc_collections": json.loads(counts) if counts else None}))
    return code


if __name__ == "__main__":
    sys.exit(main())
