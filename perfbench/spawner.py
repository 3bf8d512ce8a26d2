"""Start the benchmark's stage processes, one at a time, from a small process.

On Linux a child's ``ru_maxrss`` also counts the resident memory of the
process it was started from, so stages started straight from ``run.py``
(which holds the generated corpus and the checks' parsed artifacts) would
report its memory as their own. This process stays small (about
10 MB), below every stage's own peak.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "log": path, "env": {...}, "cwd": path, "timeout": s}``,
answered by one JSON line on stdout, ``{"wall_s", "maxrss_kb", "code"}``.
The wall time runs from spawn to exit; the peak RSS is the stage's own,
read through ``wait4``. A stage that outlives its timeout is killed, and so
is the running stage when this process is terminated.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdout=log, stderr=subprocess.STDOUT,
                                env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # terminated: stop the stage before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
