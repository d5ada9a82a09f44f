"""Start benchmark requests one at a time and report each one's own resources.

On Linux the max RSS that ``wait4`` reports for a child is at least the peak
RSS of the process that started it, because exec carries the old memory's
high-water mark over.  run.py grows as it checks large outputs, so children
are started from this small, long-lived process instead.

Protocol: one JSON job per stdin line, ``{"argv", "stdin", "stdout", "stderr",
"timeout"}`` (``stdin`` may be null), and one JSON reply per stdout line,
``{"exit", "wall_s", "max_rss_kb", "cpu_s"}``.  A child still running after
``timeout`` seconds is killed.  The process ends when its stdin closes.
"""

import json
import os
import signal
import sys
from time import perf_counter

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    child = 0

    def kill(signum, frame):
        if child:
            os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    while line := sys.stdin.readline():
        job = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, job["stdin"] or os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, job["stdout"], WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, job["stderr"], WRITE, 0o644),
        ]
        t0 = perf_counter()
        child = os.posix_spawn(job["argv"][0], job["argv"], os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(job["timeout"], 0.001))
        _, status, usage = os.wait4(child, 0)
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        child = 0
        print(json.dumps({
            "exit": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "max_rss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }), flush=True)


if __name__ == "__main__":
    main()
