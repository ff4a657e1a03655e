"""One set-up sample in a fresh interpreter.

Imports the program, starts Ray, loads and compiles the rules, and
prints ``ready <seconds of rule loading and compiling>``; then shuts
Ray down, waits until every process it started has exited, and exits.
``run.py`` starts this script once per sample and times it from the
start of the process to the ready line, so ``setup_s`` covers the
imports of Ray, Ray Data and the pipeline as well as ``ray.init``.

    python3 perfbench/fresh_setup.py
"""

from __future__ import annotations

import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench import session, workloads
    from sagan_ray.stages.match import make_matcher

    ray_tmp = os.path.join(ROOT, ".perfbench", f"ray{os.getpid()}")
    try:
        session.start_ray(ray_tmp)
        t1 = time.perf_counter()
        make_matcher(workloads.load_rules())
        print(f"ready {time.perf_counter() - t1:.6f}", flush=True)
    finally:
        session.stop_ray()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
