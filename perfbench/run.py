"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream_web12 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics and writes the spans to
``.perfbench/traces/``. Progress and the raw samples go to stderr; the
last line of stdout is the result. Exits 2 without a result when the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # fresh-process set-up samples per run; setup_s is their median
# Ray's session files, one directory per benchmark process
RAY_TMP = os.path.join(ROOT, ".perfbench", f"ray{os.getpid()}")


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fresh_setup():
    """One set-up sample: returns (seconds from starting ``fresh_setup.py``
    to its ready line, seconds of rule loading and compiling). The script
    has shut Ray down and exited on return."""
    from perfbench.session import Interval

    with Interval() as ready:
        p = subprocess.Popen([sys.executable, os.path.join(HERE, "fresh_setup.py")],
                             stdout=subprocess.PIPE, text=True)
        line = p.stdout.readline()
    rest = p.stdout.read()
    rc = p.wait()
    if rc != 0 or not line.startswith("ready "):
        raise RuntimeError(f"fresh_setup.py exited with {rc}: {line}{rest}")
    return ready.wall, float(line.split()[1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(spec_path)
            and os.path.isfile(os.path.join(ROOT, "sagan_ray", "__init__.py"))):
        _log(f"needs BENCHMARK.json and the sagan_ray package under {ROOT}")
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, ROOT)
    # Ray workers import sagan_ray and the benchmark's stages from here
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    logging.getLogger("ray.data").setLevel(logging.WARNING)

    from perfbench import checks, inputs, session, workloads
    from perfbench.trace import Tracer

    if args.workload not in workloads.WORKLOADS:
        _log(f"unknown workload {args.workload!r}")
        return 2
    w = workloads.WORKLOADS[args.workload]
    state = os.path.join(ROOT, ".perfbench")
    run_id = uuid.uuid4().hex[:12]
    work = os.path.join(state, "work", run_id)
    tracer = Tracer(run_id) if args.trace else None

    phases: dict[str, float] = {}
    t_phase = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal t_phase
        now = time.perf_counter()
        phases[name] = round(now - t_phase, 2)
        t_phase = now

    try:
        with session.PeakMemory() as mem:
            session.start_ray(RAY_TMP)
            rules = workloads.load_rules()
            phase("setup")
            files = inputs.webpages_files(os.path.join(state, "cache"), ROOT,
                                          w.rows, args.seed, w.files)
            os.makedirs(work)
            phase("inputs")
            if w.kind == "stream":
                run = workloads.trace_stream if tracer else workloads.measure_stream
            else:
                run = workloads.trace_daemon if tracer else workloads.measure_daemon
            if tracer:
                res = run(w, files, rules, work, args.seconds, tracer)
            else:
                res = run(w, files, rules, work, args.seconds)
            phase("measure")
            kernel = (workloads.kernel_baseline(tracer.read_paths, rules)
                      if tracer else None)
        session.stop_ray()
        phase("stop")
        setup_speed = session.HostSpeed()
        samples = []
        for _ in range(SETUPS):
            setup_speed.sample()
            samples.append(fresh_setup())
        setup_speed.sample()
        setups, loads = zip(*samples)
        phase("setups")
    finally:
        session.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)

    if res.outcome is not None and "routed_sha256" in res.outcome:
        res.op(checks.pin_mismatches(w.name, args.seed, w.rows, res.outcome))

    m = dict(res.metrics)
    if tracer:
        kernel_s, candidates = kernel
        m["match.kernel_s"] = kernel_s
        m["match.prefilter_candidates"] = candidates
        m["match.alerts_per_candidate"] = (m["match.alerts_out"] / candidates
                                           if candidates else 0.0)
        m["rules.load_s"] = statistics.median(loads)
        path = os.path.join(state, "traces", f"{w.name}-s{args.seed}-{run_id}.json")
        tracer.write(path, m)
        _log(f"trace written to {path}")
        wanted = spec["per_layer"]
    else:
        m["setup_s"] = statistics.median(setups) * setup_speed.scale()
        m["peak_mem_mb"] = mem.peak_mb
        m["ops_ok_ratio"] = (res.attempted - res.failed) / res.attempted
        wanted = spec["end_to_end"]
    metrics = {d["name"]: {"value": m.get(d["name"], 0), "unit": d["unit"]}
               for d in wanted}
    for p in res.problems:
        _log(f"FAILED: {p}")
    _log(json.dumps({"phases": phases,
                     "setup": [round(x, 3) for x in setups],
                     "setup_probes": [round(x, 3) for x in setup_speed.probes],
                     "memory_samples": mem.samples, **res.info}))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
