"""Alternating parent/change benchmark pairs, summarized for a claim.

    python tools/ab_pairs.py --parent REV --workload stream_web12 \\
        --seeds 1 2 --pairs 10 [--metric rows_per_s] [--out runs.jsonl]

Exports the committed files of ``REV`` with ``git archive`` into a
temporary directory (no ``git worktree`` entry is left in the
repository) and runs ``perfbench/run.py --trace 0`` there and in this
working tree, ``--pairs`` times. Pair k uses ``seeds[k % len(seeds)]``,
and the side that runs first alternates within each seed: the parent in
that seed's first pair, the change in its second, and so on. Every run
goes through ``tools/check_leftovers.py``, so a run that leaves
processes behind is reported.

Prints each pair's values of every end-to-end metric, each side's
median and quartiles, the raw set-up samples per side, and for the
claimed ``--metric`` the win count and the verdict: a gain is claimed
only when the change wins at least nine tenths of the pairs (ties count
for neither) and the medians differ by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEFTOVERS = os.path.join(ROOT, "tools", "check_leftovers.py")


def export(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its metrics, set-up samples, and
    whether it was correct and left no process behind."""
    p = subprocess.run(
        [sys.executable, LEFTOVERS, "--", sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    setup = []
    for line in p.stderr.splitlines():
        if line.startswith("[perfbench] {") and '"setup"' in line:
            setup = json.loads(line.split(" ", 1)[1])["setup"]
    return {"metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "correct": bool(result.get("correct")), "exit": p.returncode,
            "setup": setup,
            "leftovers": [ln for ln in p.stderr.splitlines()
                          if ln.startswith("check_leftovers: left running")]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], spec: dict, metric: str) -> str:
    better = {d["name"]: d["better"] for d in spec["end_to_end"]}
    out = []
    for name in better:
        par = [r["parent"]["metrics"][name] for r in runs]
        chg = [r["change"]["metrics"][name] for r in runs]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(par), quartiles(chg)
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        rel = (cm - pm) / pm if pm else 0.0
        out.append(f"{name}: parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}] -> change "
                   f"{cm:.4g} [{cq1:.4g}, {cq3:.4g}] ({rel:+.1%}), change better "
                   f"{wins}/{len(runs)}")
        if name == metric:
            met = (wins >= 0.9 * len(runs)
                   and sign * (cm - pm) > pq3 - pq1)
            out.append(f"CLAIM {metric}: {'met' if met else 'not met'} "
                       f"(wins {wins}/{len(runs)}, median gap {cm - pm:+.4g}, "
                       f"parent IQR {pq3 - pq1:.4g})")
    for side in ("parent", "change"):
        samples = [round(s, 3) for r in runs for s in r[side]["setup"]]
        wrong = sum(not r[side]["correct"] for r in runs)
        left = sum(bool(r[side]["leftovers"]) for r in runs)
        out.append(f"{side}: set-up samples (raw s) {samples}; runs not "
                   f"correct {wrong}, leaving processes {left}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default="rows_per_s")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default: BENCHMARK.json run_seconds")
    ap.add_argument("--out", help="append each pair as a JSON line here")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    parent = tempfile.mkdtemp(prefix="ab_parent_")
    runs = []
    try:
        export(args.parent, parent)
        for k in range(args.pairs):
            seed = args.seeds[k % len(args.seeds)]
            order = (("parent", "change") if (k // len(args.seeds)) % 2 == 0
                     else ("change", "parent"))
            pair = {"pair": k + 1, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(parent if side == "parent" else ROOT,
                                      args.workload, seed, seconds)
            runs.append(pair)
            vals = "  ".join(f"{n}={pair['parent']['metrics'].get(n, 0):.4g}/"
                             f"{pair['change']['metrics'].get(n, 0):.4g}"
                             for n in (d["name"] for d in spec["end_to_end"]))
            print(f"pair {k + 1} seed {seed} {order[0]} first (parent/change): "
                  f"{vals}", flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(pair) + "\n")
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    print(summarize(runs, spec, args.metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
