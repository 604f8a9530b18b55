"""Steadiness check of the benchmark: spreads across seeds, identity across runs.

    python3 perfbench/steady.py --workload NAME --seeds 1-10 [--repeat 2]
        [--save SET.json] [--against EARLIER.json]

Runs ``run.py`` once per seed (``--trace 0``, for ``run_seconds`` of
``BENCHMARK.json``) and prints, per end-to-end metric, the median and the
interquartile range as a share of the median, next to the bound in
``BENCHMARK.json``.  With ``--repeat N`` the first seed is run N times
more, and the check fails if its utility or decision digest differs
between runs of the same code and seed.  ``--save`` writes the set's values
per metric; ``--against`` compares this set's medians with an earlier saved
set of the same workload and seeds (shown as the share by which this set is
worse), and the check fails if a median moved from the earlier one by more
than the bound, or if the utility of any seed differs.  Exits non-zero when
a spread exceeds its bound, a median moved too far, or a digest or utility
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
    )
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    digests = dict(line.split(" = ") for line in lines if "_digest = " in line)
    summary = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in summary["metrics"].items()}, "digests": digests}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    seconds = config["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    lower_is_better = {metric["name"]: metric["better"] == "lower" for metric in config["end_to_end"]}

    seeds = _seeds(args.seeds)
    runs = []
    for seed in seeds:
        runs.append(_run(args.workload, seed, seconds))
        print(f"seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
    values = {name: [run["metrics"][name] for run in runs] for name in bounds}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier["workload"] != args.workload or earlier["seeds"] != seeds:
            raise SystemExit(f"{args.against} holds another workload or seed list")
    ok = True
    print(f"{'metric':<14}{'median':>14}{'iqr/median':>12}{'bound':>8}{'vs earlier':>12}")
    for name, bound in bounds.items():
        median = statistics.median(values[name])
        quartiles = statistics.quantiles(values[name], n=4)
        spread = (quartiles[2] - quartiles[0]) / median
        flag = "" if spread <= bound else "  over bound"
        shift = ""
        if earlier is not None:
            before = statistics.median(earlier["values"][name])
            worse = (median - before) / before * (1 if lower_is_better[name] else -1)
            shift = f"{worse:+.4f}"
            if abs(worse) > bound:
                flag += "  moved from earlier"
        ok = ok and not flag
        print(f"{name:<14}{median:>14.6g}{spread:>12.4f}{bound:>8}{shift:>12}{flag}")
    if earlier is not None and earlier["values"]["utility"] != values["utility"]:
        print("utility differs from the earlier set on the same seeds")
        ok = False
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": seeds, "values": values}, handle)
    for _ in range(args.repeat):
        again = _run(args.workload, seeds[0], seconds)
        same = again["digests"] == runs[0]["digests"] and (
            again["metrics"]["utility"] == runs[0]["metrics"]["utility"]
        )
        print(f"repeat of seed {seeds[0]}: {'identical' if same else 'DIFFERENT'} {again['digests']}")
        print(f"  {json.dumps(again['metrics'])}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
