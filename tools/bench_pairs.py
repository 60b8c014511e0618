"""Benchmark two checkouts in alternating pairs and write one BENCH record.

    python3 tools/bench_pairs.py --base DIR --change DIR --out BENCH_name.json [--seed 811]

For every workload of the change's ``BENCHMARK.json``, each of ten pairs
runs ``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` once
in each checkout, one after the other, with the side that goes first
alternating from pair to pair.  The result file that each run writes under
its checkout's ``perfbench/out/`` is read back.  The record holds, per
workload and side, the median and quartiles of every end-to-end metric of
``BENCHMARK.json``, of the raw (unscaled) throughput, of the speed of each
pace loop and of the run process's minor page faults and user and system
CPU seconds, the number of pairs the change won on each metric, whether
every run was correct, and the machine, numpy version and revision of each
side.  Each pair prints its scaled and raw items/s.  A checkout that is not
the root of a git work tree is named by ``sha256:`` and a digest of the
paths and bytes of its ``src/`` and ``perfbench/`` files, leaving out
caches, build metadata and ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def source_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((checkout / top).rglob("*")):
            rel = path.relative_to(checkout)
            if (not path.is_file() or rel.parts[:2] == ("perfbench", "out")
                    or any(p == "__pycache__" or p.endswith(".egg-info") for p in rel.parts)):
                continue
            data = path.read_bytes()
            h.update(f"{rel.as_posix()}\0{len(data)}\0".encode("utf-8"))
            h.update(data)
    return h.hexdigest()


def revision(checkout: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        top, rev = git("rev-parse", "--show-toplevel", "HEAD").splitlines()
        dirty = git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        top = None
    # a checkout inside another repository's work tree is not that revision
    if top is None or Path(top).resolve() != checkout:
        return "sha256:" + source_digest(checkout)
    return rev + ("+dirty" if dirty else "")


def run_child(argv: list[str], cwd: Path) -> dict[str, float]:
    """Run a command to its end; returns its own resource use, from
    ``os.wait4``: minor page faults and user and system CPU seconds."""
    child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    # reaped here, so the Popen object must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv)
    return {"minor_faults": usage.ru_minflt, "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    usage = run_child([sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                      checkout)
    path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return {**json.loads(path.read_text(encoding="utf-8")), "rusage": usage}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {m["name"]: quartiles([r["result"]["metrics"][m["name"]]["value"] for r in runs])
           for m in metrics}
    out["raw_items_per_s"] = quartiles([r["raw_items_per_s"] for r in runs])
    out["raw_setup_s"] = quartiles([r["raw_setup_s"] for r in runs])
    # scaled figures divide by these, so a change in them moves scaled and
    # raw figures apart
    out["pace_speed"] = {kind: quartiles([r["pace_speed"][kind] for r in runs])
                         for kind in runs[0]["pace_speed"]}
    out["rusage"] = {kind: quartiles([r["rusage"][kind] for r in runs])
                     for kind in runs[0]["rusage"]}
    out["all_correct"] = all(r["result"]["correct"] and not r["result"]["failed"] for r in runs)
    return out


def pairs_won(base: list[dict], change: list[dict], metrics: list[dict]) -> dict[str, int]:
    def value(run, name):
        return run[name] if name.startswith("raw_") else run["result"]["metrics"][name]["value"]

    better = {m["name"]: m["better"] for m in metrics}
    better.update(raw_items_per_s="higher", raw_setup_s="lower")
    won = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        won[name] = sum(sign * (value(c, name) - value(b, name)) > 0
                        for b, c in zip(base, change))
    return won


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=811)
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    record = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS,
              "order": "alternating, base first in odd pairs",
              "revision": {side: revision(path) for side, path in sides.items()},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "change": []}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], workload, args.seed, seconds))
            print(f"{workload} pair {pair + 1}/{PAIRS}: " + ", ".join(
                f"{side} {runs[side][-1]['result']['metrics']['items_per_s']['value']:.1f}"
                f" (raw {runs[side][-1]['raw_items_per_s']:.1f})"
                for side in ("base", "change")), flush=True)
        record["machine"] = {side: runs[side][-1]["machine"] for side in runs}
        record["workloads"][workload] = {
            **{side: summary(runs[side], metrics) for side in runs},
            "pairs_won_by_change": pairs_won(runs["base"], runs["change"], metrics),
            "runs": {side: [{"metrics": {name: v["value"]
                                         for name, v in r["result"]["metrics"].items()},
                             "raw_items_per_s": r["raw_items_per_s"],
                             "raw_setup_s": r["raw_setup_s"],
                             "pace_speed": r["pace_speed"],
                             "rusage": r["rusage"]} for r in runs[side]]
                     for side in runs},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
