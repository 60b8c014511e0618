"""Train criterion 7's setup at several seeds and report each run.

    python3 tools/seed_sweep.py [--seeds 0,1,2,3,4] [--jobs 2] [--n 2000] [key=value ...]

Each seed s trains as ``editdiff train --seed s`` does, through
``cli.train_once``, on ``make_corpus(WorldSpec(), n, seed=0)``, then scores
``random:<target_len>`` on the test split at eval seed 0 over the
schedule's T steps, as criterion 7 of the acceptance suite does.
``key=value`` sets, for every seed, a setting of ``editdiff train`` other
than ``seed``, typed by its default in ``cli.TRAIN_DEFAULTS`` and checked
as that command checks it: ``lr``, ``epochs``, ``batch``, ``warmup_frac``,
``p_terminal``, ``p_truncate``, ``embed_dim``, ``num_layers``,
``num_heads``, ``ffn_dim``, ``T``, ``w_replace``, ``w_delete``,
``w_insert`` or ``target_len``; any other key is rejected.  ``--jobs``
seeds train at a time, each in its own process with BLAS pinned to one
thread.  One line per seed gives the exact match, the ratio, the last
epoch's holdout exact match, the training seconds, the first epoch whose
mean language loss is below 1.0 and the first epoch whose holdout exact
match reaches 0.9 ("-" where no epoch does).  Every seed's holdout rolls
out the same starts, so that column compares across seeds.
"""

from __future__ import annotations

from editdiff import cli  # first: it pins BLAS to one thread before numpy loads

import argparse
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from editdiff.metrics import evaluate
from editdiff.world import WorldSpec, make_corpus

PASS_EM, PASS_RATIO = 0.90, 0.95  # criterion 7's gate
HOLDOUT_EM_MARK = 0.9


def parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key == "seed" or key not in cli.TRAIN_DEFAULTS:
            raise ValueError(f"{pair!r}: want key=value with key one of "
                             f"{', '.join(k for k in cli.TRAIN_DEFAULTS if k != 'seed')}")
        kind = type(cli.TRAIN_DEFAULTS[key])
        try:
            out[key] = kind(value)
        except ValueError:
            raise ValueError(f"{pair!r}: {value!r} is not of type {kind.__name__}") from None
    return out


def run_seed(seed: int, corpus, cfg: dict) -> dict:
    t0 = time.time()
    model, log, sch = cli.train_once(corpus, {**cfg, "seed": seed}, quiet=True)
    train_s = time.time() - t0
    agg = evaluate(model, corpus, f"random:{sch.target_len}", sch.T, 0)["aggregates"]
    below = [row["epoch"] for row in log if row["loss_language"] < 1.0]
    reached = [row["epoch"] for row in log if row["holdout_em"] >= HOLDOUT_EM_MARK]
    return {"seed": seed, "em": agg["em"], "ratio": agg["ratio"],
            "holdout_em": log[-1]["holdout_em"], "train_s": train_s,
            "first_epoch_lang_below_1": below[0] if below else None,
            "first_epoch_holdout_em": reached[0] if reached else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--jobs", type=int, default=2, help="seeds trained at a time")
    p.add_argument("--n", type=int, default=2000, help="scenes in the corpus")
    p.add_argument("overrides", nargs="*", metavar="key=value")
    args = p.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        overrides = parse_overrides(args.overrides)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        corpus = make_corpus(WorldSpec(), args.n, seed=0)
        cfg = {**cli.TRAIN_DEFAULTS, **overrides}
        cli.train_configs(corpus, cfg)
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    print(f"# recipe: {', '.join(f'{k}={v}' for k, v in overrides.items()) or 'defaults'}",
          flush=True)
    passed = 0
    with ProcessPoolExecutor(max_workers=min(args.jobs, len(seeds)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(run_seed, s, corpus, cfg) for s in seeds]
        for future in futures:
            r = future.result()
            lang, em = ("-" if r[k] is None else r[k]
                        for k in ("first_epoch_lang_below_1", "first_epoch_holdout_em"))
            passed += r["em"] >= PASS_EM and r["ratio"] >= PASS_RATIO
            print(f"seed {r['seed']}  em {r['em']:.3f}  ratio {r['ratio']:.3f}  "
                  f"holdout-em {r['holdout_em']:.3f}  train {r['train_s']:.0f}s  "
                  f"language<1.0 at epoch {lang}  holdout-em>={HOLDOUT_EM_MARK} at epoch {em}",
                  flush=True)
    print(f"# {passed} of {len(seeds)} seeds reach em >= {PASS_EM} and ratio >= {PASS_RATIO}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
