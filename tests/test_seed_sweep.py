import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--seeds", "3", "--jobs", "1", "--n", "60", "epochs=1", "embed_dim=16",
        "num_layers=1", "num_heads=2", "ffn_dim=32"]


def sweep(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "tools" / "seed_sweep.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_seed_sweep_trains_and_reports_each_seed():
    recipe = "epochs=1, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32"
    mixed = ["w_replace=0.5", "w_delete=0.25", "w_insert=0.25"]
    for extra, line in (([], recipe), (mixed, recipe + ", " + ", ".join(mixed))):
        run = sweep(*TINY, *extra)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[0] == "# recipe: " + line
        assert re.fullmatch(r"seed 3  em \d\.\d{3}  ratio \d\.\d{3}  holdout-em \d\.\d{3}  "
                            r"train \d+s  language<1\.0 at epoch (\d+|-)  "
                            r"holdout-em>=0\.9 at epoch (\d+|-)", lines[1])
        assert re.fullmatch(r"# [01] of 1 seeds reach em >= 0\.9 and ratio >= 0\.95", lines[2])


def test_seed_sweep_rejects_an_override_that_is_not_a_setting():
    for bad in ("seed=1", "warmup=3", "lr", "epochs=two", "batch=0", "num_heads=3", "w_delete=2"):
        run = sweep("--seeds", "0", bad)
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("usage error:")
