"""Train the fixed checkpoint that the ``eval`` workload rolls out.

Runs ``editdiff train`` at its defaults on the 2000-scene seed-0 corpus
and records the checkpoint's sha256 beside it.  About 5-7 minutes on one
core.  Usage, from the repository root::

    python3 perfbench/make_checkpoint.py
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import hashlib  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from editdiff.cli import main  # noqa: E402

from layout import CHECKPOINT, CHECKPOINT_SHA, CORPUS_N, CORPUS_SEED, OUT  # noqa: E402


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run() -> int:
    # relative paths keep the recorded training config free of machine paths
    os.chdir(bootstrap.ROOT)
    corpus_dir = (OUT / "checkpoint-corpus").relative_to(bootstrap.ROOT)
    shutil.rmtree(corpus_dir, ignore_errors=True)
    code = main(["synth", "--n", str(CORPUS_N), "--seed", str(CORPUS_SEED),
                 "--out", str(corpus_dir)])
    if code == 0:
        code = main(["train", "--corpus", str(corpus_dir),
                     "--out", str(CHECKPOINT.relative_to(bootstrap.ROOT))])
    shutil.rmtree(corpus_dir, ignore_errors=True)
    if code != 0:
        return code
    digest = sha256_of(CHECKPOINT)
    CHECKPOINT_SHA.write_text(digest + "\n", encoding="utf-8")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
