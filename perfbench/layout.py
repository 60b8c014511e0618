"""Where the benchmark keeps its fixed inputs and writes its outputs."""

from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
OUT = HERE / "out"  # results, traces and generated corpora; ignored by git

# the fixed checkpoint and the corpus it was trained on
CHECKPOINT = DATA / "model.ckpt"
CHECKPOINT_SHA = DATA / "model.ckpt.sha256"
CORPUS_N = 2000
CORPUS_SEED = 0
