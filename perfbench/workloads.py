"""The three workloads: inputs from a seed, a timed phase, and checks.

Each workload repeats one fixed round of operations until the run length
is used up.  Every round does the same work on the same inputs, so rounds
differ only in timing; the throughput is the items of a round over the
mean round time.  The program's own set-up is timed in small batches spread
over the run, in the gaps between a round's steps, and reported as the
mean.  On a shared 2-vCPU VM the CPU speed drifts in phases lasting seconds
to minutes, so back-to-back repeats all land in one phase.  The machine's
speed is tracked by the reference loops of ``pace.py``, run in the same
gaps, and both figures are rescaled by it.  Checks run after the timed
phase and never inside a timed interval.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from editdiff import align, autodiff, cli, diffusion, metrics, model, world
from editdiff.edit_ops import CaptionState, NoiseSchedule, Origin, Token

import checks
from pace import Pace
from layout import CHECKPOINT, CHECKPOINT_SHA, CORPUS_N, CORPUS_SEED, OUT

SETUP_BATCH = 2  # set-up repeats per sample point
SETUP_GAP_S = 1.5  # least time between two sample points

# train: editdiff train defaults, two epochs over a 150-scene corpus
# (120 training examples, 15 held-out rollouts per epoch)
TRAIN_CORPUS_N = 150
TRAIN_EPOCHS = 2

# eval: the checkpoint's corpus in three modes; a round takes the first
# EVAL_LIMIT test scenes, and the generation gate is checked on the whole
# test split at GATE_SEEDS starting seeds
EVAL_MODES = ("random:10", "ood:0.5", "control")
EVAL_STEPS = 10
EVAL_LIMIT = 50
GATE_SEEDS = 3

# align: pairs per kind per round
ALIGN_CORPUS_N = 2000
CAPTION_RATIOS = tuple(k / 10 for k in range(11))
PAIRS_PER_RATIO = 60
SMALL_PAIRS = 660
SMALL_ALPHABET = 4
SMALL_MAX_LEN = 5
STATES = 660


class InputError(RuntimeError):
    """A fixed input of the benchmark is missing or does not match."""


@dataclass
class Outcome:
    round_items: int
    kind: str  # the pace loop whose kind of work the rounds do
    setup_times: list[float] = field(default_factory=list)
    round_times: list[float] = field(default_factory=list)
    failed_rounds: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    pace: Pace = field(default_factory=Pace)

    @property
    def raw_setup_s(self) -> float:
        return statistics.fmean(self.setup_times)

    @property
    def setup_s(self) -> float:
        """Set-up time at the nominal speed of the Python pace loop.

        Every set-up builds or parses a corpus in plain Python.
        """
        return self.raw_setup_s * self.pace.speed("python")

    @property
    def attempted(self) -> int:
        return self.round_items * (len(self.round_times) + self.failed_rounds)

    @property
    def failed(self) -> int:
        return self.round_items * self.failed_rounds

    @property
    def raw_items_per_s(self) -> float:
        if not self.round_times:
            return 0.0
        return self.round_items / statistics.fmean(self.round_times)

    @property
    def items_per_s(self) -> float:
        """Throughput at the nominal speed of the workload's pace loop."""
        return self.raw_items_per_s / self.pace.speed(self.kind)


def _traced(tracer):
    return tracer.window() if tracer is not None else nullcontext()


class Setup:
    """The program's set-up, timed in batches at points spread over the run."""

    def __init__(self, fn, tracer):
        self.fn = fn
        self.tracer = tracer
        self.times: list[float] = []
        self.value = self.sample()

    def sample(self):
        for _ in range(SETUP_BATCH):
            gc.collect()
            with _traced(self.tracer):
                t0 = time.perf_counter()
                value = self.fn()
                self.times.append(time.perf_counter() - t0)
        self.last = time.perf_counter()
        return value

    def between_steps(self) -> None:
        if time.perf_counter() - self.last >= SETUP_GAP_S:
            self.sample()


def timed_rounds(seconds: float, setup: Setup, round_items: int, kind: str, steps, tracer,
                 signature=lambda out: out):
    """Run whole rounds of ``steps`` until ``seconds`` have passed.

    Returns the outcome and the first round's outputs, one per step; every
    later round must give the same ``signature`` of its outputs.
    """
    outcome = Outcome(round_items, kind)
    first = None
    timed = 0.0
    start = time.perf_counter()
    while True:
        outs, dt = [], 0.0
        gc.collect()
        try:
            for step in steps:
                setup.between_steps()
                outcome.pace.catch_up(timed + dt)
                with _traced(tracer):
                    t0 = time.perf_counter()
                    outs.append(step())
                    dt += time.perf_counter() - t0
        except (ValueError, RuntimeError):
            traceback.print_exc(file=sys.stderr)
            outcome.failed_rounds += 1
        else:
            timed += dt
            outcome.round_times.append(dt)
            if first is None:
                first, first_sig = outs, signature(outs)
            elif signature(outs) != first_sig:
                outcome.errors.append("rounds of identical work gave different results")
        if time.perf_counter() - start >= seconds:
            break
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome.setup_times = setup.times
    return outcome, first


# -- train -------------------------------------------------------------------

def run_train(seed: int, seconds: float, tracer) -> Outcome:
    spec = world.WorldSpec()
    setup = Setup(lambda: world.make_corpus(spec, TRAIN_CORPUS_N, seed), tracer)
    corpus = setup.value
    cfg = {**cli.TRAIN_DEFAULTS, "epochs": TRAIN_EPOCHS, "seed": seed}
    outcome, first = timed_rounds(
        seconds, setup, TRAIN_EPOCHS * len(corpus.train), "numpy",
        [lambda: cli.train_once(corpus, cfg, quiet=True)], tracer,
        signature=lambda outs: [{k: v for k, v in row.items() if k != "elapsed_s"}
                                for row in outs[0][1]])
    if first is not None:
        trained, log, sch = first[0]
        outcome.errors += checks.check_losses(log)
        outcome.errors += _gradient_check(trained, corpus, sch, seed)
    return outcome


def _gradient_check(net, corpus, sch, seed: int, n_coords: int = 8) -> list[str]:
    rng = np.random.default_rng(seed)
    ex = corpus.train[int(rng.integers(len(corpus.train)))]
    x_t, t = diffusion.sample_denoising_example(ex.caption, sch, corpus.vocab, rng)
    gt = align.align(x_t, ex.caption)

    def loss():
        return model.model_loss(*net.forward(ex.condition, x_t.ids(), t), gt)[0]

    params = net.param_list()
    autodiff.zero_grads(params)
    autodiff.backward(loss())
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    autodiff.zero_grads(params)
    live = [k for k, g in enumerate(grads) if np.any(g)]
    coords = []
    for _ in range(n_coords):
        k = live[int(rng.integers(len(live)))]
        nonzero = np.flatnonzero(grads[k])
        coords.append((k, int(nonzero[int(rng.integers(len(nonzero)))])))
    return checks.check_gradient(lambda: float(loss().data),
                                 [p.data for p in params], grads, coords)


# -- eval --------------------------------------------------------------------

def _verify_checkpoint() -> None:
    if not CHECKPOINT.is_file() or not CHECKPOINT_SHA.is_file():
        raise InputError(f"fixed checkpoint missing: {CHECKPOINT}")
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA.read_text(encoding="utf-8").strip():
        raise InputError(f"{CHECKPOINT} does not match its recorded sha256")


def run_eval(seed: int, seconds: float, tracer) -> Outcome:
    _verify_checkpoint()
    corpus_dir = OUT / f"eval-corpus-{os.getpid()}"
    world.save_corpus(world.make_corpus(world.WorldSpec(), CORPUS_N, CORPUS_SEED), corpus_dir)
    try:
        return _eval(corpus_dir, seed, seconds, tracer)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)


def _eval(corpus_dir, seed: int, seconds: float, tracer) -> Outcome:
    setup = Setup(lambda: (world.load_corpus(corpus_dir), *model.load_checkpoint(CHECKPOINT)),
                  tracer)
    corpus, net, meta = setup.value
    if meta.get("corpus_hash") != corpus.content_hash():
        raise InputError("checkpoint was trained on another corpus")
    test = corpus.split("test")

    def evaluate(mode, mode_seed=seed, limit=EVAL_LIMIT):
        return metrics.evaluate(net, corpus, mode, EVAL_STEPS, mode_seed, split="test",
                                limit=limit)

    outcome, reports = timed_rounds(
        seconds, setup, EVAL_LIMIT * sum(2 if m == "control" else 1 for m in EVAL_MODES), "numpy",
        [lambda m=mode: evaluate(m) for mode in EVAL_MODES], tracer)
    if reports is None:
        return outcome
    # EM over one seed's 200 test scenes moves by 0.91-0.935 with the seed,
    # so the generation gate pools several starting seeds
    generations = [evaluate("random:10", seed + 10_000 * k, limit=None)
                   for k in range(GATE_SEEDS)]
    captions = {ex.scene_id: list(ex.caption) for ex in test}
    valid = {i for i, w in enumerate(corpus.vocab.tokens)
             if not (w.startswith("[") and w.endswith("]"))}
    for report in reports + generations:
        outcome.errors += checks.check_report(report, captions, valid)
    aggregates = {rep["mode"]: rep["aggregates"] for rep in reports}
    aggregates["random:10"] = {key: statistics.mean(rep["aggregates"][key]
                                                    for rep in generations)
                               for key in ("em", "ratio")}
    outcome.errors += checks.check_properties(aggregates)
    return outcome


# -- align -------------------------------------------------------------------

def _corrupt(x0, keep_ratio: float, n_words: int, rng) -> list[int]:
    """Replace round(n * (1 - keep_ratio)) words by different random words."""
    out = list(x0)
    j = int(round(len(out) * (1 - keep_ratio)))
    for pos in rng.choice(len(out), size=j, replace=False):
        word = out[pos]
        while word == out[pos]:
            word = int(rng.integers(2, n_words))
        out[pos] = word
    return out


def align_inputs(corpus, seed: int):
    """Caption pairs at keep ratios 0..1, small-alphabet pairs, noisy states."""
    rng = np.random.default_rng(seed)
    captions = [list(ex.caption) for ex in corpus.train]
    n_words = corpus.vocab.size

    def caption():
        return captions[int(rng.integers(len(captions)))]

    caption_pairs = []
    for r in CAPTION_RATIOS:
        for _ in range(PAIRS_PER_RATIO):
            x0 = caption()
            caption_pairs.append((_corrupt(x0, r, n_words, rng), x0))
    small_pairs = [tuple([int(s) for s in rng.integers(0, SMALL_ALPHABET,
                                                         rng.integers(0, SMALL_MAX_LEN + 1))]
                         for _ in range(2))
                   for _ in range(SMALL_PAIRS)]
    sch = NoiseSchedule()
    states = []
    for _ in range(STATES):
        x0 = caption()
        x_t, _ = diffusion.sample_denoising_example(x0, sch, corpus.vocab, rng)
        states.append((x_t, x0))
    return caption_pairs, small_pairs, states


def _realign(x0):
    def realign(tokens):
        state = CaptionState(tuple(Token(i, Origin.ORIGINAL if orig else Origin.RANDOM_WORD)
                                   for i, orig in tokens))
        return align.align(state, x0).slots
    return realign


def run_align(seed: int, seconds: float, tracer) -> Outcome:
    setup = Setup(lambda: world.make_corpus(world.WorldSpec(), ALIGN_CORPUS_N, seed), tracer)
    caption_pairs, small_pairs, states = align_inputs(setup.value, seed)
    steps = [lambda: [align.lev_ratio(a, b) for a, b in caption_pairs],
             lambda: [align.weighted_ldist(a, b) for a, b in small_pairs],
             lambda: [align.align(x_t, x0) for x_t, x0 in states]]
    outcome, first = timed_rounds(
        seconds, setup, len(caption_pairs) + len(small_pairs) + len(states), "python", steps,
        tracer)
    if first is not None:
        ratios, dists, scripts = first
        outcome.errors += checks.check_ratios(caption_pairs, ratios)
        outcome.errors += checks.check_distances(small_pairs, dists)
        for (x_t, x0), script in zip(states, scripts):
            tokens = [(tok.id, tok.origin is Origin.ORIGINAL) for tok in x_t.tokens]
            outcome.errors += checks.check_descent(tokens, x0, script.slots, _realign(x0))
    return outcome


WORKLOADS = {"train": run_train, "eval": run_eval, "align": run_align}
