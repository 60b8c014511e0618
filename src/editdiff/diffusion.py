"""Forward noising trajectories and the iterative denoising loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edit_ops import (CaptionState, EditError, EditOp, EditScript, NoiseSchedule,
                       Origin, Token, apply_script, sample_noising_step, survivor_map)
from .vocab import Vocabulary, sample_random_word


def noise_trajectory(x0, sch: NoiseSchedule, vocab: Vocabulary,
                     rng: np.random.Generator) -> list[CaptionState]:
    """Run the forward chain from a clean caption; returns states x_0 .. x_T."""
    x0 = list(x0)
    if not x0:
        raise EditError("cannot noise an empty caption")
    state = CaptionState.from_ids(x0, step=0)
    states = [state]
    for t in range(1, sch.T + 1):
        _, state = sample_noising_step(state, sch, t, vocab, rng)
        states.append(state)
    return states


def sample_denoising_example(x0, sch: NoiseSchedule, vocab: Vocabulary,
                             rng: np.random.Generator,
                             p_terminal: float = 0.5,
                             p_truncate: float = 0.15) -> tuple[CaptionState, int]:
    """Draw a training state from the mixture the reverse process visits.

    Three branches:
    - with probability p_terminal, the canonical generation start: target_len
      random words at t = T, which is the state every rollout begins from;
    - with probability p_truncate, the clean caption missing its last one or
      two words at a mid-range t, which is the state a rollout passes through
      while growing a caption longer than target_len (teaches INSERT);
    - otherwise a noising trajectory stopped at t uniform in 1..T-1.

    Compared to t drawn uniformly over whole-trajectory states, this mixture
    concentrates supervision on the states that generation actually reaches.
    """
    x0 = list(x0)
    if not x0:
        raise EditError("cannot noise an empty caption")
    if p_terminal < 0 or p_truncate < 0 or p_terminal + p_truncate > 1:
        raise EditError("branch probabilities must be non-negative and sum <= 1")
    mid_hi = max(sch.T, 2)  # t range 1..T-1, degenerating to t=1 when T=1
    u = rng.random()
    if u < p_terminal:
        return make_random_sequence(sch.target_len, vocab, rng, step=sch.T), sch.T
    if u < p_terminal + p_truncate:
        k = min(int(rng.integers(1, 3)), len(x0) - 1)
        t = int(rng.integers(1, mid_hi))
        if k > 0:
            return CaptionState.from_ids(x0[:len(x0) - k], step=t), t
        # single-word captions cannot be truncated; fall through to a
        # trajectory at the already-drawn t
    else:
        t = int(rng.integers(1, mid_hi))
    state = CaptionState.from_ids(x0, step=0)
    for s in range(1, t + 1):
        _, state = sample_noising_step(state, sch, s, vocab, rng)
    return state, t


def make_random_sequence(n: int, vocab: Vocabulary, rng: np.random.Generator,
                         step: int = 10) -> CaptionState:
    """All-random-word caption of length n, the generation starting point."""
    if n < 1:
        raise EditError("random sequence length must be >= 1")
    tokens = tuple(Token(sample_random_word(vocab, rng), Origin.RANDOM_WORD)
                   for _ in range(n))
    return CaptionState(tokens, step=step)


def place_pins(c: CaptionState, pins: dict[int, int]) -> CaptionState:
    """Overwrite a starting state's words at the pinned positions.

    Pinned words are flagged random-word like the rest of a generation start.
    """
    tokens = list(c.tokens)
    for pos, word in pins.items():
        if not 0 <= pos < len(tokens):
            raise EditError(f"pin position {pos} out of range for length {len(tokens)}")
        tokens[pos] = Token(word, Origin.RANDOM_WORD)
    return CaptionState(tuple(tokens), c.step)


@dataclass(frozen=True)
class TraceStep:
    t: int
    script: EditScript
    before: CaptionState
    after: CaptionState


def denoise_loop(model, condition, c: CaptionState, steps: int,
                 pinned: dict[int, int] | None = None, mode: str = "soft"
                 ) -> tuple[CaptionState, list[TraceStep]]:
    """Iteratively apply predicted scripts for t = steps .. 1.

    In hard mode, ops at pinned positions are overridden to KEEP before each
    application, and pin positions are remapped through the edit so the
    pinned words survive every step.

    A model returns None from ``predict_script`` when the caption has grown
    past the longest input it reads.  The rollout then stops and returns that
    last state, with a trace shorter than ``steps``; callers score the state
    like any other.
    """
    if steps < 1:
        raise EditError("denoising needs at least one step")
    if mode not in ("soft", "hard"):
        raise EditError(f"unknown pinning mode: {mode}")
    pins = dict(pinned) if pinned else {}
    if mode == "hard":
        for pos in pins:
            if not 0 <= pos < len(c):
                raise EditError(f"pinned position {pos} out of range for length {len(c)}")
    condition = list(condition)
    trace: list[TraceStep] = []
    for t in range(steps, 0, -1):
        script = model.predict_script(condition, c, t)
        if script is None:
            break
        if mode == "hard" and pins:
            slots = list(script.slots)
            for pos in pins:
                slots[pos + 1] = (EditOp.KEEP, None)
            script = EditScript(tuple(slots))
        after = apply_script(c, script, decrement_step=True)
        trace.append(TraceStep(t, script, c, after))
        if mode == "hard" and pins:
            mapping = survivor_map(script)
            pins = {mapping[pos]: word for pos, word in pins.items() if pos in mapping}
        c = after
    return c, trace


def trace_to_jsonl_rows(trace: list[TraceStep], vocab: Vocabulary) -> list[dict]:
    """One dict per denoising step for JSONL trace files."""
    rows = []
    for step in trace:
        rows.append({
            "t": step.t,
            "ops": [op.name for op, _ in step.script.slots],
            "words": [None if w is None else vocab.decode(w) for _, w in step.script.slots],
            "caption_before": vocab.decode_all(step.before.ids()),
            "caption_after": vocab.decode_all(step.after.ids()),
        })
    return rows
