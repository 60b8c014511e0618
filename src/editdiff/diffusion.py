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


@dataclass(frozen=True, slots=True)
class TraceStep:
    t: int
    script: EditScript
    before: CaptionState
    after: CaptionState


# rollouts decoded per model call; a larger batch amortises more per-call
# overhead but holds more activations at once
ROLLOUTS_PER_FORWARD = 8


def denoise_loop(model, conditions, starts, steps: int, pins=None
                 ) -> list[tuple[CaptionState, list[TraceStep]]]:
    """Roll out every start together, applying predicted scripts for
    t = steps .. 1; returns (final state, trace) per start, in order.

    Rollout i denoises ``starts[i]`` under ``conditions[i]``.  Each step
    hands the live rollouts to ``model.predict_script`` in batches of
    ``ROLLOUTS_PER_FORWARD``.  ``pins[i]``, when given and non-empty, pins
    words hard: ops at pinned positions are overridden to KEEP before each
    application, and pin positions are remapped through the edit so the
    pinned words survive every step.

    A model returns None for a caption that has grown past the longest
    input it reads.  That rollout then stops and keeps its last state, with
    a trace shorter than ``steps``; callers score the state like any other.
    """
    if steps < 1:
        raise EditError("denoising needs at least one step")
    states = list(starts)
    conditions = [list(c) for c in conditions]
    pins = [dict(p) if p else {} for p in (pins or [None] * len(states))]
    if not len(conditions) == len(states) == len(pins):
        raise EditError(f"{len(conditions)} conditions, {len(states)} starts and "
                        f"{len(pins)} pin maps; need one of each per rollout")
    for c, row_pins in zip(states, pins):
        for pos in row_pins:
            if not 0 <= pos < len(c):
                raise EditError(f"pinned position {pos} out of range for length {len(c)}")
    traces: list[list[TraceStep]] = [[] for _ in states]
    live = list(range(len(states)))
    for t in range(steps, 0, -1):
        still_live = []
        for lo in range(0, len(live), ROLLOUTS_PER_FORWARD):
            batch = live[lo:lo + ROLLOUTS_PER_FORWARD]
            scripts = model.predict_script([conditions[i] for i in batch],
                                           [states[i] for i in batch], t)
            for i, script in zip(batch, scripts):
                if script is None:
                    continue
                if pins[i]:
                    slots = list(script.slots)
                    for pos in pins[i]:
                        slots[pos + 1] = (EditOp.KEEP, None)
                    script = EditScript(tuple(slots))
                    mapping = survivor_map(script)
                    pins[i] = {mapping[pos]: word for pos, word in pins[i].items()
                               if pos in mapping}
                after = apply_script(states[i], script, decrement_step=True)
                traces[i].append(TraceStep(t, script, states[i], after))
                states[i] = after
                still_live.append(i)
        live = still_live
    return list(zip(states, traces))


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
