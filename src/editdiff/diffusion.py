"""Forward noising trajectories and the iterative denoising loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edit_ops import (KEEP, PINNED, RANDOM_WORD, CaptionState, EditError, EditScript,
                       NoiseSchedule, Token, apply_script, sample_noising_step)
from .vocab import Vocabulary, sample_random_word


def noising_chain(x0: CaptionState, sch: NoiseSchedule, vocab: Vocabulary,
                  rng: np.random.Generator, steps: int) -> list[tuple[EditScript, CaptionState]]:
    """Run the forward chain from a clean state x_0 for ``steps`` steps;
    returns (script, x_t) for t = 1 .. steps."""
    chain = []
    state = x0
    for t in range(1, steps + 1):
        script, state = sample_noising_step(state, sch, t, vocab, rng)
        chain.append((script, state))
    return chain


def noise_trajectory(x0, sch: NoiseSchedule, vocab: Vocabulary,
                     rng: np.random.Generator) -> list[CaptionState]:
    """Run the forward chain from a clean caption; returns states x_0 .. x_T."""
    x0 = list(x0)
    if not x0:
        raise EditError("cannot noise an empty caption")
    start = CaptionState.from_ids(x0, step=0)
    return [start] + [state for _, state in noising_chain(start, sch, vocab, rng, sch.T)]


# the training-state mixture's branch probabilities, also TrainConfig's defaults
P_TERMINAL = 0.5
P_TRUNCATE = 0.15


def sample_denoising_example(x0, sch: NoiseSchedule, vocab: Vocabulary,
                             rng: np.random.Generator,
                             p_terminal: float = P_TERMINAL,
                             p_truncate: float = P_TRUNCATE) -> tuple[CaptionState, int]:
    """Draw a training state from the mixture the reverse process visits.

    Three branches, whose probabilities default to P_TERMINAL and P_TRUNCATE:
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
    if not (p_terminal >= 0 and p_truncate >= 0 and p_terminal + p_truncate <= 1):  # NaN fails
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
    _, state = noising_chain(CaptionState.from_ids(x0, step=0), sch, vocab, rng, t)[-1]
    return state, t


def make_random_sequence(n: int, vocab: Vocabulary, rng: np.random.Generator,
                         step: int = NoiseSchedule.T) -> CaptionState:
    """All-random-word caption of length n, the generation starting point."""
    if n < 1:
        raise EditError("random sequence length must be >= 1")
    tokens = tuple(Token(sample_random_word(vocab, rng), RANDOM_WORD)
                   for _ in range(n))
    return CaptionState(tokens, step=step)


def place_pins(c: CaptionState, pins: dict[int, int], hold: bool) -> CaptionState:
    """Overwrite a starting state's words at the pinned positions.

    With ``hold``, the placed words are flagged PINNED, and ``denoise_loop``
    keeps them through every step (hard pins).  Without it they are flagged
    random-word like the rest of a generation start, and the model may edit
    them like any other word (soft pins).
    """
    origin = PINNED if hold else RANDOM_WORD
    tokens = list(c.tokens)
    for pos, word in pins.items():
        if not 0 <= pos < len(tokens):
            raise EditError(f"pin position {pos} out of range for length {len(tokens)}")
        tokens[pos] = Token(word, origin)
    return CaptionState(tuple(tokens), c.step)


@dataclass(frozen=True, slots=True)
class TraceStep:
    t: int
    script: EditScript
    before: CaptionState
    after: CaptionState


# rollouts decoded per model call; a larger batch amortises more per-call
# overhead but holds more activations at once.  32 is the largest batch
# measured that keeps the benchmark's eval peak RSS within about 1%
ROLLOUTS_PER_FORWARD = 32


def denoise_loop(model, conditions, starts, steps: int
                 ) -> list[tuple[CaptionState, list[TraceStep]]]:
    """Roll out every start together, applying predicted scripts for
    t = steps .. 1; returns (final state, trace) per start, in order.

    Rollout i denoises ``starts[i]`` under ``conditions[i]``.  The loop
    runs on ``model.for_rollouts()``, made once per call; for a
    ``DenoiserModel`` that is a float32 copy of its parameters, since a step
    reads only the argmaxes of the heads, and a copy made per call cannot
    miss a later parameter update.  Each step hands the live rollouts to
    that model's ``predict_script`` in batches of ``ROLLOUTS_PER_FORWARD``,
    one row per distinct input: rollouts whose conditions and words are
    equal at a step, such as a hard-pinned and a soft twin of one start
    while their words agree, share the script of the first of them.  The
    model reads no origins, and all rollouts share the step ``t``.

    Words tagged ``Origin.PINNED`` (see ``place_pins``) are held: the slot
    of each is overridden to KEEP before a step is applied, which also
    turns an INSERT after it into a KEEP.  ``apply_script`` carries a kept
    token to its new position, so a pinned word survives every step.

    A model returns None for a caption that has grown past the longest
    input it reads.  That rollout then stops and keeps its last state, with
    a trace shorter than ``steps``; callers score the state like any other.
    """
    if steps < 1:
        raise EditError("denoising needs at least one step")
    states = list(starts)
    conditions = [tuple(c) for c in conditions]
    if len(conditions) != len(states):
        raise EditError(f"{len(conditions)} conditions and {len(states)} starts; "
                        f"need one condition per start")
    # KEEP drops no token, so a rollout holds pins for good or never
    pinned = [any(tok.origin is PINNED for tok in c.tokens) for c in states]
    model = model.for_rollouts()
    traces: list[list[TraceStep]] = [[] for _ in states]
    live = list(range(len(states)))
    for t in range(steps, 0, -1):
        # one row per distinct input; the rollouts that repeat it share its script
        keys = [(conditions[i], tuple(states[i].ids())) for i in live]
        first: dict[tuple, int] = {}
        for i, key in zip(live, keys):
            first.setdefault(key, i)
        decoded = list(first.values())
        scripts: dict[int, EditScript | None] = {}
        for lo in range(0, len(decoded), ROLLOUTS_PER_FORWARD):
            batch = decoded[lo:lo + ROLLOUTS_PER_FORWARD]
            scripts.update(zip(batch, model.predict_script(
                [conditions[i] for i in batch], [states[i] for i in batch], t)))
        still_live = []
        for i, key in zip(live, keys):
            script = scripts[first[key]]
            if script is None:
                continue
            if pinned[i]:
                script = EditScript(script.slots[:1] + tuple(
                    (KEEP, None) if tok.origin is PINNED else slot
                    for tok, slot in zip(states[i].tokens, script.slots[1:])))
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
