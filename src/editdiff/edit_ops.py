"""Edit-operation algebra: scripts, script application, and per-step noising.

A caption is edited through per-position operations KEEP / REPLACE / INSERT /
DELETE plus a front sentinel slot that allows insertion before the first
word.  The same algebra drives both directions: the noising sampler draws
operations from a step-dependent rate table and fills content with random
words, while denoising applies model- or oracle-predicted scripts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .vocab import NUM_SPECIALS, Vocabulary, sample_random_word


class EditOp(enum.IntEnum):
    # Order doubles as the tie-breaking order (KEEP strongest preference)
    # and as the class index of the model's edit head.
    KEEP = 0
    REPLACE = 1
    INSERT = 2
    DELETE = 3


class Origin(enum.Enum):
    ORIGINAL = "original"
    RANDOM_WORD = "random_word"


OP_LETTER = {EditOp.KEEP: "K", EditOp.REPLACE: "R", EditOp.INSERT: "I", EditOp.DELETE: "D"}


class EditError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Token:
    id: int
    origin: Origin = Origin.ORIGINAL

    def __post_init__(self):
        if self.id < NUM_SPECIALS:
            raise EditError(f"special token id {self.id} not allowed in a caption")


@dataclass(frozen=True, slots=True)
class CaptionState:
    """A caption at a given diffusion step, with per-token noise origin."""

    tokens: tuple[Token, ...]
    step: int = 0

    def __post_init__(self):
        if self.step < 0:
            raise EditError("step must be >= 0")

    def __len__(self) -> int:
        return len(self.tokens)

    def ids(self) -> list[int]:
        return [t.id for t in self.tokens]

    @classmethod
    def from_ids(cls, ids, step: int = 0, origin: Origin = Origin.ORIGINAL) -> "CaptionState":
        return cls(tuple(Token(int(i), origin) for i in ids), step)


@dataclass(frozen=True, slots=True)
class EditScript:
    """Per-slot (op, content) list; slot 0 is the sentinel before the caption.

    Content words are present exactly for INSERT and REPLACE; the sentinel
    slot only admits KEEP or INSERT.
    """

    slots: tuple[tuple[EditOp, int | None], ...]

    def __post_init__(self):
        if not self.slots:
            raise EditError("script needs at least the sentinel slot")
        if self.slots[0][0] not in (EditOp.KEEP, EditOp.INSERT):
            raise EditError("sentinel slot admits only KEEP or INSERT")
        for i, (op, content) in enumerate(self.slots):
            needs_content = op in (EditOp.INSERT, EditOp.REPLACE)
            if needs_content and content is None:
                raise EditError(f"slot {i}: {op.name} requires a content word")
            if not needs_content and content is not None:
                raise EditError(f"slot {i}: {op.name} must not carry content")

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def caption_len(self) -> int:
        return len(self.slots) - 1

    def render(self, vocab: Vocabulary) -> str:
        parts = []
        for op, content in self.slots:
            if content is None:
                parts.append(OP_LETTER[op])
            else:
                parts.append(f"{OP_LETTER[op]}({vocab.decode(content)})")
        return " ".join(parts)


def all_keep_script(caption_len: int) -> EditScript:
    return EditScript(tuple((EditOp.KEEP, None) for _ in range(caption_len + 1)))


def apply_script(c: CaptionState, s: EditScript, decrement_step: bool,
                 content_origin: Origin = Origin.ORIGINAL) -> CaptionState:
    """Apply a script left-to-right to produce the next caption.

    ``decrement_step`` marks the denoising direction (step goes down, content
    words are real words); noising bookkeeping increments the step instead.
    """
    if len(s) != len(c) + 1:
        raise EditError(f"script length {len(s)} does not fit caption length {len(c)}")
    out: list[Token] = []
    op0, content0 = s.slots[0]
    if op0 is EditOp.INSERT:
        out.append(Token(content0, content_origin))
    for pos, (op, content) in enumerate(s.slots[1:]):
        tok = c.tokens[pos]
        if op is EditOp.KEEP:
            out.append(tok)
        elif op is EditOp.DELETE:
            pass
        elif op is EditOp.REPLACE:
            out.append(Token(content, content_origin))
        else:  # INSERT: keep the host word, add the new word after it
            out.append(tok)
            out.append(Token(content, content_origin))
    step = max(0, c.step - 1) if decrement_step else c.step + 1
    return CaptionState(tuple(out), step)


def survivor_map(s: EditScript) -> dict[int, int]:
    """Map input caption positions that survive the script to output positions.

    A token survives under KEEP and INSERT (the host word is copied); it is
    gone under DELETE and REPLACE.  Needed to track pinned positions across
    denoising steps.
    """
    mapping: dict[int, int] = {}
    emitted = 1 if s.slots[0][0] is EditOp.INSERT else 0
    for pos, (op, _) in enumerate(s.slots[1:]):
        if op is EditOp.KEEP:
            mapping[pos] = emitted
            emitted += 1
        elif op is EditOp.REPLACE:
            emitted += 1
        elif op is EditOp.INSERT:
            mapping[pos] = emitted
            emitted += 2
    return mapping


# bounds of the factor that steers the insert/delete split toward target_len
LEN_GAIN_CLAMP = (0.5, 2.0)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step absorption rate and edit-type weights of the noising chain.

    The replace/delete/insert weights split the step's total absorption
    rate; the remainder is the keep probability.  The insert/delete split is
    additionally biased toward ``target_len`` through a clamped length-gain
    factor so terminal random sequences stay near the target length.

    The default is replace-only: insert/delete noise shifts the positions of
    surviving words, which makes the alignment-derived word targets drift
    across positions and measurably prevents the denoiser from learning the
    condition-to-word binding.  Mixed distributions remain available through
    the weights (see the edit-type ablation).
    """

    T: int = 10
    w_replace: float = 1.0
    w_delete: float = 0.0
    w_insert: float = 0.0
    target_len: int = 10

    def __post_init__(self):
        if self.T < 1:
            raise EditError("schedule needs T >= 1")
        ws = (self.w_replace, self.w_delete, self.w_insert)
        if any(w < 0 for w in ws):
            raise EditError("edit-type weights must be non-negative")
        if sum(ws) <= 0:
            raise EditError("edit-type weights must not all be zero")
        if sum(ws) > 1 + 1e-12:
            raise EditError("edit-type weights must sum to at most 1")
        if self.target_len < 1:
            raise EditError("target_len must be >= 1")


def step_rates(sch: NoiseSchedule, t: int, l: int) -> tuple[float, float, float, float]:
    """Return (replace, delete, insert, keep) rates for noising step ``t`` of
    a caption of length ``l``.

    Total absorption is 1/(T-t+1), which makes the step at which any given
    word is first noised uniform over 1..T and forces full absorption at T.
    Length steering targets the schedule's terminal length.
    """
    if not 1 <= t <= sch.T:
        raise EditError(f"step {t} outside schedule range 1..{sch.T}")
    nu = 1.0 / (sch.T - t + 1)
    lo, hi = LEN_GAIN_CLAMP
    l_eff = max(l, 1)
    gain_ins = min(max(sch.target_len / l_eff, lo), hi)
    gain_del = min(max(l_eff / sch.target_len, lo), hi)
    z = sch.w_replace + sch.w_delete * gain_del + sch.w_insert * gain_ins
    alpha = nu * sch.w_replace / z
    beta = nu * sch.w_delete * gain_del / z
    gamma = nu * sch.w_insert * gain_ins / z
    return alpha, beta, gamma, 1.0 - nu


def sample_noising_step(c: CaptionState, sch: NoiseSchedule, t: int,
                        vocab: Vocabulary, rng: np.random.Generator
                        ) -> tuple[EditScript, CaptionState]:
    """Draw one noising step: a sampled script and the resulting caption.

    Already-noised words are absorbing (always KEEP).  Any non-KEEP draw
    counts its host word as noised, including INSERT, whose host is copied
    but flagged random-word so it is never re-noised; this is what makes the
    survival law exactly 1 - t/T and the step-T state fully random-word.
    """
    if c.step != t - 1:
        raise EditError(f"caption at step {c.step} cannot take noising step {t}")
    alpha, beta, gamma, delta = step_rates(sch, t, len(c))
    out: list[Token] = []
    slots: list[tuple[EditOp, int | None]] = [(EditOp.KEEP, None)]
    for tok in c.tokens:
        if tok.origin is Origin.RANDOM_WORD:
            slots.append((EditOp.KEEP, None))
            out.append(tok)
            continue
        u = rng.random()
        if u < alpha:
            word = sample_random_word(vocab, rng)
            slots.append((EditOp.REPLACE, word))
            out.append(Token(word, Origin.RANDOM_WORD))
        elif u < alpha + beta:
            slots.append((EditOp.DELETE, None))
        elif u < alpha + beta + gamma:
            word = sample_random_word(vocab, rng)
            slots.append((EditOp.INSERT, word))
            out.append(Token(tok.id, Origin.RANDOM_WORD))
            out.append(Token(word, Origin.RANDOM_WORD))
        else:
            slots.append((EditOp.KEEP, None))
            out.append(tok)
    new_state = CaptionState(tuple(out), t)
    return EditScript(tuple(slots)), new_state
