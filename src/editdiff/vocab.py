"""Word-level vocabulary with special tokens and uniform random-word sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

START = "[START]"
PAD = "[PAD]"
START_ID = 0
PAD_ID = 1
NUM_SPECIALS = 2


class VocabularyError(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token table.  Ids are dense 0..K-1 with START=0, PAD=1.

    Non-special ids are assigned in sorted lexicographic order, so
    construction is deterministic for any input ordering.
    """

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tokens) < NUM_SPECIALS or self.tokens[0] != START or self.tokens[1] != PAD:
            raise VocabularyError("vocabulary must start with START, PAD")
        ids = {w: i for i, w in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise VocabularyError("duplicate tokens")
        object.__setattr__(self, "_ids", ids)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            raise VocabularyError(f"unknown word: {word!r}") from None

    def encode_all(self, words: list[str]) -> list[int]:
        try:
            return [self._ids[w] for w in words]
        except KeyError as e:
            raise VocabularyError(f"unknown word: {e.args[0]!r}") from None

    def decode(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise VocabularyError(f"token id out of range: {token_id}")
        return self.tokens[token_id]

    def decode_all(self, ids) -> list[str]:
        return [self.decode(int(i)) for i in ids]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(tuple(lines))


def build_vocab(surface_strings) -> Vocabulary:
    """Build a vocabulary from raw words; duplicates collapse, order ignored."""
    words = sorted(set(surface_strings) - {START, PAD})
    if not words:
        raise VocabularyError("empty vocabulary")
    return Vocabulary((START, PAD, *words))


def sample_random_word(vocab: Vocabulary, rng: np.random.Generator) -> int:
    """Uniform draw over non-special ids (the absorbing-state word source)."""
    if vocab.size <= NUM_SPECIALS:
        raise VocabularyError("vocabulary has no non-special tokens to sample")
    return int(rng.integers(NUM_SPECIALS, vocab.size))
