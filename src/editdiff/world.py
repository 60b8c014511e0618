"""Deterministic synthetic conditioning world: scenes, captions, corpora.

A scene is 1-3 facts, each an (entity, attribute, relation) triple over
fixed inventories.  Rendering a caption from facts is a pure function, so a
scene's condition tokens fully determine its canonical caption; this stands
in for image-caption data at desk scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .align import weighted_ldist
from .vocab import NUM_SPECIALS, PAD, START, Vocabulary, build_vocab, sample_random_word

ENTITIES = (
    "cat", "dog", "bird", "fox", "wolf", "bear", "deer", "owl", "duck",
    "swan", "frog", "toad", "mouse", "horse", "sheep", "goat", "cow", "pig",
    "hen", "crow", "hawk", "mole", "hare", "otter", "seal", "crab", "fish",
    "whale", "shark", "snail", "wasp", "bee", "ant", "moth", "spider",
    "lizard", "snake", "turtle", "camel", "llama", "panda", "koala",
    "zebra", "bison", "moose",
)
ATTRIBUTES = (
    "red", "blue", "green", "yellow", "black", "white", "brown", "grey",
    "orange", "purple", "pink", "golden", "silver", "tiny", "small",
    "large", "huge", "young", "old", "quiet", "loud", "swift", "slow",
    "bright", "dark", "fluffy", "sleek", "spotted", "striped", "shy",
    "bold", "calm", "wild", "tame", "proud",
)
RELATIONS = (
    "bench", "river", "lake", "pond", "tree", "bush", "rock", "cliff",
    "cave", "hill", "field", "barn", "fence", "gate", "bridge", "road",
    "path", "trail", "shore", "dune", "marsh", "meadow", "garden", "porch",
    "shed", "wall", "tower", "well", "dock", "harbor",
)
GLUE = ("the", "sits", "near", "and")

Facts = tuple[tuple[int, int, int], ...]  # (entity, attribute, relation) indices


SPLITS = ("train", "val", "test")


class WorldError(ValueError):
    pass


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 raises
    ``WorldError`` with a message that starts with its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise WorldError(f"{path}: {e}") from None


def parse_json(text: str, path: str | Path, first_line: int = 1):
    """The JSON value of ``text``, read from line ``first_line`` of ``path``
    on; a syntax error raises ``WorldError`` naming the path, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise WorldError(f"{path}: {e.msg} at line {first_line + e.lineno - 1} "
                         f"column {e.colno}") from None


@dataclass(frozen=True)
class WorldSpec:
    entities: tuple[str, ...] = ENTITIES
    attributes: tuple[str, ...] = ATTRIBUTES
    relations: tuple[str, ...] = RELATIONS

    @property
    def cond_vocab_size(self) -> int:
        return len(self.entities) + len(self.attributes) + len(self.relations)


def build_world_vocab(spec: WorldSpec) -> Vocabulary:
    return build_vocab(spec.entities + spec.attributes + spec.relations + GLUE)


def generate_scene(spec: WorldSpec, rng: np.random.Generator) -> Facts:
    """A scene's 1-3 facts, drawn uniformly."""
    n_facts = int(rng.integers(1, 4))
    return tuple(
        (int(rng.integers(len(spec.entities))),
         int(rng.integers(len(spec.attributes))),
         int(rng.integers(len(spec.relations))))
        for _ in range(n_facts)
    )


def render_caption_words(spec: WorldSpec, facts: Facts) -> list[str]:
    """Render the canonical caption of 7, 9 or 12 words; pure in the facts."""
    phrases = [
        (spec.attributes[a], spec.entities[e], spec.relations[r])
        for e, a, r in facts
    ]
    if len(phrases) == 1:
        a, e, r = phrases[0]
        return ["the", a, e, "sits", "near", "the", r]
    if len(phrases) == 2:
        (a1, e1, r1), (a2, e2, r2) = phrases
        return [a1, e1, "near", r1, "and", a2, e2, "near", r2]
    words: list[str] = []
    for a, e, r in phrases:
        words.extend([a, e, "near", r])
    return words


def render_caption(spec: WorldSpec, facts: Facts, vocab: Vocabulary) -> list[int]:
    return vocab.encode_all(render_caption_words(spec, facts))


def condition_tokens(spec: WorldSpec, facts: Facts) -> list[int]:
    """Flat fact encoding over a separate condition-token space."""
    ne, na = len(spec.entities), len(spec.attributes)
    out: list[int] = []
    for e, a, r in facts:
        out.extend([e, ne + a, ne + na + r])
    return out


@dataclass(frozen=True)
class Example:
    scene_id: int
    facts: Facts
    condition: tuple[int, ...]
    caption: tuple[int, ...]


@dataclass
class Corpus:
    spec: WorldSpec
    vocab: Vocabulary
    seed: int
    train: list[Example] = field(default_factory=list)
    val: list[Example] = field(default_factory=list)
    test: list[Example] = field(default_factory=list)

    def split(self, name: str) -> list[Example]:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise WorldError(f"unknown split: {name}") from None

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for split in SPLITS:
            for ex in self.split(split):
                h.update(_example_line(ex).encode("utf-8"))
                h.update(b"\n")
        return h.hexdigest()


def make_corpus(spec: WorldSpec, n: int, seed: int) -> Corpus:
    """Generate n unique scenes and split them 80/10/10."""
    if n < 3:
        raise WorldError("corpus needs at least 3 scenes")
    rng = np.random.default_rng(seed)
    vocab = build_world_vocab(spec)
    seen: set[tuple] = set()
    examples: list[Example] = []
    attempts = 0
    while len(examples) < n:
        attempts += 1
        if attempts > 100 * n:
            raise WorldError(f"could not generate {n} unique scenes")
        facts = generate_scene(spec, rng)
        if facts in seen:
            continue
        seen.add(facts)
        examples.append(Example(
            len(examples), facts,
            tuple(condition_tokens(spec, facts)),
            tuple(render_caption(spec, facts, vocab)),
        ))
    n_train = int(0.8 * n)
    n_val = int(0.9 * n) - n_train
    corpus = Corpus(spec, vocab, seed,
                    train=examples[:n_train],
                    val=examples[n_train:n_train + n_val],
                    test=examples[n_train + n_val:])
    return corpus


def _example_line(ex: Example) -> str:
    return json.dumps({
        "scene_id": ex.scene_id,
        "facts": [list(f) for f in ex.facts],
        "condition": list(ex.condition),
        "caption": list(ex.caption),
    }, separators=(",", ":"))


def save_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        with open(out_dir / f"{split}.jsonl", "w", encoding="utf-8") as f:
            for ex in corpus.split(split):
                f.write(_example_line(ex) + "\n")
    corpus.vocab.save(out_dir / "vocab.txt")
    meta = {
        "seed": corpus.seed,
        "hash": corpus.content_hash(),
        "entities": list(corpus.spec.entities),
        "attributes": list(corpus.spec.attributes),
        "relations": list(corpus.spec.relations),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def spec_inventories(obj, source: str) -> dict[str, tuple[str, ...]]:
    """The entity, attribute and relation lists of a parsed JSON object, as
    ``WorldSpec`` fields; anything but an object holding three non-empty
    lists of distinct words raises ``WorldError``.  A special token is not a
    word: a caption holding one could never be trained on.  Nor is an empty
    string or one holding a line break: ``vocab.txt`` has one word a line."""
    if not isinstance(obj, dict):
        raise WorldError(f"{source} must hold a JSON object, not {type(obj).__name__}")
    fields = {}
    for name in ("entities", "attributes", "relations"):
        words = obj.get(name)
        if (not isinstance(words, list) or not words
                or not all(isinstance(w, str) and w.splitlines() == [w]
                           and w not in (START, PAD) for w in words)
                or len(set(words)) != len(words)):
            raise WorldError(f"{source}: {name!r} must be a non-empty list of distinct words")
        fields[name] = tuple(words)
    return fields


def load_spec(path: str | Path) -> WorldSpec:
    """A ``WorldSpec`` with the inventories of a JSON spec file."""
    obj = parse_json(read_utf8(path), path)
    return WorldSpec(**spec_inventories(obj, str(path)))


def load_corpus(in_dir: str | Path) -> Corpus:
    """Read a corpus written by ``save_corpus``; a file that lacks a field or
    holds the wrong kind of JSON value or an empty caption, a vocabulary that
    is not the one the spec builds, or an id outside it raises ``WorldError``."""
    in_dir = Path(in_dir)
    meta = parse_json(read_utf8(in_dir / "meta.json"), in_dir / "meta.json")
    try:
        spec = WorldSpec(**spec_inventories(meta, "meta.json"))
        seed, recorded_hash = meta["seed"], meta["hash"]
    except (KeyError, TypeError) as e:
        raise WorldError(f"meta.json needs the spec's fields and the hash: "
                         f"{type(e).__name__} {e}") from None
    vocab = build_world_vocab(spec)
    if read_utf8(in_dir / "vocab.txt").splitlines() != list(vocab.tokens):
        raise WorldError("vocab.txt is not the vocabulary of the corpus's spec")
    corpus = Corpus(spec, vocab, seed)
    # the distinct ids, checked once at the end: a set per row costs less
    # than a comparison per id
    caption_ids: set = set()
    condition_ids: set = set()
    for split in SPLITS:
        path = in_dir / f"{split}.jsonl"
        for line, row in enumerate(read_utf8(path).splitlines(), 1):
            obj = parse_json(row, path, line)
            try:
                example = Example(
                    obj["scene_id"],
                    tuple(tuple(f) for f in obj["facts"]),
                    tuple(obj["condition"]),
                    tuple(obj["caption"]),
                )
                caption_ids.update(example.caption)
                condition_ids.update(example.condition)
            except (KeyError, TypeError) as e:
                raise WorldError(f"{split}.jsonl line {line}: need an object with scene_id, "
                                 f"facts, condition and caption: {type(e).__name__} {e}"
                                 ) from None
            if not example.caption:
                raise WorldError(f"{split}.jsonl line {line}: empty caption")
            corpus.split(split).append(example)
    _check_ids("caption", caption_ids, NUM_SPECIALS, vocab.size)
    _check_ids("condition", condition_ids, 0, spec.cond_vocab_size)
    if corpus.content_hash() != recorded_hash:
        raise WorldError("corpus files do not match recorded hash")
    return corpus


def _check_ids(kind: str, ids: set, lo: int, hi: int) -> None:
    for i in ids:
        if type(i) is not int or not lo <= i < hi:
            raise WorldError(f"{kind} id {i!r} is not an integer in [{lo}, {hi})")


# draws of replacement words corrupt_to_ratio makes before it keeps its best
CORRUPT_ATTEMPTS = 25


def corrupt_to_ratio(x0, target_ratio: float, vocab: Vocabulary,
                     rng: np.random.Generator) -> list[int]:
    """Replace words so the similarity ratio to x0 lands as close to target as possible.

    Replacing j of n words yields ratio 1 - j/n and weighted distance 2j, so
    j is chosen in closed form; a draw that shortens the distance is redrawn.
    """
    x0 = list(x0)
    if not 0 <= target_ratio <= 1:
        raise WorldError("target ratio must be in [0, 1]")
    if not x0:
        raise WorldError("cannot corrupt an empty caption")
    n = len(x0)
    j = int(round(n * (1 - target_ratio)))
    if j == 0:
        return list(x0)
    best, best_dist = None, -1
    for _ in range(CORRUPT_ATTEMPTS):
        out = list(x0)
        positions = rng.choice(n, size=j, replace=False)
        for pos in positions:
            word = sample_random_word(vocab, rng)
            while word == x0[pos]:
                word = sample_random_word(vocab, rng)
            out[pos] = word
        dist = weighted_ldist(out, x0)
        if dist > best_dist:
            best, best_dist = out, dist
        if dist == 2 * j:
            break
    return best
