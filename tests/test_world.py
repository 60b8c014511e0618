import json

import numpy as np
import pytest

from editdiff.align import weighted_ldist
from editdiff.vocab import NUM_SPECIALS
from editdiff.world import (
    GLUE,
    Corpus,
    WorldError,
    WorldSpec,
    build_world_vocab,
    condition_tokens,
    corrupt_to_ratio,
    generate_scene,
    load_corpus,
    make_corpus,
    render_caption,
    render_caption_words,
    save_corpus,
)

SPEC = WorldSpec()


def test_inventory_sizes_give_expected_vocab():
    vocab = build_world_vocab(SPEC)
    words = len(SPEC.entities) + len(SPEC.attributes) + len(SPEC.relations) + len(GLUE)
    assert vocab.size == words + NUM_SPECIALS
    assert 110 <= vocab.size <= 130  # "vocab ~= 120 words"
    assert SPEC.cond_vocab_size == len(SPEC.entities) + len(SPEC.attributes) + len(SPEC.relations)


def test_render_templates_by_fact_count():
    one = render_caption_words(SPEC, ((1, 2, 3),))
    assert len(one) == 7
    assert one == ["the", SPEC.attributes[2], SPEC.entities[1], "sits", "near",
                   "the", SPEC.relations[3]]
    two = render_caption_words(SPEC, ((1, 2, 3), (4, 5, 6)))
    assert len(two) == 9
    assert two[4] == "and"
    three = render_caption_words(SPEC, ((1, 2, 3), (4, 5, 6), (7, 8, 9)))
    assert len(three) == 12
    assert three.count("near") == 3


def test_render_is_deterministic_and_in_bounds():
    # a generated scene holds 1-3 facts and renders to 7, 9 or 12 words
    vocab = build_world_vocab(SPEC)
    rng = np.random.default_rng(5)
    for _ in range(50):
        facts = generate_scene(SPEC, rng)
        a = render_caption(SPEC, facts, vocab)
        assert a == render_caption(SPEC, facts, vocab)
        assert len(a) == {1: 7, 2: 9, 3: 12}[len(facts)]


def test_condition_tokens_use_disjoint_ranges():
    toks = condition_tokens(SPEC, ((4, 7, 2), (44, 34, 29)))
    ne, na = len(SPEC.entities), len(SPEC.attributes)
    assert toks == [4, ne + 7, ne + na + 2, 44, ne + 34, ne + na + 29]
    assert max(toks) < SPEC.cond_vocab_size


def test_condition_fully_determines_caption():
    vocab = build_world_vocab(SPEC)
    rng = np.random.default_rng(0)
    seen: dict[tuple, tuple] = {}
    for _ in range(200):
        facts = generate_scene(SPEC, rng)
        cond = tuple(condition_tokens(SPEC, facts))
        cap = tuple(render_caption(SPEC, facts, vocab))
        assert seen.setdefault(cond, cap) == cap


def test_make_corpus_split_sizes_and_uniqueness():
    corpus = make_corpus(SPEC, 50, seed=3)
    assert (len(corpus.train), len(corpus.val), len(corpus.test)) == (40, 5, 5)
    facts = [ex.facts for split in ("train", "val", "test")
             for ex in corpus.split(split)]
    assert len(set(facts)) == len(facts)


def test_make_corpus_deterministic_per_seed():
    a = make_corpus(SPEC, 30, seed=9)
    b = make_corpus(SPEC, 30, seed=9)
    c = make_corpus(SPEC, 30, seed=10)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_make_corpus_minimum_size():
    with pytest.raises(WorldError):
        make_corpus(SPEC, 2, seed=0)


def test_corpus_save_load_round_trip(tmp_path):
    corpus = make_corpus(SPEC, 40, seed=1)
    save_corpus(corpus, tmp_path / "c")
    loaded = load_corpus(tmp_path / "c")
    assert loaded.content_hash() == corpus.content_hash()
    assert loaded.vocab == corpus.vocab
    assert loaded.train == corpus.train
    assert loaded.spec == corpus.spec
    assert loaded.seed == corpus.seed == 1


def test_corpus_with_the_old_meta_keys_loads(tmp_path):
    # meta.json once also held cond_vocab_size and length_bounds; the loader
    # reads named keys only, so such a corpus still loads
    corpus = make_corpus(SPEC, 40, seed=1)
    save_corpus(corpus, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    old = {"seed": meta["seed"], "hash": meta["hash"], "cond_vocab_size": SPEC.cond_vocab_size,
           "entities": meta["entities"], "attributes": meta["attributes"],
           "relations": meta["relations"], "length_bounds": [6, 12]}
    (tmp_path / "meta.json").write_text(json.dumps(old, indent=2))
    assert load_corpus(tmp_path).content_hash() == corpus.content_hash()


def test_load_detects_tampering(tmp_path):
    corpus = make_corpus(SPEC, 40, seed=1)
    save_corpus(corpus, tmp_path / "c")
    path = tmp_path / "c" / "train.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(WorldError):
        load_corpus(tmp_path / "c")


def test_unknown_split_name():
    corpus = make_corpus(SPEC, 10, seed=0)
    with pytest.raises(WorldError):
        corpus.split("dev")


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_corrupt_to_ratio_hits_target(ratio):
    vocab = build_world_vocab(SPEC)
    rng = np.random.default_rng(42)
    corpus = make_corpus(SPEC, 30, seed=5)
    for ex in corpus.train[:10]:
        out = corrupt_to_ratio(ex.caption, ratio, vocab, rng)
        n = len(ex.caption)
        assert len(out) == n
        assert weighted_ldist(out, ex.caption) == 2 * round(n * (1 - ratio))


def test_corrupt_to_ratio_stops_at_an_exact_first_draw(monkeypatch):
    vocab = build_world_vocab(SPEC)
    corpus = make_corpus(SPEC, 60, seed=0)
    captions = {len(ex.caption): ex.caption for ex in corpus.train}
    assert sorted(captions) == [7, 9, 12]
    for n, x0 in captions.items():
        for j in range(1, n + 1):
            monkeypatch.setattr("editdiff.world.CORRUPT_ATTEMPTS", 1)
            for seed in range(100):
                one = np.random.default_rng(seed)
                first = corrupt_to_ratio(x0, 1 - j / n, vocab, one)
                if weighted_ldist(first, x0) == 2 * j:
                    break
            else:
                pytest.fail(f"no seed below 100 gives an exact first draw for n={n}, j={j}")
            monkeypatch.undo()
            rng = np.random.default_rng(seed)
            assert corrupt_to_ratio(x0, 1 - j / n, vocab, rng) == first
            # the draws of one attempt only
            assert rng.bit_generator.state == one.bit_generator.state, (n, j)


def test_corrupt_ratio_one_is_identity():
    vocab = build_world_vocab(SPEC)
    rng = np.random.default_rng(0)
    x0 = [5, 6, 7, 8]
    assert corrupt_to_ratio(x0, 1.0, vocab, rng) == x0


def test_corrupt_validates_inputs():
    vocab = build_world_vocab(SPEC)
    rng = np.random.default_rng(0)
    with pytest.raises(WorldError):
        corrupt_to_ratio([5], 1.5, vocab, rng)
    with pytest.raises(WorldError):
        corrupt_to_ratio([], 0.5, vocab, rng)
