import numpy as np
import pytest

from editdiff.vocab import (
    NUM_SPECIALS,
    PAD,
    PAD_ID,
    START,
    START_ID,
    Vocabulary,
    VocabularyError,
    build_vocab,
    sample_random_word,
)


def test_build_assigns_specials_then_sorted_words():
    v = build_vocab(["cat", "a"])
    assert v.tokens == (START, PAD, "a", "cat")
    assert v.encode(START) == START_ID == 0
    assert v.encode(PAD) == PAD_ID == 1
    assert v.encode("a") == 2
    assert v.encode("cat") == 3


def test_build_is_order_insensitive_and_dedups():
    a = build_vocab(["dog", "cat", "dog", "ant"])
    b = build_vocab(["ant", "dog", "cat"])
    assert a.tokens == b.tokens


def test_encode_decode_round_trip():
    v = build_vocab("red green blue".split())
    for word in ("red", "green", "blue"):
        assert v.decode(v.encode(word)) == word
    ids = v.encode_all(["blue", "red", "blue"])
    assert v.decode_all(ids) == ["blue", "red", "blue"]


def test_unknown_word_and_bad_id_raise():
    v = build_vocab(["x"])
    with pytest.raises(VocabularyError):
        v.encode("y")
    with pytest.raises(VocabularyError):
        v.encode_all(["x", "y"])
    with pytest.raises(VocabularyError):
        v.decode(v.size)
    with pytest.raises(VocabularyError):
        v.decode(-1)


def test_empty_vocabulary_rejected():
    with pytest.raises(VocabularyError):
        build_vocab([])
    # specials alone do not make a usable vocabulary either
    with pytest.raises(VocabularyError):
        build_vocab([START, PAD])


def test_duplicate_tokens_rejected():
    with pytest.raises(VocabularyError):
        Vocabulary((START, PAD, "a", "a"))


def test_specials_must_lead():
    with pytest.raises(VocabularyError):
        Vocabulary((PAD, START, "a"))


def test_save_load_round_trip(tmp_path):
    v = build_vocab(["one", "two", "three"])
    p = tmp_path / "vocab.txt"
    v.save(p)
    assert Vocabulary(tuple(p.read_text(encoding="utf-8").splitlines())) == v


def test_sample_random_word_never_special_and_covers_range():
    v = build_vocab([f"w{i}" for i in range(20)])
    rng = np.random.default_rng(0)
    draws = [sample_random_word(v, rng) for _ in range(2000)]
    assert min(draws) >= NUM_SPECIALS
    assert max(draws) < v.size
    assert set(draws) == set(range(NUM_SPECIALS, v.size))


def test_sample_random_word_uniform_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    v = build_vocab([f"w{i}" for i in range(30)])
    rng = np.random.default_rng(7)
    n = 30000
    counts = np.zeros(v.size - NUM_SPECIALS)
    for _ in range(n):
        counts[sample_random_word(v, rng) - NUM_SPECIALS] += 1
    _, p = scipy_stats.chisquare(counts)
    assert p > 0.001


def test_sample_random_word_needs_non_specials():
    v = build_vocab(["only"])
    tiny = Vocabulary((START, PAD, "only"))
    assert v == tiny
    bare = Vocabulary((START, PAD))
    with pytest.raises(VocabularyError):
        sample_random_word(bare, np.random.default_rng(0))
