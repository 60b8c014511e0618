import numpy as np
import pytest

from editdiff.align import (
    _lcs_rows,
    brute_force_min_distance,
    lev_ratio,
    weighted_ldist,
    align,
)
from editdiff.diffusion import sample_denoising_example
from editdiff.edit_ops import (CaptionState, EditOp, NoiseSchedule, Origin, Token,
                               apply_script)
from editdiff.vocab import NUM_SPECIALS, build_vocab

from helpers import reference_align, reference_weighted_ldist

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

K, R, I, D = EditOp.KEEP, EditOp.REPLACE, EditOp.INSERT, EditOp.DELETE


def test_distance_basics():
    assert weighted_ldist([], []) == 0
    assert weighted_ldist([5], []) == 1
    assert weighted_ldist([], [5]) == 1
    assert weighted_ldist([5], [6]) == 2
    assert weighted_ldist([5], [5]) == 0


def test_distance_paper_style_example():
    # one substitution costs 2, insert/delete cost 1 each
    assert weighted_ldist(list("abc"), list("axc")) == 2
    assert weighted_ldist(list("abc"), list("abcd")) == 1
    assert weighted_ldist(list("abc"), list("bc")) == 1


def test_ratio_closed_form():
    # the numerator is an exact integer either way, so the floats are equal
    rng = np.random.default_rng(4)
    pairs = [(list("abcd"), list("axcd")), ([], []), ([], [1]), ([2, 2], [])]
    pairs += [(rng.integers(0, 5, size=rng.integers(0, 13)).tolist(),
               rng.integers(0, 5, size=rng.integers(0, 13)).tolist()) for _ in range(300)]
    assert sum(not a or not b for a, b in pairs) >= 10
    for a, b in pairs:
        total = len(a) + len(b)
        want = (total - reference_weighted_ldist(a, b)) / total if total else 1.0
        assert lev_ratio(a, b) == want, (a, b)
    assert lev_ratio(list("abcd"), list("abcd")) == 1.0
    assert lev_ratio(list("ab"), list("cd")) == 0.0


def test_brute_force_matches_dp_on_spot_checks():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.integers(0, 4, size=rng.integers(0, 6)).tolist()
        b = rng.integers(0, 4, size=rng.integers(0, 6)).tolist()
        assert brute_force_min_distance(a, b) == weighted_ldist(a, b)


def test_brute_force_length_cap():
    with pytest.raises(ValueError):
        brute_force_min_distance(range(7), range(2))


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = rng.integers(0, 5, size=rng.integers(0, 8)).tolist()
        b = rng.integers(0, 5, size=rng.integers(0, 8)).tolist()
        assert weighted_ldist(a, b) == weighted_ldist(b, a)
        assert weighted_ldist(a, a) == 0
        assert (weighted_ldist(a, b) == 0) == (a == b)


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(300):
        seqs = [rng.integers(0, 4, size=rng.integers(0, 8)).tolist()
                for _ in range(3)]
        a, b, c = seqs
        assert weighted_ldist(a, c) <= weighted_ldist(a, b) + weighted_ldist(b, c)


if HAVE_HYPOTHESIS:
    seq = st.lists(st.integers(min_value=0, max_value=3), max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(seq, seq)
    def test_distance_bounds_property(a, b):
        d = weighted_ldist(a, b)
        assert abs(len(a) - len(b)) <= d <= len(a) + len(b)
        assert 0.0 <= lev_ratio(a, b) <= 1.0


def _state(ids):
    return CaptionState.from_ids(ids, step=1)


def iterate_to_target(ids, target, limit):
    """Apply align+apply until the caption equals target; return step count."""
    c = _state(ids)
    for i in range(limit):
        if c.ids() == list(target):
            return i
        s = align(c, target)
        c = apply_script(c, s, decrement_step=False)
    return None if c.ids() != list(target) else limit


def test_align_identity_is_all_keep():
    c = _state([5, 6, 7])
    s = align(c, [5, 6, 7])
    assert all(op is K for op, _ in s.slots)


def test_align_single_replace():
    s = align(_state([5, 6, 7]), [5, 9, 7])
    assert s.slots == ((K, None), (K, None), (R, 9), (K, None))


def test_align_prefers_keep_over_replace():
    # "a dog" -> "a cat dog": insertion, not replace+insert
    s = align(_state([5, 6]), [5, 9, 6])
    out = apply_script(_state([5, 6]), s, decrement_step=False)
    assert out.ids() == [5, 9, 6]
    assert sum(op is K for op, _ in s.slots) == 2


def test_align_sentinel_insert():
    s = align(_state([6, 7]), [5, 6, 7])
    assert s.slots[0] == (I, 5)
    out = apply_script(_state([6, 7]), s, decrement_step=False)
    assert out.ids() == [5, 6, 7]


def test_align_gap_defers_all_but_first_word():
    # two-word gap after a kept token: one INSERT now, one word deferred
    c = [5]
    target = [5, 6, 7]
    s = align(_state(c), target)
    assert s.slots == ((K, None), (I, 6))
    assert iterate_to_target(c, target, limit=5) == 2


def test_align_replace_defers_adjacent_insertions():
    # position needs REPLACE and the gap words come later
    c = [5, 9]
    target = [5, 6, 7, 8]
    s = align(_state(c), target)
    ops = [op for op, _ in s.slots]
    assert R in ops or I in ops
    assert iterate_to_target(c, target, limit=6) is not None


def test_align_all_delete():
    s = align(_state([5, 6, 7]), [])
    assert [op for op, _ in s.slots] == [K, D, D, D]
    out = apply_script(_state([5, 6, 7]), s, decrement_step=False)
    assert out.ids() == []


def test_align_round_trip_descent_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.integers(2, 10, size=rng.integers(1, 9)).tolist()
        b = rng.integers(2, 10, size=rng.integers(1, 9)).tolist()
        c = _state(a)
        dist = weighted_ldist(c.ids(), b)
        for _ in range(max(1, len(b)) + 1):
            if c.ids() == b:
                break
            s = align(c, b)
            c = apply_script(c, s, decrement_step=False)
            nxt = weighted_ldist(c.ids(), b)
            assert nxt < dist
            dist = nxt
        assert c.ids() == b


def test_align_script_cost_is_minimal_small_cases():
    # the executed (non-deferred) alignment must realize the DP cost: check
    # by enumerating small pairs and comparing against the brute-force oracle
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.integers(0, 4, size=rng.integers(1, 6)).tolist()
        b = rng.integers(0, 4, size=rng.integers(0, 6)).tolist()
        s = align(_state([x + 2 for x in a]), [x + 2 for x in b])
        assert len(s) - 1 == len(a)


# -- equivalence with the O(mn) dynamic programs ------------------------------

TOKEN_KINDS = {
    "int": lambda ids: [int(x) for x in ids],
    "str": lambda ids: [chr(ord("a") + int(x)) for x in ids],
    "np.int64": lambda ids: list(np.asarray(ids, dtype=np.int64)),
}


def _random_pair(rng, long: bool):
    """Two id sequences over a 1-9 symbol alphabet (offset past the special
    ids); long pairs need row masks wider than 64 bits."""
    lo, hi = (70, 201) if long else (0, 17)
    alphabet = int(rng.integers(1, 10))
    a = rng.integers(2, 2 + alphabet, size=rng.integers(lo, hi))
    b = rng.integers(2, 2 + alphabet, size=rng.integers(lo, hi))
    return a, b


def _cases(seed: int, n_short: int, n_long: int):
    rng = np.random.default_rng(seed)
    for case in range(n_short + n_long):
        yield rng, *_random_pair(rng, long=case >= n_short)


def test_lcs_rows_count_prefix_lcs():
    a, b = list("abcbdab"), list("bdcaba")
    rows = _lcs_rows(a, b)
    assert len(rows) == len(a) + 1
    for r in range(len(a) + 1):
        for k in range(len(b) + 1):
            zeros = k - (rows[r] & ((1 << k) - 1)).bit_count()
            lcs = (r + k - reference_weighted_ldist(a[:r], b[:k])) // 2
            assert zeros == lcs
    # an ineligible source symbol matches nothing
    assert _lcs_rows(["x"], ["x"], eligible=[False]) == [1, 1]


@pytest.mark.parametrize("kind", sorted(TOKEN_KINDS))
def test_weighted_ldist_matches_reference_dp(kind):
    tokens = TOKEN_KINDS[kind]
    for _, a, b in _cases(seed=70 + len(kind), n_short=7000, n_long=40):
        a, b = tokens(a), tokens(b)
        assert weighted_ldist(a, b) == reference_weighted_ldist(a, b), (a, b)


def _count_walks(monkeypatch) -> list[int]:
    """Count align's calls of ``_lcs_rows``: one per state that takes the walk."""
    walks = [0]
    lcs_rows = _lcs_rows

    def counted(*args):
        walks[0] += 1
        return lcs_rows(*args)

    monkeypatch.setattr("editdiff.align._lcs_rows", counted)
    return walks


def test_align_matches_reference_scripts(monkeypatch):
    # every origin other than ORIGINAL is unmatched, pinned words included;
    # one case in eight has no ORIGINAL token at all
    origins = list(Origin)
    assert origins[0] is Origin.ORIGINAL
    walks = _count_walks(monkeypatch)
    checked = ineligible = 0
    for rng, a, b in _cases(seed=71, n_short=20_000, n_long=100):
        p = rng.dirichlet([1.0] * len(origins)) if checked % 8 else [0.0, 0.5, 0.5]
        drawn = [origins[k] for k in rng.choice(len(origins), size=len(a), p=p)]
        x_t = CaptionState(tuple(Token(int(i), o) for i, o in zip(a, drawn)), step=1)
        x_0 = TOKEN_KINDS["np.int64" if checked % 2 else "int"](b)
        assert align(x_t, x_0) == reference_align(x_t, x_0), (a.tolist(), drawn, b.tolist())
        checked += 1
        ineligible += Origin.ORIGINAL not in drawn and Origin.PINNED in drawn
    assert checked >= 20_000
    assert ineligible >= checked // 8
    # both the front pass and the LCS walk write a good share of the scripts
    assert walks[0] >= 5_000 and checked - walks[0] >= 5_000, walks[0]


# -- the front pass: states whose original words sit at their targets ---------

PASS_VOCAB = build_vocab([f"w{i}" for i in range(12)])  # small, so random words collide


@pytest.mark.parametrize("weights", [(1.0, 0.0, 0.0), (0.5, 0.25, 0.25)])
def test_align_front_pass_matches_reference_on_sampler_states(monkeypatch, weights):
    # replace-only noise keeps every original word at its target, so none of
    # its states takes the walk; mixed noise moves words, and some do
    sch = NoiseSchedule(w_replace=weights[0], w_delete=weights[1], w_insert=weights[2])
    walks = _count_walks(monkeypatch)
    rng = np.random.default_rng(25)
    branches = {"terminal": 0, "truncated": 0, "trajectory": 0}
    ops = set()
    for _ in range(2_000):
        x0 = rng.integers(NUM_SPECIALS, PASS_VOCAB.size, size=rng.integers(3, 14)).tolist()
        x_t, t = sample_denoising_example(x0, sch, PASS_VOCAB, rng)
        script = align(x_t, x0)
        assert script == reference_align(x_t, x0), (x_t, x0)
        ops.update(op for op, _ in script.slots)
        if t == sch.T:
            branches["terminal"] += 1
        elif (len(x_t) < len(x0) and x_t.ids() == x0[:len(x_t)]
              and all(tok.origin is Origin.ORIGINAL for tok in x_t.tokens)):
            branches["truncated"] += 1
        else:
            branches["trajectory"] += 1
    assert min(branches.values()) >= 200, branches
    assert ops == {K, R, I, D}
    if sch.w_delete or sch.w_insert:
        assert walks[0] >= 100
    else:
        assert walks[0] == 0


def _tokens(*pairs) -> CaptionState:
    return CaptionState(tuple(Token(i, o) for i, o in pairs), step=1)


O, RW, PIN = Origin.ORIGINAL, Origin.RANDOM_WORD, Origin.PINNED
FRONT_PASS_CASES = [
    # (state, target, script, walks)
    pytest.param(_tokens(), [], ((K, None),), 0, id="empty"),
    pytest.param(_tokens(), [5, 6], ((I, 5),), 0, id="empty-state-inserts"),
    # past the target's end: random and pinned words are deleted in closed
    # form, but an original word there may be kept by another alignment
    pytest.param(_tokens((5, O), (9, RW), (7, PIN), (8, RW)), [5, 6],
                 ((K, None), (K, None), (R, 6), (D, None), (D, None)), 0, id="delete-tail"),
    pytest.param(_tokens((5, O), (9, RW), (6, O)), [5, 6],
                 ((K, None), (K, None), (D, None), (K, None)), 1, id="original-past-end-walks"),
    pytest.param(_tokens((5, RW), (9, PIN), (7, O)), [5, 6, 7],
                 ((K, None), (K, None), (R, 6), (K, None)), 0, id="random-word-on-target-kept"),
    # a shorter state inserts the gap's first word after a KEEP, not a REPLACE
    pytest.param(_tokens((5, O), (6, RW)), [5, 6, 7, 8],
                 ((K, None), (K, None), (I, 7)), 0, id="insert-after-keep"),
    pytest.param(_tokens((5, O), (9, RW)), [5, 6, 7],
                 ((K, None), (K, None), (R, 6)), 0, id="no-insert-after-replace"),
    pytest.param(_tokens((5, O), (9, RW)), np.array([5, 6, 7], dtype=np.int64),
                 ((K, None), (K, None), (R, 6)), 0, id="int64-replace"),
    pytest.param(_tokens((5, O), (6, O)), np.array([5, 6, 7], dtype=np.int64),
                 ((K, None), (K, None), (I, 7)), 0, id="int64-insert"),
    pytest.param(_tokens((6, O), (5, RW)), [5, 6],
                 ((I, 5), (K, None), (D, None)), 1, id="original-off-target-walks"),
]


@pytest.mark.parametrize("x_t, x_0, slots, walked", FRONT_PASS_CASES)
def test_align_front_pass_edges(monkeypatch, x_t, x_0, slots, walked):
    walks = _count_walks(monkeypatch)
    script = align(x_t, x_0)
    assert walks[0] == walked
    assert script.slots == slots
    assert script == reference_align(x_t, x_0)
