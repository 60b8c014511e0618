"""Weighted Levenshtein distance and ground-truth edit-script construction.

One cost model is shared by the evaluation ratio and the training
supervision: INSERT and DELETE cost 1, REPLACE costs 2, KEEP is free.
A REPLACE then costs exactly an INSERT plus a DELETE, so the distance is
the identity ``len(a) + len(b) - 2 * LCS(a, b)``, and the longest common
subsequence comes from the bit-parallel LCS of Allison & Dix (1986) in
the form of Hyyrö (2004): one row bit-vector per source symbol, a few
big-integer operations per row, no O(mn) table.  The script walk reads the
same rows, over the reversed pair, through two bit tests per step.

Supervision needs the walk only when some original word has moved.  Only
original words match, so no alignment keeps more of them than the
diagonal; when each already sits at its target position, the diagonal
keeps them all and its script is written in one front pass, with no rows.
Replace-only noise, the default, keeps every original word at its target,
so every state the default training sampler draws takes that pass.
"""

from __future__ import annotations

from .edit_ops import (DELETE, INSERT, KEEP, ORIGINAL, REPLACE, CaptionState, EditOp,
                       EditScript)

REPLACE_COST = 2
INDEL_COST = 1


def _lcs_rows(a, b, eligible=None) -> list[int]:
    """Bit-parallel LCS rows of ``a`` against ``b``.

    Bit k of ``rows[r]`` is 0 exactly when ``LCS(a[:r], b[:k + 1])`` exceeds
    ``LCS(a[:r], b[:k])``, so the zero bits of ``rows[r]`` below bit k count
    ``LCS(a[:r], b[:k])``.  A source symbol whose ``eligible`` flag is false
    matches nothing: its row takes the mask 0 and repeats the row above.
    """
    masks: dict = {}
    mask_of = masks.get
    bit = 1
    for sym in b:
        masks[sym] = mask_of(sym, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    rows = [v]
    for r, sym in enumerate(a):
        if eligible is None or eligible[r]:
            u = v & mask_of(sym, 0)
            v = ((v + u) | (v - u)) & full
        rows.append(v)
    return rows


def weighted_ldist(a, b) -> int:
    """Minimum weighted edit cost (#INSERT + #DELETE + 2 * #REPLACE),
    which is ``m + n - 2 * LCS(a, b)``."""
    a = list(a)
    b = list(b)
    m, n = len(a), len(b)
    lcs = n - _lcs_rows(a, b)[m].bit_count()
    return m + n - 2 * lcs


def lev_ratio(a, b) -> float:
    """Similarity in [0, 1]: (m + n - ldist) / (m + n), which is
    ``2 * LCS(a, b) / (m + n)``; 1.0 for two empties."""
    a = list(a)
    b = list(b)
    m, n = len(a), len(b)
    if not m + n:
        return 1.0
    return 2 * (n - _lcs_rows(a, b)[m].bit_count()) / (m + n)


def brute_force_min_distance(a, b) -> int:
    """Test oracle: exhaustive recursion over all edit sequences.

    No DP table and no pruning beyond the recursion itself, so it stays an
    independent check on :func:`weighted_ldist`.  Inputs are length-capped.
    """
    a = tuple(a)
    b = tuple(b)
    if len(a) > 6 or len(b) > 6:
        raise ValueError("brute-force oracle is limited to lengths <= 6")

    def go(i: int, j: int) -> int:
        if i == len(a):
            return (len(b) - j) * INDEL_COST
        if j == len(b):
            return (len(a) - i) * INDEL_COST
        sub = go(i + 1, j + 1) + (0 if a[i] == b[j] else REPLACE_COST)
        dele = go(i + 1, j) + INDEL_COST
        ins = go(i, j + 1) + INDEL_COST
        return min(sub, dele, ins)

    return go(0, 0)


def align(x_t: CaptionState, x_0) -> EditScript:
    """Build the single-step supervision script transforming x_t toward x_0.

    One walk from the front follows an optimal alignment.  At each source
    position i and target position j it takes the first optimal move in the
    order KEEP, REPLACE, INSERT, DELETE, judged against the suffix cost
    ``cost(i, j)``, the distance from ``a[i:]`` to ``b[j:]``.  Walking from
    the front keeps equal-cost choices anchored at the start of the sequence,
    so the chosen path does not drift with length differences between a and
    b.  The suffix costs come from the LCS rows of the reversed sequences:
    with ``r = m - i`` and ``k = n - j``,
    ``cost(i, j) = r - k + 2 * popcount(rows[r] & (2**k - 1))``, so each
    move's test reduces to bits of two rows:

    - REPLACE is optimal iff ``popcount(rows[r] & (2**k - 1))`` equals
      ``popcount(rows[r - 1] & (2**(k - 1) - 1)) + 1``;
    - INSERT is optimal iff bit ``k - 1`` of ``rows[r]`` is set.

    The optimal alignment may insert several words into one gap; a script
    slot can carry only one, so a gap after a KEEP position becomes an
    INSERT with the gap's first word, and gaps next to REPLACE/DELETE keep
    the stronger op.  Deferred words are recovered on later iterations.

    Only ORIGINAL tokens count as matches.  A RANDOM_WORD is noise even when
    it collides with a caption word, and crediting it with KEEP would teach
    the denoiser to preserve lookalike words; a PINNED word is held by the
    rollout, not by the alignment, so it too is matched by nothing.  A
    token that is not ORIGINAL but lands on its aligned target is already
    the right word in the right slot, so it is supervised as KEEP and no
    script carries a no-op REPLACE.

    Before the walk, one front pass reads ``zip(x_t.tokens, x_0)``: a token
    equal to its target word is KEEP, a non-ORIGINAL token that differs is
    REPLACE by the target word, and the first ORIGINAL token that differs
    sends the state to the walk.  If every ORIGINAL token sits at its
    target, the diagonal keeps them all, which no alignment beats, so every
    differing diagonal position costs exactly one REPLACE on an optimal path,
    and the walk tests REPLACE before INSERT and DELETE.  The script then
    ends in closed form: tokens past the target's end are each a DELETE
    (an ORIGINAL token there, which another alignment might keep, sends the
    state to the walk), and a shorter state's missing words form one gap
    after its last slot, which becomes INSERT of ``x_0[m]`` only if that
    slot is KEEP.  Replace-only noise keeps every original word at its
    target, so the default sampler's states all take the pass; under mixed
    noise a fifth to a quarter of the states take the walk, as can any state
    a rollout reaches.
    """
    tokens = x_t.tokens
    b = list(x_0)
    m, n = len(tokens), len(b)
    slots: list[tuple[EditOp, int | None]] = [(KEEP, None)]
    for tok, word in zip(tokens, b):
        if tok.id == word:
            slots.append((KEEP, None))
        elif tok.origin is ORIGINAL:
            break  # an original word off its target: only the walk places it
        else:
            slots.append((REPLACE, word))
    else:
        if all(tok.origin is not ORIGINAL for tok in tokens[n:]):
            if m > n:
                slots += [(DELETE, None)] * (m - n)
            elif m < n and slots[-1][0] is KEEP:  # a gap keeps only its first word
                slots[-1] = (INSERT, b[m])
            return EditScript(tuple(slots))

    a = x_t.ids()
    eligible = [tok.origin is ORIGINAL for tok in tokens]
    rows = _lcs_rows(a[::-1], b[::-1], eligible[::-1])

    slots = [(KEEP, None)]
    i = j = 0
    while i < m or j < n:
        r, k = m - i, n - j
        if r and k:
            word = b[j]
            if eligible[i] and a[i] == word:
                # a match never costs more than the rest of the alignment
                slots.append((KEEP, None))
                i, j = i + 1, j + 1
                continue
            # REPLACE: cost(i, j) == cost(i + 1, j + 1) + REPLACE_COST
            low = 1 << (k - 1)
            if ((rows[r] & (low + low - 1)).bit_count()
                    == (rows[r - 1] & (low - 1)).bit_count() + 1):
                slots.append((KEEP, None) if word == a[i] else (REPLACE, word))
                i, j = i + 1, j + 1
                continue
        # INSERT: cost(i, j) == cost(i, j + 1) + INDEL_COST
        if k and rows[r] >> (k - 1) & 1:
            if slots[-1][0] is KEEP:  # a gap keeps only its first word
                slots[-1] = (INSERT, b[j])
            j += 1
        else:
            slots.append((DELETE, None))
            i += 1
    return EditScript(tuple(slots))
