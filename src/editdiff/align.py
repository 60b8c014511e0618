"""Weighted Levenshtein distance and ground-truth edit-script construction.

One cost model is shared by the evaluation ratio and the training
supervision: INSERT and DELETE cost 1, REPLACE costs 2, KEEP is free.
A REPLACE then costs exactly an INSERT plus a DELETE, so the distance is
the identity ``len(a) + len(b) - 2 * LCS(a, b)``, and the longest common
subsequence comes from the bit-parallel LCS of Allison & Dix (1986) in
the form of Hyyrö (2004): one row bit-vector per source symbol, a few
big-integer operations per row, no O(mn) table.
"""

from __future__ import annotations

from .edit_ops import CaptionState, EditOp, EditScript, Origin

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
    for k, sym in enumerate(b):
        masks[sym] = masks.get(sym, 0) | (1 << k)
    full = (1 << len(b)) - 1
    v = full
    rows = [v]
    for r, sym in enumerate(a):
        if eligible is None or eligible[r]:
            u = v & masks.get(sym, 0)
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
    """Similarity in [0, 1]: (m + n - ldist) / (m + n); 1.0 for two empties."""
    a = list(a)
    b = list(b)
    if not a and not b:
        return 1.0
    total = len(a) + len(b)
    return (total - weighted_ldist(a, b)) / total


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
    ``cost(i, j) = r - k + 2 * popcount(rows[r] & (2**k - 1))``.

    The optimal alignment may insert several words into one gap; a script
    slot can carry only one, so a gap after a KEEP position becomes an
    INSERT with the gap's first word, and gaps next to REPLACE/DELETE keep
    the stronger op.  Deferred words are recovered on later iterations.

    Tokens flagged RANDOM_WORD never count as matches: they are noise even
    when they collide with a caption word, and crediting them with KEEP
    would teach the denoiser to preserve lookalike words.  A random word
    that lands on its aligned target is already the right word in the right
    slot, so it is supervised as KEEP and no script carries a no-op REPLACE.
    """
    a = x_t.ids()
    b = list(x_0)
    m, n = len(a), len(b)
    eligible = [tok.origin is Origin.ORIGINAL for tok in x_t.tokens]
    rows = _lcs_rows(a[::-1], b[::-1], eligible[::-1])

    def cost(i: int, j: int) -> int:
        r, k = m - i, n - j
        return r - k + 2 * (rows[r] & ((1 << k) - 1)).bit_count()

    slots: list[tuple[EditOp, int | None]] = [(EditOp.KEEP, None)]
    i = j = 0
    while i < m or j < n:
        if i < m and j < n and eligible[i] and a[i] == b[j]:
            # a match never costs more than the rest of the alignment
            slots.append((EditOp.KEEP, None))
            i, j = i + 1, j + 1
        elif i < m and j < n and cost(i, j) == cost(i + 1, j + 1) + REPLACE_COST:
            word = b[j]
            slots.append((EditOp.KEEP, None) if word == a[i] else (EditOp.REPLACE, word))
            i, j = i + 1, j + 1
        elif j < n and cost(i, j) == cost(i, j + 1) + INDEL_COST:
            if slots[-1][0] is EditOp.KEEP:  # a gap keeps only its first word
                slots[-1] = (EditOp.INSERT, b[j])
            j += 1
        else:
            slots.append((EditOp.DELETE, None))
            i += 1
    return EditScript(tuple(slots))
