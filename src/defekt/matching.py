"""Maximum bipartite matching by augmenting paths.

Kuhn's algorithm over candidate bitmasks: left slot ``i`` may take any right
vertex whose bit is set in ``cands[i]``.  Slots are augmented in index order
and each tries its candidates in ascending vertex order, so results are
deterministic for a fixed input.  The K*_{s,t} search builds thousands of
slots that share one candidate mask; each augment can then walk through
every earlier slot, so t such slots cost O(t^2) mask steps.
"""

from __future__ import annotations

from collections.abc import Sequence


def max_bipartite_matching(cands: Sequence[int]) -> tuple[int, list[int]]:
    """Match each left slot to a distinct right vertex from its candidate mask.

    Returns (size, match) where ``match[i]`` is the right vertex of slot ``i``,
    or -1 when the slot is unmatched.
    """
    match = [-1] * len(cands)
    owner: dict[int, int] = {}
    size = 0
    for root in range(len(cands)):
        # depth-first with an explicit stack of slots; each slot below the
        # root holds the right vertex it was reached through, so the path
        # flips along the stack alone.  Every candidate a slot has passed
        # is in ``seen``, so its next candidate is its lowest unseen bit.
        seen = 0
        stack = [root]
        while stack:
            free = cands[stack[-1]] & ~seen
            if not free:
                stack.pop()
                continue
            low = free & -free
            seen |= low
            j = low.bit_length() - 1
            if j in owner:
                stack.append(owner[j])
                continue
            for i in reversed(stack):
                match[i], j = j, match[i]
                owner[match[i]] = i
            size += 1
            break
    return size, match
