"""Maximum bipartite matching by augmenting paths.

Kuhn's algorithm, iterating left vertices in index order, so results are
deterministic for a fixed input.  Fine for the matchings this package needs
(tens of vertices); swap in Hopcroft-Karp if that ever changes.
"""

from __future__ import annotations

from collections.abc import Sequence


def max_bipartite_matching(
    num_left: int, num_right: int, adj: Sequence[Sequence[int]]
) -> tuple[int, list[int], list[int]]:
    """Match left vertices to right ones along ``adj[i]`` candidate lists.

    Returns (size, match_left, match_right) with -1 marking unmatched.
    """
    match_l = [-1] * num_left
    match_r = [-1] * num_right

    def augment(root: int, seen: list[bool]) -> bool:
        # depth-first with an explicit stack of (left vertex, its untried
        # candidates); each left below the root holds the right it was
        # reached through, so the path flips along the stack alone
        stack = [(root, iter(adj[root]))]
        while stack:
            for j in stack[-1][1]:
                if not seen[j]:
                    break
            else:
                stack.pop()
                continue
            seen[j] = True
            if match_r[j] == -1:
                for i, _ in reversed(stack):
                    match_l[i], j = j, match_l[i]
                    match_r[match_l[i]] = i
                return True
            stack.append((match_r[j], iter(adj[match_r[j]])))
        return False

    size = 0
    for i in range(num_left):
        if adj[i] and augment(i, [False] * num_right):
            size += 1
    return size, match_l, match_r
