"""Perfect bipartite matching by augmenting paths.

The equivalence judge in :mod:`convground.knowledge` pairs list values, and
the facts of two knowledge objects, one to one with it.
"""

from __future__ import annotations

from typing import Callable


def perfect_matching(n_left: int, n_right: int, eq: Callable[[int, int], bool]) -> bool:
    """True iff a one-to-one matching pairs every index on both sides under ``eq(i, j)``.

    Kuhn's augmenting-path algorithm: each left index in turn searches,
    depth first, for a path that ends at an unmatched right index. Every
    left index the search reaches first tries the unmatched right indices,
    in ascending order, then steps through each matched right index it is
    equivalent to, at most once per search, to that index's owner. So each
    search calls ``eq`` at most ``n_left * n_right`` times. A left index
    with no augmenting path can never be matched later, so the first failed
    search decides. The search keeps its own stack, so long lists cannot
    exhaust the interpreter's recursion limit.
    """
    if n_left != n_right:
        return False
    owner = [-1] * n_right  # left index matched to each right index, or -1
    free = list(range(n_right))  # unmatched right indices, ascending
    for root in range(n_left):
        visited = [False] * n_right
        lefts, cursors, vias = [root], [0], []  # vias[k] links lefts[k] to lefts[k + 1]
        while True:
            i = lefts[-1]
            j = next((j for j in free if eq(i, j)), -1)
            if j >= 0:
                free.remove(j)
                for k, via in enumerate(vias):
                    owner[via] = lefts[k]
                owner[j] = i
                break
            while True:
                i, j = lefts[-1], cursors[-1]
                while j < n_right and (owner[j] < 0 or visited[j] or not eq(i, j)):
                    j += 1
                if j < n_right:
                    break
                lefts.pop()
                cursors.pop()
                if not lefts:
                    return False
                vias.pop()
            cursors[-1] = j + 1
            visited[j] = True
            vias.append(j)
            lefts.append(owner[j])
            cursors.append(0)
    return True
