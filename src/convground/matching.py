"""Perfect bipartite matching by augmenting paths, after a keyed first pass.

The equivalence judge in :mod:`convground.judge` pairs list values, and
the facts of two knowledge objects, one to one with it.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence


def perfect_matching(
    left: Sequence[Any],
    right: Sequence[Any],
    key: Callable[[Any], Hashable],
    eq: Callable[[Any, Any], bool],
) -> bool:
    """True iff a one-to-one matching pairs every item on both sides under ``eq(x, y)``.

    First each left item, in order, is offered the last free right item
    with an equal ``key``: it keeps that item when ``eq`` holds, and the
    pair is refused otherwise, so ``eq`` is never asked about it again.
    ``key`` only orders the work; any key gives the same answer.

    Then Kuhn's augmenting-path algorithm: each left item still unmatched
    in turn searches, depth first, for a path that ends at an unmatched
    right item. Every left item the search reaches first tries the
    unmatched right items, in ascending order, then steps through each
    matched right item it is equivalent to, at most once per search, to
    that item's owner; so a search may re-route a pair the first pass made.
    Each search calls ``eq`` at most ``len(left) * len(right)`` times. By
    Berge's theorem, whatever matching it starts from, a left item with no
    augmenting path means no perfect matching exists, so the first failed
    search decides. The search keeps its own stack, so long lists cannot
    exhaust the interpreter's recursion limit.
    """
    n = len(right)
    if len(left) != n:
        return False
    buckets: dict[Hashable, list[int]] = {}
    for j, y in enumerate(right):
        buckets.setdefault(key(y), []).append(j)
    owner = [-1] * n  # left index matched to each right index, or -1
    refused: set[tuple[int, int]] = set()
    roots = []
    for i, x in enumerate(left):
        bucket = buckets.get(key(x))
        if bucket:
            if eq(x, right[bucket[-1]]):
                owner[bucket.pop()] = i
                continue
            refused.add((i, bucket[-1]))
        roots.append(i)

    def pairs(i: int, j: int) -> bool:
        return (i, j) not in refused and eq(left[i], right[j])

    free = [j for j in range(n) if owner[j] < 0]  # unmatched right indices, ascending
    for root in roots:
        visited = [False] * n
        lefts, cursors, vias = [root], [0], []  # vias[k] links lefts[k] to lefts[k + 1]
        while True:
            i = lefts[-1]
            j = next((j for j in free if pairs(i, j)), -1)
            if j >= 0:
                free.remove(j)
                for k, via in enumerate(vias):
                    owner[via] = lefts[k]
                owner[j] = i
                break
            while True:
                i, j = lefts[-1], cursors[-1]
                while j < n and (owner[j] < 0 or visited[j] or not pairs(i, j)):
                    j += 1
                if j < n:
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
