"""Hungarian algorithm: maximum-weight bipartite matching.

Used by the Chapter 5 interchip-connection synthesis, which merges the
compatibility-graph groups with "a series of bipartite weighted
matchings" solved by "the Hungarian algorithm, which has a complexity of
O(n^3)" (Section 5.2).  Weight ties are broken toward *larger*
matchings: the paper distinguishes a zero-weight edge (the two I/O
operations can share a bus without sharing pins) from a missing edge, so
zero-weight pairs should still merge when nothing better exists.

The implementation is the classical O(n^3) potentials-plus-shortest-path
assignment algorithm.  Rational weights are scaled by their common
denominator once, so the potentials loop runs on integers; one positive
factor preserves every comparison it makes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

Item = Hashable

#: Cost standing in for "no edge": larger than any scaled real edge can
#: accumulate across n rows (set per call).
_FORBID_SCALE = 4


def hungarian_max_weight(left: Sequence[Item],
                         right: Sequence[Item],
                         weight: Callable[[Item, Item], Optional[Fraction]],
                         ) -> Dict[Item, Item]:
    """Maximum-weight matching; ``weight(u, v) is None`` means no edge.

    Among matchings of equal total weight, one with more edges wins.
    Returns a dict from left items to right items (only matched pairs).
    """
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        return {}
    # Pad to (n_left + n_right) so *every* item can stay unmatched via
    # a dummy partner at cost 0 — a heavy edge elsewhere must never be
    # sacrificed just to raise cardinality.
    n = n_left + n_right

    weights: List[List[Optional[Fraction]]] = [
        [None if w is None else Fraction(w)
         for w in (weight(u, v) for v in right)] for u in left]
    den = math.lcm(*(w.denominator for row in weights for w in row
                     if w is not None))

    # Scale: cost = -(w * den * (n + 1) + 1) for edges, an integer.
    # Weights differ by at least 1/den, worth n + 1 units, while a
    # matching has at most n edges of one tie-break unit each: total
    # weight dominates, cardinality breaks ties.  Dummies cost 0
    # (i.e. "leave unmatched").
    big = 0
    costs: List[List[Optional[int]]] = []
    for i in range(n):
        row: List[Optional[int]] = []
        for j in range(n):
            if i < n_left and j < n_right:
                w = weights[i][j]
                if w is None:
                    row.append(None)
                else:
                    value = -(w.numerator * (den // w.denominator)
                              * (n + 1) + 1)
                    big = max(big, -value)
                    row.append(value)
            else:
                row.append(0)  # dummy pairing = unmatched
        costs.append(row)
    forbid = big * _FORBID_SCALE * (n + 1) + n + 1
    matrix = [[forbid if c is None else c for c in row] for row in costs]

    assignment = _assignment_min_cost(matrix)

    result: Dict[Item, Item] = {}
    for i, j in enumerate(assignment):
        if i < n_left and j < n_right and costs[i][j] is not None:
            result[left[i]] = right[j]
    return result


def _assignment_min_cost(a: List[List[int]]) -> List[int]:
    """Square min-cost assignment; returns column of each row.

    Classical potentials formulation (rows 1..n assigned one at a time,
    augmenting along a shortest path in the equality graph).
    """
    n = len(a)

    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)      # p[j] = row matched to column j (1-based)
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv: List[Optional[int]] = [None] * (n + 1)  # None = infinity
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = a[i0 - 1]
            u_i0 = u[i0]
            delta: Optional[int] = None
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            assert delta is not None
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    answer = [0] * n
    for j in range(1, n + 1):
        if p[j]:
            answer[p[j] - 1] = j - 1
    return answer
