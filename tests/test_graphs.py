"""Tests for the matching and compatibility-graph substrate."""

import random
from fractions import Fraction

import pytest

from repro.graphs import (BipartiteMatcher, CompatibilityGraph, SuperNode,
                          hungarian_max_weight, max_bipartite_matching)


class TestBipartiteMatcher:
    def test_simple_matching(self):
        adjacency = {"a": ["s1"], "b": ["s1", "s2"]}
        result = max_bipartite_matching(["a", "b"], adjacency.__getitem__)
        assert result == {"a": "s1", "b": "s2"}

    def test_augmenting_path_reassigns(self):
        adjacency = {"a": ["s1", "s2"], "b": ["s1"]}
        matcher = BipartiteMatcher(adjacency.__getitem__)
        assert matcher.try_add("a")          # a -> s1 (first neighbor)
        assert matcher.match_of_left["a"] == "s1"
        assert matcher.try_add("b")          # b needs s1: a moves to s2
        assert matcher.match_of_left["b"] == "s1"
        assert matcher.match_of_left["a"] == "s2"

    def test_pinned_slot_not_disturbed(self):
        adjacency = {"a": ["s1", "s2"], "b": ["s1"]}
        matcher = BipartiteMatcher(adjacency.__getitem__)
        matcher.assign("a", "s1")
        matcher.pin("s1")
        assert not matcher.try_add("b")

    def test_allowed_filter_restricts_entry(self):
        adjacency = {"a": ["s1", "s2"]}
        matcher = BipartiteMatcher(adjacency.__getitem__)
        assert matcher.try_add("a", allowed=lambda s: s == "s2")
        assert matcher.match_of_left["a"] == "s2"

    def test_infeasible_returns_false(self):
        adjacency = {"a": ["s1"], "b": ["s1"], "c": ["s1"]}
        matcher = BipartiteMatcher(adjacency.__getitem__)
        assert matcher.try_add("a")
        assert not matcher.try_add("b")

    def test_release(self):
        adjacency = {"a": ["s1"]}
        matcher = BipartiteMatcher(adjacency.__getitem__)
        matcher.assign("a", "s1")
        assert matcher.release("a") == "s1"
        assert matcher.try_add("a")

    def test_snapshot_restore(self):
        adjacency = {"a": ["s1"], "b": ["s2"]}
        matcher = BipartiteMatcher(adjacency.__getitem__)
        matcher.try_add("a")
        state = matcher.snapshot()
        matcher.try_add("b")
        matcher.restore(state)
        assert "b" not in matcher.match_of_left


class TestHungarian:
    def test_prefers_heavier_total(self):
        weights = {("a", "x"): 5, ("a", "y"): 1,
                   ("b", "x"): 4, ("b", "y"): 0}
        result = hungarian_max_weight(
            ["a", "b"], ["x", "y"],
            lambda u, v: Fraction(weights[(u, v)]))
        # a->x, b->y gives 5; a->y, b->x gives 5 too; either is max,
        # but both must be matched (cardinality tie-break).
        assert len(result) == 2
        total = sum(weights[(u, v)] for u, v in result.items())
        assert total == 5

    def test_zero_weight_edge_still_matched(self):
        result = hungarian_max_weight(
            ["a"], ["x"], lambda u, v: Fraction(0))
        assert result == {"a": "x"}

    def test_none_means_no_edge(self):
        result = hungarian_max_weight(
            ["a", "b"], ["x"],
            lambda u, v: Fraction(1) if u == "a" else None)
        assert result == {"a": "x"}

    def test_rectangular_more_right(self):
        weights = {("a", "x"): 1, ("a", "y"): 9}
        result = hungarian_max_weight(
            ["a"], ["x", "y"], lambda u, v: Fraction(weights[(u, v)]))
        assert result == {"a": "y"}

    def test_cardinality_secondary_to_weight(self):
        # Matching only a->y (weight 10) beats a->x, b->y (0 + 0).
        def weight(u, v):
            if u == "a" and v == "y":
                return Fraction(10)
            if (u, v) in (("a", "x"), ("b", "y")):
                return Fraction(0)
            return None
        result = hungarian_max_weight(["a", "b"], ["x", "y"], weight)
        # a->y + b->x is impossible (no edge); a->y alone total 10,
        # a->x + b->y total 0: weight wins.
        assert result.get("a") == "y"

    def test_empty_inputs(self):
        assert hungarian_max_weight([], ["x"], lambda u, v: None) == {}

    @staticmethod
    def _best(left, right, weights):
        """Brute force: the largest (total weight, cardinality)."""
        best = (Fraction(0), 0)
        stack = [(0, frozenset(), Fraction(0), 0)]
        while stack:
            i, taken, total, size = stack.pop()
            if i == len(left):
                best = max(best, (total, size))
                continue
            stack.append((i + 1, taken, total, size))
            for v in right:
                w = weights.get((left[i], v))
                if w is not None and v not in taken:
                    stack.append((i + 1, taken | {v}, total + w, size + 1))
        return best

    @pytest.mark.parametrize("denominator", [1, 3, 10])
    def test_matches_brute_force(self, denominator):
        rng = random.Random(f"hungarian:{denominator}")
        for _ in range(60):
            left = [f"l{i}" for i in range(rng.randint(1, 4))]
            right = [f"r{j}" for j in range(rng.randint(1, 4))]
            weights = {(u, v): Fraction(rng.randint(0, 6), denominator)
                       for u in left for v in right if rng.random() < 0.7}
            result = hungarian_max_weight(left, right,
                                          lambda u, v: weights.get((u, v)))
            assert len(set(result.values())) == len(result)
            total = sum((weights[(u, v)] for u, v in result.items()),
                        Fraction(0))
            assert (total, len(result)) == self._best(left, right, weights)


class TestCompatibilityGraph:
    def make(self):
        g = CompatibilityGraph()
        a = g.add_node(SuperNode.of("a"))
        b = g.add_node(SuperNode.of("b"))
        c = g.add_node(SuperNode.of("c"))
        g.add_edge(a, b, Fraction(5))
        g.add_edge(a, c, Fraction(3))
        g.add_edge(b, c, Fraction(1))
        return g, a, b, c

    def test_best_edge(self):
        g, a, b, c = self.make()
        best = g.best_edge()
        assert best is not None and best[2] == 5

    def test_combine_sums_common_weights(self):
        g, a, b, c = self.make()
        merged = g.combine(a, b)
        assert len(g) == 2
        # c was adjacent to both -> edge kept with summed weight 3+1.
        assert g.weight(merged, c) == 4

    def test_combine_drops_noncommon_neighbors(self):
        g = CompatibilityGraph()
        a = g.add_node(SuperNode.of("a"))
        b = g.add_node(SuperNode.of("b"))
        c = g.add_node(SuperNode.of("c"))
        g.add_edge(a, b, Fraction(1))
        g.add_edge(a, c, Fraction(1))  # c adjacent to a only
        merged = g.combine(a, b)
        assert not g.has_edge(merged, c)

    def test_self_edge_rejected(self):
        g = CompatibilityGraph()
        a = g.add_node(SuperNode.of("a"))
        with pytest.raises(ValueError):
            g.add_edge(a, a)

    def test_supernode_merge(self):
        s = SuperNode.of("a", "b").merged(SuperNode.of("c"))
        assert len(s) == 3
        assert set(s.members) == {"a", "b", "c"}
