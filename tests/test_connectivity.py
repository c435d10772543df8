"""Tests for the closed-form connectivity values and breakdowns."""

import pytest

from treeconn import InvalidArgumentError, InvalidTerminalSetError, kappa_bipartite, normalize
from treeconn.connectivity import kappa_terminal, min_terminal_index
from treeconn.core import Side, terminal_range


class TestKappaTerminal:
    def test_small_mixed_profile(self):
        bd = kappa_terminal(normalize(2, 3), 3, 1)
        assert (bd.a2, bd.a1, bd.a0, bd.kappa) == (1, 0, 1, 2)

    def test_one_sided_profiles(self):
        for a, b, k in [(2, 5, 3), (3, 4, 4), (4, 4, 2)]:
            order = normalize(a, b)
            assert kappa_terminal(order, k, 0).kappa == a
            if k <= a:
                assert kappa_terminal(order, k, k).kappa == b

    def test_three_by_four_five_terminals(self):
        bd = kappa_terminal(normalize(3, 4), 5, 2)
        assert (bd.a2, bd.a1, bd.a0, bd.kappa) == (1, 0, 1, 2)

    def test_balanced_host(self):
        bd = kappa_terminal(normalize(5, 5), 4, 2)
        assert (bd.a2, bd.a1, bd.a0, bd.kappa) == (3, 0, 1, 4)

    def test_side_reported_only_when_hub_trees_exist(self):
        assert kappa_terminal(normalize(3, 4), 5, 1).a1_side is Side.X
        assert kappa_terminal(normalize(3, 4), 5, 2).a1_side is None
        assert kappa_terminal(normalize(3, 3), 3, 0).a1_side is Side.X
        assert kappa_terminal(normalize(3, 3), 3, 3).a1_side is Side.Y

    def test_rejects_invalid_profile(self):
        with pytest.raises(InvalidTerminalSetError):
            kappa_terminal(normalize(2, 5), 3, 3)


class TestKappaBipartite:
    @pytest.mark.parametrize(
        "a,b,k,expected",
        [
            (3, 3, 3, 2),
            (3, 4, 2, 3),  # ordinary connectivity is min(a, b)
            (3, 4, 7, 2),  # spanning case equals the packing size
            (2, 5, 4, 2),
            (5, 5, 4, 4),
        ],
    )
    def test_values(self, a, b, k, expected):
        assert kappa_bipartite(normalize(a, b), k) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            kappa_bipartite(normalize(3, 3), 1)
        with pytest.raises(InvalidArgumentError):
            kappa_bipartite(normalize(3, 3), 7)

    def test_is_minimum_over_terminal_profiles(self):
        for b in range(1, 26):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    smallest = min(
                        kappa_terminal(order, k, i).kappa for i in terminal_range(order, k)
                    )
                    assert kappa_bipartite(order, k) == smallest


class TestMinTerminalIndex:
    @pytest.mark.parametrize(
        "a,b,k,expected",
        [
            (3, 3, 3, 1),
            (5, 5, 4, 1),  # ties: profiles 1..3 all attain the minimum
            (2, 5, 3, 0),  # every profile attains a; smallest index wins
        ],
    )
    def test_values(self, a, b, k, expected):
        assert min_terminal_index(normalize(a, b), k) == expected

    def test_always_attains_the_closed_form(self):
        for b in range(1, 16):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    i = min_terminal_index(order, k)
                    assert kappa_terminal(order, k, i).kappa == kappa_bipartite(order, k)


def _case_formula_counts(a: int, b: int, k: int, i: int) -> tuple[int, int, int]:
    """The textbook case split for 1 <= i <= floor(k/2), kept as a test oracle."""
    if 2 * i >= a - b + k:
        a2 = a - i
    else:
        a2 = b - k + i
    if i >= a - b + k:
        a1, a0 = i, 0
    elif 2 * i >= a - b + k:
        a1 = b - a - k + 2 * i
        a0 = ((i - a1) * (k - i)) // (k - 1)
    else:
        a1 = a - b + k - 2 * i
        a0 = ((k - i - a1) * i) // (k - 1)
    return a2, a1, a0


class TestRecipeAgreesWithCaseSplit:
    def test_front_half_profiles(self):
        for b in range(1, 26):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    for i in terminal_range(order, k):
                        if not 1 <= i <= k // 2:
                            continue
                        bd = kappa_terminal(order, k, i)
                        assert (bd.a2, bd.a1, bd.a0) == _case_formula_counts(a, b, k, i), (
                            a, b, k, i,
                        )


class TestStructuralInequalities:
    def test_internal_edge_budget(self):
        for b in range(1, 26):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    for i in terminal_range(order, k):
                        if i == 0 or i == k:
                            continue
                        bd = kappa_terminal(order, k, i)
                        # each single-hub tree uses one internal edge per hub-side terminal
                        cost = i if bd.a1_side is Side.X else k - i
                        used = bd.a0 * (k - 1) + bd.a1 * cost
                        assert 0 <= used <= i * (k - i)

    def test_mirrored_profile_is_never_smaller(self):
        for b in range(1, 26):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    valid = terminal_range(order, k)
                    for i in valid:
                        if i > k // 2 or (k - i) not in valid:
                            continue
                        assert (
                            kappa_terminal(order, k, k - i).kappa
                            >= kappa_terminal(order, k, i).kappa
                        )

    def test_central_profile_attains_the_minimum(self):
        # the midpoint profile (rounded down) always achieves kappa_k
        for b in range(1, 26):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    if k <= b - a + 2:
                        continue
                    d = a - b + k
                    midpoint = (d - 1) // 2 if d % 2 else d // 2
                    assert midpoint in terminal_range(order, k)
                    assert kappa_terminal(order, k, midpoint).kappa == kappa_bipartite(order, k)
