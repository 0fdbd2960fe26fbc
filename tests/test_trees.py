"""Tree construction, record decomposition and quickselect equivalences."""

import math
from itertools import permutations

import numpy as np
import pytest

from depthlab.distributions import Pmf, total_variation
from depthlab.exact_depth import brute_force_depth_pmf
from depthlab.montecarlo import RngStream, random_permutation
from depthlab.trees import (
    Permutation,
    _permutation_array,
    build_bst,
    depth_plot,
    find_select,
    node_depth,
    record_decomposition,
)


def test_permutation_validation():
    Permutation((1,))
    Permutation((2, 4, 1, 3))
    with pytest.raises(ValueError):
        Permutation((2, 2, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_permutation_array_holds_every_permutation_once():
    for n in range(1, 9):
        perms = _permutation_array(n)
        assert perms.dtype == np.int8 and perms.shape == (math.factorial(n), n)
        rows = set(map(tuple, perms.tolist()))
        assert len(rows) == math.factorial(n)
        assert rows == set(permutations(range(1, n + 1)))


def test_build_bst_shapes():
    single = build_bst(Permutation((1,)))
    assert single.root == 1 and single.depth_of[1] == 0

    bst = build_bst(Permutation((2, 1, 3)))
    assert bst.root == 2
    assert bst.left[2] == 1 and bst.right[2] == 3

    bst = build_bst(Permutation((2, 4, 1, 3)))
    assert node_depth(bst, 3) == 2
    assert bst.left[4] == 3  # path: right from 2, left from 4


def test_node_depth_root_and_errors():
    bst = build_bst(Permutation((2, 1, 3)))
    assert node_depth(bst, 2) == 0
    assert node_depth(bst, 1) == 1
    with pytest.raises(KeyError):
        node_depth(bst, 9)


def test_depth_plot_small():
    assert depth_plot(Permutation((1,))) == [0]
    assert depth_plot(Permutation((2, 1, 3))) == [1, 0, 1]


def test_depth_plot_root_is_zero_and_max_bounded():
    rng = RngStream(seed=5)
    for _ in range(50):
        perm = random_permutation(40, rng)
        depths = depth_plot(perm)
        assert depths[perm.values[0] - 1] == 0
        assert max(depths) <= len(perm) - 1


def test_record_decomposition_examples():
    rd = record_decomposition(Permutation((2, 4, 1, 3)), 3)
    assert rd.position_n == 4
    assert rd.pi_minus == (2, 1) and rd.pi_plus == (4,)
    assert rd.r_minus == 1 and rd.r_plus == 1

    rd = record_decomposition(Permutation((3, 1, 2)), 3)
    assert rd.position_n == 1
    assert rd.pi_minus == () and rd.pi_plus == ()
    assert rd.r_minus == 0 and rd.r_plus == 0

    n = 6
    rd = record_decomposition(Permutation(tuple(range(1, n + 1))), n)
    assert rd.r_minus == n - 1 and rd.r_plus == 0


def test_record_decomposition_partitions_positions():
    perm = Permutation((5, 2, 6, 1, 4, 3))
    rd = record_decomposition(perm, 4)
    assert set(rd.s_minus) | set(rd.s_plus) == set(range(1, rd.position_n))
    assert set(rd.s_minus) & set(rd.s_plus) == set()


def test_decomposition_identity_exhaustive():
    # r_minus + r_plus equals the tree depth for every permutation, n <= 7.
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            perm = Permutation(values)
            bst = build_bst(perm)
            for l in range(1, n + 1):
                rd = record_decomposition(perm, l)
                assert rd.r_minus + rd.r_plus == bst.depth_of[l]


def test_decomposition_identity_random():
    # Random spot check at larger sizes; the bulk run lives in acceptance.
    rng = RngStream(seed=11)
    gen = rng.generator
    for _ in range(300):
        n = int(gen.integers(1, 301))
        perm = random_permutation(n, rng)
        bst = build_bst(perm)
        l = int(gen.integers(1, n + 1))
        rd = record_decomposition(perm, l)
        assert rd.r_minus + rd.r_plus == bst.depth_of[l]


def test_find_select_single_element():
    trace = find_select(Permutation((1,)), 1)
    assert trace.selected_value == 1
    assert trace.recursions == 0
    assert trace.comparisons == 0
    assert trace.pivot_sequence == (1,)


def test_find_select_traced_example():
    trace = find_select(Permutation((2, 4, 1, 3)), 3)
    assert trace.selected_value == 3
    assert trace.pivot_sequence == (2, 4, 3)
    assert trace.recursions == 2
    assert trace.recursions == node_depth(build_bst(Permutation((2, 4, 1, 3))), 3)


def test_find_select_worst_case_chain():
    trace = find_select(Permutation((1, 2, 3)), 3)
    assert trace.pivot_sequence == (1, 2, 3)
    assert trace.recursions == 2
    assert trace.comparisons == 2 + 1 + 0


def test_find_select_selects_correct_rank():
    rng = RngStream(seed=3)
    gen = rng.generator
    for _ in range(200):
        n = int(gen.integers(1, 60))
        perm = random_permutation(n, rng)
        l = int(gen.integers(1, n + 1))
        assert find_select(perm, l).selected_value == l


def test_find_select_domain():
    with pytest.raises(ValueError):
        find_select(Permutation((1, 2)), 0)
    with pytest.raises(ValueError):
        find_select(Permutation((1, 2)), 3)


def test_find_recursions_match_depth_pathwise_exhaustive():
    # Same permutation, same key: the recursion count equals the node depth,
    # and the exhaustive recursion-count pmf matches the enumeration oracle.
    for n in range(1, 8):
        fact = math.factorial(n)
        counts = {l: np.zeros(n, dtype=np.int64) for l in range(1, n + 1)}
        for values in permutations(range(1, n + 1)):
            perm = Permutation(values)
            bst = build_bst(perm)
            for l in range(1, n + 1):
                trace = find_select(perm, l)
                assert trace.recursions == bst.depth_of[l]
                counts[l][trace.recursions] += 1
        for l in range(1, n + 1):
            pmf = Pmf.from_masses(0, counts[l] / fact)
            assert float(total_variation(pmf, brute_force_depth_pmf(n, l))) == 0.0
