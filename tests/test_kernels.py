"""Kernel-level checks: both paths agree, enumeration matches single walks, hand-verifiable values hold."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute import kernels
from survroute.kernels import (
    _dominance_matrix_loops,
    _dominance_matrix_numpy,
    crowding_distance,
    dominance_matrix,
    eval_route,
    enumerate_routes,
    hv2d_sweep,
    nondominated_mask,
    python_impl,
)
from survroute.netmodel import parse_instance, random_assignment

from conftest import synthetic_net_text


def _route_args(inst, choices):
    """eval_route's arguments for ``choices``, as ``netmodel._walk`` passes them."""
    return (
        kernels.walk_input(tuple(int(k) for k in choices), np.int64),
        *inst.compiled.walk_tables,
        inst.n_ar,
        inst.max_depth,
    )


def _array_route_args(inst, choices):
    """The same walk on the numpy tables that ``enumerate_routes`` reads."""
    c = inst.compiled
    return (
        np.asarray(choices, dtype=np.int64),
        c.mr_link_offset,
        c.link_parent_code,
        c.link_cost,
        c.link_fail,
        c.ar_bs_fail,
        inst.n_ar,
        inst.max_depth,
    )


def test_eval_route_paths_bit_identical(standard_instance):
    rng = np.random.default_rng(11)
    py = python_impl(eval_route)
    c = standard_instance.compiled
    for _ in range(200):
        choices = [rng.integers(r) for r in c.radix_ints]
        args = _route_args(standard_instance, choices)
        assert eval_route(*args) == py(*args)


def test_walk_tables_are_plain_tuples_on_fallback(standard_instance):
    tables = standard_instance.compiled.walk_tables
    if kernels.NUMBA_ENABLED:
        assert all(isinstance(t, np.ndarray) for t in tables)
    else:
        assert all(type(t) is tuple for t in tables)
        assert all(type(v) is int for v in tables[0] + tables[1])
        assert all(type(v) is float for v in tables[2] + tables[3] + tables[4])


def test_eval_route_tuple_and_array_tables_bit_identical(synthetic40_instance):
    """The walk on plain tuples equals the walk on numpy arrays, bit for bit, on valid and invalid genotypes."""
    inst = synthetic40_instance
    rng = np.random.default_rng(12)
    py = python_impl(eval_route)
    valid = 0
    for i in range(300):
        if i % 2:
            choices = list(random_assignment(inst, rng).choices)
        else:
            choices = [int(rng.integers(r)) for r in inst.compiled.radix_ints]
        got = py(*_route_args(inst, choices))
        want = py(*_array_route_args(inst, choices))
        valid += got[2]
        assert got[2] == want[2]
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert 0 < valid < 300


def _assert_enumeration_matches_eval_route(inst):
    """enumerate_routes equals one eval_route walk per flat index: validity exactly, floats bit for bit."""
    c = inst.compiled
    valid, z1, z2 = enumerate_routes(
        c.radices, c.mr_link_offset, c.link_parent_code, c.link_cost, c.link_fail,
        c.ar_bs_fail, inst.n_ar, inst.max_depth,
    )
    shape = c.radix_ints
    size = int(np.prod(shape))
    assert valid.shape == z1.shape == z2.shape == (size,)
    # the reference walks the same tables as netmodel._walk, one assignment at a time
    ref = [eval_route(*_route_args(inst, np.unravel_index(flat, shape))) for flat in range(size)]
    assert valid.tolist() == [ok for _a, _b, ok in ref]
    assert z1.tobytes() == np.array([a for a, _b, _ok in ref], dtype=np.float64).tobytes()
    assert z2.tobytes() == np.array([b for _a, b, _ok in ref], dtype=np.float64).tobytes()
    return valid


def test_enumerate_matches_single_eval(standard_instance):
    _assert_enumeration_matches_eval_route(standard_instance)


@st.composite
def small_net_texts(draw):
    """Instances of up to 5 MRs whose MR-MR links can form cycles; possibly no access router at all."""
    n_ar = draw(st.integers(0, 2))
    mrs = [f"m{i}" for i in range(draw(st.integers(2 if n_ar == 0 else 1, 5)))]
    ars = [f"a{i}" for i in range(n_ar)]
    lines = ["BS b0 0.1", "BS b1 0.25"] + [f"AR {a} b{i % 2}" for i, a in enumerate(ars)]
    lines += [f"MR {m}" for m in mrs]
    unit = st.floats(0.0, 1.0)
    for m in mrs:
        candidates = ars + [p for p in mrs if p != m]
        for p in draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True)):
            lines.append(f"LINK {m} {p} {draw(st.floats(0.0, 100.0))!r} {draw(unit)!r}")
    lines.append(f"MAXDEPTH {draw(st.integers(1, len(mrs) + 1))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(text=small_net_texts())
def test_enumerate_routes_matches_eval_route(text):
    _assert_enumeration_matches_eval_route(parse_instance(text))


def test_enumerate_routes_depth_one():
    inst = parse_instance(synthetic_net_text(5, 3, 1, seed=4))
    valid = _assert_enumeration_matches_eval_route(inst)
    assert 0 < valid.sum() < valid.size


def test_enumerate_routes_without_access_router_links():
    text = "BS b 0.1\nAR a b\nMR m1\nMR m2\nMR m3\n"
    text += "LINK m1 m2 1 0.1\nLINK m2 m3 1 0.1\nLINK m2 m1 1 0.1\nLINK m3 m1 2 0.2\n"
    valid = _assert_enumeration_matches_eval_route(parse_instance(text))
    assert not valid.any()


def test_enumerate_routes_across_blocks():
    inst = parse_instance(synthetic_net_text(9, 3, 4, seed=5))
    space = inst.compiled.search_space
    assert space > kernels._BLOCK_ROWS and space % kernels._BLOCK_ROWS != 0
    valid = _assert_enumeration_matches_eval_route(inst)
    assert 0 < valid.sum() < valid.size


def test_dominance_matrix_implementations_agree():
    rng = np.random.default_rng(5)
    for n, d in ((1, 2), (7, 2), (20, 3), (40, 2)):
        F = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        assert (_dominance_matrix_numpy(F) == np.asarray(_dominance_matrix_loops(F))).all()


def test_dominance_matrix_orientation():
    F = np.array([[1.0, 2.0], [2.0, 3.0], [2.0, 1.0]])
    dom = dominance_matrix(F)
    assert dom[0, 1] and not dom[1, 0]  # (1,2) dominates (2,3)
    assert not dom[0, 2] and not dom[2, 0]  # trade-off
    assert not dom[0, 0]


def test_nondominated_mask_keeps_duplicates():
    F = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 3.0]])
    assert nondominated_mask(F).tolist() == [True, True, False]


def test_crowding_distance_hand_case():
    F = np.array([[0.0, 4.0], [2.0, 2.0], [4.0, 0.0]])
    d = crowding_distance(F)
    assert np.isinf(d[0]) and np.isinf(d[2])
    # interior point: (4-0)/4 per objective
    assert d[1] == pytest.approx(2.0)


def test_crowding_distance_all_equal_objectives():
    F = np.array([[1.0, 1.0]] * 4)
    d = crowding_distance(F)
    assert np.isinf(d[0]) and np.isinf(d[-1])
    assert d[1] == 0.0 and d[2] == 0.0


def test_crowding_paths_bit_identical():
    rng = np.random.default_rng(3)
    py = python_impl(crowding_distance)
    for _ in range(50):
        F = rng.random((rng.integers(1, 12), 2))
        expected = py(F)
        got = crowding_distance(F)
        assert (np.asarray(got) == np.asarray(expected)).all()


def test_hv2d_sweep_worked_example():
    F = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert hv2d_sweep(F, 3.0, 3.0) == 3.0
    assert python_impl(hv2d_sweep)(F, 3.0, 3.0) == 3.0
