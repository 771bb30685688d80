"""Kernel-level checks: enumeration matches single walks, dominance matches the scalar classifier, hand-verifiable values hold."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute import kernels
from survroute.errors import InstanceError
from survroute.kernels import (
    crowding_distance,
    dominance,
    dominance_matrix,
    enumerate_routes,
    front_rows,
    hv2d_sweep,
)
from survroute.moo import Dominance, ObjectiveVector, dominates
from survroute.netmodel import CandidateLink, NetworkInstance, parse_instance

from conftest import synthetic_net_text


def test_compiled_tables_are_plain_tuples(standard_instance, stress_instance):
    c = standard_instance.compiled
    assert not any(isinstance(getattr(c, f.name), np.ndarray) for f in dataclasses.fields(c))
    for table in (c.radices, c.mr_link_offset, c.link_parent):
        assert type(table) is tuple and all(type(v) is int for v in table)
    for table in (c.link_cost, c.link_fail, c.ar_bs_fail):
        assert type(table) is tuple and all(type(v) is float for v in table)
    # MAXDEPTH far above n_mr, two access routers, MR-MR links that can cycle
    deep = parse_instance(
        "BS b0 0.1\nBS b1 0.2\nAR a0 b0\nAR a1 b1\nMR m0\nMR m1\n"
        "LINK m0 a1 1 0.1\nLINK m0 m1 1 0.1\nLINK m1 a0 1 0.1\nLINK m1 m0 1 0.1\nMAXDEPTH 1000000000\n"
    )
    for inst in (standard_instance, stress_instance, deep):
        c = inst.compiled
        # link_parent decodes to each link's parent id: an MR index, or an access router counted from the end
        decoded = [inst.mobile_routers[p] if p >= 0 else inst.access_routers[p][0] for p in c.link_parent]
        assert decoded == [link.parent for link in inst.links]
        assert c.steps == min(inst.max_depth, inst.n_mr)
    assert deep.compiled.steps == deep.n_mr == 2


def _assert_enumeration_matches_eval_route(inst):
    """enumerate_routes equals one eval_route walk per flat index: validity exactly, floats bit for bit."""
    c = inst.compiled
    valid, z1, z2 = enumerate_routes(c)
    size = c.search_space
    assert valid.shape == z1.shape == z2.shape == (size,)
    # the reference is the eval_route walk, one assignment at a time
    ref = [kernels.eval_route(tuple(int(k) for k in np.unravel_index(flat, c.radices)), c) for flat in range(size)]
    assert valid.tolist() == [ok for _a, _b, ok in ref]
    assert z1.tobytes() == np.array([a for a, _b, _ok in ref], dtype=np.float64).tobytes()
    assert z2.tobytes() == np.array([b for _a, b, _ok in ref], dtype=np.float64).tobytes()
    return valid


def test_enumerate_matches_single_eval(standard_instance):
    _assert_enumeration_matches_eval_route(standard_instance)


@st.composite
def small_instances(draw):
    """Instances of up to 5 MRs whose MR-MR links can form cycles; possibly no access router at all.

    Built with the constructor, in canonical order, so an infeasible one (which
    ``parse_instance`` rejects) is drawn too.
    """
    n_ar = draw(st.integers(0, 2))
    mrs = [f"m{i}" for i in range(draw(st.integers(2 if n_ar == 0 else 1, 5)))]
    ars = [f"a{i}" for i in range(n_ar)]
    unit = st.floats(0.0, 1.0)
    links = []
    for m in mrs:
        candidates = ars + [p for p in mrs if p != m]
        for p in sorted(draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))):
            links.append(CandidateLink(m, p, draw(st.floats(0.0, 100.0)), draw(unit)))
    return NetworkInstance(
        base_stations=(("b0", 0.1), ("b1", 0.25)),
        access_routers=tuple((a, f"b{i % 2}") for i, a in enumerate(ars)),
        mobile_routers=tuple(mrs),
        links=tuple(links),
        max_depth=draw(st.integers(1, len(mrs) + 1)),
    )


def instance_text(inst):
    """The instance file text of ``inst``; floats by repr, so it parses back exactly."""
    lines = [f"BS {bs} {p!r}" for bs, p in inst.base_stations]
    lines += [f"AR {ar} {bs}" for ar, bs in inst.access_routers]
    lines += [f"MR {m}" for m in inst.mobile_routers]
    lines += [f"LINK {l.child} {l.parent} {l.cost!r} {l.fail_prob!r}" for l in inst.links]
    lines.append(f"MAXDEPTH {inst.max_depth}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(inst=small_instances())
def test_enumerate_routes_matches_eval_route(inst):
    valid = _assert_enumeration_matches_eval_route(inst)
    # the load verdict: parse_instance accepts exactly the instances with a valid assignment
    if valid.any():
        assert parse_instance(instance_text(inst)) == inst
    else:
        with pytest.raises(InstanceError, match="infeasible"):
            parse_instance(instance_text(inst))


def test_enumerate_routes_depth_one():
    inst = parse_instance(synthetic_net_text(5, 3, 1, seed=4))
    valid = _assert_enumeration_matches_eval_route(inst)
    assert 0 < valid.sum() < valid.size


def test_enumerate_routes_without_access_router_links():
    inst = NetworkInstance(  # infeasible, so built with the constructor: parse_instance rejects it
        base_stations=(("b", 0.1),),
        access_routers=(("a", "b"),),
        mobile_routers=("m1", "m2", "m3"),
        links=(
            CandidateLink("m1", "m2", 1.0, 0.1),
            CandidateLink("m2", "m1", 1.0, 0.1),
            CandidateLink("m2", "m3", 1.0, 0.1),
            CandidateLink("m3", "m1", 2.0, 0.2),
        ),
    )
    valid = _assert_enumeration_matches_eval_route(inst)
    assert not valid.any()


def test_enumerate_routes_across_blocks():
    inst = parse_instance(synthetic_net_text(9, 3, 4, seed=5))
    space = inst.compiled.search_space
    assert space > kernels._BLOCK_ROWS and space % kernels._BLOCK_ROWS != 0
    valid = _assert_enumeration_matches_eval_route(inst)
    assert 0 < valid.sum() < valid.size


def test_dominance_matrix_matches_pairwise_dominates():
    # a small integer range gives many ties and duplicate rows
    rng = np.random.default_rng(5)
    for n, d in ((1, 2), (7, 2), (40, 2), (7, 3), (20, 3), (40, 3)):
        F = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        vectors = [ObjectiveVector(tuple(row)) for row in F.tolist()]
        expected = np.array([[dominates(a, b) is Dominance.DOMINATES for b in vectors] for a in vectors])
        assert (dominance_matrix(F) == expected).all()
        for i in range(n):  # one vector against many, both ways, as the archive asks
            assert (dominance(F, F[i]) == expected[:, i]).all()
            assert (dominance(F[i], F) == expected[i]).all()


def test_dominance_matrix_orientation():
    F = np.array([[1.0, 2.0], [2.0, 3.0], [2.0, 1.0]])
    dom = dominance_matrix(F)
    assert dom[0, 1] and not dom[1, 0]  # (1,2) dominates (2,3)
    assert not dom[0, 2] and not dom[2, 0]  # trade-off
    assert not dom[0, 0]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_front_rows_match_sequential_scan(data):
    # few distinct values, so ties in z1, in z2 and in both are common
    n = data.draw(st.integers(0, 30))
    z1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.float64)
    z2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.float64) / 8
    key = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    # in (z1, z2, key) order, keep each row that lowers the best z2 seen so far
    expected, best = [], math.inf
    for j in sorted(range(n), key=lambda j: (z1[j], z2[j], key[j])):
        if z2[j] < best:
            best = z2[j]
            expected.append(j)
    assert front_rows(z1, z2, key).tolist() == expected


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


def test_hv2d_sweep_worked_example():
    F = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert hv2d_sweep(F, 3.0, 3.0) == 3.0
