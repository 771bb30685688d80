"""Kernel-level checks: enumeration matches single walks, dominance matches the scalar classifier, hand-verifiable values hold."""

import dataclasses
import gc
import math
import tracemalloc

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

from conftest import numpy_crowding, synthetic_net_text
from integer_draws import IndexBlock, index_draws


def test_compiled_tables_are_plain_tuples(standard_instance, stress_instance):
    # MAXDEPTH far above n_mr, two access routers, MR-MR links that can cycle
    deep = parse_instance(
        "BS b0 0.1\nBS b1 0.2\nAR a0 b0\nAR a1 b1\nMR m0\nMR m1\n"
        "LINK m0 a1 1 0.1\nLINK m0 m1 1 0.1\nLINK m1 a0 1 0.1\nLINK m1 m0 1 0.1\nMAXDEPTH 1000000000\n"
    )
    for inst in (standard_instance, stress_instance, deep, parse_instance(synthetic_net_text(40, 6, 6, 11))):
        c = inst.compiled
        assert not any(isinstance(getattr(c, f.name), np.ndarray) for f in dataclasses.fields(c))
        assert type(c.radices) is tuple and all(type(r) is int for r in c.radices)
        assert type(c.ar_bs_surv) is tuple and all(type(v) is float for v in c.ar_bs_surv)
        # every link table is per MR: a tuple of plain-value tuples, one per MR, indexed by its choice
        for table, kind in ((c.mr_parents, int), (c.mr_costs, float), (c.mr_survs, float), (c.mr_labels, str)):
            assert type(table) is tuple and len(table) == inst.n_mr
            assert all(type(row) is tuple and all(type(v) is kind for v in row) for row in table)
            assert [len(row) for row in table] == list(c.radices)
        links = iter(inst.links)
        for m, mr in enumerate(inst.mobile_routers):
            for k in range(c.radices[m]):
                link = next(links)
                assert link.child == mr
                assert c.mr_labels[m][k] == f"{link.child}={link.parent}"
                assert c.mr_costs[m][k] == link.cost
                assert c.mr_survs[m][k] == 1.0 - link.fail_prob
                # mr_parents decodes to the link's parent id: an MR index, or an access router counted from the end
                p = c.mr_parents[m][k]
                assert (inst.mobile_routers[p] if p >= 0 else inst.access_routers[p][0]) == link.parent
        assert next(links, None) is None
        bs_fail = dict(inst.base_stations)
        assert c.ar_bs_surv == tuple(1.0 - bs_fail[bs] for _ar, bs in inst.access_routers)
        assert c.steps == min(inst.max_depth, inst.n_mr)
    assert deep.compiled.steps == deep.n_mr == 2


def _assert_enumeration_matches_eval_route(inst):
    """enumerate_routes equals one eval_route walk per flat index: validity exactly, floats bit for bit.

    The floats are compared on valid rows only: enumerate_routes leaves z1 and z2
    unspecified on invalid rows.
    """
    c = inst.compiled
    valid, z1, z2 = enumerate_routes(c)
    size = c.search_space
    assert valid.shape == z1.shape == z2.shape == (size,)
    # the reference is the eval_route walk, one assignment at a time
    ref = [kernels.eval_route(tuple(int(k) for k in np.unravel_index(flat, c.radices)), c) for flat in range(size)]
    assert valid.tolist() == [ok for _a, _b, ok in ref]
    rows = np.flatnonzero(valid)
    assert z1[rows].tobytes() == np.array([ref[i][0] for i in rows], dtype=np.float64).tobytes()
    assert z2[rows].tobytes() == np.array([ref[i][1] for i in rows], dtype=np.float64).tobytes()
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
    valid = _assert_enumeration_matches_eval_route(inst)
    assert 0 < valid.sum() < valid.size


def test_enumerate_routes_walk_cap_decides_validity():
    # a chain: m{i} links to the access router and to m{i-1}, so no walk can cycle
    n = 7
    lines = ["BS b0 0.1", "BS b1 0.3", "AR a0 b0", "AR a1 b1"] + [f"MR m{i}" for i in range(n)]
    for i in range(n):
        lines.append(f"LINK m{i} a{i % 2} {1 + i / 8} {i / 50}")
        if i:
            lines.append(f"LINK m{i} m{i - 1} {2 + i / 4} {i / 40}")
    text = "\n".join(lines) + "\n"
    capped = parse_instance(text + "MAXDEPTH 3\n")
    assert capped.compiled.steps == 3 < n
    valid = _assert_enumeration_matches_eval_route(capped)
    # an assignment is valid exactly when no MR's walk takes more than 3 links
    for flat, ok in enumerate(valid.tolist()):
        choices = np.unravel_index(flat, capped.compiled.radices)
        run = longest = 0
        for k in choices:  # a walk from m{i} follows the chain while the choices are 1
            run = run + 1 if k == 1 else 0
            longest = max(longest, run)
        assert ok == (longest + 1 <= 3)
    assert _assert_enumeration_matches_eval_route(parse_instance(text + f"MAXDEPTH {n}\n")).all()


def test_enumerate_routes_with_single_link_mrs():
    # m1 and m3 have one link each (to an MR and to the access router), the others several; m0-m2 can cycle
    inst = parse_instance(
        "BS b0 0.1\nBS b1 0.2\nAR a0 b0\nAR a1 b1\nMR m0\nMR m1\nMR m2\nMR m3\nMR m4\n"
        "LINK m0 a0 1.5 0.1\nLINK m0 m2 0.5 0.05\nLINK m0 m4 0.7 0.02\n"
        "LINK m1 m0 0.25 0.01\n"
        "LINK m2 a1 3 0.2\nLINK m2 m1 0.3 0.03\n"
        "LINK m3 a1 2 0.15\n"
        "LINK m4 a0 1 0.05\nLINK m4 m3 0.4 0.04\nLINK m4 m1 0.6 0.06\nMAXDEPTH 4\n"
    )
    assert inst.compiled.radices == (3, 1, 2, 1, 3)
    valid = _assert_enumeration_matches_eval_route(inst)
    assert 0 < valid.sum() < valid.size
    # only single-link MRs: one assignment, one row
    only = parse_instance("BS b 0.5\nAR a b\nMR m0\nMR m1\nLINK m0 a 1 0\nLINK m1 m0 2 0\n")
    assert _assert_enumeration_matches_eval_route(only).tolist() == [True]


def test_enumerate_routes_skips_a_cycle_of_other_mrs():
    # m0 may attach under m1, and m1 and m2 under each other: m0's walks through m1 enter the m1-m2 cycle
    inst = parse_instance(
        "BS b0 0.1\nBS b1 0.2\nAR a0 b0\nAR a1 b1\nMR m0\nMR m1\nMR m2\n"
        "LINK m0 a0 4 0.1\nLINK m0 m1 0.5 0.05\n"
        "LINK m1 a1 2 0.2\nLINK m1 m2 0.25 0.01\n"
        "LINK m2 a0 3 0.15\nLINK m2 m1 0.75 0.03\nMAXDEPTH 3\n"
    )
    assert inst.compiled.radices == (2, 2, 2)
    valid = _assert_enumeration_matches_eval_route(inst).reshape(inst.compiled.radices)
    # m1 under m2 and m2 under m1 is invalid whatever m0 takes; every other assignment is valid
    assert not valid[:, 1, 1].any()
    assert valid.sum() == 6


def test_enumerate_routes_cycle_closes_at_walk_cap():
    # a ring m0 -> m1 -> m2 -> m3 -> m0 of as many links as the walk cap, and a 3-link cycle m1 -> m2 -> m3 -> m1
    inst = parse_instance(
        "BS b0 0.1\nBS b1 0.3\nAR a0 b0\nAR a1 b1\nMR m0\nMR m1\nMR m2\nMR m3\n"
        "LINK m0 a0 1 0.1\nLINK m0 m1 0.5 0.02\n"
        "LINK m1 a1 2 0.2\nLINK m1 m2 0.25 0.01\n"
        "LINK m2 a0 1.5 0.05\nLINK m2 m3 0.75 0.04\n"
        "LINK m3 a1 3 0.15\nLINK m3 m0 0.125 0.03\nLINK m3 m1 0.375 0.06\nMAXDEPTH 4\n"
    )
    c = inst.compiled
    assert c.steps == inst.n_mr == 4 and c.radices == (2, 2, 2, 3)
    valid = _assert_enumeration_matches_eval_route(inst).reshape(c.radices)
    assert not valid[1, 1, 1, 1]  # the 4-link ring, closed by the walk's last link
    assert not valid[:, 1, 1, 2].any()  # the 3-link cycle, whatever m0 takes
    assert valid[1, 1, 1, 0]  # the ring cut at m3: m0's walk takes all 4 links


def test_enumerate_routes_frees_its_arrays():
    # with the collector off, a reference cycle would keep the full-space arrays alive after del
    c = parse_instance(synthetic_net_text(8, 4, 4, seed=3)).compiled
    rows = c.search_space
    enumerate_routes(c)
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = enumerate_routes(c)
        held = tracemalloc.get_traced_memory()[0] - base
        del result
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held >= rows * 17  # one bool and two float64 per row
    assert left < rows // 8


def test_dominance_matrix_matches_pairwise_dominates():
    # a small integer range gives many ties and duplicate rows
    rng = np.random.default_rng(5)
    for n, d in ((1, 2), (7, 2), (40, 2), (7, 3), (20, 3), (40, 3)):
        F = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        rows = F.tolist()
        if d == 2:
            vectors = [ObjectiveVector(row) for row in rows]
            expected = np.array([[dominates(a, b) is Dominance.DOMINATES for b in vectors] for a in vectors])
        else:  # ObjectiveVector holds two components: weak Pareto dominance written out
            expected = np.array([
                [all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b)) for b in rows] for a in rows
            ])
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


def _sequential_front(z1, z2, key):
    """The rows that lower the best z2 seen so far, in (z1, z2, key) order."""
    z1, z2, key = z1.tolist(), z2.tolist(), key.tolist()  # Python floats sort the same, and much faster
    expected, best = [], math.inf
    for j in sorted(range(len(z1)), key=lambda j: (z1[j], z2[j], key[j])):
        if z2[j] < best:
            best = z2[j]
            expected.append(j)
    return expected


def test_front_rows_ignore_tie_order():
    # 6000 rows on a 40 x 40 grid: every z1 value is tied about 150 times, and numpy's default sort is not stable
    rng = np.random.default_rng(11)
    n = 6000
    z1 = rng.integers(0, 40, n).astype(np.float64)
    z2 = rng.integers(0, 40, n).astype(np.float64) / 8
    key = rng.permutation(n).astype(np.int64) * 3
    rows = front_rows(z1, z2, key)
    assert rows.tolist() == _sequential_front(z1, z2, key)
    for seed in range(5):  # the same rows, as keys, whatever order the rows come in
        perm = np.random.default_rng(seed).permutation(n)
        assert key[perm][front_rows(z1[perm], z2[perm], key[perm])].tolist() == key[rows].tolist()


def _assert_front_rows_sequential(z1, z2, key=None):
    key = np.arange(z1.size, dtype=np.int64)[::-1] if key is None else key
    assert front_rows(z1, z2, key).tolist() == _sequential_front(z1, z2, key)


def test_front_rows_no_rows_and_one_row():
    empty = np.array([], np.float64)
    assert front_rows(empty, empty, np.array([], np.int64)).tolist() == []
    _assert_front_rows_sequential(np.array([2.5]), np.array([0.5]))


def test_front_rows_all_z1_equal():
    # no z1 span: every row goes to the sort, and the least z2 with the least key wins
    z2 = np.random.default_rng(3).integers(0, 5, 500).astype(np.float64)
    _assert_front_rows_sequential(np.full(500, 7.25), z2)
    assert front_rows(np.full(500, 7.25), z2, np.arange(500)).tolist() == [int(np.argmin(z2))]


def test_front_rows_one_ulp_apart_at_bucket_edges():
    # z1 spans 0 to 1023, so the prefilter's buckets start at the integers; each edge gets the value
    # on it and its neighbours one ulp either side, with z2 values that tie across them
    rng = np.random.default_rng(4)
    edges = np.arange(1024, dtype=np.float64)
    z1 = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    z1 = np.clip(z1, 0.0, 1023.0)
    for _ in range(5):
        z2 = rng.integers(0, 4, z1.size) - np.linspace(0.0, 3.0, z1.size)
        _assert_front_rows_sequential(z1, z2)
        _assert_front_rows_sequential(z1, -z2)
    # a staircase one ulp a step across the edge at 512 (where the ulp doubles): every row is on the front
    steps = [512.0]
    for _ in range(32):
        steps.insert(0, float(np.nextafter(steps[0], -np.inf)))
    for _ in range(31):
        steps.append(float(np.nextafter(steps[-1], np.inf)))
    z1 = np.array(steps + [0.0, 1023.0])
    z2 = np.r_[np.linspace(1.0, 0.5, 64), 2.0, 0.0]
    assert front_rows(z1, z2, np.arange(66)).tolist() == [64] + list(range(64)) + [65]
    _assert_front_rows_sequential(z1, z2)


def test_front_rows_one_far_outlier():
    # one z1 far above the rest puts almost every row in the first bucket
    rng = np.random.default_rng(5)
    z1 = np.r_[rng.integers(0, 50, 5000) / 16, 1e9]
    z2 = np.r_[rng.integers(0, 50, 5000) / 16, -1.0]
    _assert_front_rows_sequential(z1, z2)
    _assert_front_rows_sequential(z1[::-1], z2[::-1])
    # a z1 span too wide for a double (max - min overflows) and one too narrow to scale (1023 / span overflows)
    z2 = np.array([3.0, 1.0, 2.0, 0.0, 1.0])
    _assert_front_rows_sequential(np.array([-1e308, 0.0, 5.0, 1e308, 1e308]), z2)
    _assert_front_rows_sequential(np.array([0.0, 0.0, 5e-324, 5e-324, 1e-323]), z2)


def test_front_rows_negative_values():
    rng = np.random.default_rng(6)
    z1 = 25.0 - rng.integers(0, 200, 3000) / 4  # either side of zero
    z1[rng.integers(0, 3000, 50)] = -0.0  # tied with the rows at 0.0
    z2 = -rng.integers(0, 200, 3000) / 4  # -0.0 where the draw is 0
    _assert_front_rows_sequential(z1, z2)
    _assert_front_rows_sequential(z1 - 1e3, z2)


def test_front_rows_many_rows_with_ties():
    rng = np.random.default_rng(7)
    n = 200_000
    z1 = rng.integers(0, 3000, n) / 8
    z2 = rng.integers(0, 3000, n) / 8
    key = rng.permutation(n).astype(np.int64)
    _assert_front_rows_sequential(z1, z2, key)
    # a front of many rows: points near the anti-diagonal
    z2 = np.floor(3000.0 - z1 * 8 + rng.integers(0, 40, n)) / 8
    _assert_front_rows_sequential(z1, z2, key)


def test_crowding_distance_hand_case():
    d = crowding_distance([(0.0, 4.0), (2.0, 2.0), (4.0, 0.0)])
    assert np.isinf(d[0]) and np.isinf(d[2])
    # interior point: (4-0)/4 per objective
    assert d[1] == pytest.approx(2.0)
    assert all(type(v) is float for v in d)


def test_crowding_distance_all_equal_objectives():
    d = crowding_distance([(1.0, 1.0)] * 4)
    assert np.isinf(d[0]) and np.isinf(d[-1])
    assert d[1] == 0.0 and d[2] == 0.0


# five levels per objective, so ties in one objective, in both, and repeated vectors are common
levels = st.sampled_from([0.0, 0.1, 0.7, 1.3, 3.0])


@st.composite
def tied_points(draw):
    pts = draw(st.lists(st.tuples(levels, levels), min_size=1, max_size=30))
    pts += draw(st.lists(st.sampled_from(pts), max_size=10))  # repeats
    return draw(st.permutations(pts))


@settings(max_examples=300, deadline=None)
@given(tied_points())
def test_crowding_distance_equals_numpy_form(points):
    # the same float operations in the same order; ties resolved in input order by both stable sorts
    expected = [float(v).hex() for v in numpy_crowding(points)]
    assert [v.hex() for v in crowding_distance(points)] == expected


def test_hv2d_sweep_worked_example():
    assert hv2d_sweep([(1.0, 2.0), (2.0, 1.0)], 3.0, 3.0) == 3.0
    # a repeated vector and a dominated point lower no z2, so they add nothing
    assert hv2d_sweep([(1.0, 2.0), (1.0, 2.0), (1.5, 2.0), (2.0, 1.0), (2.5, 1.5)], 3.0, 3.0) == 3.0


# The pre-change index draws (integer_draws), which test_golden's history test picks with again:
# each must make the draws of Generator.integers and leave the generator where it does.
BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)
# small n as the operators draw them, and n where Lemire's draw redraws often: for n just
# above 2**31 the threshold (2**32 - n) % n is near n, so about half of all outputs are redrawn
DRAW_SIZES = (*range(1, 9), 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1)


def _same_state(x, y):
    """Two ``bit_generator.state`` values are equal, numpy arrays (MT19937's key) elementwise and by dtype."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_state(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


def _twins(bit_generator, seed=2024):
    return tuple(np.random.Generator(bit_generator(seed)) for _ in range(2))


def _single_draws(rng):
    """A drawer that binds ``index_draws(rng)`` anew for each draw."""
    return lambda n: index_draws(rng)(n)


def _equals_numpy_integers(drawers, bit_generator, n):
    ours, twin = _twins(bit_generator)
    draw = drawers(ours)
    for i in range(200):
        # doubles come from 64-bit outputs, permutations partly from the buffered 32-bit half
        # (has_uint32, uinteger) that the index draws also use
        if i % 5 == 1:
            assert ours.random() == twin.random()
        if i % 7 == 2:
            assert ours.random(3).tolist() == twin.random(3).tolist()
        if i % 11 == 3:
            assert ours.permutation(5).tolist() == twin.permutation(5).tolist()
        k = draw(n)
        assert type(k) is int
        assert k == int(twin.integers(n))
        assert _same_state(ours.bit_generator.state, twin.bit_generator.state)


def _redraws_like_numpy(drawers, bit_generator):
    # count the 32-bit outputs 100 draws at n = 2**31 + 1 take: rejections must really occur
    ours, counter = _twins(bit_generator)
    draw = drawers(ours)
    for _ in range(100):
        draw(2**31 + 1)
    c = counter.bit_generator.ctypes
    used = 0
    while not _same_state(counter.bit_generator.state, ours.bit_generator.state):
        c.next_uint32(c.state_address)
        used += 1
        assert used < 1000
    assert used > 120


def _beyond_32_bits_or_not_an_int_is_numpy(drawers, n):
    ours, twin = _twins(np.random.PCG64)
    draw = drawers(ours)
    for _ in range(20):
        assert draw(n) == int(twin.integers(n))
    assert _same_state(ours.bit_generator.state, twin.bit_generator.state)


def _raises_as_numpy(drawers, n):
    ours, twin = _twins(np.random.PCG64)
    draw = drawers(ours)
    with pytest.raises(ValueError) as ours_error:
        draw(n)
    with pytest.raises(ValueError) as numpy_error:
        twin.integers(n)
    assert str(ours_error.value) == str(numpy_error.value)


WIDE_SIZES = (2**32, 2**32 + 1, 3 * 2**40, 2**63 - 1, np.int64(5), np.uint32(7))
BAD_SIZES = (0, -1, -(2**40), 2**64)


# "draw_index": one index draw through a drawer of its own, bound for that draw only
@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_draw_index_equals_numpy_integers(bit_generator, n):
    _equals_numpy_integers(_single_draws, bit_generator, n)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_draw_index_redraws_like_numpy(bit_generator):
    _redraws_like_numpy(_single_draws, bit_generator)


@pytest.mark.parametrize("n", WIDE_SIZES)
def test_draw_index_beyond_32_bits_or_not_an_int_is_numpy(n):
    _beyond_32_bits_or_not_an_int_is_numpy(_single_draws, n)


@pytest.mark.parametrize("n", BAD_SIZES)
def test_draw_index_raises_as_numpy(n):
    _raises_as_numpy(_single_draws, n)


@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_index_draws_equals_numpy_integers(bit_generator, n):
    _equals_numpy_integers(index_draws, bit_generator, n)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_index_draws_redraws_like_numpy(bit_generator):
    _redraws_like_numpy(index_draws, bit_generator)


@pytest.mark.parametrize("n", WIDE_SIZES)
def test_index_draws_beyond_32_bits_or_not_an_int_is_numpy(n):
    _beyond_32_bits_or_not_an_int_is_numpy(index_draws, n)


@pytest.mark.parametrize("n", BAD_SIZES)
def test_index_draws_raises_as_numpy(n):
    _raises_as_numpy(index_draws, n)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_index_draws_keeps_its_generator_alive(bit_generator):
    # the drawer holds the only reference to its generator; the state address it draws from must stay valid
    draw = index_draws(np.random.Generator(bit_generator(2024)))
    gc.collect()
    twins = [np.random.Generator(bit_generator(2024)) for _ in range(20)]  # they would take a freed state's memory
    sizes = [*range(1, 9), 2**31 + 1, 2**32 - 1] * 5
    assert [draw(n) for n in sizes] == [int(twins[-1].integers(n)) for n in sizes]


def _block_draws(block, sizes):
    """The draws at each n of ``sizes`` from the open ``IndexBlock`` ``block``, as its docstring makes them.

    Reads from ``block.used`` on and stores the cursor back there.
    """
    outputs, i, picks = block.outputs, block.used, []
    for n in sizes:
        if n == 1:
            picks.append(0)
            continue
        m = outputs[i] * n
        i += 1
        if m & 0xFFFFFFFF < n:
            m, i = block.redraw(n, m, i)
        picks.append(m >> 32)
    block.used = i
    return picks


@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_index_block_equals_numpy_integers(bit_generator, n):
    ours, twin = _twins(bit_generator)
    # (outputs taken, draws made): every output used, some, or none
    for i, (size, count) in enumerate(((1, 1), (5, 3), (40, 40), (40, 17), (3, 0), (200, 200), (200, 150))):
        # between blocks, doubles come from 64-bit outputs, permutations partly from the buffered
        # 32-bit half (has_uint32, uinteger) that the blocks also read
        assert ours.random() == twin.random()
        if i % 2:
            assert ours.permutation(5).tolist() == twin.permutation(5).tolist()
        with IndexBlock(ours, size) as block:
            picks = _block_draws(block, [n] * count)
            if n == 2**31 + 1 and count == size == 200:  # about half the outputs are redrawn
                assert len(block.outputs) > size
        assert all(type(k) is int for k in picks)
        assert picks == [int(twin.integers(n)) for _ in range(count)]
        assert _same_state(ours.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_index_block_that_reads_no_output_leaves_the_state(bit_generator):
    rng = np.random.Generator(bit_generator(2024))
    rng.integers(7)  # a buffered 32-bit half is pending where the generator keeps one
    before = rng.bit_generator.state
    for size in (0, 1, 50):
        with IndexBlock(rng, size) as block:  # no draw, then draws at 1, which read nothing
            assert _block_draws(block, []) == []
        assert _same_state(rng.bit_generator.state, before)
        with IndexBlock(rng, size) as block:
            assert _block_draws(block, [1] * size) == [0] * size
        assert _same_state(rng.bit_generator.state, before)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_index_block_closed_by_an_exception_leaves_the_per_draw_state(bit_generator):
    ours, twin = _twins(bit_generator)
    sizes = [3, 2**31 + 1, 6, 1, 5] * 8
    with pytest.raises(RuntimeError, match="mid-block"):
        with IndexBlock(ours, 60) as block:
            picks = _block_draws(block, sizes)
            raise RuntimeError("mid-block")
    draw = index_draws(twin)
    assert picks == [draw(n) for n in sizes]
    assert _same_state(ours.bit_generator.state, twin.bit_generator.state)
