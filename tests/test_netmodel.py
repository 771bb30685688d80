"""Instance parsing, objectives, operators, and the enumeration oracle."""

import copy
import dataclasses
import itertools
import pickle
import random
import signal
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survroute import engine, kernels, netmodel
from survroute.cli import main as cli_main
from survroute.errors import ContractViolation, InstanceError, OracleScopeError, ParseError, ValidityError
from survroute.netmodel import (
    RouteAssignment,
    RouteProblem,
    _forest_depths,
    _reattach_options,
    assignment_from_parent_map,
    assignment_from_string,
    assignment_string,
    brute_force_pareto,
    crossover_parentmix,
    heavy_reattach,
    invalid_reason,
    iter_neighbors,
    load_instance,
    mutate_reattach,
    neighborhood,
    parse_instance,
    random_assignment,
)

from conftest import INSTANCE_DIR, GridProblem, layered_net_text, synthetic_net_text

MINIMAL = """
BS bs1 0.2
AR ar1 bs1
MR mr1
LINK mr1 ar1 5.0 0.1
"""

NESTED = """
# mr2 rides beneath mr1
BS bs1 0.0
AR ar1 bs1
MR mr1
MR mr2
LINK mr1 ar1 2.0 0.0
LINK mr2 mr1 1.0 0.0
MAXDEPTH 4
"""


# --- independent reference implementations (id-level walks, no kernels) ---

def naive_valid(inst, pm):
    ars = {ar for ar, _bs in inst.access_routers}
    for mr in inst.mobile_routers:
        cur = mr
        steps = 0
        seen = set()
        while True:
            if cur in seen:
                return False
            seen.add(cur)
            nxt = pm[cur]
            steps += 1
            if nxt in ars:
                if steps > inst.max_depth:
                    return False
                break
            cur = nxt
    return True


def naive_objectives(inst, pm):
    link = {(l.child, l.parent): l for l in inst.links}
    bs_fail = dict(inst.base_stations)
    ar_bs = dict(inst.access_routers)
    ars = set(ar_bs)
    z1 = 0.0
    z2 = 0.0
    for mr in inst.mobile_routers:
        cur = mr
        cost = 0.0
        surv = 1.0
        while True:
            l = link[(cur, pm[cur])]
            cost += l.cost
            surv *= 1.0 - l.fail_prob
            if pm[cur] in ars:
                surv *= 1.0 - bs_fail[ar_bs[pm[cur]]]
                break
            cur = pm[cur]
        z1 += cost
        z2 += 1.0 - surv
    return z1, z2


def parents_of(inst, a):
    """MR id -> parent id under ``a``, read back from its ``assignment_string`` ("mr=parent;...")."""
    return dict(entry.split("=") for entry in assignment_string(inst, a).split(";"))


def all_parent_maps(inst):
    per_mr = {mr: [] for mr in inst.mobile_routers}
    for l in inst.links:
        per_mr[l.child].append(l.parent)
    for combo in itertools.product(*(per_mr[mr] for mr in inst.mobile_routers)):
        yield dict(zip(inst.mobile_routers, combo))


def walk_feasible(inst, choices, m):
    """MR m's other links whose genotype a full route walk finds valid: one walk per alternative."""
    return [
        k for k in range(inst.compiled.radices[m])
        if k != choices[m] and kernels.eval_route(choices[:m] + (k,) + choices[m + 1:], inst.compiled)[2]
    ]


def walk_mutate(inst, a, rng):
    """mutate_reattach with walk_feasible: the same RNG draws in the same order."""
    m = int(rng.integers(inst.n_mr))
    feasible = walk_feasible(inst, a.choices, m)
    if not feasible:
        return a
    k = feasible[int(rng.integers(len(feasible)))]
    return RouteAssignment(a.choices[:m] + (k,) + a.choices[m + 1:])


def walk_heavy(inst, a, rng):
    """heavy_reattach with walk_feasible: the same RNG draws in the same order."""
    work = a.choices
    for m in rng.permutation(inst.n_mr)[: (inst.n_mr + 1) // 2].tolist():
        feasible = walk_feasible(inst, work, m)
        if feasible:
            work = work[:m] + (feasible[int(rng.integers(len(feasible)))],) + work[m + 1:]
    return RouteAssignment(work)


def naive_subtree(inst, a, m):
    """The MRs whose id-level parent walk under ``a`` (a valid forest) passes MR m, m included."""
    pm = parents_of(inst, a)
    target = inst.mobile_routers[m]
    found = set()
    for i, mr in enumerate(inst.mobile_routers):
        cur = mr
        while cur in pm:
            if cur == target:
                found.add(i)
                break
            cur = pm[cur]
    return found


def reference_walks(inst, choices):
    """Per MR, (None, depth) or (why its walk fails, steps walked): one walk per MR, no shared state."""
    c = inst.compiled
    reasons = []
    for m in range(inst.n_mr):
        cur, steps, seen, reason = m, 0, {m}, None
        while True:
            parent = c.mr_parents[cur][choices[cur]]
            steps += 1
            if parent < 0:
                reason = "depth" if steps > inst.max_depth else None
                break
            cur = parent
            if cur in seen:
                reason = "cycle"
                break
            seen.add(cur)
        reasons.append((reason, steps))
    return reasons


def per_draw_assignment(inst, rng):
    """``random_assignment`` with each index draw from one ``kernels.index_draws`` drawer in place of its block."""
    n = inst.n_mr
    choices = [0] * n
    level = [inst.max_depth + 1] * n + [0] * len(inst.access_routers)
    netmodel._attach(inst, choices, level, rng.permutation(n).tolist(), kernels.index_draws(rng))
    return RouteAssignment(tuple(choices))


def forest_instance(rng, n_mr, n_ar, max_depth):
    """Random instance with MR-MR candidate links, plus one valid forest of it (its choices).

    The witness forest attaches the MRs in a random order, each beneath an AR
    or an already attached MR with room below max_depth; every MR also gets
    up to five more candidate links, to ARs or to any other MR.
    """
    mrs = [f"m{i:02d}" for i in range(n_mr)]
    ars = [f"a{i}" for i in range(n_ar)]
    depth, witness = {}, {}
    for i in rng.sample(range(n_mr), n_mr):
        rooted = [j for j in depth if depth[j] < max_depth]
        if rooted and rng.random() < 0.7:
            j = rng.choice(rooted)
            witness[mrs[i]], depth[i] = mrs[j], depth[j] + 1
        else:
            witness[mrs[i]], depth[i] = rng.choice(ars), 1
    lines = ["BS b0 0.1", "BS b1 0.25"] + [f"AR {a} b{i % 2}" for i, a in enumerate(ars)]
    lines += [f"MR {m}" for m in mrs]
    for m in mrs:
        others = ars + [p for p in mrs if p != m]
        parents = {witness[m], *rng.sample(others, min(len(others), rng.randint(0, 5)))}
        lines += [f"LINK {m} {p} {rng.uniform(0.5, 5.0):.3f} {rng.uniform(0.0, 0.3):.3f}" for p in sorted(parents)]
    lines.append(f"MAXDEPTH {max_depth}")
    inst = parse_instance("\n".join(lines) + "\n")
    return inst, assignment_from_parent_map(inst, witness)


class TestParse:
    def test_minimal_counts(self):
        inst = parse_instance(MINIMAL)
        assert (len(inst.base_stations), len(inst.access_routers), len(inst.mobile_routers), len(inst.links)) == (1, 1, 1, 1)
        assert inst.max_depth == 4  # default when MAXDEPTH absent

    def test_records_in_any_order(self):
        scrambled = "\n".join(reversed(MINIMAL.strip().splitlines()))
        assert parse_instance(scrambled) == parse_instance(MINIMAL)

    def test_unknown_parent_rejected(self):
        with pytest.raises(InstanceError, match="ar9"):
            parse_instance(MINIMAL + "MR mr2\nLINK mr2 ar9 1.0 0.0\n")

    def test_probability_range(self):
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            parse_instance("BS b 1.3\n")

    def test_negative_cost(self):
        with pytest.raises(ParseError, match="cost"):
            parse_instance(MINIMAL + "MR mr2\nLINK mr2 ar1 -1.0 0.0\n")

    @pytest.mark.parametrize(
        "earlier, record", [("AR x b", "BS x 0.0"), ("MR x", "AR x b"), ("BS x 0.0", "MR x")], ids=["BS", "AR", "MR"]
    )
    def test_duplicate_id(self, earlier, record):
        # a record of the kind under test, on line 4, repeats the id of a record of another kind
        with pytest.raises(ParseError, match=r"^line 4: duplicate id 'x'$") as exc:
            parse_instance(f"BS b 0.0\n{earlier}\n# comment\n{record}\n")
        assert exc.value.line_no == 4

    def test_duplicate_link_pair(self):
        with pytest.raises(ParseError, match="duplicate link"):
            parse_instance(MINIMAL + "LINK mr1 ar1 9.0 0.0\n")

    def test_unknown_record(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("ROUTER r1 0.0\n")

    def test_malformed_id(self):
        with pytest.raises(ParseError, match="malformed id"):
            parse_instance("MR m-1!\n")

    def test_self_parent(self):
        with pytest.raises(InstanceError, match="own parent"):
            parse_instance("BS b 0.0\nAR a b\nMR m\nLINK m m 1.0 0.0\nLINK m a 1.0 0.0\n")

    def test_mr_without_links_infeasible(self):
        with pytest.raises(InstanceError, match="no candidate link"):
            parse_instance("BS b 0.0\nAR a b\nMR m\n")

    def test_ar_unknown_bs(self):
        with pytest.raises(InstanceError, match="unknown base station"):
            parse_instance("AR a nope\n")

    def test_duplicate_maxdepth(self):
        with pytest.raises(ParseError, match="MAXDEPTH"):
            parse_instance("MAXDEPTH 2\nMAXDEPTH 3\n")

    def test_comments_and_blank_lines(self):
        inst = parse_instance("# header\n\nBS b 0.0  # trailing\nAR a b\nMR m\nLINK m a 1 0\n")
        assert inst.base_stations == (("b", 0.0),)


class TestValidity:
    def test_depth_one_chain(self):
        inst = parse_instance(MINIMAL)
        assert invalid_reason(inst, RouteAssignment((0,))) is None

    def test_two_cycle(self, standard_instance):
        # m1 -> m2 (index 2) and m2 -> m1 (index 2)
        a = RouteAssignment((2, 2, 0))
        assert invalid_reason(standard_instance, a) == "cycle"

    def test_depth_limit(self):
        text = """
BS b 0.0
AR a b
MR m1
MR m2
MR m3
LINK m1 a 1.0 0.0
LINK m2 a 1.0 0.0
LINK m2 m1 1.0 0.0
LINK m3 a 1.0 0.0
LINK m3 m2 1.0 0.0
MAXDEPTH 2
"""
        inst = parse_instance(text)
        a = RouteAssignment((0, 1, 1))  # m3 -> m2 -> m1 -> a: 3 links deep
        assert invalid_reason(inst, a) == "depth"

    def test_malformed_assignment(self, standard_instance):
        with pytest.raises(ContractViolation):
            invalid_reason(standard_instance, RouteAssignment((0, 0)))
        with pytest.raises(ContractViolation):
            invalid_reason(standard_instance, RouteAssignment((9, 0, 0)))

    def test_reason_agrees_with_kernel_flag(self, standard_instance):
        # the python reason walk and the kernel validity flag must agree
        c = standard_instance.compiled
        problem = RouteProblem(standard_instance)
        for choices in itertools.product(*(range(r) for r in c.radices)):
            a = RouteAssignment(choices)
            reason = invalid_reason(standard_instance, a)
            if reason is None:
                problem.evaluate(a)
            else:
                with pytest.raises(ValidityError):
                    problem.evaluate(a)

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_non_integer_choice_is_contract_violation(self, standard_instance, bad):
        a = RouteAssignment((bad, 0, 0))
        for check in (RouteProblem(standard_instance).evaluate,
                      lambda g: assignment_string(standard_instance, g),
                      lambda g: invalid_reason(standard_instance, g)):
            with pytest.raises(ContractViolation, match="not an integer"):
                check(a)

    def test_integer_like_choices_accepted(self, standard_instance):
        expected = assignment_string(standard_instance, RouteAssignment((1, 1, 0)))
        assert assignment_string(standard_instance, RouteAssignment((np.int64(1), True, 0))) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reason_and_broken_match_per_mr_walks(self, data):
        # random choices, mostly invalid: cycles, over-deep paths, or both
        inst, _witness = forest_instance(
            random.Random(data.draw(st.integers(0, 2**32 - 1))),
            data.draw(st.integers(1, 12)), 1, data.draw(st.integers(1, 4)),
        )
        choices = tuple(data.draw(st.integers(0, r - 1)) for r in inst.compiled.radices)
        walks = reference_walks(inst, choices)
        first = next((reason for reason, _steps in walks if reason is not None), None)
        assert invalid_reason(inst, RouteAssignment(choices)) == first
        # _attach's level table, which crossover repair reads: an intact MR's walk length, and
        # max_depth + 1 for an MR whose walk fails, by a cycle or by depth
        assert _forest_depths(inst, list(choices)) == [
            steps if reason is None else inst.max_depth + 1 for reason, steps in walks
        ]


class TestObjectives:
    def test_single_link_cost(self):
        inst = parse_instance(MINIMAL)
        assert RouteProblem(inst).evaluate(RouteAssignment((0,))).values[0] == 5.0

    def test_nested_path_aggregation(self):
        # mr1 pays 2; mr2 pays 1 + 2: total 5
        inst = parse_instance(NESTED)
        assert RouteProblem(inst).evaluate(RouteAssignment((0, 0))).values[0] == 5.0

    def test_zero_cost_everywhere(self):
        inst = parse_instance(NESTED)
        assert RouteProblem(inst).evaluate(RouteAssignment((0, 0))).values[0] == 5.0
        assert RouteProblem(inst).evaluate(RouteAssignment((0, 0))).values[1] == 0.0

    def test_risk_product_formula(self):
        text = "BS b 0.2\nAR a b\nMR m\nLINK m a 1.0 0.1\n"
        inst = parse_instance(text)
        expected = 1.0 - (1.0 - 0.1) * (1.0 - 0.2)
        assert RouteProblem(inst).evaluate(RouteAssignment((0,))).values[1] == expected  # 0.28

    def test_certain_bs_failure(self):
        text = "BS b 1.0\nAR a b\nMR m\nLINK m a 1.0 0.0\n"
        inst = parse_instance(text)
        assert RouteProblem(inst).evaluate(RouteAssignment((0,))).values[1] == 1.0

    def test_matches_naive_walk_everywhere(self, standard_instance):
        inst = standard_instance
        for pm in all_parent_maps(inst):
            if not naive_valid(inst, pm):
                continue
            a = assignment_from_parent_map(inst, pm)
            assert RouteProblem(inst).evaluate(a).values == naive_objectives(inst, pm)

    def test_bounds_over_random_assignments(self, stress_instance):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = random_assignment(stress_instance, rng)
            z1, z2 = RouteProblem(stress_instance).evaluate(a).values
            assert z1 >= 0.0
            assert 0.0 <= z2 <= stress_instance.n_mr

    def test_monotone_in_cost_and_risk(self, standard_instance):
        rng = np.random.default_rng(5)
        a = random_assignment(standard_instance, rng)
        z1, z2 = RouteProblem(standard_instance).evaluate(a).values
        pm = parents_of(standard_instance, a)
        used_child = standard_instance.mobile_routers[0]
        used_pair = (used_child, pm[used_child])
        bumped_links = tuple(
            dataclasses.replace(l, cost=l.cost + 1.0, fail_prob=min(1.0, l.fail_prob + 0.1))
            if (l.child, l.parent) == used_pair
            else l
            for l in standard_instance.links
        )
        bumped = dataclasses.replace(standard_instance, links=bumped_links)
        b = assignment_from_parent_map(bumped, pm)
        z1b, z2b = RouteProblem(bumped).evaluate(b).values
        assert z1b >= z1 and z2b >= z2


class TestSerialization:
    def test_round_trip(self, stress_instance):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_assignment(stress_instance, rng)
            text = assignment_string(stress_instance, a)
            assert assignment_from_string(stress_instance, text) == a
            assert assignment_from_parent_map(stress_instance, parents_of(stress_instance, a)) == a

    def test_canonical_order(self, standard_instance):
        a = RouteAssignment((0, 0, 0))
        assert assignment_string(standard_instance, a) == "m1=a1;m2=a1;m3=a1"

    def test_round_trip_without_mrs(self):
        inst = parse_instance("BS b 0.1\nAR a b\n")
        assert assignment_string(inst, RouteAssignment(())) == ""
        assert assignment_from_string(inst, "") == RouteAssignment(())

    def test_repeated_entry_rejected(self, standard_instance):
        with pytest.raises(ContractViolation, match="'m1' is assigned more than once"):
            assignment_from_string(standard_instance, "m1=a2;m1=a1;m2=a1;m3=a1")

    def test_bad_parent_map_keys(self, standard_instance):
        with pytest.raises(ContractViolation):
            assignment_from_parent_map(standard_instance, {"m1": "a1"})

    @pytest.mark.parametrize("mapping", [
        {"m1": "m3", "m2": "a1", "m3": "zzz"},  # no such id
        {"m1": "m1", "m2": "a1", "m3": "a1"},  # a candidate parent of m2 and m3, not of m1
        {"m1": "m3", "m2": "a1", "m3": "a1=a1"},  # a parent containing the label separator
    ], ids=["unknown_id", "other_mrs_parent", "separator_in_parent"])
    def test_bad_parent_value(self, standard_instance, mapping):
        with pytest.raises(ContractViolation, match="has no candidate link"):
            assignment_from_parent_map(standard_instance, mapping)
        text = ";".join(f"{mr}={parent}" for mr, parent in mapping.items())
        with pytest.raises(ContractViolation, match="has no candidate link"):
            assignment_from_string(standard_instance, text)



# m0's candidate parents are m1 and m10, and m0 is not the last MR, so its choice tuples and its
# assignment strings sort differently: "m0=m10;..." < "m0=m1;..." since "0" < ";"
PREFIX_IDS = """
BS b0 0.1
AR a0 b0
MR m0
MR m1
MR m10
LINK m0 m1 1.0 0.1
LINK m0 m10 1.0 0.1
LINK m1 a0 2.0 0.1
LINK m10 a0 2.0 0.1
"""


class TestKeys:
    @settings(max_examples=40, deadline=None)
    @given(n_mr=st.integers(1, 60), links=st.integers(1, 6), instance_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1))
    def test_choice_tuples_sort_as_assignment_strings(self, n_mr, links, instance_seed, seed):
        # zero-padded ids, as every committed and synthetic instance has: the two orders agree
        inst = parse_instance(synthetic_net_text(n_mr, min(links, n_mr), 6, instance_seed))
        problem = RouteProblem(inst)
        rng = np.random.default_rng(seed)
        genotypes = [random_assignment(inst, rng) for _ in range(30)]
        by_key = sorted(genotypes, key=problem.genotype_key)
        assert by_key == sorted(genotypes, key=lambda g: assignment_string(inst, g))
        # and two keys are equal exactly when the strings are
        assert len({problem.genotype_key(g) for g in genotypes}) == len({assignment_string(inst, g) for g in genotypes})

    def test_a_parent_id_extended_by_a_digit_orders_keys_and_strings_apart(self, tmp_path):
        inst = parse_instance(PREFIX_IDS)
        problem = RouteProblem(inst)
        under_m1, under_m10 = RouteAssignment((0, 0, 0)), RouteAssignment((1, 0, 0))
        assert problem.evaluate(under_m1) == problem.evaluate(under_m10)
        assert problem.genotype_key(under_m1) < problem.genotype_key(under_m10)
        assert assignment_string(inst, under_m10) < assignment_string(inst, under_m1)
        # the archive keeps both in key order; front.csv is still sorted by the strings
        result = engine.run(problem, engine.RunParams(evaluation_budget=100, seed=0))
        assert [m.genotype_key for m in result.archive.members] == [(0, 0, 0), (1, 0, 0)]
        path = tmp_path / "prefix.net"
        path.write_text(PREFIX_IDS, encoding="utf-8")
        assert cli_main(["run", "--instance", str(path), "--out", str(tmp_path / "out"), "--budget", "100"]) == 0
        rows = (tmp_path / "out" / "front.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [
            assignment_string(inst, under_m10), assignment_string(inst, under_m1),
        ]


class TestRandomAssignment:
    def test_forced_single_choice(self):
        inst = parse_instance(MINIMAL)
        a = random_assignment(inst, np.random.default_rng(0))
        assert a.choices == (0,)

    def test_validity_sweep(self, standard_instance):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            assert invalid_reason(standard_instance, random_assignment(standard_instance, rng)) is None

    def test_seed_determinism(self, stress_instance):
        a = random_assignment(stress_instance, np.random.default_rng(11))
        b = random_assignment(stress_instance, np.random.default_rng(11))
        assert a == b

    def test_infeasible_instance_raises(self):
        # two MRs that can only attach beneath each other: no path to the access router, the first MR named
        text = "BS b 0.0\nAR a b\nMR m2\nMR m1\nLINK m1 m2 1.0 0.0\nLINK m2 m1 1.0 0.0\n"
        with pytest.raises(InstanceError, match=r"^mobile router 'm1' has no path to an access router \(infeasible\)$"):
            parse_instance(text)
        # m3's one path, m3 -> m2 -> m1 -> a, is a link longer than MAXDEPTH
        chain = "BS b 0.0\nAR a b\nMR m1\nMR m2\nMR m3\nLINK m1 a 1 0\nLINK m2 m1 1 0\nLINK m3 m2 1 0\n"
        deep = parse_instance(chain + "MAXDEPTH 3\n")
        message = r"^mobile router 'm3' is 3 links from an access router, beyond MAXDEPTH 2 \(infeasible\)$"
        with pytest.raises(InstanceError, match=message):
            parse_instance(chain + "MAXDEPTH 2\n")
        # an instance built past the verdict stalls attachment, which then raises the same error
        with pytest.raises(InstanceError, match=message):
            random_assignment(dataclasses.replace(deep, max_depth=2), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "text, stalls",
        [
            (synthetic_net_text(40, 6, 6, seed=11), False),
            (synthetic_net_text(200, 6, 6, seed=13), False),
            (layered_net_text(8, 10, 8, seed=1), True),
            (layered_net_text(5, 2, 5, seed=5), True),
        ],
        ids=["synthetic40", "synthetic200", "layered80", "layered10_at_maxdepth"],
    )
    def test_block_draws_what_a_drawer_draws(self, monkeypatch, text, stalls):
        inst = parse_instance(text)
        stalled = []
        check_feasible = netmodel._check_feasible

        def counting(instance):  # _attach calls it only when a sweep settles no MR
            stalled.append(instance)
            check_feasible(instance)

        monkeypatch.setattr(netmodel, "_check_feasible", counting)
        for seed in range(4):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert random_assignment(inst, ours) == per_draw_assignment(inst, ref)
                assert ours.bit_generator.state == ref.bit_generator.state
        assert bool(stalled) == stalls

    def test_block_on_an_infeasible_instance_raises_where_a_drawer_does(self):
        # m1 and m2 draw among two access routers, m3 between m1 and m2, and m4's one path has 3 links
        text = (
            "BS b 0.0\nAR a1 b\nAR a2 b\nMR m1\nMR m2\nMR m3\nMR m4\nLINK m1 a1 1 0\nLINK m1 a2 1 0\n"
            "LINK m2 a1 1 0\nLINK m2 a2 1 0\nLINK m3 m1 1 0\nLINK m3 m2 1 0\nLINK m4 m3 1 0\nMAXDEPTH 3\n"
        )
        inst = dataclasses.replace(parse_instance(text), max_depth=2)  # built past parse_instance's verdict
        message = r"^mobile router 'm4' is 3 links from an access router, beyond MAXDEPTH 2 \(infeasible\)$"
        for seed in range(8):
            ours, ref, order_only = (np.random.default_rng(seed) for _ in range(3))
            with pytest.raises(InstanceError, match=message):
                random_assignment(inst, ours)
            with pytest.raises(InstanceError, match=message):
                per_draw_assignment(inst, ref)
            assert ours.bit_generator.state == ref.bit_generator.state
            order_only.permutation(inst.n_mr)
            assert ours.bit_generator.state != order_only.bit_generator.state  # the draws before the stall stay drawn


class TestMutate:
    def test_single_candidate_unchanged(self):
        inst = parse_instance(MINIMAL)
        a = RouteAssignment((0,))
        assert mutate_reattach(inst, a, np.random.default_rng(0)) == a

    def test_edit_distance_at_most_one(self, stress_instance):
        rng = np.random.default_rng(4)
        a = random_assignment(stress_instance, rng)
        for _ in range(200):
            b = mutate_reattach(stress_instance, a, rng)
            assert sum(x != y for x, y in zip(a.choices, b.choices)) <= 1
            a = b

    def test_validity_sweep(self, stress_instance):
        rng = np.random.default_rng(6)
        a = random_assignment(stress_instance, rng)
        for _ in range(1000):
            a = mutate_reattach(stress_instance, a, rng)
            assert invalid_reason(stress_instance, a) is None

    def test_heavy_touches_at_most_half(self, stress_instance):
        rng = np.random.default_rng(8)
        a = random_assignment(stress_instance, rng)
        limit = (stress_instance.n_mr + 1) // 2
        for _ in range(200):
            b = heavy_reattach(stress_instance, a, rng)
            assert invalid_reason(stress_instance, b) is None
            assert sum(x != y for x, y in zip(a.choices, b.choices)) <= limit
            a = b

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reattach_matches_walk_per_alternative(self, data):
        if data.draw(st.booleans()):
            n_mr = data.draw(st.integers(1, 40))
            inst, a = forest_instance(
                random.Random(data.draw(st.integers(0, 2**32 - 1))),
                n_mr, data.draw(st.integers(1, 2)), data.draw(st.integers(1, n_mr + 1)),
            )
        else:
            # 8 levels of 10 MRs, from the all-up forest (each MR's min_link): its subtrees are 7 links high
            inst = parse_instance(layered_net_text(8, 10, 8, data.draw(st.integers(0, 2**32 - 1))))
            a = RouteAssignment(inst.compiled.min_link)
            depth = _forest_depths(inst, a.choices)
            assert max(max(depth[i] for i in naive_subtree(inst, a, m)) - depth[m] for m in range(inst.n_mr)) == 7
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(6):
            assert invalid_reason(inst, a) is None
            for m in range(inst.n_mr):
                assert _reattach_options(inst, a.choices, m)[0] == walk_feasible(inst, a.choices, m)
                assert _reattach_options(inst, list(a.choices), m)[0] == walk_feasible(inst, a.choices, m)
                assert _reattach_options(inst, a.choices, m)[1] == naive_subtree(inst, a, m)
            if step % 2:
                a, expected = heavy_reattach(inst, a, rng), walk_heavy(inst, a, ref_rng)
            else:
                a, expected = mutate_reattach(inst, a, rng), walk_mutate(inst, a, ref_rng)
            assert a == expected
            assert rng.random() == ref_rng.random()  # same draws, so the generators stay in step

    def test_cyclic_input_still_returns(self):
        # m1 -> m2 -> m1: invalid input; the scans are capped, so each call returns
        for depth in (2, 1_000_000_000):
            inst = parse_instance(CYCLE_2MR.format(depth=depth))
            a = assignment_from_string(inst, "m1=m2;m2=m1")
            rng = np.random.default_rng(0)
            with _time_limit(20):
                for m in range(inst.n_mr):
                    assert _reattach_options(inst, a.choices, m)[0] in ([], [0])
                assert len(mutate_reattach(inst, a, rng).choices) == 2
                assert len(heavy_reattach(inst, a, rng).choices) == 2


class TestReverseLinks:
    @staticmethod
    def assert_inverse(inst):
        """``mr_users`` lists, per MR, each MR with a link to it once, ascending; links to ARs are left out."""
        index = {mr: i for i, mr in enumerate(inst.mobile_routers)}
        expected = [[] for _ in inst.mobile_routers]
        for link in inst.links:
            if link.parent in index:
                expected[index[link.parent]].append(index[link.child])
        users = inst.compiled.mr_users
        assert type(users) is tuple and all(type(row) is tuple for row in users)
        assert all(len(set(row)) == len(row) for row in users)
        assert [list(row) for row in users] == [sorted(row) for row in expected]
        # the exact inverse of mr_parents' MR entries
        mr_parents = inst.compiled.mr_parents
        assert [list(row) for row in users] == [[i for i, ps in enumerate(mr_parents) if p in ps] for p in range(inst.n_mr)]

    @pytest.mark.parametrize("name", ["trivial_1mr", "standard_3mr", "stress_5mr"])
    def test_shipped_instances(self, name):
        self.assert_inverse(load_instance(INSTANCE_DIR / f"{name}.net"))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_forest_instances(self, data):
        n_mr = data.draw(st.integers(1, 40))
        inst, _witness = forest_instance(
            random.Random(data.draw(st.integers(0, 2**32 - 1))),
            n_mr, data.draw(st.integers(1, 2)), data.draw(st.integers(1, n_mr + 1)),
        )
        self.assert_inverse(inst)


class TestCrossover:
    def test_equal_parents_identity(self, stress_instance):
        rng = np.random.default_rng(9)
        a = random_assignment(stress_instance, rng)
        assert crossover_parentmix(stress_instance, a, a, rng) == a

    def test_validity_sweep(self, stress_instance):
        rng = np.random.default_rng(10)
        pool = [random_assignment(stress_instance, rng) for _ in range(20)]
        for _ in range(1000):
            i, j = rng.integers(len(pool)), rng.integers(len(pool))
            child = crossover_parentmix(stress_instance, pool[int(i)], pool[int(j)], rng)
            assert invalid_reason(stress_instance, child) is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_mr_coins_and_walks(self, data):
        # the child of one rng.random() per MR, whose broken MRs (by a per-MR walk) _attach repairs
        # in a random order, with the intact ones at their walk lengths in its level table
        inst, _witness = forest_instance(
            random.Random(data.draw(st.integers(0, 2**32 - 1))),
            data.draw(st.integers(1, 30)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 4)),
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        parents = [random_assignment(inst, rng) for _ in range(2)]
        assert parents == [random_assignment(inst, ref_rng) for _ in range(2)]
        for _ in range(4):
            a, b = parents[-2:]
            child = [ka if ref_rng.random() < 0.5 else kb for ka, kb in zip(a.choices, b.choices)]
            walks = reference_walks(inst, child)
            broken = [m for m, (reason, _steps) in enumerate(walks) if reason is not None]
            if broken:
                level = [steps if reason is None else inst.max_depth + 1 for reason, steps in walks]
                order = [broken[i] for i in ref_rng.permutation(len(broken)).tolist()]
                netmodel._attach(inst, child, level + [0] * len(inst.access_routers), order, kernels.index_draws(ref_rng))
            parents.append(crossover_parentmix(inst, a, b, rng))
            assert parents[-1] == RouteAssignment(tuple(child))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_inherits_from_parents_when_no_repair_possible(self):
        # star topology (every link goes straight to an AR): never needs repair
        text = """
BS b 0.0
AR a1 b
AR a2 b
MR m1
MR m2
LINK m1 a1 1.0 0.1
LINK m1 a2 2.0 0.0
LINK m2 a1 1.0 0.1
LINK m2 a2 2.0 0.0
"""
        inst = parse_instance(text)
        rng = np.random.default_rng(12)
        a = RouteAssignment((0, 1))
        b = RouteAssignment((1, 0))
        for _ in range(100):
            child = crossover_parentmix(inst, a, b, rng)
            assert all(c in (x, y) for c, x, y in zip(child.choices, a.choices, b.choices))


class TestNeighborhood:
    def test_matches_independent_count(self, standard_instance):
        inst = standard_instance
        a = random_assignment(inst, np.random.default_rng(14))
        pm = parents_of(inst, a)
        expected = 0
        per_mr = {mr: [] for mr in inst.mobile_routers}
        for l in inst.links:
            per_mr[l.child].append(l.parent)
        for mr in inst.mobile_routers:
            for parent in per_mr[mr]:
                if parent == pm[mr]:
                    continue
                trial = dict(pm)
                trial[mr] = parent
                expected += naive_valid(inst, trial)
        assert len(neighborhood(inst, a)) == expected

    def test_all_neighbors_valid_and_distinct_from_origin(self, stress_instance):
        a = random_assignment(stress_instance, np.random.default_rng(15))
        neighbors = neighborhood(stress_instance, a)
        assert a not in neighbors
        for b in neighbors:
            assert invalid_reason(stress_instance, b) is None

    def test_deterministic_order(self, standard_instance):
        a = random_assignment(standard_instance, np.random.default_rng(16))
        assert neighborhood(standard_instance, a) == neighborhood(standard_instance, a)

    @pytest.mark.parametrize("fixture", ["stress_instance", "synthetic40_instance"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_iter_neighbors_matches_reference_with_exact_objectives(self, fixture, request, seed):
        inst = request.getfixturevalue(fixture)
        a = random_assignment(inst, np.random.default_rng(seed))
        # reference order and membership from the separate invalid_reason walker
        expected = []
        for m in range(inst.n_mr):
            for k in range(inst.compiled.radices[m]):
                if k != a.choices[m]:
                    b = RouteAssignment(a.choices[:m] + (k,) + a.choices[m + 1:])
                    if invalid_reason(inst, b) is None:
                        expected.append(b)
        pairs = list(iter_neighbors(inst, a))
        assert [g for g, _ov in pairs] == expected == neighborhood(inst, a)
        for g, ov in pairs:
            assert ov.values == RouteProblem(inst).evaluate(g).values

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_delta_scores_match_one_walk_per_candidate(self, data):
        # MR-MR links and MAXDEPTH from 1 to n_mr + 1; the start is the witness forest or a few moves from it
        n_mr = data.draw(st.integers(1, 40))
        inst, a = forest_instance(
            random.Random(data.draw(st.integers(0, 2**32 - 1))),
            n_mr, data.draw(st.integers(1, 2)), data.draw(st.integers(1, n_mr + 1)),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(data.draw(st.integers(0, 3))):
            a = mutate_reattach(inst, a, rng)
        expected = []
        for m in range(n_mr):
            for k in range(inst.compiled.radices[m]):
                if k != a.choices[m]:
                    choices = a.choices[:m] + (k,) + a.choices[m + 1:]
                    z1, z2, ok = kernels.eval_route(choices, inst.compiled)
                    if ok:
                        expected.append((choices, z1.hex(), z2.hex()))
        got = [(g.choices, ov[0].hex(), ov[1].hex()) for g, ov in iter_neighbors(inst, a)]
        assert got == expected

    def test_invalid_genotype_raises(self):
        for depth in (2, 1_000_000_000):
            inst = parse_instance(CYCLE_2MR.format(depth=depth))
            with pytest.raises(ContractViolation, match="cycle"):
                iter_neighbors(inst, assignment_from_string(inst, "m1=m2;m2=m1"))


def assert_carries_fresh_terms(inst, g):
    """``g`` carries exactly the terms of a fresh full walk, and ``evaluate`` gives eval_route's bytes."""
    assert g._terms is not None
    cost, risk = [0.0] * inst.n_mr, [0.0] * inst.n_mr
    assert kernels.route_terms(g.choices, range(inst.n_mr), inst.compiled, cost, risk)
    assert [x.hex() for x in g._terms[0]] == [x.hex() for x in cost]
    assert [x.hex() for x in g._terms[1]] == [x.hex() for x in risk]
    z1, z2, ok = kernels.eval_route(g.choices, inst.compiled)
    assert ok
    assert [x.hex() for x in RouteProblem(inst).evaluate(g)] == [z1.hex(), z2.hex()]


@pytest.fixture
def counted_walks(monkeypatch):
    """The number of full route walks (``kernels.eval_route`` calls) made so far."""
    walks = []
    original = kernels.eval_route

    def counting(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "eval_route", counting)
    return walks


class TestCarriedTerms:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_operators_carry_the_terms_of_a_fresh_walk(self, data):
        # deep instances included: MAXDEPTH up to n_mr + 1 on MR-MR links
        n_mr = data.draw(st.integers(1, 40))
        max_depth = data.draw(st.integers(1, n_mr + 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        family = data.draw(st.sampled_from(["synthetic", "forest", "layered"]))
        if family == "synthetic":
            # every MR also has an access-router link, so random_assignment cannot stall
            links = data.draw(st.integers(1, min(6, n_mr)))
            inst = parse_instance(synthetic_net_text(n_mr, links, max_depth, seed))
            a = random_assignment(inst, rng)
        elif family == "forest":
            inst, witness = forest_instance(random.Random(seed), n_mr, data.draw(st.integers(1, 2)), max_depth)
            a = heavy_reattach(inst, witness, rng)  # the witness carries none; the heavy child walks itself
        else:
            # only the up links reach the access router, so attachment and crossover repair often stall
            levels = data.draw(st.integers(1, 8))
            width = data.draw(st.integers(2, 10))
            inst = parse_instance(layered_net_text(levels, width, levels + data.draw(st.integers(0, 1)), seed))
            a = random_assignment(inst, rng)
        # random and crossover genotypes are walked by the batch evaluation, which leaves them their terms
        RouteProblem(inst).evaluate_many([a])
        assert_carries_fresh_terms(inst, a)
        b = heavy_reattach(inst, a, rng)
        assert_carries_fresh_terms(inst, b)
        child = crossover_parentmix(inst, a, b, rng)
        RouteProblem(inst).evaluate_many([child])
        assert_carries_fresh_terms(inst, child)
        for _ in range(5):
            a = mutate_reattach(inst, a, rng)
            assert_carries_fresh_terms(inst, a)
        neighbors = list(iter_neighbors(inst, a))
        for g, ov in neighbors:
            assert_carries_fresh_terms(inst, g)
            assert [x.hex() for x in ov] == [x.hex() for x in RouteProblem(inst).evaluate(g)]
        if neighbors:  # an accepted move's own neighborhood starts from the terms it carries
            g = neighbors[data.draw(st.integers(0, len(neighbors) - 1))][0]
            for h, ov in iter_neighbors(inst, g):
                assert_carries_fresh_terms(inst, h)
                assert [x.hex() for x in ov] == [x.hex() for x in RouteProblem(inst).evaluate(h)]

    def test_equality_hash_and_repr_ignore_the_terms(self, stress_instance):
        a = random_assignment(stress_instance, np.random.default_rng(21))
        RouteProblem(stress_instance).evaluate_many([a])
        plain = RouteAssignment(a.choices)
        assert a._terms is not None and plain._terms is None
        assert a == plain and hash(a) == hash(plain)
        assert repr(a) == repr(plain) == f"RouteAssignment(choices={a.choices!r})"
        assert [f.name for f in dataclasses.fields(a) if f.init] == ["choices"]

    def test_built_genotypes_carry_no_terms_and_are_checked_and_walked(self, stress_instance, counted_walks):
        problem = RouteProblem(stress_instance)
        a = random_assignment(stress_instance, np.random.default_rng(22))
        problem.evaluate_many([a])  # the batch walk leaves it its terms
        problem.evaluate(a)
        assert counted_walks == []  # carried terms are added, not walked
        other = mutate_reattach(stress_instance, a, np.random.default_rng(23))
        assert other != a
        for g in (RouteAssignment(a.choices), dataclasses.replace(a), dataclasses.replace(a, choices=other.choices)):
            assert g._terms is None
            del counted_walks[:]
            assert problem.evaluate(g) == problem.evaluate(RouteAssignment(g.choices))
            assert len(counted_walks) == 2
        # checked: a bad choice is reported, where carried terms would have hidden it
        bad = dataclasses.replace(a, choices=(99,) + a.choices[1:])
        for check in (problem.evaluate, problem.genotype_key):
            with pytest.raises(ContractViolation, match="out of range"):
                check(bad)
        with pytest.raises(ContractViolation):
            list(iter_neighbors(stress_instance, bad))

    def test_copies_and_pickles_evaluate_bit_identically(self, stress_instance):
        problem = RouteProblem(stress_instance)
        parent = random_assignment(stress_instance, np.random.default_rng(24))
        problem.evaluate_many([parent])
        a = mutate_reattach(stress_instance, parent, np.random.default_rng(25))
        expected = [x.hex() for x in problem.evaluate(a)]
        for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert clone == a and clone._terms is not None
            assert [x.hex() for x in problem.evaluate(clone)] == expected
            assert problem.genotype_key(clone) == problem.genotype_key(a)

    def test_mutation_of_a_parent_without_terms_is_walked_in_full(self, stress_instance, counted_walks):
        problem = RouteProblem(stress_instance)
        rng = np.random.default_rng(26)
        parent = RouteAssignment(random_assignment(stress_instance, rng).choices)
        child = parent
        while child == parent:
            child = mutate_reattach(stress_instance, parent, rng)
        assert child._terms is None
        del counted_walks[:]
        z1, z2, _ok = kernels.eval_route(child.choices, stress_instance.compiled)
        assert problem.evaluate(child).values == (z1, z2)
        assert len(counted_walks) == 2  # the reference walk above, and evaluate's own


CYCLE_2MR = """
BS b 0.1
AR a b
MR m1
MR m2
LINK m1 a 1 0.1
LINK m1 m2 1 0.1
LINK m2 a 1 0.1
LINK m2 m1 1 0.1
MAXDEPTH {depth}
"""


def family_instance(data):
    """A drawn instance of the synthetic, forest or layered family, MAXDEPTH from 1 to n_mr + 1, and a seeded generator.

    Some draws turn link costs into ``-0.0``, which the walks must add as the scalar walk does.
    """
    n_mr = data.draw(st.integers(1, 30))
    max_depth = data.draw(st.integers(1, n_mr + 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    family = data.draw(st.sampled_from(["synthetic", "forest", "layered"]))
    if family == "synthetic":
        inst = parse_instance(synthetic_net_text(n_mr, data.draw(st.integers(1, min(6, n_mr))), max_depth, seed))
    elif family == "forest":
        inst = forest_instance(random.Random(seed), n_mr, data.draw(st.integers(1, 2)), max_depth)[0]
    else:
        levels = data.draw(st.integers(1, 6))
        inst = parse_instance(layered_net_text(levels, data.draw(st.integers(2, 6)), levels + data.draw(st.integers(0, 1)), seed))
    if data.draw(st.booleans()):
        pick = random.Random(seed)
        links = tuple(dataclasses.replace(l, cost=-0.0) if pick.random() < 0.5 else l for l in inst.links)
        inst = dataclasses.replace(inst, links=links)
    return inst, np.random.default_rng(seed)


def uniform_choices(inst, rng):
    """Choices drawn uniformly per MR: often a cycle, or a path longer than MAXDEPTH."""
    return tuple(kernels.index_draws(rng)(r) for r in inst.compiled.radices)


def outcome(evaluate_all):
    """The hex objectives ``evaluate_all()`` returns, or the type and message of the exception it raises."""
    try:
        return [tuple(v.hex() for v in ov) for ov in evaluate_all()]
    except Exception as exc:  # the comparison is the point: every exception type counts
        return type(exc), str(exc)


NO_MRS = "BS b0 0.1\nAR a0 b0\n"


class TestBatchEvaluation:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_batch_walk_matches_the_scalar_walk(self, data):
        inst, rng = family_instance(data)
        rows = [random_assignment(inst, rng).choices for _ in range(data.draw(st.integers(0, 4)))]
        rows += [uniform_choices(inst, rng) for _ in range(data.draw(st.integers(0, 8)))]
        self.assert_batch_walk_matches(inst, [rows[i] for i in rng.permutation(len(rows)).tolist()])

    @pytest.mark.parametrize("text", [NO_MRS, MINIMAL, CYCLE_2MR.format(depth=1), CYCLE_2MR.format(depth=2)],
                             ids=["no_mrs", "one_mr", "two_mrs_depth1", "two_mrs_depth2"])
    def test_batch_walk_on_every_assignment_of_a_tiny_instance(self, text):
        inst = parse_instance(text)
        rows = list(itertools.product(*(range(r) for r in inst.compiled.radices)))
        self.assert_batch_walk_matches(inst, rows)
        problem = RouteProblem(inst)
        valid = [RouteAssignment(row) for row in rows if invalid_reason(inst, RouteAssignment(row)) is None]
        for batch in ([RouteAssignment(row) for row in rows], valid):
            assert outcome(lambda: problem.evaluate_many(batch)) == outcome(lambda: [problem.evaluate(g) for g in batch])

    @staticmethod
    def assert_batch_walk_matches(inst, rows):
        """``route_terms_many`` on ``rows`` gives ``route_terms``'s validity per row, and its terms, bit for bit, on each valid row."""
        n = inst.n_mr
        cost, risk, ok = kernels.route_terms_many(np.array(rows, np.int64).reshape(len(rows), n), inst.compiled)
        assert cost.shape == risk.shape == (len(rows), n) and ok.shape == (len(rows),)
        for i, row in enumerate(rows):
            want_cost, want_risk = [0.0] * n, [0.0] * n
            valid = kernels.route_terms(row, range(n), inst.compiled, want_cost, want_risk)
            assert bool(ok[i]) == valid == (invalid_reason(inst, RouteAssignment(row)) is None)
            if valid:
                assert [x.hex() for x in cost[i].tolist()] == [x.hex() for x in want_cost]
                assert [x.hex() for x in risk[i].tolist()] == [x.hex() for x in want_risk]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_evaluate_many_is_evaluate_of_each(self, data):
        inst, rng = family_instance(data)
        problem = RouteProblem(inst)
        # genotypes that carry terms: evaluated random genotypes, their mutation children, heavy-mutation children
        carried = [random_assignment(inst, rng) for _ in range(data.draw(st.integers(0, 3)))]
        problem.evaluate_many(carried)
        carried += [mutate_reattach(inst, a, rng) for a in carried] + [heavy_reattach(inst, a, rng) for a in carried]
        fresh = [random_assignment(inst, rng) for _ in range(data.draw(st.integers(0, 3)))]
        a = random_assignment(inst, rng).choices
        bad = {
            "length": RouteAssignment(a + (0,)),
            "float": RouteAssignment((float(a[0]),) + a[1:]),
            "range": RouteAssignment((inst.compiled.radices[0],) + a[1:]),
            "list": RouteAssignment(list(a)),  # valid choices, held in a list: evaluate takes them one by one
            "uniform": RouteAssignment(uniform_choices(inst, rng)),  # often a cycle or too deep
        }
        batch = carried + fresh + [bad[kind] for kind in data.draw(st.lists(st.sampled_from(sorted(bad)), max_size=2))]
        batch = [batch[i] for i in rng.permutation(len(batch)).tolist()]
        expected = outcome(lambda: [problem.evaluate(g) for g in batch])
        # one walk for the whole batch, or slices of one, two or three genotypes
        positions = data.draw(st.sampled_from([netmodel._BATCH_POSITIONS, 1, inst.n_mr * 2, inst.n_mr * 3]))
        with mock.patch.object(netmodel, "_BATCH_POSITIONS", positions):
            assert outcome(lambda: problem.evaluate_many(batch)) == expected
        if isinstance(expected, list) and all(type(g.choices) is tuple for g in batch):
            # the whole batch was walked, and each genotype keeps its terms
            for g in batch:
                assert_carries_fresh_terms(inst, g)

    @pytest.mark.parametrize("depth, bad, reason", [(2, "m1=m2;m2=m1", "cycle"), (1, "m1=a;m2=m1", "depth")])
    def test_a_cycle_or_a_depth_failure_raises_what_evaluate_raises(self, depth, bad, reason):
        inst = parse_instance(CYCLE_2MR.format(depth=depth))
        problem = RouteProblem(inst)
        carried = [assignment_from_string(inst, "m1=a;m2=a")]
        problem.evaluate_many(carried)
        assert carried[0]._terms is not None
        fresh = assignment_from_string(inst, "m1=a;m2=a")
        for batch in ([carried[0], assignment_from_string(inst, bad), fresh], [fresh, carried[0], assignment_from_string(inst, bad)]):
            with pytest.raises(ValidityError, match=rf"invalid assignment \({reason}\)"):
                problem.evaluate_many(batch)
            assert outcome(lambda: problem.evaluate_many(batch)) == outcome(lambda: [problem.evaluate(g) for g in batch])
        assert fresh._terms is None  # a slice that fails leaves no terms behind

    def test_default_evaluate_many_is_a_loop_over_evaluate(self):
        problem = GridProblem()
        genotypes = [(0, 0), (3, 4), (7, 7)]
        assert problem.evaluate_many(genotypes) == [problem.evaluate(g) for g in genotypes]


class TestBruteForce:
    def test_trivial_two_point_front(self, trivial_instance):
        front = brute_force_pareto(trivial_instance)
        values = [ov.values for ov, _w in front]
        assert values == [(1.0, 1.0 - (1.0 - 0.3)), (5.0, 0.0)]

    def test_single_assignment_front(self):
        inst = parse_instance(MINIMAL)
        front = brute_force_pareto(inst)
        assert len(front) == 1
        assert front[0][0].values == (5.0, 1.0 - (1.0 - 0.1) * (1.0 - 0.2))

    def test_guard(self, standard_instance):
        with pytest.raises(OracleScopeError):
            brute_force_pareto(standard_instance, guard=10)

    def test_matches_naive_oracle(self, standard_instance):
        inst = standard_instance
        evaluated = [
            naive_objectives(inst, pm) for pm in all_parent_maps(inst) if naive_valid(inst, pm)
        ]
        naive_front = {
            p
            for p in evaluated
            if not any(
                q != p and q[0] <= p[0] and q[1] <= p[1] for q in evaluated
            )
        }
        assert {ov.values for ov, _w in brute_force_pareto(inst)} == naive_front

    @pytest.mark.parametrize("fixture", ["standard_instance", "stress_instance"])
    def test_witness_self_consistency(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        for ov, witness in brute_force_pareto(inst):
            assert invalid_reason(inst, witness) is None
            assert RouteProblem(inst).evaluate(witness).values == ov.values

    def test_search_space_size(self, standard_instance, stress_instance):
        assert standard_instance.compiled.search_space == 64
        assert stress_instance.compiled.search_space == 4 * 4 * 4 * 4 * 4


def test_route_problem_surface(standard_instance):
    problem = RouteProblem(standard_instance)
    rng = np.random.default_rng(17)
    g = problem.random_genotype(rng)
    assert invalid_reason(standard_instance, g) is None
    assert len(problem.evaluate(g)) == 2
    # the key is the choice tuple, which the archive compares; front.csv gets the assignment string
    assert problem.genotype_key(g) == g.choices
    assert assignment_from_string(standard_instance, assignment_string(standard_instance, g)).choices == g.choices
    assert invalid_reason(standard_instance, problem.mutate(g, rng)) is None
    assert invalid_reason(standard_instance, problem.crossover(g, problem.random_genotype(rng), rng)) is None
    for n, objectives in problem.neighborhood(g):
        assert invalid_reason(standard_instance, n) is None
        assert objectives == problem.evaluate(n)


@contextmanager
def _time_limit(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cycle_with_huge_max_depth_finishes(tmp_path):
    # route walks stop after n_mr links: a longer walk has revisited an MR
    results = {}
    for depth in (2, 1_000_000_000):
        path = tmp_path / f"cycle{depth}.net"
        path.write_text(CYCLE_2MR.format(depth=depth))
        out = tmp_path / f"front{depth}.csv"
        with _time_limit(20):
            assert cli_main(["oracle", str(path), "--out", str(out)]) == 0
            inst = load_instance(path)
            neighbors = neighborhood(inst, assignment_from_string(inst, "m1=a;m2=m1"))
        results[depth] = (out.read_text(), [assignment_string(inst, g) for g in neighbors])
    assert results[1_000_000_000] == results[2]
    assert results[2][0].splitlines()[1:] == ["2,0.38,m1=a;m2=a"]
    assert results[2][1] == ["m1=a;m2=a"]


def test_synthetic_net_text_rejects_more_links_than_mrs():
    # an MR has one access-router link and at most n_mr - 1 MR links
    with pytest.raises(ValueError):
        synthetic_net_text(1, 6, 6, 0)
    assert parse_instance(synthetic_net_text(6, 6, 6, 0)).compiled.radices == (6,) * 6


class TestDrawIndexKeepsTheDraws:
    """Operators and runs are the same with ``kernels.index_draws`` as with the numpy call it reproduces."""

    @staticmethod
    def use_numpy_draws(monkeypatch):
        """Put one ``int(rng.integers(n))`` per index in place of both draw forms in ``kernels``.

        The operators bind their drawer from there, and random attachment
        opens its ``IndexBlock`` from there; selection draws all its indices
        from one ``rng.integers`` call and binds none. The substitute block
        takes no outputs: each output the sweep reads is a stand-in whose
        product with n is one numpy draw at n in the high 32 bits, with low
        bits that no redraw test catches.

        Returns the list of the substitute's draws, as ("drawer", n) or
        ("block", n): a draw that does not go through a substitute is not
        counted, and a form missing from the list ran against itself.
        """
        calls = []

        def numpy_draws(rng):
            def draw(n):
                calls.append(("drawer", n))
                return int(rng.integers(n))
            return draw

        class NumpyBlock:
            def __init__(self, rng, size):
                self.rng, self.outputs, self.used = rng, self, 0

            def __getitem__(self, i):
                return self

            def __mul__(self, n):
                calls.append(("block", n))
                return int(self.rng.integers(n)) << 32 | 0xFFFFFFFF

            def redraw(self, n, m, i):
                raise AssertionError("a product whose low 32 bits are all ones needs no redraw")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

        monkeypatch.setattr(kernels, "index_draws", numpy_draws)
        monkeypatch.setattr(kernels, "IndexBlock", NumpyBlock)
        return calls

    @staticmethod
    def operator_chain(inst, seed):
        """Every genotype, with its carried terms, of a seeded chain of the attaching operators, and the generator state after it.

        Random and crossover genotypes get their terms from the batch evaluation, which draws nothing.
        """
        rng = np.random.default_rng(seed)
        problem = RouteProblem(inst)
        made = [random_assignment(inst, rng), random_assignment(inst, rng)]
        problem.evaluate_many(made)
        for _ in range(6):
            child = crossover_parentmix(inst, made[-2], made[-1], rng)
            problem.evaluate_many([child])
            made += [child, mutate_reattach(inst, child, rng), heavy_reattach(inst, child, rng)]
        return [(g.choices, g._terms) for g in made], rng.bit_generator.state

    @pytest.mark.parametrize(
        "text, stalls",
        [
            # every MR has an access-router link, so attachment never stalls
            (synthetic_net_text(40, 6, 6, seed=11), False),
            (synthetic_net_text(200, 6, 6, seed=13), False),
            # only the up links reach the access router: attachment stalls and takes shortest-path links
            (layered_net_text(8, 10, 8, seed=1), True),
            (layered_net_text(6, 4, 6, seed=2), True),
            # two MRs a level, so many stall, and the deepest at d* == MAXDEPTH: a stalled MR there must
            # not read as settled at its d*, or it keeps a link that is no forest
            (layered_net_text(5, 2, 5, seed=5), True),
        ],
        ids=["synthetic40", "synthetic200", "layered80", "layered24", "layered10_at_maxdepth"],
    )
    def test_operators(self, monkeypatch, text, stalls):
        inst = parse_instance(text)
        stalled = []
        check_feasible = netmodel._check_feasible

        def counting(instance):  # _attach calls it only when a sweep settles no MR
            stalled.append(instance)
            check_feasible(instance)

        monkeypatch.setattr(netmodel, "_check_feasible", counting)
        ours = [self.operator_chain(inst, seed) for seed in range(3)]
        numpy_draws = self.use_numpy_draws(monkeypatch)
        assert ours == [self.operator_chain(inst, seed) for seed in range(3)]
        assert {form for form, _n in numpy_draws} == {"drawer", "block"}
        assert all(terms is not None for chain, _state in ours for _choices, terms in chain)
        assert all(invalid_reason(inst, RouteAssignment(choices)) is None for chain, _state in ours for choices, _terms in chain)
        assert bool(stalled) == stalls
        if stalls:
            assert max(inst.compiled.min_depth) == inst.max_depth

    @pytest.mark.parametrize(
        "text", [synthetic_net_text(12, 4, 4, seed=3), layered_net_text(6, 4, 6, seed=2)], ids=["synthetic12", "layered24"]
    )
    def test_run(self, monkeypatch, text):
        params = engine.RunParams(
            population_size=20, offspring_size=20, archive_capacity=10, evaluation_budget=4000,
            stagnation_window=2, local_search_budget=5, seed=4,
        )
        generators = []  # each generator engine.run makes, to read its state after the run
        default_rng = np.random.default_rng

        def kept_rng(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", kept_rng)
        batches = []  # one entry per immigrant batch
        random_immigrants = engine.random_immigrants

        def counted_immigrants(*args, **kwargs):
            batches.append(None)
            return random_immigrants(*args, **kwargs)

        monkeypatch.setattr(engine, "random_immigrants", counted_immigrants)

        def run():
            result = engine.run(RouteProblem(parse_instance(text)), params)
            members = [(s.objectives, s.genotype_key, s.genotype._terms) for s in result.archive.members]
            return members, result.hv_trace, result.evaluations, result.scheduler_stats, generators[-1].bit_generator.state

        ours = run()
        immigrant_batches = len(batches)
        numpy_draws = self.use_numpy_draws(monkeypatch)
        assert ours == run()
        assert {form for form, _n in numpy_draws} == {"drawer", "block"}
        # both variation operators ran, and immigration did
        assert min(ours[3]["VAR"]["trials"]) > 0
        assert immigrant_batches > 0
