#!/usr/bin/env python3
"""survroute benchmark: closed loops of in-process CLI calls, with checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload ls_n40 --seed 1 --seconds 25 --trace 0

Each workload writes its own synthetic instances from ``--seed`` and calls
``survroute.cli.main`` back to back, one call at a time in this one process,
until ``--seconds`` have passed and every instance has been run at least
once. Every output is checked against an independent model of the instance
(``netcheck.py``); the oracle is also checked byte for byte against the
committed fronts of the shipped instances. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates two
untraced and two traced calls on the first instance and reports the
per-layer metrics of ``spans.py``; the two traced calls must repeat every
count, and every call the front, exactly.

Files go to ``.perfbench_work/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from netcheck import check_front, dominates, evaluate, make_net, random_front_hv, random_parents
from spans import COUNT_NAMES, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INSTANCES = ROOT / "instances"
SHIPPED_ORACLE_CASES = ("standard_3mr", "stress_5mr")
SETUP_LOADS = 5  # timed loads after each call; setup_s is the median over the run
REFERENCE_PROBE_S = 0.020  # speed-probe seconds that define the reference speed
ORACLE_SAMPLES = 2000  # random assignments that must not dominate an oracle front
MAX_DEPTH = 6


@dataclass(frozen=True)
class Workload:
    n_mr: int
    links_per_mr: int
    instances: int  # instances per run, all drawn from the workload seed
    run_args: tuple[str, ...] | None  # extra `run` arguments; None runs `oracle`
    fixed_topology: bool = False  # links fixed per workload; the seed draws costs and probabilities


# Instance counts are sized so that a run's mean over its instances is steady from seed to
# seed: one call's cost and front vary by about 20% between instances, and an `ls_n40`
# call also depends on which local-search operator its single iteration draws.
EVO_ARGS = ("--ls-budget", "0", "--population", "100", "--offspring", "100", "--capacity", "100")
WORKLOADS = {
    # local search dominates: each neighborhood call validates ~200 neighbors, at most 20 are evaluated
    "ls_n40": Workload(40, 6, 24, ("--budget", "400")),
    # no local search: archive, ranking, scheduler and hypervolume work shows beside 40-MR walks
    "evo_n40": Workload(40, 6, 12, ("--budget", "1500") + EVO_ARGS),
    # long walks, small archive: route walks and crossover repair dominate
    "evo_n200": Workload(200, 6, 14, ("--budget", "500") + EVO_ARGS),
    # exhaustive enumeration of 5**8 assignments; none of the engine runs. Enumeration cost
    # depends on the link topology alone, so it is fixed and the seed draws the rest.
    "oracle_n8": Workload(8, 5, 4, None, fixed_topology=True),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_hv": "ratio",
}


class SpeedProbe:
    """Fixed pure-Python work, timed before and after every CLI call to track the host's speed.

    On a shared 2-vCPU virtual machine the host alternates between states
    about 1.45x apart in speed, each lasting tens of seconds: long enough to
    move every timing of a whole run. Reported times are therefore scaled to
    a reference speed, by REFERENCE_PROBE_S over the mean probe time of the
    run. The probe is this benchmark's own code, so no change to the program
    can alter it, and any work the program does still counts in full. Raw
    seconds and the probe times are kept in ``calls.json``.
    """

    def __init__(self):
        rng = random.Random("speed-probe")
        self.net = make_net(40, 6, MAX_DEPTH, rng, rng)
        self.maps = [random_parents(self.net, rng) for _ in range(64)] * 10

    def __call__(self) -> float:
        start = perf_counter()
        for parents in self.maps:
            evaluate(self.net, parents)
        return perf_counter() - start


class Bench:
    """Counts attempted and failed operations; every failure is printed with its reason."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.probe = SpeedProbe()
        self.probe_s: list[float] = []

    def speed_factor(self) -> float:
        """Multiplier that takes this run's raw seconds to the reference speed."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probe_s)

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAILED {what}: {p}", file=sys.stderr)

    def call(self, argv: list[str]) -> tuple[bool, float]:
        """One timed `survroute` CLI call between two speed probes; returns (exit code was 0, raw seconds)."""
        from survroute import cli

        self.attempted += 1
        self.probe_s.append(self.probe())
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = traceback.format_exc()
        wall = perf_counter() - start
        self.probe_s.append(self.probe())
        if rc != 0:
            self.fail(argv[0], [rc if isinstance(rc, str) else f"exit code {rc}"])
        return rc == 0, wall


def instance_set(name: str, wl: Workload, seed: int, work: Path) -> list:
    nets = []
    for i in range(wl.instances):
        values = random.Random(f"{name}:{seed}:{i}")
        topology = random.Random(f"{name}:topology") if wl.fixed_topology else values
        net = make_net(wl.n_mr, wl.links_per_mr, MAX_DEPTH, topology, values)
        path = work / f"instance-{i}.net"
        path.write_text(net.text, encoding="utf-8")
        nets.append((net, path))
    return nets


def check_shipped_oracle(bench: Bench) -> None:
    for case in SHIPPED_ORACLE_CASES:
        out = bench.work / f"{case}.front.csv"
        ok, _wall = bench.call(["oracle", str(INSTANCES / f"{case}.net"), "--out", str(out)])
        if ok and out.read_bytes() != (INSTANCES / f"{case}.front.csv").read_bytes():
            bench.fail(f"oracle {case}", ["output differs from the committed front"])


def time_setup(bench: Bench, path: Path, times: list[float]) -> None:
    """Append SETUP_LOADS raw times of `load_instance` plus the first `.compiled` access."""
    from survroute import load_instance

    for _ in range(SETUP_LOADS):
        bench.attempted += 1
        start = perf_counter()
        try:
            load_instance(path).compiled
        except Exception:
            bench.fail("load_instance", [traceback.format_exc()])
            continue
        times.append(perf_counter() - start)


class Runner:
    """Runs and checks one CLI call of a workload on one instance."""

    def __init__(self, bench: Bench, wl: Workload, seed: int):
        from survroute import netmodel

        self.bench, self.wl, self.seed = bench, wl, seed
        self.first: dict[int, dict] = {}  # instance -> record of its first call
        self.out = bench.work / "out"
        self.out.mkdir()
        # bound now, so that checks made while tracing call the untraced functions
        self.netmodel = (netmodel.load_instance, netmodel.assignment_from_string, netmodel.assignment_string)

    def argv(self, path: Path, out: Path) -> list[str]:
        if self.wl.run_args is None:
            return ["oracle", str(path), "--out", str(out / "front.csv")]
        return ["run", "--instance", str(path), "--out", str(out), "--seed", str(self.seed), *self.wl.run_args]

    def once(self, i: int, net, path: Path) -> dict | None:
        out = self.out
        ok, wall = self.bench.call(self.argv(path, out))
        if not ok:
            return None
        front = (out / "front.csv").read_bytes()
        rec = {"instance": i, "raw_wall_s": wall, "sha1": hashlib.sha1(front).hexdigest()}
        if i in self.first:
            if rec["sha1"] != self.first[i]["sha1"]:
                self.bench.fail(f"instance {i}", ["front.csv differs from an earlier call with the same seed"])
                return None
            rec["evals"], rec["final_hv"] = self.first[i]["evals"], self.first[i]["final_hv"]
            return rec
        problems, points = self.check(net, path, front.decode("utf-8"), out, rec)
        if problems:
            self.bench.fail(f"instance {i}", problems)
            return None
        rec["final_hv"] = random_front_hv(net, points)
        self.first[i] = rec
        return rec

    def check(self, net, path: Path, text: str, out: Path, rec: dict) -> tuple[list[str], list]:
        load_instance, assignment_from_string, assignment_string = self.netmodel

        if self.wl.run_args is None:
            points, problems = check_front(net, text)
            rec["evals"] = math.prod(len(links) for links in net.links.values())
            rng = random.Random(f"oracle-check:{path.name}")
            for _ in range(ORACLE_SAMPLES):
                z = evaluate(net, random_parents(net, rng))
                if any(dominates(z, p) for p in points):
                    problems.append(f"oracle front misses a dominating assignment at {z}")
                    break
        else:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            params = summary["params"]
            rec["evals"] = evals = summary["evaluations"]
            points, problems = check_front(net, text, params["capacity"])
            if not params["budget"] <= evals <= max(params["population"], params["budget"] + params["offspring"]):
                problems.append(f"evaluations {evals} outside the budget contract {params}")
        inst = load_instance(path)
        for line in text.splitlines()[1:]:
            genotype = line.split(",", 2)[2]
            if assignment_string(inst, assignment_from_string(inst, genotype)) != genotype:
                problems.append(f"genotype does not round-trip: {genotype[:60]}")
        return problems, points


def end_to_end(name: str, wl: Workload, seed: int, seconds: float, bench: Bench) -> dict:
    nets = instance_set(name, wl, seed, bench.work)
    setup: list[float] = []
    runner = Runner(bench, wl, seed)
    if wl.run_args is not None:  # warm the engine once; oracle paths were warmed by the shipped checks
        bench.call(["run", "--instance", str(nets[0][1]), "--out", str(bench.work / "warm"), "--budget", "200"])
    records = []
    start = perf_counter()
    k = 0
    while k < len(nets) or perf_counter() - start < seconds:
        i = k % len(nets)
        rec = runner.once(i, *nets[i])
        time_setup(bench, nets[i][1], setup)  # spread over the run, like the calls
        if rec is not None:
            records.append(rec)
            print(f"call {k} instance {i} raw_wall_s {rec['raw_wall_s']:.4f} evals {rec['evals']} sha1 {rec['sha1']}")
        k += 1
    factor = bench.speed_factor()
    log = {"speed_factor": factor, "probe_s": bench.probe_s, "calls": records}
    (bench.work / "calls.json").write_text(json.dumps(log, indent=1), encoding="utf-8")

    walls = {
        i: factor * statistics.fmean(r["raw_wall_s"] for r in records if r["instance"] == i) for i in runner.first
    }
    done = len(walls) == len(nets)
    metrics = {
        "wall_s": statistics.fmean(walls.values()) if done else math.nan,
        "evals_per_s": sum(runner.first[i]["evals"] for i in walls) / sum(walls.values()) if done else math.nan,
        "setup_s": factor * statistics.median(setup) if setup else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_hv": statistics.fmean(r["final_hv"] for r in runner.first.values()) if done else math.nan,
    }
    if not done:
        bench.fail(name, ["not every instance produced a checked front"])
    return {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in metrics.items()}


def per_layer(name: str, wl: Workload, seed: int, bench: Bench) -> dict:
    net, path = instance_set(name, wl, seed, bench.work)[0]
    runner = Runner(bench, wl, seed)
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    for call in (0, 1, 0, 2):  # untraced and traced calls alternate; 0 marks an untraced call
        traced = call > 0
        tracer.call = call
        if traced:
            tracer.install()
        try:
            rec = runner.once(0, net, path)
        finally:
            tracer.uninstall()
        walls[traced].append(rec["raw_wall_s"] if rec else math.nan)
    tracer.write(bench.work / "spans.jsonl")
    first, second = tracer.layer_metrics(1), tracer.layer_metrics(2)
    exact = [f"{s}.calls" for s in SPAN_NAMES] + COUNT_NAMES
    changed = [key for key in exact if first[key] != second[key]]
    if changed:
        bench.fail(name, [f"two traced calls with one seed disagree on {key}" for key in changed])
    factor = bench.speed_factor()
    first["trace.untraced_wall_s"] = factor * statistics.fmean(walls[False])
    first["trace.traced_wall_s"] = factor * statistics.fmean(walls[True])
    first["trace.overhead_ratio"] = first["trace.traced_wall_s"] / first["trace.untraced_wall_s"]
    return {key: {"value": value, "unit": layer_unit(key)} for key, value in first.items()}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith((".us_p50", ".us_p99")):
        return "us"
    if key.endswith(("_ratio", "_per_eval")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "survroute").is_dir() or not INSTANCES.is_dir():
        print(f"perfbench: no survroute sources under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    bench = Bench(work)
    check_shipped_oracle(bench)
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics = per_layer(args.workload, wl, args.seed, bench)
    else:
        metrics = end_to_end(args.workload, wl, args.seed, args.seconds, bench)
    for metric in metrics.values():  # a failed measurement reads null, never NaN
        if math.isnan(metric["value"]):
            metric["value"] = None
    print(f"error_rate {bench.failed / bench.attempted} ({bench.failed} of {bench.attempted} operations failed)")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
