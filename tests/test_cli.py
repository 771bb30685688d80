"""Command-line surface: exit codes, file formats, determinism."""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from survroute import cli, engine, kernels
from survroute.cli import build_parser, main, read_front_csv, write_front_csv
from survroute.netmodel import DEFAULT_ORACLE_GUARD, brute_force_pareto

from conftest import INSTANCE_DIR, layered_net_text

README = Path(__file__).resolve().parent.parent / "README.md"
TRIVIAL = str(INSTANCE_DIR / "trivial_1mr.net")
STANDARD = str(INSTANCE_DIR / "standard_3mr.net")


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_writes_front_and_summary(self, tmp_path):
        out = tmp_path / "run1"
        code = run_cli(
            "run", "--instance", STANDARD, "--out", str(out),
            "--budget", "2000", "--population", "15", "--offspring", "15", "--seed", "1",
        )
        assert code == 0
        assert (out / "front.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        # round trip: the summary echoes exactly the parameters the run used
        assert summary["params"] == {
            "population": 15, "offspring": 15, "capacity": 100, "budget": 2000,
            "stagnation_window": 10, "immigrant_fraction": 0.3, "ls_budget": 20, "seed": 1,
        }
        assert summary["evaluations"] >= 2000
        assert summary["final_hypervolume"] == summary["hypervolume_trace"][-1]
        assert sorted(summary["scheduler"]) == ["VAR"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--instance", STANDARD, "--budget", "1500", "--population", "12",
                "--offspring", "12", "--seed", "9"]
        code1 = run_cli("run", *args, "--out", str(tmp_path / "a"))
        code2 = run_cli("run", *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        front_a = (tmp_path / "a" / "front.csv").read_bytes()
        front_b = (tmp_path / "b" / "front.csv").read_bytes()
        assert front_a == front_b
        sum_a = json.loads((tmp_path / "a" / "summary.json").read_text())
        sum_b = json.loads((tmp_path / "b" / "summary.json").read_text())
        sum_a.pop("wall_clock_seconds")
        sum_b.pop("wall_clock_seconds")
        assert sum_a == sum_b

    def test_front_matches_oracle(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--instance", STANDARD, "--out", str(out),
                       "--budget", "10000", "--seed", "0") == 0
        oracle_csv = tmp_path / "oracle.csv"
        assert run_cli("oracle", STANDARD, "--out", str(oracle_csv)) == 0
        got = {(z1, z2) for z1, z2, _g in read_front_csv(out / "front.csv")}
        want = {(z1, z2) for z1, z2, _g in read_front_csv(oracle_csv)}
        assert got == want

    def test_chain_instance_runs_to_oracle_front(self, tmp_path):
        # m_i's only link goes beneath m_{i-1}: feasible, but a single random
        # attachment pass succeeds only when the order is the chain's own (1 in 8!)
        lines = ["BS b 0.1", "AR a b", *(f"MR m{i}" for i in range(8)), "LINK m0 a 1.0 0.1"]
        lines += [f"LINK m{i} m{i - 1} {i}.5 0.05" for i in range(1, 8)]
        net = tmp_path / "chain.net"
        net.write_text("\n".join(lines + ["MAXDEPTH 8"]) + "\n")
        out = tmp_path / "run"
        assert run_cli("run", "--instance", str(net), "--out", str(out), "--budget", "200", "--seed", "1") == 0
        oracle_csv = tmp_path / "oracle.csv"
        assert run_cli("oracle", str(net), "--out", str(oracle_csv)) == 0
        assert (out / "front.csv").read_bytes() == oracle_csv.read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_layered_instance_runs(self, seed, tmp_path):
        # 8 levels of 10 MRs under MAXDEPTH 8: feasible, but randomized attachment stalls on it
        net = tmp_path / "layered.net"
        net.write_text(layered_net_text(8, 10, 8, seed))
        out = tmp_path / "run"
        assert run_cli("run", "--instance", str(net), "--out", str(out), "--budget", "500", "--seed", str(seed)) == 0
        assert read_front_csv(out / "front.csv")

    def test_missing_instance_exits_3(self, tmp_path, capsys):
        code = run_cli("run", "--instance", str(tmp_path / "nope.net"), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "survroute" in capsys.readouterr().err

    def test_no_instance_exits_2(self):
        assert run_cli("run", "--budget", "10") == 2

    def test_bad_instance_exits_3(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("BS b 1.5\n")
        assert run_cli("run", "--instance", str(bad), "--out", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("where", ["a_file", "under_a_file"])
    def test_unusable_out_exits_3_before_the_run(self, where, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the optimization started before --out was checked")

        monkeypatch.setattr(engine, "run", no_run)
        monkeypatch.setattr(cli, "run", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken if where == "a_file" else taken / "out"
        assert run_cli("run", "--instance", STANDARD, "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("survroute: ") and str(taken) in captured.err
        assert taken.read_text() == ""

    def test_bad_param_exits_2(self, tmp_path):
        assert run_cli("run", "--instance", STANDARD, "--out", str(tmp_path / "o"),
                       "--population", "0") == 2

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"instance = {STANDARD}\n"
            "budget = 1000   # comment\n"
            "population = 10\n"
            "offspring = 10\n"
            "seed = 5\n"
            f"out = {tmp_path / 'from_cfg'}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--seed", "6") == 0
        summary = json.loads((tmp_path / "from_cfg" / "summary.json").read_text())
        assert summary["params"]["seed"] == 6  # CLI wins
        assert summary["params"]["budget"] == 1000

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wat = 1\n")
        assert run_cli("run", "--config", str(cfg)) == 2


class TestOracle:
    def test_trivial_front_csv(self, tmp_path):
        out = tmp_path / "front.csv"
        assert run_cli("oracle", TRIVIAL, "--out", str(out)) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "z1,z2,genotype"
        assert lines[1] == "1,0.3,m1=a1"
        assert lines[2] == "5,0,m1=a2"

    def test_guard_exits_4(self, tmp_path):
        assert run_cli("oracle", STANDARD, "--out", str(tmp_path / "f.csv"), "--guard", "10") == 4

    def test_guard_default_is_one_value(self, tmp_path):
        args = build_parser().parse_args(["oracle", STANDARD, "--out", str(tmp_path / "f.csv")])
        assert args.guard == inspect.signature(brute_force_pareto).parameters["guard"].default == DEFAULT_ORACLE_GUARD

    def test_a_space_one_over_the_default_guard_exits_4(self, tmp_path, capsys):
        # one MR per prime factor of the guard + 1, each with that many access-router links
        size, factors, d = DEFAULT_ORACLE_GUARD + 1, [], 2
        while d * d <= size:
            while size % d == 0:
                factors.append(d)
                size //= d
            d += 1
        factors += [size] if size > 1 else []
        lines = ["BS b 0.1"] + [f"AR a{j} b" for j in range(max(factors))] + [f"MR m{i}" for i in range(len(factors))]
        lines += [f"LINK m{i} a{j} 1 0.1" for i, f in enumerate(factors) for j in range(f)]
        net = tmp_path / "over.net"
        net.write_text("\n".join(lines) + "\n")
        out = tmp_path / "front.csv"
        assert run_cli("oracle", str(net), "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert f"search space {DEFAULT_ORACLE_GUARD + 1} exceeds oracle guard {DEFAULT_ORACLE_GUARD}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "run"])
    def test_instance_without_mrs(self, command, tmp_path):
        net = tmp_path / "empty.net"
        net.write_text("BS b 0.1\nAR a b\n")
        if command == "oracle":
            code = run_cli("oracle", str(net), "--out", str(tmp_path / "front.csv"))
        else:
            code = run_cli("run", "--instance", str(net), "--out", str(tmp_path), "--budget", "50")
        assert code == 0
        assert (tmp_path / "front.csv").read_bytes() == b"z1,z2,genotype\n0,0,\n"

    def test_missing_instance_exits_3(self, tmp_path):
        assert run_cli("oracle", str(tmp_path / "nope.net"), "--out", str(tmp_path / "f.csv")) == 3

    def test_more_mrs_than_numpy_dimensions(self, tmp_path):
        # 65 MRs with one link each: a search space of 1, more MRs than numpy has dimensions
        mrs = [f"m{i:02d}" for i in range(65)]
        net = tmp_path / "wide.net"
        net.write_text("BS b 0.5\nAR a b\n" + "".join(f"MR {m}\nLINK {m} a 1 0\n" for m in mrs))
        out = tmp_path / "front.csv"
        assert run_cli("oracle", str(net), "--out", str(out)) == 0
        genotype = ";".join(f"{m}=a" for m in mrs)
        assert out.read_text() == f"z1,z2,genotype\n65,32.5,{genotype}\n"

    def test_few_choices_among_many_mrs(self, tmp_path):
        # 100 MRs on a cheap risky access router; m010 and m050 may also take a dearer safe one
        mrs = [f"m{i:03d}" for i in range(100)]
        lines = ["BS b0 0.5", "BS b1 0", "AR a0 b0", "AR a1 b1"] + [f"MR {m}" for m in mrs]
        for m in mrs:
            lines.append(f"LINK {m} a0 1 0")
            if m in ("m010", "m050"):
                lines.append(f"LINK {m} a1 2 0")
        net = tmp_path / "two_choices.net"
        net.write_text("\n".join(lines) + "\n")
        out = tmp_path / "front.csv"
        assert run_cli("oracle", str(net), "--out", str(out)) == 0

        def genotype(*safe):
            return ";".join(f"{m}={'a1' if m in safe else 'a0'}" for m in mrs)

        # of the two witnesses of (101, 49.5) the smaller enumeration index moves the later MR
        assert out.read_text() == (
            "z1,z2,genotype\n"
            f"100,50,{genotype()}\n"
            f"101,49.5,{genotype('m050')}\n"
            f"102,49,{genotype('m010', 'm050')}\n"
        )

    def test_more_multi_link_mrs_than_numpy_axes_exits_4(self, tmp_path, capsys):
        # m00 links to the access router only; m01..m69 each to it or to the MR before: 69 axes, 2**69 assignments
        lines = ["BS b 0.1", "AR a b", *(f"MR m{i:02d}" for i in range(70)), "LINK m00 a 1 0.1"]
        for i in range(1, 70):
            lines += [f"LINK m{i:02d} a 2 0.1", f"LINK m{i:02d} m{i - 1:02d} 1 0.05"]
        net = tmp_path / "chain70.net"
        net.write_text("\n".join(lines) + "\n")
        out = tmp_path / "front.csv"
        assert run_cli("oracle", str(net), "--out", str(out), "--guard", str(10**25)) == 4
        err = capsys.readouterr().err
        assert err.startswith("survroute: 69 MRs have several links") and err.count("\n") == 1
        assert not out.exists()

    def test_space_that_does_not_fit_in_memory_exits_4(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "ones", no_memory)  # the oracle's first full-space array
        out = tmp_path / "front.csv"
        assert run_cli("oracle", STANDARD, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err == "survroute: search space 64 does not fit in memory\n"
        assert not out.exists()

    def test_front_extraction_out_of_memory_exits_4(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(kernels, "front_rows", no_memory)
        out = tmp_path / "front.csv"
        assert run_cli("oracle", STANDARD, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err == "survroute: search space 64 does not fit in memory\n"
        assert not out.exists()

    def test_space_larger_than_physical_memory_exits_4(self, tmp_path, capsys, monkeypatch):
        # 64 assignments need 17 bytes each; the machine reports 2 pages of 512 bytes
        pages = {"SC_PAGE_SIZE": 512, "SC_PHYS_PAGES": 2}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        allocations = []
        monkeypatch.setattr(np, "ones", lambda *args, **kwargs: allocations.append(args))
        out = tmp_path / "front.csv"
        assert run_cli("oracle", STANDARD, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err == "survroute: search space 64 needs 1088 bytes, more than the 1024 bytes of physical memory\n"
        assert not out.exists() and allocations == []

    def test_space_that_fits_physical_memory_runs(self, tmp_path, monkeypatch):
        pages = {"SC_PAGE_SIZE": 512, "SC_PHYS_PAGES": 3}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        out = tmp_path / "front.csv"
        assert run_cli("oracle", STANDARD, "--out", str(out)) == 0
        assert out.read_bytes() == (INSTANCE_DIR / "standard_3mr.front.csv").read_bytes()

    def test_oracle_runs_without_sysconf(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        out = tmp_path / "front.csv"
        assert run_cli("oracle", STANDARD, "--out", str(out)) == 0
        assert out.read_bytes() == (INSTANCE_DIR / "standard_3mr.front.csv").read_bytes()


class TestMeasure:
    def _write(self, path, rows):
        write_front_csv(path, rows)
        return str(path)

    def test_identity(self, tmp_path, capsys):
        f = self._write(tmp_path / "a.csv", [(1.0, 2.0, "x=y"), (2.0, 1.0, "y=x")])
        assert run_cli("measure", f, f, "--ref", "3,3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["additive_epsilon_ab"] == 0.0
        assert report["coverage_ab"] == 1.0
        assert report["coverage_ba"] == 1.0

    def test_worked_hypervolume(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.csv", [(1.0, 2.0, "g1"), (2.0, 1.0, "g2")])
        b = self._write(tmp_path / "b.csv", [(2.0, 2.0, "g3")])
        assert run_cli("measure", a, b, "--ref", "3,3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypervolume_a"] == 3.0
        assert report["hypervolume_b"] == 1.0
        # for b's point (2,2): min over a of max-coordinate shift is 0
        assert report["additive_epsilon_ab"] == 0.0

    def test_empty_front_hv_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("z1,z2,genotype\n")
        full = self._write(tmp_path / "b.csv", [(1.0, 1.0, "g")])
        assert run_cli("measure", str(empty), str(full), "--ref", "3,3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypervolume_a"] == 0.0
        assert report["additive_epsilon_ab"] is None
        assert report["coverage_ab"] is None

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n")
        good = self._write(tmp_path / "g.csv", [(1.0, 1.0, "g")])
        assert run_cli("measure", str(bad), str(good), "--ref", "3,3") == 2

    def test_bad_ref_exits_2(self, tmp_path):
        f = self._write(tmp_path / "a.csv", [(1.0, 2.0, "g")])
        assert run_cli("measure", f, f, "--ref", "banana") == 2

    def test_ref_not_dominating_exits_2(self, tmp_path):
        f = self._write(tmp_path / "a.csv", [(5.0, 5.0, "g")])
        assert run_cli("measure", f, f, "--ref", "3,3") == 2

    def test_overflowing_hypervolume_exits_2(self, tmp_path, capsys):
        f = self._write(tmp_path / "a.csv", [(-1e308, -1e308, "g")])
        assert run_cli("measure", f, f, "--ref", "1e308,1e308") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: hypervolume_a is inf" in captured.err

    def test_non_finite_epsilon_exits_2(self, tmp_path, capsys, monkeypatch):
        # every reported indicator is checked, not only the hypervolumes
        monkeypatch.setattr("survroute.cli.additive_epsilon", lambda a, b: float("nan"))
        f = self._write(tmp_path / "a.csv", [(1.0, 2.0, "g")])
        assert run_cli("measure", f, f, "--ref", "3,3") == 2
        assert "config error: additive_epsilon_ab is nan" in capsys.readouterr().err


def _bad_input_argv(case, tmp_path):
    """argv for one kind of bad input; files it needs are written under tmp_path."""
    good = tmp_path / "good.csv"
    write_front_csv(good, [(1.0, 2.0, "g")])
    out = str(tmp_path / "out")
    if case == "instance_not_utf8":
        net = tmp_path / "latin1.net"
        net.write_bytes("BS b 0.1\nAR a b\nMR m\u00e9\nLINK m\u00e9 a 1 0.1\n".encode("latin-1"))
        return ["run", "--instance", str(net), "--out", out]
    if case == "oracle_instance_not_utf8":
        net = tmp_path / "binary.net"
        net.write_bytes(b"\xff\xfe\x00B\x00S")
        return ["oracle", str(net), "--out", str(tmp_path / "front.csv")]
    if case == "config_not_utf8":
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1 # \xe9\n")
        return ["run", "--config", str(cfg), "--instance", STANDARD, "--out", out]
    if case in ("ref_nan", "ref_inf"):
        return ["measure", str(good), str(good), "--ref", "nan,nan" if case == "ref_nan" else "inf,inf"]
    if case in ("front_nan", "front_inf"):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"z1,z2,genotype\n1,{case[-3:]},g\n")
        return ["measure", str(bad), str(good), "--ref", "3,3"]
    if case == "front_not_utf8":
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"z1,z2,genotype\n1,2,g\xff\n")
        return ["measure", str(bad), str(good), "--ref", "3,3"]
    if case == "seed_negative":
        return ["run", "--instance", STANDARD, "--out", out, "--budget", "10", "--seed", "-1"]
    if case == "config_seed_negative":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"instance = {STANDARD}\nbudget = 10\nseed = -1\n")
        return ["run", "--config", str(cfg), "--out", out]
    if case == "config_tolerance_nan":  # stagnation_tolerance is no config key: any value exits 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"instance = {STANDARD}\nbudget = 10\nstagnation_tolerance = nan\n")
        return ["run", "--config", str(cfg), "--out", out]
    raise AssertionError(case)


@pytest.mark.parametrize("case, code", [
    ("instance_not_utf8", 3),
    ("oracle_instance_not_utf8", 3),
    ("config_not_utf8", 2),
    ("ref_nan", 2),
    ("ref_inf", 2),
    ("front_nan", 2),
    ("front_inf", 2),
    ("front_not_utf8", 2),
    ("seed_negative", 2),
    ("config_seed_negative", 2),
    ("config_tolerance_nan", 2),
])
def test_bad_input_exits_with_code_not_traceback(case, code, tmp_path, capsys):
    capsys.readouterr()
    assert run_cli(*_bad_input_argv(case, tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""  # in particular no measure report with NaN or Infinity
    assert captured.err.startswith("survroute: ")


_REJECTED_AT_LOAD = {
    # m1 and m2 can only attach beneath each other
    "unreachable": (
        "BS b 0.1\nAR a b\nMR m1\nMR m2\nLINK m1 m2 1 0.1\nLINK m2 m1 1 0.1\n",
        "mobile router 'm1' has no path to an access router (infeasible)",
    ),
    # m3's one path, m3 -> m2 -> m1 -> a, is a link longer than MAXDEPTH
    "too_deep": (
        "BS b 0.1\nAR a b\nMR m1\nMR m2\nMR m3\nLINK m1 a 1 0.1\nLINK m2 m1 1 0.1\nLINK m3 m2 1 0.1\nMAXDEPTH 2\n",
        "mobile router 'm3' is 3 links from an access router, beyond MAXDEPTH 2 (infeasible)",
    ),
    # feasible, but z1 of the chain m2 -> m1 -> a1 exceeds a float's range: it must be rejected
    # at load, before the oracle's numpy walk could warn (an error under the suite's filter)
    "overflowing_costs": (
        "BS b1 0.1\nAR a1 b1\nMR m1\nMR m2\nLINK m1 a1 1e308 0.1\nLINK m2 m1 1e308 0.1\nLINK m2 a1 1e308 0.1\n",
        "link cost 1e+308 can overflow the objectives: 2 MRs squared x walk cap 2 x largest cost"
        " exceeds 8.98847e+307",
    ),
}


@pytest.mark.parametrize("command", ["run", "oracle", "oracle_over_guard"])
@pytest.mark.parametrize("case", sorted(_REJECTED_AT_LOAD))
def test_infeasible_instance_exits_3_at_load(command, case, tmp_path, capsys):
    net_text, message = _REJECTED_AT_LOAD[case]
    net = tmp_path / "infeasible.net"
    net.write_text(net_text)
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--instance", str(net), "--out", str(out), "--budget", "50"]
    else:  # the verdict comes before the oracle's guard, and no header-only front is written
        argv = ["oracle", str(net), "--out", str(out)] + (["--guard", "0"] if command == "oracle_over_guard" else [])
    capsys.readouterr()
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"survroute: instance error: {message}\n"
    assert not out.exists()


_PARAM_DEFAULTS = {key: getattr(engine.RunParams(), field) for key, (field, _kind) in cli._RUN_PARAMS.items()}
# a value other than the default for each run parameter
_PARAM_VALUES = {
    "seed": 7, "budget": 30, "population": 9, "offspring": 5, "capacity": 11,
    "stagnation_window": 3, "immigrant_fraction": 0.5, "ls_budget": 2,
}


def test_run_parameter_table_matches_run_params_and_readme():
    # a run parameter that reaches RunParams, the CLI table or the README alone fails here
    assert sorted(field for field, _kind in cli._RUN_PARAMS.values()) == sorted(
        f.name for f in dataclasses.fields(engine.RunParams)
    )
    assert all(type(_PARAM_DEFAULTS[key]) is kind for key, (_field, kind) in cli._RUN_PARAMS.items())
    text = README.read_text(encoding="utf-8")
    sentence = text[text.index("`run` also accepts a flat `key=value` config file"):]
    listed = re.findall(r"`(\w+)`", sentence[: sentence.index(";")].split("keys", 1)[1])
    assert sorted(listed) == sorted(cli._CONFIG_KEYS)
    assert _PARAM_VALUES.keys() == _PARAM_DEFAULTS.keys()
    assert all(_PARAM_VALUES[key] != _PARAM_DEFAULTS[key] for key in _PARAM_VALUES)


@pytest.mark.parametrize("key, value", [("scheduler_window", 49), ("scheduler_floor", 0.1), ("stagnation_tolerance", 1e-6)])
def test_retired_run_parameter_exits_2(key, value, tmp_path, capsys):
    # the VAR pool's window and floor and the stagnation tolerance are constants: neither a flag nor a
    # config key sets them, and naming one is a usage error in one line, not a traceback
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out"
    assert run_cli("run", "--instance", STANDARD, "--out", str(out), flag, str(value)) == 2
    assert capsys.readouterr().err == f"survroute: config error: unrecognized arguments: {flag} {value}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run_cli("run", "--config", str(cfg), "--instance", STANDARD, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"survroute: config error: {cfg}:1: unknown config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--budget", "x"], "argument --budget: invalid int value: 'x'"),
    (["oracle"], "the following arguments are required: instance"),
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'run', 'oracle', 'measure')"),
])
def test_usage_error_is_one_line(argv, message, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"survroute: config error: {message}\n")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: survroute")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(_PARAM_VALUES))
def test_each_run_parameter_reaches_summary(key, via, tmp_path):
    # a small, fast run; the parameter under test overrides its base value
    settings = {"budget": 20, "population": 6, "offspring": 6, key: _PARAM_VALUES[key]}
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items() if not (via == "config" and k == key)]
    argv = ["run", "--instance", STANDARD, "--out", str(tmp_path / "out"), *flags]
    if via == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {_PARAM_VALUES[key]}\n")
        argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 0
    # the set values, and the defaults for every other parameter
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["params"] == {**_PARAM_DEFAULTS, **settings}


def test_module_entry_point(tmp_path):
    out = tmp_path / "front.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "survroute", "oracle", TRIVIAL, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("z1,z2,genotype\n")


@pytest.mark.parametrize("name", ["trivial_1mr", "standard_3mr", "stress_5mr"])
def test_committed_oracle_fronts_are_fresh(name, tmp_path):
    # the repo ships each instance's exact front; regeneration must agree byte for byte
    regenerated = tmp_path / "front.csv"
    assert run_cli("oracle", str(INSTANCE_DIR / f"{name}.net"), "--out", str(regenerated)) == 0
    assert regenerated.read_bytes() == (INSTANCE_DIR / f"{name}.front.csv").read_bytes()
