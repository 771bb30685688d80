"""Command-line surface: exit codes, file formats, determinism."""

import json
import subprocess
import sys

import pytest

from survroute.cli import main, read_front_csv, write_front_csv

from conftest import INSTANCE_DIR, layered_net_text

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
            "stagnation_window": 10, "stagnation_tolerance": 1e-9,
            "immigrant_fraction": 0.3, "ls_budget": 20, "scheduler_window": 50,
            "scheduler_floor": 0.05, "seed": 1,
        }
        assert summary["evaluations"] >= 2000
        assert summary["final_hypervolume"] == summary["hypervolume_trace"][-1]

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
    if case == "tolerance_nan":
        return ["run", "--instance", STANDARD, "--out", out, "--budget", "10", "--stagnation-tolerance", "nan"]
    if case == "config_tolerance_nan":
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
    ("tolerance_nan", 2),
    ("config_tolerance_nan", 2),
])
def test_bad_input_exits_with_code_not_traceback(case, code, tmp_path, capsys):
    capsys.readouterr()
    assert run_cli(*_bad_input_argv(case, tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.out == ""  # in particular no measure report with NaN or Infinity
    assert captured.err.startswith("survroute: ")


_INFEASIBLE = {
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
}


@pytest.mark.parametrize("command", ["run", "oracle", "oracle_over_guard"])
@pytest.mark.parametrize("case", sorted(_INFEASIBLE))
def test_infeasible_instance_exits_3_at_load(command, case, tmp_path, capsys):
    net_text, message = _INFEASIBLE[case]
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


_PARAM_DEFAULTS = {
    "seed": 0, "budget": 100_000, "population": 50, "offspring": 50, "capacity": 100,
    "stagnation_window": 10, "stagnation_tolerance": 1e-9, "immigrant_fraction": 0.3,
    "ls_budget": 20, "scheduler_window": 50, "scheduler_floor": 0.05,
}
# a value other than the default for each run parameter
_PARAM_VALUES = {
    "seed": 7, "budget": 30, "population": 9, "offspring": 5, "capacity": 11,
    "stagnation_window": 3, "stagnation_tolerance": 0.001, "immigrant_fraction": 0.5,
    "ls_budget": 2, "scheduler_window": 7, "scheduler_floor": 0.125,
}


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
