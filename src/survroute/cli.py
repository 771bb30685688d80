"""Batch front end: `survroute run|oracle|measure`.

Outputs are bit-stable: front CSVs use %.12g numbers, LF line endings, and
rows sorted by objectives then genotype; summaries are sorted-key JSON.
Exit codes: 0 ok, 2 configuration error, 3 instance error, 4 oracle guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .engine import RunParams, run
from .errors import ConfigError, InstanceError, OracleScopeError, ParseError, SurvrouteError, ValidityError
from .measures import additive_epsilon, coverage, hypervolume
from .netmodel import DEFAULT_ORACLE_GUARD, RouteProblem, assignment_string, brute_force_pareto, load_instance

FRONT_HEADER = "z1,z2,genotype"

# each run parameter: config key -> (RunParams field, type); its flag is --key with "-" for "_",
# and summary.json["params"] reports it under the key
_RUN_PARAMS = {
    "seed": ("seed", int),
    "budget": ("evaluation_budget", int),
    "population": ("population_size", int),
    "offspring": ("offspring_size", int),
    "capacity": ("archive_capacity", int),
    "stagnation_window": ("stagnation_window", int),
    "immigrant_fraction": ("immigrant_fraction", float),
    "ls_budget": ("local_search_budget", int),
}
_PARAM_KEYS = {key: kind for key, (_field, kind) in _RUN_PARAMS.items()}
_CONFIG_KEYS = {"instance": str, "out": str, **_PARAM_KEYS}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_front_csv(path, rows) -> None:
    """rows: iterable of (z1, z2, genotype_string); written sorted, deterministic."""
    ordered = sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FRONT_HEADER + "\n")
        for z1, z2, genotype in ordered:
            fh.write(f"{_fmt(z1)},{_fmt(z2)},{genotype}\n")


def read_front_csv(path) -> list[tuple[float, float, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read front file {path}: {exc}") from None
    lines = text.splitlines()
    if not lines or lines[0] != FRONT_HEADER:
        raise ConfigError(f"{path}: missing '{FRONT_HEADER}' header")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",", 2)
        if len(parts) != 3:
            raise ConfigError(f"{path}:{i}: expected 3 comma-separated fields")
        try:
            z1, z2 = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"{path}:{i}: malformed objective value") from None
        if not (math.isfinite(z1) and math.isfinite(z2)):
            raise ConfigError(f"{path}:{i}: objective values must be finite")
        rows.append((z1, z2, parts[2]))
    return rows


def parse_config_file(path) -> dict:
    """Flat key=value config; '#' comments; unknown keys rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    out: dict = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{i}: expected key=value")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{i}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{i}: duplicate config key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{i}: bad value for {key}: {value!r}") from None
    return out


def _build_params(settings: dict) -> RunParams:
    return RunParams(**{
        field: settings[key] for key, (field, _kind) in _RUN_PARAMS.items() if settings.get(key) is not None
    })


def cmd_run(args) -> int:
    settings = parse_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            settings[key] = override
    if "instance" not in settings:
        raise ConfigError("no instance given (use --instance or an 'instance=' config line)")
    params = _build_params(settings)

    instance = load_instance(settings["instance"])
    # an unusable --out fails here, before the run, and an instance error leaves no directory behind
    out_dir = Path(settings.get("out", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(RouteProblem(instance), params)

    write_front_csv(
        out_dir / "front.csv",
        [(m.objectives[0], m.objectives[1], assignment_string(instance, m.genotype)) for m in result.archive.members],
    )
    summary = {
        "instance": str(settings["instance"]),
        "seed": result.seed,
        "params": {key: getattr(params, field) for key, (field, _kind) in _RUN_PARAMS.items()},
        "evaluations": result.evaluations,
        "reference_point": list(result.reference_point),
        "final_hypervolume": result.hv_trace[-1],
        "hypervolume_trace": result.hv_trace,
        "scheduler": result.scheduler_stats,
        "wall_clock_seconds": result.wall_clock_seconds,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    front = brute_force_pareto(instance, guard=args.guard)
    write_front_csv(
        args.out,
        [(ov[0], ov[1], assignment_string(instance, witness)) for ov, witness in front],
    )
    return 0


def _parse_ref(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"malformed reference point {text!r}") from None
    if len(values) != 2:
        raise ConfigError("reference point must have exactly 2 components, e.g. --ref 10,5")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"reference point components must be finite, got {text!r}")
    return values


def cmd_measure(args) -> int:
    ref = _parse_ref(args.ref)
    front_a = [(z1, z2) for z1, z2, _g in read_front_csv(args.front_a)]
    front_b = [(z1, z2) for z1, z2, _g in read_front_csv(args.front_b)]
    report = {
        "hypervolume_a": hypervolume(front_a, ref),
        "hypervolume_b": hypervolume(front_b, ref),
        "additive_epsilon_ab": None,
        "coverage_ab": None,
        "coverage_ba": None,
    }
    if front_a and front_b:
        report["additive_epsilon_ab"] = additive_epsilon(front_a, front_b)
        report["coverage_ab"] = coverage(front_a, front_b)
        report["coverage_ba"] = coverage(front_b, front_a)
    for name, value in report.items():  # Infinity and NaN are not JSON
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} is {value}: the fronts and the reference point {args.ref!r} overflow it")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so ``main`` reports them in one line and returns 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="survroute",
        description="Survivability-aware route optimization for nested mobile networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize an instance and write front.csv + summary.json")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--instance", help="instance file path")
    p_run.add_argument("--out", help="output directory (default: out)")
    for key, (field, kind) in _RUN_PARAMS.items():
        p_run.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=field.replace("_", " "))
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="write the exact Pareto front of a small instance")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--out", default="front.csv")
    p_oracle.add_argument("--guard", type=int, default=DEFAULT_ORACLE_GUARD, help="max search-space size")
    p_oracle.set_defaults(func=cmd_oracle)

    p_measure = sub.add_parser("measure", help="compare two front CSVs")
    p_measure.add_argument("front_a")
    p_measure.add_argument("front_b")
    p_measure.add_argument("--ref", required=True, help="reference point, e.g. 10,5, or --ref=-1,5 if negative")
    p_measure.set_defaults(func=cmd_measure)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"survroute: config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, InstanceError, ValidityError) as exc:
        print(f"survroute: instance error: {exc}", file=sys.stderr)
        return 3
    except OracleScopeError as exc:
        print(f"survroute: {exc}", file=sys.stderr)
        return 4
    except SurvrouteError as exc:
        print(f"survroute: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"survroute: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
