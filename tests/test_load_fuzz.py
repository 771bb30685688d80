"""Load-time robustness: token-level mutations of the shipped instances load cleanly or fail with a package error.

An instance ``parse_instance`` accepts must then survive the oracle (or its
guard) and a short run: no other exception, no numpy warning (the suite
turns warnings into errors), and a finite reference point and hypervolume.
"""

import math

from hypothesis import event, given, settings, strategies as st

from survroute.engine import RunParams, run
from survroute.errors import OracleScopeError, SurvrouteError
from survroute.netmodel import RouteProblem, brute_force_pareto, parse_instance

from conftest import INSTANCE_DIR

SHIPPED = [(INSTANCE_DIR / f"{name}.net").read_text() for name in ("trivial_1mr", "standard_3mr", "stress_5mr")]
# extreme numerals per field: overflow, subnormals, signed zero, non-finite, malformed, huge integers
COSTS = ["1e308", "1.7976931348623157e308", "4e307", "1e306", "1e300", "1e-320", "5e-324", "-0", "0", "inf", "nan", "-1", "1e"]
PROBABILITIES = ["0", "-0", "-0.0", "1", "1e-320", "5e-324", "0.9999999999999999", "1.0000000000000002", "nan", "-1e-320"]
DEPTHS = ["1", "0", "-0", "4294967297", "99999999999999999999", "1e3"]
NUMERALS = sorted(set(COSTS + PROBABILITIES + DEPTHS))
KEYWORDS = ["BS", "AR", "MR", "LINK", "MAXDEPTH", "#"]


def _is_numeral(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def mutated_instances(draw):
    """A shipped instance after 1-2 token edits.

    An edit puts an extreme numeral in a numeric field (most often), or
    replaces, deletes or duplicates any token, or duplicates or drops a line.
    """
    lines = [line.split() for line in draw(st.sampled_from(SHIPPED)).split("\n")]
    lines = [line for line in lines if line and not line[0].startswith("#")]
    vocab = sorted({tok for line in lines for tok in line}) + NUMERALS + KEYWORDS
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["numeral"] * 8 + ["replace", "delete", "duplicate", "dup_line", "drop_line"]))
        numeric = [j for j, tok in enumerate(line) if _is_numeral(tok)]
        if op == "numeral" and numeric:
            j = draw(st.sampled_from(numeric))
            field = COSTS if line[0] == "LINK" and j == 3 else DEPTHS if line[0] == "MAXDEPTH" else PROBABILITIES
            line[j] = draw(st.sampled_from(field))
        elif op == "dup_line":
            lines.insert(draw(st.integers(0, len(lines))), list(line))
        elif op == "drop_line" and len(lines) > 1:
            del lines[i]
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if op == "delete":
                del line[j]
            elif op == "duplicate":
                line.insert(j, line[j])
            else:
                line[j] = draw(st.sampled_from(vocab))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_instances())
def test_mutated_instance_loads_or_fails_with_a_package_error(text):
    try:
        inst = parse_instance(text)
    except SurvrouteError as exc:
        event(f"rejected: {type(exc).__name__}")
        return
    event("accepted")
    try:
        front = brute_force_pareto(inst, guard=20_000)
    except OracleScopeError:
        pass
    else:
        assert front and all(math.isfinite(v) for ov, _witness in front for v in ov)
    result = run(RouteProblem(inst), RunParams(population_size=8, offspring_size=8, evaluation_budget=60, seed=0))
    assert 60 <= result.evaluations <= 68
    assert all(math.isfinite(v) for v in result.reference_point)
    assert all(math.isfinite(hv) for hv in result.hv_trace)
