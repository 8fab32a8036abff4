"""emit_results against the record-dict emitter it replaced, over random result rows.

The reference builds one dict per output value and renders the CSV from the
dicts and the JSON with json.dumps(records, sort_keys=True); the emitter must
give the same text to the byte, including non-finite floats, signed zeros,
subnormals, NumPy scalars and names that JSON escapes.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim.cli import SCENARIOS, TrialResult, emit_results


def record_dict_emitter(results, fmt: str) -> str:
    """The reference: emit_results as it rendered its records before it stopped building them."""
    records = [
        {
            "scenario": r.scenario,
            "param_name": r.param_name,
            "param_value": r.param_value,
            "trial": r.trial,
            "metric": metric,
            "value": r.metrics[metric],
        }
        for r in results
        for metric in sorted(r.metrics)
    ]
    if fmt == "csv":
        lines = ["scenario,param_name,param_value,trial,metric,value"]
        lines += [f"{rec['scenario']},{rec['param_name']},{rec['param_value']!r},"
                  f"{rec['trial']},{rec['metric']},{rec['value']!r}" for rec in records]
        return "\n".join(lines) + "\n"
    return json.dumps(records, sort_keys=True) + "\n"


SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.5]
floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
values = floats | floats.map(np.float64)
# a few point values, so rows repeat them
points = st.lists(values, min_size=1, max_size=3)
names = st.sampled_from(["comm_bits", "mi_bits", "gain_rmse", "value"]) | st.text(max_size=6)


@st.composite
def result_rows(draw):
    pool = draw(points)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        trial = draw(st.sampled_from(["mean", "std"]) | st.integers(0, 200).map(str))
        rows.append(TrialResult(draw(st.sampled_from(SCENARIOS) | st.text(max_size=6)),
                                draw(st.sampled_from(["power", "rho", "snr_db", "interval"]) | names),
                                draw(st.sampled_from(pool)), trial,
                                draw(st.dictionaries(names, values, max_size=4))))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(result_rows())
@example([TrialResult("isac_tradeoff", "rho", -0.0, "std", {"objective": np.float64(-math.inf),
                                                           "interference_power": math.nan})])
@example([TrialResult("capacity_sweep", "power", 1e308, "mean", {}),
          TrialResult("capacity_sweep", "power", 1e308, "0", {"\"q\\ué\n": 5e-324})])
# the emitter formats a point once per run of rows and sorts a key set once: equal point values of
# another sign, NaN payload or type, and one key set listed in two orders, must not share text
@example([TrialResult("isac_tradeoff", "rho", point, str(i), {"objective": 1.0})
          for i, point in enumerate([0.0, -0.0, 0.0, math.nan, -math.nan, math.nan, -0.0])])
@example([TrialResult("capacity_sweep", "power", point, "0", {"comm_bits": 2.0})
          for point in (1.0, np.float64(1.0), 1.0, np.float64(-0.0), -0.0, np.float64(math.nan), math.nan)])
@example([TrialResult("capacity_sweep", "power", 2.0, "0", {"mi_bits": 1.0, "comm_bits": 2.0}),
          TrialResult("capacity_sweep", "power", 2.0, "1", {"comm_bits": 3.0, "mi_bits": -0.0}),
          TrialResult("capacity_sweep", "power", 2.0, "mean", {"mi_bits": math.nan, "comm_bits": 2.5}),
          TrialResult("capacity_sweep", "power", 2.0, "std", {"comm_bits": 0.5, "mi_bits": math.inf})])
@example([TrialResult("sensing_sweep", "power", 0.0, "0", {"b": 1.0, "a": -0.0}),
          TrialResult("sensing_sweep", "power", -0.0, "0", {"a": math.nan, "b": np.float64(2.0)}),
          TrialResult("sensing_sweep", "power", np.float64(0.0), "1", {"b": -math.nan, "a": 3.0}),
          TrialResult("sensing_sweep", "power", math.nan, "mean", {"a": 1.0, "b": 2.0}),
          TrialResult("sensing_sweep", "power", -math.nan, "std", {"b": 0.0, "a": -math.inf})])
def test_emitter_matches_the_record_dict_emitter_to_the_byte(rows):
    for fmt in ("csv", "json"):
        assert emit_results(rows, fmt) == record_dict_emitter(rows, fmt)
