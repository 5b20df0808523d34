"""The file comparison of scripts/compare_outputs.py."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _pair(tmp_path, suffix, a, b):
    paths = [tmp_path / f"{side}{suffix}" for side in "ab"]
    for path, text in zip(paths, (a, b)):
        path.write_text(text)
    return compare_outputs.compare(*paths)


def test_csv_difference_scaled_by_its_column(tmp_path):
    # A coefficient that is 0 in exact arithmetic, against rounding noise.
    ok, how = _pair(tmp_path, ".csv",
                    "component,basis_index,value\na,1,0.5\nb,1,0\nb,2,-2.5\n",
                    "component,basis_index,value\na,1,0.5\nb,1,-1.25e-18\nb,2,-2.5\n")
    assert not ok
    assert how == ("1 value(s) differ; float values by at most 1 relative (line 3, value) "
                   "and 5e-19 of their column's largest |value| (line 3, value)")


def test_json_lists_compared_by_element(tmp_path):
    meta_a = {"gamma": -2.0, "quantile_box": [-1.0, 2.0, -8.0, 4.0], "chosen": [3, 4], "wall_s": 1.0}
    meta_b = {"gamma": -2.0, "quantile_box": [-1.0, 2.0, -8.0, 4.000004], "chosen": [3, 5], "wall_s": 2.0}
    ok, how = _pair(tmp_path, ".json", json.dumps(meta_a), json.dumps(meta_b))
    assert not ok
    assert how == ("2 value(s) differ; float values by at most 1e-06 relative (quantile_box[3]) "
                   "and 5e-07 of their column's largest |value| (quantile_box[3]); "
                   "1 other(s):\n    chosen[1]: 4 != 5")
    meta_b.update(quantile_box=meta_a["quantile_box"], chosen=[3, 4])
    assert _pair(tmp_path, ".json", json.dumps(meta_a), json.dumps(meta_b)) == (True, "equal apart from wall_s")
