import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "time_builds.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("time_builds", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_builds_measures_a_small_size():
    tool = load_tool()
    for kind in ("build", "oracle"):
        record = tool.measure(kind, 3, 2)
        assert (record["kind"], record["p"], record["d"]) == (kind, 3, 2)
        assert (record["classes"], record["exact"]) == (8, True)
        assert 0 <= record["cpu_s"] < 1
        assert record["scaled_s"] > 0
        assert record["peak_rss_mib"] > 0


def test_time_builds_builds_past_the_class_budget(monkeypatch):
    monkeypatch.setattr("dmcensus.census.CLASS_BUDGET", 0)
    record = load_tool().measure("build", 3, 2)
    assert (record["classes"], record["exact"]) == (8, True)
