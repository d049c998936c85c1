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
    for kind in ("build", "generator", "oracle"):
        record = tool.measure(kind, 3, 2)
        assert (record["kind"], record["p"], record["d"]) == (kind, 3, 2)
        assert (record["classes"], record["exact"]) == (8, True)
        assert 0 <= record["cpu_s"] < 1
        assert record["scaled_s"] > 0
        assert record["peak_rss_mib"] > 0


def test_time_builds_measures_startup():
    record = load_tool().measure_startup(runs=1)
    assert record["kind"] == "startup"
    for name in ("bare_s", "import_s", "render_s"):
        assert len(record[name]) == 1 and record[f"{name}.median"] > 0
    assert "argparse" in record["modules_added"]
    assert not {"dataclasses", "inspect"} & set(record["heavy_modules"])
