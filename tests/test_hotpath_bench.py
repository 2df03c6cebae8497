"""The hot-path bench harness: stage registry, tripwires and baselines.

Every registered stage runs at a tiny size with all its checks true; a
false check, a drifted edge count and an unusable baseline each reach
the CLI's exit code with a message naming what failed.
"""

import json

import pytest

from repro.experiments import hotpath_bench as hb

TINY = 40


@pytest.mark.parametrize("name", list(hb.STAGES))
def test_every_stage_passes_its_checks_at_tiny_size(name):
    row = hb.run_stage(hb.STAGES[name], TINY)
    assert row["seconds"], "a stage must time something"
    assert all(row["checks"].values()), row["checks"]
    for key, factor in row["speedup"].items():
        assert factor > 0 and key in row["reference_seconds"]


def _args(tmp_path, *extra):
    return ["--output", str(tmp_path / "report.json"), *extra]


def test_false_check_exits_1_naming_stage_size_and_check(tmp_path, monkeypatch, capsys):
    broken = hb.Stage("broken", (10,), lambda dep, clock: hb.Row({}, {"sane": False}))
    monkeypatch.setitem(hb.STAGES, "broken", broken)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"schema": hb.BASELINE_SCHEMA, "stages": {}}))

    code = hb.main(_args(tmp_path, "--stage", "broken=12", "--baseline", str(baseline)))

    assert code == 1
    assert "FAILED: broken n=12: sane" in capsys.readouterr().err


def test_written_baseline_compares_edges_equal(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    stage = ["--stage", f"pipeline={TINY}", "--baseline", str(baseline)]

    assert hb.main(_args(tmp_path, *stage, "--write-baseline")) == 0
    assert hb.load_baseline(baseline)["stages"]["pipeline"][str(TINY)]["edges"]
    assert hb.main(_args(tmp_path, *stage)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    row = report["stages"]["pipeline"][str(TINY)]
    assert row["checks"] == {"baseline_edges": True}
    assert set(row["vs_baseline"]) == set(row["seconds"])

    # A pin that disagrees on one edge count is a tripwire, not a ratio.
    pinned = json.loads(baseline.read_text())
    pinned["stages"]["pipeline"][str(TINY)]["edges"]["pldel"] += 1
    baseline.write_text(json.dumps(pinned))
    capsys.readouterr()
    assert hb.main(_args(tmp_path, *stage)) == 1
    assert f"FAILED: pipeline n={TINY}: baseline_edges" in capsys.readouterr().err


def test_wrong_schema_baseline_exits_2_with_repin_command(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"schema": "hotpath-baseline/v1", "results": {}}))

    code = hb.main(_args(tmp_path, "--stage", f"pipeline={TINY}", "--baseline", str(baseline)))

    assert code == 2
    assert hb.remediation_command(baseline) in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_checked_in_baseline_is_current_schema():
    pinned = hb.load_baseline(hb.default_baseline_path())
    assert set(pinned["stages"]) == {s.name for s in hb.STAGES.values() if s.default}
