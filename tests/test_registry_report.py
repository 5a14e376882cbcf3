"""The dependability report of ``benchmarks/registry_equivalence.py``."""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, os.pardir, "benchmarks", "registry_equivalence.py")


@pytest.fixture(scope="module")
def registry_equivalence():
    spec = importlib.util.spec_from_file_location("registry_equivalence", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_dump(tmp_path, name, runs):
    path = tmp_path / name
    path.write_text(json.dumps(runs))
    return str(path)


def runs(stale, lost=0.0, load=1.0, seeds=(1, 2, 3)):
    return {
        f"spec-a@{seed}": {
            "stale_reads": stale[i], "lost_objects": lost, "lost_updates": 0.0,
            "load_success_rate": load, "messages_per_node": 100.0 + seed,
        }
        for i, seed in enumerate(seeds)
    }


def test_report_prints_mean_and_spread_per_spec(registry_equivalence, tmp_path, capsys):
    old = write_dump(tmp_path, "old.json", runs([4.0, 6.0, 8.0]))
    new = write_dump(tmp_path, "new.json", runs([4.0, 5.0, 6.0]))
    assert registry_equivalence.main(["report", old, new]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if "stale_reads" in line)
    assert row.split()[:2] == ["spec-a", "stale_reads"]
    assert "6 ± 2" in row and "5 ± 1" in row and row.rstrip().endswith("3")
    assert "replication_min" not in out  # absent from both dumps: no row
    assert "1 specs compared" in out


@pytest.mark.parametrize(
    "change", [dict(lost=1.0), dict(load=0.9)], ids=["lost-rises", "load-falls"]
)
def test_report_fails_on_more_loss_or_fewer_loaded_records(
    registry_equivalence, tmp_path, capsys, change
):
    old = write_dump(tmp_path, "old.json", runs([1.0, 1.0, 1.0]))
    new = write_dump(tmp_path, "new.json", runs([1.0, 1.0, 1.0], **change))
    assert registry_equivalence.main(["report", old, new]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_a_stale_read_rise_is_flagged_but_not_failed(registry_equivalence, tmp_path, capsys):
    old = write_dump(tmp_path, "old.json", runs([1.0, 2.0, 3.0]))
    new = write_dump(tmp_path, "new.json", runs([5.0, 6.0, 7.0]))
    assert registry_equivalence.main(["report", old, new]) == 0
    assert "worse by more than the old spread" in capsys.readouterr().out
