"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_defaults():
    args = build_parser().parse_args(["fig3"])
    assert args.command == "fig3"
    assert args.slices == 10
    args = build_parser().parse_args(["fig4", "--nodes", "50", "60"])
    assert args.nodes == [50, 60]


def test_demo_command_runs(capsys):
    assert main(["demo", "--nodes", "25", "--slices", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "slicing converged: True" in out
    assert "hello dataflasks" in out


def test_fig3_command_runs(capsys):
    assert main(["fig3", "--nodes", "20", "30", "--slices", "2", "--records", "6"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "20" in out and "30" in out


def test_fig4_command_runs(capsys):
    code = main(
        [
            "fig4",
            "--nodes", "20", "40",
            "--nodes-per-slice", "10",
            "--records-per-slice", "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    # n, num_slices, ops, messages_per_node, success_rate: k = n // 10
    # slices and 4 writes per slice, every one acknowledged.
    rows = [line.split() for line in out.splitlines()[2:4]]
    assert [(r[0], r[1], r[2], r[4]) for r in rows] == [
        ("20", "2", "8", "1.00"),
        ("40", "4", "16", "1.00"),
    ]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["fig4", "--nodes", "20", "--nodes-per-slice", "0"], "nodes_per_slice"),
        (["fig4", "--nodes", "20", "--nodes-per-slice", "-5"], "nodes_per_slice"),
        (["fig4", "--nodes", "20", "--records-per-slice", "0"], "records_per_slice"),
        (["fig4", "--nodes", "20", "--records-per-slice", "-1"], "records_per_slice"),
        (["fig3", "--nodes", "3", "--slices", "5", "--records", "2"], "num_slices"),
    ],
)
def test_fig_bad_sizing_is_one_error_line(argv, field, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and field in out
    assert len(out.splitlines()) == 1


def test_check_command_healthy(capsys):
    assert main(["check", "--nodes", "25", "--slices", "3", "--keys", "4"]) == 0
    out = capsys.readouterr().out
    assert "healthy: True" in out


SMALL_RUN = ["--nodes", "20", "--records", "5", "--ops", "8"]


def test_backends_list(capsys):
    assert main(["backends", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("core", "dht", "oracle"):
        assert name in out
    assert "ground-truth" in out  # descriptions shown


def test_backends_requires_action():
    with pytest.raises(SystemExit):
        main(["backends"])


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("baseline", "catastrophic-failure", "scale-5k"):
        assert name in out


def test_scenarios_run_table(capsys):
    assert main(["scenarios", "run", "baseline", "--seed", "3"] + SMALL_RUN) == 0
    out = capsys.readouterr().out
    assert "scenario: baseline (seed 3)" in out
    assert "load_success_rate" in out


def test_scenarios_run_summary_deterministic(capsys):
    argv = ["scenarios", "run", "baseline", "--seed", "3", "--summary"] + SMALL_RUN
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"seed": 3' in first


def test_scenarios_run_custom_spec_file(tmp_path, capsys):
    path = tmp_path / "mini.json"
    path.write_text(
        '{"name": "mini", "nodes": 15, "num_slices": 3, "warmup": 8.0,'
        ' "settle": 5.0, "workload": {"record_count": 4}}'
    )
    assert main(["scenarios", "run", "--spec", str(path)]) == 0
    assert "scenario: mini" in capsys.readouterr().out


def test_scenarios_run_requires_name_or_spec():
    with pytest.raises(SystemExit):
        main(["scenarios", "run"])


def test_scenarios_run_rejects_name_and_spec(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text('{"name": "mini"}')
    with pytest.raises(SystemExit, match="not both"):
        main(["scenarios", "run", "baseline", "--spec", str(path)])


def test_scenarios_unknown_name_reports_error(capsys):
    assert main(["scenarios", "run", "no-such-thing"]) == 2
    out = capsys.readouterr().out
    assert "error:" in out and "no-such-thing" in out


def test_scenarios_validate_bundled_name(capsys):
    assert main(["scenarios", "validate", "asymmetric-partition"]) == 0
    out = capsys.readouterr().out
    assert "spec OK: asymmetric-partition" in out
    assert "backend: core" in out
    assert "partition" in out
    assert "heals_at" in out


def test_scenarios_validate_rejects_unregistered_stack(tmp_path, capsys):
    path = tmp_path / "badstack.toml"
    path.write_text('name = "badstack"\nstack = "cloud"\n')
    assert main(["scenarios", "validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "invalid spec" in out
    # The error names what *is* registered.
    for name in ("core", "dht", "oracle"):
        assert name in out


def test_scenarios_run_oracle_stack(capsys):
    argv = ["scenarios", "run", "oracle-baseline", "--seed", "2"] + SMALL_RUN
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "scenario: oracle-baseline (seed 2)" in out
    assert "stale_reads" in out


def test_scenarios_validate_spec_file_with_faults(tmp_path, capsys):
    path = tmp_path / "faulty.toml"
    path.write_text(
        "\n".join(
            [
                'name = "faulty"',
                "nodes = 20",
                "[[faults]]",
                'kind = "burst_loss"',
                "loss = 0.5",
                "start = 1.0",
                "duration = 4.0",
            ]
        )
    )
    assert main(["scenarios", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "spec OK: faulty" in out
    assert "burst_loss" in out


def test_scenarios_validate_rejects_bad_fault(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text(
        "\n".join(
            [
                'name = "bad"',
                "[[faults]]",
                'kind = "meteor"',
            ]
        )
    )
    assert main(["scenarios", "validate", str(path)]) == 2
    assert "invalid spec" in capsys.readouterr().out


def test_scenarios_validate_rejects_malformed_toml(tmp_path, capsys):
    path = tmp_path / "broken.toml"
    path.write_text("name = ")
    assert main(["scenarios", "validate", str(path)]) == 2
    assert "invalid spec" in capsys.readouterr().out


def test_scenarios_validate_missing_file(capsys):
    assert main(["scenarios", "validate", "/no/such/spec.toml"]) == 2
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("action", ["validate", "run", "sweep"])
@pytest.mark.parametrize(
    "text, message",
    [('name = "a"\nname = "b"\n', "invalid spec"), (None, "cannot read spec")],
    ids=["duplicated-key", "missing-file"],
)
def test_a_bad_spec_file_is_one_error_line_for_every_action(
    tmp_path, capsys, action, text, message
):
    # run and sweep used to die with a TOMLDecodeError or
    # FileNotFoundError traceback where validate printed one line.
    path = tmp_path / "bad.toml"
    if text is not None:
        path.write_text(text)
    argv = [str(path)] if action == "validate" else ["--spec", str(path)]
    assert main(["scenarios", action, *argv]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"error: {message}")


def test_scenarios_validate_unknown_bundled_name(capsys):
    assert main(["scenarios", "validate", "no-such-scenario"]) == 2
    assert "error:" in capsys.readouterr().out


def test_scenarios_sweep(capsys):
    argv = ["scenarios", "sweep", "baseline", "--seeds", "0", "1"] + SMALL_RUN
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "over seeds [0, 1]" in out
    assert "load_success_rate" in out
    assert "stdev" in out


SMALL_FR = ["--nodes", "15", "--records", "5", "--ops", "15"]


def test_scenarios_run_brief(capsys):
    argv = ["scenarios", "run", "baseline", "--seed", "3", "--brief"] + SMALL_RUN
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "baseline: core stack" in out
    assert "ops:" in out and "sim:" in out


def test_scenarios_run_obs_artifacts_and_stdout_purity(tmp_path, capsys):
    # The CI obs-smoke check in CLI form: --summary stdout must be
    # byte-identical with and without the recorder (artifact chatter
    # goes to stderr), and the artifact files must exist.
    obs_dir = str(tmp_path / "obs")
    base = ["scenarios", "run", "flight-recorder", "--summary"] + SMALL_FR
    assert main(base + ["--no-obs"]) == 0
    off = capsys.readouterr()
    assert main(base + ["--timeline", "--trace", "--profile", "--obs-dir", obs_dir]) == 0
    on = capsys.readouterr()
    assert on.out == off.out
    assert "obs artifacts" in on.err and "obs artifacts" not in off.err
    for name in ("manifest.json", "timeline.json", "trace.json", "hotspots.json"):
        assert (tmp_path / "obs" / name).is_file()


def test_spec_observability_block_enables_recorder(tmp_path, capsys):
    # flight-recorder's own [observability] turns pillars on without flags.
    obs_dir = str(tmp_path / "obs")
    argv = ["scenarios", "run", "flight-recorder", "--summary",
            "--obs-dir", obs_dir] + SMALL_FR
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "obs" / "timeline.json").is_file()
    assert (tmp_path / "obs" / "trace.json").is_file()
    assert not (tmp_path / "obs" / "hotspots.json").exists()  # profile off in spec


def test_report_command(tmp_path, capsys):
    obs_dir = str(tmp_path / "obs")
    argv = ["scenarios", "run", "flight-recorder", "--summary", "--timeline",
            "--trace", "--profile", "--obs-dir", obs_dir] + SMALL_FR
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["report", obs_dir]) == 0
    out = capsys.readouterr().out
    assert "run: flight-recorder" in out
    assert "timeline (" in out
    assert "Perfetto" in out
    assert "hotspots (" in out
    # Phases print in the order the runner ran them, not sorted by name.
    (phases,) = [line for line in out.splitlines() if line.startswith("  phases: ")]
    assert [part.split()[0] for part in phases.split(": ", 1)[1].split(", ")] == [
        "deploy", "converge", "load", "settle", "transactions", "heal", "collect"
    ]


def test_report_missing_directory(capsys):
    assert main(["report", "/no/such/dir"]) == 2
    assert "error:" in capsys.readouterr().out


def test_scenarios_sweep_jobs_summary_matches_serial(capsys):
    # The CI parallel-vs-serial determinism check in CLI form: the
    # canonical aggregate JSON must be byte-identical for any --jobs.
    argv = ["scenarios", "sweep", "baseline", "--seeds", "0", "1", "--summary"]
    assert main(argv + SMALL_RUN + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + SMALL_RUN + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    payload = json.loads(serial)
    assert payload["scenario"] == "baseline"
    assert payload["seeds"] == [0, 1]
    assert "load_success_rate" in payload["aggregate"]
