"""Smoke tests for the ``python -m repro`` command-line interface."""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_info_lists_packages():
    result = run_cli("info")
    assert result.returncode == 0
    for pkg in ("repro.sim", "repro.transport", "repro.rcds", "repro.mpi"):
        assert pkg in result.stdout


def test_examples_lists_scripts():
    result = run_cli("examples")
    assert result.returncode == 0
    assert "quickstart.py" in result.stdout
    assert "weather_monitoring.py" in result.stdout


def test_no_command_prints_usage():
    result = run_cli()
    assert result.returncode == 2
    assert "usage:" in result.stdout


def test_unknown_command_prints_usage():
    result = run_cli("bogus")
    assert result.returncode == 2


def test_obs_report_demo_scenario(tmp_path):
    out = tmp_path / "run.json"
    result = run_cli("obs", "report", "--json", str(out))
    assert result.returncode == 0
    # Per-transport latency percentiles and retransmit counts (the demo
    # runs srudp, tcp, and mcast under 5% loss, so all three appear).
    assert "p50" in result.stdout and "p99" in result.stdout
    assert "transport.msg_latency" in result.stdout
    assert "transport.retransmits" in result.stdout
    for proto in ("proto=srudp", "proto=tcp", "proto=mcast"):
        assert proto in result.stdout
    assert out.is_file()


def test_obs_report_renders_saved_export_and_diff(tmp_path):
    out = tmp_path / "run.json"
    assert run_cli("obs", "report", "--json", str(out)).returncode == 0
    rendered = run_cli("obs", "report", str(out))
    assert rendered.returncode == 0
    assert "transport.msg_latency" in rendered.stdout
    diff = run_cli("obs", "diff", str(out), str(out))
    assert diff.returncode == 0
    assert "delta" in diff.stdout
    assert "transport.retransmits" in diff.stdout


# ---------------------------------------------------------------------------
# chaos / check flag validation (flags are declared per scenario-table entry)
# ---------------------------------------------------------------------------

def test_chaos_rejects_flags_the_scenario_does_not_take():
    """Every baseline flag here belongs to another scenario; the CLI used
    to run plain ``faults`` and exit 0."""
    result = run_cli("chaos", "run", "--scenario", "faults", "--static",
                     "--blackout", "--unbounded", "--heartbeat-only",
                     "--saturation", "9")
    assert result.returncode == 2
    for flag in ("--static", "--blackout", "--unbounded", "--heartbeat-only",
                 "--saturation"):
        assert flag in result.stderr
    assert "overload" in result.stderr  # names the scenarios that take them


def test_check_rejects_flags_the_scenario_does_not_take():
    """``check`` builds its flags from the same table as ``chaos``; it
    used to run bulk with ``--workers 7 --steps 99`` ignored and exit 0."""
    result = run_cli("check", "run", "--scenario", "bulk", "--seed", "1",
                     "--workers", "7", "--steps", "99")
    assert result.returncode == 2
    for flag in ("--workers", "--steps"):
        assert flag in result.stderr
    assert "faults" in result.stderr  # names the scenarios that take them
    # A check run's plan is sampled, so flags that only shape the seeded
    # chaos plan are not check flags at all.
    result = run_cli("check", "run", "--scenario", "faults", "--no-churn")
    assert result.returncode == 2 and "--no-churn" in result.stderr


@pytest.mark.parametrize("cli", ["chaos", "check"])
def test_shard_rejects_more_workers_than_its_site_has(cli):
    result = run_cli(cli, "run", "--scenario", "shard", "--workers", "4")
    assert result.returncode == 2
    assert "--workers 4" in result.stderr


def _documented_commands(verb):
    """Every ``python -m repro <verb> run|sweep ...`` line in README.md and
    ci.yml (CI's loops are expanded over the table: ``"$s"`` over its
    scenarios, ``"$s"``/``"$b"`` over its (scenario, seeded bug) pairs)."""
    from repro.check.scenarios import SCENARIOS

    pairs = [(name, bug) for name, s in SCENARIOS.items() for bug in s.bugs]
    root = pathlib.Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text() + (
        root / ".github" / "workflows" / "ci.yml").read_text()
    text = re.sub(r"\s*\n\s+(?=--)", " ", text)  # ci.yml folds long commands
    found = set()
    for m in re.finditer(rf"python -m repro {verb} ((?:run|sweep)[^\n#`;|]*)", text):
        line = m.group(1)
        if '"$b"' in line:
            subs = [{'"$s"': name, '"$b"': bug} for name, bug in pairs]
        else:
            subs = [{'"$s"': name} for name in SCENARIOS] if '"$s"' in line else [{}]
        for sub in subs:
            argv = line
            for var, value in sub.items():
                argv = argv.replace(var, value)
            # `run: "! ... "` steps end in a quote
            found.add(tuple(shlex.split(argv.rstrip('" '))))
    return sorted(found)


def test_every_documented_chaos_and_check_command_still_parses():
    from repro.check import cli as check_cli
    from repro.robust import cli as chaos_cli

    chaos, check = _documented_commands("chaos"), _documented_commands("check")
    assert len(chaos) >= 10 and len(check) >= 8  # the scan found them
    for argv in chaos:
        chaos_cli.parse_args(list(argv))  # SystemExit(2) would fail the test
    for argv in check:
        check_cli.parse_args(list(argv))
