"""The scenario table is complete, and it is the only list of scenarios."""

import argparse
import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

from repro.check import BUGS, SCENARIOS, run_check
from repro.check import cli as check_cli
from repro.check.explore import _BUG_HOOKS
from repro.check.scenarios import CHAOS_FLAGS, Scenario, columns
from repro.obs import cli as obs_cli
from repro.robust import cli as chaos_cli
from repro.robust.spine import FaultEvent, Run
from tests.replay import SCENARIOS as GOLDEN_SCENARIOS


def test_every_entry_declares_every_role():
    callables = [f.name for f in Scenario.__dataclass_fields__.values()
                 if "Callable" in str(f.type)]
    assert callables == ["runner", "plan"]  # one runner, one plan sampler
    for name, s in SCENARIOS.items():
        for role in (s.runner, s.runner.run, s.plan):
            assert callable(role), name
        assert s.blurb and s.flags and s.columns, name
        assert set(s.flags) <= set(CHAOS_FLAGS), name
        assert "duration" in s.flags, name  # every run has a time budget
        # The check profile is runner kwargs, budget included.
        params = inspect.signature(s.runner).parameters
        assert set(s.check) <= set(params) and "duration" in s.check, name


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_chaos_plan_is_what_a_check_run_arms(name):
    """A chaos run's plan names every fault it injected, round-trips
    through ``FaultEvent.from_dict``, and handed to ``run_check`` (same
    workload — the check profile's — and the FIFO schedule) arms the
    same faults up to the check run's stop time."""
    entry = SCENARIOS[name]
    chaos = entry.runner(1, flight=False, **entry.check)
    plan = [FaultEvent.from_dict(d) for d in chaos["plan"]]
    assert plan and [e.to_dict() for e in plan] == chaos["plan"]
    assert chaos["fault_log"]  # something landed
    checked = run_check(name, seed=1, plan=plan, explore=False)
    assert checked["plan"] == chaos["plan"]
    stop = checked["finished_at"]
    assert checked["fault_log"] == [e for e in chaos["fault_log"] if e[0] <= stop]
    assert columns(name, checked)
    # Nothing is injected outside the plan: handed none, a run has none.
    empty = run_check(name, seed=1, plan=[], explore=False, duration=20.0)
    assert empty["fault_log"] == []


def _scenario_choices(parser, *path):
    """The ``--scenario`` choices of the subcommand at *path*."""
    for word in path:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return next(a for a in parser._actions if a.dest == "scenario").choices


def test_cli_scenario_choices_are_the_tables_keys(monkeypatch):
    parsers = {}
    orig = argparse.ArgumentParser.parse_args

    def capture(self, args=None, namespace=None):
        parsers[self.prog] = self
        return orig(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    chaos_cli.parse_args(["run"])
    check_cli.parse_args(["run"])
    monkeypatch.setattr(obs_cli, "_cmd_report", lambda args: 0)
    obs_cli.main(["report"])
    names = list(SCENARIOS)
    for verb in ("run", "sweep"):
        assert list(_scenario_choices(parsers["python -m repro chaos"], verb)) == names
        assert list(_scenario_choices(parsers["python -m repro check"], verb)) == names
    assert list(_scenario_choices(parsers["python -m repro obs"], "profile")) \
        == ["demo", *names]


def test_every_seeded_bug_belongs_to_exactly_one_scenario():
    claimed = [bug for s in SCENARIOS.values() for bug in s.bugs]
    assert sorted(claimed) == sorted(BUGS)


SRC = Path(__file__).resolve().parent.parent / "src"


def safety_switches():
    """``(module, class, attr)`` for every class attribute in ``src/repro``
    named ``*_enabled`` — the switches a seeded bug turns off."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                           else [])
                for t in targets:
                    if isinstance(t, ast.Name) and t.id.endswith("_enabled"):
                        yield module, cls.name, t.id


def test_every_safety_switch_is_a_seeded_bug_of_one_scenario():
    """A new ``*_enabled`` switch must arrive with its seeded bug, and the
    bug with the one scenario whose oracle catches it."""
    hooks = {(cls.__module__, cls.__name__, attr): bug
             for bug, (cls, attr) in _BUG_HOOKS.items()}
    switches = set(safety_switches())
    assert switches == set(hooks)
    owners = Counter(bug for s in SCENARIOS.values() for bug in s.bugs)
    assert all(owners[hooks[switch]] == 1 for switch in switches)


def test_golden_digests_cover_every_scenario():
    assert sorted(GOLDEN_SCENARIOS) == sorted(SCENARIOS)


def test_run_hands_back_the_sim_next_to_the_report():
    """``run_*`` returns the report; ``run_*.run`` the whole Run — what
    replaced the ``holder`` sim-capture idiom."""
    run = SCENARIOS["bulk"].runner.run(1, object_kb=128, flight=False)
    assert isinstance(run, Run) and run.report["ok"]
    assert run.sim.now == run.report["finished_at"]
    assert run.sim.obs.metrics.export()["counters"]
