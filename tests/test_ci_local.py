"""Checks on tools/ci_local.py, which runs the workflow's test job here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_local.py"
spec = importlib.util.spec_from_file_location("ci_local", TOOL)
ci_local = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci_local)


def test_steps_after_install_run_with_their_env_the_shim_and_runner_temp(capsys):
    # the step before Install is skipped; the later ones see the job's env,
    # their own (which wins), one RUNNER_TEMP and the curvipat shim
    job = {
        "env": {"JOB_VALUE": "1", "SHARED": "job"},
        "steps": [
            {"name": "Before", "run": "exit 9"},
            {"name": "Install", "run": "exit 9"},
            {"uses": "actions/cache@v4"},
            {
                "name": "Env",
                "env": {"SHARED": "step"},
                "run": 'test "$JOB_VALUE" = 1\ntest "$SHARED" = step\ntouch "$RUNNER_TEMP/mark"',
            },
            {"name": "Shim", "run": 'test -e "$RUNNER_TEMP/mark"\ncurvipat --help > /dev/null'},
        ],
    }
    assert ci_local.run_job(job) == 0
    assert "=== all 2 steps passed" in capsys.readouterr().out


def test_a_failing_command_stops_the_job_with_its_code():
    # bash -e: a failing command ends its step, and no later step runs
    job = {
        "steps": [
            {"name": "Install", "run": "true"},
            {"name": "Fails", "run": "false\nexit 0"},
            {"name": "Never", "run": "exit 7"},
        ]
    }
    assert ci_local.run_job(job) == 1
    job["steps"][1]["run"] = "exit 3"
    assert ci_local.run_job(job) == 3


def test_an_expression_stops_the_job_before_any_step():
    job = {"steps": [{"name": "Install", "run": "true"}, {"run": "echo ${{ matrix.x }}"}]}
    with pytest.raises(ValueError, match="expression"):
        ci_local.run_job(job)


def test_the_tests_job_runs_every_step_after_install():
    pytest.importorskip("yaml")
    workflow = ci_local.load_workflow(ci_local.ROOT / ".github/workflows/tier1.yml")
    assert [step["name"] for step in ci_local.steps_after_install(workflow["jobs"]["tests"])] == [
        "Console script",
        "Tier-1 tests",
        "Seed contract without AVX-512",
        "Benchmark smoke test",
    ]
