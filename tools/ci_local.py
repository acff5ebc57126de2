"""Run the ``tests`` job of ``.github/workflows/tier1.yml`` on this machine.

    python tools/ci_local.py

Runs the job's ``run:`` steps that come after its ``Install`` step, in
order, from the repository root: each under ``bash -e`` with the job's and
the step's ``env``, ``RUNNER_TEMP`` set to a fresh temporary directory
(one for the job, as on a runner), and
a ``curvipat`` shim first on ``PATH`` that runs ``python -m curvipat`` with
``src/`` on ``PYTHONPATH``, in place of the console script that ``Install``
would put there.  Checkout, Python set-up and install are skipped, so the
current interpreter and its packages serve.  It stops at the first failing
step and exits with that step's code; ``${{ }}`` expressions in a step it
runs are not evaluated and stop it with an error.

The workflow is read with PyYAML, which this script needs but the package
does not depend on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workflow(path: Path) -> dict:
    try:
        import yaml
    except ImportError:
        sys.exit("tools/ci_local.py reads the workflow with PyYAML, which is not installed")
    return yaml.safe_load(path.read_text())


def steps_after_install(job: dict) -> list[dict]:
    """The job's ``run:`` steps after the one named ``Install``."""
    names = [step.get("name") for step in job["steps"]]
    if "Install" not in names:
        raise ValueError("the job has no step named Install")
    later = job["steps"][names.index("Install") + 1 :]
    return [step for step in later if "run" in step]


def shim(directory: Path) -> None:
    """A ``curvipat`` executable in ``directory`` that runs the package
    from ``src/`` with this interpreter."""
    script = directory / "curvipat"
    script.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH="{ROOT / "src"}${{PYTHONPATH:+:$PYTHONPATH}}" '
        f'exec "{sys.executable}" -m curvipat "$@"\n'
    )
    script.chmod(0o755)


def run_job(job: dict) -> int:
    """Run the steps; the exit code of the first failing one, else 0."""
    steps = steps_after_install(job)
    for step in steps:
        env = {**job.get("env", {}), **step.get("env", {})}
        if any("${{" in str(value) for value in [step["run"], *env.values()]):
            raise ValueError(f"step {step.get('name')!r} uses a ${{{{ }}}} expression")
    with tempfile.TemporaryDirectory(prefix="ci_local_") as scratch:
        scratch = Path(scratch)
        for directory in ("bin", "runner_temp"):
            (scratch / directory).mkdir()
        shim(scratch / "bin")
        for i, step in enumerate(steps):
            name = step.get("name", f"step {i + 1}")
            env = {**os.environ, **job.get("env", {}), **step.get("env", {})}
            env = {key: str(value) for key, value in env.items()}
            env["RUNNER_TEMP"] = str(scratch / "runner_temp")
            env["PATH"] = f"{scratch / 'bin'}{os.pathsep}{env.get('PATH', '')}"
            script = scratch / f"step_{i}.sh"
            script.write_text(step["run"])
            print(f"=== {name}", flush=True)
            start = time.perf_counter()
            code = subprocess.run(["bash", "-e", str(script)], cwd=ROOT, env=env).returncode
            elapsed = time.perf_counter() - start
            print(f"=== {name}: {'ok' if code == 0 else f'failed, exit {code}'} ({elapsed:.1f} s)")
            if code:
                return code
    print(f"=== all {len(steps)} steps passed")
    return 0


def main() -> int:
    workflow = load_workflow(ROOT / ".github/workflows/tier1.yml")
    return run_job(workflow["jobs"]["tests"])


if __name__ == "__main__":
    sys.exit(main())
