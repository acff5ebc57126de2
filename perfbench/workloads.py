"""The benchmark's workloads and the correctness gate on their results.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and makes sure that the ``curvipat`` it imports comes from
there, with BLAS limited to one thread unless ``CURVIPAT_THREADS`` says
otherwise.  Import it before numpy.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

os.environ.setdefault("CURVIPAT_THREADS", "1")
sys.path.insert(0, str(SRC))

import curvipat  # noqa: E402  (sets the BLAS thread variables before numpy loads)

if not Path(curvipat.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"curvipat was imported from {curvipat.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
from curvipat import cli, integrators, models  # noqa: E402

# Final fields may differ from the recorded ones by reordered floating-point
# sums (another BLAS blocking or thread count, a reassociated kernel); a
# change of scheme, coefficient or operator moves them by far more.
RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One model at its shipped ``configs/*.cfg`` dims and time step, run
    for a fixed number of steps.  Without ``snapshot_every`` the run goes
    through ``integrators.run_simulation`` with no outputs; with it, through
    ``cli.cmd_run`` writing snapshots and heatmaps every that many steps."""

    name: str
    model: str
    dims: dict
    tau: float
    steps: int
    snapshot_every: int | None = None

    def config(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        # configs/cylinder_full.cfg: tau = 50 / 8000
        Workload(
            "cylinder_bulk",
            "bsdib_cylinder",
            {"n_rho": 160, "n_theta": 160, "n_z": 20},
            50.0 / 8000.0,
            steps=40,
        ),
        # configs/ball_full.cfg: tau = 20 / 200000
        Workload(
            "ball_coupled",
            "bulk_surface_schnakenberg_ball",
            {"n_rho": 30, "n_theta": 50, "n_phi": 30},
            20.0 / 200000.0,
            steps=400,
        ),
        # configs/anomalous_disk_full.cfg: tau = 2.5 / 25000
        Workload(
            "disk_snapshots",
            "schnakenberg_anomalous_disk",
            {"n_rho": 160, "n_theta": 160},
            2.5 / 25000.0,
            steps=400,
            snapshot_every=100,
        ),
    )
}


def run(w: Workload, seed: int, workdir: Path):
    """One workload call through curvipat's public entry points.

    The entry points are looked up on their modules at call time, so
    wrappers installed by the tracer see the call.  Returns the
    ``cli.RunReport`` for snapshot workloads, else None.
    """
    t_star = w.steps * w.tau
    if w.snapshot_every is None:
        system = models.build_system(w.model, w.dims, seed)
        integrators.run_simulation(system, w.steps, t_star)
        return None
    cfg = {
        "model": w.model,
        **w.dims,
        "m": w.steps,
        "tstar": t_star,
        "seed": seed,
        "snapshots": w.snapshot_every,
        "heatmap": True,
        "out": str(workdir),
    }
    return cli.cmd_run(cfg)


def fingerprint(system, fields) -> dict[str, list[float]]:
    """Per component of the physical final field: node mean, root mean
    square, root mean square of the change from the initial field, and a
    projection of that change on a fixed random +-1 pattern, scaled so that
    its typical size is the change's RMS.

    The norms barely move when the change moves at right angles to itself,
    as a reordered pair of non-commuting split factors makes it do; the
    projection moves with any change.  Norms and projection are dot
    products, so that checking adds as little as it can to the memory peak.
    """
    out = {}
    for c in system.components:
        W = np.asarray(fields[c.name])
        final = (W + c.lift).ravel()
        change = (W - c.initial).ravel()
        root_n = np.sqrt(W.size)
        # RandomState's stream is frozen by numpy, so the pattern never changes
        signs = np.random.RandomState(2026).randint(0, 2, size=W.size) * 2.0 - 1.0
        out[c.name] = [
            float(np.mean(final)),
            float(np.linalg.norm(final) / root_n),
            float(np.linalg.norm(change) / root_n),
            float(np.dot(change, signs) / root_n),
        ]
    return out


def compare(got: dict, want: dict, rtol: float = RTOL) -> list[str]:
    """Mismatches between two fingerprints.  The mean is compared relative
    to the larger of itself and the field's RMS, so a mean near zero is not
    held to an impossible standard; the projection relative to the change's
    RMS; RMS and change RMS relative to themselves."""
    problems = []
    if set(got) != set(want):
        return [f"components {sorted(got)} differ from reference {sorted(want)}"]
    for name, (mean, rms, drms, dproj) in want.items():
        g_mean, g_rms, g_drms, g_dproj = got[name]
        for label, a, b, scale in (
            ("mean", g_mean, mean, max(abs(mean), rms)),
            ("rms", g_rms, rms, abs(rms)),
            ("change_rms", g_drms, drms, abs(drms)),
            ("change_projection", g_dproj, dproj, abs(drms)),
        ):
            if not abs(a - b) <= rtol * scale:
                problems.append(f"{name}.{label} = {a!r}, reference {b!r}")
    return problems


def expected_samples(w: Workload) -> int:
    """Samples a run takes: step 0, every ``snapshot_every`` steps, and the
    final step."""
    regular = w.steps // w.snapshot_every
    return 1 + regular + (0 if w.steps % w.snapshot_every == 0 else 1)


def snapshot_bytes(workdir: Path) -> int:
    return sum(
        p.stat().st_size for p in workdir.glob("*.csv") if p.name != "timeseries.csv"
    )


def gate(w: Workload, system, fields, report, workdir: Path, want: dict) -> list[str]:
    """Everything wrong with one workload call's results; empty if correct."""
    if system is None or fields is None:
        return ["the run produced no system or no final fields"]
    problems = compare(fingerprint(system, fields), want)
    if w.snapshot_every is None:
        return problems
    if report.diverged_step is not None:
        problems.append(f"diverged at step {report.diverged_step}")
    per_kind = expected_samples(w) * len(system.components)
    csv = [p for p in workdir.glob("*.csv") if p.name != "timeseries.csv"]
    ppm = list(workdir.glob("*.ppm"))
    if len(csv) != per_kind or len(ppm) != per_kind:
        problems.append(
            f"{len(csv)} snapshot CSVs and {len(ppm)} heatmaps, expected {per_kind} each"
        )
    if not (workdir / "timeseries.csv").is_file():
        problems.append("no timeseries.csv")
    for c in system.components:
        last = workdir / f"{c.name}_{w.steps:07d}.csv"
        if not last.is_file():
            problems.append(f"no final snapshot {last.name}")
            continue
        # the column header line starts with "i," and is skipped like a comment
        values = np.loadtxt(last, delimiter=",", comments=("#", "i,"), usecols=-1)
        final = (np.asarray(fields[c.name]) + c.lift).reshape(-1, order="F")
        if not np.array_equal(values, final):
            problems.append(f"value column of {last.name} differs from the final field")
    return problems
