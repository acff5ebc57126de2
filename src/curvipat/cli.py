"""Batch command-line front-end.

Subcommands, with the settings each reads (``_SETTINGS``):

* ``run``       -- one simulation from a config, writing a time-series CSV,
                   per-component snapshot files and optional PPM heatmaps;
                   reads model, seed, out, tstar, n_<axis>, m, snapshots, heatmap.
* ``converge``  -- self-convergence study against a fine-step reference,
                   optionally comparing forward Euler and the dense classical
                   exponential Euler; reads model, seed, out, tstar, n_<axis>,
                   m_list, m_ref, fe, dense.
* ``props``     -- structural property report for one operator family; reads
                   kind, n_list, params.rho_star, params.z_star, params.lambda.

Configuration comes from an optional flat ``key = value`` file (``#``
comments) overridden by flags; ``--set key=value`` patches any setting its
subcommand reads, and ``--set params.<name>=<value>`` a model constant. Any
other key, however it is given, is a usage error, so a config file shared
between subcommands must hold only keys that each of them reads.

Exit codes: 0 success, 2 usage error, 3 divergence, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import models, output
from .integrators import AXES, DENSE_REFERENCE_CAP, DivergenceError, run_simulation
from .operators import (
    NumericalFailure,
    build_lambda,
    build_phi_op,
    build_rho,
    build_theta,
    build_z,
    eig_tridiag,
    matrix_exp_nonneg_check,
    symmetrize,
)
from .output import FLOAT_FMT


class UsageError(ValueError):
    pass


# every axis of any geometry, in order of first use: rho, theta, phi, z
_AXIS_NAMES = tuple(dict.fromkeys(axis for axes in AXES.values() for axis in axes))
_DIM_KEYS = {f"n_{axis}" for axis in _AXIS_NAMES}

# The operator families of ``props``, each built from n and the constants
# below (patched by params.<name>).
_PROP_CONSTANTS = {"rho_star": 1.0, "z_star": 1.0, "lambda": -1.95}
_PROP_BUILDERS = {
    "theta": lambda n, k: build_theta(n),
    "rho2": lambda n, k: build_rho(2, n, k["rho_star"]),
    "rho3": lambda n, k: build_rho(3, n, k["rho_star"]),
    "phi": lambda n, k: build_phi_op(n),
    "z": lambda n, k: build_z(n, k["z_star"]),
    "lambda": lambda n, k: build_lambda(n, k["rho_star"], k["lambda"]),
}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_int_list(value: str) -> list[int]:
    return [int(tok) for tok in value.replace(",", " ").split()]


_SIM = ("run", "converge")
# Every setting once: key -> (parse function, subcommands that read it, help).
# Flags, config files and --set all parse with it; _parse_bool keys are switches.
_SETTINGS = {
    "model": (str, _SIM, "model name"),
    "seed": (int, _SIM, "random seed in [0, 2**64)"),
    "out": (str, _SIM, "output directory"),
    "tstar": (float, _SIM, "final time"),
    **{f"n_{axis}": (int, _SIM, f"grid points along {axis}") for axis in _AXIS_NAMES},
    "m": (int, ("run",), "number of time steps"),
    "snapshots": (int, ("run",), "sample every this many steps"),
    "heatmap": (_parse_bool, ("run",), "write PPM heatmaps"),
    "m_list": (_parse_int_list, ("converge",), "ascending step counts, e.g. 20,40,80"),
    "m_ref": (int, ("converge",), "step count of the reference run"),
    "fe": (_parse_bool, ("converge",), "include forward Euler"),
    "dense": (_parse_bool, ("converge",), "include the dense classical exponential Euler"),
    "kind": (str, ("props",), f"operator family: {', '.join(_PROP_BUILDERS)}"),
    "n_list": (_parse_int_list, ("props",), "operator sizes, e.g. 8,16,32"),
}


@dataclass
class RunReport:
    wall_time: float
    per_step_time: float
    final_means: dict[str, float]
    diverged_step: int | None
    manifest: list[Path] = field(default_factory=list)


def parse_config_file(path: Path) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def merge_config(args: argparse.Namespace) -> dict:
    """Config file first, then flags, then --set patches."""
    cfg: dict = {}
    overrides: dict[str, float] = {}

    def assign(key: str, value: str) -> None:
        if key.startswith("params."):
            store, name, parse = overrides, key[len("params."):], float
        elif key not in _SETTINGS:
            raise UsageError(
                f"unknown config key {key!r} (model constants take the params. prefix)"
            )
        elif args.command not in _SETTINGS[key][1]:
            raise UsageError(f"{args.command} does not read {key!r}")
        else:
            store, name, parse = cfg, key, _SETTINGS[key][0]
        try:
            store[name] = parse(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {value!r}") from exc

    if args.config:
        for key, value in parse_config_file(Path(args.config)).items():
            assign(key, value)
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        assign(key.strip(), value.strip())
    cfg["overrides"] = overrides
    return cfg


def _require_model(cfg: dict) -> models.Model:
    if "model" not in cfg:
        raise UsageError("no model given (flag --model or config key model)")
    try:
        name = models.ModelName(cfg["model"])
    except ValueError as exc:
        valid = ", ".join(m.value for m in models.ModelName)
        raise UsageError(f"unknown model {cfg['model']!r}; choose from: {valid}") from exc
    try:
        return models.model_spec(name, cfg.get("overrides") or None)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc


def _require_dims(cfg: dict, name: models.ModelName) -> dict[str, int]:
    keys = models.dim_keys(name)
    foreign = sorted(_DIM_KEYS.intersection(cfg).difference(keys))
    if foreign:
        raise UsageError(
            f"model {name.value} has no axis for {', '.join(foreign)}; "
            f"its dimensions are {', '.join(keys)}"
        )
    dims = {}
    for key in keys:
        if key not in cfg:
            raise UsageError(f"model {name.value} needs dimension {key}")
        if cfg[key] < 2:
            raise UsageError(f"{key} must be at least 2")
        dims[key] = cfg[key]
    return dims


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise UsageError(f"missing required setting {key}")
    return cfg[key]


def _require_positive(cfg: dict, key: str):
    value = _require(cfg, key)
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"{key} must be a positive finite number, got {value!r}")
    return value


def _require_seed(cfg: dict) -> int:
    # the library masks seeds to 64 bits; on the command line an
    # out-of-range seed is a mistake, not another seed's field
    seed = cfg.get("seed", 1)
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _require_outdir(outdir: Path) -> Path:
    # checked before any system is built, so a bad out costs no run
    existing = next(path for path in (outdir, *outdir.parents) if path.exists())
    if not existing.is_dir():
        raise UsageError(f"out {outdir}: {existing} exists and is not a directory")
    return outdir


def cmd_run(cfg: dict) -> RunReport:
    model = _require_model(cfg)
    dims = _require_dims(cfg, model.name)
    m = _require_positive(cfg, "m")
    t_star = _require_positive(cfg, "tstar")
    seed = _require_seed(cfg)
    snapshot_every = _require_positive(cfg, "snapshots") if "snapshots" in cfg else m
    heatmap = bool(cfg.get("heatmap", False))
    out = cfg.get("out", "curvipat_out")
    if not out:  # Path("") is the working directory
        raise UsageError("run needs a non-empty out directory")
    outdir = _require_outdir(Path(out))

    try:
        system = models.build_system(model, dims, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    means = models.mean_diagnostics(system)
    comps = {c.name: c for c in system.components}
    names = [c.name for c in system.components]
    rows: list[tuple] = []
    manifest: list[Path] = []

    def hook(step: int, t: float, states: dict) -> None:
        if step == 0:  # run_simulation has accepted the run
            outdir.mkdir(parents=True, exist_ok=True)
        sample = means(states)
        rows.append((t, *[sample[n] for n in names]))
        for name in names:
            comp = comps[name]
            physical = states[name] + comp.lift
            snap = outdir / f"{name}_{step:07d}.csv"
            output.write_snapshot(
                snap, physical, comp.ops, component=name, model=model.name.value, step=step, t=t
            )
            manifest.append(snap)
            if heatmap:
                ppm = outdir / f"{name}_{step:07d}.ppm"
                output.write_heatmap(ppm, physical)
                manifest.append(ppm)

    diverged: int | None = None
    start = time.perf_counter()
    try:
        result = run_simulation(
            system, m, t_star, record_every=snapshot_every, sample_hook=hook
        )
        final_states = result.fields
    except DivergenceError as exc:
        diverged = exc.step
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    wall = time.perf_counter() - start

    series_path = outdir / "timeseries.csv"
    output.write_timeseries(series_path, names, rows)
    manifest.append(series_path)

    final_means = {} if diverged is not None else means(final_states)
    return RunReport(wall, wall / m, final_means, diverged, manifest)


def _relative_error(states: dict, reference: dict) -> float:
    total = 0.0
    for name, ref in reference.items():
        diff = np.linalg.norm(states[name] - ref)
        if diff:  # a run equal to its reference adds 0, even a reference of 0
            total += (diff / np.linalg.norm(ref)) ** 2
    return math.sqrt(total)


def cmd_converge(cfg: dict) -> dict:
    model = _require_model(cfg)
    dims = _require_dims(cfg, model.name)
    t_star = _require_positive(cfg, "tstar")
    m_list = _require(cfg, "m_list")
    if len(m_list) < 2 or m_list[0] < 1 or any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise UsageError(
            f"m_list needs at least two strictly ascending step counts >= 1, got {m_list!r}"
        )
    m_ref = cfg.get("m_ref", 4 * max(m_list))
    if m_ref < 4 * max(m_list):
        raise UsageError("reference step count must be at least 4x max(m_list)")
    seed = _require_seed(cfg)
    outdir = _require_outdir(Path(cfg["out"])) if cfg.get("out") else None

    def fields(run: str, m: int, method: str) -> dict:
        try:
            return run_simulation(system, m, t_star, method=method).fields
        except DivergenceError as exc:  # say which run of the study it was
            raise DivergenceError(f"{run} run with m = {m}: {exc}", exc.step) from exc

    # every run copies the initial fields and changes nothing else, so one
    # system serves them all
    try:
        system = models.build_system(model, dims, seed)
        reference = fields("reference", m_ref, "split")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    columns = [("err_split", "split")]
    if cfg.get("dense"):
        unknowns = max(field.size for field in reference.values())
        if unknowns > DENSE_REFERENCE_CAP:
            print(
                f"note: {unknowns} unknowns exceed the dense cap "
                f"{DENSE_REFERENCE_CAP}; dense column skipped",
                file=sys.stderr,
            )
        else:
            columns.append(("err_dense", "dense"))
    if cfg.get("fe"):
        columns.append(("err_fe", "forward_euler"))

    table: list[dict] = []
    for m in m_list:
        entry: dict = {"m": m}
        for column, method in columns:
            try:
                entry[column] = _relative_error(fields(method, m, method), reference)
            except DivergenceError as exc:
                if method != "forward_euler":
                    raise
                # explicit Euler's stability limit is a finding, not a failure
                entry[column] = None
                entry["fe_diverged_at"] = exc.step
        table.append(entry)

    # log(err) needs every err_split finite and positive (nan fails both tests)
    unfit = [str(entry["m"]) for entry in table if not 0 < entry["err_split"] < math.inf]
    slope = None
    slope_text = order = f"undefined, err_split is 0 or not finite at m = {', '.join(unfit)}"
    if not unfit:
        logs_m = np.log([entry["m"] for entry in table])
        logs_e = np.log([entry["err_split"] for entry in table])
        slope = float(np.polyfit(logs_m, logs_e, 1)[0])
        slope_text, order = f"{slope:.4f}", f"{-slope:.4f}"

    header = ",".join(["m", *(column for column, _ in columns)])

    def row(entry: dict, diverged: str) -> str:
        # the cell of a diverged forward Euler run, which has no error
        cells = [str(entry["m"])]
        cells += [diverged if entry[k] is None else FLOAT_FMT % entry[k] for k, _ in columns]
        return ",".join(cells)

    print(header)
    for entry in table:
        print(row(entry, f"diverged@{entry.get('fe_diverged_at')}"))
    print(f"least-squares slope of log(err) vs log(m): {slope_text}")
    print(f"observed order: {order}")

    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "convergence.csv", "w", encoding="ascii") as fh:
            fh.write(header + "\n")
            for entry in table:
                fh.write(row(entry, "nan") + "\n")
    return {"table": table, "slope": slope}


def cmd_props(cfg: dict) -> list[dict]:
    kind = _require(cfg, "kind")
    if kind not in _PROP_BUILDERS:
        raise UsageError(f"unknown operator kind {kind!r}")
    overrides = cfg.get("overrides", {})
    unknown = set(overrides) - set(_PROP_CONSTANTS)
    if unknown:
        raise UsageError(
            f"props takes params.rho_star, z_star and lambda, not {sorted(unknown)}"
        )
    n_list = _require(cfg, "n_list")
    if not n_list:
        raise UsageError("n_list is empty")
    if max(n_list) > 2048:
        raise UsageError("property report capped at n = 2048")
    constants = _PROP_CONSTANTS | overrides
    for key in ("rho_star", "z_star"):
        if not (math.isfinite(constants[key]) and constants[key] > 0):
            raise UsageError(f"{key} must be finite and positive, got {constants[key]!r}")
    if not math.isfinite(constants["lambda"]):
        raise UsageError(f"lambda must be finite, got {constants['lambda']!r}")
    rows = []
    for n in n_list:
        try:
            # numpy's overflow and division by zero raise here, as Python's do
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                rows.append(_operator_row(kind, n, constants))
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"bad constants for the {kind} operator at n = {n}: {exc}") from exc

    columns = sorted({key for row in rows for key in row}, key=lambda k: (k != "n", k))
    print(",".join(columns))
    for row in rows:
        print(",".join(_format_cell(row.get(col)) for col in columns))
    return rows


def _operator_row(kind: str, n: int, constants: dict) -> dict:
    """One row of the property report: the operator of this kind and size."""
    op = _PROP_BUILDERS[kind](n, constants)
    row: dict = {"n": n}
    if kind == "theta":
        row["extra_diag_positive"] = op.off > 0
        row["max_abs_rowsum"] = 0.0
        lambdas = op.lambdas  # closed form; the report needs no eigenvectors
        row["xi_inv_norm"] = 1.0
        row["xi_inv_closed_form"] = 1.0
    else:
        row["extra_diag_positive"] = bool(np.all(op.b > 0) and np.all(op.c > 0))
        sums = op.row_sums()
        zero_rows = sums[:-1] if kind in ("z", "lambda") else sums
        row["max_abs_rowsum"] = float(np.max(np.abs(zero_rows)))
        xi, _ = symmetrize(op)
        lambdas = eig_tridiag(op).lambdas
        row["xi_inv_norm"] = float(np.max(1.0 / xi))
        if kind == "rho2":
            row["xi_inv_closed_form"] = math.sqrt(2 * n - 3)
        elif kind == "rho3":
            row["xi_inv_closed_form"] = float(n - 1)
        elif kind == "z":
            row["xi_cond"] = float(np.max(xi) / np.min(xi))
            row["xi_cond_closed_form"] = math.sqrt(2.0)
    row["max_eigenvalue"] = float(np.max(lambdas))
    if n <= 64:
        row["exp_min_entry"] = min(matrix_exp_nonneg_check(op, t) for t in (0.1, 1.0, 10.0))
    return row


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "yes" if value else "no"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvipat",
        description="Diffusion-reaction pattern simulations on curvilinear domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "run one simulation",
        "converge": "self-convergence study",
        "props": "operator property report",
    }
    for command, summary in helps.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a setting or (with params. prefix) a constant")
        for key, (parse, commands, text) in _SETTINGS.items():
            if command not in commands:
                continue
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, dest=key, type=parse, help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        if args.command == "run":
            report = cmd_run(cfg)
            for name, value in report.final_means.items():
                print(f"final mean_{name}: {FLOAT_FMT % value}")
            print(f"wall time: {report.wall_time:.3f} s "
                  f"({report.per_step_time * 1e3:.3f} ms/step)")
            print(f"files written: {len(report.manifest)}")
            if report.diverged_step is not None:
                print(f"DIVERGED at step {report.diverged_step}; partial outputs kept",
                      file=sys.stderr)
                return 3
            return 0
        if args.command == "converge":
            cmd_converge(cfg)
            return 0
        cmd_props(cfg)
        return 0
    except (UsageError, DivergenceError, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3 if isinstance(exc, DivergenceError) else 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
