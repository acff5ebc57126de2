import hashlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvipat import cli, models, output
from curvipat import operators as op


def run_cli(*argv):
    return cli.main(list(argv))


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # comment line
        model = bvam_disk
        n_rho = 6   # trailing comment
        n_theta = 8
        m = 2
        tstar = 0.01
        params.gamma = 0.004
        heatmap = true
        """
    )
    parsed = cli.parse_config_file(cfg)
    assert parsed["model"] == "bvam_disk"
    assert parsed["n_rho"] == "6"
    merged = cli.merge_config(cli.build_parser().parse_args(["run", "--config", str(cfg)]))
    assert merged["n_rho"] == 6
    assert merged["tstar"] == 0.01
    assert merged["heatmap"] is True
    assert merged["overrides"] == {"gamma": 0.004}


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(cli.UsageError):
        cli.parse_config_file(cfg)


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"model = bvam_disk # \xe9t\xe9\n")
    for path in (tmp_path / "missing.cfg", tmp_path, latin1):
        assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_single_step_writes_two_timeseries_rows(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8",
        "--m", "1", "--tstar", "0.01", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,mean_u,mean_v"
    assert len(lines) == 3  # header + t=0 + t=t*


def test_timeseries_row_count_matches_snapshot_interval(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8",
        "--m", "10", "--tstar", "0.01", "--seed", "3", "--out", str(out),
        "--snapshots", "5",
    )
    assert code == 0
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert len(lines) == 1 + 10 // 5 + 1


def test_runs_are_byte_identical(tmp_path):
    args = [
        "run", "--model", "dib_sphere", "--n-theta", "8", "--n-phi", "6",
        "--m", "4", "--tstar", "0.001", "--seed", "11", "--snapshots", "2",
        "--heatmap",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_manifest_files_exist(tmp_path):
    out = tmp_path / "o"
    cfg = {
        "model": "bvam_disk", "n_rho": 6, "n_theta": 8, "m": 2, "tstar": 0.01,
        "seed": 1, "out": str(out), "snapshots": 1, "heatmap": True,
        "overrides": {},
    }
    report = cli.cmd_run(cfg)
    assert report.diverged_step is None
    assert report.manifest
    for path in report.manifest:
        assert Path(path).exists()
    assert set(report.final_means) == {"u", "v"}


def test_snapshot_headers_and_flat_index_order(tmp_path):
    out = tmp_path / "o"
    run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "4", "--n-theta", "6",
        "--m", "1", "--tstar", "0.001", "--seed", "2", "--out", str(out),
    )
    text = (out / "u_0000000.csv").read_text().splitlines()
    header = [l for l in text if l.startswith("#")]
    assert any(l.startswith("# geometry: disk") for l in header)
    assert any(l.startswith("# dims: 4 6") for l in header)
    assert any(l.startswith("# grid_rho:") for l in header)
    body = [l for l in text if not l.startswith("#")]
    assert body[0] == "i,j,rho,theta,value"
    first = body[1].split(",")
    second = body[2].split(",")
    assert (first[0], first[1]) == ("1", "1")
    assert (second[0], second[1]) == ("2", "1")  # first index fastest


def _golden_field(shape):
    # both signs, -0, exact integers and magnitudes 1e-300 .. 1e300, built
    # from decimal literals so the doubles are the same on every platform
    values = [
        float(f"{'-' if k % 2 else ''}{1 + k % 9}.{k % 97:02d}e{(37 * k) % 601 - 300}")
        if k % 5 else float(k - 40)
        for k in range(int(np.prod(shape)))
    ]
    values[1] = -0.0
    return np.array(values).reshape(shape, order="F")


@pytest.mark.parametrize(
    "model, index, digest",
    [
        ("bvam_disk", 0, "92b2c9fc23cd6358370c048235f72283dfff4ec2fa5d2ebc1ced5cb0b1349c8c"),
        (
            "bulk_surface_schnakenberg_ball", 0,
            "3bf151e4be745772c635cdc36786eeefd71854890708c3b2cb7fe6cf804c90c8",
        ),
        (
            "bulk_surface_schnakenberg_ball", 2,
            "53069447941bbc0c9d493c325427ff19cc636f2dd6c4e9de8e87ffc84fdcdd2c",
        ),
    ],
)
def test_snapshot_bytes_frozen(tmp_path, model, index, digest):
    # disk (order 2), ball bulk (order 3) and sphere surface: the exact
    # %.17g text downstream readers and the benchmark gate depend on
    dims = {"n_rho": 5, "n_theta": 6, "n_phi": 4}
    comp = models.build_system(model, dims, seed=1).components[index]
    path = tmp_path / "snap.csv"
    output.write_snapshot(
        path, _golden_field(comp.ops.shape), comp.ops,
        component=comp.name, model="m", step=7, t=0.125,
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_heatmap_extrema_match_field_extrema(tmp_path):
    rng = np.random.RandomState(40)
    field = rng.randn(5, 7)
    path = tmp_path / "f.ppm"
    output.write_heatmap(path, field)
    raw = path.read_bytes()
    header, pixels = raw.split(b"\n255\n", 1)
    assert header.startswith(b"P6")
    w, h = header.split(b"\n")[1].split()
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(int(h), int(w), 3)
    lo_color = output.PALETTE[0]
    hi_color = output.PALETTE[255]
    i_min, j_min = np.unravel_index(np.argmin(field), field.shape)
    i_max, j_max = np.unravel_index(np.argmax(field), field.shape)
    assert np.array_equal(img[i_min, j_min], lo_color)
    assert np.array_equal(img[i_max, j_max], hi_color)


def test_heatmap_order3_unfolds_every_value(tmp_path):
    rng = np.random.RandomState(41)
    field = rng.randn(3, 4, 2)
    path = tmp_path / "f.ppm"
    output.write_heatmap(path, field)
    raw = path.read_bytes()
    header, pixels = raw.split(b"\n255\n", 1)
    w, h = header.split(b"\n")[1].split()
    assert (int(h), int(w)) == (3, 8)
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(3, 8, 3)
    flat_min = np.argmin(field.reshape(3, -1, order="F"))
    assert np.array_equal(
        img.reshape(-1, 3)[flat_min], output.PALETTE[0]
    )


def test_colormap_of_a_constant_field_is_all_zeros():
    indices = output.colormap_indices(np.full((3, 4), 2.5))
    assert indices.dtype == np.uint8 and indices.shape == (3, 4)
    assert not indices.any()


def test_heatmap_setting_switches_the_ppm_files(tmp_path):
    disk = ["--model", "bvam_disk", "--n-rho", "4", "--n-theta", "6", "--m", "2", "--tstar", "0.01"]
    for value, ppms in (("off", 0), ("on", 4)):  # u and v at steps 0 and 2
        out = tmp_path / value
        assert run_cli("run", *disk, "--set", f"heatmap={value}", "--out", str(out)) == 0
        assert len(list(out.glob("*.ppm"))) == ppms
        assert len(list(out.glob("*.csv"))) == 5


def test_bad_settings_exit_2_with_their_message(tmp_path, capsys):
    disk = ["--model", "bvam_disk", "--n-rho", "4", "--n-theta", "6"]
    run = ["run", *disk, "--m", "2", "--tstar", "0.01", "--out", str(tmp_path / "o")]
    converge = ["converge", *disk, "--tstar", "0.01"]
    cases = [
        ([*run, "--set", "params.rho_star=1e150"],
         "the rho operator's symmetrized off-diagonals must be finite and positive"),
        ([*run, "--set", "heatmap=maybe"], "bad value for heatmap: 'maybe'"),
        ([*run, "--n-rho", "1"], "n_rho must be at least 2"),
        # published constants, but a t_star that scales diffusion beyond
        # double precision
        ([*run, "--tstar", "1e300"],
         "component 'u': over t_star = 1e+300 its diffusion coefficient 0.00387 would "
         "add up the rounding of its diffusion term to 2.11e+283 of the fields (at most "
         "0.001); the model constants (such as a tiny rho_star) or a huge t_star scale "
         "diffusion beyond double precision"),
        ([*converge, "--m-list", "2,4", "--m-ref", "8"],
         "reference step count must be at least 4x max(m_list)"),
    ]
    for argv, message in cases:
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_run_divergence_exit_code_and_partial_outputs(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8",
        "--m", "50", "--tstar", "1.0", "--seed", "1", "--out", str(out),
        "--set", "params.alpha1=1e9",
    )
    assert code == 3
    assert (out / "timeseries.csv").exists()


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("run", "--model", "nope", "--m", "1", "--tstar", "1") == 2
    assert run_cli("run", "--model", "bvam_disk", "--m", "1", "--tstar", "1") == 2
    assert run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "4", "--n-theta", "2",
        "--m", "1", "--tstar", "1",
    ) == 2
    assert run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8",
        "--m", "1", "--tstar", "1", "--set", "params.bogus=1",
    ) == 2
    assert run_cli(
        "run", "--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8",
        "--m", "1", "--tstar", "1", "--set", "nonsense",
    ) == 2
    disk = ["--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8"]
    out = ["--out", str(tmp_path / "o")]
    for tstar in ("nan", "inf", "-inf", "0"):
        assert run_cli("run", *disk, "--m", "1", f"--tstar={tstar}", *out) == 2
    assert run_cli("run", *disk, "--m", "6", "--tstar", "1", "--snapshots=-3", *out) == 2
    assert run_cli("converge", *disk, "--tstar", "0.01", "--m-list", "0,2") == 2
    assert run_cli("converge", *disk, "--tstar", "0.01", "--m-list", "") == 2
    assert run_cli("converge", *disk, "--tstar", "nan", "--m-list", "2,4") == 2
    # one step count, or a repeated one, gives no slope to call an order
    for m_list in ("4", "4,4"):
        fit = ["--tstar", "0.1", "--m-list", m_list, "--m-ref", "16"]
        assert run_cli("converge", *disk, *fit) == 2
    for seed in ("-1", str(2**64)):
        step = ["--tstar", "0.01", f"--seed={seed}"]
        assert run_cli("run", *disk, "--m", "1", *step, *out) == 2
        assert run_cli("converge", *disk, "--m-list", "2,4", *step) == 2
    # nonsense model constants are bad input, not a divergence at step 1
    for bad in ("params.gamma=-1", "params.gamma=nan", "params.gamma=inf", "params.alpha1=-inf"):
        step = ["--tstar", "0.01", "--set", bad]
        assert run_cli("run", *disk, "--m", "1", *step, *out) == 2
        assert run_cli("converge", *disk, "--m-list", "2,4", *step) == 2
    sphere = ["--model", "dib_sphere", "--n-theta", "6", "--n-phi", "6", "--m", "1"]
    for bad in ("params.zeta5=0", "params.epsilon=-20", "params.rho_star=nan"):
        assert run_cli("run", *sphere, "--tstar", "0.01", "--set", bad, *out) == 2
    # finite, but the kinetics overflow one unit from the equilibrium
    assert run_cli("run", *sphere, "--tstar", "0.1", "--set", "params.eta3=-1e308", *out) == 2
    # a size that is not positive, or whose grid spacing or coefficients
    # divide by zero or overflow, or whose radial operator cannot be
    # symmetrized (rho_star = 1e-150: finite spacing, but b c overflows), or
    # a sphere so small that its diffusion coefficient 1/rho_star^2 turns
    # the rounding error of a zero eigenvalue into growth (1e-10 and less)
    # or adds up the rounding of M W to a visible error (1e-7, 1e-8)
    cylinder = ["--model", "bsdib_cylinder", "--n-rho", "4", "--n-theta", "6", "--n-z", "4"]
    small_sphere = ["--model", "dib_sphere", "--n-theta", "8", "--n-phi", "6"]
    sizes = [
        (
            small_sphere,
            "rho_star",
            ("-1", "0", "1e-200", "1e300", "1e-7", "1e-8", "1e-10", "1e-20", "1e-150"),
        ),
        (disk, "rho_star", ("1e-300", "1e-150", "1e300")),
        (cylinder, "rho_star", ("1e-300",)),
        (cylinder, "z_star", ("1e-300",)),
    ]
    for model, key, values in sizes:
        for value in values:
            step = ["--tstar", "0.01", "--set", f"params.{key}={value}"]
            assert run_cli("run", *model, "--m", "2", *step, *out) == 2, (model, key, value)
            assert run_cli("converge", *model, "--m-list", "2,4", *step) == 2, (model, key, value)
    # fields and factors far beyond physical memory
    huge = ["--model", "bvam_disk", "--n-rho", "100000", "--n-theta", "100000"]
    assert run_cli("run", *huge, "--m", "2", "--tstar", "0.1", *out) == 2
    # a dimension the model has no axis for is a mistake, not a quiet no-op
    for foreign in (["--n-z", "20"], ["--set", "n_phi=3"]):
        assert run_cli("run", *disk, *foreign, "--m", "1", "--tstar", "0.01", *out) == 2
        assert run_cli("converge", *disk, *foreign, "--tstar", "0.01", "--m-list", "2,4") == 2
    top = ["--tstar", "0.01", f"--seed={2**64 - 1}", "--out", str(tmp_path / "top")]
    assert run_cli("run", *disk, "--m", "1", *top) == 0
    small = ["--tstar", "0.01", "--set", "params.rho_star=1e-5", "--out", str(tmp_path / "small")]
    assert run_cli("run", *small_sphere, "--m", "2", *small) == 0
    assert run_cli("props", "--kind", "theta", "--n-list", "") == 2
    assert run_cli("props", "--kind", "theta", "--n-list", "2") == 2
    assert not (tmp_path / "o").exists()


def test_out_that_is_not_a_directory_exits_2_before_running(tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a system was run")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    disk = ["--model", "bvam_disk", "--n-rho", "6", "--n-theta", "8", "--tstar", "0.01"]
    for out in (taken, taken / "sub"):
        assert run_cli("run", *disk, "--m", "1", "--out", str(out)) == 2
        assert run_cli("converge", *disk, "--m-list", "2,4", "--out", str(out)) == 2
    assert taken.read_text() == "keep me"


def test_run_with_an_empty_out_exits_2_and_writes_nothing(tmp_path, monkeypatch):
    # Path("") is the working directory, where such a run used to write
    def no_build(*args, **kwargs):
        raise AssertionError("a system was built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(models, "build_system", no_build)
    disk = ["--model", "bvam_disk", "--n-rho", "4", "--n-theta", "4", "--tstar", "0.01"]
    assert run_cli("run", *disk, "--m", "1", "--set", "out=") == 2
    assert run_cli("run", *disk, "--m", "1", "--out", "") == 2
    assert list(tmp_path.iterdir()) == []


# the settings each subcommand reads, as the README lists them
_READS = {
    "run": {"model", "seed", "out", "tstar", "n_rho", "n_theta", "n_phi", "n_z",
            "m", "snapshots", "heatmap"},
    "converge": {"model", "seed", "out", "tstar", "n_rho", "n_theta", "n_phi", "n_z",
                 "m_list", "m_ref", "fe", "dense"},
    "props": {"kind", "n_list"},
}


@pytest.mark.parametrize("command", sorted(_READS))
def test_each_subcommand_help_lists_exactly_the_flags_of_its_settings(command, capsys):
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    expected = {"--help", "--config", "--set"}
    expected |= {"--" + key.replace("_", "-") for key in _READS[command]}
    assert flags == expected


# a run of each subcommand that exits 0, to which the test below adds one key
_BASE_ARGS = {
    "run": ["--model", "bvam_disk", "--n-rho", "4", "--n-theta", "4", "--m", "1",
            "--tstar", "0.01", "--out", "o"],
    "converge": ["--model", "bvam_disk", "--n-rho", "4", "--n-theta", "4",
                 "--tstar", "0.01", "--m-list", "2,4", "--out", "o"],
    "props": ["--kind", "theta", "--n-list", "8"],
}
_UNREAD = [
    (command, key)
    for command in sorted(_BASE_ARGS)
    for key, (_, commands, _) in cli._SETTINGS.items()
    if command not in commands
]


@pytest.mark.parametrize("command, key", _UNREAD)
def test_a_setting_the_subcommand_does_not_read_exits_2(tmp_path, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    parse = cli._SETTINGS[key][0]
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(f"{key} = 1\n")  # "1" parses for every key
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *_BASE_ARGS[command], flag if parse is cli._parse_bool else f"{flag}=1")
    assert exc.value.code == 2
    assert run_cli(command, *_BASE_ARGS[command], "--config", str(cfg)) == 2
    assert run_cli(command, *_BASE_ARGS[command], f"--set={key}=1") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["extra.cfg"]
    assert run_cli(command, *_BASE_ARGS[command]) == 0


_DISK_SPEC = models.model_spec("bvam_disk")
# dimensions of axes a disk lacks; the parser knows them, a disk run must not
_NOT_DISK_DIMS = sorted(cli._DIM_KEYS - set(models.dim_keys(models.ModelName.BVAM_DISK)))
# what a bvam_disk run accepts: the other settings run reads, and the
# model constants behind the params. prefix
_RUN_KEYS = {key for key, (_, commands, _) in cli._SETTINGS.items() if "run" in commands}
_DISK_KEYS = (_RUN_KEYS - set(_NOT_DISK_DIMS)) | {
    f"params.{name}" for name in {**_DISK_SPEC.params, **_DISK_SPEC.sizes}
}


@settings(max_examples=60, deadline=None)
@given(
    key=st.one_of(
        st.text("abcdefghijklmnopqrstuvwxyzAZ0123456789_.-", min_size=1, max_size=16),
        st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).map("params.".__add__),
        st.sampled_from(_NOT_DISK_DIMS),
    ).filter(lambda key: key not in _DISK_KEYS),
    via_set=st.booleans(),
)
def test_any_unknown_key_exits_2_before_running(key, via_set):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        text = "model = bvam_disk\nn_rho = 4\nn_theta = 4\nm = 1\ntstar = 0.01\n"
        extra = []
        if via_set:
            extra = [f"--set={key}=3"]  # one token, so a key like "-" is no flag
        else:
            text += f"{key} = 3\n"
        cfg.write_text(text)
        out = Path(tmp) / "o"
        assert run_cli("run", "--config", str(cfg), "--out", str(out), *extra) == 2
        assert not out.exists()


def test_unknown_plain_config_keys_exit_2(tmp_path, capsys):
    good, typo = tmp_path / "good.cfg", tmp_path / "typo.cfg"
    good.write_text("model = bvam_disk\nn_rho = 6\nn_theta = 8\nm = 1\ntstar = 1\n")
    typo.write_text(good.read_text() + "snapshot = 3\n")
    out = ["--out", str(tmp_path / "o")]
    assert run_cli("run", "--config", str(typo), *out) == 2
    assert "'snapshot'" in capsys.readouterr().err
    assert run_cli("run", "--config", str(good), "--set", "snapshot=3", *out) == 2
    assert not (tmp_path / "o").exists()

    props = ["props", "--kind", "lambda", "--n-list", "8"]
    assert run_cli(*props, "--set", "lambda=-1.0") == 2
    assert run_cli(*props, "--set", "params.rho_sta=2") == 2
    capsys.readouterr()
    assert run_cli(*props) == 0
    default = capsys.readouterr().out
    assert run_cli(*props, "--set", "params.lambda=-1.0") == 0
    assert capsys.readouterr().out != default


def test_converge_table_and_slope(tmp_path, capsys):
    out = tmp_path / "c"
    cfg = {
        "model": "bvam_disk", "n_rho": 8, "n_theta": 16, "tstar": 0.5,
        "m_list": [20, 40, 80], "m_ref": 640, "seed": 3, "out": str(out),
        "dense": True, "fe": True, "overrides": {},
    }
    result = cli.cmd_converge(cfg)
    assert 0.7 <= -np.polyfit(
        np.log([e["m"] for e in result["table"]]),
        np.log([e["err_split"] for e in result["table"]]),
        1,
    )[0] <= 1.3
    for entry in result["table"]:
        if entry.get("err_fe") is not None:
            assert abs(entry["err_fe"] - entry["err_split"]) < 1.0
        assert abs(entry["err_dense"] - entry["err_split"]) <= 0.1 * entry["err_dense"]
    assert (out / "convergence.csv").exists()
    captured = capsys.readouterr().out
    assert "least-squares slope" in captured


def test_converge_table_cells_of_a_diverged_forward_euler_run(tmp_path, capsys):
    # forward Euler diverges at m = 10 and runs at m = 20: stdout names the
    # step, the CSV holds nan, and every other cell is its error to 17 digits
    out = tmp_path / "c"
    cfg = {
        "model": "bvam_disk", "n_rho": 6, "n_theta": 8, "tstar": 5.0,
        "m_list": [10, 20], "seed": 3, "out": str(out),
        "dense": True, "fe": True, "overrides": {},
    }
    first, second = cli.cmd_converge(cfg)["table"]
    assert first["err_fe"] is None and first["fe_diverged_at"] == 9

    def cells(entry, keys):
        return ",".join([str(entry["m"]), *("%.17g" % entry[k] for k in keys)])

    header = "m,err_split,err_dense,err_fe"
    last = cells(second, ("err_split", "err_dense", "err_fe"))
    first_cells = cells(first, ("err_split", "err_dense"))
    assert capsys.readouterr().out.splitlines()[:3] == [
        header, first_cells + ",diverged@9", last
    ]
    assert (out / "convergence.csv").read_text() == (
        f"{header}\n{first_cells},nan\n{last}\n"
    )


def test_converge_divergence_names_the_run_and_its_m(capsys):
    # with alpha1 = 1e9 the split scheme diverges in the reference run
    # (m = 4 x 4 = 16) at step 2; the message names that run, not only the step
    argv = ("converge", "--model", "bvam_disk", "--n-rho", "4", "--n-theta", "6",
            "--tstar", "1", "--m-list", "2,4", "--set", "params.alpha1=1e9")
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == (
        "error: reference run with m = 16: component 'u' diverged at step 2\n"
    )


def test_converge_counts_a_component_equal_to_its_reference_as_0(capsys):
    # with the bulk decoupled, u and v stay at their equilibrium, lifted to 0
    # in every run and in the reference: their relative error is 0, not 0/0
    argv = ("converge", "--model", "bsdib_cylinder", "--n-rho", "4", "--n-theta", "6",
            "--n-z", "4", "--tstar", "0.01", "--m-list", "2,4",
            "--set", "params.alpha3=0", "--set", "params.beta3=0")
    assert run_cli(*argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,err_split"
    errors = [float(line.split(",")[1]) for line in lines[1:3]]
    assert all(0 < e < math.inf for e in errors)
    assert 0.5 < float(lines[-1].removeprefix("observed order: ")) < 2.0


def test_converge_without_a_positive_error_leaves_the_order_undefined(tmp_path, capsys):
    # over t_star = 1e-30 every run equals the reference: log(0) has no slope
    out = tmp_path / "c"
    cfg = {
        "model": "bvam_disk", "n_rho": 4, "n_theta": 6, "tstar": 1e-30,
        "m_list": [1, 2], "seed": 1, "out": str(out), "overrides": {},
    }
    result = cli.cmd_converge(cfg)
    assert result["slope"] is None
    assert [e["err_split"] for e in result["table"]] == [0.0, 0.0]
    undefined = "undefined, err_split is 0 or not finite at m = 1, 2"
    assert capsys.readouterr().out.splitlines() == [
        "m,err_split", "1,0", "2,0",
        f"least-squares slope of log(err) vs log(m): {undefined}",
        f"observed order: {undefined}",
    ]
    assert (out / "convergence.csv").read_text() == "m,err_split\n1,0\n2,0\n"
    argv = ("converge", "--model", "bvam_disk", "--n-rho", "4", "--n-theta", "6",
            "--tstar", "1e-30", "--m-list", "1,2")
    assert run_cli(*argv) == 0


def test_converge_skips_dense_over_cap_with_notice(capsys):
    cfg = {
        "model": "bvam_disk", "n_rho": 80, "n_theta": 80, "tstar": 0.01,
        "m_list": [2, 4], "m_ref": 16, "seed": 3, "dense": True,
        "overrides": {},
    }
    result = cli.cmd_converge(cfg)
    assert "dense column skipped" in capsys.readouterr().err
    assert all("err_dense" not in entry for entry in result["table"])


def test_converge_rejects_unordered_m_list():
    cfg = {
        "model": "bvam_disk", "n_rho": 8, "n_theta": 16, "tstar": 0.5,
        "m_list": [40, 20], "seed": 3, "overrides": {},
    }
    with pytest.raises(cli.UsageError):
        cli.cmd_converge(cfg)


def test_props_closed_forms():
    rows = cli.cmd_props({"kind": "rho2", "n_list": [20], "overrides": {}})
    assert rows[0]["xi_inv_norm"] == pytest.approx(math.sqrt(37), rel=1e-12)
    assert rows[0]["xi_inv_closed_form"] == pytest.approx(math.sqrt(37), rel=1e-15)
    rows = cli.cmd_props({"kind": "z", "n_list": [12, 33], "overrides": {}})
    for row in rows:
        assert row["xi_cond"] == pytest.approx(math.sqrt(2), rel=1e-12)
    rows = cli.cmd_props({"kind": "phi", "n_list": [16], "overrides": {}})
    row = rows[0]
    assert row["extra_diag_positive"]
    assert row["max_abs_rowsum"] <= 1e-12 * 2 / op.build_phi_op(16).h ** 2
    assert row["max_eigenvalue"] <= 1e-10
    assert row["exp_min_entry"] >= -1e-12


def test_props_via_main(capsys):
    assert run_cli("props", "--kind", "theta", "--n-list", "8,16") == 0
    out = capsys.readouterr().out
    assert "max_eigenvalue" in out


def test_props_caps_n():
    with pytest.raises(cli.UsageError):
        cli.cmd_props({"kind": "rho2", "n_list": [4096], "overrides": {}})


def test_shipped_full_size_configs_are_valid():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    files = sorted(config_dir.glob("*.cfg"))
    assert len(files) == 5
    for path in files:
        raw = cli.parse_config_file(path)
        args = cli.build_parser().parse_args(["run", "--config", str(path)])
        cfg = cli.merge_config(args)
        spec = cli._require_model(cfg)
        dims = cli._require_dims(cfg, spec.name)
        assert cfg["m"] >= 1 and cfg["tstar"] > 0
        assert all(v >= 2 for v in dims.values())
        assert raw["out"].startswith("out/")
