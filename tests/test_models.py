import dataclasses
import hashlib
import math
import types
import weakref

import numpy as np
import pytest

from curvipat import cli, models, output
from curvipat import operators as op
from curvipat.integrators import (
    ComponentOps,
    Geometry,
    apply_diffusion,
    prepare,
    run_simulation,
    step_split,
)
from oracles import integral_mean, is_stabilized, next_uint64


# ---------------------------------------------------------------------------
# random number generator
# ---------------------------------------------------------------------------


def test_rng_is_deterministic():
    a = models.Xoshiro256pp(123).uniform(64)
    b = models.Xoshiro256pp(123).uniform(64)
    assert np.array_equal(a, b)
    c = models.Xoshiro256pp(124).uniform(64)
    assert not np.array_equal(a, c)


def test_rng_golden_values_frozen():
    # regression guard: the stream is part of the package contract
    rng = models.Xoshiro256pp(1)
    assert [next_uint64(rng) for _ in range(3)] == [
        14971601782005023387,
        13781649495232077965,
        1847458086238483744,
    ]


# SHA-256 over, for each size, a fresh generator's draw bytes (little-endian
# float64) followed by its four state words after the draw.
_RNG_GOLDEN_SIZES = (0, 1, 255, 256, 257, 1001, 25601)
_RNG_GOLDEN = {
    (1, "uniform"): "193f18c5ab60ae130ac5c38e1dcc4cf39d97f76ef51b24a38d013a19e51d8bbe",
    (1, "normal"): "a99621ce7c988d2a766c87ae5c56ff36a68ca9f72d5366b6a7b497f7c80a4952",
    (2**64 - 1, "uniform"): "a6251245a12838252144719e5a382b1c31660261b24e428821241cb2741a48a4",
    (2**64 - 1, "normal"): "81f23b550923a89800bfb854212937498b99e69d74ef6ef603012673ab4575e8",
}


@pytest.mark.parametrize("seed, kind", list(_RNG_GOLDEN))
def test_rng_draws_and_states_frozen(seed, kind):
    digest = hashlib.sha256()
    for size in _RNG_GOLDEN_SIZES:
        rng = models.Xoshiro256pp(seed)
        draws = getattr(rng, kind)(size)
        assert draws.shape == (size,)
        digest.update(draws.astype("<f8").tobytes())
        for word in rng._state:
            digest.update(int(word).to_bytes(8, "little"))
    assert digest.hexdigest() == _RNG_GOLDEN[seed, kind]


@pytest.mark.parametrize(
    "a, b", [(0, 7), (1, 1000), (255, 258), (256, 256), (300, 25301)]
)
def test_rng_split_draws_continue_the_stream(a, b):
    whole = models.Xoshiro256pp(5)
    split = models.Xoshiro256pp(5)
    joined = np.concatenate([split.uniform(a), split.uniform(b)])
    assert joined.tobytes() == whole.uniform(a + b).tobytes()
    assert split._state == whole._state
    # the scalar generator is the reference for both values and end state
    scalar = models.Xoshiro256pp(5)
    expected = [(next_uint64(scalar) >> 11) * 2.0**-53 for _ in range(a + b)]
    assert joined.tolist() == expected
    assert scalar._state == whole._state


def _lane_words(rng, n):
    """The next n raw uint64 outputs as ``_blocks`` yields them, checking
    that its blocks tile the draw in order."""
    words = []
    for lo, block in rng._blocks(n):
        assert lo == sum(map(len, words))
        words.append(block)
    return np.concatenate([np.empty(0, dtype=np.uint64), *words])


def test_rng_raw_matches_scalar_reference():
    lanes, scalar = models.Xoshiro256pp(2**64 - 1), models.Xoshiro256pp(2**64 - 1)
    for n in (0, 1, 2, 255, 256, 257, 1000, 4097):
        assert _lane_words(lanes, n).tolist() == [next_uint64(scalar) for _ in range(n)]
        assert lanes._state == scalar._state
    with pytest.raises(ValueError):
        lanes.uniform(-1)


@pytest.mark.parametrize("kind", ["uniform", "normal"])
@pytest.mark.parametrize("size", [-1, -2, -3])
def test_rng_negative_size_raises_before_any_draw(kind, size):
    rng = models.Xoshiro256pp(9)
    state = list(rng._state)
    with pytest.raises(ValueError):
        getattr(rng, kind)(size)
    assert rng._state == state


def _draw(rng, kind, size):
    """size draws of one kind; "raw" reads the uint64 lane words."""
    return _lane_words(rng, size) if kind == "raw" else getattr(rng, kind)(size)


def _scalar_draws(rng, kind, size):
    """size draws of one kind from the scalar generator alone, as an array;
    normal takes Box-Muller pairs, so an odd size consumes one more draw."""
    if kind == "raw":
        return np.array([next_uint64(rng) for _ in range(size)], dtype=np.uint64)
    if kind == "uniform":
        return np.array([(next_uint64(rng) >> 11) * 2.0**-53 for _ in range(size)])
    z = []
    while len(z) < size:
        u1 = ((next_uint64(rng) >> 11) + 1) * 2.0**-53
        angle = (2.0 * math.pi) * ((next_uint64(rng) >> 11) * 2.0**-53)
        radius = math.sqrt(-2.0 * math.log(u1))
        z += [radius * math.cos(angle), radius * math.sin(angle)]
    return np.array(z[:size])


# around one and two blocks of 16384 draws, and past them: the lanes carry
# from block to block
@pytest.mark.parametrize("size", [16383, 16384, 16385, 25600, 32769, 45000])
@pytest.mark.parametrize("kind", ["raw", "uniform", "normal"])
def test_rng_blocks_match_the_scalar_reference(kind, size):
    lanes, scalar = models.Xoshiro256pp(2026), models.Xoshiro256pp(2026)
    assert _draw(lanes, kind, size).tobytes() == _scalar_draws(scalar, kind, size).tobytes()
    assert lanes._state == scalar._state


@pytest.mark.parametrize("kind", ["raw", "uniform", "normal"])
@pytest.mark.parametrize("a, b", [(16000, 700), (16383, 3), (16385, 16385), (1, 32769)])
def test_rng_draws_split_across_a_block_boundary(kind, a, b):
    split, scalar = models.Xoshiro256pp(17), models.Xoshiro256pp(17)
    joined = np.concatenate([_draw(split, kind, a), _draw(split, kind, b)])
    expected = np.concatenate([_scalar_draws(scalar, kind, a), _scalar_draws(scalar, kind, b)])
    assert joined.tobytes() == expected.tobytes()
    assert split._state == scalar._state


def test_rng_odd_normal_consumes_one_extra_draw():
    odd, even = models.Xoshiro256pp(9), models.Xoshiro256pp(9)
    z_odd, z_even = odd.normal(257), even.normal(258)
    assert z_odd.tobytes() == z_even[:257].tobytes()
    assert odd._state == even._state
    assert next_uint64(odd) == next_uint64(even)


def test_rng_normal_takes_log_cos_sin_from_libm(monkeypatch):
    # numpy's SIMD log may differ from libm in the last bit, which would
    # change seeded fields, so log goes through math.log, once per pair;
    # cos and sin come from numpy, which matches libm's (pinned below)
    calls = {"log": 0, "cos": 0, "sin": 0}

    def counting(name):
        fn = getattr(math, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)

        return wrapper

    spy = types.SimpleNamespace(**vars(math))
    for name in calls:
        setattr(spy, name, counting(name))
    monkeypatch.setattr("curvipat.rng.math", spy)
    z = models.Xoshiro256pp(5).normal(1001)
    assert calls == {"log": 501, "cos": 0, "sin": 0}
    monkeypatch.undo()
    assert z.tobytes() == models.Xoshiro256pp(5).normal(1001).tobytes()


def test_rng_numpy_cos_sin_equal_libm_on_box_muller_angles():
    # normal takes cos and sin from numpy: on its angles 2 pi k 2^-53 (the
    # ends of the range and 2^20 drawn k) they must equal libm's bit for
    # bit, or seeded fields would depend on numpy's SIMD dispatch
    ends = np.array([0, 1, 2**52, 2**53 - 1], dtype=np.uint64) * 2.0**-53
    drawn = [models.Xoshiro256pp(seed).uniform(2**18) for seed in (1, 2, 3, 2**64 - 1)]
    angle = (2.0 * math.pi) * np.concatenate([ends, *drawn])
    assert angle.size > 2**20
    for name in ("cos", "sin"):
        libm = np.fromiter(map(getattr(math, name), angle.tolist()), dtype=float)
        assert getattr(np, name)(angle).tobytes() == libm.tobytes(), name


def test_rng_uniform_range_and_mean():
    u = models.Xoshiro256pp(7).uniform(20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(np.mean(u) - 0.5) < 0.01


def test_rng_normal_moments_and_tails():
    z = models.Xoshiro256pp(11).normal(1_000_000)
    assert abs(np.mean(z)) < 5e-3
    assert abs(np.std(z) - 1.0) < 5e-3
    assert np.max(np.abs(z)) < 8.0


# ---------------------------------------------------------------------------
# parameter catalogue
# ---------------------------------------------------------------------------


def test_bvam_defaults_match_published_values():
    spec = models.model_spec("bvam_disk")
    p = spec.params
    assert p["gamma"] == 3.87e-3
    assert p["delta"] == 7.5e-3
    assert p["alpha1"] == 0.899 and p["beta2"] == -0.899
    assert p["alpha2"] == 0.2 and p["alpha3"] == 0.2
    assert p["beta1"] == -0.91
    assert spec.sizes["rho_star"] == 1.0


def test_remaining_model_defaults_match_published_values():
    p = models.model_spec("schnakenberg_anomalous_disk").params
    assert (p["alpha1"], p["alpha2"], p["delta"], p["beta1"], p["lambda"]) == (
        500.0, 0.14, 50.0, 1.34, -1.95,
    )
    p = models.model_spec("dib_sphere").params
    assert (p["zeta1"], p["zeta2"], p["zeta3"], p["zeta4"], p["zeta5"]) == (
        10.0, 10.0, 1.0, 48.0, 0.5,
    )
    assert (p["eta1"], p["eta2"], p["eta3"], p["eta5"], p["epsilon"]) == (
        5.0, 2.5, 0.2, 1.5, 20.0,
    )
    assert models.model_spec("dib_sphere").sizes["rho_star"] == 1.1653
    p = models.model_spec("bulk_surface_schnakenberg_ball").params
    assert p["alpha1"] == p["zeta1"] == 55.0
    assert (p["alpha2"], p["beta1"]) == (0.1, 0.9)
    assert p["zeta2"] == p["zeta3"] == pytest.approx(5 / 12)
    assert p["eta1"] == p["eta2"] == 5.0
    assert p["delta"] == p["epsilon"] == 10.0
    spec = models.model_spec("bsdib_cylinder")
    p = spec.params
    assert all(p[k] == 1.0 for k in ("alpha1", "alpha2", "beta1", "beta2", "delta", "zeta1", "zeta3"))
    assert p["alpha3"] == p["beta3"] == 0.15
    assert (p["epsilon"], p["zeta2"], p["zeta4"], p["zeta5"]) == (20.0, 10.0, 66.0, 0.5)
    assert (p["eta1"], p["eta2"], p["eta3"], p["eta5"]) == (3.0, 2.5, 0.2, 1.5)
    assert spec.sizes == {"rho_star": 25.0, "z_star": 25.0}


def test_model_spec_overrides_and_unknown_keys():
    spec = models.model_spec("bvam_disk", {"gamma": 0.01, "rho_star": 2.0})
    assert spec.params["gamma"] == 0.01
    assert spec.sizes["rho_star"] == 2.0
    # the published record, with other constants and nothing else changed
    published = models.MODELS[models.ModelName.BVAM_DISK]
    assert spec == dataclasses.replace(
        published, params={**published.params, "gamma": 0.01}, sizes={"rho_star": 2.0}
    )
    assert published.params["gamma"] == 3.87e-3 and published.sizes["rho_star"] == 1.0
    assert [model.name for model in models.MODELS.values()] == list(models.MODELS)
    with pytest.raises(KeyError):
        models.model_spec("bvam_disk", {"zeta1": 1.0})


def test_an_axis_operator_that_cannot_be_symmetrized_is_bad_input():
    # at rho_star = 1e150 the radial off-diagonals are ~1e-299, and the
    # products under the square roots of the symmetrization underflow to 0
    model = models.model_spec("bvam_disk", {"rho_star": 1e150})
    with pytest.raises(
        ValueError, match="the rho operator's symmetrized off-diagonals must be finite and positive"
    ):
        models.build_system(model, {"n_rho": 4, "n_theta": 6}, seed=1)


# Each model at small dims with every constant (parameter or size) scaled by
# its own factor in [0.9, 1), so that a constant read under another key
# changes the run even where the defaults are equal (the ball's delta and
# epsilon, zeta2 and zeta3, eta1 and eta2).  Digest: SHA-256 of the final
# fields' bytes after 5 steps, in component order.  Re-recorded, all but the
# ball's, when tau moved into the first-applied phi1, the cylinder's
# again when its bulk decay moved into M W, and the sphere's when it took
# the cylinder's DIB kinetics (see GOLDEN_RUNS in test_integrators.py).
_ROUTING_RUNS = {
    "bvam_disk": (
        {"n_rho": 5, "n_theta": 8}, 0.5,
        "0e811caae7e59bf46f798a16f69e7d96d17841d9eaf71e370405a4f392acd4db",
    ),
    "schnakenberg_anomalous_disk": (
        {"n_rho": 5, "n_theta": 8}, 1e-3,
        "4ce6c5f248be10c9e6c0d3f28179f75e1f42f09a5aea7a5a900f57d6807d3357",
    ),
    "dib_sphere": (
        {"n_theta": 8, "n_phi": 5}, 0.01,
        "0ea20dd5659947185c3d392556934ecf155f72c478f8e46260a5a56590d9919e",
    ),
    "bulk_surface_schnakenberg_ball": (
        {"n_rho": 4, "n_theta": 6, "n_phi": 4}, 1e-3,
        "93f6c95deac1875c9d74d41f380b9d12c903c4b455429262bb96f7bab79149df",
    ),
    "bsdib_cylinder": (
        {"n_rho": 4, "n_theta": 6, "n_z": 4}, 0.05,
        "25fa32ff0e039fea55569d3dd50f2a5175e7a538549976676a610f5717736ce8",
    ),
}


def _scaled_constants(name, keys=None) -> dict[str, float]:
    """Overrides scaling each constant in ``keys`` (default: all of the
    model's) by a factor of its own, 0.99, 0.985, ... in sorted key order."""
    spec = models.model_spec(name)
    constants = {**spec.params, **spec.sizes}
    factors = {key: 0.99 - 0.005 * i for i, key in enumerate(sorted(constants))}
    return {key: constants[key] * factors[key] for key in keys or constants}


@pytest.mark.parametrize("name", list(_ROUTING_RUNS))
def test_every_constant_is_routed_to_its_own_use(name):
    dims, t_star, digest = _ROUTING_RUNS[name]
    spec = models.model_spec(name, _scaled_constants(name))
    system = models.build_system(spec, dims, seed=3)
    fields = run_simulation(system, 5, t_star).fields
    got = hashlib.sha256(b"".join(fields[c.name].tobytes() for c in system.components))
    assert got.hexdigest() == digest


def _system_fingerprint(system) -> bytes:
    """Coefficients, decays, lifts, axis grids, initial fields and the
    kinetics at a fixed state away from the equilibrium, as bytes."""
    parts = []
    states = {}
    for c in system.components:
        parts += [np.float64(x).tobytes() for x in (c.ops.coeff, c.ops.decay, c.lift)]
        parts += [axis.grid.tobytes() for axis in c.ops.axis_ops()]
        parts.append(c.initial.tobytes())
        size = math.prod(c.ops.shape)
        states[c.name] = np.linspace(0.05, 0.25, size).reshape(c.ops.shape)
    G = system.kinetics(states)
    return b"".join(parts + [G[c.name].tobytes() for c in system.components])


@pytest.mark.parametrize("name", list(_ROUTING_RUNS))
def test_scaling_any_one_constant_changes_the_system(name):
    # what the routing digest pins depends on every constant: none is unread
    dims = _ROUTING_RUNS[name][0]
    base = _system_fingerprint(models.build_system(name, dims, seed=3))
    for key in _scaled_constants(name):
        spec = models.model_spec(name, _scaled_constants(name, [key]))
        assert _system_fingerprint(models.build_system(spec, dims, seed=3)) != base, key


@pytest.mark.parametrize("name", list(models.ModelName))
def test_memory_check_counts_the_kinetics_buffers(name):
    dims = _ROUTING_RUNS[name.value][0]
    system = models.build_system(name, dims, seed=1)
    result = system.kinetics({c.name: c.initial for c in system.components})
    shapes = models.component_shapes(name, dims)
    assert models.MODELS[name].buffer_bytes(shapes) == sum(b.nbytes for b in result.buffers)


@pytest.mark.parametrize("name", list(models.ModelName))
def test_kinetics_reuse_a_held_result_and_let_a_dropped_one_go(name):
    # while the caller holds a result, the next call returns it again,
    # computed in the same arrays; once the caller drops it, nothing else
    # holds it
    system = models.build_system(name, _ROUTING_RUNS[name.value][0], seed=1)
    states = {c.name: c.initial for c in system.components}
    held = system.kinetics(states)
    arrays = list(held.values())
    again = system.kinetics(states)
    assert again is held
    assert all(a is b for a, b in zip(again.values(), arrays, strict=True))
    dropped = weakref.ref(held)
    del held, again
    assert dropped() is None


@pytest.mark.parametrize("name", list(models.ModelName))
def test_build_system_builds_each_axis_and_draws_once(name, monkeypatch):
    # every component on an axis shares its operator, so each axis's
    # eigendecomposition and the polar-angle offset solve run once
    calls = []
    for fn in ("build_rho", "build_lambda", "build_theta", "build_phi_op", "build_z",
               "random_initial_condition"):
        def spy(*args, _fn=getattr(models, fn), _name=fn):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(models, fn, spy)
    system = models.build_system(name, _ROUTING_RUNS[name.value][0], seed=1)
    assert "random_initial_condition" in calls
    assert len(calls) == len(set(calls)) == 1 + len(models.dim_keys(name))
    ops = {id(axis) for c in system.components for axis in c.ops.axis_ops()}
    assert len(ops) == len(models.dim_keys(name))


def test_dib_eta4_is_recomputed_not_stored():
    spec = models.model_spec("dib_sphere")
    assert "eta4" not in spec.params
    assert models.eta4(spec.params) == pytest.approx(
        5.0 * 0.5 * 0.9 / (0.5 * 1.1), rel=1e-15
    )


# ---------------------------------------------------------------------------
# kinetics
# ---------------------------------------------------------------------------


def test_bvam_kinetics_values():
    p = models.model_spec("bvam_disk").params
    b, c = models.bvam_kinetics(np.array(0.0), np.array(0.0), p)
    assert b == 0.0 and c == 0.0
    b, c = models.bvam_kinetics(np.array(1.0), np.array(0.0), p)
    assert b == pytest.approx(0.899, rel=1e-15)
    assert c == pytest.approx(-0.899, rel=1e-15)
    u = np.linspace(-2, 2, 7)
    b, _ = models.bvam_kinetics(u, np.zeros(7), p)
    assert np.array_equal(b, p["alpha1"] * u)


def test_schnakenberg_kinetics_values():
    p = models.model_spec("schnakenberg_anomalous_disk").params
    ue = p["alpha2"] + p["beta1"]
    ve = p["beta1"] / ue**2
    assert ue == pytest.approx(1.48, rel=1e-15)
    assert ve == pytest.approx(0.6117604090576334, rel=1e-13)
    b, c = models.schnakenberg_kinetics(np.array(ue), np.array(ve), p)
    assert abs(b) <= 1e-13 and abs(c) <= 1e-13
    b, c = models.schnakenberg_kinetics(np.array(0.0), np.array(0.0), p)
    assert b == p["alpha2"] and c == p["beta1"]


def test_dib_kinetics_values():
    p = models.model_spec("dib_sphere").params
    pr, qs = models.dib_kinetics(np.array(0.0), np.array(p["zeta5"]), p)
    assert abs(pr) <= 1e-13 and abs(qs) <= 1e-13
    pr, _ = models.dib_kinetics(np.array(1.0), np.array(0.5), p)
    assert pr == pytest.approx(10 * 0.5 * 1 - 1.0, rel=1e-14)  # = 4
    _, qs = models.dib_kinetics(np.array(0.0), np.array(0.0), p)
    assert qs == pytest.approx(p["eta1"] * (1 - p["eta3"]), rel=1e-14)  # = 4


def test_dib_eta4_constraint_over_random_parameters():
    rng = np.random.RandomState(30)
    for _ in range(200):
        p = {
            "zeta1": 1.0,
            "zeta2": rng.uniform(0.5, 20),
            "zeta3": rng.uniform(0.1, 5),
            "zeta4": rng.uniform(1, 80),
            "zeta5": rng.uniform(0.05, 0.95),
            "eta1": rng.uniform(0.5, 8),
            "eta2": rng.uniform(0.5, 4),
            "eta3": rng.uniform(0.05, 0.9),
            "eta5": rng.uniform(0.5, 3),
        }
        _, qs = models.dib_kinetics(np.array(0.0), np.array(p["zeta5"]), p)
        assert abs(qs) <= 1e-13 * max(1.0, p["eta1"])


def test_unscaled_kinetics_vanish_at_equilibria():
    p = models.model_spec("bvam_disk").params
    b, c = models.bvam_kinetics(np.array(0.0), np.array(0.0), p)
    assert abs(b) <= 1e-13 and abs(c) <= 1e-13
    p = models.model_spec("schnakenberg_anomalous_disk").params
    ue = p["alpha2"] + p["beta1"]
    b, c = models.schnakenberg_kinetics(np.array(ue), np.array(p["beta1"] / ue**2), p)
    assert abs(b) <= 1e-13 and abs(c) <= 1e-13
    p = models.model_spec("dib_sphere").params
    pr, qs = models.dib_kinetics(np.array(0.0), np.array(p["zeta5"]), p)
    assert abs(pr) <= 1e-13 and abs(qs) <= 1e-13


def test_every_system_reaction_vanishes_at_equilibrium():
    # the assembled reaction carries the model's time-scale prefactor
    # (alpha1 or zeta1), which amplifies the one-ulp equilibrium rounding
    cases = [
        ("bvam_disk", {"n_rho": 5, "n_theta": 8}, 1.0),
        ("schnakenberg_anomalous_disk", {"n_rho": 5, "n_theta": 8}, 500.0),
        ("dib_sphere", {"n_theta": 8, "n_phi": 5}, 10.0),
        ("bulk_surface_schnakenberg_ball", {"n_rho": 4, "n_theta": 6, "n_phi": 4}, 55.0),
        ("bsdib_cylinder", {"n_rho": 4, "n_theta": 6, "n_z": 4}, 66.0),
    ]
    for name, dims, scale in cases:
        system = models.build_system(name, dims, seed=1)
        eq = system.equilibrium
        states = {
            c.name: np.full(c.ops.shape, eq[c.name] - c.lift)
            for c in system.components
        }
        gs = system.kinetics(states)
        for comp, G in gs.items():
            assert np.max(np.abs(G)) <= 1e-13 * max(1.0, scale), (name, comp)


def _expression_kinetics(name, u, v, r, s, p, h):
    """The kinetics helpers' formulas as plain numpy expressions, each
    allocating its temporaries: the reference for their ufunc sequences."""
    if name == "bvam":
        return (
            p["alpha1"] * u * (1.0 - p["alpha2"] * v**2) + v * (1.0 - p["alpha3"] * u),
            p["beta1"] * v * (1.0 + (p["alpha1"] * p["alpha2"] / p["beta1"]) * u * v)
            + u * (p["beta2"] + p["alpha3"] * v),
        )
    if name == "schnakenberg":
        uuv = u * u * v
        return p["alpha2"] - u + uuv, p["beta1"] - uuv
    z1, z2, z3, z4, z5 = (p.get(f"zeta{k}") for k in range(1, 6))
    e1, e2, e3, e5 = (p.get(f"eta{k}") for k in (1, 2, 3, 5))
    if name == "ball":
        edge = 1.3
        ghost = 1.0 / h**2 + 1.0 / (edge * h)
        b, c = _expression_kinetics("schnakenberg", r, s, None, None, p, h)
        return (
            2.0 * h * ghost * (z1 * (z2 * r - z3 * u)),
            2.0 * h * ghost * (z1 * (e1 * s - e2 * v)),
            b - (z2 * r - z3 * u),
            c - (e1 * s - e2 * v),
        )
    # one DIB formula: the sphere's is the cylinder's with u = v = 1
    if name == "dib":
        u = v = 1.0
    pr = z2 * u * (1.0 - s) * r - z3 * (r * r * r) - z4 * (s - z5)
    qs = e1 * v * (1.0 + e2 * r) * (1.0 - s) * (1.0 - e3 * (1.0 - s)) - models.eta4(p) * (
        1.0 + e5 * r
    ) * s * (1.0 + e3 * s)
    if name == "dib":
        return pr, qs
    return (
        -(2.0 / h) * z1 * p["alpha3"] * pr,
        -(2.0 / h) * z1 * p["beta3"] * p["delta"] * qs,
        pr,
        qs,
    )


@pytest.mark.parametrize("name", ["bvam", "schnakenberg", "dib", "ball", "cylinder"])
def test_kinetics_helpers_match_expressions_bitwise(name):
    # into given arrays or new ones, the ufunc sequences reproduce the
    # expressions' bits, signed zeros included
    model = {
        "bvam": "bvam_disk",
        "schnakenberg": "schnakenberg_anomalous_disk",
        "dib": "dib_sphere",
        "ball": "bulk_surface_schnakenberg_ball",
        "cylinder": "bsdib_cylinder",
    }[name]
    p = models.model_spec(model).params
    rng = np.random.RandomState(34)
    u, v, r, s = (rng.randn(7, 9) for _ in range(4))
    for x in (u, v, r, s):
        x[rng.rand(7, 9) < 0.2] = 0.0
        x[rng.rand(7, 9) < 0.1] = -0.0
    h = 0.37
    call = {
        "bvam": lambda out: models.bvam_kinetics(u, v, p, out=out),
        "schnakenberg": lambda out: models.schnakenberg_kinetics(u, v, p, out=out),
        "dib": lambda out: models.dib_kinetics(r, s, p, out=out),
        "ball": lambda out: models.bulk_surface_coupling_ball(u, v, r, s, p, h, 1.3, out=out),
        "cylinder": lambda out: models.bs_cylinder_coupling(u, v, r, s, p, h, out=out),
    }[name]
    want = _expression_kinetics(name, u, v, r, s, p, h)
    size = {"schnakenberg": 2, "ball": 5, "cylinder": 5}.get(name, 3)
    buffers = tuple(np.empty((7, 9)) for _ in range(size))
    for got in (call(None), call(buffers)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    assert all(any(g is b for b in buffers) for g in call(buffers))


# ---------------------------------------------------------------------------
# bulk-surface couplings
# ---------------------------------------------------------------------------


def test_ball_coupling_cancels_when_rates_match():
    p = dict(models.model_spec("bulk_surface_schnakenberg_ball").params)
    p["zeta2"] = p["zeta3"] = 0.7
    rng = np.random.RandomState(31)
    u = rng.randn(6, 4)
    r = u.copy()
    v = rng.randn(6, 4)
    s = rng.randn(6, 4)
    src_u, _, ps, qs = models.bulk_surface_coupling_ball(u, v, r, s, p, 0.1, 1.0)
    assert np.max(np.abs(src_u)) == 0.0
    b, c = models.schnakenberg_kinetics(r, s, p)
    assert np.array_equal(ps, b)


def test_ball_coupling_source_locality():
    p = models.model_spec("bulk_surface_schnakenberg_ball").params
    r = np.zeros((5, 4))
    r[2, 1] = 1.0
    zeros = np.zeros((5, 4))
    src_u, src_v, _, _ = models.bulk_surface_coupling_ball(
        zeros, zeros, r, zeros, p, 0.1, 1.0
    )
    mask = np.zeros((5, 4), dtype=bool)
    mask[2, 1] = True
    assert np.all(src_u[~mask] == 0.0)
    assert src_u[2, 1] != 0.0
    assert np.all(src_v == 0.0)


def test_ball_coupling_shape_mismatch():
    p = models.model_spec("bulk_surface_schnakenberg_ball").params
    with pytest.raises(ValueError):
        models.bulk_surface_coupling_ball(
            np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((5, 4)), np.zeros((5, 4)),
            p, 0.1, 1.0,
        )


def test_cylinder_coupling_values():
    spec = models.model_spec("bsdib_cylinder")
    p = spec.params
    eq = spec.equilibrium(spec.params)
    ones = np.ones((4, 3))
    src_u, src_v, ps, qs = models.bs_cylinder_coupling(
        ones * eq["u"], ones * eq["v"], ones * eq["r"], ones * eq["s"], p, 0.5
    )
    for arr in (src_u, src_v, ps, qs):
        assert np.max(np.abs(arr)) <= 1e-13
    # u = 1, s = zeta5: p reduces to zeta2 (1 - zeta5) r - zeta3 r^3
    rng = np.random.RandomState(32)
    r = rng.randn(4, 3)
    _, _, ps, _ = models.bs_cylinder_coupling(
        ones, ones, r, ones * p["zeta5"], p, 0.5
    )
    expected = p["zeta2"] * (1 - p["zeta5"]) * r - p["zeta3"] * r**3
    assert np.max(np.abs(ps - expected)) <= 1e-13


def test_cylinder_bulk_kinetics_match_lifted_formula():
    # the bulk reaction is the decay that M W applies plus the kinetics,
    # which cover the z = 0 slice alone
    system = models.build_system("bsdib_cylinder", {"n_rho": 5, "n_theta": 6, "n_z": 4}, 2)
    gen = np.random.RandomState(30)
    states = {c.name: gen.randn(*c.ops.shape) for c in system.components}
    kinetics = system.kinetics(states)
    got = {}
    for c in system.components[:2]:
        W = states[c.name]
        plain = dataclasses.replace(c.ops, decay=0.0)
        got[c.name] = apply_diffusion(prepare(c.ops, 0.0), W) - apply_diffusion(
            prepare(plain, 0.0), W
        )
        assert kinetics[c.name].shape == (5, 6)
        got[c.name][c.ops.support] += kinetics[c.name]
    p, eq = system.spec.params, system.equilibrium
    u, v = states["u"] + eq["u"], states["v"] + eq["v"]
    h_z = system.components[0].ops.z.h
    src_u, src_v, _, _ = models.bs_cylinder_coupling(
        u[:, :, 0], v[:, :, 0], states["r"], states["s"], p, h_z
    )
    want_u = -p["alpha1"] * (u - p["alpha2"])
    want_v = -p["beta1"] * (v - p["beta2"])
    want_u[:, :, 0] += src_u
    want_v[:, :, 0] += src_v
    for name, want in (("u", want_u), ("v", want_v)):
        assert np.max(np.abs(got[name] - want)) <= 1e-14 * np.max(np.abs(want))


def test_cylinder_coupling_alpha3_zero_decouples_u_flux():
    p = dict(models.model_spec("bsdib_cylinder").params)
    p["alpha3"] = 0.0
    rng = np.random.RandomState(33)
    src_u, _, _, _ = models.bs_cylinder_coupling(
        rng.randn(4, 3), rng.randn(4, 3), rng.randn(4, 3), rng.randn(4, 3), p, 0.5
    )
    assert np.all(src_u == 0.0)


def test_zeroed_coupling_reproduces_standalone_bulk_bitwise():
    dims = {"n_rho": 4, "n_theta": 6, "n_phi": 4}
    spec = models.model_spec(
        "bulk_surface_schnakenberg_ball",
        {"zeta2": 0.0, "zeta3": 0.0, "eta1": 0.0, "eta2": 0.0},
    )
    system = models.build_system(spec, dims, seed=9)
    m, t_star = 20, 0.002
    res = run_simulation(system, m, t_star)

    # independent re-integration of the bulk equations alone, same draws
    p = spec.params
    states = {
        c.name: c.initial.copy() for c in system.components if c.name in ("u", "v")
    }
    geo = {
        c.name: prepare(c.ops, t_star / m)
        for c in system.components
        if c.name in ("u", "v")
    }
    for _ in range(m):
        b, c_ = models.schnakenberg_kinetics(states["u"], states["v"], p)
        gs = {"u": p["alpha1"] * b, "v": p["alpha1"] * c_}
        for name in ("u", "v"):
            states[name] = step_split(geo[name], states[name], gs[name])
    assert np.array_equal(res.fields["u"], states["u"])
    assert np.array_equal(res.fields["v"], states["v"])


# ---------------------------------------------------------------------------
# anomalous setup
# ---------------------------------------------------------------------------


def test_anomalous_setup_lambda_zero_is_classical_disk_family():
    rho_op = op.build_lambda(6, 1.0, 0.0)
    disk = op.build_rho(2, 6, 1.0)
    assert np.allclose(rho_op.b * rho_op.h**2, disk.b * disk.h**2, rtol=1e-14)
    assert np.allclose(rho_op.weights, rho_op.grid**-2.0)


def test_anomalous_lifted_equilibrium_is_nonlinear_fixed_point():
    dims = {"n_rho": 10, "n_theta": 12}
    system = models.build_system("schnakenberg_anomalous_disk", dims, seed=2)
    comps = [
        dataclasses.replace(c, initial=np.zeros(c.ops.shape))
        for c in system.components
    ]
    system = dataclasses.replace(system, components=comps)
    res = run_simulation(system, 10, 1e-3)
    drift = max(np.max(np.abs(W)) for W in res.fields.values())
    assert drift <= 1e-12


def test_anomalous_grid_offset():
    rho_op = op.build_lambda(8, 1.0, -1.95)
    assert rho_op.grid[0] == pytest.approx(1.475 * rho_op.h, rel=1e-14)


@pytest.mark.parametrize("name", list(models.ModelName))
def test_geometry_table_is_the_one_source_of_axes(name, tmp_path):
    # table axes, component_shapes, the CLI's dims, the snapshot columns and
    # every built component's operators must agree
    all_dims = {"n_rho": 5, "n_theta": 6, "n_phi": 4, "n_z": 3}
    with pytest.raises(cli.UsageError, match="no axis"):
        cli._require_dims(all_dims, name)  # no model has all four axes
    own = {key: n for key, n in all_dims.items() if key in models.dim_keys(name)}
    dims = cli._require_dims(own, name)
    shapes = models.component_shapes(name, dims)
    system = models.build_system(name, dims, seed=1)
    assert [c.name for c in system.components] == list(shapes)
    used = set()
    for c in system.components:
        geometry = models.MODELS[name].components[c.name].geometry
        axes = geometry.axes
        assert c.ops.geometry is geometry
        assert shapes[c.name] == c.ops.shape == tuple(all_dims[f"n_{a}"] for a in axes)
        assert prepare(c.ops, 0.1).shape == c.ops.shape == c.initial.shape
        used |= {f"n_{a}" for a in axes}
        path = tmp_path / f"{c.name}.csv"
        output.write_snapshot(
            path, c.initial, c.ops, component=c.name, model=name.value, step=0, t=0.0
        )
        header = next(l for l in path.read_text().splitlines() if l.startswith("i,"))
        assert header.split(",")[len(axes):-1] == list(axes)
    assert set(dims) == used


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def test_initial_condition_bitwise_reproducible():
    spec = models.model_spec("bvam_disk")
    dims = {"n_rho": 6, "n_theta": 8}
    a = models.random_initial_condition(spec, 42, dims)
    b = models.random_initial_condition(spec, 42, dims)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_bvam_initial_amplitude_bounded():
    spec = models.model_spec("bvam_disk")
    fields = models.random_initial_condition(spec, 5, {"n_rho": 20, "n_theta": 40})
    assert np.max(np.abs(fields["u"])) <= 0.5
    assert np.max(np.abs(fields["v"])) <= 0.5


def test_dib_initial_perturbation_within_eight_sigma():
    spec = models.model_spec("dib_sphere")
    fields = models.random_initial_condition(spec, 6, {"n_theta": 64, "n_phi": 32})
    eq = spec.equilibrium(spec.params)
    assert np.max(np.abs(fields["r"] - eq["r"])) <= 8e-6
    assert np.max(np.abs(fields["s"] - eq["s"])) <= 8e-6


def test_cylinder_bulk_starts_exactly_at_equilibrium():
    spec = models.model_spec("bsdib_cylinder")
    dims = {"n_rho": 5, "n_theta": 6, "n_z": 4}
    fields = models.random_initial_condition(spec, 3, dims)
    eq = spec.equilibrium(spec.params)
    assert np.all(fields["u"] == eq["u"])
    assert np.all(fields["v"] == eq["v"])
    assert np.all(fields["r"] >= eq["r"]) and np.max(fields["r"]) <= eq["r"] + 1e-2
    assert np.all(fields["s"] >= eq["s"]) and np.max(fields["s"]) <= eq["s"] + 1e-2


def test_constant_start_fields_are_read_only_views():
    dims = {"n_rho": 5, "n_theta": 6, "n_z": 4}
    system = models.build_system("bsdib_cylinder", dims, seed=3)
    comps = {c.name: c for c in system.components}
    for name in ("u", "v"):
        initial = comps[name].initial
        assert initial.shape == (5, 6, 4) and initial.strides == (0, 0, 0)
        assert not initial.flags.writeable
        with pytest.raises(ValueError):
            initial[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            initial += 1.0
        assert initial.tobytes() == np.zeros((5, 6, 4)).tobytes()  # eq - lift
    for name in ("r", "s"):
        assert comps[name].initial.flags.writeable and comps[name].initial.flags.c_contiguous
    # the fingerprint the parameter-routing tests compare: the same with
    # every start field filled in, re-recorded when it took in the decays
    # and the cylinder's kinetics came to cover the z = 0 slice alone
    digest = hashlib.sha256(_system_fingerprint(system)).hexdigest()
    assert digest == "07b96a6183cee16f28f7ce59e3e17b5828f44810bc75f98046fcf8aaaf1f4a73"
    # a run copies its start fields and steps the copies
    res = run_simulation(system, 2, 0.01)
    assert res.fields["u"].flags.writeable and not np.shares_memory(res.fields["u"], comps["u"].initial)
    assert np.all(comps["u"].initial == 0.0)


def test_memory_estimate_counts_no_initial_field_for_a_constant():
    # one record holds the laws: the estimate counts an initial field for
    # exactly the components whose start field build_system draws
    dims = {"n_rho": 5, "n_theta": 6, "n_z": 4}
    model = models.model_spec("bsdib_cylinder")
    shapes = models.component_shapes(model.name, dims)
    constant = models._check_memory(model, dims)
    perturbed = dataclasses.replace(model, components={
        comp: dataclasses.replace(c, perturbation=c.perturbation or models.Uniform(0.0, 1e-2))
        for comp, c in model.components.items()
    })
    drawn = models._check_memory(perturbed, dims)
    assert drawn - constant == 8 * (math.prod(shapes["u"]) + math.prod(shapes["v"]))
    system = models.build_system(perturbed, dims, seed=3)
    assert system.spec is perturbed
    assert all(c.initial.flags.writeable for c in system.components)


# ---------------------------------------------------------------------------
# integral mean
# ---------------------------------------------------------------------------


def _disk_cops(n_rho, n_theta, rho_star=1.0):
    return ComponentOps(
        Geometry.DISK,
        1.0,
        rho=op.build_rho(2, n_rho, rho_star),
        theta=op.build_theta(n_theta),
    )


def test_integral_mean_constant_is_exact():
    cops = _disk_cops(10, 12)
    assert integral_mean(np.full((10, 12), 3.25), cops) == pytest.approx(
        3.25, abs=1e-12
    )


def test_disk_quadrature_area():
    cops = _disk_cops(100, 100, rho_star=1.0)
    w = models.quadrature_weights(cops)
    assert np.sum(w) == pytest.approx(np.pi, rel=0.01)


def test_sphere_quadrature_odd_symmetry():
    cops = ComponentOps(
        Geometry.SPHERE, 1.0, theta=op.build_theta(64), phi=op.build_phi_op(32)
    )
    phi_grid = cops.phi.grid
    field = np.broadcast_to(np.cos(phi_grid)[None, :], (64, 32)).copy()
    assert abs(integral_mean(field, cops)) <= 1e-3


def test_unit_sphere_quadrature_area():
    cops = ComponentOps(
        Geometry.SPHERE, 1.0, theta=op.build_theta(60), phi=op.build_phi_op(40)
    )
    assert np.sum(models.quadrature_weights(cops)) == pytest.approx(4 * np.pi, rel=0.02)


def test_ball_and_cylinder_quadrature_measures():
    ball = ComponentOps(
        Geometry.BALL,
        1.0,
        rho=op.build_rho(3, 60, 1.0),
        theta=op.build_theta(60),
        phi=op.build_phi_op(40),
    )
    vol = np.sum(models.quadrature_weights(ball))
    assert vol == pytest.approx(4 * np.pi / 3, rel=0.02)
    cyl = ComponentOps(
        Geometry.CYLINDER,
        1.0,
        rho=op.build_rho(2, 60, 1.0),
        theta=op.build_theta(40),
        z=op.build_z(30, 2.0),
    )
    vol = np.sum(models.quadrature_weights(cyl))
    assert vol == pytest.approx(2 * np.pi, rel=0.02)


def test_mean_diagnostics_restores_lift():
    dims = {"n_rho": 6, "n_theta": 8}
    system = models.build_system("schnakenberg_anomalous_disk", dims, seed=2)
    diag = models.mean_diagnostics(system)
    states = {c.name: np.zeros(c.ops.shape) for c in system.components}
    sample = diag(states)
    eq = system.equilibrium
    assert sample["u"] == pytest.approx(eq["u"], abs=1e-12)
    assert sample["v"] == pytest.approx(eq["v"], abs=1e-12)


def test_is_stabilized():
    times = np.linspace(0.0, 10.0, 101)
    flat = np.ones(101)
    assert is_stabilized(times, flat)
    drifting = np.linspace(0.0, 1.0, 101)
    assert not is_stabilized(times, drifting)
