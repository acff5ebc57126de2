"""The five diffusion-reaction experiments, one :class:`Model` record each
in ``MODELS``; :func:`model_spec`, which returns a record with its
constants overridden; :func:`build_system`, which assembles any record;
and the integral-mean diagnostics.

A record states once what differs between the models: its name, the
published constants and sizes, the components in order (geometry, diffusion
coefficient, perturbation law, lifted or not, linear decay, support of the
reaction term), the equilibrium, the radial operator, the shape of each
kinetics buffer and the reaction function.
The surface components of a bulk-surface model live on the boundary
geometry, and the reaction term carries the boundary-flux sources.  Lifted
components (inhomogeneous Dirichlet data) are integrated as deviations from
their equilibrium value; the ``lift`` offset restores physical values.
Adding a model takes a :class:`ModelName` member, one record whose
``name`` is that member and one reaction function, which may share the
kinetics helpers below.

The kinetics evaluator writes into buffers that its system owns, which
share no memory with the states it is given; each call overwrites the
arrays the last call returned.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from typing import Callable

import numpy as np

from . import tensor
from .integrators import ComponentOps, Geometry, in_eigenbasis, prepared_bytes
from .operators import (
    TridiagonalOperator,
    build_lambda,
    build_phi_op,
    build_rho,
    build_theta,
    build_z,
    symmetrize,
)
from .rng import Xoshiro256pp

# ---------------------------------------------------------------------------
# perturbation laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def draw(self, rng: Xoshiro256pp, size: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.uniform(size)


@dataclass(frozen=True)
class Normal:
    sigma: float

    def draw(self, rng: Xoshiro256pp, size: int) -> np.ndarray:
        return self.sigma * rng.normal(size)


Perturbation = Uniform | Normal


# ---------------------------------------------------------------------------
# model catalogue
# ---------------------------------------------------------------------------


class ModelName(Enum):
    BVAM_DISK = "bvam_disk"
    SCHNAKENBERG_ANOMALOUS_DISK = "schnakenberg_anomalous_disk"
    DIB_SPHERE = "dib_sphere"
    BULK_SURFACE_SCHNAKENBERG_BALL = "bulk_surface_schnakenberg_ball"
    BSDIB_CYLINDER = "bsdib_cylinder"


# ---------------------------------------------------------------------------
# kinetics
# ---------------------------------------------------------------------------


# The kinetics helpers below write into ``out``, a tuple of C-contiguous
# arrays of the inputs' shape sharing no memory with the inputs.  Each
# applies its formula one ufunc at a time, in the formula's order of
# operations, so it gives the bits of the formula as numpy expressions.


def bvam_kinetics(u, v, params, out) -> tuple[np.ndarray, np.ndarray]:
    """Cubic activator-inhibitor kinetics of the BVAM system:
    b = a1 u (1 - a2 v^2) + v (1 - a3 u) and
    c = b1 v (1 + (a1 a2 / b1) u v) + u (b2 + a3 v).
    ``out`` is (b, c, scratch)."""
    a1, a2, a3 = params["alpha1"], params["alpha2"], params["alpha3"]
    b1, b2 = params["beta1"], params["beta2"]
    b, c, t = out
    np.multiply(u, a1, out=b)
    np.square(v, out=t)
    t *= a2
    np.subtract(1.0, t, out=t)
    b *= t
    np.multiply(u, a3, out=t)
    np.subtract(1.0, t, out=t)
    t *= v
    b += t
    np.multiply(u, a1 * a2 / b1, out=c)
    c *= v
    c += 1.0
    np.multiply(v, b1, out=t)
    c *= t
    np.multiply(v, a3, out=t)
    t += b2
    t *= u
    c += t
    return b, c


def schnakenberg_kinetics(u, v, params, out) -> tuple[np.ndarray, np.ndarray]:
    """Schnakenberg production kinetics (unscaled): alpha2 - u + u^2 v and
    beta1 - u^2 v.  ``out`` is (b, c)."""
    b, c = out
    np.multiply(u, u, out=c)
    c *= v
    np.subtract(params["alpha2"], u, out=b)
    b += c
    np.subtract(params["beta1"], c, out=c)
    return b, c


def eta4(params) -> float:
    """Constrained DIB parameter making (r, s) = (0, zeta5) an equilibrium.

    The bulk-surface cylinder variant carries the extra beta2 prefactor from
    its v-dependent kinetics; for the plain DIB model beta2 is absent, which
    is encoded by defaulting it to 1.
    """
    z5, e1, e3 = params["zeta5"], params["eta1"], params["eta3"]
    pre = params.get("beta2", 1.0)
    return pre * e1 * (1.0 - z5) * (1.0 - e3 + e3 * z5) / (z5 * (1.0 + e3 * z5))


def dib_kinetics(r, s, params, out, u=1.0, v=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Electrodeposition (DIB) kinetics; eta4 comes from the constraint.
    p = z2 u (1 - s) r - z3 r^3 - z4 (s - z5) and
    q = e1 v (1 + e2 r) (1 - s) (1 - e3 (1 - s)) - eta4 (1 + e5 r) s (1 + e3 s).
    On the sphere the factors u and v are 1; on the cylinder's bottom disk
    they are the bulk traces.  ``out`` is (p, q, scratch)."""
    z2, z3, z4, z5 = (params[k] for k in ("zeta2", "zeta3", "zeta4", "zeta5"))
    e1, e2, e3, e5 = (params[k] for k in ("eta1", "eta2", "eta3", "eta5"))
    p, q, t = out
    _product(v, e1, out=q)
    np.multiply(r, e2, out=t)
    t += 1.0
    q *= t
    np.subtract(1.0, s, out=t)
    q *= t
    t *= e3
    np.subtract(1.0, t, out=t)
    q *= t
    np.multiply(r, e5, out=t)
    t += 1.0
    t *= eta4(params)
    t *= s
    np.multiply(s, e3, out=p)
    p += 1.0
    t *= p
    q -= t
    _product(u, z2, out=p)
    np.subtract(1.0, s, out=t)
    p *= t
    p *= r
    np.multiply(r, r, out=t)
    t *= r
    t *= z3
    p -= t
    np.subtract(s, z5, out=t)
    t *= z4
    p -= t
    return p, q


def _product(x, c: float, out: np.ndarray) -> None:
    """out = x c, by one fill for a float x (twice as fast as a ufunc)."""
    if isinstance(x, float):
        out.fill(x * c)
    else:
        np.multiply(x, c, out=out)


def bulk_surface_coupling_ball(u_trace, v_trace, r, s, params, h_rho: float, rho_edge: float, out):
    """Robin-flux sources for the bulk components of the ball model plus the
    surface kinetics.

    Returns (src_u, src_v, p, q): the sources are the ghost-elimination
    contributions to add at the outermost radial row (the diffusion
    coefficients cancel against the Robin conditions, so none appears here),
    p and q are the surface kinetics before the zeta1 time-scale factor.
    With d_u = z2 r - z3 u_trace and d_v = e1 s - e2 v_trace,
    src = 2 h ghost z1 d and (p, q) = schnakenberg(r, s) - (d_u, d_v).
    ``out`` is (src_u, src_v, p, q, scratch).
    """
    if u_trace.shape != r.shape or v_trace.shape != s.shape:
        raise ValueError("bulk traces and surface fields must share a grid")
    z1, z2, z3 = params["zeta1"], params["zeta2"], params["zeta3"]
    e1, e2 = params["eta1"], params["eta2"]
    src_u, src_v, p, q, t = out
    ghost = 1.0 / h_rho**2 + 1.0 / (rho_edge * h_rho)  # (d-1)/(2 rho h), d = 3
    scale = 2.0 * h_rho * ghost
    schnakenberg_kinetics(r, s, params, out=(p, q))
    for src, a, x, b, y, g in ((src_u, z2, r, z3, u_trace, p), (src_v, e1, s, e2, v_trace, q)):
        np.multiply(x, a, out=t)
        np.multiply(y, b, out=src)
        t -= src
        np.multiply(t, z1, out=src)
        src *= scale
        g -= t
    return src_u, src_v, p, q


def bs_cylinder_coupling(u_bottom, v_bottom, r, s, params, h_z: float, out):
    """Bottom-disk flux sources and surface kinetics of the cylinder model.

    Returns (src_u, src_v, p, q); the sources are added on the z = 0 slice of
    the bulk reaction terms, p and q feed both the surface equations (times
    zeta1) and the flux conditions.  p and q are :func:`dib_kinetics` with
    the bulk traces u = u_bottom and v = v_bottom.
    ``out`` is (src_u, src_v, p, q, scratch).
    """
    if u_bottom.shape != r.shape or v_bottom.shape != s.shape:
        raise ValueError("bulk bottom slices and surface fields must share a grid")
    src_u, src_v, *kinetics = out
    p, q = dib_kinetics(r, s, params, out=kinetics, u=u_bottom, v=v_bottom)
    # ghost coefficient of the axial stencil is 1/h^2; the v-source keeps the
    # bulk diffusion coefficient because its flux condition fixes the plain
    # normal derivative.
    z1 = params["zeta1"]
    np.multiply(p, -(2.0 / h_z) * z1 * params["alpha3"], out=src_u)
    np.multiply(q, -(2.0 / h_z) * z1 * params["beta3"] * params["delta"], out=src_v)
    return src_u, src_v, p, q


# ---------------------------------------------------------------------------
# reaction terms and model records
# ---------------------------------------------------------------------------

# A reaction function maps (states, out, params, eq, axes) to the reaction
# term of every component, computed in ``out``: the kinetics buffers, one
# field of the shape that the record's ``buffers`` names for each.  ``eq``
# is the equilibrium and ``axes`` the 1-d operators by axis name.


def _bvam_reaction(states, out, p, eq, axes):
    b, c = bvam_kinetics(states["u"], states["v"], p, out=out)
    return {"u": b, "v": c}


def _anomalous_reaction(states, out, p, eq, axes):
    u, v, *out = out
    np.add(states["u"], eq["u"], out=u)
    np.add(states["v"], eq["v"], out=v)
    gu, gv = schnakenberg_kinetics(u, v, p, out=out)
    gu *= p["alpha1"]
    gv *= p["alpha1"]
    return {"u": gu, "v": gv}


def _dib_reaction(states, out, p, eq, axes):
    pr, qs = dib_kinetics(states["r"], states["s"], p, out=out)
    pr *= p["zeta1"]
    qs *= p["zeta1"]
    return {"r": pr, "s": qs}


def _ball_reaction(states, out, p, eq, axes):
    u, v, r, s = states["u"], states["v"], states["r"], states["s"]
    rho = axes["rho"]
    src_u, src_v, ps, qs = bulk_surface_coupling_ball(
        u[-1, :, :], v[-1, :, :], r, s, p, rho.h, rho.grid[-1], out=out[2:]
    )
    gu, gv = schnakenberg_kinetics(u, v, p, out=out[:2])
    gu *= p["alpha1"]
    gv *= p["alpha1"]
    gu[-1, :, :] += src_u
    gv[-1, :, :] += src_v
    ps *= p["zeta1"]
    qs *= p["zeta1"]
    return {"u": gu, "v": gv, "r": ps, "s": qs}


def _cylinder_reaction(states, out, p, eq, axes):
    # the bulk decay -alpha1 (u - alpha2) is -alpha1 W_u in lifted variables
    # (u* = alpha2, v* = beta2), which M W applies through the record's
    # decay; only the flux sources on the z = 0 slice are left here
    u_bottom, v_bottom, *surface = out
    np.add(states["u"][:, :, 0], eq["u"], out=u_bottom)
    np.add(states["v"][:, :, 0], eq["v"], out=v_bottom)
    src_u, src_v, ps, qs = bs_cylinder_coupling(
        u_bottom, v_bottom, states["r"], states["s"], p, axes["z"].h, out=surface
    )
    ps *= p["zeta1"]
    qs *= p["zeta1"]
    return {"u": src_u, "v": src_v, "r": ps, "s": qs}


def _schnakenberg_steady(p) -> tuple[float, float]:
    ue = p["alpha2"] + p["beta1"]
    return ue, p["beta1"] / ue**2


@dataclass(frozen=True)
class Component:
    """One unknown of a model: its geometry, its diffusion coefficient as a
    function of (params, sizes), the law of its initial perturbation (None:
    it starts at the equilibrium), whether it is lifted, the rate of its
    linear reaction -decay W as a function of the params (None: none), and
    the index of the part of the field the rest of its reaction covers."""

    geometry: Geometry
    coeff: Callable[[dict, dict], float]
    perturbation: Perturbation | None
    lifted: bool = False
    decay: Callable[[dict], float] | None = None
    support: tuple = (...,)


@dataclass(frozen=True)
class Model:
    """One experiment: its ``name``; published ``params`` and ``sizes``;
    ``components`` in the model's order; ``equilibrium(params)``;
    ``rho(n, params, sizes)``, the radial operator, or None when no
    component has a radial axis; ``buffers``, the component whose field
    shape each kinetics buffer takes; and the ``reaction`` function."""

    name: ModelName
    params: dict[str, float]
    sizes: dict[str, float]
    components: dict[str, Component]
    equilibrium: Callable[[dict], dict[str, float]]
    rho: Callable[[int, dict, dict], TridiagonalOperator] | None
    buffers: tuple[str, ...]
    reaction: Callable[..., dict[str, np.ndarray]]

    def allocate(self, shapes: dict[str, tuple[int, ...]]) -> tuple[np.ndarray, ...]:
        """The kinetics buffers, for these component field shapes."""
        return tuple(np.empty(shapes[c]) for c in self.buffers)

    def buffer_bytes(self, shapes: dict[str, tuple[int, ...]]) -> int:
        """What :meth:`allocate` takes, in bytes."""
        return sum(8 * math.prod(shapes[c]) for c in self.buffers)


def _sphere_surface(law: Perturbation) -> dict[str, Component]:
    """r and s on the sphere of radius rho_star, where the unit sphere's
    operator is scaled by 1/rho_star^2 and s diffuses epsilon times as fast."""
    return {
        "r": Component(Geometry.SPHERE, lambda p, sizes: 1.0 / sizes["rho_star"] ** 2, law),
        "s": Component(
            Geometry.SPHERE, lambda p, sizes: p["epsilon"] / sizes["rho_star"] ** 2, law
        ),
    }


_RECORDS = (
    Model(
        name=ModelName.BVAM_DISK,
        params={
            "gamma": 3.87e-3,
            "delta": 7.5e-3,
            "alpha1": 0.899,
            "alpha2": 0.2,
            "alpha3": 0.2,
            "beta1": -0.91,
            "beta2": -0.899,
        },
        sizes={"rho_star": 1.0},
        components={
            "u": Component(Geometry.DISK, lambda p, sizes: p["gamma"], Uniform(-0.5, 0.5)),
            "v": Component(Geometry.DISK, lambda p, sizes: p["delta"], Uniform(-0.5, 0.5)),
        },
        equilibrium=lambda p: {"u": 0.0, "v": 0.0},
        rho=lambda n, p, sizes: build_rho(2, n, sizes["rho_star"]),
        buffers=("u",) * 3,
        reaction=_bvam_reaction,
    ),
    # the weighted radial stencil and the usual periodic angle, integrated
    # in lifted variables (homogeneous Dirichlet)
    Model(
        name=ModelName.SCHNAKENBERG_ANOMALOUS_DISK,
        params={
            "alpha1": 5.0e2,
            "alpha2": 1.4e-1,
            "beta1": 1.34,
            "delta": 5.0e1,
            "lambda": -1.95,
        },
        sizes={"rho_star": 1.0},
        components={
            "u": Component(Geometry.DISK, lambda p, sizes: 1.0, Normal(1e-5), True),
            "v": Component(Geometry.DISK, lambda p, sizes: p["delta"], Normal(1e-5), True),
        },
        equilibrium=lambda p: dict(zip(("u", "v"), _schnakenberg_steady(p))),
        rho=lambda n, p, sizes: build_lambda(n, sizes["rho_star"], p["lambda"]),
        buffers=("u",) * 4,
        reaction=_anomalous_reaction,
    ),
    Model(
        name=ModelName.DIB_SPHERE,
        params={
            "zeta1": 10.0,
            "zeta2": 10.0,
            "zeta3": 1.0,
            "zeta4": 48.0,
            "zeta5": 0.5,
            "eta1": 5.0,
            "eta2": 2.5,
            "eta3": 0.2,
            "eta5": 1.5,
            "epsilon": 20.0,
        },
        sizes={"rho_star": 1.1653},
        components=_sphere_surface(Normal(1e-6)),
        equilibrium=lambda p: {"r": 0.0, "s": p["zeta5"]},
        rho=None,
        buffers=("r",) * 3,
        reaction=_dib_reaction,
    ),
    Model(
        name=ModelName.BULK_SURFACE_SCHNAKENBERG_BALL,
        params={
            "alpha1": 55.0,
            "alpha2": 0.1,
            "beta1": 0.9,
            "zeta1": 55.0,
            "zeta2": 5.0 / 12.0,
            "zeta3": 5.0 / 12.0,
            "eta1": 5.0,
            "eta2": 5.0,
            "delta": 10.0,
            "epsilon": 10.0,
        },
        sizes={"rho_star": 1.0},
        components={
            "u": Component(Geometry.BALL, lambda p, sizes: 1.0, Normal(1e-3)),
            "v": Component(Geometry.BALL, lambda p, sizes: p["delta"], Normal(1e-3)),
            **_sphere_surface(Normal(1e-3)),
        },
        equilibrium=lambda p: dict(zip(("u", "v", "r", "s"), 2 * _schnakenberg_steady(p))),
        rho=lambda n, p, sizes: build_rho(3, n, sizes["rho_star"]),
        buffers=("u",) * 2 + ("r",) * 5,
        reaction=_ball_reaction,
    ),
    Model(
        name=ModelName.BSDIB_CYLINDER,
        params={
            "alpha1": 1.0,
            "alpha2": 1.0,
            "alpha3": 0.15,
            "beta1": 1.0,
            "beta2": 1.0,
            "beta3": 0.15,
            "delta": 1.0,
            "epsilon": 20.0,
            "zeta1": 1.0,
            "zeta2": 10.0,
            "zeta3": 1.0,
            "zeta4": 66.0,
            "zeta5": 0.5,
            "eta1": 3.0,
            "eta2": 2.5,
            "eta3": 0.2,
            "eta5": 1.5,
        },
        sizes={"rho_star": 25.0, "z_star": 25.0},
        components={
            "u": Component(
                Geometry.CYLINDER, lambda p, sizes: 1.0, None, True,
                decay=lambda p: p["alpha1"], support=np.s_[:, :, 0],
            ),
            "v": Component(
                Geometry.CYLINDER, lambda p, sizes: p["delta"], None, True,
                decay=lambda p: p["beta1"], support=np.s_[:, :, 0],
            ),
            "r": Component(Geometry.DISK, lambda p, sizes: 1.0, Uniform(0.0, 1e-2)),
            "s": Component(Geometry.DISK, lambda p, sizes: p["epsilon"], Uniform(0.0, 1e-2)),
        },
        equilibrium=lambda p: {"u": p["alpha2"], "v": p["beta2"], "r": 0.0, "s": p["zeta5"]},
        rho=lambda n, p, sizes: build_rho(2, n, sizes["rho_star"]),
        buffers=("r",) * 7,
        reaction=_cylinder_reaction,
    ),
)
MODELS: dict[ModelName, Model] = {model.name: model for model in _RECORDS}


def model_spec(name: ModelName | str, overrides: dict[str, float] | None = None) -> Model:
    """The model's record with its published constants, optionally
    overridden (keys: parameter names, or geometry sizes rho_star /
    z_star).  eta4 is never a parameter: it is always recomputed from the
    equilibrium constraint."""
    model = MODELS[ModelName(name)]
    params = dict(model.params)
    sizes = dict(model.sizes)
    for key, value in (overrides or {}).items():
        if key in sizes:
            sizes[key] = float(value)
        elif key in params:
            params[key] = float(value)
        else:
            raise KeyError(f"unknown parameter {key!r} for model {model.name.value}")
    return replace(model, params=params, sizes=sizes)


# ---------------------------------------------------------------------------
# coupled-system assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemComponent:
    """One component of a built system: its operators, its start field in
    deviation variables (``initial``) and the ``lift`` that restores the
    physical values.  A component without a perturbation law starts at a
    constant, and its ``initial`` is a read-only view of that constant
    with all strides 0; callers that step a start field copy it first, as
    :func:`~curvipat.integrators.run_simulation` does."""

    name: str
    ops: ComponentOps
    initial: np.ndarray
    lift: float = 0.0


@dataclass(frozen=True)
class CoupledSystem:
    spec: Model
    components: list[SystemComponent]
    kinetics: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]]
    equilibrium: dict[str, float]


def random_initial_condition(
    model: Model, seed: int, dims: dict[str, int]
) -> dict[str, np.ndarray]:
    """Equilibrium plus seeded perturbation, by the record's laws, for every
    component.

    One generator serves all components; draws happen component-major (in
    the model's component order) and flat-index order within a field.
    Components without a perturbation law consume no draws, and their
    field is a read-only view of the equilibrium value with all strides 0.
    The result is bitwise reproducible for a fixed seed.
    """
    rng = Xoshiro256pp(seed)
    shapes = component_shapes(model, dims)
    equilibrium = model.equilibrium(model.params)
    fields = {}
    for name, shape in shapes.items():
        law = model.components[name].perturbation
        if law is None:
            fields[name] = _constant(equilibrium[name], shape)
        else:
            base = np.full(shape, equilibrium[name])
            base += tensor.unvec(law.draw(rng, math.prod(shape)), shape)
            fields[name] = base
    return fields


def _constant(value: float, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only field of one value, every stride 0."""
    return np.broadcast_to(np.float64(value), shape)


def _components(model: Model | ModelName) -> dict[str, Component]:
    """The components of a record, or of a name's record in ``MODELS``."""
    return (model if isinstance(model, Model) else MODELS[model]).components


def component_shapes(
    model: Model | ModelName, dims: dict[str, int]
) -> dict[str, tuple[int, ...]]:
    """Field dims per component, from the per-axis point counts."""
    return {
        comp: tuple(dims[f"n_{axis}"] for axis in c.geometry.axes)
        for comp, c in _components(model).items()
    }


def dim_keys(model: Model | ModelName) -> tuple[str, ...]:
    """The point-count keys (``n_<axis>``) a model needs, in axis order."""
    components = _components(model).values()
    return tuple(dict.fromkeys(f"n_{axis}" for c in components for axis in c.geometry.axes))


def build_system(
    model: Model | ModelName | str,
    dims: dict[str, int],
    seed: int,
) -> CoupledSystem:
    """Assemble the model's record into operators, initial fields and the
    kinetics evaluator; a model name takes its published constants (pass
    others through :func:`model_spec`, other perturbation laws through a
    record with other ``components``).  Each axis's 1-d operator is built
    once and shared by every component on it.  Constants that overflow or
    divide by zero on the way, or that leave a tridiagonal axis operator
    without finite, positive symmetrized off-diagonals, are a
    ``ValueError``, like the other bad constants.

    The evaluator computes in kinetics buffers that the system allocates
    once, so each call overwrites the arrays the last call returned.
    """
    if not isinstance(model, Model):
        model = model_spec(model)
    _check_constants(model)
    _check_memory(model, dims)
    p, sizes = model.params, model.sizes
    build_axis = {
        "rho": lambda n: model.rho(n, p, sizes),
        "theta": build_theta,
        "phi": build_phi_op,
        "z": lambda n: build_z(n, sizes["z_star"]),
    }
    try:
        # numpy's overflow and division by zero raise here, as Python's do
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            counts = {key.removeprefix("n_"): dims[key] for key in dim_keys(model)}
            axes = {axis: build_axis[axis](n) for axis, n in counts.items()}
            for axis, op in axes.items():
                # prepare's eigensolver works on the symmetrized matrix
                if isinstance(op, TridiagonalOperator):
                    off = symmetrize(op)[1]
                    if not np.all((off > 0) & np.isfinite(off)):
                        raise ValueError(
                            f"the {axis} operator's symmetrized off-diagonals must be "
                            f"finite and positive"
                        )
        eq = model.equilibrium(p)
        coeffs = {name: c.coeff(p, sizes) for name, c in model.components.items()}
        decays = {name: c.decay(p) if c.decay else 0.0 for name, c in model.components.items()}
        for name, coeff in coeffs.items():
            if coeff < 0:
                raise ValueError(
                    f"component {name!r} has a negative diffusion coefficient {coeff!r}"
                )
        lifts = {name: eq[name] if c.lifted else 0.0 for name, c in model.components.items()}

        def compute(states, out):
            return model.reaction(states, out, p, eq, axes)

        _check_kinetics(model, eq, lifts, compute)
    except ArithmeticError as exc:
        raise ValueError(
            f"the constants of model {model.name.value} overflow or divide by zero: {exc}"
        ) from exc
    initial = random_initial_condition(model, seed, dims)
    components = []
    for name, c in model.components.items():
        ops = ComponentOps(
            c.geometry, coeffs[name], decay=decays[name], support=c.support,
            **{a: axes[a] for a in c.geometry.axes},
        )
        if c.perturbation is None:
            field = _constant(eq[name] - lifts[name], ops.shape)
        else:
            field = np.subtract(initial[name], lifts[name], out=initial[name])
        components.append(SystemComponent(name, ops, field, lifts[name]))
    buffers = model.allocate({c.name: c.ops.shape for c in components})
    return CoupledSystem(model, components, lambda states: compute(states, buffers), eq)


def _check_kinetics(model: Model, eq: dict, lifts: dict, compute) -> None:
    """Reject constants that make the kinetics non-finite.  On one-point
    fields, so that the check costs the same at any dims.  At the
    equilibrium itself a huge constant can cancel (the DIB eta4 is derived
    to make it so), hence also the points one unit to either side."""
    point = {name: (1,) * len(c.geometry.axes) for name, c in model.components.items()}
    scratch = model.allocate(point)
    for shift in (0.0, 1.0, -1.0):
        states = {
            name: np.full(shape, eq[name] - lifts[name] + shift)
            for name, shape in point.items()
        }
        with np.errstate(all="ignore"):
            values = compute(states, scratch)
        for name, G in values.items():
            if not np.all(np.isfinite(G)):
                raise ValueError(
                    f"the model constants make the kinetics of {name!r} non-finite "
                    f"at {shift:+g} from the equilibrium"
                )


def _check_memory(model: Model, dims: dict[str, int]) -> int:
    """Reject dims whose arrays cannot fit in physical memory, and return
    the bytes counted.  Per component: the current field, the initial field
    unless the record gives it no perturbation law (then it is a view of
    one value), and the factors ``prepare`` keeps; the record's kinetics
    buffers; per field shape: the step workspace, two fields and (unless
    all are held in an eigenbasis) an rfft spectrum, which holds n//2 + 1
    complex values per n reals, so at most two fields; and a scratch field
    for each component held in an eigenbasis beyond its shape's first two."""
    shapes = component_shapes(model, dims)
    need = model.buffer_bytes(shapes)
    spectra = set()
    held = Counter()
    for comp, shape in shapes.items():
        c = model.components[comp]
        fields = 1 if c.perturbation is None else 2
        need += 8 * fields * math.prod(shape) + prepared_bytes(c.geometry, shape, c.support)
        if in_eigenbasis(c.geometry, c.support):
            held[shape] += 1
        else:
            spectra.add(shape)
    need += sum(8 * 2 * math.prod(shape) for shape in [*set(shapes.values()), *spectra])
    need += sum(8 * max(k - 2, 0) * math.prod(shape) for shape, k in held.items())
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"dims {dims} need about {need / 2**30:.1f} GiB, more than the "
            f"{have / 2**30:.1f} GiB of physical memory"
        )
    return need


def _check_constants(model: Model) -> None:
    """Reject a non-finite parameter or size, including the derived eta4 of
    the DIB kinetics, and a size that is not positive, before anything is
    built."""
    constants = {**model.params, **model.sizes}
    if "zeta5" in model.params:
        try:
            constants["eta4"] = eta4(model.params)
        except ZeroDivisionError:
            constants["eta4"] = math.inf
    for key, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"model constant {key} must be finite, got {value!r}")
        if key in model.sizes and value <= 0:
            raise ValueError(f"model size {key} must be positive, got {value!r}")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def quadrature_weights(cops: ComponentOps) -> np.ndarray:
    """Node-centred quadrature weights with the coordinate Jacobian, the
    outer product of the measures of the component's axes; they sum to
    about the measure of the domain."""
    return reduce(np.multiply.outer, [axis.measure for axis in cops.axis_ops()])


def mean_diagnostics(system: CoupledSystem) -> Callable[[dict], dict]:
    """Diagnostics closure returning the physical integral mean of every
    component (lift restored).  Normalized quadrature weights are built
    once."""
    lifts = {c.name: c.lift for c in system.components}
    weights = {}
    for c in system.components:
        w = quadrature_weights(c.ops)
        weights[c.name] = w / np.sum(w)

    def evaluate(states: dict[str, np.ndarray]) -> dict[str, float]:
        return {
            name: float(np.sum(W * weights[name])) + lifts[name]
            for name, W in states.items()
        }

    return evaluate
