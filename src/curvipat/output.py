"""File outputs: snapshot CSVs, time-series CSVs and PPM heatmaps.

Everything written here is a pure function of the simulation data, so two
runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .integrators import ComponentOps

# every number the package writes or prints, round-trip exact
FLOAT_FMT = "%.17g"

# 16 anchor colors blended linearly into the fixed 256-entry palette used by
# the heatmaps (dark purple through teal to yellow).
_PALETTE_ANCHORS = (
    (68, 1, 84),
    (72, 26, 108),
    (71, 47, 125),
    (65, 68, 135),
    (57, 86, 140),
    (49, 104, 142),
    (42, 120, 142),
    (35, 136, 142),
    (31, 152, 139),
    (34, 168, 132),
    (53, 183, 121),
    (84, 197, 104),
    (122, 209, 81),
    (165, 219, 54),
    (210, 226, 27),
    (253, 231, 37),
)


def _build_palette() -> np.ndarray:
    anchors = np.array(_PALETTE_ANCHORS, dtype=float)
    pos = np.linspace(0.0, 1.0, len(anchors))
    t = np.linspace(0.0, 1.0, 256)
    channels = [np.interp(t, pos, anchors[:, c]) for c in range(3)]
    return np.rint(np.stack(channels, axis=1)).astype(np.uint8)


PALETTE = _build_palette()


def colormap_indices(field: np.ndarray) -> np.ndarray:
    """Map field values linearly onto palette indices 0..255 (constant
    fields map to 0)."""
    lo = float(np.min(field))
    hi = float(np.max(field))
    if hi <= lo:
        return np.zeros(field.shape, dtype=np.uint8)
    scaled = (field - lo) / (hi - lo) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def write_heatmap(path: Path, field: np.ndarray) -> None:
    """Binary PPM (P6) of the field on its index rectangle.

    Order-3 fields are unfolded along the first mode (rows = first index,
    columns = second and third indices), so every value is rendered and the
    pixel extrema always match the field extrema.
    """
    data = np.asarray(field, dtype=float)
    if data.ndim == 3:
        data = data.reshape(data.shape[0], -1, order="F")
    if data.ndim != 2:
        raise ValueError("heatmaps need an order-2 or order-3 field")
    pixels = PALETTE[colormap_indices(data)]
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_snapshot(
    path: Path,
    field: np.ndarray,
    cops: ComponentOps,
    *,
    component: str,
    model: str,
    step: int,
    t: float,
) -> None:
    """Self-describing CSV snapshot of one component.

    Header comments carry the geometry, dims and grid vectors; the body
    lists 1-based indices, node coordinates and the value, one row per node
    in flat-index (first index fastest) order.  The body is written one
    slice of the last index at a time, with the index and coordinate text
    of every axis formatted once.
    """
    names = list(cops.geometry.axes)
    grids = [axis.grid for axis in cops.axis_ops()]
    shape = field.shape
    index_text = [[f"{k}," for k in range(1, n + 1)] for n in shape]
    coord_text = [[FLOAT_FMT % c + "," for c in grid.tolist()] for grid in grids]
    # (index text, coordinate text) of every node of one slice, first index
    # fastest
    prefixes = [("", "")]
    for idx, crd in zip(index_text[:-1], coord_text[:-1]):
        prefixes = [
            (p_idx + i, p_crd + c) for i, c in zip(idx, crd) for p_idx, p_crd in prefixes
        ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# model: {model}\n")
        fh.write(f"# component: {component}\n")
        fh.write(f"# geometry: {cops.geometry.value}\n")
        fh.write(f"# dims: {' '.join(str(d) for d in shape)}\n")
        fh.write(f"# step: {step}\n")
        fh.write(f"# t: {FLOAT_FMT % t}\n")
        for name, grid in zip(names, grids):
            fh.write(
                f"# grid_{name}: " + " ".join(FLOAT_FMT % g for g in grid) + "\n"
            )
        fh.write(",".join(["i", "j", "k"][: len(shape)] + names + ["value"]) + "\n")
        slices = field.reshape(-1, order="F").reshape(shape[-1], -1)
        for i_k, c_k, values in zip(index_text[-1], coord_text[-1], slices):
            # index and coordinate text hold no "%", so only the value
            # fields are formatting directives
            rows = "".join(f"{idx}{i_k}{crd}{c_k}{FLOAT_FMT}\n" for idx, crd in prefixes)
            fh.write(rows % tuple(values.tolist()))


def write_timeseries(path: Path, names: list[str], rows: list[tuple]) -> None:
    """CSV with columns t, mean_<component>..., one row per sample."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(["t"] + [f"mean_{n}" for n in names]) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")
