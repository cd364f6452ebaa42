"""Structured-grid fields, derivative operators, streamlines and frames.

Arrays are indexed ``[j, i]`` with ``j`` the y index and ``i`` the x index
(row-major over y).  All stencils are second order: central differences in
the interior, three-point one-sided at boundaries.  Off-node evaluation is
bilinear, the lowest-order interpolation consistent with the stencils; it is
documented here precisely so reference calculations can replicate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateTrajectory,
    InsufficientSnapshots,
    PointOutsideDomain,
    SeedOutsideDomain,
    ShapeMismatch,
    StagnationAtSeed,
    VortigenError,
)

__all__ = [
    "StructuredGrid2D",
    "Snapshot",
    "FieldSet",
    "Trajectory",
    "gradient",
    "curl2d",
    "time_derivative",
    "interp_bilinear",
    "sample_tiles",
    "TILE_CELLS",
    "trace_streamline",
    "trace_streamlines",
    "frame_along",
    "MAX_STEPS_PER_SEED",
]


@dataclass(frozen=True)
class StructuredGrid2D:
    """Uniform rectangular node grid: x = x0 + i*hx, y = y0 + j*hy."""

    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    hx: float = 1.0
    hy: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"need nx, ny >= 3, got {self.nx}x{self.ny}")
        if not (self.hx > 0.0 and self.hy > 0.0):
            raise ValueError("grid spacings must be positive")

    @property
    def shape(self) -> tuple:
        return (self.ny, self.nx)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    @property
    def xmax(self) -> float:
        return self.x0 + self.hx * (self.nx - 1)

    @property
    def ymax(self) -> float:
        return self.y0 + self.hy * (self.ny - 1)

    def contains(self, x, y):
        """Closed-rectangle membership, elementwise for coordinate arrays."""
        return ((self.x0 <= x) & (x <= self.xmax)
                & (self.y0 <= y) & (y <= self.ymax))

    def check_conforms(self, arr: np.ndarray, name: str = "field"):
        if np.shape(arr) != self.shape:
            raise ShapeMismatch(
                f"{name} has shape {np.shape(arr)}, grid is {self.shape}"
            )


@dataclass(frozen=True)
class Snapshot:
    """One time level of a node-sampled flow state."""

    t: float
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class FieldSet:
    """Node-sampled flow state (rho, u, v, p), optionally a time series.

    ``snapshots`` holds (t, fields) levels with strictly increasing times;
    the primary arrays are the working state (by convention the first
    snapshot when a series is attached).
    """

    grid: StructuredGrid2D
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    snapshots: Optional[Sequence[Snapshot]] = None

    def __post_init__(self):
        for name in ("rho", "u", "v", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            self.grid.check_conforms(arr, name)
            object.__setattr__(self, name, arr)
        if not (np.all(self.rho > 0.0) and np.all(self.p > 0.0)):
            raise ValueError("rho and p must be positive at every node")
        if self.snapshots is not None:
            times = [s.t for s in self.snapshots]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("snapshot times must be strictly increasing")
            for s in self.snapshots:
                for name in ("rho", "u", "v", "p"):
                    self.grid.check_conforms(getattr(s, name), f"snapshot {name}")

    @property
    def speed(self) -> np.ndarray:
        return np.hypot(self.u, self.v)

    def window(self, rows: slice, cols: slice) -> "FieldSet":
        """The field set cropped to the nodes ``[rows, cols]`` (unit-step
        slices), snapshots alike.  Locate points on the full grid:
        the window's grid rounds (x - x0) / hx differently."""
        g = self.grid
        grid = StructuredGrid2D(cols.stop - cols.start, rows.stop - rows.start,
                                g.x0 + cols.start * g.hx,
                                g.y0 + rows.start * g.hy, g.hx, g.hy)
        crop = lambda arr: np.asarray(arr)[rows, cols]
        snaps = None if self.snapshots is None else [
            Snapshot(s.t, crop(s.rho), crop(s.u), crop(s.v), crop(s.p))
            for s in self.snapshots]
        return FieldSet(grid, crop(self.rho), crop(self.u), crop(self.v),
                        crop(self.p), snaps)


@dataclass(frozen=True)
class Trajectory:
    """Ordered point samples of a flow trajectory and their arclength, the
    cumulative segment length from 0, derived here; it must increase
    strictly, which a repeated point or a step lost to rounding breaks."""

    points: np.ndarray  # (n, 2)
    arclength: np.ndarray = field(init=False)  # (n,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
            raise ValueError("points must be a nonempty (n, 2) array")
        arc = _arclength(pts)
        if np.any(np.diff(arc) <= 0.0):
            raise ValueError("arclength must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "arclength", arc)

    def __len__(self) -> int:
        return self.points.shape[0]


def _arclength(pts: np.ndarray) -> np.ndarray:
    """The cumulative segment length of the (n, 2) ``pts``, from 0."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate(([0.0], np.cumsum(seg)))


# ---------------------------------------------------------------------------
# derivative operators


def gradient(f: np.ndarray, grid: StructuredGrid2D):
    """(df/dx, df/dy) by second-order central/one-sided differences."""
    grid.check_conforms(f, "field")
    dfdx = np.gradient(f, grid.hx, axis=1, edge_order=2)
    dfdy = np.gradient(f, grid.hy, axis=0, edge_order=2)
    return dfdx, dfdy


def curl2d(u: np.ndarray, v: np.ndarray, grid: StructuredGrid2D) -> np.ndarray:
    """Scalar curl dv/dx - du/dy."""
    grid.check_conforms(u, "u")
    grid.check_conforms(v, "v")
    dvdx = np.gradient(v, grid.hx, axis=1, edge_order=2)
    dudy = np.gradient(u, grid.hy, axis=0, edge_order=2)
    return dvdx - dudy


def time_derivative(fs: FieldSet, name: str, index: int) -> np.ndarray:
    """Partial time derivative of one snapshot field at a snapshot index.

    Three-point second-order formulas on the (possibly nonuniform) snapshot
    times in the interior and at the ends; plain two-point slope when only
    two snapshots exist.
    """
    if fs.snapshots is None or len(fs.snapshots) < 2:
        raise InsufficientSnapshots("need at least two snapshots")
    n = len(fs.snapshots)
    if not 0 <= index < n:
        raise IndexError(f"snapshot index {index} out of range [0, {n})")
    t = np.array([s.t for s in fs.snapshots])
    f = lambda k: getattr(fs.snapshots[k], name)

    if n == 2:
        return (f(1) - f(0)) / (t[1] - t[0])
    if index == 0:
        h1, h2 = t[1] - t[0], t[2] - t[1]
        w0 = -(2.0 * h1 + h2) / (h1 * (h1 + h2))
        w1 = (h1 + h2) / (h1 * h2)
        w2 = -h1 / (h2 * (h1 + h2))
        return w0 * f(0) + w1 * f(1) + w2 * f(2)
    if index == n - 1:
        h1, h2 = t[-2] - t[-3], t[-1] - t[-2]
        w0 = h2 / (h1 * (h1 + h2))
        w1 = -(h1 + h2) / (h1 * h2)
        w2 = (h1 + 2.0 * h2) / (h2 * (h1 + h2))
        return w0 * f(n - 3) + w1 * f(n - 2) + w2 * f(n - 1)
    h1 = t[index] - t[index - 1]
    h2 = t[index + 1] - t[index]
    wm = -h2 / (h1 * (h1 + h2))
    w0 = (h2 - h1) / (h1 * h2)
    wp = h1 / (h2 * (h1 + h2))
    return wm * f(index - 1) + w0 * f(index) + wp * f(index + 1)


# ---------------------------------------------------------------------------
# off-node evaluation


def interp_bilinear(f: np.ndarray, grid: StructuredGrid2D, points):
    """Bilinear interpolation of node fields at interior points.

    ``points`` is one (x, y) pair or an (n, 2) array; ``f`` is one node
    field (ny, nx) or a stack (..., ny, nx) that shares the cell indices
    and weights.  One point of one field gives a float, otherwise an array
    of shape (..., n) (or (...,) for one point).  Raises
    ``PointOutsideDomain`` if any point lies outside the grid.
    """
    pts = _inside(grid, points)
    out = _lookup(f, *_cells(grid, pts[..., 0], pts[..., 1]))
    return float(out) if np.ndim(out) == 0 else out


def _inside(grid: StructuredGrid2D, points) -> np.ndarray:
    """``points`` as a float array; raises ``PointOutsideDomain`` naming
    the first point outside the grid."""
    pts = np.asarray(points, dtype=float)
    inside = grid.contains(pts[..., 0], pts[..., 1])
    if not np.all(inside):
        bx, by = pts.reshape(-1, 2)[np.argmin(np.ravel(inside))]
        raise PointOutsideDomain(f"point ({bx}, {by}) outside grid")
    return pts


def _cells(grid: StructuredGrid2D, x, y):
    """The cell (i, j) holding each point, by its lower-left node, and the
    point's offsets (tx, ty) in [0, 1] within it; the last cell of a row
    or column also holds the far edge."""
    fx = (x - grid.x0) / grid.hx
    fy = (y - grid.y0) / grid.hy
    i = np.minimum(fx.astype(int), grid.nx - 2)
    j = np.minimum(fy.astype(int), grid.ny - 2)
    return i, j, fx - i, fy - j


def _lookup(f: np.ndarray, i, j, tx, ty):
    """Bilinear interpolation of the node stack ``f`` (..., rows, cols) at
    the offsets (tx, ty) within the cells (i, j).  The corners are taken
    from the flattened node axes at the flat index k = j * cols + i and
    its neighbours, which costs about half of indexing ``f[..., j, i]``
    and gives the same values."""
    nx = f.shape[-1]
    flat = f.reshape(f.shape[:-2] + (-1,))
    k = j * nx + i
    return ((1 - tx) * (1 - ty) * flat.take(k, axis=-1)
            + tx * (1 - ty) * flat.take(k + 1, axis=-1)
            + (1 - tx) * ty * flat.take(k + nx, axis=-1)
            + tx * ty * flat.take(k + (nx + 1), axis=-1))


# sample_tiles builds node stacks on fixed tiles of this many cells a side
TILE_CELLS = 64


def sample_tiles(build, grid: StructuredGrid2D, points, halo: int):
    """Bilinear samples at the n >= 1 ``points`` of node stacks built only
    on the fixed tiles of ``TILE_CELLS`` cells a side that hold a point.

    ``build(rows, cols)`` returns a dict of stacks (..., rows, cols) on a
    tile's nodes widened by ``halo`` nodes and clipped at the grid edge.
    Points keep the full grid's cell arithmetic, so each sample equals
    ``interp_bilinear`` of a full-grid stack that agrees with the tile's
    on the tile's nodes.  Returns per key a (..., n) array; raises as
    ``interp_bilinear`` does.
    """
    pts = _inside(grid, points).reshape(-1, 2)
    if not len(pts):
        raise ValueError("need at least one point")
    i, j, tx, ty = _cells(grid, pts[:, 0], pts[:, 1])
    per_row = (grid.nx - 2) // TILE_CELLS + 1
    tile = j // TILE_CELLS * per_row + i // TILE_CELLS
    order = np.argsort(tile, kind="stable")
    ids, starts = np.unique(tile[order], return_index=True)
    out = {}
    for t, idx in zip(ids.tolist(), np.split(order, starts[1:])):
        tj, ti = divmod(t, per_row)
        j0, i0 = max(tj * TILE_CELLS - halo, 0), max(ti * TILE_CELLS - halo, 0)
        rows = slice(j0, min((tj + 1) * TILE_CELLS + halo, grid.ny - 1) + 1)
        cols = slice(i0, min((ti + 1) * TILE_CELLS + halo, grid.nx - 1) + 1)
        cell = i[idx] - i0, j[idx] - j0, tx[idx], ty[idx]
        for name, g in build(rows, cols).items():
            if name not in out:
                out[name] = np.empty(g.shape[:-2] + (len(pts),))
            out[name][..., idx] = _lookup(g, *cell)
    return out


# ---------------------------------------------------------------------------
# streamlines and frames


# The most RK4 steps one seed may take, max_len / step.  The defaults take
# about 11,600 on a 513^2 grid and 93,000 on a 4097^2 one.
MAX_STEPS_PER_SEED = 1_000_000

# The batched RK4 steps while at least this many seeds are live; fewer are
# stepped one at a time in floats.  Measured on a noisy 129^2 field, a
# batched step costs about 150-190 us from 5 to 64 seeds, the float path
# about 5.8 us a seed; the two tied at 28 to 29 seeds
_BATCH_SEEDS = 29


def trace_streamlines(
    fs: FieldSet,
    seeds,
    step: Optional[float] = None,
    max_len: Optional[float] = None,
) -> List[Union[Trajectory, VortigenError]]:
    """Trace the streamlines through many seeds by classical RK4.

    While at least ``_BATCH_SEEDS`` seeds are live they take one batched
    numpy step, sharing the arclength and hence the step; each seed still
    live then goes on alone in Python floats (``_float_rk4``) from the
    shared arclength.  Both paths evaluate the same expressions in the
    same order, so every point is the same whichever path computes it.
    A path ends before its first point whose arclength does not pass the
    one before, as where a step at a sink rounds to nothing; a seed stops
    stepping at the first step that leaves its point where it was.
    Returns one entry per seed: its Trajectory, or the error tracing it
    alone would raise (``SeedOutsideDomain``, ``StagnationAtSeed``,
    ``DegenerateTrajectory``, also for a path of its seed alone).  Raises
    ``ValueError`` unless ``step`` and ``max_len`` (given or default) are
    finite and positive and ``max_len / step`` is at most
    ``MAX_STEPS_PER_SEED``.
    """
    grid = fs.grid
    seeds = np.array(seeds, dtype=float).reshape(-1, 2)
    if step is None:
        step = 0.25 * min(grid.hx, grid.hy)
    if max_len is None:
        max_len = 4.0 * np.hypot(grid.xmax - grid.x0, grid.ymax - grid.y0)
    for name, value in (("step", step), ("max_len", max_len)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if max_len / step > MAX_STEPS_PER_SEED:
        raise ValueError(
            f"max_len / step must be at most {MAX_STEPS_PER_SEED:,} RK4 steps "
            f"per seed, got {max_len:g} / {step:g} = {max_len / step:.3g}")
    step, max_len = float(step), float(max_len)
    vtol = max(1e-10 * float(np.max(fs.speed)), np.finfo(float).tiny)
    unit_velocity, trace = _float_rk4(fs, vtol)

    def contains(p):
        return grid.contains(p[:, 0], p[:, 1])

    inside = contains(seeds)
    moving = np.array([unit_velocity(x, y) is not None
                       for x, y in seeds.tolist()], dtype=bool)
    live = np.flatnonzero(moving)
    p = seeds[live]
    # every accepted point with the seed it belongs to, in step order
    owners, points = [np.arange(len(seeds))], [seeds]
    n_steps = np.zeros(len(seeds), dtype=int)
    arc = 0.0
    if live.size >= _BATCH_SEEDS:
        uv = np.stack([fs.u, fs.v])

        def rhs(p):
            """Unit velocity at ``p`` and the mask of inside, moving points."""
            ok = contains(p)
            if not ok.all():
                p = np.where(ok[:, None], p, (grid.x0, grid.y0))
            vel = _lookup(uv, *_cells(grid, p[:, 0], p[:, 1]))
            speed = np.hypot(vel[0], vel[1])
            ok &= speed >= vtol
            return (vel / np.where(ok, speed, 1.0)).T, ok

        while arc < max_len and live.size >= _BATCH_SEEDS:
            h = min(step, max_len - arc)
            k1, ok = rhs(p)
            k2, ok2 = rhs(p + 0.5 * h * k1)
            k3, ok3 = rhs(p + 0.5 * h * k2)
            k4, ok4 = rhs(p + h * k3)
            new = p + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            # a step that leaves its point where it was ends that seed
            ok &= ok2 & ok3 & ok4 & contains(new) & (new != p).any(axis=1)
            live, p = live[ok], new[ok]
            n_steps[live] += 1
            arc += h
            owners.append(live)
            points.append(p)
    for s, (x, y) in zip(live.tolist(), p.tolist()):
        flat = trace(x, y, step, max_len, arc)
        n_steps[s] += len(flat) // 2
        owners.append(np.full(len(flat) // 2, s))
        points.append(np.array(flat).reshape(-1, 2))

    order = np.argsort(np.concatenate(owners), kind="stable")
    paths = np.split(np.concatenate(points)[order], np.cumsum(n_steps + 1)[:-1])
    results: List[Union[Trajectory, VortigenError]] = []
    for s, (x, y) in enumerate(seeds.tolist()):
        if not inside[s]:
            results.append(SeedOutsideDomain(f"seed ({x}, {y}) outside grid"))
        elif not moving[s]:
            results.append(StagnationAtSeed(
                f"speed below tolerance at seed ({x}, {y})"))
        else:
            stalled = np.append(np.diff(_arclength(paths[s])) <= 0.0, True)
            end = 1 + int(np.argmax(stalled))
            results.append(Trajectory(paths[s][:end]) if end > 1 else
                           DegenerateTrajectory(
                               "streamline terminated at its seed"))
    return results


def _float_rk4(fs: FieldSet, vtol: float):
    """The one-seed RK4 of ``trace_streamlines`` in Python floats, reading
    ``fs.u`` and ``fs.v`` through flat memoryviews: ``unit_velocity(x, y)``,
    the unit velocity or None where the batched ``rhs`` masks the point
    out, and ``trace(x, y, step, max_len, arc)``, the points the batched
    step gives one seed from the arclength ``arc`` on, flat as
    [x1, y1, x2, y2, ...].  Same expressions in the same order as the
    batched step, ``_cells`` and ``_lookup``, the flat node index
    k = j * nx + i included, so the same bits."""
    g = fs.grid
    x0, y0, hx, hy, xmax, ymax = map(float, (g.x0, g.y0, g.hx, g.hy,
                                            g.xmax, g.ymax))
    nx, im, jm = g.nx, g.nx - 2, g.ny - 2
    u, v = (memoryview(np.ascontiguousarray(f)).cast("B").cast("d")
            for f in (fs.u, fs.v))

    def unit_velocity(x, y):
        if not (x0 <= x <= xmax and y0 <= y <= ymax):
            return None
        fx = (x - x0) / hx
        fy = (y - y0) / hy
        i, j = int(fx), int(fy)
        if i > im:
            i = im
        if j > jm:
            j = jm
        tx, ty = fx - i, fy - j
        sx, sy = 1 - tx, 1 - ty
        a, b, c, d = sx * sy, tx * sy, sx * ty, tx * ty
        k = j * nx + i
        n = k + nx
        vx = a * u[k] + b * u[k + 1] + c * u[n] + d * u[n + 1]
        vy = a * v[k] + b * v[k + 1] + c * v[n] + d * v[n + 1]
        try:  # the C library's hypot, as np.hypot; math.hypot rounds apart
            speed = abs(complex(vx, vy))
        except OverflowError:  # np.hypot returns inf there
            speed = float("inf")
        return (vx / speed, vy / speed) if speed >= vtol else None

    def trace(x, y, step, max_len, arc):
        out = []
        while arc < max_len:
            h = min(step, max_len - arc)
            k1 = unit_velocity(x, y)
            k2 = k1 and unit_velocity(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
            k3 = k2 and unit_velocity(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
            k4 = k3 and unit_velocity(x + h * k3[0], y + h * k3[1])
            if k4 is None:
                break
            x1 = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            y1 = y + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            if not (x0 <= x1 <= xmax and y0 <= y1 <= ymax) or (
                    x1 == x and y1 == y):
                break
            x, y = x1, y1
            arc += h
            out += (x, y)
        return out

    return unit_velocity, trace


def trace_streamline(
    fs: FieldSet,
    seed,
    step: Optional[float] = None,
    max_len: Optional[float] = None,
) -> Trajectory:
    """Trace the streamline through ``seed`` by classical RK4 at unit speed.

    Integrates dx/dxi = U/|U| (xi is arclength) with bilinear velocity
    interpolation; stops at the domain boundary, at ``max_len``, or where
    the speed drops below the stagnation tolerance (1e-10 of the grid's
    peak speed).  The one-seed view of ``trace_streamlines``.
    """
    out = trace_streamlines(fs, [seed], step=step, max_len=max_len)[0]
    if isinstance(out, VortigenError):
        raise out
    return out


def frame_along(traj: Trajectory):
    """The accompanying frame of a trajectory: (tangent, normal), two (n, 2)
    arrays of unit vectors, the tangent by centered arclength differencing
    and the left normal by +90 deg."""
    n = len(traj)
    if n < 2:
        raise DegenerateTrajectory("need at least 2 trajectory points")
    xi = traj.arclength
    tx = np.gradient(traj.points[:, 0], xi, edge_order=1 if n < 3 else 2)
    ty = np.gradient(traj.points[:, 1], xi, edge_order=1 if n < 3 else 2)
    norm = np.hypot(tx, ty)
    if np.any(norm == 0.0):
        raise DegenerateTrajectory("zero tangent encountered")
    tx, ty = tx / norm, ty / norm
    return np.column_stack([tx, ty]), np.column_stack([-ty, tx])
