import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortigen import fields
from vortigen.errors import (
    DegenerateTrajectory,
    InsufficientSnapshots,
    PointOutsideDomain,
    SeedOutsideDomain,
    ShapeMismatch,
    StagnationAtSeed,
)
from vortigen.fields import (
    FieldSet,
    Snapshot,
    StructuredGrid2D,
    Trajectory,
    curl2d,
    frame_along,
    gradient,
    interp_bilinear,
    time_derivative,
    trace_streamline,
    trace_streamlines,
)


def mesh(grid):
    return np.meshgrid(grid.x, grid.y)


def uniform_fieldset(grid, rho=1.0, u=1.0, v=0.0, p=1.0, **kw):
    shape = grid.shape
    return FieldSet(
        grid,
        rho=np.full(shape, rho),
        u=np.full(shape, u),
        v=np.full(shape, v),
        p=np.full(shape, p),
        **kw,
    )


class TestGradient:
    def test_constant_field_zero(self):
        grid = StructuredGrid2D(9, 7, hx=0.1, hy=0.2)
        gx, gy = gradient(np.full(grid.shape, 3.7), grid)
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_affine_field_exact(self):
        grid = StructuredGrid2D(9, 7, x0=-1.0, y0=2.0, hx=0.1, hy=0.2)
        X, Y = mesh(grid)
        gx, gy = gradient(2.0 * X + 3.0 * Y, grid)
        np.testing.assert_allclose(gx, 2.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(gy, 3.0, rtol=0, atol=1e-13)

    def test_sine_accuracy(self):
        # Against the analytic derivative cos(x); O(h^2) truncation.
        grid = StructuredGrid2D(201, 3, hx=0.01, hy=0.01)
        X, _ = mesh(grid)
        gx, _ = gradient(np.sin(X), grid)
        assert np.max(np.abs(gx - np.cos(X))) <= 1e-4

    def test_second_order_convergence(self):
        errs = []
        for nx in (33, 65, 129):
            grid = StructuredGrid2D(nx, nx, hx=1.0 / (nx - 1), hy=1.0 / (nx - 1))
            X, Y = mesh(grid)
            f = np.sin(2 * X) * np.cos(3 * Y)
            gx, gy = gradient(f, grid)
            ex = 2 * np.cos(2 * X) * np.cos(3 * Y)
            ey = -3 * np.sin(2 * X) * np.sin(3 * Y)
            errs.append(max(np.max(np.abs(gx - ex)), np.max(np.abs(gy - ey))))
        orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) >= 1.9

    def test_shape_mismatch(self):
        grid = StructuredGrid2D(5, 5)
        with pytest.raises(ShapeMismatch):
            gradient(np.zeros((4, 5)), grid)


class TestCurl:
    def test_rigid_rotation_exact(self):
        grid = StructuredGrid2D(11, 11, x0=-1, y0=-1, hx=0.2, hy=0.2)
        X, Y = mesh(grid)
        c = curl2d(-Y, X, grid)
        np.testing.assert_allclose(c, 2.0, rtol=0, atol=1e-13)

    def test_potential_source_flow_curl_free(self):
        # u = x/r^2, v = y/r^2 has zero curl; on a window far from the
        # origin the stencil truncation keeps |curl| below 1e-8.
        grid = StructuredGrid2D(101, 101, x0=10.0, y0=10.0, hx=0.01, hy=0.01)
        X, Y = mesh(grid)
        r2 = X ** 2 + Y ** 2
        assert np.max(np.abs(curl2d(X / r2, Y / r2, grid))) <= 1e-8

    def test_zero_velocity(self):
        grid = StructuredGrid2D(5, 5)
        z = np.zeros(grid.shape)
        assert np.all(curl2d(z, z, grid) == 0.0)

    def test_second_order_convergence(self):
        errs = []
        for nx in (33, 65, 129):
            grid = StructuredGrid2D(nx, nx, hx=1.0 / (nx - 1), hy=1.0 / (nx - 1))
            X, Y = mesh(grid)
            u = np.sin(2 * X) * np.cos(Y)
            v = np.cos(3 * Y) * np.sin(X)
            exact = np.cos(3 * Y) * np.cos(X) + np.sin(2 * X) * np.sin(Y)
            errs.append(np.max(np.abs(curl2d(u, v, grid) - exact)))
        orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) >= 1.9


class TestTimeDerivative:
    def grid(self):
        return StructuredGrid2D(5, 4)

    def series(self, times, scale):
        grid = self.grid()
        base = np.arange(20.0).reshape(grid.shape) + 1.0
        snaps = [
            Snapshot(t=t, rho=base * s, u=base * s, v=base * s, p=base * s)
            for t, s in zip(times, scale)
        ]
        return FieldSet(grid, snaps[0].rho, snaps[0].u, snaps[0].v, snaps[0].p,
                        snapshots=snaps)

    def test_identical_snapshots_zero(self):
        fs = self.series([0.0, 0.1, 0.2], [1.0, 1.0, 1.0])
        assert np.all(time_derivative(fs, "rho", 1) == 0.0)

    def test_linear_in_time_exact(self):
        # f(t) = f0 (1 + t) has time derivative exactly f0 at interior times.
        fs = self.series([0.0, 0.5, 1.25], [1.0, 1.5, 2.25])
        base = fs.snapshots[0].rho
        np.testing.assert_allclose(time_derivative(fs, "rho", 1), base, rtol=1e-13)
        np.testing.assert_allclose(time_derivative(fs, "rho", 0), base, rtol=1e-13)
        np.testing.assert_allclose(time_derivative(fs, "rho", 2), base, rtol=1e-13)

    def test_exponential_accuracy(self):
        ts = [0.0, 0.01, 0.02]
        fs = self.series(ts, [np.exp(t) for t in ts])
        base = fs.snapshots[0].rho
        got = time_derivative(fs, "u", 1)
        expect = base * np.exp(0.01)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-4

    def test_requires_two_snapshots(self):
        grid = self.grid()
        ones = np.ones(grid.shape)
        fs = FieldSet(grid, ones, ones, ones, ones)
        with pytest.raises(InsufficientSnapshots):
            time_derivative(fs, "rho", 0)


class TestBilinearAndDirectional:
    def test_bilinear_reproduces_affine(self):
        grid = StructuredGrid2D(6, 6, hx=0.2, hy=0.2)
        X, Y = mesh(grid)
        f = 1.0 + 2.0 * X - 0.5 * Y
        for pt in [(0.13, 0.41), (0.0, 0.0), (1.0, 1.0), (0.99, 0.37)]:
            assert interp_bilinear(f, grid, pt) == pytest.approx(
                1.0 + 2.0 * pt[0] - 0.5 * pt[1], abs=1e-13
            )

    def test_outside_domain(self):
        grid = StructuredGrid2D(6, 6)
        with pytest.raises(PointOutsideDomain):
            interp_bilinear(np.zeros(grid.shape), grid, (-0.1, 0.0))

    def test_array_matches_scalar_bitwise(self):
        grid = StructuredGrid2D(9, 7, x0=-0.3, y0=0.2, hx=0.13, hy=0.21)
        rng = np.random.default_rng(7)
        f, g = rng.normal(size=(2, *grid.shape))
        pts = np.column_stack([rng.uniform(grid.x0, grid.xmax, 200),
                               rng.uniform(grid.y0, grid.ymax, 200)])
        edges = [(grid.xmax, grid.ymax), (grid.xmax, 0.5), (0.1, grid.ymax),
                 (grid.x0, grid.y0), (grid.x[3], grid.y[4])]
        pts = np.vstack([pts, edges])
        got = interp_bilinear(f, grid, pts)
        # the scalar formula as written before arrays were accepted
        ref = []
        for x, y in pts.tolist():
            fx, fy = (x - grid.x0) / grid.hx, (y - grid.y0) / grid.hy
            i, j = min(int(fx), grid.nx - 2), min(int(fy), grid.ny - 2)
            tx, ty = fx - i, fy - j
            ref.append((1 - tx) * (1 - ty) * f[j, i] + tx * (1 - ty) * f[j, i + 1]
                       + (1 - tx) * ty * f[j + 1, i] + tx * ty * f[j + 1, i + 1])
        assert got.tolist() == ref
        assert [interp_bilinear(f, grid, pt) for pt in pts] == ref
        both = interp_bilinear(np.stack([f, g]), grid, pts)
        assert both.shape == (2, len(pts))
        assert both[0].tolist() == ref
        assert both[1].tolist() == interp_bilinear(g, grid, pts).tolist()

    def test_one_outside_point_in_batch_raises(self):
        grid = StructuredGrid2D(6, 6)
        pts = [(1.0, 1.0), (2.5, 4.0), (5.0, 5.0 + 1e-12), (3.0, 3.0)]
        with pytest.raises(PointOutsideDomain, match="5.000000000001"):
            interp_bilinear(np.zeros(grid.shape), grid, pts)


def fancy_lookup(f, i, j, tx, ty):
    """``fields._lookup`` as it was, gathering the corners by indexing
    ``f[..., j, i]``: the reference of the flat-index gather."""
    return ((1 - tx) * (1 - ty) * f[..., j, i]
            + tx * (1 - ty) * f[..., j, i + 1]
            + (1 - tx) * ty * f[..., j + 1, i]
            + tx * ty * f[..., j + 1, i + 1])


def same_bits(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestLookupKernel:
    # every bilinear sample (the batched RK4, the A_nu tiles, the A1
    # gradient stacks) keeps the bits of the corner indexing it replaced

    @staticmethod
    def node_stack(rng, lead, shape, layout):
        ny, nx = shape
        if layout == "transposed":
            return rng.standard_normal(lead + (nx, ny)).swapaxes(-1, -2)
        if layout == "strided":
            return rng.standard_normal(lead + (2 * ny, 3 * nx))[..., ::2, ::3]
        return rng.standard_normal(lead + shape)

    @staticmethod
    def points(rng, grid, n):
        """``n`` points (one (x, y) pair for None), about half of the x on
        x0, xmax or a node and half of the y alike: the far edges and the
        corners fall in the clamped last cell."""
        m = 1 if n is None else n
        x = rng.uniform(grid.x0, grid.xmax, m)
        y = rng.uniform(grid.y0, grid.ymax, m)
        at = rng.random((2, m)) < 0.5
        x[at[0]] = rng.choice([grid.x0, grid.xmax, *grid.x], at[0].sum())
        y[at[1]] = rng.choice([grid.y0, grid.ymax, *grid.y], at[1].sum())
        pts = np.column_stack([x, y])
        return pts[0] if n is None else pts

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lead=st.sampled_from([(), (2,), (6,), (2, 3)]),
           ny=st.integers(3, 12), nx=st.integers(3, 12),
           n=st.one_of(st.none(), st.integers(1, 24)),
           layout=st.sampled_from(["contiguous", "transposed", "strided"]),
           tile=st.integers(1, 5), halo=st.integers(0, 2))
    def test_matches_the_corner_indexing_bitwise(self, seed, lead, ny, nx, n,
                                                 layout, tile, halo):
        rng = np.random.default_rng(seed)
        grid = StructuredGrid2D(nx, ny, *rng.uniform(-2.0, 2.0, 2),
                                *rng.uniform(0.05, 3.0, 2))
        f = self.node_stack(rng, lead, grid.shape, layout)
        pts = self.points(rng, grid, n)
        x, y = pts[..., 0], pts[..., 1]
        cells = fields._cells(grid, x, y)
        ref = fancy_lookup(f, *cells)
        assert same_bits(fields._lookup(f, *cells), ref)
        assert same_bits(interp_bilinear(f, grid, pts),
                         float(ref) if np.ndim(ref) == 0 else ref)
        # sample_tiles passes each tile's stack with tile-local cell indices
        with pytest.MonkeyPatch.context() as m:
            m.setattr(fields, "TILE_CELLS", tile)
            got = fields.sample_tiles(
                lambda rows, cols: {"f": f[..., rows, cols]}, grid, pts, halo)
        assert same_bits(got["f"], np.reshape(ref, lead + (-1,)))


class TestStreamline:
    def test_uniform_flow_endpoint(self):
        grid = StructuredGrid2D(21, 5, x0=-0.5, y0=-1.0, hx=0.1, hy=0.5)
        fs = uniform_fieldset(grid, u=1.0, v=0.0)
        traj = trace_streamline(fs, (0.0, 0.0), max_len=1.0)
        assert np.allclose(traj.points[-1], (1.0, 0.0), atol=1e-10)
        assert traj.arclength[-1] == pytest.approx(1.0, abs=1e-10)

    def test_rigid_rotation_radius_drift(self):
        grid = StructuredGrid2D(61, 61, x0=-1.5, y0=-1.5, hx=0.05, hy=0.05)
        X, Y = mesh(grid)
        fs = FieldSet(grid, np.ones(grid.shape), -Y, X, np.ones(grid.shape))
        traj = trace_streamline(fs, (1.0, 0.0), step=1e-3, max_len=2 * np.pi)
        radii = np.linalg.norm(traj.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-8

    def test_stagnation_at_seed(self):
        grid = StructuredGrid2D(11, 11, x0=-1, y0=-1, hx=0.2, hy=0.2)
        X, Y = mesh(grid)
        fs = FieldSet(grid, np.ones(grid.shape), X, -Y, np.ones(grid.shape))
        with pytest.raises(StagnationAtSeed):
            trace_streamline(fs, (0.0, 0.0))

    def test_seed_outside(self):
        grid = StructuredGrid2D(5, 5)
        fs = uniform_fieldset(grid)
        with pytest.raises(SeedOutsideDomain):
            trace_streamline(fs, (-1.0, 0.0))

    def test_terminates_at_boundary(self):
        grid = StructuredGrid2D(11, 5, hx=0.1, hy=0.25)
        fs = uniform_fieldset(grid, u=1.0)
        traj = trace_streamline(fs, (0.5, 0.5), max_len=100.0)
        assert traj.points[-1, 0] <= grid.xmax + 1e-12


def scalar_rk4_reference(fs, seed, step, max_len):
    """The per-seed scalar RK4 the batched tracer replaced, kept as the
    bit-for-bit reference; returns the points, up to the first whose
    arclength does not pass the one before, or the error class."""
    grid = fs.grid
    x, y = float(seed[0]), float(seed[1])
    if not grid.contains(x, y):
        return SeedOutsideDomain
    vtol = max(1e-10 * float(np.max(fs.speed)), np.finfo(float).tiny)

    def rhs(px, py):
        if not grid.contains(px, py):
            return None
        ux = interp_bilinear(fs.u, grid, (px, py))
        vy = interp_bilinear(fs.v, grid, (px, py))
        speed = np.hypot(ux, vy)
        return None if speed < vtol else (ux / speed, vy / speed)

    if rhs(x, y) is None:
        return StagnationAtSeed
    pts, arc = [(x, y)], 0.0
    while arc < max_len:
        h = min(step, max_len - arc)
        k1 = rhs(x, y)
        k2 = k1 and rhs(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
        k3 = k2 and rhs(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
        k4 = k3 and rhs(x + h * k3[0], y + h * k3[1])
        if k4 is None:
            break
        nx = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        ny = y + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if not grid.contains(nx, ny):
            break
        x, y = nx, ny
        arc += h
        pts.append((x, y))
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    grows = np.diff(np.concatenate(([0.0], np.cumsum(seg)))) > 0.0
    end = len(pts) if grows.all() else 1 + int(np.argmin(grows))
    return np.array(pts[:end]) if end >= 2 else DegenerateTrajectory


class TestBatchedStreamlines:
    # rotation about (0.5, 0.5): circles, some leaving the unit square
    SEEDS = [(0.7, 0.5), (1.5, 0.5), (0.5, 0.5), (1.0, 0.2), (0.05, 0.05),
             (0.3, 0.6), (0.95, 0.5)]
    EXPECTED = [None, SeedOutsideDomain, StagnationAtSeed,
                DegenerateTrajectory, None, None, None]

    def rotation(self):
        grid = StructuredGrid2D(21, 21, hx=0.05, hy=0.05)
        X, Y = mesh(grid)
        one = np.ones(grid.shape)
        return FieldSet(grid, one, -(Y - 0.5), X - 0.5, one)

    def test_matches_single_seed_and_scalar_reference(self):
        fs = self.rotation()
        step, max_len = 0.01, 2.5
        batch = trace_streamlines(fs, self.SEEDS, step=step, max_len=max_len)
        lengths = set()
        for seed, got, kind in zip(self.SEEDS, batch, self.EXPECTED):
            ref = scalar_rk4_reference(fs, seed, step, max_len)
            if kind is not None:
                assert type(got) is kind and ref is kind
                with pytest.raises(kind):
                    trace_streamline(fs, seed, step=step, max_len=max_len)
                continue
            single = trace_streamline(fs, seed, step=step, max_len=max_len)
            assert got.points.tolist() == ref.tolist()
            assert single.points.tolist() == ref.tolist()
            assert got.arclength.tolist() == single.arclength.tolist()
            lengths.add(len(got))
        assert len(lengths) >= 2  # seeds stopped at different steps

    def test_default_step_matches_single_seed(self):
        fs = self.rotation()
        batch = trace_streamlines(fs, self.SEEDS)
        for seed, got in zip(self.SEEDS, batch):
            if isinstance(got, Trajectory):
                assert got.points.tolist() == \
                    trace_streamline(fs, seed).points.tolist()


def noisy_field(seed, noise, n=129):
    """A smooth non-polynomial flow on the unit square plus node noise,
    with u = v = 0 at four nodes; returns it and those nodes' points."""
    rng = np.random.default_rng(seed)
    grid = StructuredGrid2D(n, n, hx=1.0 / (n - 1), hy=1.0 / (n - 1))
    X, Y = mesh(grid)
    a, b = rng.uniform(1.0, 8.0, 2)
    u = np.cos(a * Y) + 0.5 * np.exp(-X) + noise * rng.standard_normal(X.shape)
    v = np.sin(b * X) * np.tanh(Y - 0.5) + noise * rng.standard_normal(X.shape)
    j, i = rng.integers(0, n, (2, 4))
    u[j, i] = v[j, i] = 0.0
    one = np.ones(grid.shape)
    return FieldSet(grid, one, u, v, one), np.column_stack([grid.x[i], grid.y[j]])


def sink_field(n=129):
    """A noisy rotation on the unit square whose unit velocity has a sink
    that the streamline through ``SINK_SEED`` reaches: there the RK4 step
    rounds to nothing and the point repeats."""
    rng = np.random.default_rng(0)
    grid = StructuredGrid2D(n, n, hx=1.0 / (n - 1), hy=1.0 / (n - 1))
    X, Y = mesh(grid)
    u = -(Y - 0.5) + 0.3 * np.sin(7 * X) + 0.2 * rng.standard_normal(X.shape)
    v = X - 0.5 + 0.3 * np.cos(5 * Y) + 0.2 * rng.standard_normal(X.shape)
    one = np.ones(grid.shape)
    return FieldSet(grid, one, u, v, one)


SINK_SEED = (0.014690302980082004, 0.29387683877600423)


def traced(fs, seeds, batch_seeds, **kw):
    """Per seed the points' bytes or the error class, tracing with the
    batched step while at least ``batch_seeds`` seeds are live."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fields, "_BATCH_SEEDS", batch_seeds)
        out = trace_streamlines(fs, seeds, **kw)
    return [r.points.tobytes() if isinstance(r, Trajectory) else type(r)
            for r in out]


class TestTracerPaths:
    # the batched step runs while at least fields._BATCH_SEEDS seeds are
    # live, the float path after; forced to one path or the other, and
    # left to choose, every seed gets the same bits
    EDGES = [(0.0, 0.5), (1.0, 0.25), (0.5, 0.0), (0.75, 1.0), (0.0, 0.0),
             (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1e-9, 0.5), (0.5, 1.0 + 1e-9)]

    @settings(max_examples=50, deadline=None, database=None)
    @given(field=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 0.05, 0.3]),
           n=st.integers(1, 2 * fields._BATCH_SEEDS),
           picks=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
           step=st.sampled_from([None, 3e-3, 1.0 / 700]),
           max_len=st.floats(0.01, 0.4))
    def test_both_paths_bitwise(self, field, noise, n, picks, step, max_len):
        fs, stagnant = noisy_field(field, noise)
        rng = np.random.default_rng(picks)
        seeds = rng.uniform(0.0, 1.0, (n, 2))
        special = np.concatenate([self.EDGES, stagnant])
        at = rng.integers(0, n, len(picks))
        seeds[at] = special[rng.integers(0, len(special), len(picks))]
        kw = dict(step=step, max_len=max_len)
        batched = traced(fs, seeds, 1, **kw)
        assert traced(fs, seeds, 10**9, **kw) == batched
        assert traced(fs, seeds, fields._BATCH_SEEDS, **kw) == batched
        h = 0.25 / 128 if step is None else step
        for s in np.unique(np.append(at, 0)):
            ref = scalar_rk4_reference(fs, seeds[s], h, max_len)
            assert (ref.tobytes() if isinstance(ref, np.ndarray) else ref) \
                == batched[s]

    @pytest.mark.parametrize("batch_seeds", [1, 10**9])
    def test_path_ends_at_a_sink(self, batch_seeds):
        # the point repeats from step 339 on: that seed's path ends before
        # it, and the other seeds keep the bits they get alone
        fs = sink_field()
        seeds = [SINK_SEED, (0.3, 0.3), (0.7, 0.6)]
        got = traced(fs, seeds, batch_seeds, max_len=3.0)
        assert len(got[0]) == 339 * 16
        for s, seed in enumerate(seeds):
            ref = scalar_rk4_reference(fs, seed, 0.25 / 128, 3.0)
            assert ref.tobytes() == got[s]
            assert traced(fs, [seed], batch_seeds, max_len=3.0) == [got[s]]
        arc = trace_streamline(fs, SINK_SEED, max_len=3.0).arclength
        assert np.all(np.diff(arc) > 0.0)

    @pytest.mark.parametrize("batch_seeds", [1, 10**9])
    def test_seed_stops_at_its_first_repeat(self, batch_seeds, monkeypatch):
        # the point through SINK_SEED first repeats at step 341 of the 1,536
        # that max_len allows: neither path steps that seed any further
        fs = sink_field()
        lookups, flat = [], []
        lookup, float_rk4 = fields._lookup, fields._float_rk4

        def float_tracer(fs, vtol):
            unit_velocity, trace = float_rk4(fs, vtol)
            return unit_velocity, lambda *a: flat.append(trace(*a)) or flat[-1]
        monkeypatch.setattr(fields, "_lookup",
                            lambda *a: lookups.append(1) or lookup(*a))
        monkeypatch.setattr(fields, "_float_rk4", float_tracer)
        monkeypatch.setattr(fields, "_BATCH_SEEDS", batch_seeds)
        assert len(trace_streamline(fs, SINK_SEED, max_len=3.0)) == 339
        # a batched step looks the velocity up once per RK4 stage; the float
        # trace returns the points of the steps before the one that repeats.
        # Either path takes that step and no further one
        steps = (len(lookups) / 4 if batch_seeds == 1
                 else len(flat[0]) // 2 + 1)
        assert steps == 341

    @pytest.mark.parametrize("batch_seeds", [1, 10**9])
    def test_step_lost_to_rounding_leaves_the_seed(self, batch_seeds):
        # a max_len below every point's spacing: the first step repeats the
        # seed, so only the seed is left
        fs, _ = noisy_field(0, 0.05)
        seeds = [(0.3, 0.3), (0.6, 0.2)]
        assert traced(fs, seeds, batch_seeds, max_len=1e-300) == \
            [DegenerateTrajectory] * 2

    @pytest.mark.parametrize("batch_seeds", [1, 10**9])
    def test_overflowing_speed_leaves_the_seed(self, batch_seeds):
        # |U| overflows to inf: the unit velocity is 0, so the first step
        # repeats the seed on both paths instead of raising
        grid = StructuredGrid2D(9, 9, hx=0.125, hy=0.125)
        one = np.ones(grid.shape)
        fast = np.full(grid.shape, 1.5e308)
        fs = FieldSet(grid, one, fast, fast, one)
        with np.errstate(over="ignore"):
            got = traced(fs, [(0.3, 0.3), (0.5, 0.6)], batch_seeds)
        assert got == [DegenerateTrajectory] * 2


class TestFrame:
    def test_straight_trajectory(self):
        pts = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        tangent, normal = frame_along(Trajectory(pts))
        np.testing.assert_allclose(tangent, [[1.0, 0.0]] * 9, atol=1e-12)
        np.testing.assert_allclose(normal, [[0.0, 1.0]] * 9, atol=1e-12)

    def test_circle_normal_points_inward(self):
        th = np.linspace(0.0, np.pi, 4001)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        _, normal = frame_along(Trajectory(pts))
        # normal of the counterclockwise circle is -r_hat up to O(h^2)
        inward = -pts[1:-1]
        np.testing.assert_allclose(normal[1:-1], inward, atol=1e-6)

    def test_two_point_trajectory(self):
        tangent, _ = frame_along(Trajectory([[0.0, 0.0], [1.0, 1.0]]))
        e = np.sqrt(0.5)
        np.testing.assert_allclose(tangent, [[e, e], [e, e]], atol=1e-12)

    def test_orthonormality_over_traced_corpus(self):
        grid = StructuredGrid2D(41, 41, x0=0.5, y0=0.5, hx=0.05, hy=0.05)
        X, Y = mesh(grid)
        r2 = X ** 2 + Y ** 2
        fs = FieldSet(grid, np.ones(grid.shape), X / r2, Y / r2, np.ones(grid.shape))
        for seed in [(0.7, 0.7), (0.6, 1.4), (1.1, 0.9)]:
            tangent, normal = frame_along(trace_streamline(fs, seed))
            assert tangent.shape == normal.shape and tangent.shape[1] == 2
            for vec in (tangent, normal):
                np.testing.assert_allclose(np.hypot(*vec.T), 1.0, rtol=0,
                                           atol=1e-12)
            np.testing.assert_allclose(np.einsum("ij,ij->i", tangent, normal),
                                       0.0, rtol=0, atol=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateTrajectory):
            frame_along(Trajectory(np.zeros((1, 2))))


class TestContainers:
    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_fieldset_positivity(self):
        # NaN fails every comparison, so it must be refused as well
        grid = StructuredGrid2D(3, 3)
        z = np.zeros(grid.shape)
        for name, value in [("rho", -1.0), ("rho", np.nan), ("p", np.nan)]:
            state = {"rho": np.ones(grid.shape), "p": np.ones(grid.shape)}
            state[name][1, 1] = value
            with pytest.raises(ValueError, match="must be positive"):
                FieldSet(grid, state["rho"], z, z, state["p"])

    def test_fieldset_snapshot_times(self):
        grid = StructuredGrid2D(3, 3)
        ones = np.ones(grid.shape)
        snaps = [Snapshot(0.0, ones, ones, ones, ones),
                 Snapshot(0.0, ones, ones, ones, ones)]
        with pytest.raises(ValueError):
            FieldSet(grid, ones, ones, ones, ones, snapshots=snaps)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            StructuredGrid2D(2, 5)
        with pytest.raises(ValueError):
            StructuredGrid2D(5, 5, hx=0.0)
