import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relkin import (
    DegenerateGeometryError,
    InputError,
    RangeMatrices,
    TrajectorySet,
    builtin_trajectory,
    canonical_pairs,
    centering_matrix,
    grams_from_ranges,
    load_trajectory,
    range_derivatives,
    range_matrices,
)
from relkin.kinematics import pair_count, pair_index, pair_position, taylor_range


def pair_distance(traj, i, j, t):
    """Independent oracle: distance of one pair at time t by direct norm."""
    pos = traj.X + t * traj.Y
    return np.linalg.norm(pos[:, i] - pos[:, j])


def fd_derivatives(traj, i, j):
    """Central finite differences of the exact distance, step sizes chosen
    per order so roundoff stays a few orders below the target accuracy.
    The third derivative uses one Richardson extrapolation step to cancel
    the leading h^2 truncation term."""
    f = lambda t: pair_distance(traj, i, j, t)
    h1, h2, h3 = 1e-4, 1e-3, 5e-2
    d1 = (f(h1) - f(-h1)) / (2 * h1)
    d2 = (f(h2) - 2 * f(0.0) + f(-h2)) / h2**2
    stencil = lambda h: (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
    d3 = (4.0 * stencil(h3 / 2) - stencil(h3)) / 3.0
    return f(0.0), d1, d2, d3


def dense_range_matrices(traj):
    """R, Rdot, Rddot from the N x N differences of every ordered node pair,
    scaled by 1/r taken off the diagonal: the bit-level oracle of
    range_matrices."""
    dx = traj.X[:, :, None] - traj.X[:, None, :]
    dv = traj.Y[:, :, None] - traj.Y[:, None, :]
    r = np.sqrt((dx**2).sum(axis=0))
    off = ~np.eye(traj.N, dtype=bool)
    inv = np.zeros_like(r)
    inv[off] = 1.0 / r[off]
    rdot = inv * (dx * dv).sum(axis=0)
    rddot = inv * ((dv**2).sum(axis=0) - rdot**2)
    return r, rdot, rddot


def random_trajectory(rng, n, p=2, pos_scale=500.0, vel_scale=10.0):
    return TrajectorySet(
        X=rng.uniform(-pos_scale, pos_scale, size=(p, n)),
        Y=rng.uniform(-vel_scale, vel_scale, size=(p, n)),
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_index_is_the_canonical_order(n):
    i, j = pair_index(n)
    want_i, want_j = np.triu_indices(n, k=1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert list(zip(i.tolist(), j.tolist())) == canonical_pairs(n)
    assert pair_count(n) == len(i) == len(canonical_pairs(n))
    assert not i.flags.writeable and not j.flags.writeable
    with pytest.raises(ValueError):
        i[0] = 1


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_position_inverts_pair_index(n):
    i, j = pair_index(n)
    assert np.array_equal(pair_position(n, i, j), np.arange(pair_count(n)))
    # the reader passes the CSV's float columns
    assert np.array_equal(pair_position(n, i.astype(float), j.astype(float)),
                          np.arange(pair_count(n)))


class TestRangeDerivatives:
    def test_equal_velocities_zero_derivatives(self):
        rd = range_derivatives((0, 0), (3, 4), (1, 1), (1, 1))
        assert rd == pytest.approx((5.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_purely_radial_motion(self):
        # d(t) = 1 + t exactly
        rd = range_derivatives((0, 0), (1, 0), (0, 0), (1, 0))
        assert rd == pytest.approx((1.0, 1.0, 0.0, 0.0), abs=1e-15)

    def test_transverse_motion_matches_finite_differences(self):
        # d(t) = sqrt(1 + t^2)
        traj = TrajectorySet(X=[[0.0, 1.0], [0.0, 0.0]], Y=[[0.0, 0.0], [1.0, 0.0]])
        rd = range_derivatives(traj.X[:, 0], traj.X[:, 1], traj.Y[:, 0], traj.Y[:, 1])
        oracle = fd_derivatives(traj, 0, 1)
        assert rd == pytest.approx((1.0, 0.0, 1.0, 0.0), abs=1e-6)
        assert rd == pytest.approx(oracle, abs=1e-6)

    def test_coincident_positions_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            range_derivatives((1, 2), (1, 2), (0, 0), (1, 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences_random(self, seed):
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng, n=4)
        for i, j in canonical_pairs(4):
            rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
            r0, d1, d2, d3 = fd_derivatives(traj, i, j)
            # absolute floors are the stencils' own roundoff, which scales
            # with the distance magnitude feeding the differences
            assert rd.r == pytest.approx(r0, rel=1e-12)
            assert rd.rdot == pytest.approx(d1, rel=1e-5, abs=1e-8 * (1 + rd.r))
            assert rd.rddot == pytest.approx(d2, rel=1e-5, abs=3e-9 * (1 + rd.r))
            assert rd.rdddot == pytest.approx(d3, rel=1e-4, abs=2e-8 * (1 + rd.r))

    @pytest.mark.parametrize("seed", range(50))
    def test_velocity_identity(self, seed):
        # r rddot + rdot^2 equals the squared velocity difference exactly
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=(2, 2, 2))
        v = rng.normal(size=(2, 2, 2))
        rd = range_derivatives(x[0, 0], x[0, 1], v[0, 0], v[0, 1])
        dv2 = np.sum((v[0, 0] - v[0, 1]) ** 2)
        assert rd.r * rd.rddot + rd.rdot**2 == pytest.approx(dv2, rel=1e-12)
        assert rd.rddot >= 0.0


class TestTaylorRemainder:
    def test_fourth_order_convergence(self):
        # |d(t) - taylor3(t)| must shrink like t^4 toward t0 for every pair
        traj = builtin_trajectory("cluster5")
        for i, j in canonical_pairs(traj.N):
            rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
            ts = np.array([1.0, 0.5, 0.25, 0.125])
            rem = np.array([abs(pair_distance(traj, i, j, t) - taylor_range(rd, t))
                            for t in ts])
            if np.any(rem < 1e-13):  # remainder already at roundoff
                continue
            slopes = np.diff(np.log(rem)) / np.diff(np.log(ts))
            assert np.all(slopes > 3.7), (i, j, slopes)
            # the empirical constant bounds the remainder across a finer grid
            c_emp = float(np.max(rem / ts**4))
            grid = np.linspace(-1, 1, 41)
            grid = grid[np.abs(grid) > 1e-3]
            for t in grid:
                err = abs(pair_distance(traj, i, j, t) - taylor_range(rd, t))
                assert err <= 1.1 * c_emp * t**4 + 1e-12


class TestRangeMatrices:
    def test_static_network_has_zero_derivative_matrices(self):
        traj = TrajectorySet(X=[[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], Y=np.zeros((2, 3)))
        rm = range_matrices(traj)
        assert np.allclose(rm.Rdot, 0.0)
        assert np.allclose(rm.Rddot, 0.0)
        assert rm.R[0, 1] == pytest.approx(1.0)

    def test_two_node_radial(self):
        traj = TrajectorySet(X=[[0.0, 1.0]], Y=[[0.0, 1.0]])
        rm = range_matrices(traj)
        assert np.allclose(rm.R, [[0, 1], [1, 0]])
        assert np.allclose(rm.Rdot, [[0, 1], [1, 0]])
        assert np.allclose(rm.Rddot, 0.0)

    def test_fixture_matches_per_pair_derivatives(self):
        traj = builtin_trajectory("cluster5")
        rm = range_matrices(traj)
        for i, j in canonical_pairs(traj.N):
            rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
            assert rm.R[i, j] == pytest.approx(rd.r, rel=1e-14)
            assert rm.Rdot[i, j] == pytest.approx(rd.rdot, rel=1e-14)
            assert rm.Rddot[i, j] == pytest.approx(rd.rddot, rel=1e-14)
            assert rm.R[j, i] == rm.R[i, j]
        assert np.allclose(np.diag(rm.R), 0.0)

    def test_fixture_matches_finite_difference_oracle(self):
        traj = builtin_trajectory("cluster5")
        rm = range_matrices(traj)
        for i, j in canonical_pairs(traj.N):
            r0, d1, d2, _ = fd_derivatives(traj, i, j)
            assert rm.R[i, j] == pytest.approx(r0, rel=1e-12)
            assert rm.Rdot[i, j] == pytest.approx(d1, rel=1e-5)
            assert rm.Rddot[i, j] == pytest.approx(d2, rel=1e-4, abs=1e-7)

    def test_edm_is_psd_after_centering(self):
        traj = builtin_trajectory("cluster5")
        rm = range_matrices(traj)
        pc = centering_matrix(traj.N)
        gram = -0.5 * pc @ rm.R**2 @ pc
        lam = np.linalg.eigvalsh(gram)
        assert lam[0] > -1e-6 * lam[-1]
        assert np.sum(lam > 1e-8 * lam[-1]) == traj.P

    def test_bits_match_dense_formula(self):
        traj = builtin_trajectory("cluster5")
        rm = range_matrices(traj)
        for got, want in zip((rm.R, rm.Rdot, rm.Rddot), dense_range_matrices(traj)):
            assert np.array_equal(got, want)

    def test_pair_vector_round_trip(self):
        traj = builtin_trajectory("cluster5")
        rm = range_matrices(traj)
        rebuilt = RangeMatrices.from_pair_vectors(traj.N, *rm.pair_vectors())
        assert np.array_equal(rebuilt.R, rm.R)
        assert np.array_equal(rebuilt.Rdot, rm.Rdot)

    def test_coincident_nodes_rejected_at_construction(self):
        with pytest.raises(DegenerateGeometryError, match="0 and 2"):
            TrajectorySet(X=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], Y=np.zeros((2, 3)))


class TestBatchedRangeMatrices:
    def test_stack_equals_per_item_assembly(self):
        vecs = np.random.default_rng(0).normal(size=(3, 4, 10))  # (quantity, item, pair)
        rm = RangeMatrices.from_pair_vectors(5, *vecs)
        assert rm.R.shape == (4, 5, 5) and rm.n == 5
        for b in range(4):
            one = RangeMatrices.from_pair_vectors(5, *vecs[:, b])
            for name in ("R", "Rdot", "Rddot"):
                assert np.array_equal(getattr(rm, name)[b], getattr(one, name))
        assert np.array_equal(np.stack(rm.pair_vectors()), vecs)

    def test_mismatched_batch_shapes_rejected(self):
        with pytest.raises(ValueError):
            RangeMatrices(R=np.zeros((2, 3, 3)), Rdot=np.zeros((3, 3)), Rddot=np.zeros((2, 3, 3)))


class TestThirdDerivativeCheck:
    """Under linear motion the centered squared-distance Gram is quadratic in
    time, so its third derivative vanishes: the Gram of the ranges at time t
    equals Bxx + t Bxy + t^2 Byy built from the ranges and their derivatives
    at t0.  The left side is computed from the moved positions alone."""

    TIMES = (-30.0, -1.0, 0.5, 7.0, 45.0)

    @classmethod
    def residuals(cls, traj):
        g = grams_from_ranges(range_matrices(traj))
        for t in cls.TIMES:
            moved = TrajectorySet(X=traj.position_at(t), Y=traj.Y)
            at_t = grams_from_ranges(range_matrices(moved)).Bxx
            yield at_t, at_t - (g.Bxx + t * g.Bxy + t**2 * g.Byy)

    def test_fixture_residual_vanishes(self):
        for at_t, resid in self.residuals(builtin_trajectory("cluster5")):
            assert np.linalg.norm(resid) / np.linalg.norm(at_t) < 1e-9

    def test_static_exactly_zero(self):
        traj = TrajectorySet(X=[[0.0, 1.0, 0.5], [0.0, 0.0, 2.0]], Y=np.zeros((2, 3)))
        for _, resid in self.residuals(traj):
            assert np.all(resid == 0.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_linear_motion_residual(self, seed):
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng, n=6)
        for at_t, resid in self.residuals(traj):
            assert np.linalg.norm(resid) / np.linalg.norm(at_t) < 1e-9


class TestTrajectoryIO:
    def test_json_round_trip(self, tmp_path):
        traj = builtin_trajectory("cluster5")
        path = tmp_path / "fixture.json"
        traj.save(path)
        back = load_trajectory(path)
        assert np.array_equal(back.X, traj.X)
        assert np.array_equal(back.Y, traj.Y)
        data = json.loads(path.read_text())
        assert data["P"] == 2 and data["N"] == 5

    def test_declared_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"P": 3, "N": 2, "X": [[0, 1]], "Y": [[0, 0]]}))
        with pytest.raises(ValueError):
            load_trajectory(path)

    @pytest.mark.parametrize("X, Y, where", [
        ([[0.0, 10.0, float("nan")], [0.0, 0.0, 5.0]], [[1, 0, 0], [0, 1, 0]], "X of node 2"),
        ([[0.0, 10.0, 3.0], [0.0, 0.0, 5.0]], [[1, 0, 0], [0, float("inf"), 0]], "Y of node 1"),
        ([[0.0, 10.0, None], [0.0, 0.0, 5.0]], [[1, 0, 0], [0, 1, 0]], "X of node 2"),
    ], ids=["nan", "inf", "null"])
    def test_non_finite_entry_rejected_naming_the_node(self, tmp_path, X, Y, where):
        with pytest.raises(ValueError, match=f"{where} is .*must be finite"):
            TrajectorySet.from_dict({"X": X, "Y": Y})
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"X": X, "Y": Y}))  # NaN, Infinity and null
        with pytest.raises(InputError, match=where):
            load_trajectory(path)

    @pytest.mark.parametrize("declared", [{"P": 2.7}, {"P": 2.0}, {"N": "3"}, {"N": True}],
                             ids=["P=2.7", "P=2.0", "N-string", "N-bool"])
    def test_non_integer_declared_size_rejected(self, tmp_path, declared):
        data = dict(declared, X=[[0.0, 10.0, 3.0], [0.0, 0.0, 5.0]], Y=[[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match=r"declared [PN]=.* is not the integer [23] X gives"):
            TrajectorySet.from_dict(data)
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match="is not the integer"):
            load_trajectory(path)

    def test_builtin_fixture_shape(self):
        traj = builtin_trajectory("cluster5")
        assert (traj.P, traj.N) == (2, 5)
        with pytest.raises(KeyError):
            builtin_trajectory("nope")

    def test_fewer_nodes_than_dimensions_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySet(X=np.zeros((3, 2)), Y=np.zeros((3, 2)))

    def test_mismatched_velocity_shape_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySet(X=np.zeros((2, 3)), Y=np.zeros((2, 4)))


def test_centering_matrix_annihilates_ones():
    pc = centering_matrix(7)
    assert np.allclose(pc @ np.ones(7), 0.0)
    assert np.allclose(pc, pc.T)


def test_translation_invariance_of_range_matrices():
    traj = builtin_trajectory("cluster5")
    shifted = TrajectorySet(X=traj.X + np.array([[123.0], [-45.0]]), Y=traj.Y)
    rm0, rm1 = range_matrices(traj), range_matrices(shifted)
    assert np.allclose(rm0.R, rm1.R)
    assert np.allclose(rm0.Rdot, rm1.Rdot)


@st.composite
def geometries(draw, dims=(1, 3)):
    """A trajectory set of 2..7 nodes in dims[0]..dims[1] dimensions on a
    1 mm position grid within 1 km and a 1 mm/s velocity grid within 20 m/s,
    with no two nodes coinciding."""
    p = draw(st.integers(*dims))
    n = draw(st.integers(max(p, 2), 7))
    coords = lambda bound: st.lists(st.integers(-bound, bound), min_size=p * n, max_size=p * n)
    X = np.array(draw(coords(10**6)), float).reshape(p, n) / 1e3
    Y = np.array(draw(coords(20_000)), float).reshape(p, n) / 1e3
    i, j = np.triu_indices(n, k=1)
    assume(np.all(np.any(X[:, i] != X[:, j], axis=0)))
    return TrajectorySet(X=X, Y=Y)


@settings(max_examples=150, deadline=None)
@given(traj=geometries())
def test_range_identities_on_random_geometries(traj):
    rm = range_matrices(traj)
    for i, j in canonical_pairs(traj.N):
        rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
        assert rm.R[i, j] == pytest.approx(rd.r, rel=1e-14)
        assert rm.Rdot[i, j] == pytest.approx(rd.rdot, rel=1e-14)
        assert rm.Rddot[i, j] == pytest.approx(rd.rddot, rel=1e-14)
    # r rddot + rdot^2 = ||y_i - y_j||^2, so rddot >= 0 by Cauchy-Schwarz
    dv2 = ((traj.Y[:, :, None] - traj.Y[:, None, :]) ** 2).sum(axis=0)
    assert np.all(np.abs(rm.R * rm.Rddot + rm.Rdot**2 - dv2) <= 1e-12 * dv2)
    off = ~np.eye(traj.N, dtype=bool)
    assert np.all(rm.Rddot[off] >= -1e-12 * dv2[off] / rm.R[off])
    grams = grams_from_ranges(rm)
    ones = np.ones(traj.N)
    for B in (grams.Bxx, grams.Bxy, grams.Byy):
        assert np.all(np.abs(B @ ones) <= 1e-12 * traj.N * np.abs(B).max())
    for B in (grams.Bxx, grams.Byy):
        lam = np.abs(np.linalg.eigvalsh(B))
        assert np.count_nonzero(lam > 1e-9 * lam.max()) <= traj.P
