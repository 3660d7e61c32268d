"""Contact cones: membership, and the unit ray tables of the LP oracle.

``ref_*_rays`` are the plain per-ray loops of an inscribed SFCE or PCWF cone
at normal force f_n, rows (f_t, f_o, f_n, m_n) or (f_t, f_o, f_n).  The
oracle builds no such rays: it inscribes each compiled block ||A x + b|| <=
c'x + d with the unit table of its row count, and the block's 1/(mu e) rows
make the table's columns these rays.  The tables evaluate the loops' scalar
expressions, so at mu = e = f_n = 1 they agree byte for byte, signs of zeros
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone_blocks, fuzz_corpus, pcwf_contains, sfce_contains
from screwgrasp.contacts import (
    FixedSupport,
    PcwfParams,
    SfceParams,
    _latitudes,
    _pcwf_units,
    _sfce_units,
    _snap,
    check_facets,
)
from screwgrasp.errors import ScrewGraspError
from screwgrasp.problem import compile_program
from screwgrasp.scenarios import builtin_scenario

TABLE_SFCE = SfceParams(mu=0.2, e_t=1.0, e_o=1.0, e_n=0.03)
TABLE_PCWF = PcwfParams(mu=0.25)


def ref_sfce_rays(p, f_n, facets):
    radius = p.mu * f_n
    phis = 2.0 * np.pi * np.arange(facets) / facets
    rays = []
    for theta in _latitudes(facets):
        s, c = _snap(np.sin(theta)), _snap(np.cos(theta))
        if s == 0.0:  # pole: all longitudes coincide
            rays.append((0.0, 0.0, f_n, radius * p.e_n * np.sign(c)))
            continue
        for phi in phis:
            rays.append((radius * p.e_t * _snap(s * np.cos(phi)), radius * p.e_o * _snap(s * np.sin(phi)),
                         f_n, radius * p.e_n * c))
    return np.array(rays).T


def ref_pcwf_rays(p, f_n, facets):
    radius = p.mu * f_n
    phis = 2.0 * np.pi * np.arange(facets) / facets
    return np.array([(radius * p.e_t * _snap(np.cos(phi)), radius * p.e_o * _snap(np.sin(phi)), f_n)
                     for phi in phis]).T


FACET_COUNTS = (4, 5, 7, 8, 12, 16, 32, 33, 64, 128)
UNITS = {"sfce": (_sfce_units, ref_sfce_rays, [0, 1, 3]), "pcwf": (_pcwf_units, ref_pcwf_rays, [0, 1])}


class TestUnitTables:
    @pytest.mark.parametrize("kind", ["sfce", "pcwf"])
    def test_tables_are_the_per_ray_loop_byte_for_byte(self, kind):
        units, ref, rows = UNITS[kind]
        unit = SfceParams(mu=1.0) if kind == "sfce" else PcwfParams(mu=1.0)
        for facets in FACET_COUNTS:
            got, want = units(facets), ref(unit, 1.0, facets)[rows]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), facets

    @pytest.mark.parametrize("units", [_sfce_units, _pcwf_units])
    def test_every_ray_is_on_the_boundary(self, units):
        # unit columns: the rays lie on the cone boundary, so their hull is inscribed
        for facets in FACET_COUNTS:
            np.testing.assert_allclose(np.linalg.norm(units(facets), axis=0), 1.0, rtol=0.0, atol=4e-16)

    def test_four_facets_are_axis_aligned_equator_points(self):
        want = [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert sorted(map(tuple, _pcwf_units(4).T.tolist())) == want
        assert sorted(map(tuple, _sfce_units(4).T.tolist())) == [(*w, 0.0) for w in want]

    def test_sfce_hull_support_in_random_directions_inscribed(self):
        rng = np.random.default_rng(3)
        U = _sfce_units(64)
        assert U[0].max() == 1.0  # the support along +t reaches the boundary
        for _ in range(50):
            d = rng.normal(size=3)
            support = (U.T @ (d / np.linalg.norm(d))).max()
            assert support <= 1.0 + 1e-12  # inscribed
            assert support >= np.cos(np.pi / 16) * np.cos(np.pi / 64) - 1e-12

    def test_pcwf_inscribed_polygon_support_error(self):
        # regular inscribed n-gon: worst relative support error is 1 - cos(pi/n)
        rng = np.random.default_rng(5)
        for facets in (8, 16, 32):
            U = _pcwf_units(facets)
            angles = rng.uniform(0, 2 * np.pi, 200)
            support = (np.column_stack([np.cos(angles), np.sin(angles)]) @ U).max(axis=1)
            assert (1.0 - support).max() <= (1.0 - np.cos(np.pi / facets)) + 1e-12

    @pytest.mark.parametrize("units", [_sfce_units, _pcwf_units])
    def test_ray_sets_nest_under_facet_doubling(self, units):
        # nesting of the sample sets is what makes the oracle's hulls (and
        # objectives) monotone over 8 -> 16 -> 32 -> 64
        prev = None
        for facets in (8, 16, 32, 64):
            rays = set(map(tuple, np.round(units(facets).T, 12).tolist()))
            assert prev is None or prev <= rays, f"{units.__name__}@{facets} lost rays"
            prev = rays

    def test_facet_floor_and_integer_facets(self):
        for facets in (32.5, 7.9, "8"):
            with pytest.raises(ValueError, match="integer"):
                check_facets(facets)
        for facets in (3, 0, -8):
            with pytest.raises(ValueError, match=">= 4"):
                check_facets(facets)
        assert type(check_facets(np.int64(32))) is int and check_facets(np.int64(32)) == 32


class TestCompiledBlocks:
    """Each ray of the reference loops at f_n = 1, placed in x at its
    contact's components, is the matching column of the unit table as seen
    through the compiled block: A x + b = U[:, j] and c'x + d = 1."""

    @pytest.mark.parametrize("facets", [8, 32])
    def test_reference_rays_map_onto_the_unit_table(self, facets):
        bundled = [builtin_scenario(name).problem() for name in ("door_handle", "cuboid_pivot", "cuboid_slide")]
        blocks = 0
        for p in bundled + [q for seed, _, q, _ in fuzz_corpus() if seed == 4]:
            prog = compile_program(p)
            for blk, cs, params in cone_blocks(p, prog):
                units, ref, _ = UNITS[cs.kind]
                U, R = units(facets), ref(params, 1.0, facets)
                X = np.zeros((prog.n_vars, R.shape[1]))
                X[cs.start : cs.stop] = R  # the rows of the reference loops are the contact's kept components
                np.testing.assert_allclose(blk.A @ X + blk.b[:, None], U, rtol=0.0, atol=1e-15)
                np.testing.assert_allclose(blk.c @ X + blk.d, 1.0, rtol=0.0, atol=1e-15)
                blocks += 1
        assert blocks > 300


class TestSfceMembership:
    def test_pure_normal_force(self):
        assert sfce_contains(TABLE_SFCE, [0.0, 0.0, 10.0, 0.0])

    def test_single_component_boundary(self):
        assert not sfce_contains(TABLE_SFCE, [2.1, 0.0, 10.0, 0.0], tol=0.0)
        assert sfce_contains(TABLE_SFCE, [2.0, 0.0, 10.0, 0.0], tol=1e-12)

    def test_torsional_boundary_with_reference_constants(self):
        # 0.06 / (0.2 * 0.03) = 10 = f_n exactly
        assert sfce_contains(TABLE_SFCE, [0.0, 0.0, 10.0, 0.06], tol=1e-12)
        assert not sfce_contains(TABLE_SFCE, [0.0, 0.0, 10.0, 0.0601], tol=0.0)


class TestPcwfMembership:
    def test_pure_normal(self):
        assert pcwf_contains(TABLE_PCWF, [0.0, 0.0, 4.0])

    def test_boundary(self):
        assert pcwf_contains(TABLE_PCWF, [1.0, 0.0, 4.0], tol=1e-12)

    def test_just_outside(self):
        assert not pcwf_contains(TABLE_PCWF, [1.01, 0.0, 4.0], tol=0.0)


members_sfce = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 20.0)
).map(lambda t: np.array([
    t[0] * TABLE_SFCE.mu * TABLE_SFCE.e_t * t[3] / np.sqrt(3),
    t[1] * TABLE_SFCE.mu * TABLE_SFCE.e_o * t[3] / np.sqrt(3),
    t[3],
    t[2] * TABLE_SFCE.mu * TABLE_SFCE.e_n * t[3] / np.sqrt(3),
]))


@given(members_sfce, st.floats(0.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_cone_closed_under_nonnegative_scaling(w, alpha):
    assert sfce_contains(TABLE_SFCE, w, tol=1e-9)
    assert sfce_contains(TABLE_SFCE, alpha * w, tol=1e-9 * max(1.0, alpha))


@given(members_sfce, members_sfce, st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_cone_convexity(w1, w2, t):
    assert sfce_contains(TABLE_SFCE, t * w1 + (1 - t) * w2, tol=1e-9)


def test_param_validation():
    with pytest.raises(ScrewGraspError):
        SfceParams(mu=0.0)
    with pytest.raises(ScrewGraspError):
        PcwfParams(mu=-1.0)
    with pytest.raises(ScrewGraspError):
        SfceParams(mu=0.2, e_n=0.0)
    with pytest.raises(ScrewGraspError):
        FixedSupport(prescribed={"bogus": 1.0})
