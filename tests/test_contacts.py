"""Contact cones: membership, and the inscribed rays of the LP oracle.

``ref_*_rays`` are the plain per-ray loops that the cached unit tables of
``screwgrasp.contacts`` replaced; they stay here as the reference.  The
tables evaluate the same scalar expressions and scale them in the same
order, so the rays must agree byte for byte, signs of zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pcwf_contains, sfce_contains
from screwgrasp.contacts import (
    FixedSupport,
    PcwfParams,
    SfceParams,
    _latitudes,
    _pcwf_units,
    _sfce_units,
    _snap,
    pcwf_rays,
    sfce_rays,
)
from screwgrasp.errors import ScrewGraspError

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
NORMAL_FORCES = (1.0, 7.5, float(np.random.default_rng(11).uniform(0.01, 100.0)))


class TestRayTables:
    @pytest.mark.parametrize("rays,ref,params", [
        (sfce_rays, ref_sfce_rays, TABLE_SFCE),
        (sfce_rays, ref_sfce_rays, SfceParams(mu=0.37, e_t=1.3, e_o=0.45, e_n=0.021)),
        (pcwf_rays, ref_pcwf_rays, TABLE_PCWF),
        (pcwf_rays, ref_pcwf_rays, PcwfParams(mu=0.6, e_t=0.7, e_o=1.9)),
    ])
    def test_rays_are_the_per_ray_loop_byte_for_byte(self, rays, ref, params):
        for facets in FACET_COUNTS:
            for f_n in NORMAL_FORCES:
                got, want = rays(params, f_n, facets), ref(params, f_n, facets)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (facets, f_n)

    def test_tables_are_cached_and_read_only(self):
        for units in (_sfce_units, _pcwf_units):
            table = units(16)
            assert units(16) is table
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 2.0

    @pytest.mark.parametrize("rays,params", [(sfce_rays, TABLE_SFCE), (pcwf_rays, TABLE_PCWF)])
    def test_facets_must_be_an_integer(self, rays, params):
        for facets in (32.5, 7.9, "8"):
            with pytest.raises(ValueError, match="integer"):
                rays(params, 1.0, facets)
        assert rays(params, 1.0, np.int64(32)).tobytes() == rays(params, 1.0, 32).tobytes()


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


class TestSfceRays:
    def test_four_facets_are_axis_aligned_equator_points(self):
        p = SfceParams(mu=0.2, e_t=1.0, e_o=1.0, e_n=1.0)
        rays = sfce_rays(p, 1.0, 4)
        got = sorted((round(t, 12), round(o, 12), n, m) for t, o, n, m in rays.T.tolist())
        assert got == [(-0.2, 0.0, 1.0, 0.0), (0.0, -0.2, 1.0, 0.0),
                       (0.0, 0.2, 1.0, 0.0), (0.2, 0.0, 1.0, 0.0)]

    def test_all_rays_are_members(self):
        for facets in (4, 8, 16, 64):
            rays = sfce_rays(TABLE_SFCE, 7.5, facets)
            assert sfce_contains(TABLE_SFCE, rays, tol=1e-9).all()
            assert sfce_contains(TABLE_SFCE, rays, tol=1e-11 * 7.5).all()  # boundary-exact

    def test_hull_support_along_t_axis(self):
        # closed-form cone boundary support along +t is mu*e_t*f_n
        p = SfceParams(mu=0.2, e_t=1.3, e_o=0.8, e_n=0.03)
        best = sfce_rays(p, 5.0, 64)[0].max()
        assert best <= p.mu * p.e_t * 5.0 + 1e-12
        assert best >= p.mu * p.e_t * 5.0 * (1.0 - 0.005)

    def test_hull_support_in_random_directions_inscribed(self):
        rng = np.random.default_rng(3)
        p = TABLE_SFCE
        f_n = 2.0
        f_t, f_o, _, m_n = sfce_rays(p, f_n, 64)
        pts = np.column_stack([f_t / p.e_t, f_o / p.e_o, m_n / p.e_n])
        radius = p.mu * f_n
        for _ in range(50):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            support = pts @ d
            assert support.max() <= radius + 1e-12  # inscribed
            assert support.max() >= radius * np.cos(np.pi / 16) * np.cos(np.pi / 64) - 1e-12

    def test_ray_sets_nest_under_facet_doubling(self):
        # nesting of the sample sets is what makes the oracle's hulls (and
        # objectives) monotone over 8 -> 16 -> 32 -> 64
        for rays_of, params in ((sfce_rays, TABLE_SFCE), (pcwf_rays, TABLE_PCWF)):
            prev = None
            for facets in (8, 16, 32, 64):
                rays = set(map(tuple, np.round(rays_of(params, 1.0, facets).T, 12).tolist()))
                if prev is not None:
                    assert prev <= rays, f"{rays_of.__name__}@{facets} lost rays"
                prev = rays

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            sfce_rays(TABLE_SFCE, 1.0, 3)
        with pytest.raises(ScrewGraspError):
            sfce_rays(TABLE_SFCE, 0.0, 8)


class TestPcwfRays:
    def test_four_facets(self):
        rays = pcwf_rays(TABLE_PCWF, 1.0, 4)
        assert rays.shape == (3, 4)  # (f_t, f_o, f_n): no moment components
        got = sorted((round(t, 12), round(o, 12), n) for t, o, n in rays.T.tolist())
        assert got == [(-0.25, 0.0, 1.0), (0.0, -0.25, 1.0), (0.0, 0.25, 1.0), (0.25, 0.0, 1.0)]

    def test_all_rays_members(self):
        assert pcwf_contains(TABLE_PCWF, pcwf_rays(TABLE_PCWF, 3.0, 16), tol=1e-11 * 3.0).all()

    def test_inscribed_polygon_support_error(self):
        # regular inscribed n-gon: worst relative support error is 1 - cos(pi/n)
        rng = np.random.default_rng(5)
        for facets in (8, 16, 32):
            pts = pcwf_rays(TABLE_PCWF, 1.0, facets)[:2].T
            worst = 0.0
            for _ in range(200):
                ang = rng.uniform(0, 2 * np.pi)
                d = np.array([np.cos(ang), np.sin(ang)])
                support = (pts @ d).max()
                worst = max(worst, 1.0 - support / TABLE_PCWF.mu)
            assert worst <= (1.0 - np.cos(np.pi / facets)) + 1e-12


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
