import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtflow.nonlinear import (apply, identity,
                              log_quantizer, saturation, sector_bounds,
                              uniform_quantizer, verify_link_properties, SectorBounds)


def test_log_quantizer_spot_values():
    g = log_quantizer(1.0)
    assert apply(g, 1.0) == pytest.approx(1.0)
    assert apply(g, -1.0) == pytest.approx(-1.0)
    # log 2 ~ 0.693 rounds to 1, so 2 maps to e
    assert apply(g, 2.0) == pytest.approx(math.e)
    assert apply(g, 0.0) == 0.0


def test_uniform_quantizer_dead_zone():
    g = uniform_quantizer(1.0)
    assert apply(g, 0.2) == 0.0
    assert apply(g, 0.8) == 1.0
    assert apply(g, -0.8) == -1.0


def test_saturation_and_identity():
    assert apply(saturation(2.0), 5.0) == 2.0
    assert apply(saturation(2.0), -5.0) == -2.0
    assert apply(saturation(2.0), 1.5) == 1.5
    assert apply(identity(), 3.7) == 3.7


def test_apply_vector_form():
    g = log_quantizer(1.0)
    z = np.array([1.0, 2.0, 0.0, -2.0])
    out = apply(g, z)
    assert out.shape == z.shape
    assert np.allclose(out, [1.0, math.e, 0.0, -math.e])


@pytest.mark.parametrize("g", [log_quantizer(1.0), uniform_quantizer(0.3)], ids=lambda g: g.kind)
def test_apply_with_one_level_per_member(g):
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 2, 4, 2)) * 10.0 ** rng.uniform(-3, 3, size=(3, 2, 4, 2))
    z[0, 0, 0, 0] = 0.0
    rho = np.array([0.25, 1.0, 1.9])
    out = apply(g, z, rho.reshape(3, 1, 1, 1))
    assert out.shape == z.shape
    for b in range(3):
        assert np.array_equal(out[b], apply(dataclasses.replace(g, rho=rho[b]), z[b]))


def test_sector_bounds_table_values():
    assert sector_bounds(log_quantizer(1.0)).kappa == pytest.approx(0.5)
    assert sector_bounds(log_quantizer(1.0)).upper == pytest.approx(1.5)
    assert sector_bounds(log_quantizer(1.0)).ratio == pytest.approx(3.0)
    assert sector_bounds(log_quantizer(0.25)).ratio == pytest.approx(9 / 7)
    assert sector_bounds(log_quantizer(1.6)).ratio == pytest.approx(9.0)
    b = sector_bounds(identity())
    assert (b.kappa, b.upper) == (1.0, 1.0)


def test_sector_bounds_tight_mode():
    b = sector_bounds(log_quantizer(1.0), mode="tight")
    assert b.kappa == pytest.approx(math.exp(-0.5))
    assert b.upper == pytest.approx(math.exp(0.5))


def test_sector_bounds_rejections():
    with pytest.raises(ValueError, match="rho"):
        sector_bounds(log_quantizer(2.0))
    # tight mode still works past the linearization's validity
    assert sector_bounds(log_quantizer(2.0), mode="tight").kappa > 0
    with pytest.raises(ValueError, match="empty"):
        sector_bounds(identity(), domain=(1.0, -1.0))


def test_uniform_quantizer_not_strongly_sign_preserving():
    b = sector_bounds(uniform_quantizer(1.0))
    assert b.kappa == 0.0
    assert not b.strongly_sign_preserving


def test_saturation_domain_relative_bounds():
    b = sector_bounds(saturation(2.0), domain=(-10.0, 10.0))
    assert b.kappa == pytest.approx(0.2)
    assert b.upper == 1.0
    b2 = sector_bounds(saturation(2.0), domain=(-1.0, 1.0))
    assert (b2.kappa, b2.upper) == (1.0, 1.0)


def test_verify_identity_all_pass():
    rep = verify_link_properties(identity(), sector_bounds(identity()), samples=500)
    assert rep.all_ok


def test_verify_uniform_quantizer_fails_claimed_positive_kappa():
    # the dead zone makes g(z)/z = 0 below rho/2
    claimed = SectorBounds(0.5, 2.0, domain=(-10.0, 10.0))
    rep = verify_link_properties(uniform_quantizer(1.0), claimed, samples=4000, seed=1)
    assert rep.odd_ok and rep.monotone_ok
    assert not rep.sector_ok
    assert 0 < abs(rep.worst_sector[0]) < 0.5


def test_verify_log_quantizer_tight_bounds_pass():
    g = log_quantizer(1.0)
    rep = verify_link_properties(g, sector_bounds(g, (-1e3, 1e3), mode="tight"),
                             samples=20000, seed=2)
    assert rep.all_ok


def test_verify_log_quantizer_linearized_upper_bound_is_violated():
    # dense sampling shows g(z)/z reaching exp(rho/2) > 1 + rho/2: the
    # linearized pair is not a true envelope on the upper side
    g = log_quantizer(1.0)
    rep = verify_link_properties(g, sector_bounds(g, (-1e3, 1e3), mode="linearized"),
                             samples=20000, seed=3)
    assert rep.odd_ok and rep.monotone_ok
    assert not rep.sector_ok
    assert rep.worst_sector[1] == pytest.approx(math.exp(0.5), rel=1e-2)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6,
                 allow_nan=False, allow_infinity=False),
       st.sampled_from([0.1, 0.5, 1.0, 1.5, 1.9]),
       st.sampled_from([-1.0, 1.0]))
def test_log_quantizer_envelope_property(mag, rho, sign):
    z = sign * mag
    ratio = apply(log_quantizer(rho), z) / z
    assert 1 - rho / 2 <= ratio <= math.exp(rho / 2) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=20),
       st.sampled_from(["identity", "logq", "uniq", "sat"]))
def test_all_kinds_odd_and_monotone(values, kind):
    g = {"identity": identity(), "logq": log_quantizer(1.0),
         "uniq": uniform_quantizer(0.5), "sat": saturation(1.0)}[kind]
    z = np.sort(np.asarray(values))
    gz = apply(g, z)
    assert np.all(np.diff(gz) >= -1e-15)
    assert np.allclose(apply(g, -z), -gz, atol=1e-15)
