import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtflow import nonlinear as nl
from gtflow import verify
from gtflow.nonlinear import (SectorBounds, apply, identity, log_quantizer, saturation,
                              sector_bounds, uniform_quantizer)


def test_log_quantizer_spot_values():
    g = log_quantizer(1.0)
    assert apply(g, 1.0) == pytest.approx(1.0)
    assert apply(g, -1.0) == pytest.approx(-1.0)
    # log 2 ~ 0.693 rounds to 1, so 2 maps to e
    assert apply(g, 2.0) == pytest.approx(math.e)
    assert apply(g, 0.0) == 0.0


def test_log_quantizer_is_odd_bit_for_bit():
    # sgn(z) exp(...) bit for bit, except that the sign of z is copied onto
    # g(-0) as well; a member-axis level takes the same arithmetic
    rng = np.random.default_rng(8)
    z = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200),
                        [0.0, 5e-324, 1e-310, 1e308, np.inf, np.nan]])
    z = np.concatenate([z, -z])
    for rho in (0.25, 1.0, 1.9, np.array([0.5, 1.5]).reshape(2, 1)):
        got = apply(log_quantizer(1.0), z, rho)
        with np.errstate(divide="ignore"):
            want = np.sign(z) * np.exp(rho * np.rint(np.log(np.abs(z)) / rho))
        assert np.array_equal(got, want, equal_nan=True)
        half = z.size // 2
        bits = got.view(np.uint64)  # g(-z) is g(z) with the sign bit flipped
        assert np.array_equal(bits[..., :half] ^ bits[..., half:], np.full_like(bits[..., :half], 1 << 63))
    assert math.copysign(1.0, apply(log_quantizer(1.0), -0.0)) == -1.0


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


def test_strongly_sign_preserving_is_read_off_kappa():
    assert SectorBounds(1.0, 1.0).strongly_sign_preserving
    with pytest.raises(TypeError):
        SectorBounds(1.0, 1.0, False)


def test_saturation_domain_relative_bounds():
    b = sector_bounds(saturation(2.0), domain=(-10.0, 10.0))
    assert b.kappa == pytest.approx(0.2)
    assert b.upper == 1.0
    b2 = sector_bounds(saturation(2.0), domain=(-1.0, 1.0))
    assert (b2.kappa, b2.upper) == (1.0, 1.0)


def _signed_log_uniform(seed, size, lo=1e-6, hi=1e6):
    rng = np.random.default_rng(seed)
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))
    return np.sort(mags * rng.choice([-1.0, 1.0], size=size))


def test_identity_is_odd_monotone_and_in_its_sector():
    z = _signed_log_uniform(0, 500)
    gz = apply(identity(), z)
    b = sector_bounds(identity())
    assert np.array_equal(apply(identity(), -z), -gz)
    assert np.all(np.diff(gz) >= 0)
    assert np.all((b.kappa <= gz / z) & (gz / z <= b.upper))


def test_uniform_quantizer_dead_zone_fails_a_claimed_positive_kappa():
    # g(z)/z = 0 below rho/2, so a claimed kappa of 0.5 fails there and
    # only there
    g = uniform_quantizer(1.0)
    z = _signed_log_uniform(1, 4000, hi=10.0)
    gz = apply(g, z)
    assert np.array_equal(apply(g, -z), -gz)
    assert np.all(np.diff(gz) >= 0)
    fails = gz / z < 0.5
    assert np.array_equal(fails, np.abs(z) < 0.5) and fails.any()
    assert np.all(gz[fails] == 0)


def test_log_quantizer_tight_envelope_holds():
    g = log_quantizer(1.0)
    b = sector_bounds(g, (-1e3, 1e3), mode="tight")
    z = _signed_log_uniform(2, 20000, hi=1e3)
    ratio = apply(g, z) / z
    assert ratio.min() >= b.kappa - 1e-12
    assert ratio.max() <= b.upper + 1e-12


def test_log_quantizer_exceeds_its_linearized_upper_value():
    # dense sampling shows g(z)/z reaching exp(rho/2) > 1 + rho/2: the
    # linearized pair is not a true envelope on the upper side
    g = log_quantizer(1.0)
    b = sector_bounds(g, (-1e3, 1e3), mode="linearized")
    z = _signed_log_uniform(3, 20000, hi=1e3)
    ratio = apply(g, z) / z
    assert ratio.min() >= b.kappa
    assert ratio.max() > b.upper
    assert ratio.max() == pytest.approx(math.exp(0.5), rel=1e-2)


def _dip(apply_):
    # the uniform quantizer drops to half between 10 and 20, still odd
    def broken(g, z, rho=None):
        out = apply_(g, z, rho)
        if g.kind == "uniform_quantizer":
            out = np.where((np.abs(z) > 10) & (np.abs(z) < 20), out / 2, out)
        return out
    return broken


def _offset(apply_):
    # saturation plus a constant: still monotone, but not odd
    def broken(g, z, rho=None):
        return apply_(g, z, rho) + (1e-9 if g.kind == "saturation" else 0.0)
    return broken


def _scaled_uniform(apply_):
    # the uniform quantizer times 1.5: odd and monotone, but g(z)/z reaches 3
    def broken(g, z, rho=None):
        return apply_(g, z, rho) * (1.5 if g.kind == "uniform_quantizer" else 1.0)
    return broken


def _linearized_claimed(bounds_):
    def broken(g, domain=(-math.inf, math.inf), mode="linearized"):
        return bounds_(g, domain, "linearized" if g.kind == "log_quantizer" else mode)
    return broken


@pytest.mark.parametrize("attr, make, kind, prop", [
    ("apply", _offset, "saturation", "odd"),
    ("apply", _dip, "uniform_quantizer(rho=1.0)", "monotone"),
    ("apply", _scaled_uniform, "uniform_quantizer(rho=1.0)", "sector"),
    ("sector_bounds", _linearized_claimed, "log_quantizer(rho=1.95)", "sector"),
], ids=["not odd", "downward dip", "uniform sector", "linearized sector"])
def test_nonlinearity_check_catches_broken_maps(monkeypatch, attr, make, kind, prop):
    monkeypatch.setattr(nl, attr, make(getattr(nl, attr)))
    result = verify.check_nonlinearity_properties()
    assert not result.passed
    assert (kind, prop) in {f[:2] for f in result.failures}


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
