"""Device-model validation.

The analytic conductances are checked against central finite differences
of the current equation, and the piecewise regions against hand-evaluated
closed forms.
"""

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdsim.devices import (
    _CONFIG_KEYS,
    CAP_REF_WIDTH,
    DEFAULT_CONFIG,
    STANDARD_CORNERS,
    ModelConfig,
    MosfetParams,
    ProcessParams,
    load_config,
    mosfet_conductances,
    mosfet_current,
    mosfet_eval,
)

NM = MosfetParams(polarity="nmos", vth0=0.35, kprime=200e-6, lam=0.0, w=260e-9, l=100e-9)
PM = MosfetParams(polarity="pmos", vth0=-0.35, kprime=200e-6, lam=0.0, w=260e-9, l=100e-9)


def random_params(rng: random.Random) -> MosfetParams:
    polarity = rng.choice(["nmos", "pmos"])
    vth = rng.uniform(0.1, 0.6)
    return MosfetParams(
        polarity=polarity,
        vth0=vth if polarity == "nmos" else -vth,
        kprime=rng.uniform(20e-6, 500e-6),
        lam=rng.uniform(0.0, 0.3),
        w=rng.uniform(100e-9, 2e-6),
        l=rng.uniform(50e-9, 1e-6),
    )


class TestCurrent:
    def test_cutoff_region_zero_current(self):
        for vds in (0.0, 0.1, 0.6, 1.2):
            assert mosfet_current(NM, 0.2, vds) == 0.0

    def test_saturation_hand_value(self):
        # 0.5 * 200u * 2.6 * 0.85^2
        i = mosfet_current(NM, 1.2, 1.2)
        assert i == pytest.approx(187.85e-6, rel=1e-12)

    def test_triode_hand_value(self):
        # 200u * 2.6 * (0.85*0.1 - 0.5*0.01)
        i = mosfet_current(NM, 1.2, 0.1)
        assert i == pytest.approx(41.6e-6, rel=1e-12)

    def test_channel_length_modulation_scales_saturation(self):
        p = MosfetParams(polarity="nmos", vth0=0.35, kprime=200e-6, lam=0.1, w=260e-9, l=100e-9)
        assert mosfet_current(p, 1.2, 1.2) == pytest.approx(187.85e-6 * 1.12, rel=1e-12)

    def test_continuity_at_triode_saturation_boundary(self):
        rng = random.Random(1234)
        for _ in range(1000):
            p = random_params(rng)
            sign = 1.0 if p.polarity == "nmos" else -1.0
            vgs = sign * (abs(p.vth0) + rng.uniform(0.05, 1.0))
            vov = sign * vgs - abs(p.vth0)
            vds = sign * vov
            below = mosfet_current(p, vgs, vds * (1 - 1e-12))
            at = mosfet_current(p, vgs, vds)
            above = mosfet_current(p, vgs, vds * (1 + 1e-12))
            assert abs(at - below) <= 1e-15
            assert abs(at - above) <= 1e-15

    def test_polarity_antisymmetry(self):
        rng = random.Random(99)
        for _ in range(200):
            vth = rng.uniform(0.1, 0.6)
            kw = dict(kprime=rng.uniform(20e-6, 500e-6), lam=rng.uniform(0, 0.3),
                      w=rng.uniform(0.1e-6, 1e-6), l=rng.uniform(0.05e-6, 0.5e-6))
            n = MosfetParams(polarity="nmos", vth0=vth, **kw)
            p = MosfetParams(polarity="pmos", vth0=-vth, **kw)
            vgs = rng.uniform(-1.5, 1.5)
            vds = rng.uniform(-1.5, 1.5)
            assert mosfet_current(p, vgs, vds) == -mosfet_current(n, -vgs, -vds)

    def test_reversed_channel_continuous_at_vds_zero(self):
        i_neg = mosfet_current(NM, 1.0, -1e-9)
        i_pos = mosfet_current(NM, 1.0, 1e-9)
        assert i_neg < 0 < i_pos
        # odd symmetry through vds = 0 up to the O(h^2) triode curvature
        assert i_neg == pytest.approx(-i_pos, rel=1e-6)

    def test_monotone_in_vgs_and_width_in_saturation(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_params(rng)
            sign = 1.0 if p.polarity == "nmos" else -1.0
            vds = sign * 1.5
            v1 = abs(p.vth0) + rng.uniform(0.05, 0.5)
            v2 = v1 + rng.uniform(0.01, 0.5)
            i1 = abs(mosfet_current(p, sign * v1, vds))
            i2 = abs(mosfet_current(p, sign * v2, vds))
            assert i2 > i1
            wider = MosfetParams(polarity=p.polarity, vth0=p.vth0, kprime=p.kprime,
                                 lam=p.lam, w=p.w * 1.5, l=p.l)
            assert abs(mosfet_current(wider, sign * v1, vds)) > i1


class TestConductances:
    def test_cutoff_point(self):
        assert mosfet_conductances(NM, 0.2, 0.8) == (0.0, 0.0)

    def test_saturation_gm_hand_value(self):
        gm, gds = mosfet_conductances(NM, 1.2, 1.2)
        assert gm == pytest.approx(442e-6, rel=1e-12)
        assert gds == 0.0  # lam = 0

    def test_matches_finite_differences(self):
        """1000 random evaluation points, 1 uV central differences."""
        rng = random.Random(20240811)
        h = 1e-6
        checked = 0
        while checked < 1000:
            p = random_params(rng)
            vgs = rng.uniform(-1.5, 1.5)
            vds = rng.uniform(-1.5, 1.5)
            # keep clear of the region kinks where the FD straddles a corner
            vov = (1 if p.polarity == "nmos" else -1) * vgs - abs(p.vth0)
            sds = (1 if p.polarity == "nmos" else -1) * vds
            if min(abs(vov), abs(sds - vov), abs(sds)) < 10 * h:
                continue
            gm, gds = mosfet_conductances(p, vgs, vds)
            fd_gm = (mosfet_current(p, vgs + h, vds) - mosfet_current(p, vgs - h, vds)) / (2 * h)
            fd_gds = (mosfet_current(p, vgs, vds + h) - mosfet_current(p, vgs, vds - h)) / (2 * h)
            scale = max(abs(fd_gm), abs(fd_gds), 1e-9)
            assert abs(gm - fd_gm) <= 1e-4 * scale, (p, vgs, vds)
            assert abs(gds - fd_gds) <= 1e-4 * scale, (p, vgs, vds)
            checked += 1


def reference_corner_mosfet(models: ModelConfig, polarity: str, w: float, l: float,
                            corner: str) -> MosfetParams:
    """The previous corner path, `apply_corner(models.mosfet(polarity, w, l),
    models.corner(corner))`, kept as the reference for the corner argument of
    `ModelConfig.mosfet`: the typical device, the corner's four scales built
    letter by letter, then vth0 and kprime of the device times its
    polarity's pair."""
    proc = models.nmos if polarity == "nmos" else models.pmos
    cap_scale = w / CAP_REF_WIDTH
    typical = MosfetParams(polarity=polarity, vth0=proc.vth0, kprime=proc.kprime,
                           lam=proc.lam, w=w, l=l, cgs=proc.cgs * cap_scale,
                           cgd=proc.cgd * cap_scale)
    scales = {}
    for letter, pol in zip(corner.upper(), "np"):
        if letter == "T":
            vth, k = 1.0, 1.0
        elif letter == "F":
            vth, k = models.fast_vth_scale, models.fast_k_scale
        else:
            vth, k = models.slow_vth_scale, models.slow_k_scale
        scales[f"vth_scale_{pol}"] = vth
        scales[f"k_scale_{pol}"] = k
    pol = "n" if polarity == "nmos" else "p"
    return replace(typical, vth0=typical.vth0 * scales[f"vth_scale_{pol}"],
                   kprime=typical.kprime * scales[f"k_scale_{pol}"])


class TestCorners:
    def test_identity_corner(self):
        for polarity in ("nmos", "pmos"):
            tt = DEFAULT_CONFIG.mosfet(polarity, 260e-9, 100e-9, "TT")
            assert tt == DEFAULT_CONFIG.mosfet(polarity, 260e-9, 100e-9)
            proc = DEFAULT_CONFIG.nmos if polarity == "nmos" else DEFAULT_CONFIG.pmos
            assert (tt.vth0, tt.kprime) == (proc.vth0, proc.kprime)

    def test_ff_scales_nmos_vth(self):
        out = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9, "FF")
        assert out.vth0 == pytest.approx(0.315, rel=1e-12)
        assert out.kprime == pytest.approx(230e-6, rel=1e-12)

    def test_ss_preserves_pmos_sign(self):
        out = DEFAULT_CONFIG.mosfet("pmos", 260e-9, 100e-9, "SS")
        assert out.vth0 == pytest.approx(-0.385, rel=1e-12)
        assert out.kprime == pytest.approx(68e-6, rel=1e-12)

    def test_mixed_corner_touches_one_polarity(self):
        # FS: fast nmos, slow pmos
        n = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9, "FS")
        p = DEFAULT_CONFIG.mosfet("pmos", 260e-9, 100e-9, "FS")
        assert n == DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9, "FF")
        assert p == DEFAULT_CONFIG.mosfet("pmos", 260e-9, 100e-9, "SS")
        assert p.vth0 == pytest.approx(-0.385, rel=1e-12)

    def test_geometry_untouched(self):
        tt = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9)
        out = DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9, "SS")
        assert (out.w, out.l, out.lam, out.cgs, out.cgd) == (tt.w, tt.l, tt.lam, tt.cgs, tt.cgd)

    @pytest.mark.parametrize("corner", ["XX", "tt", "T", ""])
    def test_unknown_corner_rejected(self, corner):
        with pytest.raises(ValueError, match=re.escape(f"unknown corner {corner!r}")):
            DEFAULT_CONFIG.mosfet("nmos", 260e-9, 100e-9, corner)


@st.composite
def calibrations(draw):
    """A ModelConfig with every field drawn in its valid range."""
    scale = st.floats(0.05, 20.0)
    cap = st.floats(0.0, 1e-14)

    def process(sign):
        return ProcessParams(vth0=sign * draw(st.floats(0.01, 1.0)),
                             kprime=draw(st.floats(1e-7, 1e-2)), lam=draw(st.floats(0.0, 1.0)),
                             cgs=draw(cap), cgd=draw(cap))

    return ModelConfig(vdd=draw(st.floats(0.1, 5.0)), nmos=process(1.0), pmos=process(-1.0),
                       fast_vth_scale=draw(scale), fast_k_scale=draw(scale),
                       slow_vth_scale=draw(scale), slow_k_scale=draw(scale))


@settings(max_examples=400, deadline=None)
@given(models=calibrations(), polarity=st.sampled_from(["nmos", "pmos"]),
       w=st.floats(1e-9, 1e-4), l=st.floats(1e-9, 1e-4),
       corner=st.sampled_from(STANDARD_CORNERS))
def test_corner_mosfet_bit_identical_to_reference(models, polarity, w, l, corner):
    """Every field of the device at a corner, the last bit included, equals
    the previous corner path's."""
    got = models.mosfet(polarity, w, l, corner)
    assert repr(got) == repr(reference_corner_mosfet(models, polarity, w, l, corner))


class TestParamValidation:
    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            MosfetParams(polarity="nmos", vth0=0.35, kprime=1e-4, lam=0.1, w=0.0, l=1e-7)

    def test_rejects_wrong_vth_sign(self):
        with pytest.raises(ValueError):
            MosfetParams(polarity="pmos", vth0=0.35, kprime=1e-4, lam=0.1, w=1e-7, l=1e-7)
        with pytest.raises(ValueError):
            MosfetParams(polarity="nmos", vth0=-0.35, kprime=1e-4, lam=0.1, w=1e-7, l=1e-7)

    def test_rejects_bad_corner_scale(self):
        with pytest.raises(ValueError, match="fast_vth_scale must be finite and > 0"):
            ModelConfig(fast_vth_scale=0.0)

    @pytest.mark.parametrize("field", ["vth0", "kprime", "lam", "w", "l", "cgs", "cgd"])
    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_rejects_nan(self, polarity, field):
        """NaN passed the old `<=` checks of every field."""
        p = DEFAULT_CONFIG.mosfet(polarity, 260e-9, 100e-9)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(p, **{field: math.nan})

    @pytest.mark.parametrize("field", ["fast_vth_scale", "fast_k_scale", "slow_vth_scale",
                                       "slow_k_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_corner_scale(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("vdd", [0.0, -1.2, math.nan, math.inf])
    def test_rejects_bad_vdd(self, vdd):
        with pytest.raises(ValueError, match="vdd must be finite and > 0"):
            ModelConfig(vdd=vdd)

    @pytest.mark.parametrize("field, value, message", [
        ("kprime", 0.0, "kprime must be > 0"),
        ("kprime", math.nan, "kprime must be finite"),
        ("lam", -0.5, "lambda must be >= 0"),
        ("cgs", -1e-16, "cgs must be >= 0"),
        ("cgd", math.inf, "cgd must be finite"),
    ])
    def test_process_params_refuse_what_no_device_takes(self, field, value, message):
        """Refused where the calibration is built, not at the first device."""
        with pytest.raises(ValueError, match=f"^{message}, got "):
            replace(DEFAULT_CONFIG.nmos, **{field: value})

    @pytest.mark.parametrize("polarity, vth0, message", [
        ("nmos", 0.0, "nmos.vth0 must be > 0"), ("nmos", -0.35, "nmos.vth0 must be > 0"),
        ("pmos", 0.0, "pmos.vth0 must be < 0"), ("pmos", 0.3, "pmos.vth0 must be < 0"),
    ])
    def test_rejects_wrong_process_vth_sign(self, polarity, vth0, message):
        proc = replace(getattr(DEFAULT_CONFIG, polarity), vth0=vth0)
        with pytest.raises(ValueError, match=f"^{message}, got "):
            ModelConfig(**{polarity: proc})


def _field(cfg: ModelConfig, key: str) -> float:
    """The ModelConfig value that calibration key `key` sets."""
    for name in _CONFIG_KEYS[key]:
        cfg = getattr(cfg, name)
    return cfg


class TestConfigFile:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.vdd == 1.2
        assert cfg.nmos.vth0 == 0.35
        assert cfg.pmos.kprime == 80e-6

    def test_round_trip(self, tmp_path):
        """Every calibration key, each set away from its default, lands in
        its own field."""
        values = {
            "vdd": 1.05,
            "nmos.vth0": 0.41, "nmos.kprime": 210e-6, "nmos.lambda": 0.07,
            "nmos.cgs": 1.3e-16, "nmos.cgd": 0.7e-16,
            "pmos.vth0": -0.38, "pmos.kprime": 95e-6, "pmos.lambda": 0.12,
            "pmos.cgs": 1.9e-16, "pmos.cgd": 0.4e-16,
            "corner.fast.vth_scale": 0.93, "corner.fast.k_scale": 1.21,
            "corner.slow.vth_scale": 1.07, "corner.slow.k_scale": 0.81,
        }
        assert set(values) == set(_CONFIG_KEYS)
        path = tmp_path / "cal.params"
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        cfg = load_config(path)
        for key, value in values.items():
            assert _field(cfg, key) == value != _field(DEFAULT_CONFIG, key), key

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cal.params"
        path.write_text("nmos.kprime = 400e-6\nvdd = 1.0  # lowered supply\n")
        cfg = load_config(path)
        assert cfg.nmos.kprime == 400e-6
        assert cfg.vdd == 1.0
        assert cfg.pmos == DEFAULT_CONFIG.pmos

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cal.params"
        path.write_text("nmos.body_effect = 0.2\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "cal.params"
        path.write_text("vdd = fast\n")
        with pytest.raises(ValueError, match="bad number"):
            load_config(path)

    @pytest.mark.parametrize("line", ["nmos.vth0 = nan", "nmos.kprime = inf",
                                      "vdd = -inf", "corner.fast.k_scale = NaN"])
    def test_nonfinite_number_rejected(self, tmp_path, line):
        """Refused with the file and line, before any device is built."""
        path = tmp_path / "cal.params"
        path.write_text(f"# calibration\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".* must be finite"):
            load_config(path)

    def test_corner_table_from_scales(self, tmp_path):
        """Each corner letter picks the file's fast or slow scales, or none."""
        path = tmp_path / "cal.params"
        path.write_text("corner.fast.vth_scale = 0.8\ncorner.fast.k_scale = 1.3\n"
                        "corner.slow.vth_scale = 1.2\ncorner.slow.k_scale = 0.7\n")
        cfg = load_config(path)
        tt = {pol: cfg.mosfet(pol, 260e-9, 100e-9) for pol in ("nmos", "pmos")}
        for corner in STANDARD_CORNERS:
            for pol, letter in zip(("nmos", "pmos"), corner):
                dev = cfg.mosfet(pol, 260e-9, 100e-9, corner)
                vth, k = {"T": (1.0, 1.0), "F": (0.8, 1.3), "S": (1.2, 0.7)}[letter]
                assert dev.vth0 == tt[pol].vth0 * vth, (corner, pol)
                assert dev.kprime == tt[pol].kprime * k, (corner, pol)

    @pytest.mark.parametrize("line, field", [("vdd = -1.2", "vdd"), ("vdd = 0", "vdd"),
                                             ("corner.fast.k_scale = 0", "fast_k_scale")])
    def test_refused_calibration_names_the_file(self, tmp_path, line, field):
        """A value the calibration cannot run with is refused at load, not at
        the first device or run that reads it."""
        path = tmp_path / "cal.params"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + f".*{field} must be "
                                             "finite and > 0"):
            load_config(path)

    @pytest.mark.parametrize("line, message", [
        ("nmos.kprime = 0", "nmos.kprime must be > 0"),
        ("pmos.vth0 = 0.3", "pmos.vth0 must be < 0"),
        ("nmos.lambda = -0.5", "nmos.lambda must be >= 0"),
        ("pmos.cgd = -1e-16", "pmos.cgd must be >= 0"),
        ("nmos.vth0 = -0.35", "nmos.vth0 must be > 0"),
    ])
    def test_refused_device_value_names_file_and_key(self, tmp_path, line, message):
        """A per-polarity value no device can take is refused at load, and
        the message names the file and the key, not a MosfetParams field."""
        path = tmp_path / "cal.params"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}, got ")):
            load_config(path)


def test_current_formula_cross_check_against_direct_math():
    """Independent evaluation of the square law, written out longhand, for
    both channel directions. A reversed channel (vds < 0 after the polarity
    sign fold) conducts with drain and source exchanged: its gate drive is
    vgs - vds, its drain-source voltage -vds, and its current flows back."""
    rng = random.Random(5)
    for _ in range(600):
        p = random_params(rng)
        sign = 1.0 if p.polarity == "nmos" else -1.0
        vgs = rng.uniform(-2, 2)
        vds = rng.uniform(-2, 2)
        beta = p.kprime * p.w / p.l
        vgs_c = sign * vgs
        vds_c = sign * vds
        direction = 1.0
        if vds_c < 0:
            vgs_c, vds_c, direction = vgs_c - vds_c, -vds_c, -1.0
        vov = vgs_c - abs(p.vth0)
        if vov <= 0:
            expect = 0.0
        elif vds_c < vov:
            expect = beta * (vov * vds_c - 0.5 * vds_c**2) * (1 + p.lam * vds_c)
        else:
            expect = 0.5 * beta * vov**2 * (1 + p.lam * vds_c)
        # rel: the longhand groups the arithmetic differently (last-ulp noise)
        assert mosfet_current(p, vgs, vds) == pytest.approx(
            sign * direction * expect, rel=1e-12, abs=1e-18)


def test_conductance_units_scale_with_beta():
    gm1, _ = mosfet_conductances(NM, 1.2, 1.2)
    wide = MosfetParams(polarity="nmos", vth0=0.35, kprime=200e-6, lam=0.0,
                        w=520e-9, l=100e-9)
    gm2, _ = mosfet_conductances(wide, 1.2, 1.2)
    assert gm2 == pytest.approx(2 * gm1, rel=1e-12)


def test_reversed_channel_conductances_match_fd():
    p = NM
    vgs, vds = 0.9, -0.4
    h = 1e-6
    gm, gds = mosfet_conductances(p, vgs, vds)
    fd_gm = (mosfet_current(p, vgs + h, vds) - mosfet_current(p, vgs - h, vds)) / (2 * h)
    fd_gds = (mosfet_current(p, vgs, vds + h) - mosfet_current(p, vgs, vds - h)) / (2 * h)
    assert gm == pytest.approx(fd_gm, rel=1e-4)
    assert gds == pytest.approx(fd_gds, rel=1e-4)
    assert math.copysign(1.0, mosfet_current(p, vgs, vds)) == -1.0


def reference_mosfet_eval(vgs, vds, beta, vth, lam, sign):
    """The previous coding of `mosfet_eval`, kept as its reference: a
    `np.where` for the reversed gate drive and a masked add for the
    reversed-channel gds term."""
    swap = vds < 0.0
    vds_c = np.abs(vds)
    vov = np.where(swap, vgs - vds, vgs) - vth
    np.maximum(vov, 0.0, out=vov)
    vmin = np.minimum(vds_c, vov)
    poly = vmin * (vov - 0.5 * vmin)
    bclm = beta * (1.0 + lam * vds_c)
    gm_core = bclm * vmin
    ids = sign * np.copysign(bclm * poly, vds)
    gm = np.copysign(gm_core, vds)
    gds = bclm * (vov - vmin) + beta * lam * poly
    np.add(gds, gm_core, out=gds, where=swap)
    return ids, gm, gds


# Biases placed on the model's boundaries as well as anywhere: vds = +0.0 and
# -0.0, vov = 0 (forward and reversed), vds = vov and its mirror -vds = vov.
BIAS_CASES = ("free", "vds +0", "vds -0", "vov 0", "reversed vov 0", "vds = vov",
              "-vds = vov")


@st.composite
def device_batches(draw, size=6):
    """(vgs, vds, beta, vth, lam, sign) arrays over `size` devices."""
    volts = st.floats(-2.0, 2.0, allow_nan=False)
    columns = {k: [] for k in ("vgs", "vds", "beta", "vth", "lam", "sign")}
    for _ in range(size):
        vth = draw(st.floats(0.05, 0.8))
        vds, vgs = draw(volts), draw(volts)
        case = draw(st.sampled_from(BIAS_CASES))
        if case in ("vds +0", "vds -0"):
            vds = 0.0 if case == "vds +0" else -0.0
        elif case == "vov 0":
            vds, vgs = abs(vds), vth
        elif case == "reversed vov 0":
            vds = -abs(vds)
            vgs = vth + vds
        elif case == "vds = vov":
            vds = abs(vds)
            vgs = vth + vds
        elif case == "-vds = vov":
            vds, vgs = -abs(vds), vth  # reversed: vov = vgs - vds - vth = -vds
        columns["vgs"].append(vgs)
        columns["vds"].append(vds)
        columns["vth"].append(vth)
        columns["beta"].append(draw(st.floats(1e-6, 1e-2)))
        columns["lam"].append(draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.5))])))
        columns["sign"].append(draw(st.sampled_from([1.0, -1.0])))
    return {k: np.array(v) for k, v in columns.items()}


@settings(max_examples=400, deadline=None)
@given(device_batches())
def test_mosfet_eval_bit_identical_to_reference(d):
    """Every float of (ids, gm, gds), the sign of zeros included, equals the
    reference coding's."""
    out = mosfet_eval(d["vgs"], d["vds"], d["beta"], d["vth"], d["lam"], d["sign"],
                      d["beta"] * d["lam"])
    ref = reference_mosfet_eval(d["vgs"], d["vds"], d["beta"], d["vth"], d["lam"],
                                d["sign"])
    assert out.shape == (3, len(d["vgs"]))
    for got, want in zip(out, ref):
        assert got.tobytes() == want.tobytes(), (got, want)


def test_mosfet_eval_stays_float64():
    """Float64 inputs give float64 rows, with the model's constants held as
    0-d float64 arrays; so do shared parameters given as Python floats."""
    vgs, vds = np.array([0.9, 0.2, 1.2]), np.array([0.5, -0.0, -0.3])
    beta = np.array([1e-3, 2e-3, 5e-4])
    for shared in (False, True):
        args = (0.35, 0.1, 1.0) if shared else (np.full(3, 0.35), np.full(3, 0.1),
                                                 np.ones(3))
        out = mosfet_eval(vgs, vds, beta, *args, beta * 0.1)
        assert out.dtype == np.float64 and out.shape == (3, 3)


BOUNDARIES = ("vov = 0", "vds = vov", "vds = 0", "-vds = vov")


@settings(max_examples=300, deadline=None)
@given(
    boundary=st.sampled_from(BOUNDARIES),
    across=st.sampled_from(["vgs", "vds"]),
    vth=st.floats(0.1, 0.6),
    level=st.floats(0.05, 1.5),
    other=st.floats(-1.5, 1.5),
    beta=st.floats(1e-5, 1e-2),
    lam=st.floats(0.0, 0.3),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_c1_continuity_at_region_boundaries(boundary, across, vth, level, other, beta, lam,
                                            sign):
    """Current, gm and gds are continuous across each region boundary:
    stepping the bias by +/-h across it moves each by at most 2h times a
    bound on the model's second derivatives, 4 beta (1 + lam (|vgs| + |vds|
    + 1)). A jump in a conductance, such as a dropped lambda term on one
    side, is orders of magnitude larger than that at h = 1 nV."""
    if boundary == "vov = 0":  # cutoff | saturation, forward channel
        vgs, vds = vth, level
    elif boundary == "vds = vov":  # triode | saturation
        vgs, vds = vth + level, level
    elif boundary == "vds = 0":  # forward | reversed channel
        vgs, vds = vth + other, 0.0
    else:  # reversed triode | reversed saturation: vgs - vds - vth = -vds
        vgs, vds = vth, -level
    h = 1e-9
    step = np.array([-h, h])
    vgs_pair = vgs + (step if across == "vgs" else 0.0)
    vds_pair = vds + (step if across == "vds" else 0.0)
    ids, gm, gds = mosfet_eval(vgs_pair, vds_pair, beta, vth, lam, sign, beta * lam)
    bound = 2 * h * 4 * beta * (1 + lam * (abs(vgs) + abs(vds) + 1))
    slack = 1e-14 * beta  # rounding of values of order beta * volts^2
    assert abs(ids[1] - ids[0]) <= 2 * h * (abs(gm).max() + abs(gds).max()) + bound + slack
    assert abs(gm[1] - gm[0]) <= bound + slack
    assert abs(gds[1] - gds[0]) <= bound + slack
