"""Square-law (level-1) MOSFET model with process-corner scaling.

The model covers cutoff, triode and saturation with channel-length
modulation, and supplies the analytic small-signal conductances the
Newton solver needs.  Source/drain are treated symmetrically: a negative
vds is evaluated with the terminals exchanged, which keeps the drain
current a continuous (C1) function of the terminal voltages.

`mosfet_eval`, over arrays of devices, is the one coding of the equations:
the engine calls it and `mosfet_current` / `mosfet_conductances` wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

NMOS = "nmos"
PMOS = "pmos"

# Gate width at which the calibration's cgs/cgd values apply; instantiated
# devices scale gate capacitance linearly with width, as a real process does.
CAP_REF_WIDTH = 260e-9

# process corners, one letter per polarity (NMOS then PMOS): Typical, Fast, Slow
STANDARD_CORNERS = ("TT", "FF", "FS", "SF", "SS")

# mosfet_eval's constants as 0-d float64 arrays: a Python-float operand
# costs a ufunc call about 0.5 us more on arrays of a few devices
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)


@dataclass(frozen=True)
class MosfetParams:
    """Device parameters for one transistor instance (SI units)."""

    polarity: str  # "nmos" | "pmos"
    vth0: float  # threshold voltage, V (negative for pmos)
    kprime: float  # transconductance parameter mu*Cox, A/V^2
    lam: float  # channel-length modulation, 1/V
    w: float  # gate width, m
    l: float  # gate length, m
    cgs: float = 0.0  # lumped gate-source capacitance, F
    cgd: float = 0.0  # lumped gate-drain capacitance, F

    def __post_init__(self):
        if self.polarity not in (NMOS, PMOS):
            raise ValueError(f"unknown polarity {self.polarity!r}")
        # finite first: NaN would pass every comparison below
        for name in ("vth0", "kprime", "lam", "w", "l", "cgs", "cgd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.w <= 0 or self.l <= 0:
            raise ValueError("w and l must be > 0")
        if self.kprime <= 0:
            raise ValueError("kprime must be > 0")
        if self.lam < 0 or self.cgs < 0 or self.cgd < 0:
            raise ValueError("lam, cgs, cgd must be >= 0")
        if self.polarity == NMOS and self.vth0 <= 0:
            raise ValueError("nmos vth0 must be > 0")
        if self.polarity == PMOS and self.vth0 >= 0:
            raise ValueError("pmos vth0 must be < 0")

    @property
    def beta(self) -> float:
        """kprime * w / l, the square-law current prefactor."""
        return self.kprime * self.w / self.l


def mosfet_eval(vgs, vds, beta, vth, lam, sign, beta_lam):
    """Level-1 drain currents and conductances of a set of devices.

    The arguments are arrays over the devices (a parameter shared by all
    may be a scalar): the sign-folded bias vgs = sign * (vg - vs),
    vds = sign * (vd - vs), then beta, |vth0|, lambda, sign (+1 nmos,
    -1 pmos) and the product beta * lambda, which callers form once.
    Returns one (3, devices) array whose rows are (ids, gm, gds): the drain
    current in amperes and its derivatives by vgs and vds, which the double
    sign flip makes the same for both polarities.

    With vov clamped at zero and vmin = min(vds, vov), one polynomial
    covers cutoff, triode and saturation:
        i   = beta * vmin * (vov - vmin/2) * clm
        gm  = beta * vmin * clm
        gds = beta * (max(vov - vds, 0) * clm + poly * lambda)
    which reduces to the familiar per-region forms. A reversed channel
    (vds < 0) is evaluated with drain and source exchanged.
    """
    vds_c = np.abs(vds)
    vov = vgs - np.minimum(vds, _ZERO)  # the gate drive is vgs - vds when reversed
    vov -= vth
    np.maximum(vov, _ZERO, out=vov)
    vmin = np.minimum(vds_c, vov)
    poly = vov - _HALF * vmin
    poly *= vmin
    bclm = lam * vds_c
    bclm += _ONE
    bclm *= beta
    out = np.empty((3,) + vmin.shape)
    ids, gm, gds = out[0], out[1], out[2]
    np.multiply(bclm, poly, out=ids)
    np.copysign(ids, vds, out=ids)
    ids *= sign
    np.multiply(bclm, vmin, out=gm)
    np.copysign(gm, vds, out=gm)
    np.subtract(vov, vmin, out=gds)  # max(vov - vds, 0)
    gds *= bclm
    poly *= beta_lam
    gds += poly
    # a reversed channel adds beta * clm * vmin, which is -gm there
    gds -= np.minimum(gm, _ZERO)
    return out


def _eval_one(p: MosfetParams, vgs: float, vds: float) -> list[float]:
    sign = 1.0 if p.polarity == NMOS else -1.0
    out = mosfet_eval(np.array([sign * vgs]), np.array([sign * vds]), p.beta,
                      abs(p.vth0), p.lam, sign, p.beta * p.lam)
    return out[:, 0].tolist()


def mosfet_current(p: MosfetParams, vgs: float, vds: float) -> float:
    """Drain current in amperes for the given gate-source/drain-source bias.

    PMOS devices are computed by sign reflection; a reversed channel
    (vds < 0 after reflection) is evaluated with drain and source
    exchanged, so the result is defined and continuous for all finite
    inputs.
    """
    return _eval_one(p, vgs, vds)[0]


def mosfet_conductances(p: MosfetParams, vgs: float, vds: float) -> tuple[float, float]:
    """Analytic (gm, gds) = (dI/dvgs, dI/dvds), region-consistent with
    mosfet_current."""
    _, gm, gds = _eval_one(p, vgs, vds)
    return gm, gds


# --------------------------------------------------------------------------
# Calibration: process defaults and corner scales
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessParams:
    """Per-polarity process parameters, independent of device geometry.
    A refusal names the calibration-file key after its polarity prefix
    (`lambda` for lam); ModelConfig checks the vth0 signs."""

    vth0: float
    kprime: float
    lam: float
    cgs: float
    cgd: float

    def __post_init__(self):
        keys = {"vth0": self.vth0, "kprime": self.kprime, "lambda": self.lam,
                "cgs": self.cgs, "cgd": self.cgd}
        for key, value in keys.items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if not self.kprime > 0:
            raise ValueError(f"kprime must be > 0, got {self.kprime!r}")
        for key in ("lambda", "cgs", "cgd"):
            if not keys[key] >= 0:
                raise ValueError(f"{key} must be >= 0, got {keys[key]!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Full device calibration: supply, both polarities, corner scales."""

    vdd: float = 1.2
    nmos: ProcessParams = ProcessParams(vth0=0.35, kprime=200e-6, lam=0.1, cgs=1e-16, cgd=1e-16)
    pmos: ProcessParams = ProcessParams(vth0=-0.35, kprime=80e-6, lam=0.1, cgs=1e-16, cgd=1e-16)
    fast_vth_scale: float = 0.9
    fast_k_scale: float = 1.15
    slow_vth_scale: float = 1.1
    slow_k_scale: float = 0.85

    def __post_init__(self):
        if not 0 < self.vdd < math.inf:  # NaN fails too
            raise ValueError(f"vdd must be finite and > 0, got {self.vdd!r}")
        for name in ("fast_vth_scale", "fast_k_scale", "slow_vth_scale", "slow_k_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"corner scale {name} must be finite and > 0, "
                                 f"got {getattr(self, name)!r}")
        if not self.nmos.vth0 > 0:
            raise ValueError(f"nmos.vth0 must be > 0, got {self.nmos.vth0!r}")
        if not self.pmos.vth0 < 0:
            raise ValueError(f"pmos.vth0 must be < 0, got {self.pmos.vth0!r}")

    def mosfet(self, polarity: str, w: float, l: float, corner: str = "TT") -> MosfetParams:
        """Instantiate device parameters for the given geometry at a corner.

        The corner is a STANDARD_CORNERS name: its first letter (T, F or S)
        scales the NMOS vth0 and kprime, its second the PMOS ones, by 1 or
        this calibration's fast or slow scales. The calibration's cgs/cgd
        are the values at CAP_REF_WIDTH; the instance capacitances scale
        linearly with the actual width.
        """
        if corner not in STANDARD_CORNERS:
            raise ValueError(f"unknown corner {corner!r}")
        proc, letter = (self.nmos, corner[0]) if polarity == NMOS else (self.pmos, corner[1])
        vth_scale, k_scale = {"T": (1.0, 1.0),
                              "F": (self.fast_vth_scale, self.fast_k_scale),
                              "S": (self.slow_vth_scale, self.slow_k_scale)}[letter]
        cap_scale = w / CAP_REF_WIDTH
        return MosfetParams(
            polarity=polarity,
            vth0=proc.vth0 * vth_scale,
            kprime=proc.kprime * k_scale,
            lam=proc.lam,
            w=w,
            l=l,
            cgs=proc.cgs * cap_scale,
            cgd=proc.cgd * cap_scale,
        )


DEFAULT_CONFIG = ModelConfig()

_CONFIG_KEYS = {
    "vdd": ("vdd",),
    "nmos.vth0": ("nmos", "vth0"),
    "nmos.kprime": ("nmos", "kprime"),
    "nmos.lambda": ("nmos", "lam"),
    "nmos.cgs": ("nmos", "cgs"),
    "nmos.cgd": ("nmos", "cgd"),
    "pmos.vth0": ("pmos", "vth0"),
    "pmos.kprime": ("pmos", "kprime"),
    "pmos.lambda": ("pmos", "lam"),
    "pmos.cgs": ("pmos", "cgs"),
    "pmos.cgd": ("pmos", "cgd"),
    "corner.fast.vth_scale": ("fast_vth_scale",),
    "corner.fast.k_scale": ("fast_k_scale",),
    "corner.slow.vth_scale": ("slow_vth_scale",),
    "corner.slow.k_scale": ("slow_k_scale",),
}


def load_config(path: str | Path) -> ModelConfig:
    """Read a `key = value` calibration file (SI units, # comments).

    Unspecified keys keep their compiled-in default (DEFAULT_CONFIG).
    A file that is not UTF-8 text (a byte-order mark may open it) is
    rejected, and so are unknown keys, a key set twice and a calibration
    that ProcessParams or ModelConfig refuses, such as vdd <= 0, a zero
    corner scale, nmos.kprime <= 0 or pmos.vth0 >= 0; the message names
    the file and, where there is one, the line or key.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 text file: {exc}") from None
    top: dict[str, float] = {}
    proc: dict[str, dict[str, float]] = {"nmos": {}, "pmos": {}}
    first_set: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if first_set.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first set on line {first_set[key]})")
        try:
            num = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number {value.strip()!r}") from exc
        if not math.isfinite(num):
            raise ValueError(f"{path}:{lineno}: {key} must be finite, got {value.strip()!r}")
        dest = _CONFIG_KEYS[key]
        if len(dest) == 1:
            top[dest[0]] = num
        else:
            proc[dest[0]][dest[1]] = num
    cfg = DEFAULT_CONFIG
    procs = {}
    for pol in (NMOS, PMOS):
        try:
            procs[pol] = replace(getattr(cfg, pol), **proc[pol])
        except ValueError as exc:
            raise ValueError(f"{path}: {pol}.{exc}") from None
    try:
        return replace(cfg, **procs, **top)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
