"""Problem instances: users, edge resources, channel and timing parameters.

A :class:`Scenario` is one decision round: a set of users that sent
offloading requests during the interval, the edge server configuration,
and the parameters of the accuracy curve. Scenarios are plain values;
generation and (de)serialization are deterministic given a seed. The
model's primitives sit beside the parameters they read: the per-step
latencies :func:`step_latency_local` and :func:`step_latency_edge`, the
fitted accuracy curve :func:`fitted_pai`, its marginal rate
:func:`marginal_pai_rate`, and :func:`stationary_point`, the closed-form
inverse of that rate. They are defined here only: the scalar reference
:mod:`diffload.split` and the array model :mod:`diffload.costmodel` both
read them from this module. A scenario's array model is
:attr:`Scenario.model`, built on first read, checked there to stay in
floating-point range, and kept out of the scenario's value and file.

Units are SI throughout: seconds, bits, Hz. The request timeline is
discretized into ``slots_per_interval`` slots of ``slot_duration`` seconds
each, so the response waiting time of a user requesting at slot k is
``(K - k) * slot_duration`` seconds.
"""

from __future__ import annotations

import bisect
import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

if typing.TYPE_CHECKING:
    from .costmodel import CostModel


class ValidationError(ValueError):
    """Raised when a config or scenario field violates its invariant."""


def _require(cond: bool, field_name: str, message: str, *args) -> None:
    """Raise ``ValidationError("<field_name>: <message>")`` unless `cond` holds.

    `message` is a ``str.format`` template filled with `args` only on failure,
    so a passing check formats nothing.
    """
    if not cond:
        raise ValidationError(f"{field_name}: {message.format(*args)}")


@dataclass(frozen=True)
class DeviceProfile:
    """Per-step compute latency model of one GPU class: latency(b) = slope*b + intercept."""

    name: str
    step_slope: float   # seconds per unit of batch size
    step_intercept: float  # seconds, fixed cost per denoising step

    def __post_init__(self):
        _require(0 <= self.step_slope < math.inf, "step_slope",
                 "must be finite and >= 0, got {}", self.step_slope)
        _require(0 < self.step_intercept < math.inf, "step_intercept",
                 "must be finite and > 0, got {}", self.step_intercept)


@dataclass(frozen=True)
class UserRequest:
    id: int
    device: DeviceProfile
    alpha: float            # emphasis weight between accuracy term and latency
    request_slot: int       # slot index in [1, K] at which the request was sent
    prompt_bits: float      # uplink payload size
    intermediate_bits: float  # downlink payload size (intermediate noisy latent)
    # Set by the generator when the alpha band was degenerate; older files lack it.
    alpha_clamped: bool = field(default=False, metadata={"optional": True})

    def __post_init__(self):
        _require(0 < self.alpha < math.inf, "alpha", "must be finite and > 0, got {}", self.alpha)
        _require(0 < self.prompt_bits < math.inf, "prompt_bits",
                 "must be finite and > 0, got {}", self.prompt_bits)
        _require(0 < self.intermediate_bits < math.inf, "intermediate_bits",
                 "must be finite and > 0, got {}", self.intermediate_bits)
        _require(self.request_slot >= 1, "request_slot",
                 "must be >= 1, got {}", self.request_slot)


@dataclass(frozen=True)
class EdgeConfig:
    gpus: int
    device: DeviceProfile
    b_max: int                  # concurrent-user limit per decision round
    slots_per_interval: int     # K
    slot_duration: float        # seconds per slot
    bandwidth_hz: float         # reserved maximum bandwidth W_max
    spectral_efficiency: float  # bits/s/Hz

    def __post_init__(self):
        _require(self.gpus >= 1, "gpus", "must be >= 1, got {}", self.gpus)
        _require(self.b_max >= 0, "b_max", "must be >= 0, got {}", self.b_max)
        _require(self.slots_per_interval >= 1, "slots_per_interval",
                 "must be >= 1, got {}", self.slots_per_interval)
        _require(0 < self.slot_duration < math.inf, "slot_duration",
                 "must be finite and > 0, got {}", self.slot_duration)
        _require(0 < self.bandwidth_hz < math.inf, "bandwidth_hz",
                 "must be finite and > 0, got {}", self.bandwidth_hz)
        _require(0 < self.spectral_efficiency < math.inf, "spectral_efficiency",
                 "must be finite and > 0, got {}", self.spectral_efficiency)


@dataclass(frozen=True)
class PaiParams:
    """Parameters of the accuracy-vs-split-point curve and its building blocks.

    The fitted curve is the logistic ``F(n) = 1 / (1 + exp(-a_f * (n - b_f)))``
    mapping the split point n (number of locally executed steps) to the
    personalized accuracy score. ``kappa_pai``, ``sigma_a`` and ``sigma_b``
    belong to the raw composite score over externally measured CLIP/LPIPS
    values; the fitted curve is what the optimization consumes.
    """

    n_total: int = 200   # N: total denoising steps
    n_min: int = 80      # minimum locally executed steps
    a_f: float = 0.0413  # logistic slope (1/steps)
    b_f: float = 71.44   # logistic midpoint (steps)
    kappa_pai: float = 3.0
    sigma_a: float = 30.0
    sigma_b: float = 0.1

    def __post_init__(self):
        for name in ("b_f", "kappa_pai", "sigma_a", "sigma_b"):
            _require(math.isfinite(getattr(self, name)), name,
                     "must be finite, got {}", getattr(self, name))
        _require(0 < self.n_min < self.n_total, "n_min",
                 "need 0 < n_min < n_total, got {}, {}", self.n_min, self.n_total)
        _require(0 < self.a_f < math.inf, "a_f", "must be finite and > 0, got {}", self.a_f)
        # The curve is increasing, so F > 0.5 on the whole domain iff it holds
        # at the left endpoint. The split-point problem is only concave under
        # this condition.
        f_min = fitted_pai(self.n_min, self)
        _require(f_min > 0.5, "b_f",
                 "fitted curve must exceed 0.5 on [n_min, n_total]; F({}) = {}", self.n_min, f_min)
        # The alpha band divides by the slope at both ends (see `alpha_band`);
        # a steep curve rounds F(n_total) to 1 and the slope there to 0.
        for split in (self.n_min, self.n_total):
            slope = marginal_pai_rate(split, 1.0, self)
            _require(0 < slope < math.inf, "a_f",
                     "fitted curve slope a_f*F*(1-F) at n = {} must be finite and > 0, got {}",
                     split, slope)


def step_latency_local(device: DeviceProfile) -> float:
    """Per-step latency of local inference (batch size 1)."""
    return device.step_slope * 1.0 + device.step_intercept


def step_latency_edge(device: DeviceProfile, batch: int, gpus: int) -> float:
    """Per-step latency at the edge for a given batch spread over `gpus` GPUs."""
    return device.step_slope * (batch / gpus) + device.step_intercept


def fitted_pai(split: float, pai: PaiParams) -> float:
    """Fitted accuracy curve F(n) = 1 / (1 + exp(-a_f * (n - b_f)))."""
    return 1.0 / (1.0 + math.exp(-pai.a_f * (split - pai.b_f)))


def marginal_pai_rate(n: float, alpha, pai: PaiParams):
    """Marginal accuracy gain per extra local step, alpha * a_f * F(n)(1 - F(n)),
    for one weight or an array of them; at alpha 1.0 it is the slope dF/dn."""
    f = fitted_pai(n, pai)
    return alpha * pai.a_f * f * (1.0 - f)


def stationary_point(alpha, delta, pai: PaiParams, out=None):
    """The split n > b_f at which the marginal accuracy rate equals `delta`.

    The rate is alpha * a_f * F(n)(1 - F(n)), so F(1 - F) = c with
    c = delta / (alpha * a_f) gives the upper branch
    F* = (1 + sqrt(1 - 4c)) / 2, and n* = b_f + logit(F*) / a_f. Since
    1 - F* = c / F*, the logit is log(F*^2 / c), which avoids the
    cancellation in 1 - F* when c is small. Requires 0 < c <= 1/4, which
    holds whenever the rate at n_min exceeds delta > 0; takes scalars or
    arrays alike. Cells outside that interior (delta <= 0, or c out of
    range) may give nan or inf, and the caller discards them.

    `out`, when given, is a pair of float arrays of the broadcast shape:
    c is written to the first and n* to the second, which is returned, and
    no other array of that shape is made.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(alpha), np.shape(delta))
        out = np.empty(shape), np.empty(shape)
    c, n = out
    np.divide(delta, np.multiply(alpha, pai.a_f), out=c)
    np.multiply(c, 4.0, out=n)
    np.subtract(1.0, n, out=n)
    np.maximum(n, 0.0, out=n)
    np.sqrt(n, out=n)
    n += 1.0
    n /= 2.0  # F*
    n *= n
    n /= c
    np.log(n, out=n)
    n /= pai.a_f
    n += pai.b_f
    return n


@dataclass(frozen=True)
class Scenario:
    users: list[UserRequest]
    edge: EdgeConfig
    pai: PaiParams
    seed: int

    def __post_init__(self):
        ids = [u.id for u in self.users]
        _require(ids == list(range(len(self.users))), "users",
                 "user ids must be contiguous from 0, got {}", ids)
        k = self.edge.slots_per_interval
        for u in self.users:
            _require(u.request_slot <= k, "request_slot",
                     "user {}: request_slot {} > K = {}", u.id, u.request_slot, k)

    @property
    def user_count(self) -> int:
        return len(self.users)

    @property
    def cap(self) -> int:
        """The most users one round can grant: the user count or b_max, the smaller."""
        return min(len(self.users), self.edge.b_max)

    @cached_property
    def model(self) -> CostModel:
        """The scenario's cost model, built on first read and kept.

        This is the one place a `costmodel.CostModel` is built from a
        scenario, and `costmodel.require_finite_model` checks it here, so a
        scenario whose model leaves floating-point range raises
        `ValidationError` wherever it is first used. Not a dataclass field:
        equality, `replace` and the file layout do not see it.
        """
        from .costmodel import CostModel, require_finite_model  # costmodel imports this module

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            model = CostModel.from_scenario(self)
            require_finite_model(self, model)
        return model


# Default GPU catalog. The per-step constants are illustrative fits in the
# style of vendor batching curves, chosen so that the edge profile at batch 20
# on 8 GPUs is faster per step than every local profile. They are
# configuration, not measured ground truth.
EDGE_DEVICE = DeviceProfile("h100-nvl", step_slope=0.004, step_intercept=0.010)

DEFAULT_CATALOG: tuple[tuple[DeviceProfile, float], ...] = (
    (DeviceProfile("gtx-1080", step_slope=0.090, step_intercept=1.010), 1.0),
    (DeviceProfile("rtx-2060", step_slope=0.075, step_intercept=0.825), 1.0),
    (DeviceProfile("rtx-3060", step_slope=0.060, step_intercept=0.640), 1.0),
    (DeviceProfile("rtx-3080", step_slope=0.045, step_intercept=0.505), 1.0),
    (DeviceProfile("rtx-4070", step_slope=0.035, step_intercept=0.385), 1.0),
    (DeviceProfile("rtx-4090", step_slope=0.025, step_intercept=0.275), 1.0),
)

DEFAULT_PROMPT_BITS = 216.0
DEFAULT_INTERMEDIATE_BITS = 4.4e6
# Substitute latency gap in the alpha band of a device no slower than the edge.
ALPHA_FLOOR_DELTA = 1e-3


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling law for random scenarios.

    Each user draws a device from ``device_catalog`` (weighted), a request
    slot uniform on [1, K], and an emphasis weight alpha uniform on the
    trade-off band

        [ dl / (a_f * F(n_min) * (1 - F(n_min))),
          alpha_kappa * dl / (a_f * F(n_total) * (1 - F(n_total))) ]

    where ``dl`` is the gap between the device's local per-step latency and
    the edge per-step latency at the assumed batch ``alpha_bhat``. Inside
    this band the split-point problem has a genuine accuracy/latency
    trade-off; below it the user would only care about latency, above it
    only about accuracy.

    ``alpha_ref_gpus`` pins the GPU count used in the alpha band, so sweeps
    over the edge GPU count can hold the user population fixed. When unset,
    the edge config's own GPU count is used.
    """

    user_count: int
    device_catalog: tuple[tuple[DeviceProfile, float], ...] = DEFAULT_CATALOG
    alpha_bhat: int = 20
    alpha_kappa: float = 0.05
    alpha_ref_gpus: int | None = None

    def __post_init__(self):
        _require(self.user_count >= 1, "user_count", "must be >= 1, got {}", self.user_count)
        _require(len(self.device_catalog) > 0, "device_catalog", "must be non-empty")
        _require(0 < self.alpha_kappa <= 1, "alpha_kappa",
                 "must be in (0, 1], got {}", self.alpha_kappa)
        _require(self.alpha_bhat >= 1, "alpha_bhat", "must be >= 1, got {}", self.alpha_bhat)
        # The generator draws devices from the normalised cumulative weights,
        # which only hold a probability law when every weight and the total
        # are finite.
        for dev, w in self.device_catalog:
            _require(w > 0, "device_catalog", "weight for {} must be > 0, got {}", dev.name, w)
            _require(w < math.inf, "device_catalog",
                     "weight for {} must be finite, got {}", dev.name, w)
        total = sum(w for _, w in self.device_catalog)
        _require(total < math.inf, "device_catalog",
                 "weights must have a finite sum, got {}", total)


def default_edge(gpus: int = 8, b_max: int = 16) -> EdgeConfig:
    return EdgeConfig(
        gpus=gpus,
        device=EDGE_DEVICE,
        b_max=b_max,
        slots_per_interval=100,
        slot_duration=0.01,
        bandwidth_hz=1e6,
        spectral_efficiency=10.0,
    )


def alpha_band(device: DeviceProfile, cfg: GeneratorConfig, edge: EdgeConfig,
                pai: PaiParams) -> tuple[float, float, bool]:
    """Alpha sampling interval for one device; third element flags the clamp path."""
    gpus = cfg.alpha_ref_gpus if cfg.alpha_ref_gpus is not None else edge.gpus
    delta = step_latency_local(device) - step_latency_edge(edge.device, cfg.alpha_bhat, gpus)
    lo_den = marginal_pai_rate(pai.n_min, 1.0, pai)
    hi_den = marginal_pai_rate(pai.n_total, 1.0, pai)
    if delta <= 0:
        # Local inference is already at least as fast as the edge at the
        # assumed batch; the trade-off band is empty. Fall back to the band's
        # lower edge computed with a small positive latency gap.
        return ALPHA_FLOOR_DELTA / lo_den, ALPHA_FLOOR_DELTA / lo_den, True
    lo = delta / lo_den
    hi = cfg.alpha_kappa * delta / hi_den
    _require(hi >= lo, "alpha_kappa",
             "alpha band is empty for device {}: [{}, {}]", device.name, lo, hi)
    return lo, hi, False


def generate_scenario(seed: int, cfg: GeneratorConfig, edge: EdgeConfig,
                      pai: PaiParams | None = None) -> Scenario:
    """Draw a scenario deterministically from (seed, cfg, edge, pai).

    Each user takes three draws from one stream, in the order and with the
    arithmetic of ``rng.choice(len(catalog), p=weights)``, ``rng.integers(1,
    K + 1)`` and ``rng.uniform(lo, hi)``: numpy's choice looks one uniform up
    in the normalised cumulative weights, and its uniform is
    ``lo + (hi - lo) * u``. Neither the table nor a device's alpha band
    depends on the user, so each is built once per call.
    """
    pai = pai if pai is not None else PaiParams()
    rng = np.random.default_rng(seed)
    weights = np.array([w for _, w in cfg.device_catalog], dtype=float)
    weights = weights / weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    devices = [device for device, _ in cfg.device_catalog]
    # A device's band is computed when a user first draws it, so an empty
    # band fails the call only if some user draws that device.
    bands: list[tuple[float, float, bool] | None] = [None] * len(devices)
    users = []
    for i in range(cfg.user_count):
        dev_idx = bisect.bisect_right(cdf, rng.random())
        device = devices[dev_idx]
        slot = int(rng.integers(1, edge.slots_per_interval + 1))
        band = bands[dev_idx]
        if band is None:
            band = bands[dev_idx] = alpha_band(device, cfg, edge, pai)
        lo, hi, clamped = band
        alpha = lo if clamped else lo + (hi - lo) * rng.random()
        users.append(UserRequest(
            id=i,
            device=device,
            alpha=alpha,
            request_slot=slot,
            prompt_bits=DEFAULT_PROMPT_BITS,
            intermediate_bits=DEFAULT_INTERMEDIATE_BITS,
            alpha_clamped=clamped,
        ))
    return Scenario(users=users, edge=edge, pai=pai, seed=seed)


# ---------------------------------------------------------------------------
# JSON persistence. The on-disk layout is the dataclasses' fields, written by
# `asdict` and read back by `read_fields`:
# {"seed": ..., "users": [{...}, ...], "edge": {...}, "pai": {...}}
# with all latencies in seconds, sizes in bits, bandwidth in Hz.
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    # The seed leads, as it always has in scenario files.
    return {"seed": s.seed, **asdict(s)}


def checked_integer(value, name: str) -> int:
    """An integer field or CLI option: an integral number that is not a
    boolean and that int64 holds, as the cost model's arrays do."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValidationError(f"{name}: must be an integer, got {value!r}")
    if not -2**63 <= value < 2**63:
        raise ValidationError(f"{name}: must be an integer within int64, got {value!r}")
    return int(value)


def _flag(value, name: str) -> bool:
    """A flag field: JSON true or false."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name}: must be true or false, got {value!r}")
    return value


@cache
def field_types(cls) -> dict[str, typing.Any]:
    """The resolved annotation of each field of dataclass `cls`."""
    return typing.get_type_hints(cls)


def read_fields(cls, obj, path: str = "", skip: tuple[str, ...] = ()) -> dict:
    """The keyword arguments of dataclass `cls`, read from the JSON object `obj`.

    Each field present in `obj` is converted by its annotation (see
    `_read_value`), and every error names the field's dotted path under
    `path`. A field is required, default or not, unless its metadata marks
    it ``optional``; keys that name no field are ignored, and the fields in
    `skip` are left to the caller. An absent field, a count that is not
    integral and a flag that is not a boolean raise `ValidationError`; any
    other value of the wrong JSON type (a float field takes a number that is
    not a boolean, a str field a string) raises `TypeError` naming the
    field's path, which the caller reports as a malformed file.
    """
    if not isinstance(obj, dict):
        raise TypeError(f"{path}: must be a JSON object, got {type(obj).__name__}")
    types = field_types(cls)
    values = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        name = f"{path}.{f.name}" if path else f.name
        if f.name in obj:
            values[f.name] = _read_value(types[f.name], obj[f.name], name)
        elif not f.metadata.get("optional"):
            raise ValidationError(f"{name}: missing field")
    return values


def _read_value(kind, value, name: str):
    """`value` as a `kind`: int, bool, float, str, a dataclass, ``list[T]`` or
    ``tuple[T, ...]``."""
    if kind is int:
        return checked_integer(value, name)
    if kind is bool:
        return _flag(value, name)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{name}: must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError as e:
            raise TypeError(f"{name}: {e}") from e
    if kind is str:
        if not isinstance(value, str):
            raise TypeError(f"{name}: must be a string, got {value!r}")
        return value
    if is_dataclass(kind):
        return kind(**read_fields(kind, value, name))
    if not isinstance(value, list):
        raise TypeError(f"{name}: must be a JSON array, got {type(value).__name__}")
    item = typing.get_args(kind)[0]
    return typing.get_origin(kind)(
        _read_value(item, v, f"{name}[{j}]") for j, v in enumerate(value))


def scenario_from_dict(obj: dict) -> Scenario:
    """Build a scenario from its JSON layout; every malformed input is a ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError(f"scenario file must hold a JSON object, got {type(obj).__name__}")
    try:
        return Scenario(**read_fields(Scenario, obj))
    except ValidationError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ValidationError(f"malformed scenario file ({e})") from e


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file; every malformed file, and every scenario whose
    model leaves floating-point range (`Scenario.model`), raises
    `ValidationError`."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: not valid JSON at line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not valid JSON ({e})") from e
    scenario = scenario_from_dict(obj)
    scenario.model  # builds and checks the model
    return scenario
