import math
from dataclasses import replace

import numpy as np
import pytest

from diffload.scenario import (
    ALPHA_FLOOR_DELTA,
    DEFAULT_INTERMEDIATE_BITS,
    DEFAULT_PROMPT_BITS,
    DeviceProfile,
    EdgeConfig,
    GeneratorConfig,
    PaiParams,
    Scenario,
    UserRequest,
    ValidationError,
    alpha_band,
    default_edge,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def reference_generate(seed, cfg, edge, pai=None):
    """The per-user reference loop: `rng.choice` with `p`, one `alpha_band`
    per user and `rng.uniform`. `generate_scenario` must draw the same
    stream and build the same scenario."""
    pai = pai if pai is not None else PaiParams()
    rng = np.random.default_rng(seed)
    weights = np.array([w for _, w in cfg.device_catalog], dtype=float)
    weights = weights / weights.sum()
    users = []
    for i in range(cfg.user_count):
        dev_idx = int(rng.choice(len(cfg.device_catalog), p=weights))
        device = cfg.device_catalog[dev_idx][0]
        slot = int(rng.integers(1, edge.slots_per_interval + 1))
        lo, hi, clamped = alpha_band(device, cfg, edge, pai)
        alpha = lo if clamped else float(rng.uniform(lo, hi))
        users.append(UserRequest(
            id=i, device=device, alpha=alpha, request_slot=slot,
            prompt_bits=DEFAULT_PROMPT_BITS, intermediate_bits=DEFAULT_INTERMEDIATE_BITS,
            alpha_clamped=clamped))
    return Scenario(users=users, edge=edge, pai=pai, seed=seed)


def _random_case(rng):
    """A weighted catalog of 1-7 devices (some no slower than the edge, which
    takes the clamped path), 1-79 users, K in [1, 299], 1-16 GPUs, an optional
    alpha_ref_gpus and an alpha_kappa low enough to empty some bands."""
    catalog = tuple(
        (DeviceProfile(f"d{j}", float(rng.uniform(0, 0.1)), float(rng.uniform(0.001, 1.0))),
         float(rng.uniform(0.01, 5)))
        for j in range(int(rng.integers(1, 8))))
    cfg = GeneratorConfig(
        user_count=int(rng.integers(1, 80)), device_catalog=catalog,
        alpha_bhat=int(rng.integers(1, 41)), alpha_kappa=float(rng.uniform(0.01, 1.0)),
        alpha_ref_gpus=None if rng.random() < 0.5 else int(rng.integers(1, 17)))
    edge = replace(default_edge(gpus=int(rng.integers(1, 17))),
                   slots_per_interval=int(rng.integers(1, 300)))
    return int(rng.integers(0, 2**32)), cfg, edge


def _outcome(generate, seed, cfg, edge):
    try:
        return scenario_to_dict(generate(seed, cfg, edge))
    except ValidationError as exc:
        return f"error: {exc}"


def test_generate_draws_the_reference_stream():
    rng = np.random.default_rng(20240)
    clamped = failed = 0
    for _ in range(1000):
        seed, cfg, edge = _random_case(rng)
        expected = _outcome(reference_generate, seed, cfg, edge)
        assert _outcome(generate_scenario, seed, cfg, edge) == expected
        if isinstance(expected, str):
            failed += 1
        else:
            clamped += any(u["alpha_clamped"] for u in expected["users"])
    assert clamped > 0 and failed > 0


@pytest.mark.parametrize("weights, message", [
    ((math.inf, 1.0), "weight for a must be finite, got inf"),
    ((1e308, 1e308), "weights must have a finite sum, got inf"),
], ids=["infinite", "overflowing-sum"])
def test_catalog_weights_must_form_a_finite_law(weights, message):
    # numpy's choice rejected these when it drew; the cumulative table would not.
    catalog = tuple(zip((DeviceProfile("a", 0.1, 1.0), DeviceProfile("b", 0.1, 0.5)), weights))
    with pytest.raises(ValidationError) as info:
        GeneratorConfig(user_count=3, device_catalog=catalog)
    assert str(info.value) == f"device_catalog: {message}"


_DEV = DeviceProfile("d", 0.1, 0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: DeviceProfile("x", -1.0, 0.1), "step_slope: must be finite and >= 0, got -1.0"),
    (lambda: UserRequest(0, _DEV, 1.0, 1, math.nan, 1),
     "prompt_bits: must be finite and > 0, got nan"),
    (lambda: EdgeConfig(1, _DEV, 4, 100, 0.01, math.inf, 10.0),
     "bandwidth_hz: must be finite and > 0, got inf"),
    (lambda: PaiParams(n_min=300), "n_min: need 0 < n_min < n_total, got 300, 200"),
    (lambda: Scenario([UserRequest(1, _DEV, 1.0, 1, 1, 1), UserRequest(0, _DEV, 1.0, 1, 1, 1)],
                      default_edge(), PaiParams(), 0),
     "users: user ids must be contiguous from 0, got [1, 0]"),
    (lambda: Scenario([UserRequest(0, _DEV, 1.0, 101, 1, 1)], default_edge(), PaiParams(), 0),
     "request_slot: user 0: request_slot 101 > K = 100"),
    (lambda: GeneratorConfig(user_count=1, device_catalog=((_DEV, -0.5),)),
     "device_catalog: weight for d must be > 0, got -0.5"),
    (lambda: alpha_band(DeviceProfile("slow", 0.1, 1.0),
                        GeneratorConfig(user_count=1, alpha_kappa=0.001), default_edge(),
                        PaiParams()),
     "alpha_kappa: alpha band is empty for device slow: "
     "[107.90296190190506, 5.341415514455329]"),
], ids=["DeviceProfile", "UserRequest", "EdgeConfig", "PaiParams", "Scenario-ids",
        "Scenario-slot", "GeneratorConfig", "alpha_band"])
def test_validation_message_text(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_generate_deterministic():
    cfg = GeneratorConfig(user_count=12)
    edge = default_edge()
    a = generate_scenario(7, cfg, edge)
    b = generate_scenario(7, cfg, edge)
    assert a == b


def test_generate_different_seeds_differ():
    cfg = GeneratorConfig(user_count=12)
    edge = default_edge()
    assert generate_scenario(7, cfg, edge) != generate_scenario(8, cfg, edge)


def test_alpha_within_published_interval():
    # Recompute the sampling band directly from its definition and check
    # every drawn alpha against it.
    cfg = GeneratorConfig(user_count=20, alpha_bhat=20, alpha_kappa=0.05)
    edge = default_edge(gpus=8)
    pai = PaiParams()
    scenario = generate_scenario(3, cfg, edge, pai)

    def curve(n):
        return 1.0 / (1.0 + math.exp(-pai.a_f * (n - pai.b_f)))

    for user in scenario.users:
        local = user.device.step_slope + user.device.step_intercept
        at_edge = edge.device.step_slope * 20 / 8 + edge.device.step_intercept
        delta = local - at_edge
        assert delta > 0  # default catalog keeps the edge faster at the assumed batch
        lo = delta / (pai.a_f * curve(80) * (1 - curve(80)))
        hi = 0.05 * delta / (pai.a_f * curve(200) * (1 - curve(200)))
        assert lo <= user.alpha <= hi
        assert not user.alpha_clamped


def test_alpha_band_increases_with_slower_devices():
    cfg = GeneratorConfig(user_count=1)
    edge = default_edge()
    slow = DeviceProfile("slow", 0.1, 1.0)
    fast = DeviceProfile("fast", 0.01, 0.3)
    lo_s, hi_s, _ = alpha_band(slow, cfg, edge, PaiParams())
    lo_f, hi_f, _ = alpha_band(fast, cfg, edge, PaiParams())
    assert lo_s > lo_f and hi_s > hi_f


def test_degenerate_alpha_band_clamps_and_flags():
    # Catalog device exactly matching the edge profile: zero latency gap.
    edge = default_edge(gpus=1)
    same = DeviceProfile("same-as-edge", edge.device.step_slope * 20,
                         edge.device.step_intercept)
    # latency of `same` at batch 1 equals edge latency at batch 20 on 1 GPU
    cfg = GeneratorConfig(user_count=5, device_catalog=((same, 1.0),), alpha_bhat=20)
    scenario = generate_scenario(11, cfg, edge)
    pai = PaiParams()
    f80 = 1.0 / (1.0 + math.exp(-pai.a_f * (80 - pai.b_f)))
    expected = ALPHA_FLOOR_DELTA / (pai.a_f * f80 * (1 - f80))
    for user in scenario.users:
        assert user.alpha_clamped
        assert user.alpha == pytest.approx(expected, rel=1e-12)


def test_curve_too_steep_for_the_alpha_band_is_rejected():
    # With a_f = 1, F(n_total) rounds to 1 and the band's upper edge would
    # divide by a_f * F * (1 - F) = 0.
    with pytest.raises(ValidationError, match=r"^a_f: .* at n = 200 .* got 0\.0$"):
        generate_scenario(1, GeneratorConfig(user_count=3), default_edge(), PaiParams(a_f=1.0))


def test_roundtrip_save_load(tmp_path):
    scenario = generate_scenario(21, GeneratorConfig(user_count=9), default_edge())
    path = tmp_path / "s.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_roundtrip_is_byte_stable(tmp_path):
    scenario = generate_scenario(5, GeneratorConfig(user_count=6), default_edge())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(scenario, p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_negative_b_max(tmp_path):
    scenario = generate_scenario(4, GeneratorConfig(user_count=3), default_edge())
    obj = scenario_to_dict(scenario)
    obj["edge"]["b_max"] = -1
    with pytest.raises(ValidationError, match="b_max"):
        scenario_from_dict(obj)


def test_load_rejects_request_slot_beyond_interval(tmp_path):
    scenario = generate_scenario(4, GeneratorConfig(user_count=3), default_edge())
    obj = scenario_to_dict(scenario)
    obj["users"][0]["request_slot"] = obj["edge"]["slots_per_interval"] + 1
    with pytest.raises(ValidationError, match="request_slot"):
        scenario_from_dict(obj)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ValidationError, match="line"):
        load_scenario(path)


def test_validation_names_offending_field():
    with pytest.raises(ValidationError, match="step_intercept"):
        DeviceProfile("bad", 0.1, 0.0)
    with pytest.raises(ValidationError, match="alpha"):
        UserRequest(0, DeviceProfile("d", 0.1, 0.1), alpha=0.0, request_slot=1,
                    prompt_bits=1, intermediate_bits=1)
    with pytest.raises(ValidationError, match="gpus"):
        EdgeConfig(0, DeviceProfile("d", 0.1, 0.1), 4, 100, 0.01, 1e6, 10.0)
    with pytest.raises(ValidationError, match="user_count"):
        GeneratorConfig(user_count=0)
    with pytest.raises(ValidationError, match="n_min"):
        PaiParams(n_min=300)


def test_user_ids_must_be_contiguous():
    edge = default_edge()
    dev = DeviceProfile("d", 0.1, 0.5)
    users = [UserRequest(1, dev, 1.0, 1, 216, 4.4e6)]
    with pytest.raises(ValidationError, match="contiguous"):
        Scenario(users=users, edge=edge, pai=PaiParams(), seed=0)


def test_request_slots_cover_interval():
    # Sanity on the uniform slot law: all draws within [1, K].
    cfg = GeneratorConfig(user_count=300)
    scenario = generate_scenario(13, cfg, default_edge())
    slots = [u.request_slot for u in scenario.users]
    assert min(slots) >= 1
    assert max(slots) <= scenario.edge.slots_per_interval
    # with 300 draws over 100 slots both halves should be populated
    assert any(s <= 50 for s in slots) and any(s > 50 for s in slots)
