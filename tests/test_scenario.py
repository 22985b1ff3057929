import math

import numpy as np
import pytest

from diffload.scenario import (
    ALPHA_FLOOR_DELTA,
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
