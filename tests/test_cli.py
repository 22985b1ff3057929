import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import diffload
from diffload.cli import main
from diffload.dqn import QNetwork, TrainedPolicy, save_policy
from diffload.qoe import fitted_pai, objective
from diffload.scenario import load_scenario
from diffload.sweep import REPORT_HEADER, read_report, write_report


def run(argv):
    return main([str(a) for a in argv])


# -- generate -------------------------------------------------------------------

def test_generate_roundtrips_and_validates(tmp_path):
    out = tmp_path / "s.json"
    assert run(["generate", "--seed", 7, "--users", 12, "--gpus", 8, "-o", out]) == 0
    scenario = load_scenario(out)
    assert scenario.user_count == 12
    assert scenario.edge.gpus == 8


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["generate", "--seed", 3, "--users", 9, "-o", a])
    run(["generate", "--seed", 3, "--users", 9, "-o", b])
    assert a.read_bytes() == b.read_bytes()


def test_generate_file_keeps_its_bytes(tmp_path):
    # SHA-256 of scenario.json as written when each dataclass was mirrored
    # into a dict field by field (x86-64 Linux, CPython 3.11, numpy 2.4).
    out = tmp_path / "s.json"
    assert run(["generate", "--seed", 3, "--users", 9, "-o", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56871147551d4464516a12986f425e3a0b0af65481b1d7a575a18fb0d8dc906f")


def test_generate_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "-o", tmp_path / "s.json"])
    assert exc.value.code != 0


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DIFFLOAD_OUT", str(tmp_path / "outdir"))
    assert run(["generate", "--seed", 1, "--users", 3]) == 0
    assert (tmp_path / "outdir" / "scenario.json").exists()


# -- solve ----------------------------------------------------------------------

@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    run(["generate", "--seed", 11, "--users", 10, "-o", path])
    return path


def test_solve_b3_matches_closed_form(tmp_path, scenario_file):
    out = tmp_path / "d.json"
    assert run(["solve", scenario_file, "--solver", "b3", "-o", out]) == 0
    payload = json.loads(out.read_text())
    scenario = load_scenario(scenario_file)
    expected = sum(
        u.alpha * fitted_pai(200, scenario.pai)
        - (100 - u.request_slot) * 0.01 - 200 * (u.device.step_slope + u.device.step_intercept)
        for u in scenario.users)
    assert payload["objective"] == pytest.approx(expected, rel=1e-12)
    assert payload["grant_count"] == 0
    assert all(not e["granted"] and e["split"] == 200 for e in payload["entries"])


def test_solve_oracle_agrees_with_exhaustive(tmp_path, scenario_file):
    oracle_out = tmp_path / "oracle.json"
    exhaustive_out = tmp_path / "exh.json"
    run(["solve", scenario_file, "--solver", "oracle", "-o", oracle_out])
    run(["solve", scenario_file, "--solver", "exhaustive", "-o", exhaustive_out])
    a = json.loads(oracle_out.read_text())["objective"]
    b = json.loads(exhaustive_out.read_text())["objective"]
    assert a == pytest.approx(b, rel=1e-9)


def test_solve_reports_latency_breakdown(tmp_path, scenario_file):
    out = tmp_path / "d.json"
    run(["solve", scenario_file, "--solver", "b1", "-o", out])
    payload = json.loads(out.read_text())
    for entry in payload["entries"]:
        lat = entry["latency"]
        assert lat["total"] == pytest.approx(
            lat["rtt"] + lat["uplink_downlink"] + lat["edge_compute"] + lat["local_compute"],
            rel=1e-12)


def test_solve_files_keep_their_bytes(tmp_path, scenario_file):
    # SHA-256 of decision.json as written when each entry's accuracy term and
    # latency parts were computed user by user with the scalar model
    # (x86-64 Linux, CPython 3.11, numpy 2.4).
    digests = {}
    for solver in ("b1", "b2", "b3", "oracle", "bnb", "ga"):
        out = tmp_path / f"{solver}.json"
        assert run(["solve", scenario_file, "--solver", solver, "--seed", 4, "-o", out]) == 0
        digests[solver] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {
        "b1": "e4457695b12da5be375a16afa0c97d390c7b947168c0cd1ba48b0c84e00ee378",
        "b2": "793fdcf5b7f68604f310a5b99b8d43a43cc0d01a2006e9c583858ad02dd43c67",
        "b3": "f8cca4ca0269af7ee457572b7fd726c87f2eeba317e9c9524b6d2aa2b464fd14",
        "oracle": "de4817852a3d230a243af6429d86b7a7c498fa0b366ba116b7abd08c0372f991",
        "bnb": "32f18a83b5827371ac5995b17ef5262fcd1230f3938b5c63239e7eb159354aa6",
        "ga": "e1f89ecfa8300b344d495a6f45d935208f294f24baf7917724883f2e4e3e1a7b",
    }


def test_solve_dqn_requires_policy(scenario_file):
    with pytest.raises(SystemExit) as exc:
        run(["solve", scenario_file, "--solver", "dqn"])
    assert exc.value.code != 0


def test_solve_missing_file_is_clean_error(tmp_path, capsys):
    assert run(["solve", tmp_path / "nope.json", "--solver", "b3"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_exhaustive_on_too_many_users_is_clean_error(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(["generate", "--seed", 7, "--users", 20, "-o", path])
    assert run(["solve", path, "--solver", "exhaustive", "-o", tmp_path / "d.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "refused for 20 users" in err
    assert not (tmp_path / "d.json").exists()


def solve_malformed(tmp_path, scenario_file, capsys, edit):
    """Solve a copy of the scenario file changed by `edit`; return (exit code, stderr)."""
    obj = json.loads(scenario_file.read_text())
    obj = edit(obj) or obj
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    code = run(["solve", path, "--solver", "oracle", "-o", tmp_path / "d.json"])
    return code, capsys.readouterr().err


def test_solve_non_numeric_field_is_clean_error(tmp_path, scenario_file, capsys):
    code, err = solve_malformed(tmp_path, scenario_file, capsys,
                                lambda obj: obj["edge"].update(bandwidth_hz="wide"))
    assert code == 2 and err.startswith("error:") and "malformed scenario file" in err


def test_solve_null_users_is_clean_error(tmp_path, scenario_file, capsys):
    code, err = solve_malformed(tmp_path, scenario_file, capsys,
                                lambda obj: obj.update(users=None))
    assert code == 2 and err.startswith("error:") and "malformed scenario file" in err


def test_solve_top_level_array_is_clean_error(tmp_path, scenario_file, capsys):
    code, err = solve_malformed(tmp_path, scenario_file, capsys, lambda obj: [obj])
    assert code == 2 and err.startswith("error:") and "JSON object" in err


def test_solve_undecodable_file_is_clean_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["solve", path, "--solver", "oracle", "-o", tmp_path / "d.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_solve_infinite_device_slope_is_clean_error(tmp_path, scenario_file, capsys):
    code, err = solve_malformed(tmp_path, scenario_file, capsys,
                                lambda obj: obj["users"][0]["device"].update(
                                    step_slope=float("inf")))
    assert code == 2 and err.startswith("error: step_slope: must be finite")
    assert not (tmp_path / "d.json").exists()


def test_solve_infinite_alpha_is_clean_error(tmp_path, scenario_file, capsys):
    code, err = solve_malformed(tmp_path, scenario_file, capsys,
                                lambda obj: obj["users"][0].update(alpha=float("inf")))
    assert code == 2 and err.startswith("error: alpha: must be finite")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("field, edit", [
    ("edge.gpus", lambda obj: obj["edge"].update(gpus=2.9)),
    ("users[0].request_slot", lambda obj: obj["users"][0].update(request_slot=3.7)),
    ("edge.b_max", lambda obj: obj["edge"].update(b_max=True)),
    ("pai.n_total", lambda obj: obj["pai"].update(n_total="200")),
])
def test_solve_non_integer_count_is_clean_error(tmp_path, scenario_file, capsys, field, edit):
    code, err = solve_malformed(tmp_path, scenario_file, capsys, edit)
    assert code == 2 and err.startswith(f"error: {field}: must be an integer")
    assert not (tmp_path / "d.json").exists()



@pytest.mark.parametrize("value", [2**63, 1e308])
@pytest.mark.parametrize("solver", ["oracle", "b1", "bnb"])
def test_solve_count_beyond_int64_is_clean_error(tmp_path, scenario_file, capsys, value, solver):
    obj = json.loads(scenario_file.read_text())
    obj["edge"]["slots_per_interval"] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert run(["solve", path, "--solver", solver, "-o", tmp_path / "d.json"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: edge.slots_per_interval: must be an integer within int64")
    assert not (tmp_path / "d.json").exists()


def set_field(obj, field, value):
    """Set the number at a dotted field path such as ``users[0].device.step_slope``."""
    *parents, leaf = field.replace("[0]", ".0").split(".")
    for key in parents:
        obj = obj[int(key)] if key.isdigit() else obj[key]
    obj[leaf] = value


# Each finite value that takes a user's modelled latency out of floating-point
# range; solvers used to write an objective of -Infinity or raise on them.
OUT_OF_RANGE = [
    ("users[0].device.step_slope", 1e308),
    ("users[0].device.step_intercept", 1e308),
    ("edge.slot_duration", 1e308),
    ("edge.bandwidth_hz", 1e-308),
    ("edge.spectral_efficiency", 1e-308),
    ("users[0].prompt_bits", 1e308),
    ("users[0].intermediate_bits", 1e308),
    ("edge.device.step_slope", 1e308),
    ("edge.device.step_intercept", 1e308),
]


@pytest.mark.parametrize("command", ["solve", "train"])
@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_a_model_out_of_floating_point_range_is_clean_error(tmp_path, scenario_file, capsys,
                                                            command, field, value):
    obj = json.loads(scenario_file.read_text())
    set_field(obj, field, value)
    path, out = tmp_path / "extreme.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    argv = (["solve", path, "--solver", "oracle"] if command == "solve" else
            ["train", "--scope", "specific", "--seed", 1, "--episodes", 1, "--scenario", path])
    assert run([*argv, "-o", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: {value!r} puts the model of")
    assert not out.exists()


@pytest.mark.parametrize("solver", ["oracle", "b1", "ga", "bnb"])
def test_every_device_at_1e308_is_clean_error(tmp_path, scenario_file, capsys, solver):
    # Each of these solvers used to raise (IndexError, or AssertionError in bnb).
    obj = json.loads(scenario_file.read_text())
    for device in [user["device"] for user in obj["users"]] + [obj["edge"]["device"]]:
        device.update(step_slope=1e308, step_intercept=1e308)
    obj["edge"]["gpus"] = 1
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(obj))
    assert run(["solve", path, "--solver", solver, "-o", tmp_path / "d.json"]) == 2
    assert capsys.readouterr().err.startswith("error: users[0].device.step_slope: 1e+308 ")
    assert not (tmp_path / "d.json").exists()

@pytest.mark.parametrize("field, value", [
    ("i_max", 5.7), ("i_max", True), ("hidden[0]", [256.5, 256, 256]), ("seed", 1.5),
    ("episodes", "1"),
])
def test_solve_dqn_non_integer_policy_count_is_clean_error(tmp_path, scenario_file, policy_file,
                                                           capsys, field, value):
    obj = json.loads(policy_file.read_text())
    obj[field.split("[")[0]] = value
    policy_file.write_text(json.dumps(obj))
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith(f"error: {field}: must be an integer")


@pytest.mark.parametrize("field", ["edge.device", "users[0].device.step_slope", "pai.a_f"])
def test_solve_missing_field_is_clean_error(tmp_path, scenario_file, capsys, field):
    def drop(obj):
        *parents, leaf = field.replace("[0]", ".0").split(".")
        for key in parents:
            obj = obj[int(key)] if key.isdigit() else obj[key]
        del obj[leaf]
    code, err = solve_malformed(tmp_path, scenario_file, capsys, drop)
    assert code == 2 and err.startswith(f"error: {field}: missing field")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("value", ["false", 0, None])
def test_solve_non_boolean_flag_is_clean_error(tmp_path, scenario_file, capsys, value):
    code, err = solve_malformed(tmp_path, scenario_file, capsys,
                                lambda obj: obj["users"][1].update(alpha_clamped=value))
    assert code == 2 and err.startswith("error: users[1].alpha_clamped: must be true or false")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("field, edit", [
    ("users[0].alpha", lambda obj: obj["users"][0].update(alpha=True)),
    ("users[0].alpha", lambda obj: obj["users"][0].update(alpha="0.5")),
    ("users[0].device.name", lambda obj: obj["users"][0]["device"].update(name={"a": 1})),
])
def test_solve_mistyped_number_or_string_is_clean_error(tmp_path, scenario_file, capsys, field,
                                                        edit):
    code, err = solve_malformed(tmp_path, scenario_file, capsys, edit)
    assert code == 2 and err.startswith("error:") and f"{field}: must be a " in err
    assert not (tmp_path / "d.json").exists()


def test_solve_accepts_integral_float_counts(tmp_path, scenario_file, capsys):
    code, err = solve_malformed(tmp_path, scenario_file, capsys,
                                lambda obj: obj["edge"].update(gpus=8.0))
    assert code == 0 and err == ""


def test_solve_accepts_files_without_alpha_clamped_or_with_unknown_keys(tmp_path, scenario_file,
                                                                        capsys):
    def edit(obj):
        for user in obj["users"]:
            del user["alpha_clamped"]
        obj["edge"]["note"] = "ignored"
    code, err = solve_malformed(tmp_path, scenario_file, capsys, edit)
    assert code == 0 and err == ""
    assert load_scenario(tmp_path / "malformed.json") == load_scenario(scenario_file)


# -- train ----------------------------------------------------------------------

def test_train_specific_writes_policy_and_curve(tmp_path, scenario_file):
    out = tmp_path / "p.json"
    code = run(["train", "--scope", "specific", "--seed", 5, "--episodes", 20,
                "--scenario", scenario_file, "-o", out])
    assert code == 0
    assert out.exists()
    curve = out.with_suffix(".curve.csv")
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "episode,return,smoothed_return"
    assert len(lines) == 21


def test_train_policy_solves_scenario(tmp_path, scenario_file):
    policy = tmp_path / "p.json"
    run(["train", "--scope", "specific", "--seed", 5, "--episodes", 15,
         "--scenario", scenario_file, "-o", policy])
    out = tmp_path / "d.json"
    assert run(["solve", scenario_file, "--solver", "dqn", "--policy", policy,
                "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["solver"] == "dqn"


@pytest.fixture()
def policy_file(tmp_path):
    """An untrained 10-user policy, as `diffload train` would write it."""
    net = QNetwork(10, rng=np.random.default_rng(0))
    path = tmp_path / "p.json"
    save_policy(TrainedPolicy(i_max=10, hidden=net.hidden, params=net.params, alpha_scale=1.0,
                              scope="specific", seed=0, episodes=1), path)
    return path


def solve_with_policy(scenario_file, policy, capsys):
    code = run(["solve", scenario_file, "--solver", "dqn", "--policy", policy])
    return code, capsys.readouterr().err


def test_solve_dqn_truncated_policy_is_clean_error(scenario_file, policy_file, capsys):
    text = policy_file.read_text()
    policy_file.write_text(text[:len(text) // 2])
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith("error:") and "not valid JSON" in err


def test_solve_dqn_policy_without_weights_is_clean_error(scenario_file, policy_file, capsys):
    obj = json.loads(policy_file.read_text())
    del obj["weights"]
    policy_file.write_text(json.dumps(obj))
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith("error:") and "'weights'" in err


def test_solve_dqn_policy_with_misshapen_weights_is_clean_error(scenario_file, policy_file,
                                                                capsys):
    obj = json.loads(policy_file.read_text())
    obj["weights"]["W0"] = {"shape": [3, 3], "data": [0.0] * 9}
    policy_file.write_text(json.dumps(obj))
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith("error:") and "do not fit i_max 10" in err


@pytest.mark.parametrize("alpha_scale", [0.0, float("nan"), float("inf"), -1.0])
def test_solve_dqn_policy_with_a_bad_alpha_scale_is_clean_error(scenario_file, policy_file,
                                                                 capsys, alpha_scale):
    obj = json.loads(policy_file.read_text())
    obj["alpha_scale"] = alpha_scale
    policy_file.write_text(json.dumps(obj))  # writes NaN and Infinity as bare tokens
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith("error:") and "alpha_scale" in err


def test_solve_dqn_policy_with_a_boolean_alpha_scale_is_clean_error(scenario_file, policy_file,
                                                                    capsys):
    obj = json.loads(policy_file.read_text())
    obj["alpha_scale"] = True
    policy_file.write_text(json.dumps(obj))
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith("error:") and "alpha_scale: must be a number" in err


def test_solve_dqn_policy_with_an_unknown_scope_is_clean_error(scenario_file, policy_file,
                                                               capsys):
    obj = json.loads(policy_file.read_text())
    obj["scope"] = "bogus"
    policy_file.write_text(json.dumps(obj))
    code, err = solve_with_policy(scenario_file, policy_file, capsys)
    assert code == 2 and err.startswith("error: scope: must be one of")


def test_train_on_a_scenario_without_users_is_clean_error(tmp_path, scenario_file, capsys):
    obj = json.loads(scenario_file.read_text())
    obj["users"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(obj))
    code = run(["train", "--scope", "specific", "--seed", 5, "--episodes", 2,
                "--scenario", empty, "-o", tmp_path / "p.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: users: scenario has no users")
    assert not (tmp_path / "p.json").exists()


def test_train_zero_budget_fails(tmp_path, scenario_file, capsys):
    code = run(["train", "--scope", "specific", "--seed", 5, "--episodes", 0,
                "--scenario", scenario_file, "-o", tmp_path / "p.json"])
    assert code == 2
    assert "episodes" in capsys.readouterr().err


def test_train_deterministic_bytes(tmp_path, scenario_file):
    a, b = tmp_path / "pa.json", tmp_path / "pb.json"
    for out in (a, b):
        run(["train", "--scope", "specific", "--seed", 9, "--episodes", 12,
             "--scenario", scenario_file, "-o", out])
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".curve.csv").read_bytes() == b.with_suffix(".curve.csv").read_bytes()


def test_train_files_keep_their_bytes(tmp_path, scenario_file):
    # SHA-256 of a 30-episode specific-scope run (75 train steps) and of two
    # generated scenarios, as written before the environment, the generator
    # and the quadratic form were moved onto the cost model (x86-64 Linux,
    # CPython 3.11, numpy 2.4). policy.json was taken again when training
    # moved to float32; its learning curve kept its bytes.
    policy = tmp_path / "policy.json"
    assert run(["train", "--scope", "specific", "--seed", 5, "--episodes", 30,
                "--scenario", scenario_file, "-o", policy]) == 0
    other = tmp_path / "other.json"
    assert run(["generate", "--seed", 3, "--users", 25, "--gpus", 4, "--b-max", 9,
                "-o", other]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (scenario_file, other, policy, policy.with_suffix(".curve.csv"))}
    assert digests == {
        "scenario.json": "0eb27fdee9f1294c43bd5153446c3096454a4a94361889b8ba90427266875d14",
        "other.json": "d79c0f29ab03c0dca32ed85ae427cccc9f168305325b2fa5d60c12d3c553086a",
        "policy.json": "c3d67e39cf61b003af9204d3305d04ff4773193850021666757ddb303e82a8cc",
        "policy.curve.csv": "ef2c5006717a825c36064fd90f680e6f4da34fa97121400513e34ecfbcd8fe99",
    }


def test_train_specific_ignores_the_user_range_of_other_scopes(tmp_path, capsys):
    # --users-min (default 10) bounds the drawn user counts of the general and
    # gpu scopes only; a specific scenario of 3 users draws none.
    out = tmp_path / "p.json"
    assert run(["train", "--scope", "specific", "--seed", 5, "--episodes", 2,
                "--users", 3, "-o", out]) == 0
    assert json.loads(out.read_text())["i_max"] == 3
    assert run(["train", "--scope", "gpu", "--seed", 5, "--episodes", 2,
                "--users", 3, "-o", tmp_path / "q.json"]) == 2
    assert "user_range: invalid (10, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("scope", ["gpu", "general"])
def test_train_rejects_a_fixed_scenario_outside_the_specific_scope(tmp_path, capsys, scope):
    # Only the specific scope trains on a fixed scenario; the others draw
    # their own, so a --scenario given with them would be silently ignored.
    scenario, out = tmp_path / "s.json", tmp_path / "p.json"
    assert run(["generate", "--seed", 3, "--users", 5, "-o", scenario]) == 0
    capsys.readouterr()
    assert run(["train", "--scope", scope, "--seed", 1, "--episodes", 2, "--users", 6,
                "--users-min", 3, "--scenario", scenario, "-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: fixed_scenario: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--seed", -1, "--users", 5], "--seed"),
    (["solve", "SCENARIO", "--solver", "ga", "--seed", -1], "--seed"),
    (["sweep", "--values", 3, "--cases", 1, "--seed", -1], "--seed"),
    (["train", "--scope", "specific", "--seed", -5, "--episodes", 1, "--users", 3,
      "--users-min", 1], "--seed"),
    (["sweep", "--values", "3,x", "--cases", 1, "--seed", 1], "--values"),
    (["sweep", "--values", ",3", "--cases", 1, "--seed", 1], "--values"),
    (["generate", "--seed", 1, "--users", 0], "user_count"),
    (["generate", "--seed", 1, "--b-max", -1], "b_max"),
    (["sweep", "--values", 0, "--cases", 1, "--seed", 1], "user_count"),
    (["sweep", "--axis", "gpus", "--values", 0, "--cases", 1, "--seed", 1], "gpus"),
    (["sweep", "--cases", 0, "--seed", 1], "cases"),
    (["train", "--scope", "specific", "--seed", 1, "--episodes", 1, "--users", 3,
      "--train-every", 0], "train_every"),
    (["train", "--scope", "specific", "--seed", 1, "--episodes", 0, "--users", 3], "episodes"),
    (["train", "--scope", "general", "--seed", 1, "--episodes", 1, "--gpus", 0], "gpus"),
    (["sweep", "--values", "4,4", "--cases", 2, "--seed", 1, "--solvers", "b1"], "values"),
    (["sweep", "--values", 4, "--cases", 2, "--seed", 1, "--solvers", "b1,b1"], "solvers"),
    (["sweep", "--values", "", "--cases", 1, "--seed", 1], "--values"),
])
def test_negative_seed_or_malformed_values_is_clean_error(tmp_path, scenario_file, capsys,
                                                          argv, flag):
    out = tmp_path / "out"
    argv = [scenario_file if a == "SCENARIO" else a for a in argv]
    assert run(argv + ["-o", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: must be")
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["solve", "{dir}", "--solver", "b3", "-o", "{out}"], "Is a directory"),
    (["solve", "{scenario}", "--solver", "dqn", "--policy", "{dir}", "-o", "{out}"],
     "Is a directory"),
    (["generate", "--seed", 1, "-o", "{dir}"], "Is a directory"),
    (["solve", "{scenario}", "--solver", "b3", "-o", "{dir}"], "Is a directory"),
    (["plot", "--report", "{dir}", "-o", "{out}"], "Is a directory"),
    (["sweep", "--values", 3, "--cases", 1, "--seed", 1, "-o", "{file}"], "File exists"),
    (["generate", "--seed", 1, "-o", "{file}/x.json"], "Not a directory"),
])
def test_path_of_the_wrong_kind_is_clean_error(tmp_path, scenario_file, capsys, argv, reason):
    places = {"dir": tmp_path / "dir", "file": tmp_path / "file", "out": tmp_path / "out",
              "scenario": scenario_file}
    places["dir"].mkdir()
    places["file"].write_text("")
    assert run([str(a).format(**places) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and reason in err
    assert not places["out"].exists()


BASE_ARGV = {
    "generate": ["generate", "--seed", 1, "--users", 3],
    "train": ["train", "--scope", "specific", "--seed", 1, "--episodes", 1, "--users", 3,
              "--users-min", 1],
    "solve": ["solve", "SCENARIO", "--solver", "ga"],
    "sweep": ["sweep", "--values", 3, "--cases", 1, "--seed", 1],
}


@pytest.mark.parametrize("command, option", [
    ("generate", "--seed"), ("generate", "--users"), ("generate", "--gpus"),
    ("generate", "--b-max"),
    ("train", "--seed"), ("train", "--episodes"), ("train", "--users"),
    ("train", "--users-min"), ("train", "--gpus"), ("train", "--b-max"),
    ("train", "--train-every"),
    ("solve", "--seed"),
    ("sweep", "--seed"), ("sweep", "--cases"), ("sweep", "--users"), ("sweep", "--gpus"),
    ("sweep", "--b-max"), ("sweep", "--values"),
])
@pytest.mark.parametrize("value", [2**63, -2**63 - 1])
def test_an_integer_option_beyond_int64_is_clean_error(tmp_path, scenario_file, capsys,
                                                       command, option, value):
    # The later of two occurrences of an option wins, so the base value is overridden.
    argv = [scenario_file if a == "SCENARIO" else a for a in BASE_ARGV[command]]
    out = tmp_path / "out"
    assert run(argv + [option, value, "-o", out]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {option}: must be an integer within int64, got {value}")
    assert not out.exists()


def test_the_largest_int64_seed_and_b_max_round_trip_through_solve(tmp_path):
    largest = 2**63 - 1
    scenario, policy = tmp_path / "s.json", tmp_path / "p.json"
    assert run(["generate", "--seed", largest, "--users", 3, "--b-max", largest,
                "-o", scenario]) == 0
    assert run(["train", "--scope", "specific", "--seed", largest, "--episodes", 1,
                "--users", 3, "--b-max", largest, "--scenario", scenario, "-o", policy]) == 0
    for solver in ("oracle", "dqn"):
        out = tmp_path / f"{solver}.json"
        assert run(["solve", scenario, "--solver", solver, "--policy", policy,
                    "--seed", largest, "-o", out]) == 0
        assert json.loads(out.read_text())["scenario_seed"] == largest


def _name(expr) -> str | None:
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def test_sweep_solve_alone_turns_a_solver_name_into_a_decision():
    # Only `sweep.solve` subscripts the solver registry or runs a policy
    # greedily, so `solve` and `sweep` run every named solver alike.
    package = Path(diffload.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text())
        owner = next((node for node in tree.body if module == "sweep.py"
                      and isinstance(node, ast.FunctionDef) and node.name == "solve"), None)
        exempt = {id(node) for node in ast.walk(owner)} if owner else set()
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Subscript) and _name(node.value) == "SOLVERS":
                found.append(f"{module}:{node.lineno} subscripts SOLVERS")
            elif isinstance(node, ast.Call) and _name(node.func) == "greedy_solve":
                found.append(f"{module}:{node.lineno} calls greedy_solve")
    assert found == []


# -- sweep / plot -----------------------------------------------------------------

def test_sweep_row_count_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", "--axis", "user_count", "--values", "4,6,8", "--cases", "2",
            "--solvers", "b1,b2,b3,oracle", "--seed", 17]
    assert run(args + ["-o", out1]) == 0
    assert run(args + ["-o", out2]) == 0
    rows = read_report(out1 / "report.csv")
    assert len(rows) == 3 * 2 * 4
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_sweep_files_keep_their_bytes(tmp_path):
    # SHA-256 of report.csv and summary.csv as written by the per-m sorting
    # oracle and the bisection split solver, which the array cost model
    # replaced (x86-64 Linux, CPython 3.11, numpy 2.4).
    assert run(["sweep", "--axis", "user_count", "--values", "4,7", "--cases", "2",
                "--solvers", "b1,b2,b3,ga,bnb,oracle", "--seed", 11,
                "-o", tmp_path]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("report.csv", "summary.csv")}
    assert digests == {
        "report.csv": "1a6afe8fbec68e848908604e6ede699bf64a43a42fe5295ef87c7691ad8c44ae",
        "summary.csv": "07eb25ccd2840cefd1f2860da55637a5e3e45118c59dc2ae1e705cdea02094cd",
    }


def test_sweep_rows_self_consistent(tmp_path):
    out = tmp_path / "s"
    run(["sweep", "--axis", "user_count", "--values", "5,7", "--cases", "3",
         "--solvers", "b1,oracle", "--seed", 23, "-o", out])
    for row in read_report(out / "report.csv"):
        derived = row.axis_value * (row.mean_pai_term - row.mean_e2e_latency_s)
        assert row.objective == pytest.approx(derived, rel=1e-9, abs=1e-9)


def test_sweep_summary_ordering(tmp_path):
    out = tmp_path / "s"
    run(["sweep", "--axis", "user_count", "--values", "6,9", "--cases", "4",
         "--solvers", "b1,b2,oracle", "--seed", 29, "-o", out])
    rows = read_report(out / "report.csv")
    means = {}
    for row in rows:
        means.setdefault((row.solver, row.axis_value), []).append(row.objective)
    for axis_value in (6, 9):
        oracle = np.mean(means[("oracle", axis_value)])
        b1 = np.mean(means[("b1", axis_value)])
        b2 = np.mean(means[("b2", axis_value)])
        assert oracle >= b1 - 1e-9 >= b2 - 2e-9


def test_sweep_unknown_solver_fails(tmp_path, capsys):
    code = run(["sweep", "--values", "4", "--cases", "1", "--solvers", "b1,warp",
                "--seed", 1, "-o", tmp_path / "s"])
    assert code == 2
    assert "warp" in capsys.readouterr().err


def test_sweep_plot_and_plot_command(tmp_path):
    out = tmp_path / "s"
    run(["sweep", "--axis", "gpus", "--values", "2,4", "--cases", "2",
         "--solvers", "b3,oracle", "--seed", 31, "-o", out, "--plot"])
    svg = out / "objective_vs_axis.svg"
    assert svg.exists()
    content = svg.read_text()
    assert content.startswith("<svg") and "polyline" in content

    replot = tmp_path / "replot"
    assert run(["plot", "--report", out / "report.csv", "-o", replot]) == 0
    assert (replot / "objective_vs_axis.svg").exists()


def test_sweep_plot_keeps_its_bytes(tmp_path):
    # SHA-256 of the plot of the sweep that test_sweep_files_keep_their_bytes
    # pins, less the GA and branch and bound (x86-64 Linux, CPython 3.11,
    # numpy 2.4).
    assert run(["sweep", "--axis", "user_count", "--values", "4,7", "--cases", "2",
                "--solvers", "b1,b2,b3,oracle", "--seed", 11, "--plot", "-o", tmp_path]) == 0
    svg = (tmp_path / "objective_vs_axis.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == (
        "681e5e4e411dceb93a2589987e419229d04c42626a1652c2483013b9fc4116b6")


def test_sweep_timing_column_zero_without_flag(tmp_path):
    out = tmp_path / "s"
    run(["sweep", "--values", "4", "--cases", "2", "--solvers", "b1",
         "--seed", 37, "-o", out])
    rows = read_report(out / "report.csv")
    assert all(row.decision_time_s == 0.0 for row in rows)
    out2 = tmp_path / "timed"
    run(["sweep", "--values", "4", "--cases", "2", "--solvers", "b1",
         "--seed", 37, "-o", out2, "--timing"])
    rows = read_report(out2 / "report.csv")
    assert all(row.decision_time_s > 0.0 for row in rows)


@pytest.mark.parametrize("column, value", [("objective", -1e20), ("axis_value", 2**60)])
def test_plot_of_an_axis_too_large_to_widen_by_one(tmp_path, column, value):
    # One row, so both axes are empty, and at this magnitude one unit rounds away.
    assert run(["sweep", "--values", 4, "--cases", 1, "--solvers", "b3", "--seed", 11,
                "-o", tmp_path]) == 0
    report = tmp_path / "report.csv"
    rows = read_report(report)
    setattr(rows[0], column, value)
    write_report(rows, report)
    out = tmp_path / "plot"
    assert run(["plot", "--report", report, "-o", out]) == 0
    svg = (out / "objective_vs_axis.svg").read_text()
    assert svg.count("<polyline") == 1
    assert "nan" not in svg and "inf" not in svg


REPORT_ROW = "b1,user_count,4,123,1.5,0.5,0.1,0.0,2"


@pytest.mark.parametrize("text, reason", [
    ("solver,axis\nb1,user_count\n", "lacks the columns"),
    (",".join(REPORT_HEADER) + "\n" + REPORT_ROW.replace(",4,", ",4.5,") + "\n",
     "invalid literal for int()"),
    ("", "lacks the columns"),
    (",".join(REPORT_HEADER) + "\n", "holds no rows"),
    (",".join(REPORT_HEADER) + "\n" + REPORT_ROW.replace(",1.5,", ",nan,") + "\n",
     "must be finite"),
    ("\udcff", "malformed report"),
    (",".join(REPORT_HEADER) + "\n" + REPORT_ROW + "\n"
     + REPORT_ROW.replace("user_count", "gpus") + "\n", "more than one axis"),
], ids=["missing-columns", "fractional-axis-value", "empty", "header-only", "nan-objective",
        "not-utf8", "mixed-axes"])
def test_plot_of_a_malformed_report_is_clean_error(tmp_path, capsys, text, reason):
    report, out = tmp_path / "report.csv", tmp_path / "out"
    report.write_text(text, errors="surrogateescape")
    assert run(["plot", "--report", report, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert not (out / "objective_vs_axis.svg").exists()
    report.write_text(",".join(REPORT_HEADER) + "\n" + REPORT_ROW + "\n")
    assert run(["plot", "--report", report, "-o", out]) == 0
