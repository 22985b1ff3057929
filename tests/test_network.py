import numpy as np
import pytest

from diffload.dqn.network import _FLUSH_EVERY, Adam, QNetwork
from diffload.env import DENIED, FEATURES_PER_USER, N_GLOBALS
from diffload.qoe import ContractError


def random_features(rng, i_max, batch):
    """Feature batches with valid status tokens in the embedding slots."""
    feats = rng.normal(size=(batch, i_max * FEATURES_PER_USER + N_GLOBALS))
    for u in range(i_max):
        feats[:, u * FEATURES_PER_USER + 3] = rng.integers(0, 4, size=batch)
    return feats


def analytic_loss_grads(net, feats, actions, targets, weights):
    """Weighted squared TD loss and its gradients via the network backward pass."""
    q, cache = net.forward_cached(feats)
    rows = np.arange(len(actions))
    td = targets - q[rows, actions]
    loss = float(np.mean(weights * td * td))
    dq = np.zeros_like(q)
    dq[rows, actions] = -2.0 * weights * td / len(actions)
    return loss, net.backward(cache, dq)


def numeric_loss(net, feats, actions, targets, weights):
    q = net.forward(feats)
    rows = np.arange(len(actions))
    td = targets - q[rows, actions]
    return float(np.mean(weights * td * td))


def test_zero_weights_give_zero_q():
    net = QNetwork(i_max=3, hidden=(8, 8, 8))
    for key in net.params:
        net.params[key][:] = 0.0
    feats = random_features(np.random.default_rng(0), 3, 4)
    q = net.forward(feats)
    assert np.all(q == 0.0)


def test_last_layer_scaling_doubles_q():
    rng = np.random.default_rng(1)
    net = QNetwork(i_max=3, hidden=(8, 8, 8), rng=rng)
    feats = random_features(rng, 3, 5)
    q1 = net.forward(feats)
    last = net.n_layers - 1
    net.params[f"W{last}"] *= 2.0
    net.params[f"b{last}"] *= 2.0
    q2 = net.forward(feats)
    assert np.allclose(q2, 2.0 * q1, rtol=1e-12)


def test_single_and_batch_forward_agree():
    rng = np.random.default_rng(2)
    net = QNetwork(i_max=4, hidden=(16, 16, 16), rng=rng)
    feats = random_features(rng, 4, 6)
    batch = net.forward(feats)
    for row in range(6):
        assert np.allclose(net.forward(feats[row]), batch[row], rtol=1e-14)


def test_forward_rejects_wrong_layout():
    net = QNetwork(i_max=3, hidden=(8,))
    with pytest.raises(ContractError):
        net.forward(np.zeros(5))


def test_forward_rejects_invalid_tokens():
    net = QNetwork(i_max=2, hidden=(8,))
    feats = np.zeros(2 * FEATURES_PER_USER + N_GLOBALS)
    feats[3] = 7  # outside the 4-token vocabulary
    with pytest.raises(ContractError):
        net.forward(feats)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(3)
    for trial in range(6):
        i_max = int(rng.integers(2, 5))
        hidden = tuple(int(rng.integers(4, 10)) for _ in range(3))
        net = QNetwork(i_max=i_max, hidden=hidden, rng=rng)
        batch = int(rng.integers(2, 6))
        feats = random_features(rng, i_max, batch)
        actions = rng.integers(0, 2, size=batch)
        targets = rng.normal(size=batch)
        weights = rng.uniform(0.2, 1.0, size=batch)

        _, grads = analytic_loss_grads(net, feats, actions, targets, weights)

        def gates():
            _, cache = net.forward_cached(feats)
            return tuple((z > 0).tobytes() for z in cache["pre"][:-1])

        h = 1e-6
        for key, grad in grads.items():
            param = net.params[key]
            flat_grad = grad.reshape(-1)
            # probe a spread of coordinates rather than every one
            idx = rng.choice(param.size, size=min(12, param.size), replace=False)
            for k in idx:
                orig = param.reshape(-1)[k]
                param.reshape(-1)[k] = orig + h
                up = numeric_loss(net, feats, actions, targets, weights)
                gates_up = gates()
                param.reshape(-1)[k] = orig - h
                down = numeric_loss(net, feats, actions, targets, weights)
                gates_down = gates()
                param.reshape(-1)[k] = orig
                if gates_up != gates_down:
                    continue  # probe crossed a ReLU kink: central diff invalid there
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(flat_grad[k]), 1e-8)
                assert abs(numeric - flat_grad[k]) / denom < 1e-4, (
                    f"{key}[{k}]: analytic {flat_grad[k]} vs numeric {numeric}")


def test_embedding_receives_gradient():
    rng = np.random.default_rng(4)
    net = QNetwork(i_max=3, hidden=(8, 8, 8), rng=rng)
    feats = random_features(rng, 3, 8)
    actions = rng.integers(0, 2, size=8)
    _, grads = analytic_loss_grads(net, feats, actions,
                                   rng.normal(size=8), np.ones(8))
    assert np.any(grads["embed"] != 0.0)


def test_adam_moves_toward_lower_loss():
    rng = np.random.default_rng(5)
    net = QNetwork(i_max=2, hidden=(16, 16, 16), rng=rng)
    adam = Adam(net.params, lr=1e-2)
    feats = random_features(rng, 2, 16)
    actions = rng.integers(0, 2, size=16)
    targets = rng.normal(size=16)
    weights = np.ones(16)
    first = numeric_loss(net, feats, actions, targets, weights)
    for _ in range(60):
        _, grads = analytic_loss_grads(net, feats, actions, targets, weights)
        adam.step(grads)
    assert numeric_loss(net, feats, actions, targets, weights) < 0.2 * first


def test_clone_and_copy_are_exact():
    rng = np.random.default_rng(6)
    net = QNetwork(i_max=2, hidden=(8, 8), rng=rng)
    twin = net.clone()
    feats = random_features(rng, 2, 3)
    assert np.array_equal(net.forward(feats), twin.forward(feats))
    net.params["W0"] += 1.0
    assert not np.array_equal(net.forward(feats), twin.forward(feats))


def test_from_params_copies_weights_without_drawing():
    rng = np.random.default_rng(8)
    net = QNetwork(i_max=3, hidden=(8, 4), rng=rng)
    state = rng.bit_generator.state
    rebuilt = QNetwork.from_params(3, (8, 4), net.params)
    assert rng.bit_generator.state == state
    assert (rebuilt.input_dim, rebuilt.n_layers) == (net.input_dim, net.n_layers)
    feats = random_features(rng, 3, 5)
    assert np.array_equal(net.forward(feats), rebuilt.forward(feats))
    net.params["W1"] += 1.0
    assert not np.array_equal(net.forward(feats), rebuilt.forward(feats))


# -- bit-for-bit agreement with the plain passes ------------------------------------

def reference_backward(net, features, dq):
    """The plain backward pass: fresh arrays and a sequential scatter-add into the table."""
    x0, tokens = net._assemble(features)
    pre, post, x = [], [x0], x0
    for layer in range(net.n_layers):
        z = x @ net.params[f"W{layer}"] + net.params[f"b{layer}"]
        pre.append(z)
        x = np.maximum(z, 0.0) if layer < net.n_layers - 1 else z
        post.append(x)
    grads, delta = {}, dq
    for layer in reversed(range(net.n_layers)):
        grads[f"W{layer}"] = post[layer].T @ delta
        grads[f"b{layer}"] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.params[f"W{layer}"].T) * (pre[layer - 1] > 0.0)
    d_input = delta @ net.params["W0"].T
    d_blocks = d_input[:, :net.i_max * 6].reshape(len(features), net.i_max, 6)
    d_embed = np.zeros((4, 3))
    np.add.at(d_embed, tokens.reshape(-1), d_blocks[:, :, 3:].reshape(-1, 3))
    grads["embed"] = d_embed
    return x, grads


def test_backward_matches_plain_pass_bitwise():
    rng = np.random.default_rng(17)
    for case in range(200):
        i_max = int(rng.integers(1, 8))
        net = QNetwork(i_max=i_max, hidden=(int(rng.integers(1, 12)),) * 3, rng=rng)
        batch = int(rng.integers(1, 40))
        feats = random_features(rng, i_max, batch)
        dq = rng.normal(size=(batch, 2)) * 10.0 ** rng.integers(-4, 2)
        q_ref, expected = reference_backward(net, feats, dq)
        q, cache = net.forward_cached(feats)
        assert q.tobytes() == q_ref.tobytes()
        grads = net.backward(cache, dq)
        assert list(grads) == list(expected)
        for key, grad in expected.items():
            assert grads[key].tobytes() == grad.tobytes(), (case, key)


# -- float32 against the float64 reference ------------------------------------------

def test_float32_backward_matches_float64_on_widened_weights():
    """The float32 passes agree with float64 passes on the same weights, widened.

    The tolerance is relative to each output's largest entry and sits just
    above the worst-case rounding of one 256-term float32 sum, 256 * 2**-24,
    the widest sum here; the errors seen are below 1e-6.
    """
    tol = 2e-5
    rng = np.random.default_rng(23)
    for trial in range(8):
        i_max = int(rng.integers(1, 21))
        net32 = QNetwork(i_max=i_max, hidden=(256, 256, 256), rng=rng, dtype=np.float32)
        net64 = QNetwork.from_params(i_max, net32.hidden,
                                     {k: v.astype(np.float64) for k, v in net32.params.items()})
        assert net32.dtype == np.float32 and net64.dtype == np.float64
        batch = int(rng.integers(1, 65))
        feats = random_features(rng, i_max, batch).astype(np.float32).astype(np.float64)
        dq = rng.normal(size=(batch, 2)).astype(np.float32)
        q32, cache32 = net32.forward_cached(feats)
        grads32 = net32.backward(cache32, dq)
        q64, cache64 = net64.forward_cached(feats)
        grads64 = net64.backward(cache64, dq.astype(np.float64))
        assert q32.dtype == np.float32
        assert np.abs(q32 - q64).max() <= tol * np.abs(q64).max()
        assert list(grads32) == list(grads64)
        for key, grad in grads64.items():
            assert grads32[key].dtype == np.float32, key
            scale = max(np.abs(grad).max(), 1e-30)
            assert np.abs(grads32[key] - grad).max() <= tol * scale, (trial, key)


def test_adam_keeps_moments_in_the_weights_dtype():
    net = QNetwork(i_max=3, hidden=(8, 8), rng=np.random.default_rng(2), dtype=np.float32)
    adam = Adam(net.params, lr=1e-3)
    adam.step({k: np.ones_like(v) for k, v in net.params.items()})
    for key, value in net.params.items():
        assert value.dtype == adam.m[key].dtype == adam.v[key].dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_flush_zeroes_subnormals_and_keeps_normals(dtype):
    info = np.finfo(dtype)
    rng = np.random.default_rng(9)
    net = QNetwork(i_max=2, hidden=(8,), rng=rng, dtype=dtype)
    adam = Adam(net.params, lr=1e-4)
    for moments in (adam.m, adam.v):
        for key, moment in moments.items():
            flat = moment.reshape(-1)
            flat[:] = rng.normal(size=flat.size) * 10.0 ** rng.integers(-30, 3, size=flat.size)
            # Subnormals of both signs, the smallest and largest among them,
            # and the smallest normal number, which must survive.
            picks = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            flat[picks] = [info.smallest_subnormal, -info.smallest_subnormal,
                           info.tiny * 0.5, -info.tiny * (1 - info.eps), info.tiny][:len(picks)]
    before = {(name, key): moment.copy() for name, moments in (("m", adam.m), ("v", adam.v))
              for key, moment in moments.items()}
    adam.flush_subnormals()
    for name, moments in (("m", adam.m), ("v", adam.v)):
        for key, moment in moments.items():
            old = before[(name, key)]
            subnormal = (old != 0) & (np.abs(old) < info.tiny)
            assert np.all(moment[subnormal] == 0.0), (name, key)
            assert moment[~subnormal].tobytes() == old[~subnormal].tobytes(), (name, key)
            assert not np.any((moment != 0) & (np.abs(moment) < info.tiny))


def test_adam_flushes_on_its_own_schedule():
    """A moment that decays into the subnormal range is zero after the next flush step."""
    net = QNetwork(i_max=2, hidden=(8,), rng=np.random.default_rng(3), dtype=np.float32)
    adam = Adam(net.params, lr=1e-4)
    zero = {k: np.zeros_like(v) for k, v in net.params.items()}
    adam.m["W0"][0, 0] = np.finfo(np.float32).smallest_subnormal * 4
    for _ in range(_FLUSH_EVERY - 1):
        adam.step(zero)
    assert adam.m["W0"][0, 0] != 0.0  # 4 * 2**-149 is a fixed point of the beta1 multiply
    adam.step(zero)
    assert adam.m["W0"][0, 0] == 0.0
