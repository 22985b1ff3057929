from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diffload.dqn.network import INLINE, Adam, QNetwork
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
    with ThreadPoolExecutor(max_workers=1) as lane:
        for case in range(200):
            i_max = int(rng.integers(1, 8))
            net = QNetwork(i_max=i_max, hidden=(int(rng.integers(1, 12)),) * 3, rng=rng)
            batch = int(rng.integers(1, 40))
            feats = random_features(rng, i_max, batch)
            dq = rng.normal(size=(batch, 2)) * 10.0 ** rng.integers(-4, 2)
            q_ref, expected = reference_backward(net, feats, dq)
            q, cache = net.forward_cached(feats)
            assert q.tobytes() == q_ref.tobytes()
            grads = net.backward(cache, dq, lane=lane if case % 2 else INLINE)
            assert list(grads) == list(expected)
            for key, grad in expected.items():
                assert grads[key].tobytes() == grad.tobytes(), (case, key)


def test_adam_on_a_lane_matches_inline_bitwise():
    rng = np.random.default_rng(4)
    inline = QNetwork(i_max=5, rng=np.random.default_rng(1))
    laned = inline.clone()
    opt_inline, opt_laned = Adam(inline.params, lr=1e-3), Adam(laned.params, lr=1e-3)
    with ThreadPoolExecutor(max_workers=1) as lane:
        for _ in range(5):
            grads = {k: rng.normal(size=v.shape) for k, v in inline.params.items()}
            opt_inline.step(grads)
            opt_laned.step(grads, lane=lane)
    for key in inline.params:
        assert inline.params[key].tobytes() == laned.params[key].tobytes()
