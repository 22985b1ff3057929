"""Q-network with an explicit forward/backward pass, in 64-bit floats.

Architecture: each user slot contributes three continuous statics plus a
status token that is looked up in a small embedding table (4 tokens, 3
dims); the per-user blocks are flattened, the global features appended, and
the result run through three ReLU hidden layers into a 2-unit linear head
(Q-values for deny/grant). Gradients are computed analytically; the test
suite checks them against central finite differences.
"""

from __future__ import annotations

import numpy as np

from ..env import FEATURES_PER_USER, N_GLOBALS
from ..qoe import ContractError

VOCAB = 4
EMBED_DIM = 3
N_ACTIONS = 2


def _he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class QNetwork:
    def __init__(self, i_max: int, hidden: tuple[int, ...] = (256, 256, 256),
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self._set_layout(i_max, hidden)
        self.params: dict[str, np.ndarray] = {
            "embed": rng.uniform(-0.5, 0.5, size=(VOCAB, EMBED_DIM)),
        }
        dims = [self.input_dim, *self.hidden, N_ACTIONS]
        for layer, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            self.params[f"W{layer}"] = _he_uniform(rng, d_in, (d_in, d_out))
            self.params[f"b{layer}"] = np.zeros(d_out)

    @classmethod
    def from_params(cls, i_max: int, hidden: tuple[int, ...],
                    params: dict[str, np.ndarray]) -> "QNetwork":
        """A network holding copies of `params`; draws no random initialisation."""
        net = cls.__new__(cls)
        net._set_layout(i_max, hidden)
        net.params = {k: np.asarray(v, dtype=float).copy() for k, v in params.items()}
        return net

    def _set_layout(self, i_max: int, hidden: tuple[int, ...]) -> None:
        self.i_max = i_max
        self.hidden = tuple(hidden)
        self.input_dim = i_max * (3 + EMBED_DIM) + N_GLOBALS
        self.n_layers = len(self.hidden) + 1

    @property
    def feature_dim(self) -> int:
        return self.i_max * FEATURES_PER_USER + N_GLOBALS

    def copy_from(self, other: "QNetwork") -> None:
        for k, v in other.params.items():
            self.params[k] = v.copy()

    def clone(self) -> "QNetwork":
        return QNetwork.from_params(self.i_max, self.hidden, self.params)

    def _assemble(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Embed status tokens and build the dense-stack input. Returns (x0, tokens)."""
        if features.shape[-1] != self.feature_dim:
            raise ContractError(
                f"feature length {features.shape[-1]} does not match encoder "
                f"layout for i_max = {self.i_max} (expected {self.feature_dim})")
        batch = features.shape[0]
        per_user = features[:, :self.i_max * FEATURES_PER_USER]
        per_user = per_user.reshape(batch, self.i_max, FEATURES_PER_USER)
        statics = per_user[:, :, :3]
        tokens = per_user[:, :, 3].astype(np.int64)
        if tokens.min() < 0 or tokens.max() >= VOCAB:
            raise ContractError(f"status tokens outside [0, {VOCAB})")
        embedded = self.params["embed"][tokens]  # (B, i_max, EMBED_DIM)
        blocks = np.concatenate([statics, embedded], axis=2).reshape(batch, -1)
        x0 = np.concatenate([blocks, features[:, self.i_max * FEATURES_PER_USER:]], axis=1)
        return x0, tokens

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Q-values; accepts a single feature vector or a batch."""
        single = features.ndim == 1
        feats = features[None, :] if single else features
        x, _ = self._assemble(feats)
        for layer in range(self.n_layers):
            x = x @ self.params[f"W{layer}"] + self.params[f"b{layer}"]
            if layer < self.n_layers - 1:
                x = np.maximum(x, 0.0)
        return x[0] if single else x

    def forward_cached(self, features: np.ndarray):
        """Batch forward keeping the activations needed for the backward pass."""
        x0, tokens = self._assemble(features)
        pre, post = [], [x0]
        x = x0
        for layer in range(self.n_layers):
            z = x @ self.params[f"W{layer}"] + self.params[f"b{layer}"]
            pre.append(z)
            x = np.maximum(z, 0.0) if layer < self.n_layers - 1 else z
            post.append(x)
        cache = {"pre": pre, "post": post, "tokens": tokens}
        return post[-1], cache

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(q) for a cached forward."""
        grads: dict[str, np.ndarray] = {}
        delta = dq
        for layer in reversed(range(self.n_layers)):
            inp = cache["post"][layer]
            grads[f"W{layer}"] = inp.T @ delta
            grads[f"b{layer}"] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.params[f"W{layer}"].T
                delta = delta * (cache["pre"][layer - 1] > 0.0)
        # Push into the embedding table: the first i_max * 6 inputs interleave
        # [statics(3), embed(3)] per user.
        d_input = delta @ self.params["W0"].T
        batch = d_input.shape[0]
        d_blocks = d_input[:, :self.i_max * (3 + EMBED_DIM)]
        d_blocks = d_blocks.reshape(batch, self.i_max, 3 + EMBED_DIM)
        d_embedded = d_blocks[:, :, 3:]
        d_embed = np.zeros((VOCAB, EMBED_DIM))
        np.add.at(d_embed, cache["tokens"].reshape(-1),
                  d_embedded.reshape(-1, EMBED_DIM))
        grads["embed"] = d_embed
        return grads


class Adam:
    """Adaptive-moment optimizer with the standard defaults.

    All updates run in place through preallocated scratch buffers; on a
    CPU-bound training loop the allocation churn of the textbook five-line
    version costs more than the arithmetic.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._buf = {k: np.empty_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1 - self.beta1 ** self.t
        bias2 = 1 - self.beta2 ** self.t
        for key, g in grads.items():
            m, v, buf = self.m[key], self.v[key], self._buf[key]
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=buf)
            m += buf
            v *= self.beta2
            np.multiply(g, g, out=buf)
            buf *= 1 - self.beta2
            v += buf
            # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(v, out=buf)
            buf /= np.sqrt(bias2)
            buf += self.eps
            np.divide(m, buf, out=buf)
            buf *= self.lr / bias1
            self.params[key] -= buf
