"""Q-network with an explicit forward/backward pass, in the dtype of its weights.

Architecture: each user slot contributes `env.N_STATICS` continuous statics
plus a status token that is looked up in a small embedding table (a token per
`env.STATUSES` entry, 3 dims); the per-user blocks are flattened, the global
features appended, and the result run through three ReLU hidden layers into a
2-unit linear head (Q-values for deny/grant). Gradients are computed
analytically; the test suite checks them against central finite differences.

A network computes in the dtype of the weights it holds: float64 by
default, float32 for training (see `training`). Inputs are narrowed to that
dtype as they enter the dense stack, and `Adam` keeps its moments in the
dtype of the weights it updates.
"""

from __future__ import annotations

import math

import numpy as np

from ..env import FEATURES_PER_USER, N_GLOBALS, N_STATICS, STATUSES
from ..qoe import ContractError

VOCAB = len(STATUSES)
EMBED_DIM = 3
N_ACTIONS = 2
USER_BLOCK = N_STATICS + EMBED_DIM  # one user's slice of the dense-stack input


# Adam's moment decay rates and denominator offset, the standard values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam steps between flushes of subnormal moments to zero.
_FLUSH_EVERY = 100


def _he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class QNetwork:
    def __init__(self, i_max: int, hidden: tuple[int, ...] = (256, 256, 256),
                 rng: np.random.Generator | None = None, dtype=np.float64):
        """Random initial weights, drawn in float64 and then rounded to `dtype`.

        The draws do not depend on `dtype`.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        self._set_layout(i_max, hidden)
        self.params: dict[str, np.ndarray] = {}
        for key, shape in self.param_shapes(i_max, hidden).items():
            if key == "embed":
                value = rng.uniform(-0.5, 0.5, size=shape)
            elif key.startswith("W"):
                value = _he_uniform(rng, shape[0], shape)
            else:
                value = np.zeros(shape)
            self.params[key] = value.astype(dtype, copy=False)

    @classmethod
    def from_params(cls, i_max: int, hidden: tuple[int, ...],
                    params: dict[str, np.ndarray], copy: bool = True) -> "QNetwork":
        """A network over `params`, in their dtype; draws no random initialisation.

        With `copy` false the network reads the given arrays in place, so it
        sees every later write to them and must not be trained.
        """
        net = cls.__new__(cls)
        net._set_layout(i_max, hidden)
        net.params = {k: np.array(v) for k, v in params.items()} if copy else dict(params)
        return net

    @staticmethod
    def param_shapes(i_max: int, hidden: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter of a network with this layout, by key."""
        dims = [i_max * USER_BLOCK + N_GLOBALS, *hidden, N_ACTIONS]
        shapes = {"embed": (VOCAB, EMBED_DIM)}
        for layer, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"W{layer}"] = (d_in, d_out)
            shapes[f"b{layer}"] = (d_out,)
        return shapes

    def _set_layout(self, i_max: int, hidden: tuple[int, ...]) -> None:
        self.i_max = i_max
        self.hidden = tuple(hidden)
        self.input_dim = i_max * USER_BLOCK + N_GLOBALS
        self.n_layers = len(self.hidden) + 1
        self._work_arrays: dict = {}

    @property
    def feature_dim(self) -> int:
        return self.i_max * FEATURES_PER_USER + N_GLOBALS

    @property
    def dtype(self) -> np.dtype:
        return self.params["W0"].dtype

    def copy_from(self, other: "QNetwork") -> None:
        for k, v in other.params.items():
            self.params[k] = v.copy()

    def clone(self) -> "QNetwork":
        return QNetwork.from_params(self.i_max, self.hidden, self.params)

    def _assemble(self, features: np.ndarray,
                  x0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Embed status tokens and build the dense-stack input, into `x0` when given.

        Returns (x0, tokens).
        """
        if features.shape[-1] != self.feature_dim:
            raise ContractError(
                f"feature length {features.shape[-1]} does not match encoder "
                f"layout for i_max = {self.i_max} (expected {self.feature_dim})")
        batch = features.shape[0]
        per_user = features[:, :self.i_max * FEATURES_PER_USER]
        per_user = per_user.reshape(batch, self.i_max, FEATURES_PER_USER)
        statics = per_user[:, :, :N_STATICS]
        tokens = per_user[:, :, N_STATICS].astype(np.int64)
        if tokens.min() < 0 or tokens.max() >= VOCAB:
            raise ContractError(f"status tokens outside [0, {VOCAB})")
        x0 = np.empty((batch, self.input_dim), dtype=self.dtype) if x0 is None else x0
        blocks = x0[:, :self.i_max * USER_BLOCK].reshape(batch, self.i_max, USER_BLOCK)
        blocks[:, :, :N_STATICS] = statics
        blocks[:, :, N_STATICS:] = self.params["embed"][tokens]
        x0[:, self.i_max * USER_BLOCK:] = features[:, self.i_max * FEATURES_PER_USER:]
        return x0, tokens

    def dense(self, x0: np.ndarray, pre: list[np.ndarray] | None = None,
              post: list[np.ndarray] | None = None) -> np.ndarray:
        """Q-values of an assembled (rows, input_dim) input in the network's dtype.

        Given `pre` and `post`, layer l writes its pre-activations into
        `pre[l]` and, for a hidden layer, its ReLU output into `post[l]`;
        otherwise every layer makes fresh arrays. Either way the returned
        array is the last layer's output.
        """
        x = x0
        for layer in range(self.n_layers):
            z = np.matmul(x, self.params[f"W{layer}"], out=None if pre is None else pre[layer])
            z += self.params[f"b{layer}"]
            if layer < self.n_layers - 1:
                x = np.maximum(z, 0.0, out=z if post is None else post[layer])
        return z

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Q-values; accepts a single feature vector or a batch."""
        single = features.ndim == 1
        feats = features[None, :] if single else features
        q = self.dense(self._assemble(feats)[0])
        return q[0] if single else q

    def _workspace(self, rows: int) -> dict:
        """Arrays for a `rows`-row training pass, kept between calls.

        Reusing them spares the allocator: freeing and refilling a few
        megabytes per step costs about a page fault per 4 KiB.
        """
        if self._work_arrays.get("rows") != rows:
            dims = [self.input_dim, *self.hidden, N_ACTIONS]
            dtype = self.dtype
            self._work_arrays = {
                "rows": rows,
                "x0": np.empty((rows, self.input_dim), dtype),
                "pre": [np.empty((rows, d), dtype) for d in dims[1:]],
                "post": [np.empty((rows, d), dtype) for d in self.hidden],
                "delta": [np.empty((rows, d), dtype) for d in self.hidden],
                "d_input": np.empty((rows, self.input_dim), dtype),
                "weight_grads": [np.empty((a, b), dtype) for a, b in zip(dims[:-1], dims[1:])],
            }
        return self._work_arrays

    def forward_cached(self, features: np.ndarray):
        """Batch forward keeping the activations needed for the backward pass.

        The Q-values and the cache live in arrays this network reuses: they
        hold until its next `forward_cached` call.
        """
        ws = self._workspace(features.shape[0])
        x0, tokens = self._assemble(features, ws["x0"])
        q = self.dense(x0, ws["pre"], ws["post"])
        cache = {"pre": ws["pre"], "post": [x0, *ws["post"], q], "tokens": tokens}
        return q, cache

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(q) for a cached forward.

        The weight gradients live in arrays this network reuses: they hold
        until its next `backward` call.
        """
        ws = self._workspace(dq.shape[0])
        grads: dict = {}
        delta = dq
        for layer in reversed(range(self.n_layers)):
            inp = cache["post"][layer]
            grads[f"W{layer}"] = np.matmul(inp.T, delta, out=ws["weight_grads"][layer])
            grads[f"b{layer}"] = delta.sum(axis=0)
            if layer > 0:
                delta = np.matmul(delta, self.params[f"W{layer}"].T, out=ws["delta"][layer - 1])
                delta *= cache["pre"][layer - 1] > 0.0
        # Push into the embedding table: the first i_max * USER_BLOCK inputs
        # interleave [statics, embedding] per user. bincount sums each token's
        # rows in row order, as a sequential scatter-add would, in float64.
        d_input = np.matmul(delta, self.params["W0"].T, out=ws["d_input"])
        batch = d_input.shape[0]
        d_blocks = d_input[:, :self.i_max * USER_BLOCK]
        d_embedded = d_blocks.reshape(batch * self.i_max, USER_BLOCK)[:, N_STATICS:]
        tokens = cache["tokens"].reshape(-1)
        d_embed = np.stack([np.bincount(tokens, weights=d_embedded[:, dim], minlength=VOCAB)
                            for dim in range(EMBED_DIM)], axis=1)
        grads["embed"] = d_embed.astype(self.dtype, copy=False)
        return grads


class Adam:
    """Adaptive-moment optimizer with the standard `ADAM_*` settings.

    All updates run in place through preallocated scratch buffers; on a
    CPU-bound training loop the allocation churn of the textbook five-line
    version costs more than the arithmetic. The moments take the dtype of
    the weights.

    Every `_FLUSH_EVERY` steps, moments below the dtype's smallest normal
    number are set to zero. A weight whose gradient stays 0 has its first
    moment multiplied by beta1 on every step; it decays into the subnormal
    range, where the smallest values are fixed points of the multiply, and
    arithmetic on subnormals is several times slower on x86 processors. A
    moment that small moves its weight by at most about lr * tiny / eps
    (1e-34 in float32), far below the rounding step of the weight.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._buf = {k: np.empty_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from `grads`, keyed like the weights."""
        self.t += 1
        bias1 = 1 - ADAM_BETA1 ** self.t
        bias2 = 1 - ADAM_BETA2 ** self.t
        for key, g in grads.items():
            m, v, buf = self.m[key], self.v[key], self._buf[key]
            m *= ADAM_BETA1
            np.multiply(g, 1 - ADAM_BETA1, out=buf)
            m += buf
            v *= ADAM_BETA2
            np.multiply(g, g, out=buf)
            buf *= 1 - ADAM_BETA2
            v += buf
            # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(v, out=buf)
            buf /= math.sqrt(bias2)
            buf += ADAM_EPS
            np.divide(m, buf, out=buf)
            buf *= self.lr / bias1
            self.params[key] -= buf
        if self.t % _FLUSH_EVERY == 0:
            self.flush_subnormals()

    def flush_subnormals(self) -> None:
        """Set every moment below the smallest normal number of its dtype to zero."""
        for moments in (self.m, self.v):
            for key, moment in moments.items():
                magnitude = np.abs(moment, out=self._buf[key])
                moment[magnitude < np.finfo(moment.dtype).tiny] = 0.0
