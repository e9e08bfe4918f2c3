"""Prefix-nested (Matryoshka-style) autoencoder over frozen teacher
embeddings.

The encoder ends in tanh so every coordinate lands strictly inside
(-1, 1), which is what the 4-bit codecs assume. Each target dimension d'
gets its own decoder; training sums the per-prefix reconstruction losses,
so any prefix of the code is a usable representation. Training happens
post hoc on logged embeddings: no gradient can reach the teacher because
the teacher is not even part of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from . import nncore as nn
from .errors import ConfigError, DataError, DimensionError, FormatError
from .nncore import ParamStore


@dataclass(frozen=True)
class AEConfig:
    dims: tuple[int, ...] = (8, 16, 32)
    hidden_scale: int = 2          # hidden width = scale * max(dims)
    use_hidden: bool = True
    encoder_activation: str = "tanh"   # "linear" exists for identity sanity checks
    lr: float = 0.01
    epochs: int = 60
    batch_size: int = 128

    def __post_init__(self):
        if not self.dims or min(self.dims) < 1:
            raise ConfigError("dimension set must be nonempty and positive")
        if tuple(sorted(set(self.dims))) != tuple(self.dims):
            raise ConfigError("dims must be strictly ascending")
        if self.encoder_activation not in ("tanh", "linear"):
            raise ConfigError(f"unknown encoder activation {self.encoder_activation!r}")

    @property
    def d_max(self) -> int:
        return self.dims[-1]


def _param_shapes(in_dim: int, config: AEConfig) -> dict[str, tuple[int, int]]:
    """Name -> shape of every autoencoder parameter; biases end in ".b"."""
    hidden = config.hidden_scale * config.d_max
    layers = [("enc.h", in_dim, hidden)] if config.use_hidden else []
    layers.append(("enc.out", hidden if config.use_hidden else in_dim, config.d_max))
    for d in config.dims:
        if config.use_hidden:
            layers.append((f"dec{d}.h", d, hidden))
        layers.append((f"dec{d}.out", hidden if config.use_hidden else d, in_dim))
    shapes = {}
    for name, fan_in, fan_out in layers:
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (fan_in, fan_out), (1, fan_out)
    return shapes


class MatryoshkaAE:
    def __init__(self, in_dim: int, config: AEConfig, seed: int):
        self.in_dim = in_dim
        self.config = config
        self.seed = seed
        self.params = ParamStore()
        for name, (rows, cols) in _param_shapes(in_dim, config).items():
            self.params.add(name, np.zeros((rows, cols)) if name.endswith(".b")
                            else nn.glorot_uniform(rows, cols, seed, f"ae.{name}"))

    # -- graph builders ---------------------------------------------------

    def _encode_node(self, nodes, x: nn.Node) -> nn.Node:
        h = x
        if self.config.use_hidden:
            h = nn.relu(nn.affine(h, nodes["enc.h.w"], nodes["enc.h.b"]))
        out = nn.affine(h, nodes["enc.out.w"], nodes["enc.out.b"])
        return nn.tanh_(out) if self.config.encoder_activation == "tanh" else out

    def _decode_node(self, nodes, z_prefix: nn.Node, d: int) -> nn.Node:
        h = z_prefix
        if self.config.use_hidden:
            h = nn.relu(nn.affine(h, nodes[f"dec{d}.h.w"], nodes[f"dec{d}.h.b"]))
        return nn.affine(h, nodes[f"dec{d}.out.w"], nodes[f"dec{d}.out.b"])

    def loss_fn(self, batch: np.ndarray):
        """Mean over the batch of the summed per-prefix squared errors."""
        target = nn.constant(batch)

        def fn(store: ParamStore):
            nodes = store.as_nodes()
            z = self._encode_node(nodes, target)
            total = None
            for d in self.config.dims:
                recon = self._decode_node(nodes, nn.slice_cols(z, 0, d), d)
                diff = nn.sub(recon, target)
                term = nn.sum_all(nn.mul(diff, diff))
                total = term if total is None else nn.add(total, term)
            return nn.scale(total, 1.0 / len(batch)), nodes

        return fn

    # -- numpy API ----------------------------------------------------------

    def encode_batch(self, e: np.ndarray) -> np.ndarray:
        e = np.atleast_2d(np.asarray(e, dtype=np.float64))
        if e.shape[1] != self.in_dim:
            raise DimensionError(f"expected dim {self.in_dim}, got {e.shape[1]}")
        nodes = self.params.as_nodes()
        return self._encode_node(nodes, nn.constant(e)).value

    def decode_prefix_batch(self, z_prefix: np.ndarray, d: int) -> np.ndarray:
        if d not in self.config.dims:
            raise ConfigError(f"{d} is not one of the trained prefix dims {self.config.dims}")
        z_prefix = np.atleast_2d(np.asarray(z_prefix, dtype=np.float64))
        if z_prefix.shape[1] != d:
            raise DimensionError(f"prefix width {z_prefix.shape[1]} != {d}")
        nodes = self.params.as_nodes()
        return self._decode_node(nodes, nn.constant(z_prefix), d).value


def ae_train(embeddings: np.ndarray, config: AEConfig, seed: int = 0):
    """Fit the autoencoder on a frozen embedding set.

    Returns (ae, per-epoch mean losses); epoch 0 is the pre-training loss,
    so history[-1] < history[0] on any non-degenerate run.
    """
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if e.size == 0:
        raise DataError("empty embedding training set")
    ae = MatryoshkaAE(e.shape[1], config, seed)
    state = nn.AdamState.for_params(ae.params, lr=config.lr)
    history = [float(ae.loss_fn(e)(ae.params)[0].value[0, 0])]
    n = len(e)
    bs = min(config.batch_size, n)
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for start in range(0, n, bs):
            batch = e[start : start + bs]
            loss, nodes = ae.loss_fn(batch)(ae.params)
            nn.backward(loss)
            nn.adam_step(ae.params, nn.collect_grads(ae.params, nodes), state)
            epoch_loss += float(loss.value[0, 0]) * len(batch)
        history.append(epoch_loss / n)
    return ae, history


def prefix_mse(ae: MatryoshkaAE, embeddings: np.ndarray) -> dict[int, float]:
    """Reconstruction MSE per prefix dimension (non-increasing in d' on a
    converged model)."""
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    z = ae.encode_batch(e)
    out = {}
    for d in ae.config.dims:
        recon = ae.decode_prefix_batch(z[:, :d], d)
        out[d] = float(np.mean((e - recon) ** 2))
    return out


def save_ae(path, ae: MatryoshkaAE) -> None:
    """Same container as model checkpoints; the dim set rides in the header."""
    from .models import write_checkpoint

    if ae.config.encoder_activation != "tanh" or not ae.config.use_hidden:
        raise ConfigError("only the default tanh architecture is persistable")
    write_checkpoint(path, ae.params, schema_hash=ae.in_dim, extra_dims=ae.config.dims)


def load_ae(path) -> MatryoshkaAE:
    """The autoencoder saved at `path`. Its dim set comes from the header, its
    input and hidden widths from the encoder weights; a header without a
    valid dim set, or weights that do not fit it, is a FormatError."""
    from .models import read_checkpoint

    params, in_dim, dims = read_checkpoint(path)
    try:
        config = AEConfig(dims=tuple(int(d) for d in dims))
    except ConfigError as exc:
        raise FormatError(f"{path} is not an autoencoder checkpoint: {exc}") from exc
    if "enc.h.w" not in params or params["enc.h.w"].shape[0] != in_dim:
        raise FormatError(f"{path}: encoder weights do not match input width {in_dim}")
    config = replace(config, hidden_scale=params["enc.h.w"].shape[1] // config.d_max)
    # checked before the model is built, so header dims cannot size an allocation
    if {name: value.shape for name, value in params.items()} != _param_shapes(in_dim, config):
        raise FormatError(f"{path}: weights do not match the header's dims {config.dims}")
    ae = MatryoshkaAE(in_dim, config, seed=0)
    ae.params.restore(params)
    return ae


def dimension_correlation_probe(z: np.ndarray, soft_labels, labels):
    """Per-dimension Pearson correlations of the code with the teacher's
    soft label and with the ground truth, plus the Spearman rank agreement
    between the two correlation profiles."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    soft = np.asarray(soft_labels, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()

    def corr_with(target):
        centered = z - z.mean(axis=0)
        t = target - target.mean()
        denom = np.sqrt((centered**2).sum(axis=0) * (t**2).sum())
        with np.errstate(invalid="ignore"):
            c = (centered * t[:, None]).sum(axis=0) / denom
        return np.nan_to_num(c)

    corr_soft = corr_with(soft)
    corr_true = corr_with(y)
    rho = float(stats.spearmanr(corr_soft, corr_true).statistic)
    return corr_soft, corr_true, rho
