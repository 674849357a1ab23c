"""The ALLG model: learnable-graph autoencoder with a self-selection layer.

The network maps samples X (d x n) through an L-layer encoder to a latent
Z (d' x n), propagates Z through a chain of learned n x n adjacency
matrices, mixes an early layer back in through a shortcut, multiplies by a
square self-selection matrix Q, and decodes back to the input space.  Four
loss terms are trained jointly:

  reconstruction  ||X - X_hat||_F^2
  adjacency       alpha ||A_1||_F^2 + beta ||A_1 - A_0||_F^2
  propagation     sum_{l>=2} alpha' ||A_l||_F^2 + beta' ||A_l - A_{l-1}||_F^2
  selection       ||S_out - S_out Q||_F^2 + lambda * sum_i max_j |Q_ij|

Row norms of the trained Q rank candidate samples by how much they
contribute to reconstructing the others.
"""

import dataclasses
import json
import typing
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .rng import substream

VARIANTS = ("full", "no_graph", "knn_only", "one_matrix", "tied_two", "distinct_two")
_VARIANT_ALIASES = {"no_shortcut": "distinct_two"}

_ACTIVATIONS = ("relu", "linear")


def default_encoder_dims(d: int) -> tuple:
    """Default layer widths [d, 128, 64, 32], each hidden clipped at d."""
    return (d,) + tuple(min(h, d) for h in (128, 64, 32))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes and training hyperparameters."""

    encoder_dims: tuple
    n_adjacency: int = 2
    shortcut_layer: int = 1
    shortcut_weight: float = 0.3
    alpha: float = 1.0
    beta: float = 1.0
    alpha_prop: float | None = None  # defaults to alpha
    beta_prop: float | None = None   # defaults to beta
    lam: float = 1.0
    lr: float = 1e-3
    pretrain_epochs: int = 500
    train_epochs: int = 2000
    seed: int = 0
    knn_k: int = 5
    prior_normalize: str = "none"  # {"none", "col", "sym"}
    variant: str = "full"
    encoder_final_activation: str = "relu"
    decoder_final_activation: str = "linear"
    early_stop: bool = False
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 50

    def __post_init__(self):
        object.__setattr__(self, "encoder_dims", tuple(int(v) for v in self.encoder_dims))
        if len(self.encoder_dims) < 2 or any(v < 1 for v in self.encoder_dims):
            raise ConfigError(f"encoder_dims needs >= 2 positive entries, got {self.encoder_dims}")
        variant = _VARIANT_ALIASES.get(self.variant, self.variant)
        object.__setattr__(self, "variant", variant)
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "full":
            if self.n_adjacency < 1:
                raise ConfigError("n_adjacency must be >= 1")
            if not 1 <= self.shortcut_layer <= self.n_adjacency:
                raise ConfigError(
                    f"shortcut layer k={self.shortcut_layer} must lie in 1..N={self.n_adjacency}"
                )
        if not 0.0 <= self.shortcut_weight <= 1.0:
            raise ConfigError(f"shortcut weight r={self.shortcut_weight} must lie in [0, 1]")
        for name in ("alpha", "beta", "lam", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("alpha_prop", "beta_prop"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"{name} must be positive, got {val}")
        if self.pretrain_epochs < 0 or self.train_epochs < 1:
            raise ConfigError("pretrain_epochs must be >= 0 and train_epochs >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if self.prior_normalize not in ("none", "col", "sym"):
            raise ConfigError(
                f"prior_normalize must be 'none', 'col', or 'sym', got {self.prior_normalize!r}"
            )
        if self.encoder_final_activation not in _ACTIVATIONS:
            raise ConfigError(f"encoder_final_activation must be one of {_ACTIVATIONS}")
        if self.decoder_final_activation not in _ACTIVATIONS:
            raise ConfigError(f"decoder_final_activation must be one of {_ACTIVATIONS}")
        if self.early_stop_patience < 1 or self.early_stop_tol <= 0:
            raise ConfigError("early stop patience must be >= 1 and tolerance positive")

    @property
    def input_dim(self) -> int:
        return self.encoder_dims[0]

    @property
    def latent_dim(self) -> int:
        return self.encoder_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.encoder_dims) - 1

    @property
    def n_matrices(self) -> int:
        """Length of the adjacency propagation chain for this variant."""
        fixed = {"no_graph": 0, "knn_only": 1, "one_matrix": 1,
                 "tied_two": 2, "distinct_two": 2}
        return fixed.get(self.variant, self.n_adjacency)

    @property
    def n_stored_matrices(self) -> int:
        """Distinct adjacency parameter arrays (tied layers share one)."""
        return 1 if self.variant == "tied_two" else self.n_matrices

    @property
    def alpha_p(self) -> float:
        return self.alpha if self.alpha_prop is None else self.alpha_prop

    @property
    def beta_p(self) -> float:
        return self.beta if self.beta_prop is None else self.beta_prop


def config_to_dict(cfg: ModelConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["encoder_dims"] = list(cfg.encoder_dims)
    return out


# Annotated field type -> (accepted config values, wording for the error message).
_FIELD_KINDS = {
    int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
    bool: (bool, "true or false"), tuple: ((list, tuple), "a list"),
    type(None): (type(None), "null"),
}


def check_options(cls, opts: dict, block: str) -> None:
    """Raise ConfigError naming the keys of `opts` that are no field of the dataclass
    `cls`, or the first value that does not fit its field's type (a bool is no number)."""
    unknown = set(opts) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {block} config keys: {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        kinds = typing.get_args(f.type) or (f.type,)
        value = opts.get(f.name)
        if f.name in opts and not any(isinstance(value, _FIELD_KINDS[k][0])
                                      and (k is bool) == isinstance(value, bool) for k in kinds):
            wanted = " or ".join(_FIELD_KINDS[k][1] for k in kinds)
            raise ConfigError(f"{block} key {f.name!r} must be {wanted}, got {value!r}")


def config_from_dict(d: dict) -> ModelConfig:
    check_options(ModelConfig, d, "model")
    return ModelConfig(**d)


def config_from_options(opts: dict, d: int) -> ModelConfig:
    """ModelConfig from option fields; encoder_dims defaults to default_encoder_dims(d)."""
    return config_from_dict({"encoder_dims": default_encoder_dims(d), **opts})


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    """All trainable arrays.  adjacency is empty until stage-2 training."""

    enc_weights: list = field(default_factory=list)
    enc_biases: list = field(default_factory=list)
    dec_weights: list = field(default_factory=list)
    dec_biases: list = field(default_factory=list)
    adjacency: list = field(default_factory=list)
    q: np.ndarray | None = None

    def to_dict(self) -> dict:
        """Name -> array view of every parameter, in a stable order."""
        out = {}
        for i, (w, b) in enumerate(zip(self.enc_weights, self.enc_biases)):
            out[f"enc_w{i}"] = w
            out[f"enc_b{i}"] = b
        for i, (w, b) in enumerate(zip(self.dec_weights, self.dec_biases)):
            out[f"dec_w{i}"] = w
            out[f"dec_b{i}"] = b
        for i, a in enumerate(self.adjacency):
            out[f"adj{i}"] = a
        if self.q is not None:
            out["q"] = self.q
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            enc_weights=[w.copy() for w in self.enc_weights],
            enc_biases=[b.copy() for b in self.enc_biases],
            dec_weights=[w.copy() for w in self.dec_weights],
            dec_biases=[b.copy() for b in self.dec_biases],
            adjacency=[a.copy() for a in self.adjacency],
            q=None if self.q is None else self.q.copy(),
        )

    @property
    def n_candidates(self) -> int:
        if self.q is None:
            raise ValueError("selection matrix Q not initialized yet")
        return self.q.shape[0]


def init_encoder_decoder(cfg: ModelConfig, rng=None) -> ModelParams:
    """Symmetric-uniform (fan-based) init of encoder and mirrored decoder."""
    if rng is None:
        rng = substream(cfg.seed, "init")
    params = ModelParams()
    dims = cfg.encoder_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.enc_weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        params.enc_biases.append(np.zeros((fan_out, 1)))
    rdims = dims[::-1]
    for fan_in, fan_out in zip(rdims[:-1], rdims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.dec_weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        params.dec_biases.append(np.zeros((fan_out, 1)))
    return params


def adjacency_key(cfg: ModelConfig, layer: int) -> str:
    """Parameter name of the adjacency matrix used at chain position `layer`."""
    return "adj0" if cfg.variant == "tied_two" else f"adj{layer}"


def is_frozen(cfg: ModelConfig, name: str) -> bool:
    """Whether parameter `name` stays fixed in training (knn_only keeps its prior)."""
    return cfg.variant == "knn_only" and name.startswith("adj")


# ---------------------------------------------------------------------------
# Forward graph (tape), shared by training, evaluation, and gradcheck
# ---------------------------------------------------------------------------

def wrap_params(tape: ad.Tape, params: ModelParams, cfg: ModelConfig,
                trainable: bool = True) -> dict:
    """Leaf Vars for every parameter array; frozen parameters stay constant."""
    return {name: tape.var(arr, requires_grad=trainable and not is_frozen(cfg, name))
            for name, arr in params.to_dict().items()}


def encode_vars(pv: dict, x: ad.Var, cfg: ModelConfig) -> ad.Var:
    z = x
    last = cfg.n_layers - 1
    for l in range(cfg.n_layers):
        z = ad.affine(pv[f"enc_w{l}"], z, pv[f"enc_b{l}"])
        if l < last or cfg.encoder_final_activation == "relu":
            z = ad.relu(z)
    return z


def decode_vars(pv: dict, h: ad.Var, cfg: ModelConfig) -> ad.Var:
    y = h
    last = cfg.n_layers - 1
    for l in range(cfg.n_layers):
        y = ad.affine(pv[f"dec_w{l}"], y, pv[f"dec_b{l}"])
        if l < last or cfg.decoder_final_activation == "relu":
            y = ad.relu(y)
    return y


def propagate_vars(pv: dict, z: ad.Var, cfg: ModelConfig) -> list:
    """Adjacency chain S_1 = relu(Z A_1), S_{i+1} = relu(S_i A_{i+1})."""
    s_layers = []
    s = z
    for i in range(cfg.n_matrices):
        s = ad.relu(ad.matmul(s, pv[adjacency_key(cfg, i)]))
        s_layers.append(s)
    return s_layers


def mix_shortcut(s_layers: list, z: ad.Var, cfg: ModelConfig) -> ad.Var:
    """S_out = r * S_k + (1 - r) * S_N; endpoints return the layer exactly."""
    if not s_layers:
        return z
    if cfg.variant != "full":
        return s_layers[-1]  # ablations have no shortcut
    k, r = cfg.shortcut_layer, cfg.shortcut_weight
    s_k, s_n = s_layers[k - 1], s_layers[-1]
    if r == 1.0:
        return s_k
    if r == 0.0 or s_k is s_n:
        return s_n
    return ad.add(ad.scale(s_k, r), ad.scale(s_n, 1.0 - r))


def build_loss_graph(tape: ad.Tape, pv: dict, x: ad.Var, a0: ad.Var | None,
                     cfg: ModelConfig):
    """Full stage-2 graph.  Returns (loss Vars by term, cache Vars)."""
    z = encode_vars(pv, x, cfg)
    s_layers = propagate_vars(pv, z, cfg)
    s_out = mix_shortcut(s_layers, z, cfg)
    q = pv["q"]
    decoder_in = ad.matmul(s_out, q)
    x_hat = decode_vars(pv, decoder_in, cfg)

    zero = tape.var(np.zeros((1, 1)))
    l_r = ad.frob_sq(ad.sub(x, x_hat))
    if s_layers:
        if a0 is None:
            raise ValueError("prior graph A_0 required when adjacency layers exist")
        a1 = pv[adjacency_key(cfg, 0)]
        l_a = ad.add(ad.scale(ad.frob_sq(a1), cfg.alpha),
                     ad.scale(ad.frob_sq(ad.sub(a1, a0)), cfg.beta))
    else:
        l_a = zero
    l_p = zero
    for l in range(1, cfg.n_matrices):
        cur = pv[adjacency_key(cfg, l)]
        prev = pv[adjacency_key(cfg, l - 1)]
        term = ad.add(ad.scale(ad.frob_sq(cur), cfg.alpha_p),
                      ad.scale(ad.frob_sq(ad.sub(cur, prev)), cfg.beta_p))
        l_p = term if l_p is zero else ad.add(l_p, term)
    l_s = ad.add(ad.frob_sq(ad.sub(s_out, decoder_in)),
                 ad.scale(ad.sup_norm_rows(q), cfg.lam))
    total = ad.add(ad.add(l_r, l_a), ad.add(l_p, l_s))
    losses = {"recon": l_r, "adjacency": l_a, "propagation": l_p,
              "selection": l_s, "total": total}
    cache = {"latent": z, "s_layers": s_layers, "s_out": s_out,
             "decoder_input": decoder_in, "x_hat": x_hat}
    return losses, cache


@dataclass
class ForwardCache:
    """Value arrays from one full forward pass."""

    latent: np.ndarray
    s_layers: list
    s_out: np.ndarray
    decoder_input: np.ndarray
    x_hat: np.ndarray


def forward(params: ModelParams, x: np.ndarray, cfg: ModelConfig,
            a0: np.ndarray | None = None):
    """Run the full model without gradients.

    Returns (ForwardCache, loss values per term).  a0 is required whenever
    the variant has adjacency layers.
    """
    x = np.asarray(x, dtype=np.float64)
    if params.q is None:
        raise ValueError("selection matrix Q not initialized; run train() first")
    if x.shape[1] != params.q.shape[0]:
        raise ValueError(
            f"x has {x.shape[1]} columns but Q is {params.q.shape}; "
            "the model is transductive over a fixed candidate set"
        )
    tape = ad.Tape()
    xv = tape.var(x)
    a0v = None if a0 is None else tape.var(np.asarray(a0, dtype=np.float64))
    pv = wrap_params(tape, params, cfg, trainable=False)
    losses, cache = build_loss_graph(tape, pv, xv, a0v, cfg)
    values = {k: v.item() for k, v in losses.items()}
    out = ForwardCache(
        latent=cache["latent"].value,
        s_layers=[s.value for s in cache["s_layers"]],
        s_out=cache["s_out"].value,
        decoder_input=cache["decoder_input"].value,
        x_hat=cache["x_hat"].value,
    )
    return out, values


# ---------------------------------------------------------------------------
# Loss terms as plain numpy functions (reporting / verification surface)
# ---------------------------------------------------------------------------

def loss_reconstruction(x: np.ndarray, x_hat: np.ndarray) -> float:
    """||x - x_hat||_F^2."""
    x, x_hat = np.asarray(x), np.asarray(x_hat)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    diff = x - x_hat
    return float(np.sum(diff * diff))


def loss_adjacency(a1: np.ndarray, a0: np.ndarray, alpha: float, beta: float) -> float:
    """alpha ||A_1||_F^2 + beta ||A_1 - A_0||_F^2."""
    a1, a0 = np.asarray(a1), np.asarray(a0)
    if a1.shape != a0.shape:
        raise ValueError(f"shape mismatch: {a1.shape} vs {a0.shape}")
    diff = a1 - a0
    return float(alpha * np.sum(a1 * a1) + beta * np.sum(diff * diff))


def loss_propagation(matrices, alpha_p: float, beta_p: float) -> float:
    """sum_{l>=2} alpha' ||A_l||_F^2 + beta' ||A_l - A_{l-1}||_F^2 (0 if N=1)."""
    matrices = [np.asarray(a) for a in matrices]
    if not matrices:
        raise ValueError("at least one adjacency matrix required")
    total = 0.0
    for prev, cur in zip(matrices[:-1], matrices[1:]):
        if prev.shape != cur.shape:
            raise ValueError(f"shape mismatch: {prev.shape} vs {cur.shape}")
        diff = cur - prev
        total += alpha_p * np.sum(cur * cur) + beta_p * np.sum(diff * diff)
    return float(total)


def sup_norm_rows_value(q: np.ndarray) -> float:
    """sum_i max_j |q_ij|."""
    return float(np.sum(np.max(np.abs(np.asarray(q)), axis=1)))


def loss_selection(s_out: np.ndarray, q: np.ndarray, lam: float) -> float:
    """||S_out - S_out Q||_F^2 + lambda * sum_i max_j |Q_ij|."""
    s_out, q = np.asarray(s_out), np.asarray(q)
    if q.shape[0] != q.shape[1] or q.shape[0] != s_out.shape[1]:
        raise ValueError(f"Q must be square with side = columns of S_out, got {q.shape}")
    diff = s_out - s_out @ q
    return float(np.sum(diff * diff) + lam * sup_norm_rows_value(q))


def loss_total(recon: float, adjacency: float, propagation: float, selection: float) -> float:
    return float(recon + adjacency + propagation + selection)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

@dataclass
class SelectionResult:
    """Candidate indices sorted by descending Q-row L2 norm."""

    ranked_indices: list
    scores: list  # aligned with ranked_indices
    final_losses: dict | None = None

    def top(self, m: int) -> list:
        if m > len(self.ranked_indices):
            raise ValueError(f"requested top-{m} of {len(self.ranked_indices)} candidates")
        return self.ranked_indices[:m]


def rank(params: ModelParams, final_losses: dict | None = None) -> SelectionResult:
    """Rank candidates by the L2 norms of Q's rows, ties by lowest index."""
    if params.q is None:
        raise ValueError("selection matrix Q has not been trained")
    scores = np.sqrt(np.sum(params.q * params.q, axis=1))
    order = np.argsort(-scores, kind="stable")
    return SelectionResult(
        ranked_indices=[int(i) for i in order],
        scores=[float(scores[i]) for i in order],
        final_losses=final_losses,
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig) -> None:
    """Binary .npz checkpoint: exact float64 arrays plus the config."""
    arrays = params.to_dict()
    meta = {
        "format_version": _CHECKPOINT_VERSION,
        "config": config_to_dict(cfg),
        "n_enc": len(params.enc_weights),
        "n_dec": len(params.dec_weights),
        "n_adj": len(params.adjacency),
        "has_q": params.q is not None,
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Load (ModelParams, ModelConfig) saved by save_checkpoint."""
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["__meta__"][()]))
        if meta.get("format_version") != _CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        params = ModelParams(
            enc_weights=[npz[f"enc_w{i}"] for i in range(meta["n_enc"])],
            enc_biases=[npz[f"enc_b{i}"] for i in range(meta["n_enc"])],
            dec_weights=[npz[f"dec_w{i}"] for i in range(meta["n_dec"])],
            dec_biases=[npz[f"dec_b{i}"] for i in range(meta["n_dec"])],
            adjacency=[npz[f"adj{i}"] for i in range(meta["n_adj"])],
            q=npz["q"] if meta["has_q"] else None,
        )
    cfg = config_from_dict(meta["config"])
    return params, cfg
