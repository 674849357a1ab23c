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
import os
import types
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .rng import substream

VARIANTS = ("full", "no_graph", "knn_only", "one_matrix", "tied_two", "distinct_two")

_ACTIVATIONS = ("relu", "linear")


def default_encoder_dims(d: int) -> tuple:
    """Default layer widths [d, 128, 64, 32], each hidden clipped at d."""
    return (d,) + tuple(min(h, d) for h in (128, 64, 32))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes and training hyperparameters."""

    encoder_dims: tuple[int, ...]
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

    def __post_init__(self):
        """Range checks; each message quotes the offending model key."""
        object.__setattr__(self, "encoder_dims", tuple(int(v) for v in self.encoder_dims))
        if len(self.encoder_dims) < 2 or any(v < 1 for v in self.encoder_dims):
            raise ConfigError(f"model key 'encoder_dims' needs >= 2 positive entries, "
                              f"got {self.encoder_dims}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"model key 'variant' must be one of {VARIANTS}, "
                              f"got {self.variant!r}")
        if self.variant == "full":
            if self.n_adjacency < 1:
                raise ConfigError(f"model key 'n_adjacency' must be >= 1, got {self.n_adjacency}")
            if not 1 <= self.shortcut_layer <= self.n_adjacency:
                raise ConfigError(f"model key 'shortcut_layer' must lie in 1..n_adjacency="
                                  f"{self.n_adjacency}, got {self.shortcut_layer}")
        if not 0.0 <= self.shortcut_weight <= 1.0:
            raise ConfigError(f"model key 'shortcut_weight' must lie in [0, 1], "
                              f"got {self.shortcut_weight}")
        for name in ("alpha", "beta", "lam", "lr", "alpha_prop", "beta_prop"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"model key {name!r} must be positive, got {val}")
        for name, low in (("pretrain_epochs", 0), ("train_epochs", 1), ("seed", 0),
                          ("knn_k", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"model key {name!r} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        for name, allowed in (("prior_normalize", ("none", "col", "sym")),
                              ("encoder_final_activation", _ACTIVATIONS),
                              ("decoder_final_activation", _ACTIVATIONS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"model key {name!r} must be one of {allowed}, "
                                  f"got {getattr(self, name)!r}")

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


# Annotation -> (accepted config values, wording for the error message).
# A tuple[X, ...] annotation takes a list whose entries each fit X; X | Y takes either.
_FIELD_KINDS = {
    int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
    bool: (bool, "true or false"), tuple: ((list, tuple), "a list"), list: (list, "a list"),
    dict: (dict, "an object"), type(None): (type(None), "null"),
}


def _fits(value, kind) -> bool:
    if isinstance(kind, types.UnionType):
        return any(_fits(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    return isinstance(value, _FIELD_KINDS[kind][0]) and (kind is bool) == isinstance(value, bool)


def _wording(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(_wording(k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        return f"a list with each entry {_wording(typing.get_args(kind)[0])}"
    return _FIELD_KINDS[kind][1]


def check_options(table, opts, block: str) -> None:
    """Raise ConfigError unless `opts` is an object with keys from `table` (key -> annotation;
    a dataclass stands for its fields) and values that fit them (a bool is no number)."""
    if dataclasses.is_dataclass(table):
        table = {f.name: f.type for f in dataclasses.fields(table)}
    if not isinstance(opts, dict):
        raise ConfigError(f"{block} must be an object, got {opts!r}")
    unknown = set(opts) - set(table)
    if unknown:
        raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")
    for key, value in opts.items():
        if not _fits(value, table[key]):
            raise ConfigError(f"{block} key {key!r} must be {_wording(table[key])}, got {value!r}")


def config_from_dict(d: dict) -> ModelConfig:
    check_options(ModelConfig, d, "model")
    return ModelConfig(**d)


def config_from_options(opts: dict, d: int, n: int) -> ModelConfig:
    """ModelConfig for n candidates of d features; encoder_dims defaults to
    default_encoder_dims(d), a graph variant's kNN prior needs knn_k < n, and
    stage 2 must fit in physical memory (see stage2_peak_bytes)."""
    cfg = config_from_dict({"encoder_dims": default_encoder_dims(d), **opts})
    if cfg.input_dim != d:
        raise ConfigError(f"model key 'encoder_dims' must start at the data's {d} features")
    if cfg.n_matrices and cfg.knn_k >= n:
        raise ConfigError(f"model key 'knn_k' must be below the {n} candidates, got {cfg.knn_k}")
    need, have = stage2_peak_bytes(cfg, n), physical_memory_bytes()
    if have is not None and need > have:
        raise ConfigError(f"stage 2 of variant {cfg.variant!r} on {n} candidates needs about "
                          f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of "
                          "physical memory; rank a smaller pool (config key 'subsample')")
    return cfg


# Peak RSS of the interpreter with numpy and allg imported, before any data.
_BASE_BYTES = 36 * 2**20


def stage2_peak_bytes(cfg: ModelConfig, n: int) -> int:
    """Estimated peak RSS of run_selection on n candidates.

    Each trainable n x n parameter (Q and every adjacency matrix the variant
    learns) holds itself, two Adam moments and a gradient; a frozen
    adjacency matrix and the prior A_0 hold one array each; the VJP
    temporaries of one backward pass add three.  That is 16 float64 n x n
    arrays for the default full variant; every variant's traced peak lies
    at most 1.5 arrays below its estimate.  The d x n activations are left
    out.
    """
    frozen = cfg.n_stored_matrices if is_frozen(cfg, "adj0") else 0
    trainable = 1 + cfg.n_stored_matrices - frozen
    arrays = 4 * trainable + frozen + (1 if cfg.n_matrices else 0) + 3
    return _BASE_BYTES + arrays * 8 * n * n


def physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def init_encoder_decoder(cfg: ModelConfig, rng=None) -> dict:
    """Symmetric-uniform (fan-based) init of encoder and mirrored decoder.

    Returns the parameter dict: name -> float64 array, in the order
    enc_w0, enc_b0, ..., dec_w0, dec_b0, ...; stage 2 appends adj0, ... and q.
    """
    if rng is None:
        rng = substream(cfg.seed, "init")
    params = {}
    dims = cfg.encoder_dims
    for part, layer_dims in (("enc", dims), ("dec", dims[::-1])):
        for i, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params[f"{part}_w{i}"] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            params[f"{part}_b{i}"] = np.zeros((fan_out, 1))
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

def wrap_params(tape: ad.Tape, params: dict, cfg: ModelConfig,
                trainable: bool = True) -> dict:
    """Leaf Vars for every parameter array; frozen parameters stay constant."""
    return {name: tape.var(arr, requires_grad=trainable and not is_frozen(cfg, name))
            for name, arr in params.items()}


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
        l_a = ad.graph_penalty(pv[adjacency_key(cfg, 0)], a0, cfg.alpha, cfg.beta)
    else:
        l_a = zero
    l_p = zero
    for l in range(1, cfg.n_matrices):
        term = ad.graph_penalty(pv[adjacency_key(cfg, l)], pv[adjacency_key(cfg, l - 1)],
                                cfg.alpha_p, cfg.beta_p)
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


def forward(params: dict, x: np.ndarray, cfg: ModelConfig,
            a0: np.ndarray | None = None):
    """Run the full model without gradients.

    Returns (ForwardCache, loss values per term).  a0 is required whenever
    the variant has adjacency layers.
    """
    x = np.asarray(x, dtype=np.float64)
    if "q" not in params:
        raise ValueError("selection matrix Q not initialized; run train() first")
    if x.shape[1] != params["q"].shape[0]:
        raise ValueError(
            f"x has {x.shape[1]} columns but Q is {params['q'].shape}; "
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


def rank(params: dict, final_losses: dict | None = None) -> SelectionResult:
    """Rank candidates by the L2 norms of Q's rows, ties by lowest index."""
    if "q" not in params:
        raise ValueError("selection matrix Q has not been trained")
    q = params["q"]
    scores = np.sqrt(np.sum(q * q, axis=1))
    order = np.argsort(-scores, kind="stable")
    return SelectionResult(
        ranked_indices=[int(i) for i in order],
        scores=[float(scores[i]) for i in order],
        final_losses=final_losses,
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 3


def _param_names(cfg: ModelConfig) -> list:
    """Names of a stage-2 model's parameters, in the order init and train add them."""
    return ([f"{part}_{kind}{i}" for part in ("enc", "dec") for i in range(cfg.n_layers)
             for kind in ("w", "b")]
            + [f"adj{i}" for i in range(cfg.n_stored_matrices)] + ["q"])


def save_checkpoint(path, params: dict, cfg: ModelConfig) -> None:
    """Binary .npz checkpoint: exact float64 arrays plus the config."""
    meta = {"format_version": _CHECKPOINT_VERSION, "config": config_to_dict(cfg)}
    np.savez(path, __meta__=np.array(json.dumps(meta)), **params)


def load_checkpoint(path):
    """Load (params, ModelConfig) saved by save_checkpoint.

    The arrays must be the autoencoder's, or a whole stage-2 model's, that
    the stored config implies, in the order save_checkpoint wrote them.
    """
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["__meta__"][()]))
        if meta.get("format_version") != _CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        cfg = config_from_dict(meta["config"])
        names = [k for k in npz.files if k != "__meta__"]
        full = _param_names(cfg)
        if names not in (full, full[:4 * cfg.n_layers]):
            raise ConfigError(f"checkpoint arrays {names} are not the {full} its config "
                              f"implies, nor their first {4 * cfg.n_layers}")
        params = {k: npz[k] for k in names}
    return params, cfg
