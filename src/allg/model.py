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

# Variant -> the matrix at each position of its adjacency chain, in the ablation
# order from no learned graph to the full model.  "a0" is the prior A_0 itself,
# "adjI" a learned parameter, and None stands for n_adjacency distinct parameters.
VARIANTS = {"no_graph": (), "knn_only": ("a0",), "one_matrix": ("adj0",),
            "tied_two": ("adj0", "adj0"), "distinct_two": ("adj0", "adj1"), "full": None}


def rule(kind, wording: str, test):
    """`kind` narrowed to the values that pass `test`; `wording` follows the kind's in errors."""
    return typing.Annotated[kind, wording, test]


POSITIVE = rule(float, "> 0 and finite", lambda v: 0 < v < np.inf)
NON_NEGATIVE = rule(int, ">= 0", lambda v: v >= 0)
AT_LEAST_1 = rule(int, ">= 1", lambda v: v >= 1)


def distinct_list(item):
    """A non-empty list of `item` values without repeats."""
    return rule(tuple[item, ...], "(non-empty, without repeats)",
                lambda v: 0 < len(v) == len(set(v)))


def default_encoder_dims(d: int) -> tuple:
    """Default layer widths [d, 128, 64, 32], each hidden clipped at d."""
    return (d,) + tuple(min(h, d) for h in (128, 64, 32))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes and training hyperparameters."""

    encoder_dims: rule(tuple[AT_LEAST_1, ...], "(at least 2 of them)", lambda v: len(v) >= 2)
    n_adjacency: int = 2
    shortcut_layer: int = 1
    shortcut_weight: rule(float, "in [0, 1]", lambda v: 0 <= v <= 1) = 0.3
    alpha: POSITIVE = 1.0
    beta: POSITIVE = 1.0
    alpha_prop: POSITIVE | None = None  # defaults to alpha
    beta_prop: POSITIVE | None = None   # defaults to beta
    lam: POSITIVE = 1.0
    lr: POSITIVE = 1e-3
    pretrain_epochs: NON_NEGATIVE = 500
    train_epochs: AT_LEAST_1 = 2000
    seed: NON_NEGATIVE = 0
    knn_k: AT_LEAST_1 = 5
    prior_normalize: typing.Literal["none", "col", "sym"] = "none"
    variant: typing.Literal[tuple(VARIANTS)] = "full"
    encoder_final_activation: typing.Literal["relu", "linear"] = "relu"
    decoder_final_activation: typing.Literal["relu", "linear"] = "linear"

    def __post_init__(self):
        """Check each field's rule, then the full variant's shortcut, naming the model key.

        Numpy scalars become their Python values, so dataclasses.asdict is JSON-ready.
        """
        check_options(type(self), vars(self), "model")
        plain = {k: v.item() for k, v in vars(self).items() if isinstance(v, np.generic)}
        plain["encoder_dims"] = tuple(int(v) for v in self.encoder_dims)
        for key, value in plain.items():
            object.__setattr__(self, key, value)
        if self.variant == "full":
            if self.n_adjacency < 1:
                raise ConfigError(f"model key 'n_adjacency' must be >= 1, got {self.n_adjacency}")
            if not 1 <= self.shortcut_layer <= self.n_adjacency:
                raise ConfigError(f"model key 'shortcut_layer' must lie in 1..n_adjacency="
                                  f"{self.n_adjacency}, got {self.shortcut_layer}")

    @property
    def input_dim(self) -> int:
        return self.encoder_dims[0]

    @property
    def n_layers(self) -> int:
        return len(self.encoder_dims) - 1

    @property
    def chain(self) -> tuple:
        """Name of the matrix at each position of the adjacency chain (see VARIANTS)."""
        names = VARIANTS[self.variant]
        return tuple(f"adj{i}" for i in range(self.n_adjacency)) if names is None else names

    @property
    def n_matrices(self) -> int:
        """Length of the adjacency propagation chain."""
        return len(self.chain)

    @property
    def n_stored_matrices(self) -> int:
        """Adjacency parameter arrays adj0, adj1, ...: tied layers share one, A_0 is none."""
        return len(set(self.chain) - {"a0"})

    @property
    def alpha_p(self) -> float:
        return self.alpha if self.alpha_prop is None else self.alpha_prop

    @property
    def beta_p(self) -> float:
        return self.beta if self.beta_prop is None else self.beta_prop


# Annotation -> (accepted config values, wording for the error message).  Numpy
# scalars count as numbers for library callers.  A tuple[X, ...] annotation takes a
# list whose entries each fit X; X | Y takes either; Literal[...] takes one of its
# values; a `rule` takes what fits its kind and passes its test.
_FIELD_KINDS = {
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a number"),
    str: (str, "a string"), bool: (bool, "true or false"), dict: (dict, "an object"),
    type(None): (type(None), "null"),
}
_UNIONS = (typing.Union, types.UnionType)


def _fits(value, kind) -> bool:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in _UNIONS:
        return any(_fits(value, k) for k in args)
    if origin is typing.Annotated:
        return _fits(value, args[0]) and args[2](value)
    if origin is typing.Literal:
        return value in args
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    return isinstance(value, _FIELD_KINDS[kind][0]) and (kind is bool) == isinstance(value, bool)


def _wording(kind) -> str:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in _UNIONS:
        return " or ".join(_wording(k) for k in args)
    if origin is typing.Annotated:
        return f"{_wording(args[0])} {args[1]}"
    if origin is typing.Literal:
        return " or ".join(map(repr, args))
    if origin is tuple:
        return f"a list with each entry {_wording(args[0])}"
    return _FIELD_KINDS[kind][1]


def check_options(table, opts, block: str) -> None:
    """Raise ConfigError unless `opts` is an object with keys from `table` (key -> annotation;
    a dataclass stands for its fields) and values that fit them (a bool is no number).

    Keys are checked in the table's order, so the first failing key is the same for any
    order of `opts`.
    """
    if dataclasses.is_dataclass(table):
        table = {f.name: f.type for f in dataclasses.fields(table)}
    if not isinstance(opts, dict):
        raise ConfigError(f"{block} must be an object, got {opts!r}")
    unknown = set(opts) - set(table)
    if unknown:
        raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")
    for key, kind in table.items():
        if key in opts and not _fits(opts[key], kind):
            raise ConfigError(f"{block} key {key!r} must be {_wording(kind)}, got {opts[key]!r}")


def config_from_dict(d: dict) -> ModelConfig:
    check_options(ModelConfig, d, "model")
    for f in dataclasses.fields(ModelConfig):
        if f.name not in d and f.default is dataclasses.MISSING:
            raise ConfigError(f"model key {f.name!r} is missing")
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

    Stage 2 computes in float32, so an array here is a float32 n x n array.
    Each parameter (Q and every adjacency matrix the variant learns) holds
    itself, two Adam moments and a gradient; the prior A_0 holds three, a float64
    copy for the final forward pass and train's float32 one.  A backward pass
    makes one temporary for each chain position whose matrix an earlier
    position already learns (tied_two's second A_1), because a matmul VJP
    can only write a gradient, not add to one; the other VJPs add in place
    (see build_loss_graph).  Adam's scratch, the block scratch of the VJPs
    and the d x n activations add two.  That is 17 arrays (68 n^2 bytes)
    for the default full variant; every variant's traced peak at n = 400
    lies at most 1.5 arrays below its estimate.  train frees its Adam state
    before it makes the float64 copies it returns, so they stay below that
    peak.
    """
    repeats = sum(name != "a0" for name in cfg.chain) - cfg.n_stored_matrices
    arrays = 4 * (1 + cfg.n_stored_matrices) + (3 if cfg.n_matrices else 0) + repeats + 2
    return _BASE_BYTES + arrays * 4 * n * n


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
    for name, shape in _autoencoder_shapes(cfg).items():
        limit = np.sqrt(6.0 / sum(shape))  # a weight's fan_out + fan_in
        params[name] = rng.uniform(-limit, limit, size=shape) if "_w" in name else np.zeros(shape)
    return params


def _autoencoder_shapes(cfg: ModelConfig) -> dict:
    """Shape of each encoder and decoder array by name, in init order."""
    dims, shapes = cfg.encoder_dims, {}
    for part, layer_dims in (("enc", dims), ("dec", dims[::-1])):
        for i, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            shapes.update({f"{part}_w{i}": (fan_out, fan_in), f"{part}_b{i}": (fan_out, 1)})
    return shapes


# ---------------------------------------------------------------------------
# Forward graph (tape), shared by training, evaluation, and gradcheck
# ---------------------------------------------------------------------------

def stack_vars(pv: dict, part: str, h: ad.Var, cfg: ModelConfig) -> ad.Var:
    """The encoder (part "enc") or the decoder ("dec") applied to h: a ReLU follows
    every layer but the last, which takes that part's final activation."""
    final = cfg.encoder_final_activation if part == "enc" else cfg.decoder_final_activation
    for l in range(cfg.n_layers):
        h = ad.affine(pv[f"{part}_w{l}"], h, pv[f"{part}_b{l}"])
        if l < cfg.n_layers - 1 or final == "relu":
            h = ad.relu(h)
    return h


def propagate_vars(pv: dict, z: ad.Var, cfg: ModelConfig) -> list:
    """Adjacency chain S_1 = relu(Z A_1), S_{i+1} = relu(S_i A_{i+1}), where A_i is
    pv[cfg.chain[i - 1]]; build_loss_graph adds the prior to pv as "a0"."""
    s_layers = []
    s = z
    for name in cfg.chain:
        s = ad.relu(ad.matmul(s, pv[name]))
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
                     cfg: ModelConfig) -> dict:
    """Full stage-2 graph.  Returns the loss Vars by term, "total" included.

    The terms of the parameters alone are recorded first: the graph
    penalties and lambda * sum_i max_j |Q_ij|.  The backward sweep runs in
    reverse, so each n x n parameter's matmul VJP, which can only write,
    comes before the VJPs of those terms, which add in place (see autodiff).
    """
    if cfg.chain and a0 is None:
        raise ValueError("prior graph A_0 required when adjacency layers exist")
    pv = {**pv, "a0": a0}
    q = pv["q"]
    zero = tape.var(np.zeros((1, 1)))
    # A_0, A_1, ...: A_1 against the prior, each later matrix against the one before
    mats = [a0] + [pv[name] for name in cfg.chain]
    l_a = ad.graph_penalty(mats[1], a0, cfg.alpha, cfg.beta) if cfg.chain else zero
    l_p = zero
    for prev, cur in zip(mats[1:], mats[2:]):
        term = ad.graph_penalty(cur, prev, cfg.alpha_p, cfg.beta_p)
        l_p = term if l_p is zero else ad.add(l_p, term)
    sparsity = ad.scale(ad.sup_norm_rows(q), cfg.lam)

    z = stack_vars(pv, "enc", x, cfg)
    s_layers = propagate_vars(pv, z, cfg)
    s_out = mix_shortcut(s_layers, z, cfg)
    decoder_in = ad.matmul(s_out, q)
    x_hat = stack_vars(pv, "dec", decoder_in, cfg)
    l_r = ad.frob_sq(ad.sub(x, x_hat))
    l_s = ad.add(ad.frob_sq(ad.sub(s_out, decoder_in)), sparsity)
    total = ad.add(ad.add(l_r, l_a), ad.add(l_p, l_s))
    return {"recon": l_r, "adjacency": l_a, "propagation": l_p,
            "selection": l_s, "total": total}


def forward(params: dict, x: np.ndarray, cfg: ModelConfig,
            a0: np.ndarray | None = None) -> dict:
    """Run the full model without gradients and return the loss values by term.

    a0 is required whenever the variant has adjacency layers.
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
    pv = {k: tape.var(v) for k, v in params.items()}
    return {k: v.item() for k, v in build_loss_graph(tape, pv, xv, a0v, cfg).items()}


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

@dataclass
class SelectionResult:
    """Candidate indices sorted by descending Q-row L2 norm."""

    ranked_indices: list
    scores: list  # aligned with ranked_indices
    final_losses: dict | None = None


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
    return [*_autoencoder_shapes(cfg), *(f"adj{i}" for i in range(cfg.n_stored_matrices)), "q"]


def save_checkpoint(path, params: dict, cfg: ModelConfig) -> None:
    """Binary .npz checkpoint: exact float64 arrays plus the config."""
    meta = {"format_version": _CHECKPOINT_VERSION, "config": dataclasses.asdict(cfg)}
    np.savez(path, __meta__=np.array(json.dumps(meta)), **params)


def load_checkpoint(path):
    """Load (params, ModelConfig) saved by save_checkpoint.

    The arrays must be the autoencoder's, or a whole stage-2 model's, that
    the stored config implies, in the order save_checkpoint wrote them, and
    every adj* must be n x n like q.
    """
    try:
        npz = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):
        npz = None
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ConfigError(f"checkpoint {path} is not an .npz archive")
    with npz:
        if "__meta__" not in npz.files:
            raise ConfigError(f"checkpoint {path} has no __meta__ member; "
                              "save_checkpoint did not write it")
        try:
            meta = json.loads(str(npz["__meta__"][()]))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise ConfigError(f"checkpoint {path} has a __meta__ member that is not a JSON object")
        if meta.get("format_version") != _CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        if "config" not in meta:
            raise ConfigError(f"checkpoint {path} has a __meta__ member with no 'config'")
        cfg = config_from_dict(meta["config"])
        names = [k for k in npz.files if k != "__meta__"]
        full = _param_names(cfg)
        if names not in (full, full[:4 * cfg.n_layers]):
            raise ConfigError(f"checkpoint arrays {names} are not the {full} its config "
                              f"implies, nor their first {4 * cfg.n_layers}")
        params = {k: npz[k] for k in names}
    want = {**dict.fromkeys(names, params.get("q", np.empty(0)).shape[:1] * 2),
            **_autoencoder_shapes(cfg)}
    for k, arr in params.items():
        if arr.shape != want[k] or arr.ndim != 2:
            raise ConfigError(f"checkpoint member {k!r} has shape {arr.shape}, not the "
                              f"{want[k]} that encoder_dims and the rows of q imply")
    return params, cfg
