"""Small-matrix sequence models shared by both detector stages.

Everything is float64 numpy with hand-written backward passes; every
gradient here is covered by the central-difference checker below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError

DEFAULT_HIDDEN = 32
DEFAULT_DIM = 64
DEFAULT_BETA = 2.0


def sigmoid(x):
    # |x| <= 36 keeps the output strictly inside (0, 1) in float64, so
    # downstream log-loss terms never hit log(0). The two ufuncs give
    # np.clip's bits without its Python wrapper.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -36.0), 36.0)))


# ---------------------------------------------------------------------------
# GRU classifier (structural stage)
# ---------------------------------------------------------------------------

@dataclass
class GruParams:
    wz: np.ndarray  # d x h
    wr: np.ndarray
    wh: np.ndarray
    uz: np.ndarray  # h x h
    ur: np.ndarray
    uh: np.ndarray
    bz: np.ndarray  # h
    br: np.ndarray
    bh: np.ndarray
    w: np.ndarray   # h readout
    b: np.ndarray   # 0-d readout bias

    @classmethod
    def init(cls, dim: int, hidden: int, seed: int, scale: float = 0.2) -> "GruParams":
        rng = np.random.default_rng(seed)

        def mat(rows, cols):
            return rng.uniform(-scale, scale, size=(rows, cols))

        return cls(
            wz=mat(dim, hidden), wr=mat(dim, hidden), wh=mat(dim, hidden),
            uz=mat(hidden, hidden), ur=mat(hidden, hidden), uh=mat(hidden, hidden),
            bz=np.zeros(hidden), br=np.zeros(hidden), bh=np.zeros(hidden),
            w=rng.uniform(-scale, scale, size=hidden), b=np.zeros(()),
        )

    @property
    def dim(self) -> int:
        return self.wz.shape[0]

    @property
    def hidden(self) -> int:
        return self.wz.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in
                ("wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh", "w", "b")}

    def validate(self, d: int, h: int) -> None:
        """Each array's shape for input width ``d`` and hidden width ``h``,
        the widths the model records, and finite entries."""
        shapes = {
            "wz": (d, h), "wr": (d, h), "wh": (d, h),
            "uz": (h, h), "ur": (h, h), "uh": (h, h),
            "bz": (h,), "br": (h,), "bh": (h,), "w": (h,), "b": (),
        }
        for name, expect in shapes.items():
            arr = getattr(self, name)
            if arr.shape != expect:
                raise ConfigError(f"GRU param {name} has shape {arr.shape}, want {expect}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"GRU param {name} has non-finite entries")


def gru_forward(seq: np.ndarray, p: GruParams):
    """Run the recurrence from zero; returns (score, hidden_states, cache).

    Gates: z update, r reset, candidate h~; blend h' = (1-z)*h + z*h~,
    sigmoid readout on the final hidden state. This is ``gru_batch`` on a
    batch of one, and the reference that ``gru_scores`` is tested against.
    """
    n = seq.shape[0]
    if n and seq.shape[1] != p.dim:
        raise ConfigError(f"sequence width {seq.shape[1]} != model width {p.dim}")
    x = seq[None] if n else np.zeros((1, 0, p.dim))
    scores, cache = gru_batch(x, np.array([n]), p)
    return float(scores[0]), cache["hs"][1:, 0], cache


def gru_batch(x: np.ndarray, lengths: np.ndarray, p: GruParams):
    """Scores of a padded batch ``x`` (B, T, d) and the cache for backward.

    Row b holds its sequence in ``x[b, :lengths[b]]``. The recurrence runs
    time-major over all rows at once from a zero state; a row past its
    length keeps its state, so its score is that of its last real step.
    Non-finite states raise with the first step that produced one.
    """
    rows, steps, width = x.shape
    if width != p.dim:
        raise ConfigError(f"sequence width {width} != model width {p.dim}")
    hid = p.hidden
    alive = np.arange(steps)[:, None, None] < np.asarray(lengths)[:, None]
    w_in = np.concatenate([p.wz, p.wr, p.wh], axis=1)
    u_zr = np.concatenate([p.uz, p.ur], axis=1)
    # time-major: proj[t] is every row's input at step t, biases folded in
    proj = (x.reshape(rows * steps, width) @ w_in
            + np.concatenate([p.bz, p.br, p.bh])) \
        .reshape(rows, steps, 3 * hid).transpose(1, 0, 2)
    hs = np.zeros((steps + 1, rows, hid))
    gates = np.empty((steps, rows, 3 * hid))  # z | r | candidate per step
    for t in range(steps):
        h = hs[t]
        zr = sigmoid(proj[t, :, :2 * hid] + h @ u_zr)
        z, r = zr[:, :hid], zr[:, hid:]
        cand = np.tanh(proj[t, :, 2 * hid:] + (r * h) @ p.uh)
        gates[t, :, :2 * hid] = zr
        gates[t, :, 2 * hid:] = cand
        hs[t + 1] = np.where(alive[t], (1.0 - z) * h + z * cand, h)
    finite = np.isfinite(hs[1:]).all(axis=(1, 2))
    if not finite.all():
        raise NumericError("non-finite hidden state",
                           step=int(np.argmin(finite)))
    scores = sigmoid(hs[-1] @ p.w + p.b)
    return scores, {"p": p, "x": x, "alive": alive, "hs": hs,
                    "gates": gates, "scores": scores}


def gru_input_table(matrix: np.ndarray, p: GruParams) -> np.ndarray:
    """Every vocabulary row's GRU input, (|V|, 3h): ``matrix`` projected
    through ``[wz|wr|wh]`` with the biases ``[bz|br|bh]`` folded in.

    An ``np.einsum``, so row v has exactly the bits that projecting a
    sequence holding token v gives (BLAS ``@`` does not promise that).
    """
    if matrix.shape[1] != p.dim:
        raise ConfigError(
            f"sequence width {matrix.shape[1]} != model width {p.dim}")
    w_in = np.concatenate([p.wz, p.wr, p.wh], axis=1)
    b_in = np.concatenate([p.bz, p.br, p.bh])
    return np.einsum("vd,dj->vj", matrix, w_in) + b_in


def gru_scores(id_seqs, p: GruParams, table: np.ndarray) -> np.ndarray:
    """Scores of a batch of vocabulary-id sequences, one per input, in order.

    The recurrence of ``gru_forward`` from a zero state, run as one masked
    batch. ``table`` is ``gru_input_table`` of the embedding matrix, so
    the inputs of a step are rows gathered from it by id, and no padded
    float array of all steps is made. Rows are sorted longest first, so
    step t updates only the ``alive[t]`` rows still inside their sequence.
    Every product is an ``np.einsum``: its per-row sums do not depend on
    how many rows there are (BLAS ``@`` does), so a sequence scores the
    same alone and in any batch. A NaN state stays NaN through the blend,
    so finiteness is checked once, after the last step.
    """
    hid = p.hidden
    lengths = np.array([len(ids) for ids in id_seqs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max()) if len(id_seqs) else 0
    alive = (lengths[:, None] > np.arange(steps)).sum(axis=0).tolist()
    u_zr = np.concatenate([p.uz, p.ur], axis=1)
    # time-major ids: ids[t, i] is sorted row i's token at step t; cells
    # past a row's length are never read
    ids = np.zeros((steps, len(id_seqs)), dtype=np.intp)
    for i, k in enumerate(order):
        ids[:lengths[k], i] = id_seqs[k]
    h = np.zeros((len(id_seqs), hid))
    for t, k in enumerate(alive):
        hk = h[:k]
        a = table[ids[t, :k]]
        zr = sigmoid(a[:, :2 * hid] + np.einsum("bi,ij->bj", hk, u_zr))
        z, r = zr[:, :hid], zr[:, hid:]
        cand = np.tanh(a[:, 2 * hid:] + np.einsum("bi,ij->bj", r * hk, p.uh))
        h[:k] = (1.0 - z) * hk + z * cand
    if not np.isfinite(h).all():
        raise NumericError("non-finite hidden state")
    scores = np.empty(len(id_seqs))
    scores[order] = sigmoid(np.einsum("bi,i->b", h, p.w) + p.b)
    return scores


def gru_backward(cache: dict, dscore):
    """Gradients of all GRU params and of the input, from one forward cache.

    ``dscore`` is one loss gradient per row of the batch (a float for
    ``gru_forward``'s cache). Parameter gradients are sums over the rows;
    the input gradient has the batch's shape (B, T, d). The step loop
    keeps only the (B, h) recurrences; each weight gradient is one
    product after it.
    """
    p: GruParams = cache["p"]
    x, alive, hs, gates = cache["x"], cache["alive"], cache["hs"], cache["gates"]
    rows, steps, width = x.shape
    hid = p.hidden
    score = cache["scores"]
    ds_pre = np.asarray(dscore) * score * (1.0 - score)
    u_zr_t = np.concatenate([p.uz, p.ur], axis=1).T
    dh = ds_pre[:, None] * p.w
    dgates = np.zeros((steps, rows, 3 * hid))  # pre-activation gradients
    for t in range(steps - 1, -1, -1):
        h = hs[t]
        z, r, cand = (gates[t, :, :hid], gates[t, :, hid:2 * hid],
                      gates[t, :, 2 * hid:])
        dblend = dh * alive[t]
        da_c = dblend * z * (1.0 - cand ** 2)
        tmp = da_c @ p.uh.T
        dgates[t, :, :hid] = dblend * (cand - h) * z * (1.0 - z)
        dgates[t, :, hid:2 * hid] = tmp * h * r * (1.0 - r)
        dgates[t, :, 2 * hid:] = da_c
        dh = (np.where(alive[t], dh * (1.0 - z), dh) + tmp * r
              + dgates[t, :, :2 * hid] @ u_zr_t)
    da = dgates.transpose(1, 0, 2).reshape(rows * steps, 3 * hid)
    xs = x.reshape(rows * steps, width)
    h_prev = hs[:-1].transpose(1, 0, 2).reshape(rows * steps, hid)
    rh = (gates[:, :, hid:2 * hid] * hs[:-1]).transpose(1, 0, 2) \
        .reshape(rows * steps, hid)
    dw_in = xs.T @ da
    du_zr = h_prev.T @ da[:, :2 * hid]
    db = da.sum(axis=0)
    grads = {
        "wz": dw_in[:, :hid], "wr": dw_in[:, hid:2 * hid], "wh": dw_in[:, 2 * hid:],
        "uz": du_zr[:, :hid], "ur": du_zr[:, hid:], "uh": rh.T @ da[:, 2 * hid:],
        "bz": db[:hid], "br": db[hid:2 * hid], "bh": db[2 * hid:],
        "w": hs[-1].T @ ds_pre, "b": np.asarray(ds_pre.sum()),
    }
    dx = (da @ np.concatenate([p.wz, p.wr, p.wh], axis=1).T) \
        .reshape(rows, steps, width)
    return grads, dx


# ---------------------------------------------------------------------------
# Risk-biased attention block (semantic stage)
# ---------------------------------------------------------------------------

@dataclass
class AttentionParams:
    wq: np.ndarray  # d x d
    wk: np.ndarray
    wv: np.ndarray
    w1: np.ndarray  # d x 4d
    b1: np.ndarray
    w2: np.ndarray  # 4d x d
    b2: np.ndarray
    w: np.ndarray   # d readout
    b: np.ndarray   # 0-d readout bias

    @classmethod
    def init(cls, dim: int, seed: int, scale: float = 0.2) -> "AttentionParams":
        rng = np.random.default_rng(seed)

        def mat(rows, cols):
            return rng.uniform(-scale, scale, size=(rows, cols))

        return cls(
            wq=mat(dim, dim), wk=mat(dim, dim), wv=mat(dim, dim),
            w1=mat(dim, 4 * dim), b1=np.zeros(4 * dim),
            w2=mat(4 * dim, dim), b2=np.zeros(dim),
            w=rng.uniform(-scale, scale, size=dim), b=np.zeros(()),
        )

    @property
    def dim(self) -> int:
        return self.wq.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in
                ("wq", "wk", "wv", "w1", "b1", "w2", "b2", "w", "b")}

    def validate(self, d: int) -> None:
        """Each array's shape for width ``d``, the width the model
        records, and finite entries."""
        shapes = {"wq": (d, d), "wk": (d, d), "wv": (d, d),
                  "w1": (d, 4 * d), "b1": (4 * d,),
                  "w2": (4 * d, d), "b2": (d,), "w": (d,), "b": ()}
        for name, expect in shapes.items():
            arr = getattr(self, name)
            if arr.shape != expect:
                raise ConfigError(
                    f"attention param {name} has shape {arr.shape}, want {expect}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"attention param {name} has non-finite entries")


@dataclass
class RiskMatrix:
    """Additive pre-softmax bias: ``row`` (beta at risky columns) for every row."""

    row: np.ndarray
    risky_columns: tuple[int, ...] = field(default_factory=tuple)

    @classmethod
    def build(cls, n: int, risky_columns, beta: float) -> "RiskMatrix":
        if beta < 0:
            raise ConfigError("risk bias beta must be >= 0")
        cols = tuple(sorted(set(risky_columns)))
        row = np.zeros(n)
        for j in cols:
            if not 0 <= j < n:
                raise ConfigError(f"risky column {j} outside sequence of length {n}")
            row[j] = beta
        return cls(row=row, risky_columns=cols)


def attention_forward(emb: np.ndarray, p: AttentionParams,
                      bias: RiskMatrix | None = None):
    """Risk-biased attention, feed-forward, mean pooling, sigmoid readout.

    Returns (score, pooled, attention_weights, cache). The one sequence
    is scored with 2-D products of the shapes ``attention_batch`` uses for
    a batch of one (pooling too is a (1, n) product), so the bits are
    that batch's. The cache is 2-D; ``attention_backward`` adds the batch
    axis. An empty sequence goes through ``attention_batch`` and scores
    ``sigmoid(b)``.
    """
    n = emb.shape[0]
    if n and emb.shape[1] != p.dim:
        raise ConfigError(f"embedding width {emb.shape[1]} != model width {p.dim}")
    if bias is not None and bias.row.shape != (n,):
        raise ConfigError(
            f"risk row shape {bias.row.shape} != ({n},)")
    if not n:
        scores, cache = attention_batch(np.zeros((1, 0, p.dim)),
                                        np.array([0]), p)
        return (float(scores[0]), cache["pooled"][0],
                cache["attn"][0, :0, :0], cache)
    q, k, v = emb @ p.wq, emb @ p.wk, emb @ p.wv
    logits = q @ k.T / np.sqrt(p.dim)
    if bias is not None:
        logits += bias.row
    attn = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    ctx = attn @ v
    hidden = ctx @ p.w1
    hidden += p.b1
    np.tanh(hidden, out=hidden)
    hbar = np.full((1, n), 1.0 / n) @ hidden
    pooled = hbar @ p.w2 + p.b2
    scores = sigmoid(pooled @ p.w + p.b)
    if not np.isfinite(scores).all():
        raise NumericError("non-finite attention score")
    return float(scores[0]), pooled[0], attn, {
        "p": p, "emb": emb, "q": q, "k": k, "v": v, "attn": attn,
        "ctx": ctx, "hidden": hidden, "hbar": hbar, "pooled": pooled,
        "scores": scores}


def attention_batch(emb: np.ndarray, lengths: np.ndarray, p: AttentionParams,
                    bias: np.ndarray | None = None):
    """Scores of a padded batch ``emb`` (B, n, d) and the cache for backward.

    Row b holds its sequence in ``emb[b, :lengths[b]]``; ``bias`` is added
    to the (B, n, n) pre-softmax scores by broadcasting. Padded key columns
    are masked before the softmax. The feed-forward block runs on the real
    rows only, packed into one (S, .) matrix. Mean pooling commutes with
    the second feed-forward layer, so the hidden rows are pooled first and
    ``w2`` is applied once per sequence; an empty sequence pools to zero.
    """
    rows, n, width = emb.shape
    d = p.dim
    lengths = np.asarray(lengths)
    if n == 0:  # every sequence is empty: one padded position keeps shapes
        emb, n, bias = np.zeros((rows, 1, d)), 1, None
    elif width != d:
        raise ConfigError(f"embedding width {width} != model width {d}")
    real = np.arange(n) < lengths[:, None]  # (B, n)
    # the padding need only be finite: padded query rows are dropped and
    # padded keys masked, so it never reaches a real row
    q, k, v = emb @ p.wq, emb @ p.wk, emb @ p.wv
    logits = q @ k.transpose(0, 2, 1) / np.sqrt(d)
    if bias is not None:
        logits += bias
    if not real.all():
        # an empty row keeps key 0, so its (unpooled) softmax stays finite
        keys = real | (np.arange(n) == 0)
        logits += np.where(keys, 0.0, -np.inf)[:, None, :]
    attn = np.exp(logits - logits.max(axis=2, keepdims=True))
    attn /= attn.sum(axis=2, keepdims=True)
    ctx = (attn @ v)[real]                  # (S, d), row-major over real
    hidden = ctx @ p.w1
    hidden += p.b1
    np.tanh(hidden, out=hidden)
    # (B, S) mean weights: row b averages its own real rows
    pool = np.repeat(np.diag(1.0 / np.maximum(lengths, 1)), lengths, axis=1)
    hbar = pool @ hidden
    pooled = (hbar @ p.w2 + p.b2) * (lengths > 0)[:, None]
    scores = sigmoid(pooled @ p.w + p.b)
    if not np.isfinite(scores).all():
        raise NumericError("non-finite attention score")
    return scores, {"p": p, "lengths": lengths, "real": real, "emb": emb,
                    "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
                    "hidden": hidden, "hbar": hbar, "pooled": pooled,
                    "scores": scores}


def attention_backward(cache: dict, dscore):
    """Gradients of all attention params, from one forward cache.

    ``dscore`` is one loss gradient per row (a float for
    ``attention_forward``'s cache); parameter gradients are sums over the
    rows. Returns (grads, None): stage two trains on a frozen table, so
    no input gradient is formed.
    """
    if "real" not in cache:  # attention_forward's 2-D cache
        n = cache["emb"].shape[0]
        cache = dict(cache, lengths=np.array([n]), real=np.ones((1, n), bool),
                     **{key: cache[key][None]
                        for key in ("emb", "q", "k", "v", "attn")})
    p: AttentionParams = cache["p"]
    d = p.dim
    real, lengths = cache["real"], cache["lengths"]
    q, k, v = cache["q"], cache["k"], cache["v"]
    attn, ctx = cache["attn"], cache["ctx"]
    score = cache["scores"]
    ds_pre = np.asarray(dscore) * score * (1.0 - score)
    dpooled = ds_pre[:, None] * p.w * (lengths > 0)[:, None]
    dpre = np.repeat((dpooled @ p.w2.T) / np.maximum(lengths, 1)[:, None],
                     lengths, axis=0)
    dpre *= 1.0 - cache["hidden"] ** 2
    dctx = np.zeros(real.shape + (d,))
    dctx[real] = dpre @ p.w1.T
    dattn = dctx @ v.transpose(0, 2, 1)
    dlogits = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    dlogits /= np.sqrt(d)
    dq = (dlogits @ k)[real]
    dk = (dlogits.transpose(0, 2, 1) @ q)[real]
    dv = (attn.transpose(0, 2, 1) @ dctx)[real]
    packed = cache["emb"][real]
    grads = {
        "wq": packed.T @ dq, "wk": packed.T @ dk, "wv": packed.T @ dv,
        "w1": ctx.T @ dpre, "b1": dpre.sum(axis=0),
        "w2": cache["hbar"].T @ dpooled, "b2": dpooled.sum(axis=0),
        "w": cache["pooled"].T @ ds_pre, "b": np.asarray(ds_pre.sum()),
    }
    return grads, None


def risk_biased_attention(emb: np.ndarray, p: AttentionParams,
                          bias: RiskMatrix | None):
    """Pooled vector and row-stochastic attention weights."""
    _, pooled, attn, _ = attention_forward(emb, p, bias)
    return pooled, attn


def risky_attention_mass(attn: np.ndarray, risky_columns) -> float:
    """Mean over rows of total attention assigned to risky columns."""
    if attn.size == 0 or not risky_columns:
        return 0.0
    return float(attn[:, list(risky_columns)].sum(axis=1).mean())


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def weighted_bce_loss(score: float, label: int, w_pos: float, w_neg: float = 1.0):
    """Class-weighted cross entropy; returns (loss, dloss/dscore)."""
    if not 0.0 < score < 1.0:
        raise NumericError(f"score {score} outside (0, 1)")
    if label not in (0, 1):
        raise ConfigError(f"label must be 0 or 1, got {label}")
    if label == 1:
        return -w_pos * np.log(score), -w_pos / score
    return -w_neg * np.log(1.0 - score), w_neg / (1.0 - score)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def finite_diff_gradcheck(loss_fn, params: dict[str, np.ndarray],
                          analytic: dict[str, np.ndarray],
                          eps: float = 1e-4) -> float:
    """Compare analytic gradients to central differences.

    ``loss_fn`` is re-evaluated after in-place perturbation of each entry
    of each tensor in ``params``; returns the max relative error over all
    parameters, defined as ``|a - n| / max(|a| + |n|, 1e-8)``.
    """
    if eps <= 0:
        raise ConfigError("gradcheck eps must be positive")
    worst = 0.0
    for name, arr in params.items():
        grad = analytic[name]
        if np.isscalar(arr):
            raise ConfigError("wrap scalars in 0-d arrays for gradcheck")
        it = np.nditer(arr, flags=["multi_index"], op_flags=["readwrite"])
        while not it.finished:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + eps
            up = loss_fn()
            arr[idx] = saved - eps
            down = loss_fn()
            arr[idx] = saved
            numeric = (up - down) / (2.0 * eps)
            a = float(np.asarray(grad)[idx])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
            worst = max(worst, rel)
            it.iternext()
    return worst
