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
    # downstream log-loss terms never hit log(0).
    return 1.0 / (1.0 + np.exp(-np.clip(x, -36.0, 36.0)))


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

    def validate(self) -> None:
        d, h = self.dim, self.hidden
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


def gru_forward(seq: np.ndarray, p: GruParams, h0: np.ndarray | None = None):
    """Run the recurrence; returns (score, hidden_states, cache).

    Gates: z update, r reset, candidate h~; blend h' = (1-z)*h + z*h~,
    sigmoid readout on the final hidden state. Training reads the cache;
    inference uses ``gru_scores``, which this is the reference for.
    """
    n = seq.shape[0]
    if n and seq.shape[1] != p.dim:
        raise ConfigError(f"sequence width {seq.shape[1]} != model width {p.dim}")
    h = np.zeros(p.hidden) if h0 is None else h0.astype(float)
    states = []
    steps = []
    for t in range(n):
        x = seq[t]
        z = sigmoid(x @ p.wz + h @ p.uz + p.bz)
        r = sigmoid(x @ p.wr + h @ p.ur + p.br)
        cand = np.tanh(x @ p.wh + (r * h) @ p.uh + p.bh)
        h_new = (1.0 - z) * h + z * cand
        if not np.isfinite(h_new).all():
            raise NumericError("non-finite hidden state", step=t)
        steps.append((x, h, z, r, cand))
        h = h_new
        states.append(h)
    score = float(sigmoid(h @ p.w + p.b))
    cache = {"steps": steps, "h_last": h, "score": score, "p": p, "n": n,
             "d": seq.shape[1] if n else p.dim}
    return score, np.array(states) if states else np.zeros((0, p.hidden)), cache


def gru_scores(seqs, p: GruParams) -> np.ndarray:
    """Scores of a batch of embedded sequences, one per input, in order.

    The recurrence of ``gru_forward`` from a zero state, run as one masked
    batch. Rows are sorted longest first, so step t updates only the
    ``alive[t]`` rows still inside their sequence. The inputs of all steps
    are projected once through ``[wz|wr|wh]`` with the biases folded in.
    Every product is an ``np.einsum``: its per-row sums do not depend on
    how many rows there are (BLAS ``@`` does), so a sequence scores the
    same alone and in any batch. A NaN state stays NaN through the blend,
    so finiteness is checked once, after the last step.
    """
    for seq in seqs:
        if seq.shape[0] and seq.shape[1] != p.dim:
            raise ConfigError(
                f"sequence width {seq.shape[1]} != model width {p.dim}")
    hid = p.hidden
    lengths = np.array([seq.shape[0] for seq in seqs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max()) if len(seqs) else 0
    alive = (lengths[:, None] > np.arange(steps)).sum(axis=0).tolist()
    w_in = np.concatenate([p.wz, p.wr, p.wh], axis=1)
    b_in = np.concatenate([p.bz, p.br, p.bh])
    u_zr = np.concatenate([p.uz, p.ur], axis=1)
    # time-major projections: proj[t, i] is sorted row i's input at step t
    proj = np.zeros((steps, len(seqs), 3 * hid))
    for i, k in enumerate(order):
        if lengths[k]:
            proj[:lengths[k], i] = np.einsum("td,dj->tj", seqs[k], w_in) + b_in
    h = np.zeros((len(seqs), hid))
    for t, k in enumerate(alive):
        hk = h[:k]
        a = proj[t, :k]
        zr = sigmoid(a[:, :2 * hid] + np.einsum("bi,ij->bj", hk, u_zr))
        z, r = zr[:, :hid], zr[:, hid:]
        cand = np.tanh(a[:, 2 * hid:] + np.einsum("bi,ij->bj", r * hk, p.uh))
        h[:k] = (1.0 - z) * hk + z * cand
    if not np.isfinite(h).all():
        raise NumericError("non-finite hidden state")
    scores = np.empty(len(seqs))
    scores[order] = sigmoid(np.einsum("bi,i->b", h, p.w) + p.b)
    return scores


def gru_backward(cache: dict, dscore: float):
    """Gradients of all GRU params and the input sequence."""
    p: GruParams = cache["p"]
    grads = {k: np.zeros_like(v) for k, v in p.arrays().items()}
    h_last = cache["h_last"]
    score = cache["score"]
    ds_pre = dscore * score * (1.0 - score)
    grads["w"] += ds_pre * h_last
    grads["b"] += ds_pre
    dh = ds_pre * p.w
    dseq = np.zeros((cache["n"], cache["d"]))
    for t in range(cache["n"] - 1, -1, -1):
        x, h_prev, z, r, cand = cache["steps"][t]
        dz = dh * (cand - h_prev)
        dcand = dh * z
        dh_prev = dh * (1.0 - z)

        da_c = dcand * (1.0 - cand ** 2)
        grads["wh"] += np.outer(x, da_c)
        grads["uh"] += np.outer(r * h_prev, da_c)
        grads["bh"] += da_c
        dseq[t] += da_c @ p.wh.T
        tmp = da_c @ p.uh.T
        dr = tmp * h_prev
        dh_prev += tmp * r

        da_z = dz * z * (1.0 - z)
        grads["wz"] += np.outer(x, da_z)
        grads["uz"] += np.outer(h_prev, da_z)
        grads["bz"] += da_z
        dseq[t] += da_z @ p.wz.T
        dh_prev += da_z @ p.uz.T

        da_r = dr * r * (1.0 - r)
        grads["wr"] += np.outer(x, da_r)
        grads["ur"] += np.outer(h_prev, da_r)
        grads["br"] += da_r
        dseq[t] += da_r @ p.wr.T
        dh_prev += da_r @ p.ur.T

        dh = dh_prev
    return grads, dseq


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

    def validate(self) -> None:
        d = self.dim
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
    """Additive pre-softmax bias: column j is beta when token j is risky."""

    matrix: np.ndarray
    beta: float
    risky_columns: tuple[int, ...] = field(default_factory=tuple)

    @classmethod
    def build(cls, n: int, risky_columns, beta: float) -> "RiskMatrix":
        if beta < 0:
            raise ConfigError("risk bias beta must be >= 0")
        cols = tuple(sorted(set(risky_columns)))
        matrix = np.zeros((n, n))
        for j in cols:
            if not 0 <= j < n:
                raise ConfigError(f"risky column {j} outside sequence of length {n}")
            matrix[:, j] = beta
        return cls(matrix=matrix, beta=beta, risky_columns=cols)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention_forward(emb: np.ndarray, p: AttentionParams,
                      bias: RiskMatrix | None = None):
    """Risk-biased attention, feed-forward, mean pooling, sigmoid readout.

    Returns (score, pooled, attention_weights, cache).
    """
    n = emb.shape[0]
    if n == 0:
        pooled = np.zeros(p.dim)
        score = float(sigmoid(p.b))
        return score, pooled, np.zeros((0, 0)), {"empty": True, "p": p,
                                                 "score": score}
    if emb.shape[1] != p.dim:
        raise ConfigError(f"embedding width {emb.shape[1]} != model width {p.dim}")
    if bias is not None and bias.matrix.shape != (n, n):
        raise ConfigError(
            f"risk matrix shape {bias.matrix.shape} != ({n}, {n})")

    q, k, v = emb @ p.wq, emb @ p.wk, emb @ p.wv
    scores = q @ k.T / np.sqrt(p.dim)
    if bias is not None:
        scores = scores + bias.matrix
    attn = _softmax_rows(scores)
    ctx = attn @ v
    pre = ctx @ p.w1 + p.b1
    hidden = np.tanh(pre)
    ff = hidden @ p.w2 + p.b2
    pooled = ff.mean(axis=0)
    score = float(sigmoid(pooled @ p.w + p.b))
    if not np.isfinite(score):
        raise NumericError("non-finite attention score")
    cache = {"empty": False, "p": p, "emb": emb, "q": q, "k": k, "v": v,
             "attn": attn, "ctx": ctx, "hidden": hidden, "pooled": pooled,
             "score": score, "n": n}
    return score, pooled, attn, cache


def attention_backward(cache: dict, dscore: float):
    p: AttentionParams = cache["p"]
    grads = {k: np.zeros_like(v) for k, v in p.arrays().items()}
    if cache.get("empty"):
        score = cache["score"]
        grads["b"] += dscore * score * (1.0 - score)
        return grads, np.zeros((0, p.dim))
    emb, q, k, v = cache["emb"], cache["q"], cache["k"], cache["v"]
    attn, ctx, hidden = cache["attn"], cache["ctx"], cache["hidden"]
    n, score = cache["n"], cache["score"]

    ds_pre = dscore * score * (1.0 - score)
    grads["w"] += ds_pre * cache["pooled"]
    grads["b"] += ds_pre
    dpooled = ds_pre * p.w
    dff = np.tile(dpooled / n, (n, 1))
    grads["w2"] += hidden.T @ dff
    grads["b2"] += dff.sum(axis=0)
    dhidden = dff @ p.w2.T
    dpre = dhidden * (1.0 - hidden ** 2)
    grads["w1"] += ctx.T @ dpre
    grads["b1"] += dpre.sum(axis=0)
    dctx = dpre @ p.w1.T
    dattn = dctx @ v.T
    dv = attn.T @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=1, keepdims=True))
    scale = 1.0 / np.sqrt(p.dim)
    dq = dscores @ k * scale
    dk = dscores.T @ q * scale
    grads["wq"] += emb.T @ dq
    grads["wk"] += emb.T @ dk
    grads["wv"] += emb.T @ dv
    demb = dq @ p.wq.T + dk @ p.wk.T + dv @ p.wv.T
    return grads, demb


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
