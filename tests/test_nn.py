import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnminer.errors import ConfigError, NumericError
from vulnminer.nn import (
    AttentionParams,
    GruParams,
    RiskMatrix,
    attention_backward,
    attention_batch,
    attention_forward,
    finite_diff_gradcheck,
    gru_backward,
    gru_batch,
    gru_forward,
    gru_input_table,
    gru_scores,
    risk_biased_attention,
    risky_attention_mass,
    sigmoid,
    weighted_bce_loss,
)


# Per-sample references, written step by step and independently of the
# batched kernels in vulnminer.nn, which must agree with them to rounding.

def randomized(p, seed, scale=0.3):
    """``p`` with every array, biases included, drawn uniformly."""
    rng = np.random.default_rng(seed)
    for arr in p.arrays().values():
        arr[...] = rng.uniform(-scale, scale, arr.shape)
    return p


def ref_gru(seq, p, dscore):
    """Score, parameter gradients and input gradient of one sequence."""
    h = np.zeros(p.hidden)
    steps = []
    for x in seq:
        z = sigmoid(x @ p.wz + h @ p.uz + p.bz)
        r = sigmoid(x @ p.wr + h @ p.ur + p.br)
        cand = np.tanh(x @ p.wh + (r * h) @ p.uh + p.bh)
        steps.append((x, h, z, r, cand))
        h = (1.0 - z) * h + z * cand
    score = float(sigmoid(h @ p.w + p.b))
    g = {k: np.zeros_like(v) for k, v in p.arrays().items()}
    ds = dscore * score * (1.0 - score)
    g["w"] += ds * h
    g["b"] += ds
    dh = ds * p.w
    dseq = np.zeros((len(seq), p.dim))
    for t in range(len(seq) - 1, -1, -1):
        x, h_prev, z, r, cand = steps[t]
        da_c = dh * z * (1.0 - cand ** 2)
        tmp = da_c @ p.uh.T
        da_z = dh * (cand - h_prev) * z * (1.0 - z)
        da_r = tmp * h_prev * r * (1.0 - r)
        for gate, da, h_in in (("h", da_c, r * h_prev), ("z", da_z, h_prev),
                               ("r", da_r, h_prev)):
            g["w" + gate] += np.outer(x, da)
            g["u" + gate] += np.outer(h_in, da)
            g["b" + gate] += da
            dseq[t] += da @ getattr(p, "w" + gate).T
        dh = dh * (1.0 - z) + tmp * r + da_z @ p.uz.T + da_r @ p.ur.T
    return score, g, dseq


def ref_attention(emb, p, bias, dscore):
    """Score, pooled vector, attention weights and parameter gradients of
    one sequence; ``bias`` is an (n,) row added to every row of logits."""
    n = len(emb)
    g = {k: np.zeros_like(v) for k, v in p.arrays().items()}
    if n == 0:
        score = float(sigmoid(p.b))
        g["b"] += dscore * score * (1.0 - score)
        return score, np.zeros(p.dim), np.zeros((0, 0)), g
    q, k, v = emb @ p.wq, emb @ p.wk, emb @ p.wv
    logits = q @ k.T / np.sqrt(p.dim) + bias
    attn = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    ctx = attn @ v
    hidden = np.tanh(ctx @ p.w1 + p.b1)
    pooled = (hidden @ p.w2 + p.b2).mean(axis=0)
    score = float(sigmoid(pooled @ p.w + p.b))
    ds = dscore * score * (1.0 - score)
    g["w"] += ds * pooled
    g["b"] += ds
    dff = np.tile(ds * p.w / n, (n, 1))
    g["w2"] += hidden.T @ dff
    g["b2"] += dff.sum(axis=0)
    dpre = dff @ p.w2.T * (1.0 - hidden ** 2)
    g["w1"] += ctx.T @ dpre
    g["b1"] += dpre.sum(axis=0)
    dctx = dpre @ p.w1.T
    dattn = dctx @ v.T
    dlogits = attn * (dattn - (dattn * attn).sum(axis=1, keepdims=True))
    dq = dlogits @ k / np.sqrt(p.dim)
    dk = dlogits.T @ q / np.sqrt(p.dim)
    dv = attn.T @ dctx
    g["wq"] += emb.T @ dq
    g["wk"] += emb.T @ dk
    g["wv"] += emb.T @ dv
    return score, pooled, attn, g


def zeroed_gru(dim=4, hidden=3):
    p = GruParams.init(dim, hidden, seed=0)
    for arr in p.arrays().values():
        arr[...] = 0.0
    return p


class TestGruForward:
    def test_empty_sequence_scores_sigmoid_bias(self):
        p = zeroed_gru()
        p.b[...] = 0.7
        score, states, _ = gru_forward(np.zeros((0, 4)), p)
        assert states.shape == (0, 3)
        assert np.isclose(score, 1.0 / (1.0 + np.exp(-0.7)))

    def test_width_mismatch_raises(self):
        p = zeroed_gru(dim=4)
        with pytest.raises(ConfigError):
            gru_forward(np.zeros((2, 5)), p)

    def test_nan_input_reports_step(self):
        p = GruParams.init(2, 2, seed=1)
        seq = np.zeros((3, 2))
        seq[1, 0] = np.nan
        with pytest.raises(NumericError) as err:
            gru_forward(seq, p)
        assert err.value.step == 1

    def test_score_strictly_inside_unit_interval(self):
        p = GruParams.init(3, 3, seed=2, scale=5.0)
        rng = np.random.default_rng(0)
        score, _, _ = gru_forward(rng.uniform(-9, 9, (20, 3)), p)
        assert 0.0 < score < 1.0


def _embedded_ids(seed, vocab=30, dim=64, lengths=(0, 1, 25, 66)):
    """A random embedding matrix and id sequences of the given lengths."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-1, 1, (vocab, dim))
    return matrix, [rng.integers(0, vocab, n).tolist() for n in lengths]


class TestGruScores:
    def test_batch_matches_forward_reference(self):
        matrix, id_seqs = _embedded_ids(11)
        p = GruParams.init(64, 32, seed=4)
        scores = gru_scores(id_seqs, p, gru_input_table(matrix, p))
        assert scores.shape == (4,)
        for ids, score in zip(id_seqs, scores):
            assert abs(score - gru_forward(matrix[ids], p)[0]) <= 1e-12

    def test_matches_per_step_reference(self):
        matrix, id_seqs = _embedded_ids(12)
        p = randomized(GruParams.init(64, 32, seed=6), 6)
        scores = gru_scores(id_seqs, p, gru_input_table(matrix, p))
        for ids, score in zip(id_seqs, scores):
            assert abs(score - ref_gru(matrix[ids], p, 0.0)[0]) <= 1e-12

    def test_table_rows_are_the_sequence_projection_bits(self):
        # verdict bytes stay unchanged only if a gathered row is exactly a
        # per-sequence projection of the embedded tokens, biases included
        matrix, id_seqs = _embedded_ids(13)
        p = randomized(GruParams.init(64, 32, seed=8), 8)
        table = gru_input_table(matrix, p)
        w_in = np.concatenate([p.wz, p.wr, p.wh], axis=1)
        b_in = np.concatenate([p.bz, p.br, p.bh])
        for ids in id_seqs:
            projected = np.einsum("td,dj->tj", matrix[ids], w_in) + b_in
            assert np.array_equal(table[ids], projected)

    def test_empty_batch(self):
        p = zeroed_gru()
        table = gru_input_table(np.zeros((2, 4)), p)
        assert gru_scores([], p, table).shape == (0,)

    def test_width_mismatch_raises(self):
        p = zeroed_gru(dim=4)
        with pytest.raises(ConfigError):
            gru_input_table(np.zeros((3, 5)), p)

    def test_non_finite_state_raises(self):
        p = GruParams.init(2, 2, seed=1)
        matrix = np.zeros((3, 2))
        matrix[2, 0] = np.nan
        with pytest.raises(NumericError):
            gru_scores([[1, 1, 1, 1], [1, 2, 1]], p,
                       gru_input_table(matrix, p))


class TestGruGradients:
    def test_full_gradcheck(self):
        rng = np.random.default_rng(7)
        p = GruParams.init(4, 4, seed=5, scale=0.5)
        seq = rng.uniform(-1, 1, (5, 4))

        def loss():
            s, _, _ = gru_forward(seq, p)
            return weighted_bce_loss(s, 1, w_pos=2.0)[0]

        score, _, cache = gru_forward(seq, p)
        _, dscore = weighted_bce_loss(score, 1, w_pos=2.0)
        grads, (dseq,) = gru_backward(cache, dscore)
        assert finite_diff_gradcheck(loss, p.arrays(), grads) < 1e-4
        assert finite_diff_gradcheck(loss, {"seq": seq}, {"seq": dseq}) < 1e-4

    def test_linear_readout_is_exact(self):
        # with zero recurrent weights the score is a function of the bias
        # alone, so central differences on b are exact to rounding
        p = zeroed_gru(dim=2, hidden=2)
        p.b[...] = 0.3

        def loss():
            s, _, _ = gru_forward(np.zeros((1, 2)), p)
            return weighted_bce_loss(s, 0, w_pos=1.0)[0]

        score, _, cache = gru_forward(np.zeros((1, 2)), p)
        _, dscore = weighted_bce_loss(score, 0, w_pos=1.0)
        grads, _ = gru_backward(cache, dscore)
        err = finite_diff_gradcheck(loss, {"b": p.b}, {"b": grads["b"]},
                                    eps=1e-4)
        assert err < 1e-8


def _padded(seqs, width):
    """(B, max length, width) zero-padded batch and the lengths."""
    lengths = np.array([len(seq) for seq in seqs])
    batch = np.zeros((len(seqs), lengths.max(), width))
    for row, seq in enumerate(seqs):
        batch[row, :len(seq)] = seq
    return batch, lengths


LABELS = (1, 0, 1)


def _batch_loss(scores):
    return sum(weighted_bce_loss(float(s), y, w_pos=2.0)[0]
               for s, y in zip(scores, LABELS))


def _batch_dscores(scores):
    return np.array([weighted_bce_loss(float(s), y, w_pos=2.0)[1]
                     for s, y in zip(scores, LABELS)])


class TestGruBatch:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.p = GruParams.init(4, 3, seed=8, scale=0.5)
        self.seqs = [rng.uniform(-1, 1, (n, 4)) for n in (0, 1, 5)]
        self.x, self.lengths = _padded(self.seqs, 4)

    def test_padded_batch_gradcheck(self):
        def loss():
            return _batch_loss(gru_batch(self.x, self.lengths, self.p)[0])

        scores, cache = gru_batch(self.x, self.lengths, self.p)
        grads, dx = gru_backward(cache, _batch_dscores(scores))
        assert finite_diff_gradcheck(loss, self.p.arrays(), grads) < 1e-4
        # padding included: its gradient is zero, as its effect is
        assert finite_diff_gradcheck(loss, {"x": self.x}, {"x": dx}) < 1e-4
        assert not dx[0].any() and not dx[1, 1:].any()

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        scores, cache = gru_batch(self.x, self.lengths, self.p)
        dscores = _batch_dscores(scores)
        grads, dx = gru_backward(cache, dscores)
        total = {k: np.zeros_like(v) for k, v in grads.items()}
        for row, seq in enumerate(self.seqs):
            score, _, single = gru_forward(seq, self.p)
            assert abs(score - scores[row]) <= 1e-12
            one, (dseq,) = gru_backward(single, dscores[row])
            assert dseq.shape == seq.shape
            assert np.abs(dseq - dx[row, :len(seq)]).max(initial=0.0) <= 1e-12
            for k in total:
                total[k] += one[k]
        for k in total:
            assert np.abs(total[k] - grads[k]).max() <= 1e-12, k

    def test_batch_matches_per_step_reference(self):
        rng = np.random.default_rng(23)
        p = randomized(GruParams.init(64, 32, seed=9), 9)
        seqs = [rng.uniform(-1, 1, (n, 64)) for n in (0, 1, 30, 66)]
        x, lengths = _padded(seqs, 64)
        scores, cache = gru_batch(x, lengths, p)
        dscores = rng.uniform(-2, 2, len(seqs))
        grads, dx = gru_backward(cache, dscores)
        total = {k: np.zeros_like(v) for k, v in grads.items()}
        for row, seq in enumerate(seqs):
            score, one, dseq = ref_gru(seq, p, dscores[row])
            assert abs(score - scores[row]) <= 1e-12
            assert np.abs(dseq - dx[row, :len(seq)]).max(initial=0.0) <= 1e-12
            for k in total:
                total[k] += one[k]
        for k in total:
            assert np.abs(total[k] - grads[k]).max() <= 1e-12, k


class TestAttentionBatch:
    def setup_method(self):
        rng = np.random.default_rng(19)
        self.p = AttentionParams.init(8, seed=10, scale=0.4)
        self.embs = [rng.uniform(-1, 1, (n, 8)) for n in (0, 1, 6)]
        self.risky = [(), (0,), (2, 4)]
        self.emb, self.lengths = _padded(self.embs, 8)
        self.bias = np.zeros((3, 1, 6))
        for row, cols in enumerate(self.risky):
            self.bias[row, 0, list(cols)] = 1.5

    def test_padded_batch_gradcheck(self):
        def loss():
            return _batch_loss(
                attention_batch(self.emb, self.lengths, self.p, self.bias)[0])

        scores, cache = attention_batch(self.emb, self.lengths, self.p,
                                        self.bias)
        grads, demb = attention_backward(cache, _batch_dscores(scores))
        assert demb is None  # stage two trains on a frozen table
        assert finite_diff_gradcheck(loss, self.p.arrays(), grads) < 1e-4

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        scores, cache = attention_batch(self.emb, self.lengths, self.p,
                                        self.bias)
        dscores = _batch_dscores(scores)
        grads, _ = attention_backward(cache, dscores)
        total = {k: np.zeros_like(v) for k, v in grads.items()}
        for row, emb in enumerate(self.embs):
            bias = RiskMatrix.build(len(emb), self.risky[row], beta=1.5)
            score, _, _, single = attention_forward(emb, self.p, bias)
            assert abs(score - scores[row]) <= 1e-12
            one, _ = attention_backward(single, dscores[row])
            for k in total:
                total[k] += one[k]
        for k in total:
            assert np.abs(total[k] - grads[k]).max() <= 1e-12, k

    def test_batch_matches_per_sample_reference(self):
        rng = np.random.default_rng(29)
        p = randomized(AttentionParams.init(64, seed=11), 11)
        embs = [rng.uniform(-1, 1, (n, 64)) for n in (0, 1, 20, 45)]
        risky = [(), (0,), (3, 7, 19), (0, 44)]
        emb, lengths = _padded(embs, 64)
        bias = np.zeros((len(embs), 1, emb.shape[1]))
        for row, cols in enumerate(risky):
            bias[row, 0, list(cols)] = 2.0
        scores, cache = attention_batch(emb, lengths, p, bias)
        dscores = rng.uniform(-2, 2, len(embs))
        grads, _ = attention_backward(cache, dscores)
        total = {k: np.zeros_like(v) for k, v in grads.items()}
        for row, one_emb in enumerate(embs):
            matrix = RiskMatrix.build(len(one_emb), risky[row], beta=2.0)
            score, pooled, attn, one = ref_attention(
                one_emb, p, matrix.row, dscores[row])
            assert abs(score - scores[row]) <= 1e-12
            for k in total:
                total[k] += one[k]
            s1, p1, a1, _ = attention_forward(one_emb, p, matrix)
            assert abs(s1 - score) <= 1e-12
            assert np.abs(p1 - pooled).max() <= 1e-12
            assert a1.shape == attn.shape
            assert np.abs(a1 - attn).max(initial=0.0) <= 1e-12
        for k in total:
            assert np.abs(total[k] - grads[k]).max() <= 1e-12, k

    def test_forward_is_the_batch_of_one_bit_for_bit(self):
        rng = np.random.default_rng(31)
        p = randomized(AttentionParams.init(64, seed=12), 12)
        for n in range(65):
            emb = rng.uniform(-1, 1, (n, 64))
            cols = sorted(set(rng.integers(0, n, 3).tolist())) if n else []
            for risky in ([], cols):
                bias = RiskMatrix.build(n, risky, beta=2.0)
                score, pooled, attn, _ = attention_forward(emb, p, bias)
                x = emb[None] if n else np.zeros((1, 0, 64))
                scores, cache = attention_batch(x, np.array([n]), p,
                                                bias.row[None, None])
                assert score == scores[0], (n, risky)
                assert np.array_equal(pooled, cache["pooled"][0]), (n, risky)
                assert np.array_equal(attn, cache["attn"][0, :n, :n]), (n, risky)

    def test_empty_batch_scores_sigmoid_bias(self):
        self.p.b[...] = 0.3
        scores, _ = attention_batch(np.zeros((2, 0, 8)), np.zeros(2, int),
                                    self.p)
        assert np.array_equal(scores, np.full(2, 1.0 / (1.0 + np.exp(-0.3))))


class TestAttention:
    def test_zero_bias_reduces_to_unbiased_bitwise(self):
        rng = np.random.default_rng(3)
        p = AttentionParams.init(6, seed=4)
        emb = rng.uniform(-1, 1, (5, 6))
        zero = RiskMatrix.build(5, [], beta=0.0)
        s1, p1, a1, _ = attention_forward(emb, p, zero)
        s2, p2, a2, _ = attention_forward(emb, p, None)
        assert s1 == s2
        assert np.array_equal(p1, p2)
        assert np.array_equal(a1, a2)

    def test_uniform_logits_closed_form(self):
        p = AttentionParams.init(4, seed=0)
        for arr in p.arrays().values():
            arr[...] = 0.0
        bias = RiskMatrix.build(2, [1], beta=np.log(3.0))
        _, attn = risk_biased_attention(np.zeros((2, 4)), p, bias)
        assert np.allclose(attn, [[0.25, 0.75], [0.25, 0.75]], atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = AttentionParams.init(8, seed=6)
        emb = rng.uniform(-2, 2, (7, 8))
        bias = RiskMatrix.build(7, [0, 3], beta=2.0)
        _, _, attn, _ = attention_forward(emb, p, bias)
        assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_risky_mass_strictly_increases_with_beta(self):
        rng = np.random.default_rng(11)
        p = AttentionParams.init(6, seed=2)
        emb = rng.uniform(-1, 1, (6, 6))
        risky = (1, 4)
        masses = []
        for beta in np.arange(0.0, 4.5, 0.5):
            bias = RiskMatrix.build(6, risky, beta=float(beta))
            _, _, attn, _ = attention_forward(emb, p, bias)
            masses.append(risky_attention_mass(attn, risky))
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(13)
        p = AttentionParams.init(4, seed=3)
        emb = rng.uniform(-1, 1, (4, 4))
        base = RiskMatrix.build(4, [2], beta=1.0)
        shifted = RiskMatrix(row=base.row + 7.5,
                             risky_columns=base.risky_columns)
        _, _, a1, _ = attention_forward(emb, p, base)
        _, _, a2, _ = attention_forward(emb, p, shifted)
        assert np.allclose(a1, a2, atol=1e-9)

    def test_shape_mismatch_raises(self):
        p = AttentionParams.init(4, seed=1)
        bias = RiskMatrix.build(3, [], beta=0.0)
        with pytest.raises(ConfigError):
            attention_forward(np.zeros((4, 4)), p, bias)

    def test_gradcheck_projected(self):
        rng = np.random.default_rng(7)
        p = AttentionParams.init(8, seed=9, scale=0.4)
        emb = rng.uniform(-1, 1, (6, 8))
        bias = RiskMatrix.build(6, [2, 4], beta=1.5)

        def loss():
            s, _, _, _ = attention_forward(emb, p, bias)
            return weighted_bce_loss(s, 0, w_pos=1.0, w_neg=2.0)[0]

        score, _, _, cache = attention_forward(emb, p, bias)
        _, dscore = weighted_bce_loss(score, 0, w_pos=1.0, w_neg=2.0)
        grads, _ = attention_backward(cache, dscore)
        assert finite_diff_gradcheck(loss, p.arrays(), grads) < 1e-4


class TestRiskMatrix:
    def test_no_risky_tokens_zero_matrix(self):
        bias = RiskMatrix.build(4, [], beta=2.0)
        assert np.array_equal(bias.row, np.zeros(4))

    def test_risky_column_biased_in_every_row(self):
        # one row, added by broadcasting to every row of the logits
        bias = RiskMatrix.build(6, [5], beta=2.5)
        assert np.array_equal(bias.row, [0.0] * 5 + [2.5])

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            RiskMatrix.build(3, [0], beta=-1.0)

    def test_out_of_range_column_rejected(self):
        with pytest.raises(ConfigError):
            RiskMatrix.build(3, [4], beta=1.0)


def _clip_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -36.0, 36.0)))


def test_sigmoid_matches_the_np_clip_form_bit_for_bit():
    special = np.array([np.inf, -np.inf, np.nan, 36.0, -36.0, 0.0, -0.0,
                        36.0000001, -36.0000001, 1e308, -1e308])
    rng = np.random.default_rng(0)
    inputs = [special, rng.normal(0.0, 40.0, size=(7, 13)),
              rng.uniform(-50.0, 50.0, size=1000), np.zeros((0, 3))]
    inputs += [float(v) for v in special] + [np.float64(-0.0)]
    for x in inputs:
        ours, ref = sigmoid(x), _clip_sigmoid(x)
        assert type(ours) is type(ref)
        assert np.shape(ours) == np.shape(ref)
        assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()


class TestLoss:
    def test_symmetric_point_is_ln2(self):
        loss, _ = weighted_bce_loss(0.5, 1, w_pos=1.0)
        assert np.isclose(loss, np.log(2.0))

    def test_positive_weight_scales_linearly(self):
        base, _ = weighted_bce_loss(0.3, 1, w_pos=1.0)
        scaled, _ = weighted_bce_loss(0.3, 1, w_pos=4.0)
        assert np.isclose(scaled, 4.0 * base)

    def test_negative_weight_scales_negative_class(self):
        base, _ = weighted_bce_loss(0.3, 0, w_pos=1.0, w_neg=1.0)
        scaled, _ = weighted_bce_loss(0.3, 0, w_pos=1.0, w_neg=2.0)
        assert np.isclose(scaled, 2.0 * base)

    @given(st.floats(0.05, 0.95), st.integers(0, 1), st.floats(0.5, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_finite_difference(self, score, label, w_pos):
        eps = 1e-7
        _, grad = weighted_bce_loss(score, label, w_pos)
        up, _ = weighted_bce_loss(score + eps, label, w_pos)
        down, _ = weighted_bce_loss(score - eps, label, w_pos)
        numeric = (up - down) / (2 * eps)
        assert abs(grad - numeric) / max(abs(grad), abs(numeric)) < 1e-6

    def test_out_of_domain_score_rejected(self):
        with pytest.raises(NumericError):
            weighted_bce_loss(1.0, 1, w_pos=1.0)

    def test_bad_label_rejected(self):
        with pytest.raises(ConfigError):
            weighted_bce_loss(0.5, 2, w_pos=1.0)


def test_gradcheck_rejects_bad_eps():
    with pytest.raises(ConfigError):
        finite_diff_gradcheck(lambda: 0.0, {}, {}, eps=0.0)
