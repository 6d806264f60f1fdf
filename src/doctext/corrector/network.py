"""Forward pass, attention, and reverse-mode gradients for the corrector.

The encoder is a stack of bidirectional LSTM layers; the decoder is a
stack of unidirectional LSTM layers whose first input concatenates the
previous output token's embedding with an attention context.  Scores
compare the previous top-layer decoder state against a learned
projection of the concatenated directional states; the context mixes
the summed directional states with the resulting weights.  The output
layer feeds the state/context pair through a tanh bottleneck and a
softmax over the vocabulary.

Everything here is explicit numpy and batched.  Sequences are padded
with the <pad> token and masks make padding change nothing: padded
source positions neither update encoder states nor receive attention,
and padded target positions contribute zero loss and zero gradient.
One decoder-step kernel, ``_decoder_step``, serves both teacher-forced
training and inference.  The public ``loss``, ``backward`` and
``correct`` take one sequence and run it as a batch of one.

All (probs, labels) style losses are sums over tokens, so gradients of
a batch are the sums of the per-pair gradients.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .model import CorrectorModel
from .vocab import Vocab

__all__ = ["CorrectionResult", "loss", "backward", "correct"]

_ATT_MASK = 1e30  # additive pre-softmax penalty for padded positions


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe in both tails
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def _cell_forward(x, h_prev, c_prev, w, u, b):
    """One LSTM cell step for a (B, D) input; gates ordered i, f, g, o."""
    hdim = h_prev.shape[1]
    z = x @ w + h_prev @ u + b
    i = _sigmoid(z[:, :hdim])
    f = _sigmoid(z[:, hdim : 2 * hdim])
    g = np.tanh(z[:, 2 * hdim : 3 * hdim])
    o = _sigmoid(z[:, 3 * hdim :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def _cell_backward(dh, dc_in, cache, w, u, gw, gu, gb):
    """Backward of :func:`_cell_forward`; accumulates parameter grads."""
    x, h_prev, c_prev, i, f, g, o, tc = cache
    hdim = i.shape[1]
    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc * tc)
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f
    dz = np.empty((dh.shape[0], 4 * hdim))
    dz[:, :hdim] = di * i * (1.0 - i)
    dz[:, hdim : 2 * hdim] = df * f * (1.0 - f)
    dz[:, 2 * hdim : 3 * hdim] = dg * (1.0 - g * g)
    dz[:, 3 * hdim :] = do * o * (1.0 - o)
    gw += x.T @ dz
    gu += h_prev.T @ dz
    gb += dz.sum(axis=0)
    return dz @ w.T, dz @ u.T, dc_prev


def _scan_forward(inp, mask, w, u, b, reverse):
    """Run one LSTM direction over (B, T, D) with carry-through masking.

    At masked positions the state is carried unchanged, so for
    tail-padded batches the state at the last index equals the state at
    each row's true last token.
    """
    bsz, t_len, _ = inp.shape
    hdim = u.shape[0]
    h = np.zeros((bsz, hdim))
    c = np.zeros((bsz, hdim))
    states = np.empty((bsz, t_len, hdim))
    caches = [None] * t_len
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    for t in order:
        h_new, c_new, cache = _cell_forward(inp[:, t], h, c, w, u, b)
        m = mask[:, t][:, None]
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        states[:, t] = h
        caches[t] = cache
    return states, caches


def _scan_backward(dstates, caches, mask, w, u, reverse, gw, gu, gb):
    """Backward of :func:`_scan_forward`; returns input gradients."""
    bsz, t_len, _ = dstates.shape
    din = w.shape[0]
    dinp = np.empty((bsz, t_len, din))
    hdim = u.shape[0]
    dh_c = np.zeros((bsz, hdim))
    dc_c = np.zeros((bsz, hdim))
    order = range(t_len) if reverse else range(t_len - 1, -1, -1)
    for t in order:
        m = mask[:, t][:, None]
        dh_tot = dstates[:, t] + dh_c
        dx, dh_prev, dc_prev = _cell_backward(
            m * dh_tot, m * dc_c, caches[t], w, u, gw, gu, gb
        )
        dinp[:, t] = dx
        dh_c = dh_prev + (1.0 - m) * dh_tot
        dc_c = dc_prev + (1.0 - m) * dc_c
    return dinp


def _dropout(a, rate, rng):
    if rng is None:
        raise InputError("dropout needs a random generator")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return a * mask, mask


def _check_ids(vocab: Vocab, ids, what: str) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{what} must be a non-empty 1-D token sequence")
    if arr.min() < 0 or arr.max() >= vocab.size:
        raise InputError(f"{what} contains token ids outside the vocabulary")
    if np.any(arr == vocab.pad_id):
        raise InputError(f"{what} must not contain padding tokens")
    return arr


@dataclass
class _EncBundle:
    """Everything the decoder and the backward pass need from the encoder."""

    x_ids: np.ndarray       # (B, Tx)
    mask_x: np.ndarray      # (B, Tx)
    inputs: list            # per layer: input tensor (post-dropout)
    drop_masks: list        # per layer: dropout mask on its output, or None
    scans: list             # per layer: (fwd caches, bwd caches, fwd states, bwd states)
    fwd: np.ndarray         # (B, Tx, H) top layer forward states
    bwd: np.ndarray         # (B, Tx, H) top layer backward states
    hcat: np.ndarray        # (B, Tx, 2H)
    hsum: np.ndarray        # (B, Tx, H)
    keys: np.ndarray        # (B, Tx, H) attention keys
    bridge_in: np.ndarray   # (B, 2H)
    s0: np.ndarray          # (B, H) shared initial decoder hidden


@dataclass
class _StepCache:
    s_prev: np.ndarray
    alpha: np.ndarray
    ctx: np.ndarray
    tok: np.ndarray
    cell_caches: list
    drop_masks: list
    cat: np.ndarray
    htilde: np.ndarray
    probs: np.ndarray | None = None


@dataclass
class _Tape:
    enc: _EncBundle
    y_ids: np.ndarray
    mask_y: np.ndarray
    steps: list


def _encode_batch(model: CorrectorModel, x_ids: np.ndarray, training=False, rng=None) -> _EncBundle:
    p = model.params
    hp = model.hyper
    pad = model.vocab.pad_id
    x_ids = np.asarray(x_ids, dtype=np.int64)
    if x_ids.ndim != 2 or x_ids.shape[0] == 0 or x_ids.shape[1] == 0:
        raise InputError("source batch must be a non-empty 2-D token id array")
    if x_ids.min() < 0 or x_ids.max() >= model.vocab.size:
        raise InputError("source contains token ids outside the vocabulary")
    mask_x = (x_ids != pad).astype(np.float64)
    if np.any(mask_x.sum(axis=1) == 0):
        raise InputError("every source row needs at least one non-padding token")

    inp = p["embedding"][x_ids]
    inputs, drop_masks, scans = [], [], []
    for l in range(hp.enc_layers):
        inputs.append(inp)
        fs, fc = _scan_forward(
            inp, mask_x, p[f"enc.{l}.fwd.W"], p[f"enc.{l}.fwd.U"], p[f"enc.{l}.fwd.b"], False
        )
        bs, bc = _scan_forward(
            inp, mask_x, p[f"enc.{l}.bwd.W"], p[f"enc.{l}.bwd.U"], p[f"enc.{l}.bwd.b"], True
        )
        out = np.concatenate([fs, bs], axis=2)
        dm = None
        if training and hp.dropout > 0.0 and l < hp.enc_layers - 1:
            out, dm = _dropout(out, hp.dropout, rng)
        drop_masks.append(dm)
        scans.append((fc, bc, fs, bs))
        inp = out
    fwd = scans[-1][2]
    bwd = scans[-1][3]
    hcat = np.concatenate([fwd, bwd], axis=2)
    hsum = fwd + bwd
    keys = hcat @ p["att.score"]
    bridge_in = np.concatenate([fwd[:, -1], bwd[:, 0]], axis=1)
    s0 = bridge_in @ p["bridge"]
    return _EncBundle(
        x_ids=x_ids,
        mask_x=mask_x,
        inputs=inputs,
        drop_masks=drop_masks,
        scans=scans,
        fwd=fwd,
        bwd=bwd,
        hcat=hcat,
        hsum=hsum,
        keys=keys,
        bridge_in=bridge_in,
        s0=s0,
    )


def _attend_cached(keys, hsum, mask_x, s_prev):
    """Attention weights and context given precomputed keys.

    Padded positions get an additive -1e30 score and an explicit zero
    weight, so they never influence the context.
    """
    e = np.einsum("bth,bh->bt", keys, s_prev) + (mask_x - 1.0) * _ATT_MASK
    e = e - e.max(axis=1, keepdims=True)
    w = np.exp(e) * mask_x
    alpha = w / w.sum(axis=1, keepdims=True)
    ctx = np.einsum("bt,bth->bh", alpha, hsum)
    return ctx, alpha


def _start_state(model: CorrectorModel, enc: _EncBundle):
    """Decoder start state: s0 on every layer, with zero cells."""
    n = model.hyper.dec_layers
    return [enc.s0.copy() for _ in range(n)], [np.zeros_like(enc.s0) for _ in range(n)]


def _decoder_step(model: CorrectorModel, enc: _EncBundle, h, c, tok, training=False, rng=None):
    """One batched decoder step from the previous tokens ``tok`` (B,).

    Attends with the top layer's state, advances every layer (dropout
    between layers only while training), then mixes the new top state
    with the context through ``att.out`` and ``gen``.  Returns the
    max-shifted (B, V) logits, the new per-layer states, and the step's
    cache for the backward pass (``probs`` still unset).
    """
    p = model.params
    hp = model.hyper
    s_prev = h[-1]
    ctx, alpha = _attend_cached(enc.keys, enc.hsum, enc.mask_x, s_prev)
    xi = np.concatenate([p["embedding"][tok], ctx], axis=1)
    new_h, new_c, cell_caches, drops = [], [], [], []
    for l in range(hp.dec_layers):
        h_new, c_new, cache = _cell_forward(
            xi, h[l], c[l], p[f"dec.{l}.W"], p[f"dec.{l}.U"], p[f"dec.{l}.b"]
        )
        new_h.append(h_new)
        new_c.append(c_new)
        cell_caches.append(cache)
        dm = None
        if training and hp.dropout > 0.0 and l < hp.dec_layers - 1:
            h_new, dm = _dropout(h_new, hp.dropout, rng)
        drops.append(dm)
        xi = h_new
    cat = np.concatenate([new_h[-1], ctx], axis=1)
    htilde = np.tanh(cat @ p["att.out"])
    logits = htilde @ p["gen.W"] + p["gen.b"]
    logits -= logits.max(axis=1, keepdims=True)
    step = _StepCache(
        s_prev=s_prev,
        alpha=alpha,
        ctx=ctx,
        tok=tok,
        cell_caches=cell_caches,
        drop_masks=drops,
        cat=cat,
        htilde=htilde,
    )
    return logits, new_h, new_c, step


def _forward_batch(model, x_ids, y_ids, training=False, rng=None):
    """Summed cross-entropy of tail-padded target rows given tail-padded
    source rows, with the tape needed for the backward pass."""
    vb = model.vocab
    enc = _encode_batch(model, x_ids, training, rng)
    y_ids = np.asarray(y_ids, dtype=np.int64)
    if y_ids.ndim != 2 or y_ids.shape[0] != enc.x_ids.shape[0] or y_ids.shape[1] == 0:
        raise InputError("target batch must be 2-D and row-aligned with the source batch")
    bsz, t_y = y_ids.shape
    if y_ids.min() < 0 or y_ids.max() >= vb.size:
        raise InputError("target contains token ids outside the vocabulary")
    mask_y = (y_ids != vb.pad_id).astype(np.float64)
    if np.any(mask_y.sum(axis=1) == 0):
        raise InputError("every target row needs at least one non-padding token")

    # Teacher forcing: the decoder reads <go> then the target shifted right.
    dinp = np.concatenate(
        [np.full((bsz, 1), vb.go_id, dtype=np.int64), y_ids[:, :-1]], axis=1
    )
    h, c = _start_state(model, enc)
    rows = np.arange(bsz)
    steps = []
    loss_sum = 0.0
    for t in range(t_y):
        logits, h, c, step = _decoder_step(model, enc, h, c, dinp[:, t], training, rng)
        expl = np.exp(logits)
        norm = expl.sum(axis=1)
        step.probs = expl / norm[:, None]
        logp_tok = logits[rows, y_ids[:, t]] - np.log(norm)
        loss_sum -= float((logp_tok * mask_y[:, t]).sum())
        steps.append(step)
    return loss_sum, _Tape(enc=enc, y_ids=y_ids, mask_y=mask_y, steps=steps)


def _backward_batch(model: CorrectorModel, tape: _Tape) -> dict[str, np.ndarray]:
    """Gradients of the summed loss for every parameter tensor."""
    p = model.params
    hp = model.hyper
    enc = tape.enc
    hdim = hp.hidden_dim
    edim = hp.emb_dim
    n_dec = hp.dec_layers
    bsz = enc.x_ids.shape[0]
    rows = np.arange(bsz)
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}

    dkeys = np.zeros_like(enc.keys)
    dhsum = np.zeros_like(enc.hsum)
    dh_carry = [np.zeros((bsz, hdim)) for _ in range(n_dec)]
    dc_carry = [np.zeros((bsz, hdim)) for _ in range(n_dec)]

    for t in range(len(tape.steps) - 1, -1, -1):
        st = tape.steps[t]
        m_y = tape.mask_y[:, t][:, None]
        dlogits = st.probs.copy()
        dlogits[rows, tape.y_ids[:, t]] -= 1.0
        dlogits *= m_y
        grads["gen.W"] += st.htilde.T @ dlogits
        grads["gen.b"] += dlogits.sum(axis=0)
        du = (dlogits @ p["gen.W"].T) * (1.0 - st.htilde * st.htilde)
        grads["att.out"] += st.cat.T @ du
        dcat = du @ p["att.out"].T
        ds_t = dcat[:, :hdim]
        dctx = dcat[:, hdim:]

        dx = None
        for l in range(n_dec - 1, -1, -1):
            if l == n_dec - 1:
                dh_l = ds_t + dh_carry[l]
            else:
                dnext = dx
                if st.drop_masks[l] is not None:
                    dnext = dnext * st.drop_masks[l]
                dh_l = dnext + dh_carry[l]
            dx, dh_prev, dc_prev = _cell_backward(
                dh_l,
                dc_carry[l],
                st.cell_caches[l],
                p[f"dec.{l}.W"],
                p[f"dec.{l}.U"],
                grads[f"dec.{l}.W"],
                grads[f"dec.{l}.U"],
                grads[f"dec.{l}.b"],
            )
            dh_carry[l] = dh_prev
            dc_carry[l] = dc_prev
        np.add.at(grads["embedding"], st.tok, dx[:, :edim])
        dctx = dctx + dx[:, edim:]

        # attention backward: context -> weights -> scores -> query/keys
        dalpha = np.einsum("bh,bth->bt", dctx, enc.hsum)
        dhsum += st.alpha[:, :, None] * dctx[:, None, :]
        de = st.alpha * (dalpha - (st.alpha * dalpha).sum(axis=1, keepdims=True))
        dkeys += de[:, :, None] * st.s_prev[:, None, :]
        # the query is the previous step's top hidden state (s0 at t=0)
        dh_carry[n_dec - 1] = dh_carry[n_dec - 1] + np.einsum("bt,bth->bh", de, enc.keys)

    # Every decoder layer starts from s0, so its grad is the sum of the
    # leftover initial-state carries.  Initial cells are constants.
    ds0 = dh_carry[0].copy()
    for l in range(1, n_dec):
        ds0 += dh_carry[l]
    grads["bridge"] += enc.bridge_in.T @ ds0
    dbridge_in = ds0 @ p["bridge"].T

    grads["att.score"] += np.einsum("bti,btj->ij", enc.hcat, dkeys)
    dhcat = dkeys @ p["att.score"].T
    d_fwd = dhsum + dhcat[:, :, :hdim]
    d_bwd = dhsum + dhcat[:, :, hdim:]
    d_fwd[:, -1] += dbridge_in[:, :hdim]
    d_bwd[:, 0] += dbridge_in[:, hdim:]

    for l in range(hp.enc_layers - 1, -1, -1):
        fc, bc, _, _ = enc.scans[l]
        dinp = _scan_backward(
            d_fwd, fc, enc.mask_x,
            p[f"enc.{l}.fwd.W"], p[f"enc.{l}.fwd.U"], False,
            grads[f"enc.{l}.fwd.W"], grads[f"enc.{l}.fwd.U"], grads[f"enc.{l}.fwd.b"],
        )
        dinp += _scan_backward(
            d_bwd, bc, enc.mask_x,
            p[f"enc.{l}.bwd.W"], p[f"enc.{l}.bwd.U"], True,
            grads[f"enc.{l}.bwd.W"], grads[f"enc.{l}.bwd.U"], grads[f"enc.{l}.bwd.b"],
        )
        if l > 0:
            if enc.drop_masks[l - 1] is not None:
                dinp = dinp * enc.drop_masks[l - 1]
            d_fwd = dinp[:, :, :hdim]
            d_bwd = dinp[:, :, hdim:]
        else:
            np.add.at(grads["embedding"], enc.x_ids, dinp)
    return grads


# ---------------------------------------------------------------------------
# one-sequence entry points


@dataclass(frozen=True)
class CorrectionResult:
    """Decoded correction plus quality flags.

    ``hit_cap`` marks output truncated at the length cap; ``degraded``
    marks input whose characters were all unknown to the vocabulary, in
    which case the output is best-effort only.
    """

    text: str
    tokens: tuple[int, ...]
    hit_cap: bool
    degraded: bool


def loss(model: CorrectorModel, x_ids, y_ids) -> float:
    """Teacher-forced cross-entropy, summed over target tokens.

    The target must end with the <end> token and neither sequence may
    contain padding.
    """
    x = _check_ids(model.vocab, x_ids, "source sequence")
    y = _check_ids(model.vocab, y_ids, "target sequence")
    if y[-1] != model.vocab.end_id:
        raise InputError("target sequence must end with the <end> token")
    value, _ = _forward_batch(model, x[None, :], y[None, :])
    return float(value)


def backward(model: CorrectorModel, x_ids, y_ids):
    """Loss and its gradient for one (source, target) pair.

    Returns
    -------
    (float, dict)
        The loss value and a dict with one gradient array per
        parameter, matching shapes.  Gradients of a batch are sums of
        these per-pair gradients.
    """
    x = _check_ids(model.vocab, x_ids, "source sequence")
    y = _check_ids(model.vocab, y_ids, "target sequence")
    if y[-1] != model.vocab.end_id:
        raise InputError("target sequence must end with the <end> token")
    value, tape = _forward_batch(model, x[None, :], y[None, :])
    return float(value), _backward_batch(model, tape)


def _infer_logprobs(model, enc, h, c, tok):
    """One inference step on a batch-of-one bundle; returns log p over
    the vocabulary and the advanced per-layer states."""
    logits, h, c, _ = _decoder_step(model, enc, h, c, np.array([tok]))
    logits = logits[0]
    return logits - np.log(np.exp(logits).sum()), h, c


def correct(model: CorrectorModel, phrase: str, beam_width: int = 1) -> CorrectionResult:
    """Decode a corrected phrase for a noisy input phrase.

    Beam search keeps ``beam_width`` running hypotheses ranked by total
    log probability; a hypothesis closes when it emits <end>, and
    decoding stops once every surviving hypothesis is closed or the
    output cap of four times the input length is reached.  Ties break
    deterministically toward the lexicographically smaller token
    sequence.
    """
    if beam_width < 1:
        raise InputError("beam width must be >= 1")
    vb = model.vocab
    ids = vb.preprocess(phrase)
    content = [i for i in ids if i != vb.sep_id]
    degraded = all(i == vb.unk_id for i in content)
    cap = 4 * len(ids)
    enc = _encode_batch(model, np.asarray([ids], dtype=np.int64))
    h0, c0 = _start_state(model, enc)

    # hypotheses: (total logp, tokens, h, c); banned as first-class
    # outputs are <go> and <pad>, which carry no text
    live = [(0.0, (), h0, c0)]
    closed: list[tuple[float, tuple[int, ...]]] = []
    banned = (vb.go_id, vb.pad_id)
    for _ in range(cap):
        expanded = []
        for score, toks, h, c in live:
            prev = toks[-1] if toks else vb.go_id
            logprobs, nh, nc = _infer_logprobs(model, enc, h, c, prev)
            order = np.argsort(-logprobs, kind="stable")[: beam_width + len(banned) + 1]
            for cand in order:
                cand = int(cand)
                if cand in banned:
                    continue
                cand_score = score + float(logprobs[cand])
                if cand == vb.end_id:
                    closed.append((cand_score, toks))
                else:
                    expanded.append((cand_score, toks + (cand,), nh, nc))
        if not expanded:
            break
        expanded.sort(key=lambda e: (-e[0], e[1]))
        live = expanded[:beam_width]
        if closed and all(s <= max(cs for cs, _ in closed) for s, _, _, _ in live):
            break
    if closed:
        closed.sort(key=lambda e: (-e[0], e[1]))
        best_score, best_toks = closed[0]
        hit_cap = False
        if live:
            top_live = max(live, key=lambda e: e[0])
            if top_live[0] > best_score:
                best_toks = top_live[1]
                hit_cap = True
    else:
        live.sort(key=lambda e: (-e[0], e[1]))
        best_toks = live[0][1]
        hit_cap = True
    return CorrectionResult(
        text=vb.render(best_toks),
        tokens=tuple(int(t) for t in best_toks),
        hit_cap=hit_cap,
        degraded=degraded,
    )
