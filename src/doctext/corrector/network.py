"""Forward pass, attention, and reverse-mode gradients for the corrector.

The encoder is a stack of bidirectional LSTM layers; the decoder is a
stack of unidirectional LSTM layers whose first input concatenates the
previous output token's embedding with an attention context.  Scores
compare the previous top-layer decoder state against a learned
projection of the concatenated directional states; the context mixes
the summed directional states with the resulting weights.  The output
layer feeds the state/context pair through a tanh bottleneck and a
softmax over the vocabulary.

Everything here is explicit numpy and batched.  Sequences are
tail-padded with the <pad> token and padding changes nothing: padded
source positions neither update encoder states nor receive attention,
and padded target positions contribute zero loss and zero gradient.
The recurrences run on rows sorted longest first, so a step advances
only the leading rows that have not ended, and every product that does
not feed a recurrence (input projections, the output layer, weight
gradients) is one matrix product over all steps.  One decoder-step
kernel, ``_decoder_advance``, serves both teacher-forced training and
inference.  The public ``loss``, ``backward`` and ``correct`` take one
sequence and run it as a batch of one.

All (probs, labels) style losses are sums over tokens, so gradients of
a batch are the sums of the per-pair gradients.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import InputError
from .model import CorrectorModel
from .vocab import Vocab

__all__ = ["CorrectionResult", "loss", "backward", "correct"]

_ATT_MASK = 1e30  # additive pre-softmax penalty for padded positions


def _mm(a, w):
    """``a @ w`` for a 2-D ``w`` and an ``a`` of any rank, as one
    matrix product over all of ``a``'s leading axes."""
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(a.shape[:-1] + (w.shape[1],))


def _gram(a, b):
    """Sum over every leading axis of the outer products of ``a``'s and
    ``b``'s last axes: an (I, J) matrix as one matrix product."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


@lru_cache(maxsize=None)
def _gate_scale(hdim: int) -> tuple[np.ndarray, np.ndarray]:
    # sigmoid(z) = (tanh(z / 2) + 1) / 2, so one tanh over the scaled
    # pre-activations serves all four gates: the i, f, o blocks are
    # halved and the g block is kept.  d tanh(a z) / dz is
    # a (1 - tanh(a z)^2), so the backward factor is the scale squared.
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hdim)
    return scale, scale * scale


def _cell(z, c_prev):
    """LSTM gates from (B, 4H) pre-activations, ordered i, f, g, o.

    Returns the new hidden and cell states and the cache for
    :func:`_cell_backward`.  Callers own the matrix products, so that
    the products that do not feed the recurrence can span a sequence.
    """
    hdim = c_prev.shape[1]
    t = np.tanh(z * _gate_scale(hdim)[0])
    s = 0.5 * (t + 1.0)  # the sigmoid gates; its g block is unused
    i = s[:, :hdim]
    f = s[:, hdim : 2 * hdim]
    g = t[:, 2 * hdim : 3 * hdim]
    o = s[:, 3 * hdim :]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, t, i, f, g, o, tc)


def _cell_backward(dh, dc_in, cache):
    """Backward of :func:`_cell`: gradients of the pre-activations and
    of the previous cell state."""
    c_prev, t, i, f, g, o, tc = cache
    hdim = i.shape[1]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dgate = np.empty(t.shape)
    np.multiply(dc, g, out=dgate[:, :hdim])
    np.multiply(dc, c_prev, out=dgate[:, hdim : 2 * hdim])
    np.multiply(dc, i, out=dgate[:, 2 * hdim : 3 * hdim])
    np.multiply(dh, tc, out=dgate[:, 3 * hdim :])
    return dgate * (1.0 - t * t) * _gate_scale(hdim)[1], dc * f


def _scan_forward(xw, counts, u, reverse):
    """Run one LSTM direction over precomputed input projections.

    ``xw`` (B, T, 4H) holds ``x @ W + b`` for rows sorted longest first,
    and ``counts[t]`` is the number of rows that reach position t, so
    the rows a step advances are a leading slice.  A row's state is
    carried unchanged past its end, so the state at the last position
    (the first, in reverse) is its state at its true last (first) token.
    """
    bsz, t_len, _ = xw.shape
    hdim = u.shape[0]
    h = np.zeros((bsz, hdim))
    c = np.zeros((bsz, hdim))
    states = np.empty((bsz, t_len, hdim))
    caches = [None] * t_len
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        n = counts[t]
        h[:n], c[:n], caches[t] = _cell(xw[:n, t] + h[:n] @ u, c[:n].copy())
        states[:, t] = h
    return states, caches


def _scan_backward(dstates, caches, counts, u, reverse):
    """Backward of :func:`_scan_forward` down to the (B, T, 4H)
    pre-activation gradients, which are zero past each row's end.

    Only the recurrent product runs per step; the caller turns the
    result into weight, bias and input gradients with one product each.
    """
    bsz, t_len, hdim = dstates.shape
    dz = np.zeros((bsz, t_len, 4 * hdim))
    dh = np.zeros((bsz, hdim))
    dc = np.zeros((bsz, hdim))
    for t in range(t_len) if reverse else range(t_len - 1, -1, -1):
        n = counts[t]
        dh = dh + dstates[:, t]
        dz[:n, t], dc[:n] = _cell_backward(dh[:n], dc[:n], caches[t])
        dh[:n] = dz[:n, t] @ u.T
    return dz


def _lengths(mask, what: str) -> np.ndarray:
    """Row lengths of a (B, T) padding mask; the padding must trail."""
    lengths = mask.sum(axis=1).astype(np.int64)
    if not np.array_equal(mask > 0, np.arange(mask.shape[1]) < lengths[:, None]):
        raise InputError(f"{what} padding must trail every row")
    return lengths


def _step_counts(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """For rows sorted longest first: how many rows reach each position."""
    return (lengths[:, None] > np.arange(t_len)).sum(axis=0)


def _stack_steps(parts, bsz: int) -> np.ndarray:
    """(B, T, ...) array of per-step arrays that each fill the leading
    rows; zero past a row's last step."""
    out = np.zeros((bsz, len(parts)) + parts[0].shape[1:], dtype=parts[0].dtype)
    for t, a in enumerate(parts):
        out[: len(a), t] = a
    return out


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
    order: np.ndarray       # (B,) the encoder's row order: longest source first
    counts: np.ndarray      # (Tx,) sorted rows reaching each position
    inputs: list            # per layer: input tensor (post-dropout), sorted rows
    drop_masks: list        # per layer: dropout mask on its output, or None
    scans: list             # per layer: {direction: (states, caches)}, sorted rows
    fwd: np.ndarray         # (B, Tx, H) top layer forward states
    bwd: np.ndarray         # (B, Tx, H) top layer backward states
    hcat: np.ndarray        # (B, Tx, 2H)
    hsum: np.ndarray        # (B, Tx, H)
    keys: np.ndarray        # (B, Tx, H) attention keys
    bridge_in: np.ndarray   # (B, 2H)
    s0: np.ndarray          # (B, H) shared initial decoder hidden


@dataclass
class _StepCache:
    s_prev: np.ndarray      # attention query: the top state before the step
    alpha: np.ndarray       # attention weights
    tok: np.ndarray         # input tokens
    h_in: list              # per layer: hidden state before the step
    inputs: list            # per layer: cell input (post-dropout below it)
    cell_caches: list
    drop_masks: list
    cat: np.ndarray         # new top state and context


@dataclass
class _Tape:
    """The forward pass of a batch, its rows sorted longest target first."""

    enc: _EncBundle
    order: np.ndarray       # (B,) batch row of each sorted row
    counts: np.ndarray      # (Ty,) sorted rows still decoding at each step
    keys: np.ndarray        # (B, Tx, H) enc.keys, sorted rows
    hsum: np.ndarray        # (B, Tx, H) enc.hsum, sorted rows
    y_ids: np.ndarray       # (B, Ty) sorted rows
    mask_y: np.ndarray      # (B, Ty) sorted rows
    steps: list             # per step: the cache of its leading rows
    cat: np.ndarray         # (B, Ty, 2H) state/context pairs, zero past a row's end
    htilde: np.ndarray      # (B, Ty, H)
    probs: np.ndarray       # (B, Ty, V)


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
    lengths = _lengths(mask_x, "source")

    # The layers run on rows sorted longest first, so that the rows one
    # step advances are a leading slice.
    order = np.argsort(-lengths, kind="stable")
    counts = _step_counts(lengths[order], x_ids.shape[1])
    inp = p["embedding"][x_ids[order]]
    inputs, drop_masks, scans = [], [], []
    for l in range(hp.enc_layers):
        inputs.append(inp)
        scan = {}
        for name, reverse in (("fwd", False), ("bwd", True)):
            xw = _mm(inp, p[f"enc.{l}.{name}.W"])
            xw += p[f"enc.{l}.{name}.b"]
            scan[name] = _scan_forward(xw, counts, p[f"enc.{l}.{name}.U"], reverse)
        out = np.concatenate([scan["fwd"][0], scan["bwd"][0]], axis=2)
        dm = None
        if training and hp.dropout > 0.0 and l < hp.enc_layers - 1:
            out, dm = _dropout(out, hp.dropout, rng)
        drop_masks.append(dm)
        scans.append(scan)
        inp = out
    unsort = np.argsort(order)
    fwd = scans[-1]["fwd"][0][unsort]
    bwd = scans[-1]["bwd"][0][unsort]
    hcat = np.concatenate([fwd, bwd], axis=2)
    hsum = fwd + bwd
    keys = _mm(hcat, p["att.score"])
    bridge_in = np.concatenate([fwd[:, -1], bwd[:, 0]], axis=1)
    s0 = bridge_in @ p["bridge"]
    return _EncBundle(
        x_ids=x_ids,
        mask_x=mask_x,
        order=order,
        counts=counts,
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
    e = (keys @ s_prev[:, :, None])[:, :, 0] + (mask_x - 1.0) * _ATT_MASK
    e = e - e.max(axis=1, keepdims=True)
    w = np.exp(e) * mask_x
    alpha = w / w.sum(axis=1, keepdims=True)
    ctx = (alpha[:, None, :] @ hsum)[:, 0]
    return ctx, alpha


def _start_state(model: CorrectorModel, enc: _EncBundle):
    """Decoder start state: s0 on every layer, with zero cells."""
    n = model.hyper.dec_layers
    return [enc.s0.copy() for _ in range(n)], [np.zeros_like(enc.s0) for _ in range(n)]


def _decoder_advance(model: CorrectorModel, att, h, c, tok, training=False, rng=None):
    """Advance the decoder one batched step from the previous tokens
    ``tok`` (B,).

    ``att`` is the (keys, hsum, mask_x) of the encoder rows being
    decoded.  Attends with the top layer's state and advances every
    layer (dropout between layers only while training).  Returns the
    new per-layer states and the step's cache; ``cache.cat`` pairs the
    new top state with the context for :func:`_output_logits`.
    """
    p = model.params
    hp = model.hyper
    s_prev = h[-1]
    ctx, alpha = _attend_cached(*att, s_prev)
    xi = np.concatenate([p["embedding"][tok], ctx], axis=1)
    new_h, new_c, inputs, cell_caches, drops = [], [], [], [], []
    for l in range(hp.dec_layers):
        z = xi @ p[f"dec.{l}.W"] + h[l] @ p[f"dec.{l}.U"] + p[f"dec.{l}.b"]
        h_new, c_new, cache = _cell(z, c[l])
        inputs.append(xi)
        new_h.append(h_new)
        new_c.append(c_new)
        cell_caches.append(cache)
        dm = None
        if training and hp.dropout > 0.0 and l < hp.dec_layers - 1:
            h_new, dm = _dropout(h_new, hp.dropout, rng)
        drops.append(dm)
        xi = h_new
    step = _StepCache(
        s_prev=s_prev,
        alpha=alpha,
        tok=tok,
        h_in=list(h),
        inputs=inputs,
        cell_caches=cell_caches,
        drop_masks=drops,
        cat=np.concatenate([new_h[-1], ctx], axis=1),
    )
    return new_h, new_c, step


def _output_logits(model: CorrectorModel, cat):
    """Max-shifted logits over the vocabulary for state/context pairs
    ``cat`` (..., 2H), through the ``att.out`` tanh bottleneck and
    ``gen``; also returns the bottleneck activations."""
    p = model.params
    htilde = np.tanh(_mm(cat, p["att.out"]))
    logits = _mm(htilde, p["gen.W"]) + p["gen.b"]
    logits -= logits.max(axis=-1, keepdims=True)
    return logits, htilde


def _decoder_step(model: CorrectorModel, enc: _EncBundle, h, c, tok):
    """One batched inference step: :func:`_decoder_advance`, then the
    output layer.  Returns the max-shifted (B, V) logits, the new
    per-layer states and the step's cache."""
    h, c, step = _decoder_advance(model, (enc.keys, enc.hsum, enc.mask_x), h, c, tok)
    logits, _ = _output_logits(model, step.cat)
    return logits, h, c, step


def _forward_batch(model, x_ids, y_ids, training=False, rng=None):
    """Summed cross-entropy of tail-padded target rows given tail-padded
    source rows, with the tape needed for the backward pass.

    The decoder runs on rows sorted longest target first, and a row
    leaves the batch after its last target token.  Teacher forcing fixes
    every decoder input in advance, so only the recurrence runs step by
    step; the output layer is one product over all steps.
    """
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
    lengths = _lengths(mask_y, "target")

    order = np.argsort(-lengths, kind="stable")
    counts = _step_counts(lengths[order], t_y)
    y_ids, mask_y = y_ids[order], mask_y[order]
    keys, hsum, mask_x = enc.keys[order], enc.hsum[order], enc.mask_x[order]
    # Teacher forcing: the decoder reads <go> then the target shifted right.
    dinp = np.concatenate(
        [np.full((bsz, 1), vb.go_id, dtype=np.int64), y_ids[:, :-1]], axis=1
    )
    h = [enc.s0[order] for _ in range(model.hyper.dec_layers)]
    c = [np.zeros_like(s) for s in h]
    steps = []
    for t in range(t_y):
        n = counts[t]
        h, c, step = _decoder_advance(
            model,
            (keys[:n], hsum[:n], mask_x[:n]),
            [a[:n] for a in h],
            [a[:n] for a in c],
            dinp[:n, t],
            training,
            rng,
        )
        steps.append(step)
    cat = _stack_steps([st.cat for st in steps], bsz)
    logits, htilde = _output_logits(model, cat)
    expl = np.exp(logits)
    norm = expl.sum(axis=2)
    probs = expl / norm[:, :, None]
    logp_tok = np.take_along_axis(logits, y_ids[:, :, None], axis=2)[:, :, 0] - np.log(norm)
    loss_sum = -float((logp_tok * mask_y).sum())
    tape = _Tape(
        enc=enc,
        order=order,
        counts=counts,
        keys=keys,
        hsum=hsum,
        y_ids=y_ids,
        mask_y=mask_y,
        steps=steps,
        cat=cat,
        htilde=htilde,
        probs=probs,
    )
    return loss_sum, tape


def _decoder_backward(model: CorrectorModel, tape: _Tape, grads) -> tuple:
    """Backward through the output layer, the decoder and its attention.

    Adds the gradients of those parameters to ``grads`` and returns the
    gradients of ``enc.hsum``, ``enc.keys`` and ``enc.s0``, in the
    encoder's batch rows.
    """
    p = model.params
    hp = model.hyper
    enc = tape.enc
    hdim = hp.hidden_dim
    edim = hp.emb_dim
    n_dec = hp.dec_layers
    steps = tape.steps
    bsz, t_y = tape.y_ids.shape

    # output layer over every step at once
    dlogits = tape.probs.copy()
    rows, cols = np.indices((bsz, t_y))
    dlogits[rows, cols, tape.y_ids] -= 1.0
    dlogits *= tape.mask_y[:, :, None]
    grads["gen.W"] += _gram(tape.htilde, dlogits)
    grads["gen.b"] += dlogits.sum(axis=(0, 1))
    du = _mm(dlogits, p["gen.W"].T) * (1.0 - tape.htilde * tape.htilde)
    grads["att.out"] += _gram(tape.cat, du)
    dcat = _mm(du, p["att.out"].T)

    # the recurrence; a row's carries stay zero until the step loop,
    # running backwards, reaches the row's last step
    dz = [np.zeros((bsz, t_y, 4 * hdim)) for _ in range(n_dec)]
    demb = np.zeros((bsz, t_y, edim))
    dctx = np.zeros((bsz, t_y, hdim))
    de = np.zeros((bsz, t_y, tape.keys.shape[1]))
    dh_carry = [np.zeros((bsz, hdim)) for _ in range(n_dec)]
    dc_carry = [np.zeros((bsz, hdim)) for _ in range(n_dec)]
    for t in range(t_y - 1, -1, -1):
        st = steps[t]
        n = tape.counts[t]
        dh = dcat[:n, t, :hdim]
        for l in range(n_dec - 1, -1, -1):
            dz[l][:n, t], dc_carry[l][:n] = _cell_backward(
                dh + dh_carry[l][:n], dc_carry[l][:n], st.cell_caches[l]
            )
            dh_carry[l][:n] = dz[l][:n, t] @ p[f"dec.{l}.U"].T
            dx = dz[l][:n, t] @ p[f"dec.{l}.W"].T
            if l > 0:
                dh = dx if st.drop_masks[l - 1] is None else dx * st.drop_masks[l - 1]
        demb[:n, t] = dx[:, :edim]
        dctx[:n, t] = dcat[:n, t, hdim:] + dx[:, edim:]

        # attention backward: context -> weights -> scores -> query
        dalpha = (tape.hsum[:n] @ dctx[:n, t, :, None])[:, :, 0]
        de[:n, t] = st.alpha * (dalpha - (st.alpha * dalpha).sum(axis=1, keepdims=True))
        # the query is the previous step's top hidden state (s0 at t=0)
        dh_carry[n_dec - 1][:n] += (de[:n, t, None, :] @ tape.keys[:n])[:, 0]

    for l in range(n_dec):
        grads[f"dec.{l}.W"] += _gram(_stack_steps([st.inputs[l] for st in steps], bsz), dz[l])
        grads[f"dec.{l}.U"] += _gram(_stack_steps([st.h_in[l] for st in steps], bsz), dz[l])
        grads[f"dec.{l}.b"] += dz[l].sum(axis=(0, 1))
    np.add.at(grads["embedding"], _stack_steps([st.tok for st in steps], bsz), demb)
    alpha = _stack_steps([st.alpha for st in steps], bsz)
    s_prev = _stack_steps([st.s_prev for st in steps], bsz)

    # back to the encoder's batch rows
    dhsum = np.empty_like(enc.hsum)
    dhsum[tape.order] = alpha.transpose(0, 2, 1) @ dctx
    dkeys = np.empty_like(enc.keys)
    dkeys[tape.order] = de.transpose(0, 2, 1) @ s_prev
    # Every decoder layer starts from s0, so its grad is the sum of the
    # leftover initial-state carries.  Initial cells are constants.
    ds0 = np.empty_like(enc.s0)
    ds0[tape.order] = sum(dh_carry[1:], dh_carry[0])
    return dhsum, dkeys, ds0


def _encoder_direction_backward(p, name, scan, inp, d_states, counts, reverse, grads):
    """Backward through one direction of an encoder layer (parameter
    prefix ``name``).  Adds its weight and bias gradients to ``grads``
    and returns the gradient of the layer input."""
    states, caches = scan
    dz = _scan_backward(d_states, caches, counts, p[f"{name}.U"], reverse)
    # the state each position read: the carried one a step earlier
    h_prev = np.zeros_like(states)
    if reverse:
        h_prev[:, :-1] = states[:, 1:]
    else:
        h_prev[:, 1:] = states[:, :-1]
    grads[f"{name}.W"] += _gram(inp, dz)
    grads[f"{name}.U"] += _gram(h_prev, dz)
    grads[f"{name}.b"] += dz.sum(axis=(0, 1))
    return _mm(dz, p[f"{name}.W"].T)


def _backward_batch(model: CorrectorModel, tape: _Tape) -> dict[str, np.ndarray]:
    """Gradients of the summed loss for every parameter tensor.

    Products that do not feed a recurrence (the output layer, the
    weight gradients, the attention's key and value gradients) are one
    product over all steps; the step loops carry only the recurrences.
    """
    p = model.params
    hp = model.hyper
    enc = tape.enc
    hdim = hp.hidden_dim
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    dhsum, dkeys, ds0 = _decoder_backward(model, tape, grads)

    grads["bridge"] += enc.bridge_in.T @ ds0
    dbridge_in = ds0 @ p["bridge"].T
    grads["att.score"] += _gram(enc.hcat, dkeys)
    dhcat = _mm(dkeys, p["att.score"].T)
    d_fwd = dhsum + dhcat[:, :, :hdim]
    d_bwd = dhsum + dhcat[:, :, hdim:]
    d_fwd[:, -1] += dbridge_in[:, :hdim]
    d_bwd[:, 0] += dbridge_in[:, hdim:]

    # the encoder, on its own sorted rows
    d_fwd, d_bwd = d_fwd[enc.order], d_bwd[enc.order]
    for l in range(hp.enc_layers - 1, -1, -1):
        scan = enc.scans[l]
        dinp = _encoder_direction_backward(
            p, f"enc.{l}.fwd", scan["fwd"], enc.inputs[l], d_fwd, enc.counts, False, grads
        )
        dinp += _encoder_direction_backward(
            p, f"enc.{l}.bwd", scan["bwd"], enc.inputs[l], d_bwd, enc.counts, True, grads
        )
        if l > 0:
            if enc.drop_masks[l - 1] is not None:
                dinp = dinp * enc.drop_masks[l - 1]
            d_fwd = dinp[:, :, :hdim]
            d_bwd = dinp[:, :, hdim:]
        else:
            np.add.at(grads["embedding"], enc.x_ids[enc.order], dinp)
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
