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
gradients) is one matrix product over all steps.  One check,
``_check_batch``, validates source and target batches, and one
decoder-step kernel, ``_decoder_advance``, serves both teacher-forced
training and inference.  Dropout applies between stacked layers exactly
when a random generator is passed, which only training does.  The
public ``loss`` and ``backward`` take one pair and run it as a batch of
one.  ``correct_batch`` runs every phrase of a document through one
beam search: one encoder call, then one decoder step per output
position for every live hypothesis of every unfinished phrase, and
``correct`` is its one-phrase form.

Inference outputs do not depend on which phrases share a batch.  Every
2-D inference product runs on at least two rows, and attention runs
once per run of rows with equal source length, on unpadded keys.  That
relies on the rows of ``x @ W`` being bit-identical for any row count
from two up, and on the rows of a batched 3-D ``matmul`` equalling the
rows computed alone; the tests pin both for the bundled network sizes.

All (probs, labels) style losses are sums over tokens, so gradients of
a batch are the sums of the per-pair gradients.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from ..errors import InputError
from .model import CorrectorModel
from .vocab import Vocab

__all__ = ["CorrectionResult", "loss", "backward", "correct", "correct_batch"]

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


def _check_batch(vocab: Vocab, ids, what: str):
    """Check a tail-padded (B, T) token id batch (``what`` names it).

    It must be 2-D and non-empty, every id must be in the vocabulary,
    every row must hold a non-padding token and the padding must trail.
    Returns the ids, the (B, T) float mask of real tokens, the stable
    longest-first row order and, for the rows in that order, how many
    reach each position.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.size == 0:
        raise InputError(f"{what} batch must be a non-empty 2-D token id array")
    if ids.min() < 0 or ids.max() >= vocab.size:
        raise InputError(f"{what} contains token ids outside the vocabulary")
    mask = (ids != vocab.pad_id).astype(np.float64)
    lengths = mask.sum(axis=1).astype(np.int64)
    if np.any(lengths == 0):
        raise InputError(f"every {what} row needs at least one non-padding token")
    if not np.array_equal(mask > 0, np.arange(ids.shape[1]) < lengths[:, None]):
        raise InputError(f"{what} padding must trail every row")
    order = np.argsort(-lengths, kind="stable")
    counts = (lengths[order][:, None] > np.arange(ids.shape[1])).sum(axis=0)
    return ids, mask, order, counts


def _pad_batch(seqs, pad_id: int) -> np.ndarray:
    """(B, T) int64 batch of the token sequences ``seqs``, each padded
    at its tail to the longest with ``pad_id``."""
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def _stack_steps(parts, bsz: int) -> np.ndarray:
    """(B, T, ...) array of per-step arrays that each fill the leading
    rows; zero past a row's last step."""
    out = np.zeros((bsz, len(parts)) + parts[0].shape[1:], dtype=parts[0].dtype)
    for t, a in enumerate(parts):
        out[: len(a), t] = a
    return out


def _dropout(a, rate, rng):
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return a * mask, mask


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
    hcat: np.ndarray        # (B, Tx, 2H) top layer forward then backward states
    hsum: np.ndarray        # (B, Tx, H)
    keys: np.ndarray        # (B, Tx, H) attention keys
    bridge_in: np.ndarray   # (B, 2H)
    s0: np.ndarray          # (B, H) shared initial decoder hidden


@dataclass
class _StepCache:
    alphas: list            # attention weights, one array per run of rows
    h_in: list              # per layer: hidden state before the step; the
                            # top layer's is the attention query
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
    y_in: np.ndarray        # (B, Ty) decoder input tokens, sorted rows
    mask_y: np.ndarray      # (B, Ty) sorted rows
    steps: list             # per step: the cache of its leading rows
    cat: np.ndarray         # (B, Ty, 2H) state/context pairs, zero past a row's end
    htilde: np.ndarray      # (B, Ty, H)
    probs: np.ndarray       # (B, Ty, V)


def _encode_batch(model: CorrectorModel, x_ids, rng=None) -> _EncBundle:
    """Encode a tail-padded source batch; with a generator ``rng``,
    dropout applies between the layers."""
    p = model.params
    hp = model.hyper
    # The layers run on rows sorted longest first, so that the rows one
    # step advances are a leading slice.
    x_ids, mask_x, order, counts = _check_batch(model.vocab, x_ids, "source")
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
        if rng is not None and l < hp.enc_layers - 1:
            out, dm = _dropout(out, hp.dropout, rng)
        drop_masks.append(dm)
        scans.append(scan)
        inp = out
    hdim = hp.hidden_dim
    hcat = inp[np.argsort(order)]
    hsum = hcat[:, :, :hdim] + hcat[:, :, hdim:]
    keys = _mm(hcat, p["att.score"])
    bridge_in = np.concatenate([hcat[:, -1, :hdim], hcat[:, 0, hdim:]], axis=1)
    s0 = bridge_in @ p["bridge"]
    return _EncBundle(
        x_ids=x_ids,
        mask_x=mask_x,
        order=order,
        counts=counts,
        inputs=inputs,
        drop_masks=drop_masks,
        scans=scans,
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


def _decoder_advance(model: CorrectorModel, runs, h, c, tok, rng=None):
    """Advance the decoder one batched step from the previous tokens
    ``tok`` (B,).

    ``runs`` splits the rows into consecutive runs, each given as the
    (keys, hsum, mask_x) of the encoder rows it decodes; training passes
    one run.  Attends each run with the top layer's state, then advances
    every layer over all rows (with a generator ``rng``, dropout between
    layers).  Returns the new per-layer states and the step's cache;
    ``cache.cat`` pairs the new top state with the context for
    :func:`_output_logits`.
    """
    p = model.params
    hp = model.hyper
    ctxs, alphas, start = [], [], 0
    for keys, hsum, mask_x in runs:
        ctx, alpha = _attend_cached(keys, hsum, mask_x, h[-1][start : start + len(keys)])
        ctxs.append(ctx)
        alphas.append(alpha)
        start += len(keys)
    ctx = ctxs[0] if len(ctxs) == 1 else np.concatenate(ctxs)
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
        if rng is not None and l < hp.dec_layers - 1:
            h_new, dm = _dropout(h_new, hp.dropout, rng)
        drops.append(dm)
        xi = h_new
    step = _StepCache(
        alphas=alphas,
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


def _forward_batch(model, x_ids, y_ids, rng=None):
    """Summed cross-entropy of tail-padded target rows given tail-padded
    source rows, with the tape needed for the backward pass.  With a
    generator ``rng``, dropout applies between stacked layers.

    The decoder runs on rows sorted longest target first, and a row
    leaves the batch after its last target token.  Teacher forcing fixes
    every decoder input in advance, so only the recurrence runs step by
    step; the output layer is one product over all steps.
    """
    vb = model.vocab
    enc = _encode_batch(model, x_ids, rng)
    y_ids, mask_y, order, counts = _check_batch(vb, y_ids, "target")
    if y_ids.shape[0] != enc.x_ids.shape[0]:
        raise InputError("target batch must be row-aligned with the source batch")
    bsz, t_y = y_ids.shape
    y_ids, mask_y = y_ids[order], mask_y[order]
    keys, hsum, mask_x = enc.keys[order], enc.hsum[order], enc.mask_x[order]
    # Teacher forcing: the decoder reads <go> then the target shifted right.
    y_in = np.concatenate(
        [np.full((bsz, 1), vb.go_id, dtype=np.int64), y_ids[:, :-1]], axis=1
    )
    h = [enc.s0[order] for _ in range(model.hyper.dec_layers)]
    c = [np.zeros_like(s) for s in h]
    steps = []
    for t in range(t_y):
        n = counts[t]
        h, c, step = _decoder_advance(
            model,
            [(keys[:n], hsum[:n], mask_x[:n])],
            [a[:n] for a in h],
            [a[:n] for a in c],
            y_in[:n, t],
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
        y_in=y_in,
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
    alphas = [st.alphas[0] for st in steps]  # training attends in one run
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
        de[:n, t] = alphas[t] * (dalpha - (alphas[t] * dalpha).sum(axis=1, keepdims=True))
        # the query is the previous step's top hidden state (s0 at t=0)
        dh_carry[n_dec - 1][:n] += (de[:n, t, None, :] @ tape.keys[:n])[:, 0]

    for l in range(n_dec):
        h_in = _stack_steps([st.h_in[l] for st in steps], bsz)
        grads[f"dec.{l}.W"] += _gram(_stack_steps([st.inputs[l] for st in steps], bsz), dz[l])
        grads[f"dec.{l}.U"] += _gram(h_in, dz[l])
        grads[f"dec.{l}.b"] += dz[l].sum(axis=(0, 1))
    # past a row's end demb is zero, so the padded inputs add nothing
    np.add.at(grads["embedding"], tape.y_in, demb)
    alpha = _stack_steps(alphas, bsz)

    # back to the encoder's batch rows; the top layer's h_in, the last
    # one stacked, holds the attention queries
    dhsum = np.empty_like(enc.hsum)
    dhsum[tape.order] = alpha.transpose(0, 2, 1) @ dctx
    dkeys = np.empty_like(enc.keys)
    dkeys[tape.order] = de.transpose(0, 2, 1) @ h_in
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


def _forward_pair(model: CorrectorModel, x_ids, y_ids):
    """:func:`_forward_batch` of one pair as a one-row batch, which
    :func:`_check_batch` checks.  Both sequences must be 1-D without
    padding, and the target must end with the <end> token."""
    x, y = np.asarray(x_ids, dtype=np.int64), np.asarray(y_ids, dtype=np.int64)
    for arr, what in ((x, "source sequence"), (y, "target sequence")):
        if arr.ndim != 1:
            raise InputError(f"{what} must be a 1-D token sequence")
        if np.any(arr == model.vocab.pad_id):
            raise InputError(f"{what} must not contain padding tokens")
    if y.size and y[-1] != model.vocab.end_id:
        raise InputError("target sequence must end with the <end> token")
    return _forward_batch(model, x[None, :], y[None, :])


def loss(model: CorrectorModel, x_ids, y_ids) -> float:
    """Teacher-forced cross-entropy, summed over target tokens.

    The target must end with the <end> token and neither sequence may
    contain padding.
    """
    return float(_forward_pair(model, x_ids, y_ids)[0])


def backward(model: CorrectorModel, x_ids, y_ids):
    """Loss and its gradient for one (source, target) pair.

    Returns
    -------
    (float, dict)
        The loss value and a dict with one gradient array per
        parameter, matching shapes.  Gradients of a batch are sums of
        these per-pair gradients.
    """
    value, tape = _forward_pair(model, x_ids, y_ids)
    return float(value), _backward_batch(model, tape)


def _infer_logprobs(model, runs, h, c, tok):
    """One inference step of every row, with attention ``runs`` as in
    :func:`_decoder_advance`; returns the (B, V) log p over the
    vocabulary and the advanced per-layer states."""
    h, c, step = _decoder_advance(model, runs, h, c, tok)
    logits = _output_logits(model, step.cat)[0]
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)), h, c


def _beam_search(model: CorrectorModel, seqs: list[list[int]], beam_width: int):
    """Beam search over every token sequence of ``seqs`` at once.

    Returns, per sequence, its final live and closed hypotheses as
    (total logp, tokens) lists; the live list is sorted best first.
    Each sequence follows the rules :func:`correct` documents, with its
    own cap and early stop.  The encoder runs once, on the sequences
    and a copy of the longest, so every encoder step advances at least
    two rows.  The decoder rows are the live hypotheses of the
    unfinished sequences, ordered by (source length, sequence index),
    so attention runs once per source length on unpadded keys; a lone
    row is stepped twice over, so no product runs on one row.
    """
    vb = model.vocab
    enc = _encode_batch(model, _pad_batch(seqs + [max(seqs, key=len)], vb.pad_id))
    by_len = sorted(range(len(seqs)), key=lambda q: (len(seqs[q]), q))
    # the attention inputs of each source length, unpadded, each
    # sequence's slot among those of its length, and the inputs gathered
    # for each run of rows seen, by length and slots
    att, slot, run_att = {}, {}, {}
    for length, group in groupby(by_len, key=lambda q: len(seqs[q])):
        group = list(group)
        att[length] = (enc.keys[group, :length], enc.hsum[group, :length], enc.mask_x[group, :length])
        slot.update((q, k) for k, q in enumerate(group))

    caps = [4 * len(ids) for ids in seqs]
    live: list[list[tuple[float, tuple[int, ...]]]] = [[(0.0, ())] for _ in seqs]
    closed: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in seqs]
    # banned as first-class outputs are <go> and <pad>, which carry no text
    go, end, banned = vb.go_id, vb.end_id, (vb.go_id, vb.pad_id)
    width = beam_width + len(banned) + 1
    h, c = _start_state(model, enc)
    active, sel, t = by_len, by_len, 0
    while active:
        # each row's sequence and the state row it continues
        row_seq = [q for q in active for _ in live[q]]
        prev = [toks[-1] if toks else go for q in active for _, toks in live[q]]
        if len(sel) == 1:
            row_seq, prev, sel = 2 * row_seq, 2 * prev, 2 * sel
        runs = []
        for length, group in groupby(row_seq, key=lambda q: len(seqs[q])):
            key = (length, tuple(slot[q] for q in group))
            if key not in run_att:
                run_att[key] = tuple(a[list(key[1])] for a in att[length])
            runs.append(run_att[key])
        logp, h, c = _infer_logprobs(
            model, runs, [a[sel] for a in h], [a[sel] for a in c], np.array(prev)
        )
        top = np.argsort(-logp, axis=1, kind="stable")[:, :width].tolist()
        logp = logp.tolist()

        t += 1
        next_active, sel, row = [], [], 0
        for q in active:
            expanded = []
            for score, toks in live[q]:
                for cand in top[row]:
                    if cand in banned:
                        continue
                    if cand == end:
                        closed[q].append((score + logp[row][cand], toks))
                    else:
                        expanded.append((score + logp[row][cand], toks + (cand,), row))
                row += 1
            if not expanded:
                continue
            expanded.sort(key=lambda e: (-e[0], e[1]))
            kept = expanded[:beam_width]
            live[q] = [(score, toks) for score, toks, _ in kept]
            if closed[q] and live[q][0][0] <= max(cs for cs, _ in closed[q]):
                continue
            if t < caps[q]:
                next_active.append(q)
                sel.extend(r for _, _, r in kept)
        active = next_active
    return list(zip(live, closed))


def _pick(live, closed) -> tuple[tuple[int, ...], bool]:
    """The tokens of the best hypothesis and whether the output was cut
    at the cap: the best closed one, unless none closed or the best
    live one scores higher."""
    score, toks = live[0]
    if closed:
        best_score, best_toks = min(closed, key=lambda e: (-e[0], e[1]))
        if best_score >= score:
            return best_toks, False
    return toks, True


def correct_batch(model: CorrectorModel, phrases, beam_width: int) -> list[CorrectionResult]:
    """:func:`correct` of every phrase of ``phrases``, all decoded by
    one beam search; each result equals that phrase's :func:`correct`.
    """
    if beam_width < 1:
        raise InputError("beam width must be >= 1")
    if not phrases:
        return []
    vb = model.vocab
    seqs = [vb.preprocess(phrase) for phrase in phrases]
    results = []
    for ids, (live, closed) in zip(seqs, _beam_search(model, seqs, beam_width)):
        toks, hit_cap = _pick(live, closed)
        results.append(
            CorrectionResult(
                text=vb.render(toks),
                tokens=toks,
                hit_cap=hit_cap,
                degraded=all(i == vb.unk_id for i in ids if i != vb.sep_id),
            )
        )
    return results


def correct(model: CorrectorModel, phrase: str, beam_width: int = 1) -> CorrectionResult:
    """Decode a corrected phrase for a noisy input phrase.

    Beam search keeps ``beam_width`` running hypotheses ranked by total
    log probability; a hypothesis closes when it emits <end>, and
    decoding stops once every surviving hypothesis is closed or the
    output cap of four times the input length is reached.  Ties break
    deterministically toward the lexicographically smaller token
    sequence.
    """
    return correct_batch(model, [phrase], beam_width)[0]
