"""Forward pass, attention, and reverse-mode gradients for the corrector.

The encoder is a stack of bidirectional LSTM layers; the decoder is a
stack of unidirectional LSTM layers whose first input concatenates the
previous output token's embedding with an attention context.  Scores
compare the previous top-layer decoder state against a learned
projection of the concatenated directional states; the context mixes
the summed directional states with the resulting weights.  The output
layer feeds the state/context pair through a tanh bottleneck and a
softmax over the vocabulary.

Everything here is explicit numpy and batched.  Batches come in
tail-padded with the <pad> token, and one function, ``_pack``, checks a
source or target batch and packs it into a ``_Packed`` record, which the
encoder's bundle and the training tape each carry: its rows are sorted
longest first and laid out time-major, so that step t owns the
contiguous slots ``offs[t]:offs[t + 1]`` of an (R, D) array, one slot
per real token, the rows still running at t in sorted order.  A step of
a recurrence reads and writes its own slice, and carries each row's
state in a (B, H) buffer whose leading rows are the ones that step
advances.  In training, each recurrence records the hidden state every
step read, packed as its outputs are (the decoder step in ``h_in``,
each encoder direction's ``_scan`` as an (R, H) array), so the
recurrent weights' gradients are one product each.  Every product that
does not feed a recurrence (input projections, attention keys, the
output layer, weight and input gradients) is one matrix product over
the R real slots, and the encoder's embedding lookup is one gather over
them.  Attention alone keeps the padded (B, Tx) layout: keys and summed
states are scattered into zeros once per batch, and the padded
positions are masked.

One decoder-step kernel, ``_decoder_advance``, serves both
teacher-forced training and inference.  Dropout applies between
stacked layers exactly when a random generator is passed, which only
training does; its masks are drawn over the packed slots.  The public
``loss`` and ``backward`` take one pair and run it as a batch of one.
``correct_batch`` runs every phrase of a document through one beam
search: one encoder call, then one decoder step per output position for
every live hypothesis of every unfinished phrase, and ``correct`` is
its one-phrase form.

Inference outputs do not depend on which phrases share a batch: every
forward product with a row per sequence or hypothesis runs through
``_mm``, whose BLAS calls all have ``_ROWS`` rows, and a phrase's
hypotheses attend a view of its own unpadded keys, one product per row.
Training sums a step over its rows, so it passes plain ``np.matmul`` as
the ``mm`` of the shared kernels and keeps its arithmetic.  The encoder
is where the two part: training scans each direction apart and keeps
what the backward pass reads, while inference pairs the directions in
one loop, ``_paired_scan``, which steps the forward direction at t and
the backward one at T - 1 - t with one cell call and keeps only states.

All (probs, labels) style losses are sums over tokens, so gradients of
a batch are the sums of the per-pair gradients.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import InputError, check_int
from .model import CorrectorModel
from .vocab import Vocab

__all__ = ["CorrectionResult", "loss", "backward", "correct", "correct_batch"]

_ATT_MASK = 1e30  # additive pre-softmax penalty for padded positions
_DIRECTIONS = (("fwd", False), ("bwd", True))  # encoder directions: name, reverse
_ROWS = 4  # rows of every BLAS call that ``_mm`` makes


def _mm(a, w):
    """``a @ w`` as one product per block of ``_ROWS`` rows of ``a``, zero-padded."""
    n, k = a.shape
    if n % _ROWS:
        a = np.concatenate([a, np.zeros((-n % _ROWS, k))])
    return (a.reshape(-1, _ROWS, k) @ w).reshape(-1, w.shape[1])[:n]


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
    The gates are computed in place: ``z`` is overwritten, and the cache
    keeps it.  ``c_prev``, which the cache also keeps, is not written.
    """
    hdim = c_prev.shape[1]
    z *= _gate_scale(hdim)[0]
    t = np.tanh(z, out=z)
    s = t + 1.0
    s *= 0.5  # the sigmoid gates; its g block is unused
    i = s[:, :hdim]
    f = s[:, hdim : 2 * hdim]
    g = t[:, 2 * hdim : 3 * hdim]
    o = s[:, 3 * hdim :]
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, t, i, f, g, o, tc)


def _cell_backward(dh, dc_in, cache, dgate):
    """Backward of :func:`_cell`: writes the gradients of the
    pre-activations into ``dgate`` and returns the gradient of the
    previous cell state.  Writes none of its other arguments."""
    c_prev, t, i, f, g, o, tc = cache
    hdim = i.shape[1]
    dc = tc * tc
    np.subtract(1.0, dc, out=dc)
    dc *= dh * o
    dc += dc_in
    np.multiply(dc, g, out=dgate[:, :hdim])
    np.multiply(dc, c_prev, out=dgate[:, hdim : 2 * hdim])
    np.multiply(dc, i, out=dgate[:, 2 * hdim : 3 * hdim])
    np.multiply(dh, tc, out=dgate[:, 3 * hdim :])
    dt = t * t
    np.subtract(1.0, dt, out=dt)
    dgate *= dt
    dgate *= _gate_scale(hdim)[1]
    dc *= f
    return dc


@dataclass(frozen=True)
class _Packed:
    """A checked tail-padded (B, T) token batch, packed time-major: its
    rows sorted longest first, slot ``offs[t] + r`` holds sorted row r at
    position t."""

    ids: np.ndarray         # (B, T) token ids
    mask: np.ndarray        # (B, T) 1.0 at real tokens, 0.0 at padding
    order: np.ndarray       # (B,) batch row of each sorted row, longest first
    counts: np.ndarray      # (T,) sorted rows reaching each position
    offs: np.ndarray        # (T + 1,) first slot of each position
    row: np.ndarray         # (R,) sorted row of each slot
    col: np.ndarray         # (R,) position of each slot


def _pack(vocab: Vocab, ids, what: str) -> _Packed:
    """Check and pack a tail-padded (B, T) token id batch (``what`` names
    it).  It must be 2-D and non-empty, every id must be in the
    vocabulary, every row must hold a non-padding token and the padding
    must trail."""
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
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    col = np.repeat(np.arange(len(counts)), counts)
    return _Packed(ids, mask, order, counts, offs, np.arange(offs[-1]) - offs[col], col)


def _scatter(packed, row, col, shape):
    """Zero array of ``shape`` (B, T, ...) holding ``packed`` at the
    slots (``row``, ``col``)."""
    out = np.zeros(shape + packed.shape[1:])
    out[row, col] = packed
    return out


def _pad_batch(seqs, pad_id: int) -> np.ndarray:
    """(B, T) int64 batch of the token sequences ``seqs``, each padded
    at its tail to the longest with ``pad_id``."""
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def _dropout(a, rate, rng):
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return a * mask, mask


def _scan(xw, pk: _Packed, u, reverse):
    """Run one LSTM direction over the input projections ``xw`` (R, 4H),
    ``x @ W + b`` at every slot of the packing ``pk``, as training does.

    Returns the (R, H) states, the (R, H) hidden states each slot's step
    read (zero at a row's first step, which is its last in reverse), the
    per-step cell caches and the (B, H) final carried state: a row's
    state at its last token (its first, in reverse), in sorted row order.
    """
    hdim = u.shape[0]
    h = np.zeros((pk.counts[0], hdim))
    c = np.zeros((pk.counts[0], hdim))
    states = np.empty((len(xw), hdim))
    h_in = np.empty((len(xw), hdim))
    caches = [None] * len(pk.counts)
    for t in reversed(range(len(pk.counts))) if reverse else range(len(pk.counts)):
        s, n = pk.offs[t], pk.counts[t]
        h_in[s : s + n] = h[:n]
        z = np.matmul(h[:n], u)
        z += xw[s : s + n]
        h[:n], c[:n], caches[t] = _cell(z, c[:n].copy())
        states[s : s + n] = h[:n]
    return states, h_in, caches, h


def _paired_scan(xw, pk: _Packed, u):
    """Run both directions of an inference encoder layer in one loop, over
    their input projections ``xw`` (R, 4H), packed by ``pk``, and their
    recurrent weights ``u``, each a (forward, backward) pair, with the
    4-row products of ``_mm``.

    Step t advances the forward direction at position t and the backward
    direction at position T - 1 - t, on the rows ``[forward | backward]``
    of one carry: each direction's running rows rounded up to blocks of
    ``_ROWS``.  Only running rows take an input.  A finished forward row
    keeps stepping, but its state is never read.  A backward row that
    has not started has a zero state, so its cell state stays exactly
    +0 (``f * +0 + i * tanh(±0)``), and so does its hidden state.
    Returns the (R, 2H) forward and backward states, packed as ``xw``,
    and the (B, 2H) final states in sorted row order: a row's forward
    state at its last token and its backward state at its first.
    """
    counts, offs = pk.counts.tolist(), pk.offs.tolist()
    hdim = u[0].shape[0]
    nf = [-(-n // _ROWS) * _ROWS for n in counts]  # forward rows of each step
    nb = nf[::-1]                                  # backward rows of each step
    states = np.empty((offs[-1], 2 * hdim))
    z = np.empty((2 * nf[0], 4 * hdim))
    h = c = np.zeros((nf[0] + nb[0], hdim))
    for t, (f, b) in enumerate(zip(nf, nb)):
        if t and (f, b) != (nf[t - 1], nb[t - 1]):
            # forward blocks only drop out and backward ones only join, at zero
            pad = np.zeros((b - nb[t - 1], hdim))
            h, c = (np.concatenate([a[:f], a[nf[t - 1] :], pad]) for a in (h, c))
        r = len(counts) - 1 - t  # the backward direction's position
        fwd, bwd = slice(offs[t], offs[t + 1]), slice(offs[r], offs[r + 1])
        zt = z[: f + b]
        np.matmul(h[:f].reshape(-1, _ROWS, hdim), u[0], out=zt[:f].reshape(-1, _ROWS, 4 * hdim))
        np.matmul(h[f:].reshape(-1, _ROWS, hdim), u[1], out=zt[f:].reshape(-1, _ROWS, 4 * hdim))
        zt[: counts[t]] += xw[0][fwd]
        zt[f : f + counts[r]] += xw[1][bwd]
        h, c, _ = _cell(zt, c)
        states[fwd, :hdim] = h[: counts[t]]
        states[bwd, hdim:] = h[f : f + counts[r]]
    lengths = (pk.counts[:, None] > np.arange(counts[0])).sum(axis=0)
    last = pk.offs[lengths - 1] + np.arange(counts[0])
    return states, np.concatenate([states[last, :hdim], states[: counts[0], hdim:]], axis=1)


def _scan_grad(dstates, caches, pk: _Packed, u, reverse, dfinal):
    """Backward of :func:`_scan` down to the (R, 4H) pre-activation
    gradients, given the states' gradients and ``dfinal``, the (B, H)
    gradient of the final carried state, which seeds the carry.

    Only the recurrent product runs per step; the caller turns the
    result into weight, bias and input gradients with one product each.
    """
    dz = np.empty((len(dstates), u.shape[1]))
    dh = dfinal.copy()
    dc = np.zeros_like(dh)
    for t in range(len(pk.counts)) if reverse else reversed(range(len(pk.counts))):
        s, n = pk.offs[t], pk.counts[t]
        dh[:n] += dstates[s : s + n]
        dc[:n] = _cell_backward(dh[:n], dc[:n], caches[t], dz[s : s + n])
        np.matmul(dz[s : s + n], u.T, out=dh[:n])
    return dz


@dataclass
class _EncBundle:
    """Everything the decoder and the backward pass need from the encoder."""

    src: _Packed            # the (B, Tx) source batch
    inputs: list            # per layer: (R, D) input (post-dropout); training only
    drop_masks: list        # per layer: dropout mask on its output, or None
    scans: list             # per layer: {direction: _scan's four results}; training only
    hcat: np.ndarray        # (R, 2H) top layer forward then backward states
    hsum: np.ndarray        # (B, Tx, H), zero at padded positions
    keys: np.ndarray        # (B, Tx, H) attention keys, zero at padded positions
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
    """The forward pass of a batch, its target rows sorted longest first
    and packed time-major."""

    enc: _EncBundle
    tgt: _Packed            # the (B, Ty) target batch
    keys: np.ndarray        # (B, Tx, H) enc.keys, sorted rows
    hsum: np.ndarray        # (B, Tx, H) enc.hsum, sorted rows
    y_tok: np.ndarray       # (R_y,) target tokens
    y_in: np.ndarray        # (R_y,) decoder input tokens
    steps: list             # per step: the cache of its rows
    cat: np.ndarray         # (R_y, 2H) state/context pairs
    htilde: np.ndarray      # (R_y, H)
    probs: np.ndarray       # (R_y, V)


def _encode_batch(model: CorrectorModel, x_ids, rng=None, mm=_mm) -> _EncBundle:
    """Encode a tail-padded source batch with the products ``mm``; with a
    generator ``rng``, dropout applies between the layers.

    Inference (``mm`` is ``_mm``) steps both directions of a layer in one
    :func:`_paired_scan` and keeps nothing for the backward pass; training
    scans them apart and keeps what :func:`_backward_batch` reads.
    """
    p = model.params
    hp = model.hyper
    hdim = hp.hidden_dim
    src = _pack(model.vocab, x_ids, "source")
    rows = src.order[src.row]
    inp = p["embedding"][src.ids[rows, src.col]]
    inputs, drop_masks, scans = [], [], []
    for l in range(hp.enc_layers):
        pre = [f"enc.{l}.{name}" for name, _ in _DIRECTIONS]
        xw = [mm(inp, p[f"{d}.W"]) for d in pre]
        for a, d in zip(xw, pre):
            a += p[f"{d}.b"]
        u = [p[f"{d}.U"] for d in pre]
        if mm is _mm:
            out, final = _paired_scan(xw, src, u)
        else:
            scan = {name: _scan(a, src, w, reverse) for (name, reverse), a, w in zip(_DIRECTIONS, xw, u)}
            out = np.concatenate([scan["fwd"][0], scan["bwd"][0]], axis=1)
            final = np.concatenate([scan["fwd"][3], scan["bwd"][3]], axis=1)
            inputs.append(inp)
            scans.append(scan)
        dm = None
        if rng is not None and l < hp.enc_layers - 1:
            out, dm = _dropout(out, hp.dropout, rng)
        drop_masks.append(dm)
        inp = out
    # the bridge reads each direction's final state
    bridge_in = np.empty((len(src.order), 2 * hdim))
    bridge_in[src.order] = final
    return _EncBundle(
        src=src,
        inputs=inputs,
        drop_masks=drop_masks,
        scans=scans,
        hcat=inp,
        hsum=_scatter(inp[:, :hdim] + inp[:, hdim:], rows, src.col, src.ids.shape),
        keys=_scatter(mm(inp, p["att.score"]), rows, src.col, src.ids.shape),
        bridge_in=bridge_in,
        s0=mm(bridge_in, p["bridge"]),
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


def _decoder_advance(model: CorrectorModel, runs, h, c, tok, rng=None, mm=_mm):
    """Advance the decoder one batched step from the previous tokens
    ``tok`` (B,).

    ``runs`` splits the rows into consecutive runs, each given as its
    row count and the (keys, hsum, mask_x) its rows attend: one per row,
    or (1, L, ...) views that its rows share by broadcasting; training
    passes one run, inference one per phrase.  Attends each run with the
    top layer's state, then advances every layer over all rows with the
    products ``mm`` (with a generator ``rng``, dropout between layers).
    Returns the new states and cache; ``cache.cat`` pairs the new top
    state with the context for :func:`_output_logits`.
    """
    p = model.params
    hp = model.hyper
    ctxs, alphas, start = [], [], 0
    for rows, keys, hsum, mask_x in runs:
        ctx, alpha = _attend_cached(keys, hsum, mask_x, h[-1][start : start + rows])
        ctxs.append(ctx)
        alphas.append(alpha)
        start += rows
    ctx = ctxs[0] if len(ctxs) == 1 else np.concatenate(ctxs)
    xi = np.concatenate([p["embedding"][tok], ctx], axis=1)
    new_h, new_c, inputs, cell_caches, drops = [], [], [], [], []
    for l in range(hp.dec_layers):
        z = mm(xi, p[f"dec.{l}.W"])
        z += mm(h[l], p[f"dec.{l}.U"])
        z += p[f"dec.{l}.b"]
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


def _output_logits(model: CorrectorModel, cat, mm=_mm):
    """Max-shifted logits over the vocabulary for (N, 2H) state/context
    pairs ``cat``, through the ``att.out`` tanh bottleneck and ``gen``
    with the products ``mm``; also returns the bottleneck activations."""
    p = model.params
    htilde = np.tanh(mm(cat, p["att.out"]))
    logits = mm(htilde, p["gen.W"]) + p["gen.b"]
    logits -= logits.max(axis=1, keepdims=True)
    return logits, htilde


def _forward_batch(model, x_ids, y_ids, rng=None):
    """Summed cross-entropy of tail-padded target rows given tail-padded
    source rows, with the tape needed for the backward pass.  With a
    generator ``rng``, dropout applies between stacked layers.

    The decoder runs on the packed target slots, and a row leaves the
    batch after its last target token.  Teacher forcing fixes every
    decoder input in advance, so only the recurrence runs step by step;
    the output layer is one product over all real slots.
    """
    vb = model.vocab
    enc = _encode_batch(model, x_ids, rng, np.matmul)
    tgt = _pack(vb, y_ids, "target")
    if tgt.ids.shape[0] != enc.src.ids.shape[0]:
        raise InputError("target batch must be row-aligned with the source batch")
    order, offs, row, col = tgt.order, tgt.offs, tgt.row, tgt.col
    y_sorted = tgt.ids[order]
    y_tok = y_sorted[row, col]
    # Teacher forcing: the decoder reads <go> then the target shifted right.
    y_in = np.where(col > 0, y_sorted[row, col - 1], vb.go_id)
    keys, hsum, mask_x = enc.keys[order], enc.hsum[order], enc.src.mask[order]
    h = [enc.s0[order] for _ in range(model.hyper.dec_layers)]
    c = [np.zeros_like(s) for s in h]
    steps = []
    for t, n in enumerate(tgt.counts):
        runs = [(n, keys[:n], hsum[:n], mask_x[:n])]
        h, c, step = _decoder_advance(
            model, runs, [a[:n] for a in h], [a[:n] for a in c], y_in[offs[t] : offs[t + 1]],
            rng, np.matmul,
        )
        steps.append(step)
    cat = np.concatenate([st.cat for st in steps])
    logits, htilde = _output_logits(model, cat, np.matmul)
    expl = np.exp(logits)
    norm = expl.sum(axis=1)
    logp_tok = logits[np.arange(len(y_tok)), y_tok] - np.log(norm)
    # summed over the padded (B, Ty) layout, so that the loss has the bits
    # of a sum over the padded batch, whatever the packing
    loss_sum = -float(_scatter(logp_tok, row, col, tgt.ids.shape).sum())
    tape = _Tape(
        enc=enc,
        tgt=tgt,
        keys=keys,
        hsum=hsum,
        y_tok=y_tok,
        y_in=y_in,
        steps=steps,
        cat=cat,
        htilde=htilde,
        probs=expl / norm[:, None],
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
    tgt = tape.tgt

    # output layer over every slot at once
    dlogits = tape.probs.copy()
    dlogits[np.arange(len(tape.y_tok)), tape.y_tok] -= 1.0
    grads["gen.W"] += tape.htilde.T @ dlogits
    grads["gen.b"] += dlogits.sum(axis=0)
    du = (dlogits @ p["gen.W"].T) * (1.0 - tape.htilde * tape.htilde)
    grads["att.out"] += tape.cat.T @ du
    dcat = du @ p["att.out"].T

    # the recurrence, one step's rows at a time; a row's carries stay
    # zero until the step loop, running backwards, reaches its last step
    t_y = len(tgt.counts)
    dz = [np.empty((len(tape.y_tok), 4 * hdim)) for _ in range(n_dec)]
    demb, dctx, de = [None] * t_y, [None] * t_y, [None] * t_y
    dh_carry = [np.zeros((len(tgt.order), hdim)) for _ in range(n_dec)]
    dc_carry = [np.zeros((len(tgt.order), hdim)) for _ in range(n_dec)]
    for t in range(t_y - 1, -1, -1):
        st = steps[t]
        s, n = tgt.offs[t], tgt.counts[t]
        dh = dcat[s : s + n, :hdim]
        for l in range(n_dec - 1, -1, -1):
            dz_t, dh_l = dz[l][s : s + n], dh_carry[l][:n]
            dh_l += dh
            dc_carry[l][:n] = _cell_backward(dh_l, dc_carry[l][:n], st.cell_caches[l], dz_t)
            np.matmul(dz_t, p[f"dec.{l}.U"].T, out=dh_l)
            dx = dz_t @ p[f"dec.{l}.W"].T
            if l > 0:
                dh = dx if st.drop_masks[l - 1] is None else dx * st.drop_masks[l - 1]
        demb[t] = dx[:, :edim]
        dctx[t] = dcat[s : s + n, hdim:] + dx[:, edim:]

        # attention backward: context -> weights -> scores -> query
        alpha = st.alphas[0]  # training attends in one run
        dalpha = (tape.hsum[:n] @ dctx[t][:, :, None])[:, :, 0]
        de[t] = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        # the query is the previous step's top hidden state (s0 at t=0)
        dh_carry[n_dec - 1][:n] += (de[t][:, None, :] @ tape.keys[:n])[:, 0]

    for l in range(n_dec):
        h_in = np.concatenate([st.h_in[l] for st in steps])
        grads[f"dec.{l}.W"] += np.concatenate([st.inputs[l] for st in steps]).T @ dz[l]
        grads[f"dec.{l}.U"] += h_in.T @ dz[l]
        grads[f"dec.{l}.b"] += dz[l].sum(axis=0)
    np.add.at(grads["embedding"], tape.y_in, np.concatenate(demb))

    # the keys' and summed states' gradients sum over steps, as one
    # batched product over the padded (B, Ty, Tx) attention weights; the
    # top layer's h_in, the last one concatenated, holds the queries
    def padded(parts):
        return _scatter(np.concatenate(parts), tgt.row, tgt.col, tgt.ids.shape)

    alpha = padded([st.alphas[0] for st in steps])
    dhsum = np.empty_like(enc.hsum)
    dhsum[tgt.order] = alpha.transpose(0, 2, 1) @ padded(dctx)
    dkeys = np.empty_like(enc.keys)
    dkeys[tgt.order] = padded(de).transpose(0, 2, 1) @ padded([h_in])
    # Every decoder layer starts from s0, so its grad is the sum of the
    # leftover initial-state carries.  Initial cells are constants.
    ds0 = np.empty_like(enc.s0)
    ds0[tgt.order] = sum(dh_carry[1:], dh_carry[0])
    return dhsum, dkeys, ds0


def _backward_batch(model: CorrectorModel, tape: _Tape) -> dict[str, np.ndarray]:
    """Gradients of the summed loss for every parameter tensor.

    Products that do not feed a recurrence (the output layer, the
    weight gradients, the attention's key and value gradients) are one
    product over all real slots; the step loops carry only the
    recurrences.
    """
    p = model.params
    hp = model.hyper
    enc = tape.enc
    hdim = hp.hidden_dim
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    dhsum, dkeys, ds0 = _decoder_backward(model, tape, grads)

    src = enc.src
    grads["bridge"] += enc.bridge_in.T @ ds0
    dbridge_in = (ds0 @ p["bridge"].T)[src.order]
    rows = src.order[src.row]
    dkeys = dkeys[rows, src.col]
    grads["att.score"] += enc.hcat.T @ dkeys
    dhcat = dkeys @ p["att.score"].T
    dhsum = dhsum[rows, src.col]
    dhcat[:, :hdim] += dhsum
    dhcat[:, hdim:] += dhsum

    # the encoder, on its packed slots; the bridge reads the top layer's
    # final carried states, so its gradient seeds their carries
    top = hp.enc_layers - 1
    for l in range(top, -1, -1):
        dinp = None
        for k, (name, reverse) in enumerate(_DIRECTIONS):
            pre = f"enc.{l}.{name}"
            _, h_in, caches, _ = enc.scans[l][name]
            half = slice(k * hdim, (k + 1) * hdim)
            dh = dbridge_in[:, half] if l == top else np.zeros((len(src.order), hdim))
            dz = _scan_grad(dhcat[:, half], caches, src, p[f"{pre}.U"], reverse, dh)
            grads[f"{pre}.W"] += enc.inputs[l].T @ dz
            grads[f"{pre}.U"] += h_in.T @ dz
            grads[f"{pre}.b"] += dz.sum(axis=0)
            dx = dz @ p[f"{pre}.W"].T
            dinp = dx if dinp is None else dinp + dx
        if l > 0:
            if enc.drop_masks[l - 1] is not None:
                dinp = dinp * enc.drop_masks[l - 1]
            dhcat = dinp
        else:
            np.add.at(grads["embedding"], src.ids[rows, src.col], dinp)
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
    :func:`_pack` checks.  Both sequences must be 1-D without
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
    own cap and early stop.  The decoder rows are the live hypotheses of
    the unfinished sequences, in sequence order; each sequence's rows are
    one attention run over views of its own unpadded keys.
    """
    vb = model.vocab
    enc = _encode_batch(model, _pad_batch(seqs, vb.pad_id))
    # each sequence's attention inputs, as unpadded (1, L, H) views that
    # all its hypotheses' rows share by broadcasting
    keys, hsum, mask_x = enc.keys[:, None], enc.hsum[:, None], enc.src.mask[:, None]
    att = [(keys[q, :, :n], hsum[q, :, :n], mask_x[q, :, :n]) for q, n in enumerate(map(len, seqs))]
    caps = [4 * len(ids) for ids in seqs]
    live: list[list[tuple[float, tuple[int, ...]]]] = [[(0.0, ())] for _ in seqs]
    closed: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in seqs]
    best = [-np.inf for _ in seqs]  # each sequence's best closed score
    # banned as first-class outputs are <go> and <pad>, which carry no text
    go, end, banned = vb.go_id, vb.end_id, (vb.go_id, vb.pad_id)
    width = beam_width + len(banned) + 1
    h, c = _start_state(model, enc)
    active = sel = list(range(len(seqs)))
    t = 0
    while active:
        # one run of rows per sequence, and the state row each continues
        runs = [(len(live[q]), *att[q]) for q in active]
        prev = [toks[-1] if toks else go for q in active for _, toks in live[q]]
        h, c = [a[sel] for a in h], [a[sel] for a in c]
        logp, h, c = _infer_logprobs(model, runs, h, c, np.array(prev))
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
                        done = score + logp[row][cand]
                        closed[q].append((done, toks))
                        best[q] = max(best[q], done)
                    else:
                        expanded.append((score + logp[row][cand], toks + (cand,), row))
                row += 1
            if not expanded:
                continue
            expanded.sort(key=lambda e: (-e[0], e[1]))
            kept = expanded[:beam_width]
            live[q] = [(score, toks) for score, toks, _ in kept]
            if closed[q] and live[q][0][0] <= best[q]:
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
    check_int(beam_width, "beam width", 1)
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
