"""The packed training passes against the padded (B, T) passes they
replaced, and the LSTM cell kernels against frozen copies of themselves.

``_cell`` and ``_cell_backward`` compute in place; ``cell_reference``
and ``cell_backward_reference`` below are the kernels as they were
before, allocating every intermediate, and must give the same bits.

``_forward_batch`` and ``_backward_batch`` run every product on the real
token slots of a batch, packed time-major.  The reference below is the
earlier implementation: every product runs over all (B, T) slots of the
sorted, padded batch, and the scans carry states past a row's end.  Its
scans and decoder backward run the frozen cells; it shares only the
batch check, the decoder-step kernel (and through it the forward cell,
which the property below checks) and the dropout helper with the packed
code.

Dropout masks are drawn over packed slots now, so the reference replays
the packed pass's masks, in the padded layout, through a stand-in
generator.  Training runs plain ``np.matmul`` products (only inference
runs them through the network's ``_mm``), and both passes here do too.
At the default ``Hyper`` the loss and the encoder's keys, summed states
and bridge output keep their bits; elsewhere a plain 2-D product may
change its last bits with its row count, which the packed and padded
layouts do not share (a hidden-16 model over a 9-token vocabulary, for
one), so there they agree to 1e-12 relative.
Gradients sum in a different order and agree to 1e-12 relative.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doctext.corrector.model import Hyper, init_model
from doctext.corrector.network import (
    _backward_batch,
    _cell,
    _cell_backward,
    _decoder_advance,
    _dropout,
    _encode_batch,
    _forward_batch,
    _gate_scale,
    _pack,
    _pad_batch,
    _scan,
)
from doctext.corrector.vocab import Vocab


# ---------------------------------------------------------------------------
# frozen cells


def cell_reference(z, c_prev):
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


def cell_backward_reference(dh, dc_in, cache):
    c_prev, t, i, f, g, o, tc = cache
    hdim = i.shape[1]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dgate = np.empty(t.shape)
    np.multiply(dc, g, out=dgate[:, :hdim])
    np.multiply(dc, c_prev, out=dgate[:, hdim : 2 * hdim])
    np.multiply(dc, i, out=dgate[:, 2 * hdim : 3 * hdim])
    np.multiply(dh, tc, out=dgate[:, 3 * hdim :])
    return dgate * (1.0 - t * t) * _gate_scale(hdim)[1], dc * f


# ---------------------------------------------------------------------------
# padded reference


def _mm(a, w):
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(a.shape[:-1] + (w.shape[1],))


def _gram(a, b):
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _stack_steps(parts, bsz):
    out = np.zeros((bsz, len(parts)) + parts[0].shape[1:])
    for t, a in enumerate(parts):
        out[: len(a), t] = a
    return out


def _scan_forward(xw, counts, u, reverse):
    bsz, t_len, _ = xw.shape
    hdim = u.shape[0]
    h = np.zeros((bsz, hdim))
    c = np.zeros((bsz, hdim))
    states = np.empty((bsz, t_len, hdim))
    caches = [None] * t_len
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        n = counts[t]
        h[:n], c[:n], caches[t] = cell_reference(xw[:n, t] + h[:n] @ u, c[:n].copy())
        states[:, t] = h
    return states, caches


def _scan_backward(dstates, caches, counts, u, reverse):
    bsz, t_len, hdim = dstates.shape
    dz = np.zeros((bsz, t_len, 4 * hdim))
    dh = np.zeros((bsz, hdim))
    dc = np.zeros((bsz, hdim))
    for t in range(t_len) if reverse else range(t_len - 1, -1, -1):
        n = counts[t]
        dh = dh + dstates[:, t]
        dz[:n, t], dc[:n] = cell_backward_reference(dh[:n], dc[:n], caches[t])
        dh[:n] = dz[:n, t] @ u.T
    return dz


def padded_encode(model, x_ids, rng=None):
    p = model.params
    hp = model.hyper
    src = _pack(model.vocab, x_ids, "source")
    x_ids, mask_x, order, counts = src.ids, src.mask, src.order, src.counts
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
    bridge_in = np.concatenate([hcat[:, -1, :hdim], hcat[:, 0, hdim:]], axis=1)
    return SimpleNamespace(
        x_ids=x_ids, mask_x=mask_x, order=order, counts=counts, inputs=inputs,
        drop_masks=drop_masks, scans=scans, hcat=hcat,
        hsum=hcat[:, :, :hdim] + hcat[:, :, hdim:], keys=_mm(hcat, p["att.score"]),
        bridge_in=bridge_in, s0=bridge_in @ p["bridge"],
    )


def padded_forward(model, x_ids, y_ids, rng=None):
    vb = model.vocab
    p = model.params
    enc = padded_encode(model, x_ids, rng)
    tgt = _pack(vb, y_ids, "target")
    y_ids, mask_y, order, counts = tgt.ids, tgt.mask, tgt.order, tgt.counts
    bsz, t_y = y_ids.shape
    y_ids, mask_y = y_ids[order], mask_y[order]
    keys, hsum, mask_x = enc.keys[order], enc.hsum[order], enc.mask_x[order]
    y_in = np.concatenate([np.full((bsz, 1), vb.go_id, dtype=np.int64), y_ids[:, :-1]], axis=1)
    h = [enc.s0[order] for _ in range(model.hyper.dec_layers)]
    c = [np.zeros_like(s) for s in h]
    steps = []
    for t in range(t_y):
        n = counts[t]
        h, c, step = _decoder_advance(
            model, [(n, keys[:n], hsum[:n], mask_x[:n])], [a[:n] for a in h],
            [a[:n] for a in c], y_in[:n, t], rng,
        )
        steps.append(step)
    cat = _stack_steps([s.cat for s in steps], bsz)
    htilde = np.tanh(_mm(cat, p["att.out"]))
    logits = _mm(htilde, p["gen.W"]) + p["gen.b"]
    logits -= logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits)
    norm = expl.sum(axis=2)
    logp_tok = np.take_along_axis(logits, y_ids[:, :, None], axis=2)[:, :, 0] - np.log(norm)
    loss_sum = -float((logp_tok * mask_y).sum())
    tape = SimpleNamespace(
        enc=enc, order=order, counts=counts, keys=keys, hsum=hsum, y_ids=y_ids, y_in=y_in,
        mask_y=mask_y, steps=steps, cat=cat, htilde=htilde, probs=expl / norm[:, :, None],
    )
    return loss_sum, tape


def _padded_decoder_backward(model, tape, grads):
    p = model.params
    hp = model.hyper
    enc = tape.enc
    hdim, edim, n_dec = hp.hidden_dim, hp.emb_dim, hp.dec_layers
    steps = tape.steps
    alphas = [s.alphas[0] for s in steps]
    bsz, t_y = tape.y_ids.shape

    dlogits = tape.probs.copy()
    rows, cols = np.indices((bsz, t_y))
    dlogits[rows, cols, tape.y_ids] -= 1.0
    dlogits *= tape.mask_y[:, :, None]
    grads["gen.W"] += _gram(tape.htilde, dlogits)
    grads["gen.b"] += dlogits.sum(axis=(0, 1))
    du = _mm(dlogits, p["gen.W"].T) * (1.0 - tape.htilde * tape.htilde)
    grads["att.out"] += _gram(tape.cat, du)
    dcat = _mm(du, p["att.out"].T)

    dz = [np.zeros((bsz, t_y, 4 * hdim)) for _ in range(n_dec)]
    demb = np.zeros((bsz, t_y, edim))
    dctx = np.zeros((bsz, t_y, hdim))
    de = np.zeros((bsz, t_y, tape.keys.shape[1]))
    dh_carry = [np.zeros((bsz, hdim)) for _ in range(n_dec)]
    dc_carry = [np.zeros((bsz, hdim)) for _ in range(n_dec)]
    for t in range(t_y - 1, -1, -1):
        s = steps[t]
        n = tape.counts[t]
        dh = dcat[:n, t, :hdim]
        for l in range(n_dec - 1, -1, -1):
            dz[l][:n, t], dc_carry[l][:n] = cell_backward_reference(
                dh + dh_carry[l][:n], dc_carry[l][:n], s.cell_caches[l]
            )
            dh_carry[l][:n] = dz[l][:n, t] @ p[f"dec.{l}.U"].T
            dx = dz[l][:n, t] @ p[f"dec.{l}.W"].T
            if l > 0:
                dh = dx if s.drop_masks[l - 1] is None else dx * s.drop_masks[l - 1]
        demb[:n, t] = dx[:, :edim]
        dctx[:n, t] = dcat[:n, t, hdim:] + dx[:, edim:]
        dalpha = (tape.hsum[:n] @ dctx[:n, t, :, None])[:, :, 0]
        de[:n, t] = alphas[t] * (dalpha - (alphas[t] * dalpha).sum(axis=1, keepdims=True))
        dh_carry[n_dec - 1][:n] += (de[:n, t, None, :] @ tape.keys[:n])[:, 0]

    for l in range(n_dec):
        h_in = _stack_steps([s.h_in[l] for s in steps], bsz)
        grads[f"dec.{l}.W"] += _gram(_stack_steps([s.inputs[l] for s in steps], bsz), dz[l])
        grads[f"dec.{l}.U"] += _gram(h_in, dz[l])
        grads[f"dec.{l}.b"] += dz[l].sum(axis=(0, 1))
    np.add.at(grads["embedding"], tape.y_in, demb)
    alpha = _stack_steps(alphas, bsz)

    dhsum = np.empty_like(enc.hsum)
    dhsum[tape.order] = alpha.transpose(0, 2, 1) @ dctx
    dkeys = np.empty_like(enc.keys)
    dkeys[tape.order] = de.transpose(0, 2, 1) @ h_in
    ds0 = np.empty_like(enc.s0)
    ds0[tape.order] = sum(dh_carry[1:], dh_carry[0])
    return dhsum, dkeys, ds0


def _padded_direction_backward(p, name, scan, inp, d_states, counts, reverse, grads):
    states, caches = scan
    dz = _scan_backward(d_states, caches, counts, p[f"{name}.U"], reverse)
    h_prev = np.zeros_like(states)
    if reverse:
        h_prev[:, :-1] = states[:, 1:]
    else:
        h_prev[:, 1:] = states[:, :-1]
    grads[f"{name}.W"] += _gram(inp, dz)
    grads[f"{name}.U"] += _gram(h_prev, dz)
    grads[f"{name}.b"] += dz.sum(axis=(0, 1))
    return _mm(dz, p[f"{name}.W"].T)


def padded_backward(model, tape):
    p = model.params
    hp = model.hyper
    enc = tape.enc
    hdim = hp.hidden_dim
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    dhsum, dkeys, ds0 = _padded_decoder_backward(model, tape, grads)

    grads["bridge"] += enc.bridge_in.T @ ds0
    dbridge_in = ds0 @ p["bridge"].T
    grads["att.score"] += _gram(enc.hcat, dkeys)
    dhcat = _mm(dkeys, p["att.score"].T)
    d_fwd = dhsum + dhcat[:, :, :hdim]
    d_bwd = dhsum + dhcat[:, :, hdim:]
    d_fwd[:, -1] += dbridge_in[:, :hdim]
    d_bwd[:, 0] += dbridge_in[:, hdim:]

    d_fwd, d_bwd = d_fwd[enc.order], d_bwd[enc.order]
    for l in range(hp.enc_layers - 1, -1, -1):
        scan = enc.scans[l]
        dinp = _padded_direction_backward(
            p, f"enc.{l}.fwd", scan["fwd"], enc.inputs[l], d_fwd, enc.counts, False, grads
        )
        dinp += _padded_direction_backward(
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


class ReplayRng:
    """Stands in for a generator: each ``random`` call returns the next
    of the given uniform draws, which must have the requested shape."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw


def replayed_masks(tape):
    """Uniform draws that make the reference's dropout masks equal the
    packed pass's: 1 where a unit was kept and 0 where it was dropped,
    in the order the reference draws them (encoder layers, then each
    decoder step's layers).  The encoder's are laid out in the padded
    sorted rows; its padded positions feed nothing and are kept."""
    enc = tape.enc
    draws = []
    for dm in enc.drop_masks:
        if dm is not None:
            u = np.ones(enc.src.mask.shape + dm.shape[1:])
            u[enc.src.row, enc.src.col] = dm > 0
            draws.append(u)
    for step in tape.steps:
        draws.extend((dm > 0).astype(np.float64) for dm in step.drop_masks if dm is not None)
    return ReplayRng(draws)


# ---------------------------------------------------------------------------
# the property


DEFAULT_VOCAB = Vocab.from_chars("abcdefghijklmnopqrstuvwxyz0123456789")
NINE_TOKENS = Vocab.from_chars("abcd")
CONFIGS = [
    (DEFAULT_VOCAB, Hyper()),
    (DEFAULT_VOCAB, Hyper(dropout=0.3)),
    (NINE_TOKENS, Hyper(emb_dim=8, hidden_dim=16)),
    (NINE_TOKENS, Hyper(emb_dim=8, hidden_dim=16, enc_layers=3, dec_layers=3, dropout=0.5)),
    (NINE_TOKENS, Hyper(emb_dim=3, hidden_dim=4, enc_layers=1, dec_layers=1)),
]


@st.composite
def batches(draw):
    vocab, hyper = draw(st.sampled_from(CONFIGS))
    content = st.integers(vocab.sep_id, vocab.size - 1)  # separator, <unk> and characters
    n_rows = draw(st.integers(1, 6))
    xs = [draw(st.lists(content, min_size=1, max_size=12)) for _ in range(n_rows)]
    ys = [draw(st.lists(content, max_size=12)) + [vocab.end_id] for _ in range(n_rows)]
    return vocab, hyper, xs, ys


def assert_close(got, want, what):
    scale = np.abs(want).max() if np.size(want) else 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=what)


class TestPackedAgainstPadded:
    @settings(max_examples=60, deadline=None)
    @given(batch=batches(), seed=st.integers(0, 3), dropout_on=st.booleans())
    def test_loss_and_gradients(self, batch, seed, dropout_on):
        vocab, hyper, xs, ys = batch
        model = init_model(vocab, hyper, seed=seed)
        x, y = _pad_batch(xs, vocab.pad_id), _pad_batch(ys, vocab.pad_id)
        rng = np.random.default_rng(seed) if dropout_on else None
        value, tape = _forward_batch(model, x, y, rng=rng)
        grads = _backward_batch(model, tape)
        ref_value, ref_tape = padded_forward(model, x, y, rng=replayed_masks(tape) if rng else None)
        ref_grads = padded_backward(model, ref_tape)

        enc, ref = _encode_batch(model, x, mm=np.matmul), padded_encode(model, x)
        real = enc.src.mask > 0
        assert np.all(enc.keys[~real] == 0.0) and np.all(enc.hsum[~real] == 0.0)
        pairs = [
            (value, ref_value, "loss"),
            (enc.keys[real], ref.keys[real], "keys"),
            (enc.hsum[real], ref.hsum[real], "hsum"),
            (enc.s0, ref.s0, "s0"),
        ]
        for got, want, what in pairs:
            if hyper == Hyper():
                assert np.array_equal(got, want), what
            else:
                assert_close(got, want, what)
        assert set(grads) == set(ref_grads)
        for name, g in grads.items():
            assert_close(g, ref_grads[name], name)


# ---------------------------------------------------------------------------
# the cells against their frozen copies


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@st.composite
def cell_inputs(draw):
    """Pre-activations from exact zeros to saturating magnitudes, and
    incoming gradients from ordinary to subnormal-producing ones."""
    rows = draw(st.integers(1, 40))
    hdim = draw(st.one_of(st.just(33), st.integers(1, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-1.0, 1.0, (rows, 4 * hdim)) * draw(st.sampled_from([0.0, 1e-3, 1.0, 4.0, 20.0, 50.0]))
    # exact zeros and saturated units next to the drawn ones
    z[rng.random(z.shape) < 0.1] = 0.0
    z[rng.random(z.shape) < 0.1] = 50.0 * rng.choice([-1.0, 1.0])
    c_prev = rng.uniform(-3.0, 3.0, (rows, hdim))
    grad_scale = draw(st.sampled_from([1.0, 1e-3, 1e-300, 1e-307]))
    dh = rng.standard_normal((rows, hdim)) * grad_scale
    dc_in = rng.standard_normal((rows, hdim)) * grad_scale
    return z, c_prev, dh, dc_in


class TestCellsAgainstFrozen:
    """``_cell`` overwrites only its pre-activations and ``_cell_backward``
    only the gradient buffer it fills; both give the frozen cells' bits."""

    @settings(max_examples=300, deadline=None)
    @given(cell_inputs())
    @example((np.zeros((1, 4)), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))))
    def test_cells_equal_frozen_copies(self, inputs):
        z, c_prev, dh, dc_in = inputs
        h_ref, c_ref, cache_ref = cell_reference(z, c_prev)
        z_in, c_prev_in = z.copy(), c_prev.copy()
        h, c, cache = _cell(z_in, c_prev_in)
        assert bits(h) == bits(h_ref) and bits(c) == bits(c_ref)
        assert len(cache) == len(cache_ref)
        for k, (got, want) in enumerate(zip(cache, cache_ref)):
            assert bits(got) == bits(want), f"cache entry {k}"
        assert bits(c_prev_in) == bits(c_prev)
        # the only array it writes is z, which holds the gate tanh
        assert cache[1] is z_in

        dgate_ref, dc_prev_ref = cell_backward_reference(dh, dc_in, cache_ref)
        given_in = [dh, dc_in, *cache]
        before = [a.copy() for a in given_in]
        dgate = np.full(z.shape, np.nan)
        dc_prev = _cell_backward(dh, dc_in, cache, dgate)
        assert bits(dgate) == bits(dgate_ref) and bits(dc_prev) == bits(dc_prev_ref)
        for k, (now, was) in enumerate(zip(given_in, before)):
            assert bits(now) == bits(was), f"input {k} written"


# ---------------------------------------------------------------------------
# the scan's incoming states


class TestScanIncomingStates:
    """``_scan`` records the hidden state each slot's step read, which the
    encoder's recurrent-weight gradient multiplies: the same row's state
    one position earlier (later, in reverse), or zeros at a row's first
    step."""

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
        hdim=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        reverse=st.booleans(),
    )
    def test_each_slot_reads_its_rows_previous_state(self, lengths, hdim, seed, reverse):
        rng = np.random.default_rng(seed)
        pk = _pack(NINE_TOKENS, _pad_batch([[NINE_TOKENS.sep_id] * n for n in lengths], NINE_TOKENS.pad_id), "x")
        xw = rng.standard_normal((pk.offs[-1], 4 * hdim))
        u = rng.standard_normal((hdim, 4 * hdim))
        states, h_in, _, final = _scan(xw, pk, u, reverse)
        assert h_in.shape == states.shape == (sum(lengths), hdim)
        row_len = np.asarray(lengths)[pk.order]
        for slot, (r, t) in enumerate(zip(pk.row, pk.col)):
            prev = t + 1 if reverse else t - 1
            if 0 <= prev < row_len[r]:
                assert bits(h_in[slot]) == bits(states[pk.offs[prev] + r]), (slot, r, t)
            else:
                assert np.all(h_in[slot] == 0.0), (slot, r, t)
            # the final carried state is the row's state at its last step
            if t == (0 if reverse else row_len[r] - 1):
                assert bits(final[r]) == bits(states[slot])
