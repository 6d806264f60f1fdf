"""Reproduce the criterion-7 corrector that the pages-correct workload loads.

The recipe is the one in ``tests/test_acceptance.py``
(``test_criterion_7_end_to_end_improvement``): 600 documents from the
criterion-7 ``SynthSpec`` are beam-decoded into a (noisy, clean) group
corpus, and a default-size corrector is SGD-trained on it for 2,500
steps.  Training takes about ten minutes on one core, which is too long
for the set-up of every benchmark run, so the checkpoint is committed
next to this script together with its SHA-256 in ``corrector.sha256``.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_corrector.py
"""

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from doctext.corrector import Hyper, TrainConfig, Vocab, init_model, save_model, train  # noqa: E402
from doctext.ctc import beam_decode  # noqa: E402
from doctext.synth import DEFAULT_WORDS, gen_document, gen_frames, word_alphabet  # noqa: E402

from common import CORRECTOR_PATH, CORRECTOR_SHA_PATH, criterion7_spec  # noqa: E402


def build_corpus(n_docs: int = 600) -> list[tuple[str, str]]:
    alpha = word_alphabet(DEFAULT_WORDS)
    spec = criterion7_spec()
    corpus = []
    for d in range(n_docs):
        rng = np.random.default_rng([7, d])
        doc = gen_document(spec, rng)
        _, frames = gen_frames(doc, spec, alphabet=alpha, rng=rng)
        by_id = {b.id: b for b in doc.boxes}
        decoded = {i: alpha.decode(beam_decode(frames[i], 8)) for i in frames}
        for g in sorted(doc.order):
            ids = doc.order[g]
            clean = " ".join(by_id[i].word for i in ids)
            noisy = " ".join(w for i in ids if (w := decoded[i]))
            if noisy:
                corpus.append((noisy, clean))
    return corpus


def main() -> int:
    t0 = time.perf_counter()
    corpus = build_corpus()
    vocab = Vocab.from_chars(sorted({c for pair in corpus for s in pair for c in s if c != " "}))
    model = init_model(vocab, Hyper(), seed=0)
    cfg = TrainConfig(
        lr0=1.0, decay_start=1500, halve_every=400, batch_size=32,
        clip_norm=5.0, max_steps=2500, seed=0,
    )
    model, curve = train(model, corpus, cfg)
    save_model(model, CORRECTOR_PATH)
    digest = hashlib.sha256(CORRECTOR_PATH.read_bytes()).hexdigest()
    CORRECTOR_SHA_PATH.write_text(f"{digest}  {CORRECTOR_PATH.name}\n", encoding="utf-8")
    print(
        f"{len(corpus)} pairs, {cfg.max_steps} steps, loss {curve[0]:.4f} -> {curve[-1]:.4f}, "
        f"{time.perf_counter() - t0:.0f} s; wrote {CORRECTOR_PATH.name} sha256 {digest}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
