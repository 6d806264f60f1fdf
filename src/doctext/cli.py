"""Command-line interface.

Subcommands cover each pipeline stage plus an end-to-end run:

* ``synth-gen``        generate documents, frames, and corpora
* ``rectify``          crop and rectify boxes out of a page image
* ``group``            label boxes with group ids
* ``arrange``          full layout: groups plus reading order
* ``decode``           frames to words
* ``train-corrector``  fit the seq2seq corrector on a corpus
* ``correct``          run the corrector over one phrase
* ``run``              whole pipeline over one document
* ``eval``             word accuracy of predictions against truth

Exit codes: 0 success, 2 bad input or usage, 3 numeric divergence
during training.  ``--params`` accepts a JSON or TOML file whose keys
override tool defaults (layout thresholds, beam widths, network sizes,
training schedule, generator knobs).
"""

import argparse
import json
import sys
import tomllib
from pathlib import Path

import numpy as np

from .corrector.model import Hyper, init_model, load_model, save_model
from .corrector.network import correct as correct_phrase
from .corrector.training import TrainConfig, train
from .corrector.vocab import Vocab
from .ctc import greedy_decode
from .errors import DivergenceError, DoctextError, FormatError, InputError
from .formats import (
    BoxRecord,
    read_boxes,
    read_corpus,
    read_frames,
    read_jsonl,
    truth_from_boxes,
    write_boxes,
    write_corpus,
    write_frames,
    write_json_file,
    write_jsonl,
)
from .geometry import crop_region, read_pgm, rectify, write_pgm
from .layout import LayoutParams, arrange_document, group, render_group_overlay
from .pipeline import (
    PipelineParams,
    decode_words,
    evaluate,
    format_percent,
    run as run_pipeline,
    save_report,
)
from .synth import SynthSpec, gen_corpus, gen_document, gen_frames, render_page

__all__ = ["main"]


# ----------------------------------------------------------------- params


def load_params(path) -> dict:
    """Load a flat parameter dict from a JSON or TOML file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read params file {path}: {exc}") from exc
    if p.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    elif p.suffix.lower() == ".toml":
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise FormatError(f"{path} is not valid TOML: {exc}") from exc
    else:
        raise InputError(f"params file {path} must end in .json or .toml")
    if not isinstance(payload, dict):
        raise FormatError(f"params file {path} must hold an object")
    flat: dict = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(value)
        else:
            flat[key] = value
    return flat


def _ints(value) -> tuple[int, ...]:
    return tuple(int(v) for v in value)


def _strs(value) -> tuple[str, ...]:
    return tuple(str(v) for v in value)


# The keys each reader consumes, with the conversion it applies.  A
# subcommand accepts exactly the keys of the readers it calls.
_LAYOUT_KEYS = {"kappa_h": float, "kappa_v": float, "line_lambda": float}
_PIPELINE_KEYS = {"beam_width": int, "correct_beam": int, "rect_height": int}
_HYPER_KEYS = {
    "emb_dim": int, "hidden_dim": int, "enc_layers": int, "dec_layers": int, "dropout": float,
}
_TRAIN_KEYS = {
    "decay_start": int, "halve_every": int, "batch_size": int, "max_steps": int,
    "lr0": float, "clip_norm": float,
}
_SYNTH_KEYS = {
    "page_width": int, "page_height": int,
    "blocks": _ints, "lines_per_block": _ints, "words_per_line": _ints,
    "box_height": float, "jitter": float, "temperature": float,
    "p_sub": float, "p_del": float, "p_ins": float,
    "words": _strs,
}


def _params_of(args, *readers: dict) -> dict:
    """The ``--params`` file of ``args`` (empty without one); a key that
    none of ``readers`` consumes is an error."""
    if not getattr(args, "params", None):
        return {}
    params = load_params(args.params)
    unknown = sorted(set(params).difference(*readers))
    if unknown:
        raise InputError(
            f"{args.params}: unknown parameter(s) for {args.command}: {', '.join(unknown)}"
        )
    return params


def _pick(d: dict, reader: dict) -> dict:
    """Convert the keys of ``d`` that ``reader`` consumes."""
    out = {}
    for key, convert in reader.items():
        if key in d:
            try:
                out[key] = convert(d[key])
            except (TypeError, ValueError) as exc:
                raise InputError(f"parameter {key}: {exc}") from exc
    return out


def _layout_params(d: dict) -> LayoutParams:
    return LayoutParams(**_pick(d, _LAYOUT_KEYS))


def _pipeline_params(d: dict) -> PipelineParams:
    return PipelineParams(layout=_layout_params(d), **_pick(d, _PIPELINE_KEYS))


def _hyper(d: dict) -> Hyper:
    return Hyper(**_pick(d, _HYPER_KEYS))


def _train_config(d: dict, args) -> TrainConfig:
    kwargs = _pick(d, _TRAIN_KEYS)
    if getattr(args, "steps", None) is not None:
        kwargs["max_steps"] = args.steps
    kwargs["seed"] = args.seed
    return TrainConfig(**kwargs)


def _synth_spec(d: dict, args) -> SynthSpec:
    kwargs = {"seed": args.seed, **_pick(d, _SYNTH_KEYS)}
    for k in ("jitter", "temperature", "p_sub", "p_del", "p_ins"):
        v = getattr(args, k, None)
        if v is not None:
            kwargs[k] = v
    return SynthSpec(**kwargs)


# ------------------------------------------------------------- subcommands


def _cmd_synth_gen(args) -> int:
    spec = _synth_spec(_params_of(args, _SYNTH_KEYS), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.docs):
        rng = np.random.default_rng([spec.seed, i])
        layout = gen_document(spec, rng)
        alphabet, frames = gen_frames(layout, spec, rng=rng)
        records = [BoxRecord(box=b) for b in layout.boxes]
        write_boxes(out / f"doc_{i:04d}.boxes.jsonl", records)
        write_frames(out / f"doc_{i:04d}.frames.jsonl", alphabet, frames)
        if args.render:
            write_pgm(render_page(layout, spec), out / f"doc_{i:04d}.page.pgm")
    if args.corpus:
        rng = np.random.default_rng([spec.seed, args.docs])
        write_corpus(out / "corpus.jsonl", gen_corpus(spec, args.corpus, rng))
    print(f"wrote {args.docs} documents to {out}")
    return 0


def _cmd_rectify(args) -> int:
    image = read_pgm(args.image)
    records = read_boxes(args.boxes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for rec in records:
        b = rec.box
        rect = (b.left, b.top, b.right, b.bottom)
        crop = rectify(image, *crop_region(rec.quad, rect, args.height))
        write_pgm(crop, out / f"box_{b.id:04d}.pgm")
    print(f"rectified {len(records)} boxes into {out}")
    return 0


def _cmd_group(args) -> int:
    records = read_boxes(args.boxes)
    labels = group([r.box for r in records], _layout_params(_params_of(args, _LAYOUT_KEYS)))
    write_json_file(args.out, {"labels": {str(i): lab for i, lab in sorted(labels.items())}})
    print(f"grouped {len(labels)} boxes into {len(set(labels.values()))} groups")
    return 0


def _cmd_arrange(args) -> int:
    records = read_boxes(args.boxes)
    boxes = [r.box for r in records]
    layout = arrange_document(boxes, _layout_params(_params_of(args, _LAYOUT_KEYS)))
    write_json_file(args.out, layout.to_dict())
    if args.dump_overlay:
        width = args.page_width or int(np.ceil(max(b.right for b in boxes))) + 4
        height = args.page_height or int(np.ceil(max(b.bottom for b in boxes))) + 4
        write_pgm(render_group_overlay(boxes, layout.labels, width, height), args.dump_overlay)
    print(f"arranged {len(boxes)} boxes into {len(layout.order)} groups")
    return 0


def _cmd_decode(args) -> int:
    alphabet, frames = read_frames(args.frames)
    if args.greedy:
        words = {bid: alphabet.decode(greedy_decode(mat)) for bid, mat in frames.items()}
    else:
        words = decode_words(alphabet, frames, args.beam)
    write_jsonl(args.out, [{"box_id": i, "word": words[i]} for i in sorted(words)])
    print(f"decoded {len(words)} boxes")
    return 0


def _cmd_train_corrector(args) -> int:
    params = _params_of(args, _HYPER_KEYS, _TRAIN_KEYS)
    pairs = read_corpus(args.corpus)
    chars = sorted({c for pair in pairs for text in pair for c in text if c != " "})
    vocab = Vocab.from_chars(chars)
    model = init_model(vocab, _hyper(params), seed=args.seed)
    cfg = _train_config(params, args)
    model, curve = train(model, pairs, cfg)
    save_model(model, args.out)
    if args.curve:
        write_json_file(args.curve, curve)
    first = curve[0] if curve else float("nan")
    last = curve[-1] if curve else float("nan")
    print(f"trained {cfg.max_steps} steps on {len(pairs)} pairs; "
          f"loss {first:.4f} -> {last:.4f}; saved {args.out}")
    return 0


def _cmd_correct(args) -> int:
    model = load_model(args.model)
    result = correct_phrase(model, args.text, beam_width=args.beam)
    print(result.text)
    if result.hit_cap:
        print("warning: output hit the length cap", file=sys.stderr)
    if result.degraded:
        print("warning: input characters unknown to the corrector", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    records = read_boxes(args.boxes)
    alphabet, frames = read_frames(args.frames)
    model = load_model(args.model) if args.model else None
    image = read_pgm(args.image) if args.image else None
    result = run_pipeline(
        records,
        alphabet,
        frames,
        model=model,
        params=_pipeline_params(_params_of(args, _LAYOUT_KEYS, _PIPELINE_KEYS)),
        image=image,
    )
    save_report(result.report, args.out)
    if args.crops_dir and result.crops:
        crops_dir = Path(args.crops_dir)
        crops_dir.mkdir(parents=True, exist_ok=True)
        for bid, crop in sorted(result.crops.items()):
            write_pgm(crop, crops_dir / f"box_{bid:04d}.pgm")
    print(result.report.summary())
    return 0


def _cmd_eval(args) -> int:
    pred_rows = read_jsonl(args.pred)
    try:
        pred = {int(r["box_id"]): str(r["word"]) for r in pred_rows}
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{args.pred}: prediction rows need box_id and word") from exc
    truth_path = Path(args.truth)
    rows = read_jsonl(truth_path)
    if rows and isinstance(rows[0], dict) and ("rect" in rows[0] or "quad" in rows[0]):
        truth = truth_from_boxes(read_boxes(truth_path))
    else:
        try:
            truth = {int(r["box_id"]): str(r["word"]) for r in rows}
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{args.truth}: truth rows need box_id and word") from exc
    accuracy = evaluate(pred, truth)
    correct_n = round(accuracy * len(truth))
    print(f"accuracy: {format_percent(accuracy)} ({correct_n}/{len(truth)})")
    if args.out:
        write_json_file(
            args.out,
            {"accuracy": accuracy, "correct": correct_n, "total": len(truth)},
        )
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub, params=True, seed=False):
    if params:
        sub.add_argument("--params", help="JSON or TOML file of parameter overrides")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doctext",
        description="rectify, group, order, decode, and spell-correct document text",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth-gen", help="generate synthetic documents and corpora")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--docs", type=int, default=3, help="number of documents (default 3)")
    p.add_argument("--corpus", type=int, default=0, help="also write a corpus of N pairs")
    p.add_argument("--render", action="store_true", help="write page PGMs")
    p.add_argument("--jitter", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--p-sub", dest="p_sub", type=float, default=None)
    p.add_argument("--p-del", dest="p_del", type=float, default=None)
    p.add_argument("--p-ins", dest="p_ins", type=float, default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_synth_gen)

    p = subs.add_parser("rectify", help="rectify boxes out of a page image")
    p.add_argument("--image", required=True, help="page PGM")
    p.add_argument("--boxes", required=True, help="boxes JSONL")
    p.add_argument("--out", required=True, help="output directory for crops")
    p.add_argument("--height", type=int, default=32, help="crop height (default 32)")
    _add_common(p, params=False)
    p.set_defaults(func=_cmd_rectify)

    p = subs.add_parser("group", help="label boxes with group ids")
    p.add_argument("--boxes", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    _add_common(p)
    p.set_defaults(func=_cmd_group)

    p = subs.add_parser("arrange", help="group boxes and order them for reading")
    p.add_argument("--boxes", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--dump-overlay", help="write a group-overlay PGM here")
    p.add_argument("--page-width", type=int, default=None)
    p.add_argument("--page-height", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_arrange)

    p = subs.add_parser("decode", help="decode frames into words")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--beam", type=int, default=8, help="beam width (default 8)")
    p.add_argument("--greedy", action="store_true", help="best-path decode instead of beam")
    _add_common(p, params=False)
    p.set_defaults(func=_cmd_decode)

    p = subs.add_parser("train-corrector", help="train the spelling corrector")
    p.add_argument("--corpus", required=True, help="corpus JSONL of noisy/clean pairs")
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--steps", type=int, default=None, help="override max_steps")
    p.add_argument("--curve", help="also write the loss curve JSON here")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_train_corrector)

    p = subs.add_parser("correct", help="correct one phrase")
    p.add_argument("--model", required=True, help="checkpoint JSON")
    p.add_argument("--text", required=True, help="phrase to correct")
    p.add_argument("--beam", type=int, default=1, help="beam width (default 1)")
    _add_common(p, params=False)
    p.set_defaults(func=_cmd_correct)

    p = subs.add_parser("run", help="run the whole pipeline over one document")
    p.add_argument("--boxes", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--model", help="corrector checkpoint JSON")
    p.add_argument("--image", help="page PGM for rectification")
    p.add_argument("--crops-dir", help="write rectified crops here")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("eval", help="word accuracy of predictions against truth")
    p.add_argument("--pred", required=True, help="JSONL with box_id and word")
    p.add_argument("--truth", required=True, help="boxes JSONL with words, or box_id/word JSONL")
    p.add_argument("--out", help="also write an accuracy JSON here")
    _add_common(p, params=False)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DoctextError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
