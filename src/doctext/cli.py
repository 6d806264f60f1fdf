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
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .corrector.model import Hyper, init_model, load_model, save_model
from .corrector.network import correct as correct_phrase
from .corrector.training import TrainConfig, train
from .corrector.vocab import Vocab
from .ctc import greedy_decode
from .errors import DivergenceError, DoctextError, FormatError, InputError, check_int
from .formats import (
    BoxRecord,
    _read_text,
    from_json_value,
    read_boxes,
    read_corpus,
    read_frames,
    read_truth,
    read_words,
    write_boxes,
    write_corpus,
    write_frames,
    write_json_file,
    write_words,
)
from .geometry import read_pgm, write_pgm
from .layout import LayoutParams, arrange_document, group, render_group_overlay
from .pipeline import (
    PipelineParams,
    decode_words,
    evaluate,
    format_percent,
    rectify_boxes,
    run as run_pipeline,
    save_report,
)
from .synth import SynthSpec, gen_corpus, gen_document, gen_frames, render_page

__all__ = ["main"]


# ----------------------------------------------------------------- params


def _unique_keys(pairs, path) -> dict:
    """A dict of key-value pairs; a repeated key is an ``InputError``."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"params file {path} gives {key} twice")
        out[key] = value
    return out


def load_params(path) -> dict:
    """Load a flat parameter dict from a JSON or TOML file.

    The keys of a table (a nested object) count as top-level keys, so a
    key may appear once in the whole file: given twice, at top level
    and in a table or in two tables, it is an ``InputError``.
    """
    p = Path(path)
    text = _read_text(p)
    if p.suffix.lower() == ".json":
        try:
            payload = json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, or too deep
            raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    elif p.suffix.lower() == ".toml":
        try:
            payload = tomllib.loads(text)
        except (ValueError, RecursionError) as exc:  # TOMLDecodeError, too many digits, or too deep
            raise FormatError(f"{path} is not valid TOML: {exc}") from exc
    else:
        raise InputError(f"params file {path} must end in .json or .toml")
    if not isinstance(payload, dict):
        raise FormatError(f"params file {path} must hold an object")
    pairs: list = []
    for key, value in payload.items():
        pairs.extend(value.items() if isinstance(value, dict) else [(key, value)])
    return _unique_keys(pairs, path)


def _reader_fields(reader) -> dict:
    """The fields of the parameter dataclass ``reader`` that ``--params``
    sets, by name: all but ``seed``, which comes from ``--seed``, and
    nested parameter objects, whose own fields are read instead."""
    return {f.name: f for f in fields(reader) if f.name != "seed" and not is_dataclass(f.type)}


def _params_of(args, *readers) -> dict:
    """The ``--params`` file of ``args`` (empty without one); a key that
    none of the parameter dataclasses ``readers`` consumes is an error.
    A subcommand passes exactly the readers it calls."""
    if not getattr(args, "params", None):
        return {}
    params = load_params(args.params)
    unknown = sorted(set(params).difference(*map(_reader_fields, readers)))
    if unknown:
        raise InputError(
            f"{args.params}: unknown parameter(s) for {args.command}: {', '.join(unknown)}"
        )
    return params


def _build(reader, d: dict, **given):
    """The parameter dataclass ``reader`` built from the flat ``--params``
    dict ``d``: each field it reads is converted from ``d`` by its type,
    a nested parameter object is built from the same ``d``, and the
    values of ``given`` (command-line flags) that are not None override
    the file's."""
    kwargs = {f.name: _build(f.type, d) for f in fields(reader) if is_dataclass(f.type)}
    for key, f in _reader_fields(reader).items():
        if key in d:
            try:
                kwargs[key] = from_json_value(f.type, d[key])
            except (TypeError, ValueError) as exc:
                raise InputError(f"parameter {key}: {exc}") from exc
    kwargs.update((k, v) for k, v in given.items() if v is not None)
    return reader(**kwargs)


# ------------------------------------------------------------- subcommands


def _cmd_synth_gen(args) -> int:
    for flag, count in (("--docs", args.docs), ("--corpus", args.corpus)):
        if count < 0:
            raise InputError(f"synth-gen: {flag} must be >= 0")
    spec = _build(
        SynthSpec, _params_of(args, SynthSpec), seed=args.seed, jitter=args.jitter,
        temperature=args.temperature, p_sub=args.p_sub, p_del=args.p_del, p_ins=args.p_ins,
    )
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


def _write_crops(crops: dict, out: Path) -> None:
    """Write a box id to crop dict as one ``out/box_NNNN.pgm`` file per box."""
    out.mkdir(parents=True, exist_ok=True)
    for bid, crop in sorted(crops.items()):
        write_pgm(crop, out / f"box_{bid:04d}.pgm")


def _cmd_rectify(args) -> int:
    check_int(args.height, "rectify: --height", 1)
    image = read_pgm(args.image)
    crops = rectify_boxes(image, read_boxes(args.boxes), args.height)
    _write_crops(crops, args.out)
    print(f"rectified {len(crops)} boxes into {args.out}")
    return 0


def _cmd_group(args) -> int:
    records = read_boxes(args.boxes)
    labels = group([r.box for r in records], _build(LayoutParams, _params_of(args, LayoutParams)))
    write_json_file(args.out, {"labels": {str(i): lab for i, lab in sorted(labels.items())}})
    print(f"grouped {len(labels)} boxes into {len(set(labels.values()))} groups")
    return 0


def _cmd_arrange(args) -> int:
    if args.dump_overlay is None and (args.page_width is not None or args.page_height is not None):
        flag = "--page-width" if args.page_width is not None else "--page-height"
        raise InputError(f"arrange: {flag} sizes the overlay; --dump-overlay is missing")
    records = read_boxes(args.boxes)
    boxes = [r.box for r in records]
    layout = arrange_document(boxes, _build(LayoutParams, _params_of(args, LayoutParams)))
    overlay = None
    if args.dump_overlay:
        # an empty page keeps only the margin
        width, height = args.page_width, args.page_height
        if width is None:
            width = int(np.ceil(max((b.right for b in boxes), default=0))) + 4
        if height is None:
            height = int(np.ceil(max((b.bottom for b in boxes), default=0))) + 4
        overlay = render_group_overlay(boxes, layout.labels, width, height)
    write_json_file(args.out, layout.to_dict())
    if overlay is not None:
        write_pgm(overlay, args.dump_overlay)
    print(f"arranged {len(boxes)} boxes into {len(layout.order)} groups")
    return 0


def _cmd_decode(args) -> int:
    if args.greedy and args.beam is not None:
        raise InputError("decode: --greedy and --beam exclude each other")
    alphabet, frames = read_frames(args.frames)
    if args.greedy:
        words = {bid: alphabet.decode(greedy_decode(mat)) for bid, mat in frames.items()}
    else:
        words = decode_words(alphabet, frames, PipelineParams().beam_width if args.beam is None else args.beam)
    write_words(args.out, words)
    print(f"decoded {len(words)} boxes")
    return 0


def _cmd_train_corrector(args) -> int:
    params = _params_of(args, Hyper, TrainConfig)
    pairs = read_corpus(args.corpus)
    chars = sorted({c for pair in pairs for text in pair for c in text if c != " "})
    vocab = Vocab.from_chars(chars)
    model = init_model(vocab, _build(Hyper, params), seed=args.seed)
    cfg = _build(TrainConfig, params, max_steps=args.steps, seed=args.seed)
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
    if (args.image is None) != (args.crops_dir is None):
        missing = "--crops-dir" if args.crops_dir is None else "--image"
        raise InputError(f"run: --image and --crops-dir go together; {missing} is missing")
    records = read_boxes(args.boxes)
    alphabet, frames = read_frames(args.frames)
    model = load_model(args.model) if args.model else None
    image = read_pgm(args.image) if args.image else None
    result = run_pipeline(
        records,
        alphabet,
        frames,
        model=model,
        params=_build(PipelineParams, _params_of(args, LayoutParams, PipelineParams)),
        image=image,
    )
    save_report(result.report, args.out)
    if args.crops_dir is not None:
        _write_crops(result.crops, args.crops_dir)
    print(result.report.summary())
    return 0


def _cmd_eval(args) -> int:
    pred = read_words(args.pred)
    truth = read_truth(args.truth)
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
    p.add_argument("--out", required=True, type=Path, help="output directory for crops")
    height = PipelineParams().rect_height
    p.add_argument("--height", type=int, default=height, help=f"crop height (default {height})")
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
    p.add_argument("--page-width", type=int, default=None, help="overlay width (needs --dump-overlay)")
    p.add_argument("--page-height", type=int, default=None, help="overlay height (needs --dump-overlay)")
    _add_common(p)
    p.set_defaults(func=_cmd_arrange)

    p = subs.add_parser("decode", help="decode frames into words")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--beam", type=int, default=None, help=f"beam width (default {PipelineParams().beam_width})")
    p.add_argument("--greedy", action="store_true", help="best-path decode instead of beam (no --beam)")
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
    p.add_argument(
        "--beam", type=int, default=PipelineParams().correct_beam,
        help=f"beam width (default {PipelineParams().correct_beam})",
    )
    _add_common(p, params=False)
    p.set_defaults(func=_cmd_correct)

    p = subs.add_parser("run", help="run the whole pipeline over one document")
    p.add_argument("--boxes", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--model", help="corrector checkpoint JSON")
    p.add_argument("--image", help="page PGM to rectify crops from (needs --crops-dir)")
    p.add_argument("--crops-dir", type=Path, help="write rectified crops here (needs --image)")
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
