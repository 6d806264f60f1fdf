"""Seeded benchmark for doctext: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload pages-decode --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` sets the workload up five times (``setup_s`` is the
median), then runs it closed-loop, one operation at a time, for
``--seconds`` and reports the end-to-end metrics.  Its timings are
calibrated: a fixed reference kernel runs between operations, and each
time is scaled to a machine on which that kernel takes ``REF_MS``
(see ``reference_ms``); the wall-clock figures are printed and recorded
next to them.  ``--trace 1`` runs
half the time untraced and half with spans around the calls into each
layer, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record goes to
``.bench_work/BENCH_<workload>_seed<seed>_trace<t>.json``.
NOTES.md says what each workload and metric is for.
"""

import os

# Pin BLAS to one thread before NumPy loads; the value is recorded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # inputs, records and spans; ignored by git
SETUP_REPEATS = 5
MIN_OPS = 100
NAMES = ("pages-decode", "pages-correct", "train-corrector", "layout-dense")
# Calibrated timings read as on a machine where reference_ms() is REF_MS;
# its run medians ranged 5.5-9.3 ms on the 2-vCPU x86-64 VM the benchmark
# was written on.
REF_MS = 8.0

# Per-layer metrics: name, unit, the span (or counter) it derives from,
# and how.  "self" is span time minus child spans, "incl" the whole
# span, "calls" the span count, "count" a counter; all are per
# operation.  "ratio" divides two counters.
LAYER_METRICS = (
    ("ctc.beam_decode.ms", "ms", "ctc.beam_decode", "self"),
    ("ctc.beam_decode.calls", "count", "ctc.beam_decode", "calls"),
    ("ctc.frames", "count", "ctc.beam_decode", "count"),
    ("corrector.correct.ms", "ms", "corrector.correct", "self"),
    ("corrector.correct.calls", "count", "corrector.correct", "calls"),
    ("corrector.correct.tokens_out", "count", "corrector.correct", "count"),
    ("corrector.correct.cap_hits", "count", "corrector.correct", "count"),
    ("corrector.encode.ms", "ms", "corrector.encode", "self"),
    ("corrector.decode_step.calls", "count", "corrector.decode_step", "calls"),
    ("corrector.decode_step.ms", "ms", "corrector.decode_step", "self"),
    ("corrector.train.forward_ms", "ms", "corrector.train.forward", "incl"),
    ("corrector.train.backward_ms", "ms", "corrector.train.backward", "incl"),
    ("corrector.train.update_ms", "ms", "corrector.train", "self"),
    ("corrector.train.build_pairs_ms", "ms", "corrector.train.build_pairs", "incl"),
    ("corrector.train.real_token_share", "share", "corrector.train.forward",
     ("ratio", "corrector.train.real_tokens", "corrector.train.token_slots")),
    ("layout.group.ms", "ms", "layout.group", "self"),
    ("layout.arrange.ms", "ms", "layout.arrange", "self"),
    ("layout.arrange.calls", "count", "layout.arrange", "calls"),
    ("layout.find_next_text.calls", "count", "layout.find_next_text", "count"),
    ("geometry.rectify.ms", "ms", "geometry.rectify", "self"),
    ("geometry.rectify.calls", "count", "geometry.rectify", "calls"),
    ("geometry.rectify.pixels", "count", "geometry.rectify", "count"),
    ("geometry.read_pgm.ms", "ms", "geometry.read_pgm", "self"),
    ("formats.read_boxes.ms", "ms", "formats.read_boxes", "self"),
    ("formats.read_frames.ms", "ms", "formats.read_frames", "self"),
    ("formats.bytes_read", "bytes", "formats.read_boxes", "count"),
    ("formats.write_json.ms", "ms", "formats.write_json", "self"),
    ("pipeline.run.self_ms", "ms", "pipeline.run", "self"),
    ("pipeline.groups", "count", "pipeline.run", "count"),
    ("pipeline.realigned_share", "share", "pipeline.run",
     ("ratio", "pipeline.realigned", "pipeline.groups")),
)


def _fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def _import_library():
    """Import doctext from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "doctext" / "__init__.py").is_file():
        raise _fail(f"no doctext sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import doctext

    if Path(doctext.__file__).resolve().parent != SRC / "doctext":
        raise _fail(f"imported doctext from {doctext.__file__}, not from {SRC}")


class NullTracer:
    """Stands in for a Tracer in untraced operations: calls straight through."""

    op_id = -1

    def span(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1.0):
        pass

    def install(self):
        pass

    def uninstall(self):
        pass


# ---------------------------------------------------------------- running


_RNG = np.random.default_rng(0)
_REF_A, _REF_B = _RNG.standard_normal((64, 256)), _RNG.standard_normal((256, 256))


class _RefBox:
    """A rectangle with derived properties, like the boxes layout compares."""

    __slots__ = ("left", "top", "right", "bottom", "id")

    def __init__(self, i: int):
        self.left, self.top = float(i * 37 % 500), float(i * 11 % 300)
        self.right, self.bottom, self.id = self.left + 20.0, self.top + 9.0, i

    @property
    def vcenter(self) -> float:
        return 0.5 * (self.top + self.bottom)

    @property
    def hcenter(self) -> float:
        return 0.5 * (self.left + self.right)

    @property
    def height(self) -> float:
        return self.bottom - self.top


_REF_BOXES = [_RefBox(i) for i in range(60)]


def reference_ms() -> float:
    """Time one run of a fixed kernel that does not touch doctext.

    The machine this benchmark was written on is a shared VM whose speed
    drifts by up to 1.7x for tens of seconds at a time, with no steal
    time, so the fastest operations of a slow stretch are slow too.  The
    kernel mixes interpreter work (integer arithmetic, a dict, tuple
    sorting, property calls and float comparisons over small objects)
    with small single-threaded matrix products, as the workloads do;
    running it around each timed operation, on the same CPU, measures
    how fast the machine was just then.
    """
    start = time.perf_counter()
    total, counts, pairs = 0, {}, []
    for i in range(6000):
        total += i * i
        counts[i % 97] = counts.get(i % 97, 0) + i
        pairs.append((i % 13, -i))
    pairs.sort()
    best = None
    for cur in _REF_BOXES[:25]:
        for b in _REF_BOXES:
            if abs(b.vcenter - cur.vcenter) < 0.5 * min(cur.height, b.height) and b.left >= cur.hcenter:
                key = (b.left, b.vcenter, b.id)
                best = key if best is None or key < best else best
    x = _REF_A
    for _ in range(10):
        x = np.tanh(x @ _REF_B * 0.01)
    return (time.perf_counter() - start) * 1e3


def calibrated(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time scaled by the machine's speed around it, measured by the
    reference kernel just before and just after."""
    return seconds * REF_MS / ((ref_before + ref_after) / 2)


def measure(workload, seconds: float, modes: dict, min_ops: int, calibrate: bool) -> dict:
    """Closed loop over the pool for ``seconds``, one operation at a time.

    ``modes`` maps a phase name to its tracer.  With two phases the
    operations alternate between them, and each input flips phase from
    pass to pass, so the machine's drift falls on both alike.  The loop
    runs on until it has done ``min_ops`` operations and every input has
    run once in every phase.  The pool is visited in a seeded shuffled
    order, so a partial last pass is not biased toward some page sizes.
    With ``calibrate`` the reference kernel runs before the first
    operation and after each one, outside the timed region, and every
    latency is also kept calibrated by the two runs around it.
    Returns per-phase, per-slot latencies, attempts, failures and the
    first few tracebacks.  Outputs are checked outside the timed region.
    """
    names = list(modes)
    pool = len(workload.items)
    order = random.Random(workload.seed).sample(range(pool), pool)
    latencies: dict[str, dict[int, list[float]]] = {name: {} for name in names}
    scaled: dict[str, dict[int, list[float]]] = {name: {} for name in names}
    refs: list[float] = [reference_ms()] if calibrate else []
    attempted = failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < max(min_ops, pool * len(names)) or time.perf_counter() < deadline:
        slot = order[k % pool]
        phase = names[(k // pool + k % pool) % len(names)]
        tr = modes[phase]
        tr.op_id = k
        attempted += 1
        k += 1
        tr.install()
        try:
            start = time.perf_counter()
            out = workload.run_op(slot, tr)
            elapsed = time.perf_counter() - start
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            if len(errors) < 3:
                errors.append(traceback.format_exc())
            continue
        finally:
            tr.uninstall()
            if calibrate:
                refs.append(reference_ms())
        latencies[phase].setdefault(slot, []).append(elapsed)
        if calibrate:
            scaled[phase].setdefault(slot, []).append(calibrated(elapsed, refs[-2], refs[-1]))
        workload.observe(slot, out, tr)
    return {"latencies": latencies, "calibrated": scaled if calibrate else None, "refs": refs,
            "attempted": attempted, "failed": failed, "errors": errors}


def op_stats(latencies: dict[int, list[float]], items: list[int]) -> dict:
    """Latency of a phase: the median over inputs of each input's median
    time, the 90th percentile over every operation, and throughput as
    the work done over the time taken.

    The median counts every input once, however often the run reached
    it, so a partial last pass over the pool does not move it.  The
    percentile is fixed, not the highest one with ten operations beyond
    it, so that runs doing more operations stay comparable; an untraced
    run does at least MIN_OPS operations, so at least ten lie beyond it.
    """
    times = [t for v in latencies.values() for t in v]
    work = sum(items[s] * len(v) for s, v in latencies.items())
    return {
        "p50_ms": statistics.median(statistics.median(v) for v in latencies.values()) * 1e3,
        "tail_ms": statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) > 1 else times[0] * 1e3,
        "tail_percentile": 90,
        "ops": len(times),
        "items_per_s": work / sum(times),
        "slot_ms": {s: [round(t * 1e3, 3) for t in v] for s, v in sorted(latencies.items())},
    }


def layer_metrics(tracer, ops: int) -> tuple[dict, list[str]]:
    from tracing import COUNT_TARGETS, SPAN_TARGETS

    self_s, incl_s, calls = tracer.totals()
    source = {name: f"{mod}.{attr}" for mod, attr, name in SPAN_TARGETS + COUNT_TARGETS}
    out, missing = {}, []
    for name, unit, span, how in LAYER_METRICS:
        if source.get(span) in tracer.missing:
            missing.append(name)
            continue
        if how == "self":
            value = self_s.get(span, 0.0) * 1e3 / ops
        elif how == "incl":
            value = incl_s.get(span, 0.0) * 1e3 / ops
        elif how == "calls":
            value = calls.get(span, 0) / ops
        elif how == "count":
            value = tracer.counts.get(name, 0.0) / ops
        else:
            _, num, den = how
            den_v = tracer.counts.get(den, 0.0)
            value = tracer.counts.get(num, 0.0) / den_v if den_v else 0.0
        out[name] = {"value": value, "unit": unit}
    return out, missing


def _observers():
    """Counters recorded from the arguments and results of wrapped calls."""

    def beam(tr, args, result):
        tr.count("ctc.frames", len(args[0]))

    def correct(tr, args, result):
        tr.count("corrector.correct.tokens_out", len(result.tokens))
        tr.count("corrector.correct.cap_hits", int(result.hit_cap))

    def rectify(tr, args, result):
        tr.count("geometry.rectify.pixels", result.width * result.height)

    def forward(tr, args, result):
        model, xs, ys = args[:3]
        pad = model.vocab.pad_id
        tr.count("corrector.train.real_tokens", int((xs != pad).sum() + (ys != pad).sum()))
        tr.count("corrector.train.token_slots", xs.size + ys.size)

    return {
        "ctc.beam_decode": beam,
        "corrector.correct": correct,
        "geometry.rectify": rectify,
        "corrector.train.forward": forward,
    }


def pin_to_one_cpu() -> int | None:
    """Keep this process on one CPU, so that the reference kernel and the
    operations it calibrates run on the same one; returns that CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(pinned_cpu: int | None) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        git = None
    if git is not None and git.returncode == 0:
        top, head = git.stdout.split()
        sha = head if Path(top).resolve() == ROOT else None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny}
    try:
        setup_times, setup_scaled = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = cls(seed, workdir, tiny)
            ref_before = reference_ms()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            setup_scaled.append(calibrated(setup_times[-1], ref_before, reference_ms()))
        record["setup_times_s"] = setup_times
        record["setup_calibrated_s"] = setup_scaled
        record["pool"] = len(workload.items)
        modes = {"untraced": NullTracer()}
        if trace:
            tracer = modes["traced"] = Tracer(_observers())
        result = measure(workload, seconds, modes, 0 if trace else MIN_OPS, calibrate=not trace)
        quality = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    stats = {k: op_stats(v, workload.items) for k, v in result["latencies"].items() if v}
    scaled = {k: op_stats(v, workload.items) for k, v in (result["calibrated"] or {}).items() if v}
    problems = list(workload.problems)
    if len(workload.signatures) < len(workload.items):
        problems.append(f"only {len(workload.signatures)} of {len(workload.items)} inputs completed")
    record.update(
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        errors=result["errors"],
        stats=stats,
        calibrated_stats=scaled,
        reference_ms=statistics.median(result["refs"]) if result["refs"] else None,
        quality=quality,
        digest=workload.digest(),
        problems=problems,
        correct=not problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        op_noun=cls.op_noun,
        item_noun=cls.item_noun,
    )
    untraced = stats.get("untraced")
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}}
        if "untraced" in scaled:
            metrics.update(
                op_p50_ms={"value": scaled["untraced"]["p50_ms"], "unit": "ms"},
                op_tail_ms={"value": scaled["untraced"]["tail_ms"], "unit": "ms"},
                items_per_s={"value": scaled["untraced"]["items_per_s"], "unit": "1/s"},
            )
        metrics["peak_rss_mb"] = {"value": record["peak_rss_mb"], "unit": "MB"}
    else:
        traced_ops = sum(len(v) for v in result["latencies"]["traced"].values())
        metrics, missing = layer_metrics(tracer, max(1, traced_ops))
        record["missing_metrics"] = missing + [f"wrapped name not found: {m}" for m in tracer.missing]
        if untraced and "traced" in stats:
            # paired per input: the machine's noise between inputs is larger
            # than the overhead, so compare each input with itself
            plain, traced_lat = result["latencies"]["untraced"], result["latencies"]["traced"]
            ratios = [min(traced_lat[s]) / min(plain[s]) for s in plain if s in traced_lat]
            metrics.update({
                "trace.untraced_p50_ms": {"value": untraced["p50_ms"], "unit": "ms"},
                "trace.traced_p50_ms": {"value": stats["traced"]["p50_ms"], "unit": "ms"},
                "trace.overhead_share": {"value": statistics.median(ratios) - 1.0, "unit": "share"},
            })
        spans_path = WORK / f"spans_{name}_seed{seed}.json"
        tracer.dump(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["metrics"] = metrics
    return record


# ---------------------------------------------------------------- output


def print_report(rec: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    op, items = rec["op_noun"], rec["item_noun"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  trace={rec['trace']}  "
          f"pool={rec.get('pool')}  attempted={rec['attempted']}  failed={rec['failed']}")
    env = rec["environment"]
    print(f"   python {env['python']}, numpy {env['numpy']}, {env['blas']} threads={env['blas_threads']}, "
          f"nproc {env['nproc']}, pinned to CPU {env['pinned_cpu']}, git {env['git_sha'] or 'n/a'}, src {env['src_sha256'][:12]}")
    rows = []
    if rec["reference_ms"] is not None:
        print(f"   calibrated timings are scaled to a reference kernel time of {REF_MS} ms; "
              f"its median in this run was {rec['reference_ms']:.3f} ms")
        n = len(rec["setup_calibrated_s"])
        rows.append(("setup_s", statistics.median(rec["setup_calibrated_s"]), "s", f"calibrated, median of {n}"))
    rows.append(("setup_wall_s", statistics.median(rec["setup_times_s"]), "s", f"median of {len(rec['setup_times_s'])}"))
    for kind, stats in (("", rec["calibrated_stats"]), ("_wall", rec["stats"])):
        for phase, st in stats.items():
            tag = "" if phase == "untraced" else " (traced)"
            note = "" if kind else "calibrated, "
            rows += [
                (f"{op}_p50{kind}_ms{tag}", st["p50_ms"], "ms", f"{note}{st['ops']} operations over {rec['pool']} inputs"),
                (f"{op}_tail{kind}_ms{tag}", st["tail_ms"], "ms", f"{note}p{st['tail_percentile']} of {st['ops']} operations"),
                (f"{items}_per_s{kind}{tag}", st["items_per_s"], "1/s", note.rstrip(", ")),
            ]
    rows += [(k, v, "nats" if k.startswith("loss") else "share", "") for k, v in rec["quality"].items()]
    rows += [("failed_share", rec["failed_share"], "share", ""), ("peak_rss_mb", rec["peak_rss_mb"], "MB", "")]
    if rec["trace"]:
        rows += [(k, m["value"], m["unit"], "per op") for k, m in rec["metrics"].items()]
    for name, value, unit, note in rows:
        print(f"   {name:34s} {value:14.4f} {unit:6s} {note}")
    for line in rec.get("missing_metrics", []):
        print(f"   missing: {line}")
    print(f"   digest {rec['digest']}")
    for p in rec["problems"][:20]:
        print(f"   CHECK FAILED: {p}")
    for e in rec["errors"]:
        print(e, file=sys.stderr)
    print(f"   outputs {'correct' if rec['correct'] else 'INCORRECT'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny pools for the smoke test; quality gates are skipped")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise _fail("--seed must be >= 0 and --seconds > 0")
    _import_library()
    if args.workload == "all":
        return run_all(args)

    from workloads import SetupError

    cpu = pin_to_one_cpu()
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
    except SetupError as exc:
        raise _fail(str(exc)) from exc
    rec["environment"] = environment(cpu)
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True), encoding="utf-8"
    )
    print_report(rec)
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, so that
    each reports its own peak memory."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
        results[name] = json.loads(last[0]) if last else {"correct": False, "returncode": proc.returncode}
    print(json.dumps(results))
    return 0 if all(r.get("correct") for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
