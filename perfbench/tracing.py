"""Traced run: the workload's CLI stages run in this process through
`citeforge.cli.main`, with a span around every library call they make.

For the traced pass, the public functions that `citeforge.cli` imports are
replaced, in that module's namespace only, by wrappers that record a span
per call; nothing under src/ is edited or instrumented, and the code that
runs is the CLI's own.  Where a public call reaches another layer
internally (build_dataset -> annotate, align_training -> parse_annotation +
tokenize, tag_reference -> tokenize + viterbi), probes after the traced
pass time the outer function and each inner one as one span around a plain
loop over the inputs the CLI passed, and the outer call's self time is the
difference of those loop totals, so outer and inner pay the same overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import citeforge.cli as cli
from citeforge.annotation import parse_annotation
from citeforge.dataset import BuildStats, build_dataset
from citeforge.hmm import HmmModel, align_training, tag_reference, viterbi
from citeforge.styles import MissingVariable, annotate
from citeforge.tokens import tokenize

import workloads as wl

CLI_STAGES = ("parse", "clean", "stats", "build", "split", "train", "tag", "evaluate")

PER_LAYER_UNITS = {
    "bibtex.parse_s": "s",
    "bibtex.entries_per_s": "1/s",
    "bibtex.issues": "count",
    "bibtex.clean_s": "s",
    "bibtex.self_s": "s",
    "styles.annotate_s": "s",
    "styles.annotate_calls": "count",
    "styles.skipped_renders": "count",
    "styles.self_s": "s",
    "dataset.build_self_s": "s",
    "dataset.export_s": "s",
    "dataset.export_bytes": "B",
    "dataset.load_s": "s",
    "dataset.records_loaded": "count",
    "dataset.self_s": "s",
    "tokens.tokenize_s": "s",
    "tokens.count": "count",
    "tokens.per_s": "1/s",
    "tokens.distinct_share": "ratio",
    "tokens.backoff_share": "ratio",
    "tokens.self_s": "s",
    "hmm.align_s": "s",
    "hmm.train_s": "s",
    "hmm.save_s": "s",
    "hmm.load_s": "s",
    "hmm.model_bytes": "B",
    "hmm.vocab": "count",
    "hmm.viterbi_s": "s",
    "hmm.viterbi_tokens_per_s": "1/s",
    "hmm.tag_ref_p50_ms": "ms",
    "hmm.tag_ref_p99_ms": "ms",
    "hmm.empty_decodes": "count",
    "hmm.self_s": "s",
    "evaluate.evaluate_s": "s",
    "evaluate.refs_per_s": "1/s",
    "evaluate.missing_ground_truth": "count",
    "evaluate.f1_micro": "ratio",
    "evaluate.self_s": "s",
    **{f"cli.{stage}_s": "s" for stage in CLI_STAGES},
    "cli.glue_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}

# Names in citeforge.cli's namespace that the traced pass wraps.  The two
# generator functions get one span each, timed only while they run.
TRACED = (
    "parse_bibtex", "validate_entry", "serialize", "clean_corpus", "histogram_table",
    "load_styles", "build_dataset", "export", "load_jsonl", "split_dataset",
    "dataset_stats", "align_training", "train_hmm", "tag_reference",
    "evaluate_dataset", "write_report", "format_report",
)
GENERATORS = ("build_dataset", "load_jsonl")
GENERATOR_SPANS = ("dataset.build_dataset", "dataset.load_jsonl")


class Span:
    __slots__ = ("id", "name", "parent", "start_ns", "end_ns", "busy_ns", "child_ns", "items")

    def __init__(self, span_id: int, name: str, parent: "Span | None"):
        self.id, self.name, self.parent = span_id, name, parent
        self.start_ns = self.end_ns = 0
        self.busy_ns = self.child_ns = self.items = 0

    @property
    def self_ns(self) -> int:
        return self.busy_ns - self.child_ns

    def to_json(self, run_id: str) -> dict:
        return {"id": self.id, "name": self.name, "run": run_id,
                "parent": self.parent.id if self.parent else None,
                "start_ns": self.start_ns, "end_ns": self.end_ns,
                "busy_ns": self.busy_ns, "self_ns": self.self_ns}


class Tracer:
    """Spans in memory, one per call, group or generator.

    A span's busy time is the time it was running (for a generator, the sum
    of its `next` calls); its self time is busy time minus that of the spans
    that ran inside it.  A generator's parent is the span that first
    advances it: `export` for the records of `build_dataset`.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    def _enter(self, span: Span) -> int:
        if not span.start_ns:
            span.parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        now = time.perf_counter_ns()
        span.start_ns = span.start_ns or now
        return now

    def _leave(self, span: Span, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span.end_ns = end
        span.busy_ns += end - start
        if self._stack:
            self._stack[-1].child_ns += end - start

    def _span(self, name: str) -> Span:
        span = Span(next(self._ids), name, None)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def group(self, name: str):
        span = self._span(name)
        start = self._enter(span)
        try:
            yield span
        finally:
            self._leave(span, start)

    def wrap(self, name: str, fn, observe=None):
        """`fn` with a span per call; `observe(result, *args, **kwargs)` runs
        after the span has closed."""
        def traced(*args, **kwargs):
            span = self._span(name)
            start = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, start)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result
        return traced

    def wrap_generator(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            if observe is not None:
                observe(None, *args, **kwargs)
            return self._iterate(self._span(name), fn(*args, **kwargs))
        return traced

    def _iterate(self, span: Span, it):
        while True:
            start = self._enter(span)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._leave(span, start)
            span.items += 1
            yield item

    def busy(self, name: str) -> float:
        return sum(s.busy_ns for s in self.spans if s.name == name) / 1e9

    def self_s(self, name: str) -> float:
        return sum(s.self_ns for s in self.spans if s.name == name) / 1e9

    def durations_ms(self, name: str) -> list[float]:
        return [s.busy_ns / 1e6 for s in self.spans if s.name == name]


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# ------------------------------------------------------------ the CLI


class TracedCli:
    """The CLI's library calls replaced by traced wrappers that also note
    the counts and the inputs the probes need."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.c = dict.fromkeys(("entries_parsed", "issues", "export_bytes",
                                "model_bytes", "vocab", "empty_decodes",
                                "missing_ground_truth", "f1_micro"), 0)
        self.builds: list[tuple] = []  # (entries, styles, kwargs) of each build_dataset
        self.annos: list[str] = []     # annoRef of each align_training
        self.model = None
        self.refs: list[str] = []      # reference of each tag_reference
        observers = {
            "parse_bibtex": self._parsed,
            "validate_entry": self._validated,
            "build_dataset": self._build,
            "export": self._exported,
            "align_training": lambda _, anno: self.annos.append(anno),
            "train_hmm": self._trained,
            "tag_reference": self._tagged,
            "evaluate_dataset": self._evaluated,
        }
        self.wrappers = {}
        for name in TRACED:
            fn = getattr(cli, name)
            wrap = tracer.wrap_generator if name in GENERATORS else tracer.wrap
            self.wrappers[name] = wrap(_layer_name(fn), fn, observers.get(name))
        self.wrappers["HmmModel"] = SimpleNamespace(
            load=tracer.wrap("hmm.load", HmmModel.load))

    def _parsed(self, result, *args, **kwargs):
        entries, issues = result
        self.c["entries_parsed"] += len(entries)
        self.c["issues"] += len(issues)

    def _validated(self, issues, entry):
        self.c["issues"] += len(issues)

    def _build(self, _, entries, styles, **kwargs):
        self.builds.append((entries, styles, kwargs))

    def _exported(self, _, records, format, path):
        self.c["export_bytes"] += Path(path).stat().st_size

    def _trained(self, model, *args, **kwargs):
        self.c["vocab"] = len(model.vocab)

        def saved(_, path):
            self.c["model_bytes"] = Path(path).stat().st_size

        # The CLI saves the model it trained; shadow that instance's method.
        model.save = self.tracer.wrap("hmm.save", model.save, saved)

    def _tagged(self, result, model, reference):
        self.model = model
        self.refs.append(reference)
        self.c["empty_decodes"] += not result[0]

    def _evaluated(self, report, *args, **kwargs):
        self.c["missing_ground_truth"] += report.missing_ground_truth
        self.c["f1_micro"] = report.micro[2]

    @contextlib.contextmanager
    def installed(self):
        saved = {name: getattr(cli, name) for name in self.wrappers}
        for name, wrapper in self.wrappers.items():
            setattr(cli, name, wrapper)
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


def run_stage(args: list[str]) -> None:
    """One CLI stage in this process, its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"in-process `{' '.join(args)}` exited {code}: "
                           + sink.getvalue()[-500:])


# ------------------------------------------------------------- probes


def _interleaved(t: Tracer, loops: dict[str, tuple], batch: int) -> None:
    """One span per name for `fn(*args)` over every args of its calls.  The
    loops take turns, `batch` calls at a time, so a change in host speed
    falls on all of them alike and their differences stay meaningful."""
    spans = {name: t._span(name) for name in loops}
    n = len(next(iter(loops.values()))[1])
    for lo in range(0, n, batch):
        for name, (fn, calls) in loops.items():
            part = calls[lo:lo + batch]
            start = t._enter(spans[name])
            for args in part:
                fn(*args)
            t._leave(spans[name], start)


def _annotate_all(entries, styles):
    for entry in entries:
        for style in styles:
            try:
                annotate(entry, style)
            except MissingVariable:
                pass


def _build_all(entries, styles, kwargs):
    for _ in build_dataset(entries, styles, **dict(kwargs, stats=BuildStats())):
        pass


# Entries per build_dataset call of the probe, and calls per turn.
PROBE_ENTRIES = 10
PROBE_BATCH = 20


def run_probes(t: Tracer, traced: TracedCli, c: dict) -> None:
    """Outer and inner public functions, timed in interleaved loops over the
    inputs the CLI passed them (see the module doc)."""
    if traced.builds:
        chunks = [(entries[i:i + PROBE_ENTRIES], styles, kwargs)
                  for entries, styles, kwargs in traced.builds
                  for i in range(0, len(entries), PROBE_ENTRIES)]
        _interleaved(t, {
            "probe.build.dataset.build_dataset": (_build_all, chunks),
            "probe.build.styles.annotate": (_annotate_all, [ch[:2] for ch in chunks]),
        }, batch=1)
        c["annotate_calls"] = sum(len(e) * len(s) for e, s, _ in traced.builds)
    if traced.annos:
        annos = [(a,) for a in traced.annos]
        plains = [(parse_annotation(a)[0],) for a in traced.annos]
        _interleaved(t, {
            "probe.train.hmm.align_training": (align_training, annos),
            "probe.train.annotation.parse_annotation": (parse_annotation, annos),
            "probe.train.tokens.tokenize": (tokenize, plains),
        }, batch=PROBE_BATCH)
        c["tokens"] += sum(len(tokenize(p)) for (p,) in plains)
    if traced.refs:
        model = traced.model
        token_lists = [tokenize(r) for r in traced.refs]
        _interleaved(t, {
            "probe.tag.hmm.tag_reference": (tag_reference, [(model, r) for r in traced.refs]),
            "probe.tag.tokens.tokenize": (tokenize, [(r,) for r in traced.refs]),
            "probe.tag.hmm.viterbi": (viterbi, [(model, ts) for ts in token_lists]),
        }, batch=PROBE_BATCH)
        tokens = [tok for ts in token_lists for tok in ts]
        c["tokens"] += len(tokens)
        c["tag_tokens"] = len(tokens)
        c["distinct_surfaces"] = len({tok.surface for tok in tokens})
        c["backoff_tokens"] = sum(model.vocab[model.symbol_index(tok)] != tok.features.lower
                                  for tok in tokens)


# ------------------------------------------------------------ metrics


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, traced: TracedCli, c: dict, cli_s: dict[str, float],
                  cost_ns: tuple[float, float]) -> dict:
    probe = t.busy
    out = {}

    bibtex_names = ("bibtex.parse_bibtex", "bibtex.validate_entry", "bibtex.serialize",
                    "bibtex.clean_corpus", "bibtex.histogram_table")
    out["bibtex.parse_s"] = t.busy("bibtex.parse_bibtex")
    out["bibtex.entries_per_s"] = _div(c["entries_parsed"], out["bibtex.parse_s"])
    out["bibtex.issues"] = c["issues"]
    out["bibtex.clean_s"] = t.busy("bibtex.clean_corpus")
    out["bibtex.self_s"] = sum(t.self_s(n) for n in bibtex_names)

    out["styles.annotate_s"] = probe("probe.build.styles.annotate")
    out["styles.annotate_calls"] = c.get("annotate_calls", 0)
    out["styles.skipped_renders"] = sum(kw["stats"].skipped_renders
                                        for _, _, kw in traced.builds)
    out["styles.self_s"] = (t.busy("styles.load_styles") + out["styles.annotate_s"]
                            + probe("probe.train.annotation.parse_annotation"))

    out["dataset.build_self_s"] = (probe("probe.build.dataset.build_dataset")
                                   - out["styles.annotate_s"])
    out["dataset.export_s"] = t.self_s("dataset.export")
    out["dataset.export_bytes"] = c["export_bytes"]
    out["dataset.load_s"] = t.busy("dataset.load_jsonl")
    out["dataset.records_loaded"] = sum(s.items for s in t.spans
                                        if s.name == "dataset.load_jsonl")
    out["dataset.self_s"] = (out["dataset.build_self_s"] + out["dataset.export_s"]
                             + out["dataset.load_s"] + t.self_s("dataset.split_dataset")
                             + t.self_s("dataset.dataset_stats"))

    out["tokens.tokenize_s"] = (probe("probe.train.tokens.tokenize")
                                + probe("probe.tag.tokens.tokenize"))
    out["tokens.count"] = c["tokens"]
    out["tokens.per_s"] = _div(c["tokens"], out["tokens.tokenize_s"])
    out["tokens.distinct_share"] = _div(c["distinct_surfaces"], c["tag_tokens"])
    out["tokens.backoff_share"] = _div(c["backoff_tokens"], c["tag_tokens"])
    out["tokens.self_s"] = out["tokens.tokenize_s"]

    out["hmm.align_s"] = (probe("probe.train.hmm.align_training")
                          - probe("probe.train.annotation.parse_annotation")
                          - probe("probe.train.tokens.tokenize"))
    out["hmm.train_s"] = t.busy("hmm.train_hmm")
    out["hmm.save_s"] = t.busy("hmm.save")
    out["hmm.load_s"] = t.busy("hmm.load")
    out["hmm.model_bytes"] = c["model_bytes"]
    out["hmm.vocab"] = c["vocab"]
    out["hmm.viterbi_s"] = probe("probe.tag.hmm.viterbi")
    out["hmm.viterbi_tokens_per_s"] = _div(c["tag_tokens"], out["hmm.viterbi_s"])
    per_ref = t.durations_ms("hmm.tag_reference")
    if len(per_ref) >= 2:
        cuts = statistics.quantiles(per_ref, n=100)
        out["hmm.tag_ref_p50_ms"], out["hmm.tag_ref_p99_ms"] = cuts[49], cuts[98]
    else:
        out["hmm.tag_ref_p50_ms"] = out["hmm.tag_ref_p99_ms"] = sum(per_ref)
    out["hmm.empty_decodes"] = c["empty_decodes"]
    tag_self = (probe("probe.tag.hmm.tag_reference") - probe("probe.tag.tokens.tokenize")
                - out["hmm.viterbi_s"])
    out["hmm.self_s"] = (out["hmm.align_s"] + out["hmm.train_s"] + out["hmm.save_s"]
                         + out["hmm.load_s"] + out["hmm.viterbi_s"] + tag_self)

    out["evaluate.evaluate_s"] = t.busy("evaluate.evaluate_dataset")
    out["evaluate.refs_per_s"] = _div(len(traced.refs), out["evaluate.evaluate_s"])
    out["evaluate.missing_ground_truth"] = c["missing_ground_truth"]
    out["evaluate.f1_micro"] = c["f1_micro"]
    out["evaluate.self_s"] = sum(t.self_s(n) for n in (
        "evaluate.evaluate_dataset", "evaluate.write_report", "evaluate.format_report"))

    # Library time of a stage: the spans directly under its group.
    stages = [s for s in t.spans if s.name.startswith("stage.")]
    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = cli_s.get(stage, 0.0)
    out["cli.glue_s"] = sum(cli_s.values()) - sum(s.child_ns for s in stages) / 1e9

    # Traced minus untraced stage totals: what the wrappers added.
    call_ns, step_ns = cost_ns
    wrapped = [s for s in t.spans if not s.name.startswith(("stage.", "probe."))]
    steps = sum(s.items + 1 for s in wrapped if s.name in GENERATOR_SPANS)
    calls = sum(1 for s in wrapped if s.name not in GENERATOR_SPANS)
    overhead_s = (calls * call_ns + steps * step_ns) / 1e9
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_share"] = _div(overhead_s,
                                       sum(s.busy_ns for s in stages) / 1e9 - overhead_s)
    out["trace.spans"] = len(t.spans)
    return out


# ------------------------------------------------------------ the run


def tracing_cost_ns(block: int = 2000, blocks: int = 21) -> tuple[float, float]:
    """Nanoseconds that one traced call and one traced generator step add to
    the untraced ones: wrapped minus bare no-ops, in alternating blocks,
    median over blocks.  Traced minus untraced stage totals is these costs
    times the calls and steps traced.  Timing whole stages twice cannot
    resolve it: on a shared host one stage's time varies between runs by
    far more than the wrappers add."""
    def noop(*args):
        return None

    def steps():
        yield from range(block)

    def per_block(fn) -> float:
        start = time.perf_counter_ns()
        fn()
        return (time.perf_counter_ns() - start) / block

    call_ns, step_ns = [], []
    for _ in range(blocks):
        t = Tracer("calibration")
        call, gen = t.wrap("noop", noop, noop), t.wrap_generator("steps", steps, noop)
        bare_call = per_block(lambda: [noop(j) for j in range(block)])
        traced_call = per_block(lambda: [call(j) for j in range(block)])
        bare_step = per_block(lambda: [j for j in steps()])
        traced_step = per_block(lambda: [j for j in gen()])
        call_ns.append(traced_call - bare_call)
        step_ns.append(traced_step - bare_step)
    return statistics.median(call_ns), statistics.median(step_ns)


def traced_run(workload, work, stages, timed_rep, seconds, digests, problems) -> dict:
    """Rounds of an untraced CLI rep (child processes, for `cli.<stage>_s`),
    a traced pass over the stages in this process and the probes, until
    `seconds` are used (at least one round); per-layer metrics are medians
    over rounds."""
    lib_dir = work / "lib"
    lib_dir.mkdir()
    for name in wl.INPUTS[workload]:
        shutil.copyfile(work / name, lib_dir / name)
    # The child processes see no CITEFORGE_* settings; neither may main().
    for key in [k for k in os.environ if k.startswith("CITEFORGE_")]:
        del os.environ[key]
    cost_ns = tracing_cost_ns()

    rounds, spans, round_s = [], [], []
    cwd = os.getcwd()
    os.chdir(lib_dir)
    try:
        # Warm-up pass, so the traced pass does not pay for first-call set-up.
        for _, args in stages:
            run_stage(args)
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() + statistics.median(round_s) <= deadline:
            start = time.perf_counter()
            cli_s: dict[str, float] = {}
            for stage in timed_rep().stages:
                cli_s[stage.name] = cli_s.get(stage.name, 0.0) + stage.seconds

            tracer = Tracer(f"{workload}-{len(rounds)}")
            traced = TracedCli(tracer)
            with traced.installed():
                for name, args in stages:
                    gc.collect()
                    with tracer.group(f"stage.{name}"):
                        run_stage(args)
            if wl.output_digests(workload, lib_dir) != digests:
                problems.append("in-process CLI outputs differ from the child-process outputs")
            counters = dict(traced.c, tokens=0, tag_tokens=0, distinct_surfaces=0,
                            backoff_tokens=0)
            gc.collect()
            run_probes(tracer, traced, counters)

            rounds.append(layer_metrics(tracer, traced, counters, cli_s, cost_ns))
            spans.extend(s.to_json(tracer.run_id) for s in tracer.spans)
            round_s.append(time.perf_counter() - start)
    except RuntimeError as exc:
        problems.append(str(exc))
        return {"_spans": spans}
    finally:
        os.chdir(cwd)

    metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER_UNITS}
    metrics["_spans"] = spans
    return metrics


def write_spans(path: Path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
