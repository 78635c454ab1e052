"""Command-line pipeline driver.

One subcommand per pipeline stage; `build`, `split`, `train`, `tag` and
`evaluate` chained together reproduce the whole workflow on any corpus.
One table, `SUBCOMMANDS`, declares each subcommand's handler, required
flags and flags.  Every flag can also come from a JSON config file
(--config) or from a CITEFORGE_<FLAG> environment variable; explicit flags
win, then the environment, then the config file.  Each handler takes one
`Run`, which resolves every flag once, records the files the stage reads
and writes, and leaves a manifest with their checksums.  A required flag
that no source gives exits 2 before the stage reads any input.

Every stage is a fresh interpreter, so each imports only the library
modules it runs: at load time this module imports `jsonfile` alone, and a
handler binds the names its modules export, from the package's own
`_EXPORTS`, on first use (`_load`).  `parse` thus compiles `bibtex` and
`jsonfile`, and `split` `dataset` and `jsonfile`.

`tag` checks each dataset row as it reads it: a bibRef with no token
(empty, or `str.isspace`) exits 1, naming the row's id and style, before
anything is decoded.
`tag --split` selects dataset rows; with a text input it exits 1.

Exit codes: 0 success, 1 domain error, 2 usage error.

As a program (`python -m citeforge.cli`, the `citeforge` console script,
both through `script`), a stage that returns ends without interpreter
teardown: it flushes stdout and stderr and calls `os._exit`.  Its outputs
are already closed and in place, so teardown, which frees every object
and module (numpy's too, in `tag`), would only cost time.  `atexit`
handlers therefore do not run at the end of a stage: a tool that relies
on them, such as coverage measuring a subprocess, sees nothing of it.  A
SystemExit (a usage error), an uncaught exception or a failed flush exits
the normal way.  `main` itself returns its exit code as before.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

from . import _EXPORTS, _MODULE_OF, __version__
from .jsonfile import (
    is_json_lines,
    read_json,
    read_json_lines,
    sha256_file,
    write_json,
    write_json_lines,
    write_text,
)

# A handler binds the names its modules export (the package's `_EXPORTS`)
# here with `_load` before it calls them, so a stage imports only the
# modules it runs.  Handlers call each name through this module's
# namespace, where `getattr` also finds one not yet bound (`__getattr__`)
# and `setattr` can replace one: the benchmark's traced pass wraps them here.
def _load(*modules: str) -> None:
    """Bind the exported names of `modules` here; a name already bound
    keeps its value."""
    for module in modules:
        library = importlib.import_module(f"{__package__}.{module}")
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(library, name))


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


# Every domain error class of the package subclasses ValueError.
DOMAIN_ERRORS = (ValueError, OSError)

ENV_PREFIX = "CITEFORGE_"
TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")
# The JSON types a config value may have, besides a string read as on the
# command line, for a flag of each `type`; a flag without one takes only strings.
JSON_TYPES = {int: (int,), float: (int, float)}


class Run:
    """One run of a subcommand: every flag resolved once, the files read
    and written, and the manifest written from both.

    A flag resolves from the command line, then the environment, then the
    config file.  Values from the environment and the config file are
    typed from the flag's `add_argument` keywords: store-const flags take
    a yes/no word, list flags (append or nargs="+") wrap a single value in
    a list, and typed flags go through their `type`.  A config value that
    is not a string must have the flag's JSON type: an integer for an
    `int` flag, a number for a `float` flag, never a boolean; a list for
    an nargs="+" flag must not be empty.  A value that does not fit is a
    ValueError naming where it came from.
    """

    def __init__(self, args: argparse.Namespace):
        self.subcommand = args.subcommand
        given = vars(args)
        config = {}

        def resolve(name: str, keywords: dict):
            env_name = ENV_PREFIX + name.upper()
            if given.get(name) is not None:
                return given[name]
            if os.environ.get(env_name) is not None:
                return _typed(keywords, os.environ[env_name], f"environment variable {env_name}")
            if config.get(name) is not None:
                return _typed(keywords, config[name], f"config key {name!r}")
            return None

        # The value of every flag of the subcommand, from whichever source
        # it came: what the manifest's config digest covers.
        self.values = {"config": resolve("config", {})}
        if self.values["config"]:
            config.update(read_json(self.values["config"], _config_object))
        for flag, keywords in SUBCOMMANDS[self.subcommand][2].items():
            name = flag[2:].replace("-", "_")
            self.values[name] = resolve(name, keywords)
        self.started = time.time()
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        # sha256 of outputs as their writers hashed them, which `finish`
        # reuses; only an output written elsewhere (harvest's) is read back.
        self.digests: dict[Path, str] = {}

    def get(self, name: str, default=None):
        value = self.values.get(name)
        return default if value is None else value

    def read(self, path) -> Path:
        path = Path(path)
        self.inputs.append(path)
        return path

    def wrote(self, path, digest: str | None = None) -> Path:
        """Record an output and, when the writer returned it, its sha256."""
        path = Path(path)
        self.outputs.append(path)
        if digest:
            self.digests[path] = digest
        return path

    @staticmethod
    def _files(paths: list[Path]) -> list[Path]:
        """Digestable paths: directories (style sets) expand to their files."""
        out = []
        for path in paths:
            if path.is_dir():
                out.extend(sorted(p for p in path.glob("*") if p.is_file()))
            elif path.is_file():
                out.append(path)
        return out

    def finish(self) -> None:
        if not self.outputs:
            return
        manifest = {
            "subcommand": self.subcommand,
            "config_digest": hashlib.sha256(
                json.dumps(self.values, sort_keys=True, default=str).encode()
            ).hexdigest(),
            "input_digests": [
                {"path": str(p), "sha256": sha256_file(p)}
                for p in self._files(self.inputs)
            ],
            "output_digests": [
                {"path": str(p), "sha256": self.digests.get(p) or sha256_file(p)}
                for p in self._files(self.outputs)
            ],
            "started": self.started,
            "finished": time.time(),
            "tool_version": __version__,
        }
        write_json(str(self.outputs[0]) + ".manifest.json", manifest)


def _typed(keywords: dict, value, source: str):
    """An environment or config value typed like the flag `keywords` declare."""
    action, nargs, kind = (keywords.get(k) for k in ("action", "nargs", "type"))
    if action == "store_const":
        word = str(value).strip().lower()
        if word not in TRUE_WORDS + FALSE_WORDS:
            raise ValueError(
                f"{source}: expected one of {'/'.join(TRUE_WORDS)} or "
                f"{'/'.join(FALSE_WORDS)}, got {value!r}"
            )
        return word in TRUE_WORDS
    if nargs == "+" and value == []:
        raise ValueError(f"{source}: expected at least one value, got []")
    kinds = (str, *JSON_TYPES.get(kind, ()))

    def convert(item):
        if isinstance(item, bool) or not isinstance(item, kinds):
            raise TypeError(item)
        return (kind or str)(item)

    try:
        if nargs == "+" or action == "append":
            return [convert(v) for v in (value if isinstance(value, list) else [value])]
        return convert(value)
    except (TypeError, ValueError):
        name = kind.__name__ if kind else "string"
        raise ValueError(f"{source}: invalid {name} value {value!r}") from None


def _config_object(data) -> dict:
    if not isinstance(data, dict):
        raise ValueError("a config file must hold a JSON object")
    return data


def _resolved(**values) -> dict:
    """The keyword arguments that resolved to a value: the library's own
    defaults stand for the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _read_text(path) -> str:
    """A UTF-8 text file, with universal newlines and without a leading byte
    order mark; text that is not UTF-8 is a ValueError naming the file and
    the bad byte's offset in it."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _text_lines(path):
    """The lines of a UTF-8 text file, read as they are iterated, with
    universal newlines and without a leading byte order mark; text that is
    not UTF-8 is the ValueError of `_read_text`, which gives the bad byte's
    offset in the file rather than in the chunk that failed to decode."""
    with open(path, encoding="utf-8") as lines:
        try:
            yield lines.readline().removeprefix("\ufeff")
            yield from lines
        except UnicodeDecodeError:
            _read_text(path)
            raise


def _load_entries(run: Run, path: str):
    """Entries and issues of a BibTeX file, tagged with the file's stem."""
    return parse_bibtex(_read_text(run.read(path)), source_tag=Path(path).stem)


def _styles(run: Run):
    styles_path = run.get("styles")
    if styles_path is None:
        styles_path = builtin_styles_dir()
    run.read(styles_path)
    styles = load_styles(styles_path)
    only = run.get("style")
    if only:
        styles = [s for s in styles if s.style_id == only]
        if not styles:
            raise ValueError(f"style {only!r} not found under {styles_path}")
    return styles


def cmd_parse(run: Run) -> None:
    _load("bibtex")
    entries, issues = _load_entries(run, run.get("in"))
    for entry in entries:
        issues.extend(validate_entry(entry))
    out = run.get("out")
    run.wrote(out, write_text(out, serialize(entries)))
    issues_out = run.get("issues") or str(out) + ".issues.json"
    run.wrote(issues_out, write_json(issues_out, [
        {"citation_key": i.citation_key, "kind": i.kind.value, "detail": i.detail}
        for i in issues
    ]))
    print(f"parsed {len(entries)} entries, {len(issues)} issues")


def cmd_clean(run: Run) -> None:
    _load("bibtex")
    entries, _ = _load_entries(run, run.get("in"))
    strip = tuple(
        f.strip() for f in (run.get("strip_fields") or "").split(",") if f.strip()
    )
    policy = CleanPolicy(
        drop_homepage_misc=not run.get("keep_homepage_misc", False),
        fields_to_strip=strip,
    )
    cleaned, stats = clean_corpus(entries, policy)
    out = run.get("out")
    run.wrote(out, write_text(out, serialize(cleaned)))
    print(
        json.dumps(
            {
                "kept": len(cleaned),
                "dropped": stats.dropped,
                "dropped_by_reason": dict(stats.dropped_by_reason),
                "stripped": dict(stats.stripped),
            }
        )
    )


def cmd_stats(run: Run) -> None:
    paths = run.get("in")
    datasets = [is_json_lines(path) for path in paths]
    if any(datasets) and not all(datasets):
        odd = paths[datasets.index(not datasets[0])]
        kind = "a BibTeX file" if datasets[0] else "a dataset"
        raise ValueError(
            f"stats reads datasets or BibTeX files, not both: {odd} is "
            f"{kind}, unlike {paths[0]}"
        )
    if datasets[0]:
        _load("dataset")
        text = dataset_stats(
            record for path in paths for record in load_jsonl(run.read(path))
        )
    else:
        _load("bibtex")
        text = histogram_table(
            [entry for path in paths for entry in _load_entries(run, path)[0]]
        )
    out = run.get("out")
    if out:
        run.wrote(out, write_text(out, text + "\n"))
    print(text)


def _records(run: Run):
    """The dataset records of the --in BibTeX file in the chosen styles, and
    the BuildStats that counts them and logs each skipped render."""
    _load("bibtex", "dataset", "styles")
    stats = BuildStats()
    entries, _ = _load_entries(run, run.get("in"))
    return build_dataset(entries, _styles(run), stats=stats), stats


def cmd_render(run: Run) -> None:
    records, stats = _records(run)
    lines = [cit["bibRef"] for record in records for cit in record.citations]
    out = run.get("out")
    run.wrote(out, write_text(out, "\n".join(lines) + "\n"))
    for _, _, reason in stats.skip_log:
        print(f"skip: {reason}", file=sys.stderr)
    print(f"rendered {stats.citations} references")


def cmd_annotate(run: Run) -> None:
    records, stats = _records(run)
    rows = ({"id": record.id, **cit} for record in records for cit in record.citations)
    out = run.get("out")
    run.wrote(out, write_json_lines(out, rows))
    for _, _, reason in stats.skip_log:
        print(f"skip: {reason}", file=sys.stderr)
    print(f"annotated {stats.citations} references")


def cmd_build(run: Run) -> None:
    records, stats = _records(run)
    out = run.get("out")
    checksum = export(records, run.get("format", "jsonl"), out)
    run.wrote(out, checksum)
    print(
        json.dumps(
            {
                "entries": stats.entries,
                "records": stats.records,
                "citations": stats.citations,
                "skipped_renders": stats.skipped_renders,
                "dropped_records": stats.dropped_records,
                "sha256": checksum,
            }
        )
    )


def cmd_split(run: Run) -> None:
    _load("dataset")
    records = load_jsonl(run.read(run.get("in")))
    manifest = split_dataset((r.id for r in records), run.get("seed", 42))
    out = run.get("out")
    run.wrote(out, write_json(out, manifest._asdict()))
    print(f"split: {len(manifest.train_ids)} train / {len(manifest.eval_ids)} eval")


def _split_ids(run: Run, side: str) -> set[str] | None:
    """The ids on one side ("train" or "eval") of the --split manifest;
    None when no split is given."""
    path = run.get("split")
    if not path:
        return None
    manifest = read_json(run.read(path), SplitManifest.from_json_dict)
    return set(getattr(manifest, side + "_ids"))


def _row_name(path: Path, record_id: str, style: str) -> str:
    """How an error names one citation of a dataset file."""
    return f"{path}: row id {record_id!r}, style {style!r}"


def _aligned(path: Path, record_id: str, cit: dict):
    """`align_training` of a citation; a malformed annoRef is a ValueError
    naming the row and style."""
    try:
        return align_training(cit["annoRef"])
    except MalformedAnnotation as exc:
        raise ValueError(f"{_row_name(path, record_id, cit['style'])}: {exc}") from exc


def cmd_train(run: Run) -> None:
    _load("annotation", "dataset", "hmm")
    in_path = run.read(run.get("in"))
    train_ids = _split_ids(run, "train")
    # zip draws from `counted` only after it got a citation, so `counted`
    # advances once per reference that train_hmm reads.
    counted = itertools.count()
    corpus = (
        _aligned(in_path, record.id, cit)
        for record in load_jsonl(in_path)
        if train_ids is None or record.id in train_ids
        for cit, _ in zip(record.citations, counted)
    )
    model = train_hmm(corpus, **_resolved(alpha=run.get("alpha")))
    out = run.get("out")
    run.wrote(out, model.save(out))
    print(
        f"trained on {next(counted)} references: "
        f"{len(model.states)} states, vocabulary {len(model.vocab)}"
    )


_FIELDS_SHAPE = "fields must be a list of objects whose label and value are strings"


def _tagged_row(row: dict) -> dict:
    """A tagged.jsonl row as `evaluate` reads it.  `id` and `style`, when
    present, are strings; rows without them (plain-text `tag`) count as
    missing ground truth."""
    if not (isinstance(row.get("id", ""), str) and isinstance(row.get("style", ""), str)):
        raise ValueError("id and style must be strings")
    fields = row.get("fields", [])
    if not isinstance(fields, list):
        raise ValueError(_FIELDS_SHAPE)
    for f in fields:
        if not (
            isinstance(f, dict)
            and isinstance(f.get("label"), str)
            and isinstance(f.get("value"), str)
        ):
            raise ValueError(_FIELDS_SHAPE)
    return row


def _references(run: Run, in_path: Path):
    """(keys, reference) of each reference `tag` decodes: the citations of a
    dataset, on the --split eval side when a split is given, or each
    non-blank line of a text file, where LF, CR LF and a lone CR end a line
    and FF, VT, U+0085 and U+2028 do not.
    A dataset row whose bibRef has no token, empty or `str.isspace` (the
    whitespace `str.split` splits on), is an EmptyInput naming it."""
    if is_json_lines(in_path):
        keep = _split_ids(run, "eval")
        for record in load_jsonl(in_path):
            if keep is None or record.id in keep:
                for cit in record.citations:
                    ref = cit["bibRef"]
                    if not ref or ref.isspace():
                        raise EmptyInput(
                            f"{_row_name(in_path, record.id, cit['style'])} "
                            "has a bibRef with no tokens to decode"
                        )
                    yield {"id": record.id, "style": cit["style"]}, ref
    elif run.get("split"):
        raise ValueError(f"--split selects dataset rows, but {in_path} is a text input")
    else:
        stripped = (line.strip() for line in _text_lines(in_path))
        yield from (({}, line) for line in stripped if line)


# References `tag` decodes per `tag_references` call.  A larger batch buys
# little time and costs memory: decoding the 2,000 references of
# tag_stream seed 1 took a median 41/37/35/48 ms in batches of
# 64/128/256/2,000 (2 shared vCPUs, sizes interleaved), while the `tag`
# process's peak RSS (VmHWM) was 34.3/35.1/36.5 MB at 64/128/256.
TAG_BATCH = 64


def cmd_tag(run: Run) -> None:
    _load("dataset", "hmm")
    model = HmmModel.load(run.read(run.get("model")))
    in_path = run.read(run.get("in"))

    # zip draws from `counted` only after it got a row, so `counted`
    # advances once per row written.
    counted = itertools.count()

    def rows():
        nonlocal model
        decoder = None
        references = _references(run, in_path)
        while batch := list(itertools.islice(references, TAG_BATCH)):
            if decoder is None:
                # Built at the first batch, so an input with no reference
                # never imports numpy.  Only the decoder is kept: the
                # model's counts are freed here.
                decoder, model = model.decoder, None
            tagged = tag_references(decoder, [reference for _, reference in batch])
            for (keys, reference), (extracted, log_prob), _ in zip(batch, tagged, counted):
                fields = [{"label": f.label, "value": f.value} for f in extracted]
                yield dict(keys, reference=reference, fields=fields, log_prob=log_prob)

    out = run.get("out")
    run.wrote(out, write_json_lines(out, rows()))
    print(f"tagged {next(counted)} references")


def cmd_evaluate(run: Run) -> None:
    _load("dataset", "evaluate")
    tagged_path = run.read(run.get("in"))
    records = load_jsonl(run.read(run.get("dataset")))
    eval_ids = _split_ids(run, "eval")
    policy = EvalPolicy(
        **_resolved(
            tau=run.get("tau"),
            count_near_as_correct=run.get("near_as_correct"),
        )
    )
    report = evaluate_dataset(
        read_json_lines(tagged_path, _tagged_row), records, policy, eval_ids=eval_ids
    )
    out = run.get("out")
    if out:
        run.wrote(out, write_report(report, out))
    print(format_report(report))


def cmd_harvest(run: Run) -> None:
    import random

    _load("harvest")
    agents = run.get("user_agent")
    config = HarvestConfig(
        url_template=run.get("url_template"),
        id_start=run.get("id_start", 1),
        id_end=run.get("id_end"),
        output_path=run.get("out"),
        **_resolved(
            td_millis=run.get("td"),
            rid_millis=run.get("rid"),
            user_agents=tuple(agents) if agents else None,
            max_retries=run.get("max_retries"),
            checkpoint_path=run.get("checkpoint"),
            allow_external=run.get("allow_external"),
        ),
    )
    seed = run.get("seed")
    rng = random.Random(seed) if seed is not None else None
    if run.get("resume", False):
        stats = resume(config, rng)
    else:
        stats = harvest(config, rng)
    run.wrote(config.output_path)
    run.wrote(config.checkpoint_path)
    csv_out = run.get("efficiency_csv")
    if csv_out:
        digest = write_efficiency_csv(efficiency_series(config.log_path), csv_out)
        run.wrote(csv_out, digest)
    print(
        json.dumps(
            {
                "requests": stats.requests,
                "entries": stats.entries,
                "fetched_ids": stats.fetched_ids,
                "skips": stats.skips,
                "entries_per_request": stats.efficiency,
            }
        )
    )


def _rules(run: Run, flag: str, shape: str, sizes) -> list[list[int]]:
    """The colon-separated integers of each --`flag` rule, `sizes` of them and
    none negative; any other rule is a ValueError naming the flag and the rule."""
    rules = []
    for rule in run.get(flag) or []:
        try:
            numbers = [int(part) for part in rule.split(":")]
        except ValueError:
            numbers = []
        if len(numbers) not in sizes or min(numbers) < 0:
            raise ValueError(f"--{flag} {rule!r}: expected {shape}")
        rules.append(numbers)
    return rules


def cmd_serve_fixture(run: Run) -> None:
    from .fixture import FixtureScript, FixtureServer

    script = FixtureScript()
    for fid, status, *times in _rules(run, "fail", "id:status[:times]", (2, 3)):
        script.fail_status[fid] = status
        if times:
            script.fail_times[fid] = times[0]
    for fid, count in _rules(run, "multi", "id:count", (2,)):
        script.entries[fid] = count
    port = run.get("port", 8344)
    if not 0 <= port <= 65535:
        raise ValueError(f"--port {port}: expected a port number 0-65535")
    server = FixtureServer(script, port=port)
    server.start()
    print(f"fixture server on {server.base_url} (Ctrl+C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()


IN, OUT = {"--in": {}}, {"--out": {}}
STYLES = {
    "--styles": {"help": "style directory (default: builtin styles)"},
    "--style": {"help": "restrict to one style id"},
}
INT, SWITCH = {"type": int}, {"action": "store_const", "const": True}

# Each subcommand's handler, the flags it cannot run without (checked in
# this order), and its flags as `add_argument` keywords, in --help order.
# Every subcommand also takes --config.
SUBCOMMANDS = {
    "parse": (cmd_parse, ("in", "out"), {**IN, **OUT, "--issues": {}}),
    "clean": (cmd_clean, ("in", "out"), {
        **IN, **OUT, "--strip-fields": {}, "--keep-homepage-misc": SWITCH,
    }),
    "stats": (cmd_stats, ("in",), {"--in": {"nargs": "+"}, **OUT}),
    "render": (cmd_render, ("in", "out"), {**IN, **OUT, **STYLES}),
    "annotate": (cmd_annotate, ("in", "out"), {**IN, **OUT, **STYLES}),
    "build": (cmd_build, ("in", "out"), {
        **IN, **OUT, **STYLES, "--format": {"choices": ("jsonl", "csv")},
    }),
    "split": (cmd_split, ("in", "out"), {**IN, **OUT, "--seed": INT}),
    "train": (cmd_train, ("in", "out"), {
        **IN, **OUT, "--split": {}, "--alpha": {"type": float},
    }),
    "tag": (cmd_tag, ("model", "in", "out"), {**IN, **OUT, "--model": {}, "--split": {}}),
    "evaluate": (cmd_evaluate, ("in", "dataset"), {
        **IN, **OUT, "--dataset": {}, "--split": {}, "--tau": {"type": float},
        "--near-as-correct": SWITCH,
    }),
    "harvest": (cmd_harvest, ("url_template", "id_end", "out"), {
        **OUT, "--url-template": {}, "--id-start": INT, "--id-end": INT,
        "--td": INT, "--rid": INT, "--user-agent": {"action": "append"},
        "--max-retries": INT, "--checkpoint": {}, "--resume": SWITCH,
        "--allow-external": SWITCH, "--seed": INT, "--efficiency-csv": {},
    }),
    "serve-fixture": (cmd_serve_fixture, (), {
        "--port": INT, "--fail": {"action": "append"}, "--multi": {"action": "append"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citeforge",
        description="Synthesize citation training data, train a tagger, score parsers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file mirroring flags")
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, required, _ = SUBCOMMANDS[args.subcommand]
    try:
        run = Run(args)
        for name in required:
            if run.get(name) is None:
                flag = name.replace("_", "-")
                print(f"error: missing required flag --{flag}", file=sys.stderr)
                raise SystemExit(2)
        handler(run)
        run.finish()
        return 0
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script() -> None:
    """`main` as a program, ended by `os._exit` once it returns and stdout
    and stderr are flushed (see the module docstring)."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        # Teardown retries the flush and reports it, as it always did.
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    script()
