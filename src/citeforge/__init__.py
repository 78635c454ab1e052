"""citeforge: citation-string training data from BibTeX, an HMM tagger to
learn from it, and a field-level evaluation harness.

The names below load on first access (PEP 562): `citeforge.parse_bibtex`,
or `from citeforge import parse_bibtex`, imports only the submodule that
defines the name, so `import citeforge` alone compiles none of them.
`_EXPORTS` is also the CLI's table: a stage binds the names of the
modules it runs from it (`cli._load`), so every name a stage calls is
one the package exports.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "annotation": ("MalformedAnnotation", "parse_annotation", "strip_tags"),
    "bibtex": (
        "BibEntry", "CleanPolicy", "CleanStats", "IssueKind", "ValidationIssue",
        "clean_corpus", "field_histogram", "histogram_table", "parse_bibtex",
        "serialize", "type_histogram", "validate_entry",
    ),
    "dataset": (
        "BuildStats", "DatasetRecord", "SplitManifest", "build_dataset",
        "dataset_stats", "export", "load_jsonl", "split_dataset",
    ),
    "evaluate": (
        "EvalPolicy", "EvalReport", "MatchClass", "classify_match",
        "evaluate_dataset", "format_report", "ground_truth_fields", "levenshtein",
        "normalize", "score", "write_report",
    ),
    "harvest": (
        "Checkpoint", "HarvestConfig", "HarvestStats", "efficiency_series",
        "harvest", "resume", "write_efficiency_csv",
    ),
    "hmm": (
        "EmptyInput", "HmmModel", "LabelSequence", "align_training",
        "tag_reference", "tag_references", "train_hmm", "viterbi",
    ),
    "labels": ("ExtractedField",),
    "refsection": ("NoReferenceSection", "ReferenceBlock", "extract_references"),
    "styles": (
        "MissingVariable", "RenderedReference", "Segment", "StyleTemplate",
        "annotate", "builtin_styles_dir", "load_builtin_styles", "load_styles",
        "render",
    ),
    "tokens": ("FeatureVector", "Token", "tokenize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f"{__name__}.{module}")
    # Every name of the submodule is bound after its import, which binds the
    # submodule itself here: the package's `harvest` is the function, not
    # the module of that name.
    for export in _EXPORTS[module]:
        globals()[export] = getattr(submodule, export)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
