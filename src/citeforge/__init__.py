"""citeforge: citation-string training data from BibTeX, an HMM tagger to
learn from it, and a field-level evaluation harness."""

__version__ = "0.1.0"

from .annotation import MalformedAnnotation, parse_annotation, strip_tags
from .bibtex import (
    BibEntry,
    CleanPolicy,
    CleanStats,
    IssueKind,
    ValidationIssue,
    clean_corpus,
    field_histogram,
    parse_bibtex,
    serialize,
    type_histogram,
    validate_entry,
)
from .dataset import (
    BuildStats,
    DatasetRecord,
    SplitManifest,
    build_dataset,
    dataset_stats,
    export,
    load_jsonl,
    split_dataset,
)
from .evaluate import (
    EvalPolicy,
    EvalReport,
    ExtractedField,
    MatchClass,
    classify_match,
    evaluate_dataset,
    format_report,
    ground_truth_fields,
    levenshtein,
    normalize,
    score,
)
from .harvest import (
    Checkpoint,
    HarvestConfig,
    HarvestStats,
    efficiency_series,
    harvest,
    resume,
)
from .hmm import (
    HmmModel,
    LabelSequence,
    align_training,
    tag_reference,
    tag_references,
    train_hmm,
    viterbi,
)
from .refsection import NoReferenceSection, ReferenceBlock, extract_references
from .styles import (
    MissingVariable,
    RenderedReference,
    Segment,
    StyleTemplate,
    annotate,
    load_builtin_styles,
    load_styles,
    render,
)
from .tokens import FeatureVector, Token, tokenize
