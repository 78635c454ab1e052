"""Deterministic synthetic BibTeX corpora.

Everything here is driven by a caller-supplied random.Random, so corpora,
datasets and trained models are reproducible from a seed.  The pools are
small enough that token surfaces repeat across a corpus (the tagger's
vocabulary needs recurring evidence) but large enough to keep references
diverse.
"""

from __future__ import annotations

import random

from .bibtex import BibEntry

SURNAMES = (
    "Argon", "McLaughlin", "Shachter", "Levitt", "Kanal", "Lemmer", "Ryan",
    "Beel", "Tkaczyk", "Councill", "Giles", "McCallum", "Seymore", "Peng",
    "Pinto", "Lafferty", "Hetzner", "Yin", "Cortez", "Gao", "Zhang", "Lin",
    "Lipinski", "Yu", "Han", "Wu", "Groza", "Halevy", "Norvig", "Fedoryszak",
    "Bolikowski", "Dendek", "Lopez", "Romary", "Cuong", "Chandrasekaran",
    "Kan", "Luong", "Nguyen", "OConnor", "Smith", "Jones", "Murphy",
    "Walsh", "Byrne", "Kelly", "Doyle", "Brennan", "Keane", "Nolan",
    "Hughes", "Moore", "Clarke", "Kavanagh", "Duffy", "Flynn", "Barrett",
    "Molloy", "Whelan", "Cusack",
)

GIVEN_NAMES = (
    "Cenk", "Steven W.", "Niall", "Dominika", "Isaac G.", "C. Lee", "Kris",
    "Andrew", "Alan", "Peter", "Min-Yen", "Thang", "Joeran", "Luca",
    "Piero", "Alessandro", "Mateusz", "Lukasz", "Piotr", "Patrice",
    "Laurent", "Erik", "Ping", "Xiaoli", "Fuchun", "Conor", "Owen",
    "Declan", "Caroline", "Aidan", "Maeve", "Sinead", "Brian", "Eoin",
    "Aoife", "Ciara", "Fergal", "Grainne", "Hugh", "Ita",
)

TITLE_WORDS = (
    "parallel", "decoder", "low", "latency", "decoding", "turbo", "product",
    "codes", "citation", "parsing", "metadata", "extraction", "reference",
    "strings", "sequence", "labeling", "hidden", "markov", "models",
    "conditional", "random", "fields", "training", "data", "synthesis",
    "evaluation", "bibliographic", "records", "digital", "libraries",
    "search", "engines", "recommender", "systems", "machine", "learning",
    "neural", "networks", "feature", "engineering", "tokenization",
    "segmentation", "annotation", "schemes", "precision", "recall",
    "scalable", "harvesting", "crawling", "indexing", "matching",
    "disambiguation", "impact", "analysis", "open", "source", "corpora",
    "styles", "templates", "pipelines", "chunked", "streaming", "noisy",
    "robust", "adaptive", "supervised", "probabilistic", "structured",
    "prediction", "inference", "optimization", "large", "scale",
)

TITLE_OPENERS = ("A", "The", "An", "On", "Towards", "Improving", "Learning")

JOURNALS = (
    "IEEE Communications Letters",
    "Journal of Machine Learning Research",
    "Communications of the ACM",
    "Information Processing and Management",
    "International Journal on Digital Libraries",
    "Journal of Documentation",
    "ACM Computing Surveys",
    "Pattern Recognition Letters",
    "Scientometrics",
    "D-Lib Magazine",
    "Journal of Informetrics",
    "Knowledge and Information Systems",
)

CONFERENCE_TOPICS = (
    "Digital Libraries",
    "Machine Learning",
    "Information Retrieval",
    "Computational Linguistics",
    "Knowledge Discovery",
    "Web Search and Data Mining",
    "Artificial Intelligence",
)

PUBLISHERS = (
    "Springer", "Elsevier", "ACM Press", "IEEE Press", "North-Holland",
    "MIT Press", "Cambridge University Press", "Wiley",
)

ADDRESSES = (
    "Dublin", "New York", "Berlin", "Amsterdam", "Cambridge", "London",
    "Singapore", "Tokyo",
)

SCHOOLS = (
    "Trinity College Dublin", "University of Limerick", "Stanford University",
    "Carnegie Mellon University", "University of Edinburgh",
)

INSTITUTIONS = (
    "ADAPT Centre", "National Institute of Informatics",
    "Fraunhofer Institute", "INRIA",
)

SERIES = ("LNCS", "Studies in Computational Intelligence", "Advances in NLP")

NOTES = (
    "In press", "To appear", "Preprint", "Extended version",
    "Second revision", "Books & Texts reprint",
)

ENTRY_TYPE_WEIGHTS = (
    ("article", 40),
    ("inproceedings", 25),
    ("book", 8),
    ("proceedings", 5),
    ("incollection", 5),
    ("phdthesis", 4),
    ("mastersthesis", 3),
    ("techreport", 3),
    ("misc", 2),
    ("unpublished", 2),
    ("manual", 1),
    ("booklet", 1),
    ("inbook", 1),
    ("conference", 1),
)


def random_name_list(rng: random.Random, n: int | None = None) -> str:
    n = n or rng.choice((1, 1, 2, 2, 2, 3, 4))
    names = []
    for _ in range(n):
        surname = rng.choice(SURNAMES)
        given = rng.choice(GIVEN_NAMES)
        if rng.random() < 0.5:
            names.append(f"{surname}, {given}")
        else:
            names.append(f"{given} {surname}")
    return " and ".join(names)


def random_title(rng: random.Random) -> str:
    n_words = rng.randint(4, 9)
    words = [rng.choice(TITLE_OPENERS)] + rng.sample(TITLE_WORDS, n_words)
    return " ".join(words)


def random_pages(rng: random.Random) -> str:
    start = rng.randint(1, 900)
    sep = rng.choice(("--", "-"))
    return f"{start}{sep}{start + rng.randint(1, 40)}"


def random_booktitle(rng: random.Random) -> str:
    nth = rng.randint(2, 30)
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(nth % 10 if nth not in (11, 12, 13) else 0, "th")
    topic = rng.choice(CONFERENCE_TOPICS)
    return f"Proceedings of the {nth}{suffix} International Conference on {topic}"


def random_entry(
    rng: random.Random, key: str | None = None, source_tag: str | None = None
) -> BibEntry:
    """One plausible entry; always carries author, title and year so every
    shipped style can render it."""
    types, weights = zip(*ENTRY_TYPE_WEIGHTS)
    entry_type = rng.choices(types, weights=weights, k=1)[0]
    fields: dict[str, str] = {}
    fields["author"] = random_name_list(rng)
    fields["title"] = random_title(rng)
    year = rng.randint(1970, 2023)
    fields["year"] = str(year)

    if entry_type in ("article",):
        fields["journal"] = rng.choice(JOURNALS)
        fields["volume"] = str(rng.randint(1, 60))
        if rng.random() < 0.8:
            fields["number"] = str(rng.randint(1, 12))
        fields["pages"] = random_pages(rng)
        if rng.random() < 0.4:
            fields["doi"] = f"10.1109/{rng.randint(1000, 9999)}.{rng.randint(100000, 999999)}"
        if rng.random() < 0.3:
            fields["url"] = f"https://doi.org/10.1109/{rng.randint(1000, 9999)}.{rng.randint(100000, 999999)}"
    elif entry_type in ("inproceedings", "conference", "incollection", "inbook"):
        fields["booktitle"] = random_booktitle(rng)
        if rng.random() < 0.7:
            fields["pages"] = random_pages(rng)
        if rng.random() < 0.5:
            fields["publisher"] = rng.choice(PUBLISHERS)
        if rng.random() < 0.4:
            fields["editor"] = random_name_list(rng, rng.randint(1, 2))
        if rng.random() < 0.3:
            fields["address"] = rng.choice(ADDRESSES)
        if entry_type == "inbook":
            fields["chapter"] = str(rng.randint(1, 20))
    elif entry_type in ("book", "booklet", "manual", "proceedings"):
        fields["publisher"] = rng.choice(PUBLISHERS)
        if rng.random() < 0.5:
            fields["address"] = rng.choice(ADDRESSES)
        if rng.random() < 0.4:
            fields["edition"] = rng.choice(("Second", "Third", "2nd", "3rd"))
        if rng.random() < 0.3:
            fields["series"] = rng.choice(SERIES)
        if entry_type == "proceedings" and rng.random() < 0.6:
            fields["editor"] = random_name_list(rng, rng.randint(1, 3))
    elif entry_type in ("phdthesis", "mastersthesis"):
        fields["school"] = rng.choice(SCHOOLS)
        if rng.random() < 0.4:
            fields["address"] = rng.choice(ADDRESSES)
    elif entry_type == "techreport":
        fields["institution"] = rng.choice(INSTITUTIONS)
        fields["number"] = f"TR-{rng.randint(1, 400)}"
    elif entry_type == "unpublished":
        fields["note"] = rng.choice(NOTES)
    elif entry_type == "misc":
        if rng.random() < 0.5:
            fields["howpublished"] = "Online"
        if rng.random() < 0.4:
            fields["note"] = rng.choice(NOTES)

    if rng.random() < 0.15 and "note" not in fields:
        fields["note"] = rng.choice(NOTES)

    first_author = fields["author"].split(",")[0].split()[-1].lower()
    key = key or f"{first_author}{year}{rng.randint(0, 9999):04d}"
    return BibEntry(entry_type, key, fields, source_tag)


def random_corpus(
    rng: random.Random, n: int, source_tag: str | None = None
) -> list[BibEntry]:
    """n entries with unique citation keys."""
    entries = []
    seen = set()
    while len(entries) < n:
        entry = random_entry(rng, source_tag=source_tag)
        if entry.key in seen:
            continue
        seen.add(entry.key)
        entries.append(entry)
    return entries


def homepage_misc_entry(rng: random.Random) -> BibEntry:
    """A DBLP-style homepage stub: @misc keyed homepages/..., no title/year."""
    surname = rng.choice(SURNAMES)
    return BibEntry(
        "misc",
        f"homepages/{surname[0].lower()}/{surname}",
        {"author": f"{surname}, {rng.choice(GIVEN_NAMES)}"},
    )


def entry_to_noisy_bibtex(rng: random.Random, entry: BibEntry) -> str:
    """Serialize an entry with the formatting variance of real exports:
    mixed delimiters, random case, erratic whitespace, nested braces."""
    type_txt = entry.entry_type.upper() if rng.random() < 0.3 else entry.entry_type
    lines = [f"@{type_txt}{{{entry.key},"]
    for name, value in entry.fields.items():
        shown = name.capitalize() if rng.random() < 0.3 else name
        pad = " " * rng.randint(0, 4)
        if rng.random() < 0.15 and "{" not in value:
            chunk = f'{pad}{shown} = "{value}"'
        elif rng.random() < 0.15 and " " in value and "{" not in value:
            head, _, tail = value.partition(" ")
            chunk = f"{pad}{shown} = {{{{{head}}} {tail}}}"  # brace-protected word
        else:
            chunk = f"{pad}{shown} = {{{value}}}"
        lines.append(chunk + ("," if rng.random() < 0.9 else " ,"))
    lines.append("}")
    return "\n".join(lines)


def random_bibtex_file(rng: random.Random, n: int) -> str:
    """BibTeX text of n entries with noisy formatting and stray comments."""
    parts = []
    if rng.random() < 0.3:
        parts.append("% exported by a well-meaning tool\n")
    for entry in random_corpus(rng, n):
        parts.append(entry_to_noisy_bibtex(rng, entry))
        parts.append("\n" * rng.randint(1, 3))
    return "".join(parts)


def sample_article() -> BibEntry:
    """A fixed turbo-product-codes article, handy for demos and exact-output tests."""
    return BibEntry(
        "article",
        "argon2002parallel",
        {
            "author": "Argon, Cenk and McLaughlin, Steven W.",
            "title": "A parallel decoder for low latency decoding of turbo product codes",
            "journal": "IEEE Communications Letters",
            "year": "2002",
            "volume": "6",
            "number": "2",
            "pages": "70--72",
            "doi": "10.1109/4234.984698",
            "url": "https://doi.org/10.1109/4234.984698",
        },
    )
