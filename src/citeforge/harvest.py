"""Rate-limited, checkpointed BibTeX fetching over HTTP.

A single serialized request stream walks an iterative-id URL template.
Between requests the harvester waits a fixed threshold delay plus a random
increment, rotates user agents per request, appends every successful body
to the output file and a row to its `.log`, and then replaces the
checkpoint, which records the length in bytes of both files.  A crash
costs at most one refetch: `resume` truncates both files to those
lengths, dropping a body or row appended after the last checkpoint.
A body that is not UTF-8 is not retried: its id is logged and counted as a
skip, and the checkpoint's `last_error` gives the bad byte's offset.
Only local fixture servers are allowed unless explicitly overridden.
`urllib.request` is imported inside `_fetch`, so importing the package
does not load the HTTP and TLS stack.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
import urllib.parse
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .bibtex import parse_bibtex
from .jsonfile import read_json, read_json_lines, write_chunks, write_text


FETCH_TIMEOUT_S = 10.0
# The longest delay `validate` lets a run ask `time.sleep` for.  On Linux
# a wait whose monotonic deadline passes 2**63 ns fails, so
# `threading.TIMEOUT_MAX` itself does; half of it leaves 146 years of uptime.
MAX_SLEEP_S = threading.TIMEOUT_MAX / 2


class ConfigError(ValueError):
    pass


class CorruptCheckpoint(ValueError):
    pass


class HarvestConfig:
    def __init__(
        self,
        url_template: str,
        id_start: int,
        id_end: int,  # inclusive
        td_millis: int = 1000,
        rid_millis: int = 500,
        user_agents: tuple[str, ...] = ("citeforge/" + __version__,),
        max_retries: int = 2,
        output_path: str | Path = "harvest.bib",
        checkpoint_path: str | Path | None = None,  # None: <output_path>.checkpoint.json
        allow_external: bool = False,
    ):
        self.url_template, self.id_start, self.id_end = url_template, id_start, id_end
        self.td_millis, self.rid_millis = td_millis, rid_millis
        self.user_agents, self.max_retries = user_agents, max_retries
        self.output_path, self.allow_external = output_path, allow_external
        if checkpoint_path is None:
            checkpoint_path = Path(str(output_path) + ".checkpoint.json")
        self.checkpoint_path = checkpoint_path

    @property
    def log_path(self) -> Path:
        return Path(str(self.output_path) + ".log")

    def validate(self) -> None:
        if self.url_template.count("{id}") != 1:
            raise ConfigError("url_template must contain exactly one {id}")
        # A bool is neither a count nor a delay here.
        for name in ("id_start", "id_end", "max_retries"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.id_start > self.id_end:
            raise ConfigError("empty id range")
        for name in ("td_millis", "rid_millis"):
            value = getattr(self, name)
            # NaN and inf would pass the `< 0` test below; -inf fails it.
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
                value < math.inf
            ):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.td_millis < 0 or self.rid_millis < 0:
            raise ConfigError("delays must be nonnegative")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be nonnegative")
        # The last retry's delay, without building 2**max_retries as an int.
        try:
            longest_ms = math.ldexp(self.td_millis, self.max_retries) + self.rid_millis
        except OverflowError:
            longest_ms = math.inf
        if longest_ms / 1000 > MAX_SLEEP_S:
            raise ConfigError(
                "delays too long: td_millis * 2**max_retries + rid_millis "
                f"exceeds {MAX_SLEEP_S * 1000:.0f} ms"
            )
        if not self.user_agents:
            raise ConfigError("at least one user agent is required")
        if not self.allow_external:
            host = urllib.parse.urlparse(self.url_template).hostname or ""
            if host not in ("localhost", "127.0.0.1", "::1"):
                raise ConfigError(
                    f"refusing non-local host {host!r}; set allow_external to override"
                )


class Checkpoint(NamedTuple):
    last_id: int
    entries_count: int
    output_offset: int  # bytes of output written up to and including last_id
    log_offset: int  # bytes of the .log written up to and including last_id
    last_error: str | None = None

    def write(self, path: str | Path) -> None:
        """Replace the checkpoint file: a reader sees the old checkpoint or
        the new one, never a partial write."""
        write_text(path, json.dumps(self._asdict()))

    @classmethod
    def read(cls, path: str | Path) -> "Checkpoint":
        if not Path(path).is_file():
            raise CorruptCheckpoint(f"no checkpoint at {path}")
        return read_json(path, cls.from_json_dict, CorruptCheckpoint)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Checkpoint":
        checkpoint = cls(**data)
        if not all(type(n) is int for n in checkpoint[:4]):
            raise ValueError("last_id, entries_count and the offsets must be integers")
        for name in ("entries_count", "output_offset", "log_offset"):
            if getattr(checkpoint, name) < 0:
                raise ValueError(f"negative {name}")
        if not isinstance(checkpoint.last_error, (str, type(None))):
            raise ValueError("last_error must be a string or null")
        return checkpoint


class HarvestStats:
    def __init__(self):
        self.requests = self.entries = self.fetched_ids = self.skips = 0
        self.skipped_ids: list[int] = []

    @property
    def efficiency(self) -> float:
        """Entries gained per request made (the 1-for-1 yardstick)."""
        return self.entries / self.requests if self.requests else 0.0


def _fetch(url: str, user_agent: str) -> tuple[int, bytes]:
    """HTTP status (0 for a connection error) and body of one request."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers={"User-Agent": user_agent})
    try:
        with urllib.request.urlopen(request, timeout=FETCH_TIMEOUT_S) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, b""
    except (urllib.error.URLError, OSError):
        return 0, b""


def _run(config: HarvestConfig, start: Checkpoint, rng: random.Random) -> HarvestStats:
    """Fetch the ids after `start.last_id`, first checkpointing `start` with
    the current lengths of the output and the log, so a crash on the first
    id is resumable."""
    stats = HarvestStats()
    out_path = Path(config.output_path)
    log_path = config.log_path
    with open(out_path, "ab") as out, open(log_path, "ab") as log:
        start._replace(output_offset=out.tell(), log_offset=log.tell()).write(
            config.checkpoint_path
        )
        for current_id in range(start.last_id + 1, config.id_end + 1):
            body = None
            error = None
            for attempt in range(config.max_retries + 1):
                if stats.requests:
                    delay = config.td_millis * 2**attempt
                    delay += rng.uniform(0, config.rid_millis)
                    time.sleep(delay / 1000.0)
                agent = rng.choice(config.user_agents)
                url = config.url_template.format(id=current_id)
                stats.requests += 1
                status, payload = _fetch(url, agent)
                if status != 200:
                    error = f"id {current_id}: HTTP {status or 'connection error'}"
                    continue
                try:
                    body = payload.decode("utf-8")
                except UnicodeDecodeError as exc:
                    # A refetch would bring the same bytes: skip the id.
                    error = f"id {current_id}: body is not UTF-8 at byte {exc.start}"
                break
            n_entries, outcome = 0, "skip"
            if body is not None:
                n_entries = len(parse_bibtex(body)[0])
                out.write(body.encode("utf-8"))
                if not body.endswith("\n"):
                    out.write(b"\n")
                out.flush()
                stats.entries += n_entries
                stats.fetched_ids += 1
                error, outcome = None, "ok"
            else:
                stats.skips += 1
                stats.skipped_ids.append(current_id)
            event = {"ts": time.time(), "id": current_id, "status": outcome,
                     "entries": n_entries}
            log.write((json.dumps(event) + "\n").encode("utf-8"))
            log.flush()
            Checkpoint(current_id, start.entries_count + stats.entries, out.tell(),
                       log.tell(), error).write(config.checkpoint_path)
    return stats


def harvest(config: HarvestConfig, rng: random.Random | None = None) -> HarvestStats:
    """Fetch the whole configured id range from scratch.

    The output and its `.log` must be missing or empty: a fresh run into
    files an earlier run wrote would append a second copy of its bodies
    and rows, so it raises ConfigError, writing nothing, and leaves
    continuing that run to `resume`.
    """
    config.validate()
    for path in (Path(config.output_path), config.log_path):
        if path.exists() and path.stat().st_size > 0:
            raise ConfigError(
                f"{path} already holds an earlier harvest; continue it with "
                "--resume, or remove it to start from scratch"
            )
    start = Checkpoint(config.id_start - 1, 0, 0, 0)
    return _run(config, start, rng or random.Random())


def resume(config: HarvestConfig, rng: random.Random | None = None) -> HarvestStats:
    """Continue from the checkpoint.

    Output and log past the checkpoint's offsets (a body and a row appended
    by a run that died before it checkpointed) are truncated away, so no body
    or row is kept twice.  Raises CorruptCheckpoint rather than guessing and
    refetching.
    """
    config.validate()
    checkpoint = Checkpoint.read(config.checkpoint_path)
    if not (config.id_start - 1 <= checkpoint.last_id <= config.id_end):
        raise CorruptCheckpoint(
            f"checkpoint id {checkpoint.last_id} outside range "
            f"{config.id_start}..{config.id_end}"
        )
    _truncate_to(Path(config.output_path), checkpoint.output_offset)
    _truncate_to(config.log_path, checkpoint.log_offset)
    return _run(config, checkpoint, rng or random.Random())


def _truncate_to(path: Path, length: int) -> None:
    """Cut `path` back to the `length` bytes a checkpoint recorded."""
    size = path.stat().st_size if path.exists() else 0
    if size < length:
        raise CorruptCheckpoint(
            f"{path} holds {size} bytes, fewer than the {length} the "
            "checkpoint recorded"
        )
    if size > length:
        os.truncate(path, length)


def efficiency_series(log_path: str | Path) -> list[tuple[float, int, float, float]]:
    """Per-id time series from a harvest log, one row per id.

    Rows are (timestamp, cumulative entries, entries the id gained,
    that count normalized by the best id's).  Empty log, empty list.
    """
    path = Path(log_path)
    if not path.exists():
        return []
    rows: list[tuple[float, int, float]] = []
    cumulative = 0
    for ts, entries in read_json_lines(path, _log_event):
        cumulative += entries
        rows.append((ts, cumulative, float(entries)))
    if not rows:
        return []
    best = max(r[2] for r in rows)
    return [
        (ts, total, eff, eff / best if best else 0.0) for ts, total, eff in rows
    ]


def _log_event(event: dict) -> tuple[float, int]:
    """Timestamp and entry count of one `.log` row."""
    ts, entries = event["ts"], event["entries"]
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or type(entries) is not int:
        raise ValueError("ts must be a number and entries an integer")
    if not -math.inf < ts < math.inf:
        raise ValueError(f"ts must be finite, got {ts}")
    if entries < 0:
        raise ValueError(f"negative entries {entries}")
    return ts, entries


def write_efficiency_csv(series, path: str | Path) -> str:
    """`efficiency_series` rows as CSV under a header, LF line ends;
    returns the file's sha256."""
    rows = (f"{ts},{total},{eff},{norm}\n" for ts, total, eff, norm in series)
    return write_chunks(path, ["timestamp,entries,entries_per_id,normalized\n", *rows])
