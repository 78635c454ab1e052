import importlib
import json
import math
import os
import random
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from citeforge.bibtex import parse_bibtex
from citeforge.fixture import FixtureScript, FixtureServer, bibtex_for_id
from citeforge.harvest import (
    MAX_SLEEP_S,
    Checkpoint,
    ConfigError,
    CorruptCheckpoint,
    HarvestConfig,
    efficiency_series,
    harvest,
    resume,
    write_efficiency_csv,
)


@pytest.fixture()
def server():
    with FixtureServer() as srv:
        yield srv


def make_config(server, tmp_path, **kw):
    defaults = dict(
        url_template=server.url_template(),
        id_start=1,
        id_end=5,
        td_millis=5,
        rid_millis=5,
        max_retries=1,
        output_path=tmp_path / "out.bib",
        checkpoint_path=tmp_path / "cp.json",
        user_agents=("agent-one", "agent-two"),
    )
    defaults.update(kw)
    return HarvestConfig(**defaults)


# --- config validation ---------------------------------------------------


def test_rejects_template_without_placeholder(tmp_path):
    cfg = HarvestConfig(
        url_template="http://localhost/bib",
        id_start=1,
        id_end=2,
        output_path=tmp_path / "o",
        checkpoint_path=tmp_path / "c",
    )
    with pytest.raises(ConfigError):
        cfg.validate()


def test_rejects_external_hosts_by_default(tmp_path):
    cfg = HarvestConfig(
        url_template="https://dl.acm.org/bib/{id}",
        id_start=1,
        id_end=2,
        output_path=tmp_path / "o",
        checkpoint_path=tmp_path / "c",
    )
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.allow_external = True
    cfg.validate()


def test_rejects_empty_range_and_negative_delays(tmp_path):
    with pytest.raises(ConfigError):
        HarvestConfig("http://localhost/{id}", 5, 4).validate()
    with pytest.raises(ConfigError):
        HarvestConfig("http://localhost/{id}", 1, 2, td_millis=-1).validate()


TOO_LONG = (
    "delays too long: td_millis * 2**max_retries + rid_millis "
    f"exceeds {MAX_SLEEP_S * 1000:.0f} ms"
)


@pytest.mark.parametrize(
    "change, message",
    [
        # Refused before counts had to be ints and delays finite: same messages.
        ({"id_start": 5, "id_end": 4}, "empty id range"),
        ({"td_millis": -1}, "delays must be nonnegative"),
        ({"rid_millis": -math.inf}, "delays must be nonnegative"),
        ({"max_retries": -1}, "max_retries must be nonnegative"),
        # These crashed the run midway, or passed.
        ({"td_millis": math.nan}, "td_millis must be a finite number, got nan"),
        ({"td_millis": math.inf}, "td_millis must be a finite number, got inf"),
        ({"rid_millis": math.nan}, "rid_millis must be a finite number, got nan"),
        ({"rid_millis": True}, "rid_millis must be a finite number, got True"),
        ({"td_millis": "5"}, "td_millis must be a finite number, got '5'"),
        ({"id_start": 1.0}, "id_start must be an integer, got 1.0"),
        ({"id_end": 2.5}, "id_end must be an integer, got 2.5"),
        ({"id_end": True}, "id_end must be an integer, got True"),
        ({"max_retries": math.inf}, "max_retries must be an integer, got inf"),
        ({"max_retries": False}, "max_retries must be an integer, got False"),
        ({"max_retries": "2"}, "max_retries must be an integer, got '2'"),
        # Longer than time.sleep can wait: the run died at its first sleep,
        # or at its last retry.
        ({"td_millis": 1e300, "rid_millis": 0}, TOO_LONG),
        ({"td_millis": 10**400}, TOO_LONG),
        ({"td_millis": 1000, "max_retries": 60}, TOO_LONG),
        ({"td_millis": 1, "max_retries": 10**9}, TOO_LONG),
        ({"rid_millis": 1e308}, TOO_LONG),
        ({"td_millis": 0, "rid_millis": 10**400}, TOO_LONG),
        ({"td_millis": 0, "rid_millis": math.nextafter(MAX_SLEEP_S * 1000, math.inf)},
         TOO_LONG),
    ],
    ids=["empty-range", "td-negative", "rid-minus-inf", "retries-negative", "td-nan",
         "td-inf", "rid-nan", "rid-bool", "td-str", "start-float", "end-float", "end-bool",
         "retries-inf", "retries-bool", "retries-str", "td-huge-float", "td-huge-int",
         "retries-60", "retries-1e9", "rid-huge-float", "rid-huge-int", "rid-past-limit"],
)
def test_validate_names_a_bad_count_or_delay(tmp_path, change, message):
    fields = dict(url_template="http://localhost/{id}", id_start=1, id_end=2,
                  output_path=tmp_path / "o")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        HarvestConfig(**dict(fields, **change)).validate()


@pytest.mark.parametrize(
    "change",
    [{"td_millis": 0, "rid_millis": 0, "max_retries": 10**9},
     {"td_millis": 0, "rid_millis": MAX_SLEEP_S * 1000},
     {"td_millis": MAX_SLEEP_S * 1000 / 2**40, "rid_millis": 0, "max_retries": 40}],
    ids=["no-delay-retries-1e9", "rid-at-limit", "td-at-limit"],
)
def test_validate_accepts_delays_up_to_the_limit(tmp_path, change):
    fields = dict(url_template="http://localhost/{id}", id_start=1, id_end=2,
                  output_path=tmp_path / "o")
    HarvestConfig(**dict(fields, **change)).validate()


def test_a_delay_too_long_to_sleep_is_refused_before_anything_is_written(server, tmp_path):
    cfg = make_config(server, tmp_path, id_end=3, td_millis=1e300, rid_millis=0)
    with pytest.raises(ConfigError, match="delays too long"):
        harvest(cfg, random.Random(1))
    assert not any(tmp_path.iterdir())
    assert server.request_log == []


def test_a_nan_delay_is_refused_before_anything_is_written(tmp_path, monkeypatch):
    sleeps = patch_fetch_and_sleep(monkeypatch)
    cfg = local_config(tmp_path, id_end=3)
    cfg.td_millis = math.nan
    with pytest.raises(ConfigError, match="td_millis"):
        harvest(cfg, random.Random(1))
    assert sleeps == []
    assert not any(tmp_path.iterdir())


def test_defaults_are_the_ones_the_cli_uses(tmp_path):
    from citeforge import __version__

    cfg = HarvestConfig("http://localhost/{id}", 1, 2, output_path=tmp_path / "h.bib")
    assert Path(cfg.checkpoint_path) == tmp_path / "h.bib.checkpoint.json"
    assert cfg.user_agents == ("citeforge/" + __version__,)


# --- fixture determinism --------------------------------------------------


def test_fixture_bodies_are_deterministic_bibtex():
    one = bibtex_for_id(9)
    assert one == bibtex_for_id(9)
    entries, issues = parse_bibtex(one)
    assert len(entries) == 1 and not issues
    three, _ = parse_bibtex(bibtex_for_id(9, count=3))
    assert len(three) == 3


def test_fixture_log_route_serves_receive_timestamps(server, tmp_path):
    import urllib.request

    cfg = make_config(server, tmp_path, id_end=3)
    harvest(cfg, random.Random(0))
    with urllib.request.urlopen(server.base_url + "/log", timeout=5) as resp:
        log = json.loads(resp.read())
    bib_events = [e for e in log if e["id"] in (1, 2, 3)]
    assert [e["id"] for e in bib_events] == [1, 2, 3]
    assert all("ts" in e and "user_agent" in e for e in bib_events)
    timestamps = [e["ts"] for e in bib_events]
    assert timestamps == sorted(timestamps)


def test_fixture_stops_promptly():
    server = FixtureServer().start()
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 0.25


class _SlowLookup(dict):
    """A status map whose lookups sleep, so other requests run meanwhile: a
    server that reads an id's failure budget and decrements it in two
    critical sections then loses decrements."""

    def get(self, key, default=None):
        time.sleep(0.01)
        return super().get(key, default)


def test_fixture_fails_an_id_exactly_fail_times_under_concurrent_requests():
    import sys
    import threading
    import urllib.error
    import urllib.request

    clients, times = 8, 3
    script = FixtureScript(fail_status=_SlowLookup({4: 503}), fail_times={4: times})
    statuses, log = [], None
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with FixtureServer(script) as srv:
            barrier = threading.Barrier(clients, timeout=10)

            def fetch():
                barrier.wait()
                try:
                    with urllib.request.urlopen(srv.base_url + "/bib/4", timeout=10) as resp:
                        statuses.append(resp.status)
                except urllib.error.HTTPError as exc:
                    statuses.append(exc.code)

            threads = [threading.Thread(target=fetch) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            assert not any(thread.is_alive() for thread in threads)
            with urllib.request.urlopen(srv.base_url + "/log", timeout=10) as resp:
                log = json.loads(resp.read())
    finally:
        sys.setswitchinterval(switch)
    assert sorted(statuses) == [200] * (clients - times) + [503] * times
    assert [e["id"] for e in log] == [4] * clients


# --- harvesting ----------------------------------------------------------


def test_harvest_all_ok(server, tmp_path):
    cfg = make_config(server, tmp_path)
    stats = harvest(cfg, random.Random(1))
    assert stats.fetched_ids == 5
    assert stats.entries == 5
    assert stats.skips == 0
    entries, issues = parse_bibtex(cfg.output_path.read_text())
    assert len(entries) == 5 and not issues
    checkpoint = Checkpoint.read(cfg.checkpoint_path)
    assert checkpoint.last_id == 5 and checkpoint.entries_count == 5


@pytest.mark.parametrize("leftover", ["out.bib", "out.bib.log"])
def test_fresh_harvest_refuses_an_earlier_runs_files(server, tmp_path, leftover):
    cfg = make_config(server, tmp_path)
    (tmp_path / leftover).write_text("from an earlier run\n")
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    with pytest.raises(ConfigError, match="--resume"):
        harvest(cfg, random.Random(1))
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_second_fresh_harvest_refuses_and_keeps_the_first(server, tmp_path):
    cfg = make_config(server, tmp_path)
    harvest(cfg, random.Random(1))
    files = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    with pytest.raises(ConfigError, match="--resume"):
        harvest(cfg, random.Random(1))
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == files


def test_fresh_harvest_accepts_empty_files(server, tmp_path):
    cfg = make_config(server, tmp_path)
    (tmp_path / "out.bib").write_text("")
    (tmp_path / "out.bib.log").write_text("")
    assert harvest(cfg, random.Random(1)).fetched_ids == 5


def test_persistent_failure_is_skipped(tmp_path):
    script = FixtureScript(fail_status={3: 500})
    with FixtureServer(script) as server:
        cfg = make_config(server, tmp_path, max_retries=2)
        stats = harvest(cfg, random.Random(2))
    assert stats.skips == 1
    assert stats.skipped_ids == [3]
    assert stats.fetched_ids == 4
    # 4 clean ids + 3 attempts on the failing one
    assert stats.requests == 7


def test_transient_failure_recovers_after_retry(tmp_path):
    script = FixtureScript(fail_status={2: 503}, fail_times={2: 1})
    with FixtureServer(script) as server:
        cfg = make_config(server, tmp_path, max_retries=2)
        stats = harvest(cfg, random.Random(3))
    assert stats.skips == 0
    assert stats.fetched_ids == 5
    assert stats.requests == 6


def test_multi_entry_body_counts_all_entries(tmp_path):
    script = FixtureScript(entries={4: 3})
    with FixtureServer(script) as server:
        cfg = make_config(server, tmp_path)
        stats = harvest(cfg, random.Random(4))
    assert stats.entries == 7  # 4 singles + 1 triple
    assert stats.efficiency > 1.0


def test_a_body_that_is_not_utf8_is_skipped_without_retry(tmp_path):
    latin1 = {
        n: f"@article{{m{n}, author = {{Müller, J.}}, title = {{T}}}}\n".encode("latin-1")
        for n in (3, 5)
    }
    requested = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            fixture_id = int(self.path.removeprefix("/bib/"))
            requested.append(fixture_id)
            body = latin1.get(fixture_id) or bibtex_for_id(fixture_id).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()
    try:
        template = f"http://127.0.0.1:{httpd.server_address[1]}/bib/{{id}}"
        cfg = make_config(SimpleNamespace(url_template=lambda: template), tmp_path, max_retries=2)
        stats = harvest(cfg, random.Random(5))
    finally:
        httpd.shutdown()
        httpd.server_close()
    assert requested == [1, 2, 3, 4, 5]
    assert (stats.requests, stats.fetched_ids, stats.entries) == (5, 3, 3)
    assert (stats.skips, stats.skipped_ids) == (2, [3, 5])
    body = cfg.output_path.read_bytes()
    assert body == b"".join(bibtex_for_id(n).encode() for n in (1, 2, 4))
    rows = [json.loads(line) for line in cfg.log_path.read_text().splitlines()]
    assert [(row["id"], row["status"], row["entries"]) for row in rows] == [
        (1, "ok", 1), (2, "ok", 1), (3, "skip", 0), (4, "ok", 1), (5, "skip", 0)
    ]
    offset = latin1[5].index("ü".encode("latin-1"))
    assert Checkpoint.read(cfg.checkpoint_path).last_error == (
        f"id 5: body is not UTF-8 at byte {offset}"
    )


def test_throttle_lower_bound_at_server(server, tmp_path):
    cfg = make_config(server, tmp_path, td_millis=40, rid_millis=20)
    harvest(cfg, random.Random(5))
    log = server.request_log
    gaps = [b["monotonic"] - a["monotonic"] for a, b in zip(log, log[1:])]
    assert len(gaps) == 4
    assert all(gap >= 0.040 for gap in gaps)
    assert all(gap <= 0.060 + 0.25 for gap in gaps)


def test_zero_jitter_collapses_to_fixed_delay(server, tmp_path):
    cfg = make_config(server, tmp_path, id_end=10, td_millis=20, rid_millis=0)
    stats = harvest(cfg, random.Random(50))
    assert stats.entries == 10
    log = server.request_log
    gaps = [b["monotonic"] - a["monotonic"] for a, b in zip(log, log[1:])]
    assert all(gap >= 0.020 for gap in gaps)


def test_user_agent_rotation_covers_all_agents(server, tmp_path):
    # with 3 agents over 100 uniform draws, missing one is vanishingly rare
    cfg = make_config(
        server, tmp_path, id_end=100, td_millis=0, rid_millis=0,
        user_agents=("ua1", "ua2", "ua3"),
    )
    harvest(cfg, random.Random(6))
    seen = {event["user_agent"] for event in server.request_log}
    assert seen == {"ua1", "ua2", "ua3"}


def patch_fetch_and_sleep(monkeypatch, fails=None):
    """Serve each id's fixture body from memory, failing id n with HTTP 500
    the first `fails[n]` times, and record the seconds of each sleep."""
    fails_left = dict(fails or {})
    sleeps = []

    def fetch(url, user_agent):
        fixture_id = int(url.rsplit("/", 1)[1])
        if fails_left.get(fixture_id, 0) > 0:
            fails_left[fixture_id] -= 1
            return 500, b""
        return 200, bibtex_for_id(fixture_id).encode()

    # `citeforge.harvest` as a dotted name is the package's `harvest` function.
    monkeypatch.setattr(importlib.import_module("citeforge.harvest"), "_fetch", fetch)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps


def assert_delays(sleeps, bases_ms, rid_millis):
    """Each sleep is its base delay plus a jitter in [0, rid_millis] ms."""
    assert len(sleeps) == len(bases_ms)
    for slept, base in zip(sleeps, bases_ms):
        assert base / 1000 <= slept <= (base + rid_millis) / 1000


def local_config(tmp_path, **kw):
    return make_config(SimpleNamespace(url_template=lambda: "http://localhost/bib/{id}"),
                       tmp_path, td_millis=10, rid_millis=3, **kw)


def test_a_clean_run_of_k_ids_sleeps_k_minus_1_times(tmp_path, monkeypatch):
    sleeps = patch_fetch_and_sleep(monkeypatch)
    stats = harvest(local_config(tmp_path, id_end=4), random.Random(11))
    assert (stats.requests, stats.fetched_ids) == (4, 4)
    assert_delays(sleeps, [10, 10, 10], 3)


def test_a_resumed_run_does_not_sleep_before_its_first_request(tmp_path, monkeypatch):
    sleeps = patch_fetch_and_sleep(monkeypatch)
    harvest(local_config(tmp_path, id_end=2), random.Random(12))
    assert_delays(sleeps, [10], 3)
    sleeps.clear()
    stats = resume(local_config(tmp_path, id_end=5), random.Random(13))
    assert (stats.requests, stats.fetched_ids) == (3, 3)
    assert_delays(sleeps, [10, 10], 3)


def test_a_retry_sleeps_the_base_delay_doubled_per_attempt(tmp_path, monkeypatch):
    sleeps = patch_fetch_and_sleep(monkeypatch, fails={2: 2})
    stats = harvest(local_config(tmp_path, id_end=3, max_retries=2), random.Random(14))
    assert (stats.requests, stats.fetched_ids, stats.skips) == (5, 3, 0)
    # id 1; id 2 at attempts 0, 1 and 2; id 3
    assert_delays(sleeps, [10, 20, 40, 10], 3)


# --- resume --------------------------------------------------------------


def test_resume_continues_after_checkpoint(server, tmp_path):
    cfg = make_config(server, tmp_path, id_end=10)
    partial = make_config(server, tmp_path, id_end=7)
    harvest(partial, random.Random(7))
    before = {e["id"] for e in server.request_log}
    stats = resume(cfg, random.Random(8))
    assert stats.fetched_ids == 3
    requested = [e["id"] for e in server.request_log if e["id"] not in before or e["id"] > 7]
    assert sorted(set(requested)) == [8, 9, 10]
    checkpoint = Checkpoint.read(cfg.checkpoint_path)
    assert checkpoint.last_id == 10
    assert checkpoint.entries_count == 10
    entries, _ = parse_bibtex(cfg.output_path.read_text())
    assert len(entries) == 10
    assert len({e.key for e in entries}) == 10  # no duplicates


def test_resume_after_completed_range_makes_no_requests(server, tmp_path):
    cfg = make_config(server, tmp_path)
    harvest(cfg, random.Random(9))
    n_before = len(server.request_log)
    stats = resume(cfg, random.Random(10))
    assert stats.requests == 0
    assert len(server.request_log) == n_before


def test_resume_with_corrupt_checkpoint_refuses(server, tmp_path):
    cfg = make_config(server, tmp_path)
    cfg.checkpoint_path.write_text("{not json")
    with pytest.raises(CorruptCheckpoint):
        resume(cfg)


def test_resume_with_missing_checkpoint_refuses(server, tmp_path):
    cfg = make_config(server, tmp_path)
    with pytest.raises(CorruptCheckpoint):
        resume(cfg)


def test_checkpoint_monotonic_last_id(server, tmp_path):
    # crash-inject: wrap Checkpoint.write to record every value
    seen = []
    original = Checkpoint.write

    def spy(self, path):
        seen.append(self.last_id)
        original(self, path)

    Checkpoint.write = spy
    try:
        cfg = make_config(server, tmp_path, id_end=8)
        harvest(cfg, random.Random(11))
    finally:
        Checkpoint.write = original
    assert seen == sorted(seen)


class _Crash(Exception):
    pass


@pytest.mark.parametrize("crash_id", [1, 4])
def test_resume_after_crash_before_checkpoint_keeps_no_duplicate(
    server, tmp_path, monkeypatch, crash_id
):
    # The process dies after appending crash_id's body, before checkpointing it.
    cfg = make_config(server, tmp_path)
    original = Checkpoint.write

    def crash(self, path):
        if self.last_id == crash_id:
            raise _Crash
        original(self, path)

    monkeypatch.setattr(Checkpoint, "write", crash)
    with pytest.raises(_Crash):
        harvest(cfg, random.Random(13))
    monkeypatch.setattr(Checkpoint, "write", original)
    assert len(parse_bibtex(cfg.output_path.read_text())[0]) == crash_id

    stats = resume(cfg, random.Random(14))
    assert stats.fetched_ids == 5 - crash_id + 1
    entries, issues = parse_bibtex(cfg.output_path.read_text())
    assert [e.key for e in entries] == [f"fixture{i}x0" for i in range(1, 6)]
    assert not issues
    checkpoint = Checkpoint.read(cfg.checkpoint_path)
    assert checkpoint.entries_count == 5
    assert checkpoint.output_offset == cfg.output_path.stat().st_size


def test_resume_refuses_output_shorter_than_checkpoint(server, tmp_path):
    cfg = make_config(server, tmp_path, id_end=3)
    harvest(cfg, random.Random(15))
    cfg.output_path.write_text("")
    cfg.id_end = 5
    with pytest.raises(CorruptCheckpoint):
        resume(cfg)


@pytest.mark.parametrize(
    "text",
    [
        '{"last_id": 2, "entries_count": 2, "log_offset": 0}',
        '{"last_id": 2, "entries_count": 2, "output_offset": -1, "log_offset": 0}',
        '{"last_id": 2, "entries_count": 2, "output_offset": "many", "log_offset": 0}',
    ],
    ids=["missing", "negative", "not-a-number"],
)
def test_checkpoint_needs_a_valid_output_offset(tmp_path, text):
    path = tmp_path / "cp.json"
    path.write_text(text)
    with pytest.raises(CorruptCheckpoint):
        Checkpoint.read(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"last_id": 2, "entries_count": 2, "output_offset": 0}',
        '{"last_id": 2, "entries_count": 2, "output_offset": 0, "log_offset": -1}',
        '{"last_id": 2, "entries_count": 2, "output_offset": 0, "log_offset": "many"}',
    ],
    ids=["missing", "negative", "not-a-number"],
)
def test_checkpoint_needs_a_valid_log_offset(tmp_path, text):
    path = tmp_path / "cp.json"
    path.write_text(text)
    with pytest.raises(CorruptCheckpoint):
        Checkpoint.read(path)


def test_checkpoint_refuses_a_negative_entry_count(tmp_path):
    path = tmp_path / "cp.json"
    path.write_text('{"last_id": 2, "entries_count": -7, "output_offset": 0, "log_offset": 0}')
    with pytest.raises(CorruptCheckpoint, match="^" + re.escape(f"{path}: negative entries_count") + "$"):
        Checkpoint.read(path)


@pytest.mark.parametrize("when", ["before", "after"])
def test_resume_after_crash_at_checkpoint_keeps_one_log_row_per_id(
    server, tmp_path, monkeypatch, when
):
    # The process dies at id 3's checkpoint write, just before or just after it.
    cfg = make_config(server, tmp_path)
    log_path = Path(str(cfg.output_path) + ".log")
    original = Checkpoint.write

    def crash(self, path):
        if self.last_id == 3:
            if when == "after":
                original(self, path)
            raise _Crash
        original(self, path)

    monkeypatch.setattr(Checkpoint, "write", crash)
    with pytest.raises(_Crash):
        harvest(cfg, random.Random(16))
    monkeypatch.setattr(Checkpoint, "write", original)

    resume(cfg, random.Random(17))
    entries, _ = parse_bibtex(cfg.output_path.read_text())
    assert [e.key for e in entries] == [f"fixture{i}x0" for i in range(1, 6)]
    rows = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [row["id"] for row in rows] == [1, 2, 3, 4, 5]
    assert len(efficiency_series(log_path)) == 5
    assert Checkpoint.read(cfg.checkpoint_path).log_offset == log_path.stat().st_size


def test_resume_refuses_log_shorter_than_checkpoint(server, tmp_path):
    cfg = make_config(server, tmp_path, id_end=3)
    harvest(cfg, random.Random(18))
    Path(str(cfg.output_path) + ".log").write_text("")
    cfg.id_end = 5
    with pytest.raises(CorruptCheckpoint):
        resume(cfg)


def test_checkpoint_write_replaces_atomically(tmp_path, monkeypatch):
    path = tmp_path / "cp.json"
    Checkpoint(3, 3, 120, 40).write(path)

    def crash(src, dst):
        raise _Crash

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(_Crash):
        Checkpoint(4, 4, 160, 50).write(path)
    monkeypatch.undo()
    assert Checkpoint.read(path) == Checkpoint(3, 3, 120, 40)
    Checkpoint(4, 4, 160, 50).write(path)
    assert Checkpoint.read(path) == Checkpoint(4, 4, 160, 50)
    assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]


# --- efficiency series ----------------------------------------------------


def test_efficiency_series_constant_rate(server, tmp_path):
    cfg = make_config(server, tmp_path)
    harvest(cfg, random.Random(12))
    series = efficiency_series(str(cfg.output_path) + ".log")
    assert len(series) == 5
    assert all(norm == 1.0 for _, _, _, norm in series)
    assert [total for _, total, _, _ in series] == [1, 2, 3, 4, 5]


def test_efficiency_series_empty_log(tmp_path):
    log = tmp_path / "empty.log"
    log.write_text("")
    assert efficiency_series(log) == []
    assert efficiency_series(tmp_path / "missing.log") == []


def test_efficiency_series_hand_computed(tmp_path):
    log = tmp_path / "scripted.log"
    events = [
        {"ts": 1.0, "id": 1, "status": "ok", "entries": 1},
        {"ts": 2.0, "id": 2, "status": "ok", "entries": 4},
        {"ts": 3.0, "id": 3, "status": "skip", "entries": 0},
        {"ts": 4.0, "id": 4, "status": "ok", "entries": 2},
    ]
    log.write_text("\n".join(json.dumps(e) for e in events))
    series = efficiency_series(log)
    assert series == [
        (1.0, 1, 1.0, 0.25),
        (2.0, 5, 4.0, 1.0),
        (3.0, 5, 0.0, 0.0),
        (4.0, 7, 2.0, 0.5),
    ]


def test_efficiency_csv_has_one_row_per_id_however_many_requests(tmp_path):
    # id 2 fails twice, so its one row stands for three requests.
    script = FixtureScript(fail_status={2: 503}, fail_times={2: 2})
    with FixtureServer(script) as server:
        cfg = make_config(server, tmp_path, id_end=3, max_retries=2)
        stats = harvest(cfg, random.Random(5))
    assert stats.requests == 5
    csv_path = tmp_path / "efficiency.csv"
    write_efficiency_csv(efficiency_series(cfg.log_path), csv_path)
    header, *rows = csv_path.read_text().splitlines()
    assert header == "timestamp,entries,entries_per_id,normalized"
    assert [row.split(",")[1:] for row in rows] == [
        ["1", "1.0", "1.0"], ["2", "1.0", "1.0"], ["3", "1.0", "1.0"]
    ]


@pytest.mark.parametrize(
    "row", ['{"ts": 2.0, "entries": "1"}', '{"ts": 2.0}', "[2.0, 1]", '{"ts": "2", "entries": 1}',
            '{"ts": 2.0, "entries": -1}', '{"ts": NaN, "entries": 1}',
            '{"ts": Infinity, "entries": 1}', '{"ts": -Infinity, "entries": 1}']
)
def test_efficiency_series_names_a_bad_log_row(tmp_path, row):
    log = tmp_path / "bad.log"
    log.write_text('{"ts": 1.0, "id": 1, "status": "ok", "entries": 1}\n' + row + "\n")
    with pytest.raises(ValueError, match="bad.log line 2"):
        efficiency_series(log)


def test_checkpoint_bytes_keep_their_keys_and_order(tmp_path):
    # Checkpoints written by earlier versions hold these bytes; they must resume.
    path = tmp_path / "cp.json"
    Checkpoint(7, 12, 3456, 789, "id 7: HTTP 503").write(path)
    assert path.read_bytes() == (
        b'{"last_id": 7, "entries_count": 12, "output_offset": 3456, '
        b'"log_offset": 789, "last_error": "id 7: HTTP 503"}'
    )
    Checkpoint(7, 12, 3456, 789).write(path)
    assert path.read_bytes() == (
        b'{"last_id": 7, "entries_count": 12, "output_offset": 3456, '
        b'"log_offset": 789, "last_error": null}'
    )
    assert Checkpoint.read(path) == Checkpoint(7, 12, 3456, 789, None)


@pytest.mark.parametrize(
    "text",
    [
        '{"last_id": true, "entries_count": 2, "output_offset": 0, "log_offset": 0}',
        '{"last_id": 2, "entries_count": false, "output_offset": 0, "log_offset": 0}',
        '{"last_id": 2, "entries_count": 2, "output_offset": -1, "log_offset": 0}',
        '{"last_id": 2, "entries_count": 2, "output_offset": 0, "log_offset": -5}',
        '{"last_id": 2, "entries_count": 2, "output_offset": 0, "log_offset": 0, "extra": 1}',
        '{"last_id": 2, "entries_count": 2, "output_offset": 0, "log_offset": 0, "last_error": 3}',
        '[2, 2, 0, 0]',
    ],
    ids=["bool-id", "bool-count", "negative-output", "negative-log", "extra-key",
         "error-not-a-string", "not-an-object"],
)
def test_checkpoint_refuses_a_bool_a_negative_offset_or_an_extra_key(tmp_path, text):
    path = tmp_path / "cp.json"
    path.write_text(text)
    with pytest.raises(CorruptCheckpoint):
        Checkpoint.read(path)
