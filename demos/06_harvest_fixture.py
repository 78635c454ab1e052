"""Throttled, checkpointed harvesting against the local fixture server.

The harvester only talks to localhost unless explicitly overridden; the
fixture server plays the remote library, with scriptable failures and
multi-entry responses.

Run:  python demos/06_harvest_fixture.py
"""

import random
import tempfile
from pathlib import Path

from citeforge import Checkpoint, HarvestConfig, efficiency_series, harvest, parse_bibtex, resume
from citeforge.fixture import FixtureScript, FixtureServer

workdir = Path(tempfile.mkdtemp())

# id 4 fails twice then recovers; id 6 returns three entries in one body.
script = FixtureScript(fail_status={4: 503}, fail_times={4: 2}, entries={6: 3})

with FixtureServer(script) as server:
    config = HarvestConfig(
        url_template=server.url_template(),
        id_start=1,
        id_end=8,
        td_millis=50,       # fixed threshold delay between requests
        rid_millis=30,      # plus uniform random jitter on top
        user_agents=("demo-agent-a", "demo-agent-b"),
        max_retries=2,
        output_path=workdir / "harvest.bib",
        checkpoint_path=workdir / "harvest.checkpoint.json",
    )
    stats = harvest(config, random.Random(1))
    print(f"requests {stats.requests}, entries {stats.entries}, "
          f"skips {stats.skips}, {stats.efficiency:.2f} entries/request")

    checkpoint = Checkpoint.read(config.checkpoint_path)
    print(f"checkpoint: last_id {checkpoint.last_id}, "
          f"{checkpoint.entries_count} entries so far")

    # Pretend the process died and the range grew; resume never refetches.
    config.id_end = 12
    more = resume(config, random.Random(2))
    print(f"resume fetched {more.fetched_ids} more ids "
          f"({more.requests} requests)")

    # Inter-request gaps observed by the server honor the threshold delay.
    log = server.request_log
    gaps = [b["monotonic"] - a["monotonic"] for a, b in zip(log, log[1:])]
    print(f"server-side gaps: min {min(gaps)*1000:.0f} ms, "
          f"max {max(gaps)*1000:.0f} ms")

entries, issues = parse_bibtex((workdir / "harvest.bib").read_text())
print(f"output file holds {len(entries)} well-formed entries, {len(issues)} issues")

# One row per id, however many requests its retries took (id 4 took three).
print("\nper-id efficiency series (normalized by the best id):")
for ts, total, eff, norm in efficiency_series(str(config.output_path) + ".log")[:6]:
    print(f"  entries {total:>2}  this id {eff:.0f}  normalized {norm:.2f}")
