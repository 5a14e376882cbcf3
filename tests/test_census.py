"""CI's census in miniature, over every bundled spec but ``scale-*``.

The CI census runs each such spec at full size twice: plainly at
``PYTHONHASHSEED=0``, then at ``PYTHONHASHSEED=1`` with
``RunOptions(sanitize=True, isolation_check=True)``, and diffs the two
summaries. Here every spec is scaled to 20 nodes and eight operations
and takes the same two passes, one subprocess each (``str`` hashes are
salted per process, so a hash-order leak shows only across processes).
Every spec gets three tests, read off the two passes:

* its summaries are byte-identical: a result that depends on hash
  order, the wall clock, an unseeded generator or the network lane a
  multicast took differs; an ambient ``random.*`` call, a ``time.time``
  read or an in-flight payload mutation raises in the checked pass;
* neither pass leaves cyclic garbage;
* neither pass sends a message no handler takes.

Both passes together take about 7 s on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from typing import Dict

import pytest

from repro.scenarios import bundled_names

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPECS = [name for name in bundled_names() if not name.startswith("scale-")]

_PASS = """\
import json, sys
from repro.scenarios import bundled_names, load_bundled
from repro.scenarios.runner import RunOptions
from tests.test_acyclic_garbage import census

checked = sys.argv[1:] == ["checked"]
options = RunOptions(sanitize=checked, isolation_check=checked)
small = dict(nodes=20, warmup=8.0, settle=6.0, cooldown=0.0,
             record_count=5, operation_count=8)
for name in bundled_names():
    if not name.startswith("scale-"):
        spec = load_bundled(name)
        if spec.stack == "core":
            spec = spec.scaled(num_slices=3, **small)
        else:
            spec = spec.scaled(**small)
        garbage, letters, summary = census(spec, options=options)
        print(json.dumps(dict(name=name, garbage=dict(garbage),
                              letters=letters, summary=summary)))
"""


@lru_cache(maxsize=None)
def passes() -> Dict[str, Dict[str, dict]]:
    """``{"plain" | "checked": {spec name: its census record}}``; the
    two passes run side by side."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT]))
    procs = {
        "plain": subprocess.Popen(
            [sys.executable, "-c", _PASS],
            cwd=REPO_ROOT, env=dict(env, PYTHONHASHSEED="0"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ),
        "checked": subprocess.Popen(
            [sys.executable, "-c", _PASS, "checked"],
            cwd=REPO_ROOT, env=dict(env, PYTHONHASHSEED="1"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ),
    }
    listings = {}
    for kind, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"the {kind} pass failed:\n{err}"
        records = [json.loads(line) for line in out.splitlines()]
        listings[kind] = {record["name"]: record for record in records}
    return listings


def test_both_passes_run_every_spec():
    assert all(sorted(listing) == SPECS for listing in passes().values())


@pytest.mark.parametrize("name", SPECS)
def test_replays_byte_identical_under_another_hash_seed_with_every_check_on(name):
    listings = passes()
    assert listings["checked"][name]["summary"] == listings["plain"][name]["summary"]


@pytest.mark.parametrize("name", SPECS)
def test_leaves_no_cyclic_garbage(name):
    for kind, listing in passes().items():
        assert listing[name]["garbage"] == {}, kind


@pytest.mark.parametrize("name", SPECS)
def test_every_message_finds_a_handler(name):
    for kind, listing in passes().items():
        assert listing[name]["letters"] == {}, kind
