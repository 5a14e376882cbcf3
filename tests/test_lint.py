"""The determinism linter: rule fixtures, the strictly parsed policy
file, baseline round-trips, the JSON report, and the tree-level contract
that ``repro lint src`` is clean against the committed policy.

The isolation families (I1xx–I4xx) are covered here too: per-rule
positive/negative fixtures, the ``--select`` filter, and mixed-report
exit codes with I-rules present.

The protocol families (P1xx–P4xx) close the file out: per-rule
positive/negative fixtures, whole-program cross-module linking (and the
subtree-lint caveat), the request/reply policy round-trip, and the
byte-stability of the ``repro protocol graph`` artifact."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tomllib
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    BaselineEntry,
    CATALOG,
    FAMILIES,
    LintConfig,
    apply_baseline,
    baseline_from_violations,
    build_protocol_graph,
    format_json,
    format_text,
    lint_paths,
    lint_source,
    render_policy_toml,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fixture paths: one inside the sim-path set (D3xx rules armed), one
# outside it (order hazards exempt by policy).
SIM = "repro/sim/fixture.py"
OFF = "repro/analysis/fixture.py"


def rules_of(result):
    return [v.rule for v in result.violations]


def lint(source, path=SIM, config=None):
    return lint_source(source, path=path, config=config)


# --------------------------------------------------------------- catalogue


class TestCatalog:
    def test_every_rule_belongs_to_a_family(self):
        for rule_id, rule in CATALOG.items():
            assert rule_id[:2] in FAMILIES, rule_id
            assert rule.advice and rule.title

    def test_fixture_paths_classify_as_intended(self):
        config = LintConfig()
        assert config.is_simpath(SIM)
        assert not config.is_simpath(OFF)


# ------------------------------------------------------- D1xx: randomness


class TestAmbientRandomness:
    def test_module_level_random_call(self):
        result = lint("import random\nx = random.random()\n")
        assert "D101" in rules_of(result)

    def test_module_level_shuffle(self):
        result = lint("import random\nrandom.shuffle(items)\n")
        assert "D101" in rules_of(result)

    def test_seeded_instance_is_clean(self):
        result = lint("import random\nrng = random.Random(7)\nx = rng.random()\n")
        assert rules_of(result) == []

    def test_unseeded_random_instance(self):
        result = lint("import random\nrng = random.Random()\n")
        assert rules_of(result) == ["D102"]

    def test_system_random(self):
        result = lint("import random\nrng = random.SystemRandom()\n")
        assert "D103" in rules_of(result)

    def test_secrets_and_urandom(self):
        assert "D103" in rules_of(lint("import secrets\nt = secrets.token_bytes(8)\n"))
        assert "D103" in rules_of(lint("import os\nb = os.urandom(16)\n"))
        assert "D103" in rules_of(lint("from os import urandom\n"))

    def test_uuid_entropy(self):
        assert "D103" in rules_of(lint("import uuid\nu = uuid.uuid4()\n"))
        assert "D103" in rules_of(lint("from uuid import uuid4\n"))

    def test_from_import_of_ambient_function(self):
        result = lint("from random import randint\n")
        assert "D104" in rules_of(result)

    def test_import_alias_is_tracked(self):
        result = lint("import random as rnd\nx = rnd.random()\n")
        assert "D101" in rules_of(result)


# ------------------------------------------------------- D2xx: wall clock


class TestWallClock:
    def test_time_time(self):
        result = lint("import time\nt = time.time()\n")
        assert "D201" in rules_of(result)

    def test_perf_counter(self):
        result = lint("import time\nt = time.perf_counter()\n")
        assert "D202" in rules_of(result)

    def test_datetime_now(self):
        result = lint("from datetime import datetime\nd = datetime.now()\n")
        assert "D203" in rules_of(result)

    def test_datetime_module_attribute(self):
        result = lint("import datetime\nd = datetime.datetime.utcnow()\n")
        assert "D203" in rules_of(result)

    def test_from_import_flags_import_and_call(self):
        result = lint("from time import perf_counter\nt = perf_counter()\n")
        assert rules_of(result) == ["D204", "D202"] or sorted(
            rules_of(result)
        ) == ["D202", "D204"]

    def test_aliased_from_import_call(self):
        result = lint("from time import time as now\nt = now()\n")
        rules = rules_of(result)
        assert "D204" in rules and "D201" in rules

    def test_wall_clock_flagged_off_simpath_too(self):
        # D2xx is policy everywhere: legitimate provenance sites live in
        # the committed baseline, not in a path carve-out.
        result = lint("import time\nt = time.time()\n", path=OFF)
        assert "D201" in rules_of(result)


# ---------------------------------------------------- D3xx: order hazards


class TestOrderHazards:
    def test_for_over_set_literal(self):
        result = lint("s = {1, 2, 3}\nfor x in s:\n    pass\n")
        assert "D301" in rules_of(result)

    def test_sorted_set_is_clean(self):
        result = lint("s = {1, 2, 3}\nfor x in sorted(s):\n    pass\n")
        assert rules_of(result) == []

    def test_list_of_configured_set_returning_helper(self):
        result = lint("out = list(digest())\n")
        assert "D301" in rules_of(result)

    def test_frozenset_of_digest_is_clean(self):
        # The anti-entropy idiom: set-to-set flows never leak hash order.
        result = lint("owned = frozenset(k for k in digest())\n")
        assert rules_of(result) == []

    def test_len_min_max_are_neutral(self):
        result = lint("s = {1, 2}\nn = len(s)\nm = max(s)\n")
        assert rules_of(result) == []

    def test_comprehension_over_set(self):
        result = lint("s = {1, 2}\nout = [x for x in s]\n")
        assert "D301" in rules_of(result)

    def test_set_comprehension_is_neutral(self):
        result = lint("s = {1, 2}\nout = {x + 1 for x in s}\n")
        assert rules_of(result) == []

    def test_set_union_tracks_through_binop(self):
        result = lint("a = {1}\nb = {2}\nfor x in a | b:\n    pass\n")
        assert "D301" in rules_of(result)

    def test_annotated_set_argument(self):
        source = (
            "from typing import Set\n"
            "def f(keys: Set[str]):\n"
            "    return list(keys)\n"
        )
        result = lint(source)
        assert "D301" in rules_of(result)

    def test_order_rules_gated_to_simpath(self):
        result = lint("s = {1, 2}\nfor x in s:\n    pass\n", path=OFF)
        assert rules_of(result) == []

    def test_os_listdir_without_sorted(self):
        result = lint("import os\nnames = os.listdir(p)\n")
        assert "D302" in rules_of(result)

    def test_sorted_listdir_is_clean(self):
        result = lint("import os\nnames = sorted(os.listdir(p))\n")
        assert rules_of(result) == []

    def test_glob_module(self):
        result = lint("import glob\nfiles = glob.glob(pat)\n")
        assert "D302" in rules_of(result)

    def test_id_and_hash_on_simpath(self):
        assert "D303" in rules_of(lint("k = id(obj)\n"))
        assert "D304" in rules_of(lint("h = hash(name)\n"))

    def test_id_and_hash_off_simpath_are_clean(self):
        assert rules_of(lint("k = id(obj)\n", path=OFF)) == []
        assert rules_of(lint("h = hash(name)\n", path=OFF)) == []


# -------------------------------------------------- D4xx: export hygiene


class TestExportHygiene:
    def test_all_entry_that_never_binds(self):
        result = lint('__all__ = ["missing"]\n')
        assert "D401" in rules_of(result)

    def test_duplicate_all_entry(self):
        result = lint('__all__ = ["f", "f"]\ndef f():\n    pass\n')
        assert "D402" in rules_of(result)

    def test_public_surface_without_all(self):
        result = lint("def api():\n    pass\n")
        assert "D403" in rules_of(result)

    def test_private_only_module_needs_no_all(self):
        result = lint("def _helper():\n    pass\n")
        assert rules_of(result) == []

    def test_conftest_is_exempt(self):
        result = lint(
            "def fixture_like():\n    pass\n", path="repro/sim/conftest.py"
        )
        assert rules_of(result) == []

    def test_complete_all_is_clean(self):
        source = '__all__ = ["api"]\n\ndef api():\n    pass\n'
        assert rules_of(lint(source)) == []


# ------------------------------------------- I1xx: cross-node reach-through


class TestReachThrough:
    def test_loop_over_servers_reaching_into_store(self):
        source = (
            "def replication(self, key):\n"
            "    for s in self.servers:\n"
            "        if s.store.get(key):\n"
            "            pass\n"
        )
        assert "I101" in rules_of(lint(source))

    def test_genexp_over_servers_reaching_into_store(self):
        # The shape the dht facade used to have before ChordNode.holds().
        source = (
            "def level(self, key):\n"
            "    return sum(1 for s in self.servers if s.store.get(key))\n"
        )
        assert "I101" in rules_of(lint(source))

    def test_facade_method_is_clean(self):
        source = (
            "def _level(self, key):\n"
            "    return sum(1 for s in self.servers if s.holds(key))\n"
        )
        assert rules_of(lint(source)) == []

    def test_own_state_is_clean(self):
        source = (
            "def _digest_size(self):\n"
            "    return len(self.store)\n"
        )
        assert rules_of(lint(source)) == []

    def test_subscript_into_collection(self):
        source = (
            "def peek(self):\n"
            "    return self.servers[0].store\n"
        )
        assert "I102" in rules_of(lint(source))

    def test_node_returning_helper_is_tracked(self):
        source = (
            "def views(self):\n"
            "    return [s.view for s in self.alive_servers()]\n"
        )
        assert "I101" in rules_of(lint(source))

    def test_assigned_collection_is_tracked(self):
        source = (
            "def peek(self):\n"
            "    nodes = self.servers\n"
            "    return nodes[2].scheduler\n"
        )
        assert "I102" in rules_of(lint(source))

    def test_filtered_comprehension_stays_a_collection(self):
        source = (
            "def peek(self):\n"
            "    alive = [s for s in self.servers if s.alive]\n"
            "    return alive[0].store\n"
        )
        assert "I102" in rules_of(lint(source))

    def test_reach_through_off_simpath_is_clean(self):
        source = (
            "def _audit(self, key):\n"
            "    return [s.store.get(key) for s in self.servers]\n"
        )
        assert rules_of(lint(source, path=OFF)) == []


# ------------------------------------------------ I2xx: payload aliasing


class TestPayloadAliasing:
    def test_mutable_local_mutated_after_send(self):
        source = (
            "def push(self, batch_size):\n"
            "    batch = []\n"
            "    self.node.send(7, Msg(batch))\n"
            "    batch.append(1)\n"
        )
        result = lint(source)
        assert "I201" in rules_of(result)

    def test_snapshot_at_send_is_clean(self):
        source = (
            "def _push(self, batch_size):\n"
            "    batch = []\n"
            "    self.node.send(7, Msg(tuple(batch)))\n"
            "    batch.append(1)\n"
        )
        assert rules_of(lint(source)) == []

    def test_mutation_before_send_is_clean(self):
        source = (
            "def _push(self):\n"
            "    batch = []\n"
            "    batch.append(1)\n"
            "    self.node.send(7, Msg(batch))\n"
        )
        assert rules_of(lint(source)) == []

    def test_mutable_default_payload(self):
        assert "I202" in rules_of(lint("def _f(self, payload=[]):\n    pass\n"))
        assert "I202" in rules_of(lint("def _f(self, opts={}):\n    pass\n"))

    def test_none_default_is_clean(self):
        assert rules_of(lint("def _f(self, payload=None):\n    pass\n")) == []

    def test_mutable_default_off_simpath_is_clean(self):
        assert rules_of(lint("def _f(x=[]):\n    pass\n", path=OFF)) == []

    def test_resend_of_received_message(self):
        source = (
            "def _on_ping(self, msg, src):\n"
            "    self.send(src, msg)\n"
        )
        assert "I203" in rules_of(lint(source))

    def test_rebuilt_reply_is_clean(self):
        source = (
            "def _on_ping(self, msg, src):\n"
            "    self.send(src, Pong(msg.seq))\n"
        )
        assert rules_of(lint(source)) == []

    def test_received_payload_aliased_into_outbound(self):
        # The gossip-relay shape — baselined in the committed policy.
        source = (
            "def _forward(self, msg):\n"
            "    self.node.send(1, Relay(msg.payload, msg.ttl - 1))\n"
        )
        assert "I204" in rules_of(lint(source))

    def test_multicast_is_a_send_site_whose_payload_is_the_last_argument(self):
        relay = (
            "def _forward(self, msg):\n"
            "    self.node.multicast(peers, Relay(msg.payload, msg.ttl - 1))\n"
        )
        assert "I204" in rules_of(lint(relay))
        mutated_payload = (
            "def push(self, peers):\n"
            "    batch = []\n"
            "    self.network.multicast(self.id, peers, Msg(batch))\n"
            "    batch.append(1)\n"
        )
        assert "I201" in rules_of(lint(mutated_payload))
        mutated_destinations = (
            "def _push(self):\n"
            "    peers = [1, 2]\n"
            "    self.node.multicast(peers, Msg(3))\n"
            "    peers.append(4)\n"
        )
        assert rules_of(lint(mutated_destinations)) == []

    def test_snapshotted_payload_is_clean(self):
        source = (
            "def _forward(self, msg):\n"
            "    self.node.send(1, Relay(tuple(msg.payload), msg.ttl - 1))\n"
        )
        assert rules_of(lint(source)) == []


# ------------------------------------------ I3xx: mutation after forward


class TestMutationAfterForward:
    def test_mutation_after_forward(self):
        source = (
            "def _on_put(self, msg, src):\n"
            "    self.send(3, Fwd(msg.key, tuple(msg.payload)))\n"
            "    msg.hops = msg.hops + 1\n"
        )
        assert "I301" in rules_of(lint(source))

    def test_mutation_without_forward_is_i302(self):
        source = (
            "def _on_put(self, msg, src):\n"
            "    msg.payload.append(1)\n"
        )
        result = lint(source)
        assert "I302" in rules_of(result)
        assert "I301" not in rules_of(result)

    def test_read_only_handler_is_clean(self):
        source = (
            "def _on_put(self, msg, src):\n"
            "    self.store.put(msg.key, msg.version, msg.value)\n"
        )
        assert rules_of(lint(source)) == []

    def test_non_handler_param_not_treated_as_message(self):
        source = (
            "def _helper(self, entry, src):\n"
            "    entry.payload.append(1)\n"
        )
        assert rules_of(lint(source)) == []


# -------------------------------------------- I4xx: callback capture


class TestCallbackCapture:
    def test_lambda_captures_loop_variable(self):
        source = (
            "def anti_entropy(self, peers):\n"
            "    for peer in peers:\n"
            "        self.node.after(1.0, lambda: self.push(peer))\n"
        )
        assert "I401" in rules_of(lint(source))

    def test_default_rebinding_is_clean(self):
        source = (
            "def _anti_entropy(self, peers):\n"
            "    for peer in peers:\n"
            "        self.node.after(1.0, lambda peer=peer: self.push(peer))\n"
        )
        assert rules_of(lint(source)) == []

    def test_lambda_outside_loop_is_clean(self):
        source = (
            "def _arm(self, peer):\n"
            "    self.node.after(1.0, lambda: self.push(peer))\n"
        )
        assert rules_of(lint(source)) == []

    def test_lambda_captures_mutated_local(self):
        source = (
            "def _arm(self):\n"
            "    pending = []\n"
            "    self.node.after(1.0, lambda: self.flush(pending))\n"
            "    pending.append(1)\n"
        )
        assert "I402" in rules_of(lint(source))

    def test_local_settled_before_scheduling_is_clean(self):
        source = (
            "def _arm(self):\n"
            "    pending = []\n"
            "    pending.append(1)\n"
            "    self.node.after(1.0, lambda: self.flush(pending))\n"
        )
        assert rules_of(lint(source)) == []


# ---------------------------------------------------------- select filter

# One D-violation and one I-violation in the same module, so scoping is
# observable in both directions.
MIXED = "import time\ndef _f(self, x=[]):\n    t = time.time()\n"


class TestSelectFilters:
    def test_select_scopes_to_family(self):
        result = lint_source(MIXED, path=SIM, select=["I2"])
        assert rules_of(result) == ["I202"]

    def test_select_multiple_families(self):
        result = lint_source(MIXED, path=SIM, select=["I2", "D2"])
        assert sorted(rules_of(result)) == ["D201", "I202"]

    def test_select_exact_rule_id(self):
        result = lint_source(MIXED, path=SIM, select=["D201"])
        assert rules_of(result) == ["D201"]

    def test_unknown_selector_raises(self):
        with pytest.raises(ConfigurationError, match="unknown rule selector"):
            lint_source(MIXED, path=SIM, select=["BOGUS"])

    def test_cli_unknown_selector_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "--select", "NOPE"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "unknown rule selector" in proc.stdout

    def test_cli_select_scopes_clean_run(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "--select", "I2,D1"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ------------------------------------------------- mixed-report exit codes


class TestMixedExitCodes:
    def test_baselined_only_is_exit_zero(self):
        config = LintConfig(
            baseline=[
                BaselineEntry(
                    rule="I202", path="fixture.py", max_count=1, justification="t"
                ),
                BaselineEntry(
                    rule="D201", path="fixture.py", max_count=1, justification="t"
                ),
            ]
        )
        result = lint(MIXED, config=config)
        assert result.exit_code == 0
        assert sorted(v.rule for v in result.baselined) == ["D201", "I202"]

    def test_fresh_violation_is_exit_one(self):
        config = LintConfig(
            baseline=[
                BaselineEntry(
                    rule="D201", path="fixture.py", max_count=1, justification="t"
                )
            ]
        )
        result = lint(MIXED, config=config)
        assert result.exit_code == 1
        assert rules_of(result) == ["I202"]

    def test_json_report_with_i_rules_is_byte_stable(self):
        assert format_json(lint(MIXED)) == format_json(lint(MIXED))
        payload = json.loads(format_json(lint(MIXED)))
        assert payload["counts"]["by_rule"] == {"D201": 1, "I202": 1}


# ------------------------------------------------------------- allowlist

# The baseline is the only exemption: no allowlist, no inline comment.


class TestAllowlist:
    def test_inline_comment_does_not_hide_a_finding(self):
        result = lint(
            "import time\nt = time.time()  # repro-lint: ignore[D201] reason\n"
        )
        assert rules_of(result) == ["D201"]

    def test_leftover_allow_table_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'allow'"):
            LintConfig.from_dict(
                {"allow": [{"rule": "D2", "path": "x", "justification": "y"}]}
            )

    def test_unknown_rule_in_config_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown rule 'D9'"):
            LintConfig.from_dict(
                {"baseline": [{"rule": "D9", "path": "x", "justification": "y"}]}
            )

    def test_entry_without_justification_rejected(self):
        with pytest.raises(ConfigurationError):
            LintConfig.from_dict({"baseline": [{"rule": "D2", "path": "x"}]})


# ------------------------------------------------------------ policy file

ENTRY = {"rule": "D2", "path": "x", "justification": "j"}


class TestPolicyFile:
    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"lint": {"simpath": "repro/core/"}}, "lint.simpath"),
            ({"lint": {"simpaht": ["repro/core/"]}}, "lint.simpaht"),
            ({"lint": {"node_state": ["store", 3]}}, "lint.node_state"),
            ({"lint": ["repro/core/"]}, "lint"),
            ({"lint": {"protocol": {"request_replies": []}}},
             "lint.protocol.request_replies"),
            ({"lint": {"protocol": {"request_reply": ["ab"]}}},
             "lint.protocol.request_reply"),
            ({"baseline": [{**ENTRY, "max": "five"}]}, "baseline.max"),
            ({"baseline": [{**ENTRY, "max": -3}]}, "baseline.max"),
            ({"baseline": [{**ENTRY, "max": True}]}, "baseline.max"),
            ({"baseline": [{**ENTRY, "maxx": 2}]}, "baseline.maxx"),
            ({"schema": 7}, "schema"),
        ],
        ids=[
            "string-simpath",
            "misspelt-key",
            "non-string-item",
            "lint-not-a-table",
            "unknown-protocol-key",
            "string-pair",
            "max-not-int",
            "max-negative",
            "max-bool",
            "unknown-entry-key",
            "schema-7",
        ],
    )
    def test_bad_policy_is_rejected_by_key(self, doc, key):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            LintConfig.from_dict(doc)

    def test_cli_bad_policy_exits_2_naming_the_key(self, tmp_path):
        policy = tmp_path / "policy.toml"
        policy.write_text('schema = 1\n\n[lint]\nsimpath = "repro/core/"\n')
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint", "src",
                "--config", str(policy),
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "simpath" in proc.stdout + proc.stderr



# --------------------------------------------------------------- baseline


class TestBaseline:
    def test_budget_absorbs_up_to_max(self):
        config = LintConfig(
            baseline=[
                BaselineEntry(
                    rule="D201", path="fixture.py", max_count=1, justification="t"
                )
            ]
        )
        result = lint(
            "import time\na = time.time()\nb = time.time()\n", config=config
        )
        assert rules_of(result) == ["D201"]  # second hit overflows the budget
        assert [v.rule for v in result.baselined] == ["D201"]

    def test_stale_entry_is_reported(self):
        config = LintConfig(
            baseline=[
                BaselineEntry(
                    rule="D101", path="nowhere.py", max_count=3, justification="t"
                )
            ]
        )
        result = lint("x = 1\n", config=config)
        assert result.clean  # stale entries warn, they do not fail
        assert [e.path for e in result.stale_baseline] == ["nowhere.py"]
        assert "stale baseline entry" in format_text(result)

    def test_apply_baseline_counts_are_fresh_per_call(self):
        config = LintConfig(
            baseline=[
                BaselineEntry(
                    rule="D2", path="fixture.py", max_count=1, justification="t"
                )
            ]
        )
        source = "import time\nt = time.time()\n"
        first = lint(source, config=config)
        second = lint(source, config=config)
        assert rules_of(first) == rules_of(second) == []

    def test_baseline_from_violations_collapses_by_rule_and_path(self):
        result = lint("import time\na = time.time()\nb = time.time()\n")
        entries = baseline_from_violations(result.violations)
        assert len(entries) == 1
        assert entries[0].rule == "D201"
        assert entries[0].max_count == 2

    def test_policy_toml_round_trip(self):
        config = LintConfig(simpath=("repro/x/",))
        baseline = [
            BaselineEntry(
                rule="D2", path="repro/obs/", max_count=5, justification="prov"
            )
        ]
        doc = tomllib.loads(render_policy_toml(config, baseline))
        # Only the key that differs from the built-in defaults is written.
        assert doc["lint"] == {"simpath": ["repro/x/"]}
        loaded = LintConfig.from_dict(doc)
        assert loaded == replace(config, baseline=baseline)

    def test_rendered_policy_is_byte_stable(self):
        config = LintConfig()
        baseline = [
            BaselineEntry(rule="D2", path="a/", max_count=1, justification="j")
        ]
        assert render_policy_toml(config, baseline) == render_policy_toml(
            config, baseline
        )


# ------------------------------------------------------------ JSON report


class TestJsonReport:
    def test_schema_and_keys(self):
        result = lint("import time\nt = time.time()\n")
        payload = json.loads(format_json(result))
        assert payload["schema"] == 2
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"]["violations"] == 1
        assert payload["counts"]["by_rule"] == {"D201": 1}
        violation = payload["violations"][0]
        assert set(violation) >= {"rule", "path", "line", "col", "message"}

    def test_json_is_byte_stable(self):
        source = "import time\nt = time.time()\n"
        assert format_json(lint(source)) == format_json(lint(source))


# ------------------------------------------------------ tree-level contract


class TestTreeContract:
    def test_src_is_clean_against_committed_policy(self):
        """The acceptance bar: `repro lint src` exits 0 with the
        committed .repro-lint.toml, and every baseline entry is live."""
        config = LintConfig.load(os.path.join(REPO_ROOT, ".repro-lint.toml"))
        result = lint_paths([os.path.join(REPO_ROOT, "src")], config)
        assert result.violations == [], format_text(result)
        assert result.errors == []
        assert result.stale_baseline == [], "baseline carries dead entries"

    def test_committed_policy_is_the_defaults_plus_its_baseline(self):
        path = os.path.join(REPO_ROOT, ".repro-lint.toml")
        with open(path, "rb") as f:
            assert "lint" not in tomllib.load(f)
        config = LintConfig.load(path)
        assert config == LintConfig(baseline=config.baseline, source=path)
        # The committed file is exactly what --write-baseline writes.
        with open(path, encoding="utf-8") as f:
            assert f.read() == render_policy_toml(config, config.baseline)

    def test_committed_baseline_is_small_and_justified(self):
        config = LintConfig.load(os.path.join(REPO_ROOT, ".repro-lint.toml"))
        assert len(config.baseline) <= 5
        for entry in config.baseline:
            assert len(entry.justification.split()) >= 5, entry
            assert "TODO" not in entry.justification, entry

    def test_cli_lint_json_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "--format", "json"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["clean"] is True

    def test_cli_lint_fails_on_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint", str(bad),
                "--config", os.path.join(REPO_ROOT, ".repro-lint.toml"),
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "D201" in proc.stdout

    def test_syntax_error_is_reported_not_raised(self):
        result = lint("def broken(:\n")
        assert result.errors and not result.clean

    def test_missing_target_fails_instead_of_vacuous_clean(self):
        result = lint_paths(["no/such/dir"], LintConfig())
        assert not result.clean
        assert result.exit_code == 1
        assert "no such file" in result.errors[0]

    def test_target_without_python_files_fails(self, tmp_path):
        (tmp_path / "notes.txt").write_text("no code here\n")
        result = lint_paths([str(tmp_path)], LintConfig())
        assert result.exit_code == 1
        assert result.errors == [f"{tmp_path}: no Python files"]

    def test_missing_config_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot read lint config"):
            LintConfig.load("/no/such/.repro-lint.toml")


# -------------------------------------------- P-rule fixtures (protocol)

# A complete, correct protocol: message defined, sent, handled through
# the normal register-in-start / unregister-in-stop lifecycle, handler
# reading only declared fields. Every P-family's negative case.
PROTO_CLEAN = """\
from dataclasses import dataclass

__all__ = ["Ping", "PingService"]


@dataclass(frozen=True)
class Ping:
    body: str


class PingService:
    def start(self):
        self.node.register_handler(Ping, self._on_ping)

    def stop(self):
        self.node.unregister_handler(Ping)

    def poke(self, dst):
        self.node.send(dst, Ping(body="hi"))

    def _on_ping(self, msg, src):
        self.last = msg.body
"""

P101_DEAD_LETTER = """\
from dataclasses import dataclass

__all__ = ["Orphan", "Sender"]


@dataclass(frozen=True)
class Orphan:
    body: str


class Sender:
    def poke(self, dst):
        self.node.send(dst, Orphan(body="x"))
"""

P102_DEAD_HANDLER = """\
from dataclasses import dataclass

__all__ = ["Quiet", "Listener"]


@dataclass(frozen=True)
class Quiet:
    body: str


class Listener:
    def start(self):
        self.node.register_handler(Quiet, self._on_quiet)

    def _on_quiet(self, msg, src):
        self.last = msg.body
"""


class TestProtocolDeadLetters:
    def test_clean_protocol_has_no_p_violations(self):
        assert rules_of(lint(PROTO_CLEAN)) == []

    def test_p101_sent_but_never_handled(self):
        assert rules_of(lint(P101_DEAD_LETTER)) == ["P101"]

    def test_p102_handled_but_never_sent(self):
        assert rules_of(lint(P102_DEAD_HANDLER)) == ["P102"]

    def test_multicast_sends_count_as_send_edges(self):
        by_node = P101_DEAD_LETTER.replace(
            "self.node.send(dst, ", "self.node.multicast([dst], "
        )
        by_network = P101_DEAD_LETTER.replace(
            "self.node.send(dst, ", "self.network.multicast(0, [dst], "
        )
        assert by_node != P101_DEAD_LETTER != by_network
        assert rules_of(lint(by_node)) == rules_of(lint(by_network)) == ["P101"]

    def test_p103_register_then_unconditional_unregister(self):
        source = PROTO_CLEAN.replace(
            "        self.node.register_handler(Ping, self._on_ping)\n",
            "        self.node.register_handler(Ping, self._on_ping)\n"
            "        self.node.unregister_handler(Ping)\n",
            1,
        )
        assert rules_of(lint(source)) == ["P103"]

    def test_start_stop_lifecycle_is_not_p103(self):
        # Register in start(), unregister in stop(): different bodies,
        # the handler lives for the node's whole lifetime.
        assert "P103" not in rules_of(lint(PROTO_CLEAN))

    def test_off_simpath_module_is_exempt(self):
        assert rules_of(lint(P101_DEAD_LETTER, path=OFF)) == []

    def test_p_violation_can_be_baselined(self):
        config = LintConfig(
            baseline=[
                BaselineEntry(
                    rule="P101", path="fixture.py", max_count=1,
                    justification="t",
                )
            ]
        )
        result = lint(P101_DEAD_LETTER, config=config)
        assert rules_of(result) == []
        assert [v.rule for v in result.baselined] == ["P101"]


class TestPayloadSchema:
    def test_p201_handler_reads_undefined_field(self):
        source = PROTO_CLEAN.replace("msg.body", "msg.nope")
        result = lint(source)
        assert rules_of(result) == ["P201"]
        assert "Ping.nope" in result.violations[0].message

    def test_p201_allows_properties_and_methods(self):
        source = PROTO_CLEAN.replace(
            "class Ping:\n    body: str\n",
            "class Ping:\n"
            "    body: str\n"
            "\n"
            "    @property\n"
            "    def tag(self):\n"
            "        return (self.body,)\n",
        ).replace("msg.body", "msg.tag")
        assert rules_of(lint(source)) == []

    def test_p202_too_many_positionals(self):
        source = PROTO_CLEAN.replace('Ping(body="hi")', 'Ping("hi", "extra")')
        assert rules_of(lint(source)) == ["P202"]

    def test_p202_unknown_keyword(self):
        source = PROTO_CLEAN.replace(
            'Ping(body="hi")', 'Ping(body="hi", ttl=3)'
        )
        result = lint(source)
        assert rules_of(result) == ["P202"]
        assert "'ttl'" in result.violations[0].message

    def test_p203_mutable_field_on_frozen_message(self):
        source = PROTO_CLEAN.replace("body: str", "body: list")
        result = lint(source)
        assert rules_of(result) == ["P203"]

    def test_p203_immutable_containers_are_clean(self):
        source = PROTO_CLEAN.replace(
            "body: str", "body: Tuple[str, ...]\n    seen: frozenset"
        ).replace(
            "from dataclasses import dataclass",
            "from dataclasses import dataclass\nfrom typing import Tuple",
        )
        assert rules_of(lint(source)) == []

    def test_p203_only_applies_to_frozen_messages(self):
        source = PROTO_CLEAN.replace(
            "@dataclass(frozen=True)", "@dataclass"
        ).replace("body: str", "body: list")
        assert "P203" not in rules_of(lint(source))


REQUEST_REPLY = LintConfig(request_reply=(("Ping", "Pong"),))

PROTO_PAIR = """\
from dataclasses import dataclass

__all__ = ["Ping", "Pong", "Requester", "Responder"]


@dataclass(frozen=True)
class Ping:
    body: str


@dataclass(frozen=True)
class Pong:
    body: str


class Requester:
    def start(self):
        self.node.register_handler(Pong, self._on_pong)

    def poke(self, dst):
        self.node.send(dst, Ping(body="x"))

    def _on_pong(self, msg, src):
        self.last = msg.body


class Responder:
    def start(self):
        self.node.register_handler(Ping, self._on_ping)

    def _on_ping(self, msg, src):
        self.node.send(src, Pong(body=msg.body))
"""


class TestRequestReplyDiscipline:
    def test_clean_pair_passes(self):
        assert rules_of(lint(PROTO_PAIR, config=REQUEST_REPLY)) == []

    def test_p301_handler_never_sends_reply(self):
        source = PROTO_PAIR.replace(
            "        self.node.send(src, Pong(body=msg.body))\n",
            "        self.note = msg.body\n",
        )
        result = lint(source, config=REQUEST_REPLY)
        assert "P301" in rules_of(result)

    def test_p302_reply_sent_outside_request_handler(self):
        source = PROTO_PAIR + (
            "\n"
            "class Spammer:\n"
            "    def tick(self, dst):\n"
            "        self.node.send(dst, Pong(body=\"u\"))\n"
        )
        result = lint(source, config=REQUEST_REPLY)
        assert "P302" in rules_of(result)
        assert "P301" not in rules_of(result)

    def test_unconfigured_pair_is_not_judged(self):
        # Same shape, no [lint.protocol] entry naming Ping/Pong: the
        # broken responder draws no P3xx.
        source = PROTO_PAIR.replace(
            "        self.node.send(src, Pong(body=msg.body))\n",
            "        self.note = msg.body\n",
        )
        config = LintConfig(request_reply=())
        p3 = [r for r in rules_of(lint(source, config=config)) if r.startswith("P3")]
        assert p3 == []

    def test_malformed_request_reply_config_rejected(self):
        with pytest.raises(ConfigurationError, match="request_reply"):
            LintConfig.from_dict(
                {"lint": {"protocol": {"request_reply": [["OnlyOne"]]}}}
            )

    def test_request_reply_round_trips_through_policy_toml(self):
        config = LintConfig(request_reply=(("Ping", "Pong"),))
        loaded = LintConfig.from_dict(
            tomllib.loads(render_policy_toml(config, []))
        )
        assert loaded.request_reply == (("Ping", "Pong"),)


class TestDeadProtocolCode:
    def test_p401_dead_message_in_an_edged_module(self):
        source = PROTO_CLEAN.replace(
            '__all__ = ["Ping", "PingService"]',
            '__all__ = ["Ping", "Fossil", "PingService"]',
        ).replace(
            "class PingService:",
            "@dataclass(frozen=True)\n"
            "class Fossil:\n"
            "    body: str\n"
            "\n"
            "\n"
            "class PingService:",
        )
        result = lint(source)
        assert rules_of(result) == ["P401"]
        assert "Fossil" in result.violations[0].message

    def test_unedged_spec_dataclass_is_not_a_message(self):
        # A dataclass in a module with no protocol edges at all is
        # config/spec data, not a dead message.
        source = (
            "from dataclasses import dataclass\n"
            "\n"
            '__all__ = ["Config"]\n'
            "\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class Config:\n"
            "    retries: int\n"
        )
        assert rules_of(lint(source)) == []


class TestProtocolSelect:
    def test_select_bare_p_scopes_to_protocol_rules(self):
        mixed = P101_DEAD_LETTER + "\nimport time\nt = time.time()\n"
        result = lint_source(mixed, path=SIM, select=["P"])
        assert rules_of(result) == ["P101"]

    def test_select_family_p1(self):
        result = lint_source(P101_DEAD_LETTER, path=SIM, select=["P1"])
        assert rules_of(result) == ["P101"]

    def test_unknown_p_selector_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown rule selector"):
            lint_source("x = 1\n", path=SIM, select=["P9"])


# --------------------------------------- whole-program linking & artifact

SENDER_MODULE = """\
from dataclasses import dataclass

__all__ = ["Beacon", "Beaconer"]


@dataclass(frozen=True)
class Beacon:
    body: str


class Beaconer:
    def tick(self, dst):
        self.node.send(dst, Beacon(body="b"))
"""

HANDLER_MODULE = """\
__all__ = ["BeaconSink"]


class BeaconSink:
    def start(self):
        self.node.register_handler(Beacon, self._on_beacon)

    def _on_beacon(self, msg, src):
        self.last = msg.body
"""


class TestWholeProgramLinking:
    def _write_fixture_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "a_sender.py").write_text(SENDER_MODULE)
        (pkg / "b_handler.py").write_text(HANDLER_MODULE)
        return tmp_path

    def test_handler_in_another_module_resolves(self, tmp_path):
        root = self._write_fixture_tree(tmp_path)
        result = lint_paths([str(root)], LintConfig())
        assert rules_of(result) == []

    def test_subtree_lint_caveat(self, tmp_path):
        # The documented caveat: linting only the sender's module loses
        # the handler edge and reports a (spurious) dead letter. The
        # committed policy always lints src whole for exactly this
        # reason.
        root = self._write_fixture_tree(tmp_path)
        sender = root / "repro" / "sim" / "a_sender.py"
        result = lint_paths([str(sender)], LintConfig())
        assert "P101" in rules_of(result)


class TestProtocolGraphArtifact:
    def _graph(self):
        config = LintConfig.load(os.path.join(REPO_ROOT, ".repro-lint.toml"))
        return build_protocol_graph([os.path.join(REPO_ROOT, "src")], config)

    def test_artifacts_are_byte_stable(self):
        first, second = self._graph(), self._graph()
        assert first.to_json() == second.to_json()
        assert first.to_dot() == second.to_dot()

    def test_graph_covers_the_core_protocol(self):
        graph = self._graph()
        for name in ("PutRequest", "PutAck", "GetRequest", "GetReply"):
            assert name in graph.messages, name
        handles = graph.handle_edges()
        assert ("RequestHandler", "PutRequest") in handles
        assert ("RequestHandler", "GetRequest") in handles
        assert graph.send_edges()[("RequestHandler", "PutAck")] >= 1

    def test_unresolved_sends_are_reported_not_dropped(self):
        # Node.send is a generic forwarder relaying its parameter; its
        # payload cannot be pinned statically and must be listed, not
        # silently dropped.
        graph = self._graph()
        names = {(s.endpoint, s.function) for s in graph.unresolved}
        assert ("Node", "send") in names

    def test_json_artifact_schema(self):
        payload = json.loads(self._graph().to_json())
        assert payload["schema"] == 1
        assert {"messages", "endpoints", "edges", "unresolved_sends"} <= set(
            payload
        )
        assert payload["edges"]["sends"] and payload["edges"]["handles"]

    def test_cli_graph_is_byte_identical_across_invocations(self):
        def invoke():
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "protocol", "graph",
                    "--format", "json",
                ],
                cwd=REPO_ROOT,
                env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            return proc.stdout

        first = invoke()
        assert first == invoke()
        assert json.loads(first)["schema"] == 1
