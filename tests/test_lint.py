"""The determinism linter: rule fixtures, the strictly parsed policy
file, baseline round-trips, the JSON report, and the tree-level contract
that ``repro lint src`` is clean against the committed policy.

The isolation families (I1xx–I4xx) are covered here too: per-rule
positive/negative fixtures, the ``--select`` filter, and mixed-report
exit codes with I-rules present."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tomllib

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    BaselineEntry,
    CATALOG,
    FAMILIES,
    LintConfig,
    apply_baseline,
    baseline_from_violations,
    format_json,
    format_text,
    lint_paths,
    lint_source,
    render_policy_toml,
)
from repro.lint.config import is_simpath

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
        assert is_simpath(SIM)
        assert not is_simpath(OFF)


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

    @pytest.mark.parametrize("selector", ["P", "P1", "P301", "D4", "D403"])
    def test_retired_selectors_are_unknown(self, selector):
        # The protocol families and D4xx left the linter: selecting them
        # is an error, not a silently empty report.
        with pytest.raises(ConfigurationError, match="unknown rule selector"):
            lint_source(MIXED, path=SIM, select=[selector])

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
            # The policy is the built-in defaults: a [lint] table of any
            # shape is an unknown key.
            ({"lint": {"simpath": "repro/core/"}}, "lint"),
            ({"lint": ["repro/core/"]}, "lint"),
            ({"baseline": [{**ENTRY, "max": "five"}]}, "baseline.max"),
            ({"baseline": [{**ENTRY, "max": -3}]}, "baseline.max"),
            ({"baseline": [{**ENTRY, "max": True}]}, "baseline.max"),
            ({"baseline": [{**ENTRY, "maxx": 2}]}, "baseline.maxx"),
            ({"schema": 7}, "schema"),
        ],
        ids=[
            "string-simpath",
            "lint-not-a-table",
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

    @pytest.mark.parametrize(
        "text, key",
        [
            ('schema = 1\n\n[lint]\nsimpath = "repro/core/"\n', "'lint'"),
            (
                'schema = 1\n\n[[baseline]]\nrule = "D2"\npath = "a/"\nmax = 0\n'
                'justification = "j"\n',
                "baseline.max",
            ),
        ],
        ids=["lint-table", "max-zero"],
    )
    def test_cli_bad_policy_exits_2_naming_the_key(self, tmp_path, text, key):
        policy = tmp_path / "policy.toml"
        policy.write_text(text)
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
        assert key in proc.stdout + proc.stderr



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
        baseline = [
            BaselineEntry(
                rule="D2", path="repro/obs/", max_count=5, justification="prov"
            )
        ]
        doc = tomllib.loads(render_policy_toml(baseline))
        assert set(doc) == {"schema", "baseline"}
        assert LintConfig.from_dict(doc) == LintConfig(baseline=baseline)

    def test_rendered_policy_is_byte_stable(self):
        baseline = [
            BaselineEntry(rule="D2", path="a/", max_count=1, justification="j")
        ]
        assert render_policy_toml(baseline) == render_policy_toml(baseline)


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
            assert f.read() == render_policy_toml(config.baseline)

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
