"""Tests for the reprolint static-analysis framework and its six rules.

Each rule is exercised against three fixtures — violating, clean, and
suppressed — written into a temporary tree that mirrors the repository
layout (``src/repro/...``), so include/exclude path scoping is part of
what is tested.  A final test asserts the real tree lints clean.
"""

import io
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import lint_paths  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.engine import collect_suppressions  # noqa: E402
from tools.reprolint.reporters import JsonReporter, TextReporter  # noqa: E402
from tools.reprolint.rules import ALL_CHECKERS, checker_by_code  # noqa: E402


def lint_snippet(tmp_path, relpath, source, codes=None):
    """Write ``source`` at ``relpath`` under a scratch root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    checkers = None
    if codes is not None:
        checkers = [checker_by_code(code)() for code in codes]
    return lint_paths([tmp_path], checkers=checkers, root=tmp_path)


def codes_of(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------- #
# Engine behavior
# ---------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_becomes_pseudo_finding(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/bad.py", "def broken(:\n")
        assert codes_of(findings) == ["REPRO000"]
        assert "syntax error" in findings[0].message

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"], root=tmp_path)

    def test_findings_sorted_by_location(self, tmp_path):
        src = (
            "import random\n"
            "b = random.random()\n"
            "a = random.random()\n"
        )
        findings = lint_snippet(
            tmp_path, "src/repro/x.py", src, codes=["REPRO001"]
        )
        assert [f.line for f in findings] == [2, 3]

    def test_suppression_comments_in_strings_ignored(self):
        line, file_ = collect_suppressions(
            's = "# reprolint: disable=REPRO001"\n'
        )
        assert not line and not file_

    def test_line_suppression_parsing(self):
        line, _ = collect_suppressions(
            "x = 1  # reprolint: disable=REPRO002, REPRO003\n"
        )
        assert line == {1: {"REPRO002", "REPRO003"}}

    def test_bare_disable_suppresses_all(self, tmp_path):
        src = "import random\nx = random.random()  # reprolint: disable\n"
        assert lint_snippet(tmp_path, "src/repro/x.py", src) == []

    def test_file_suppression_only_in_header_window(self):
        header = "# reprolint: disable-file=REPRO001\n"
        _, file_ = collect_suppressions(header)
        assert file_ == {"REPRO001"}
        late = "\n" * 15 + header
        _, file_ = collect_suppressions(late)
        assert file_ == set()


# ---------------------------------------------------------------------- #
# REPRO001 — unseeded RNG
# ---------------------------------------------------------------------- #
class TestRepro001:
    def test_flags_unseeded_module_calls_and_constructors(self, tmp_path):
        src = (
            "import random\n"
            "r = random.Random()\n"
            "x = random.randrange(10)\n"
        )
        findings = lint_snippet(
            tmp_path, "src/repro/sim.py", src, codes=["REPRO001"]
        )
        assert codes_of(findings) == ["REPRO001", "REPRO001"]

    def test_clean_when_seeded(self, tmp_path):
        src = (
            "import random\n"
            "def run(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/sim.py", src, codes=["REPRO001"]
        ) == []

    def test_cli_modules_exempt(self, tmp_path):
        src = "import random\nr = random.Random()\n"
        assert lint_snippet(
            tmp_path, "src/repro/cli.py", src, codes=["REPRO001"]
        ) == []

    def test_suppression(self, tmp_path):
        src = (
            "import random\n"
            "r = random.Random()  # reprolint: disable=REPRO001\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/sim.py", src, codes=["REPRO001"]
        ) == []

    def test_flags_unseeded_numpy_generator(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = lint_snippet(
            tmp_path, "src/repro/sim.py", src, codes=["REPRO001"]
        )
        assert codes_of(findings) == ["REPRO001"]


# ---------------------------------------------------------------------- #
# REPRO002 — magic geometry literals
# ---------------------------------------------------------------------- #
class TestRepro002:
    def test_flags_magic_literal_in_expression(self, tmp_path):
        src = "def rows():\n    return 65536 // 4\n"
        findings = lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO002"]
        )
        assert codes_of(findings) == ["REPRO002"]

    def test_allows_all_caps_constant_definition(self, tmp_path):
        src = "ROWS_PER_BANK = 65536\nBITS = 8\n"
        assert lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO002"]
        ) == []

    def test_geometry_module_exempt(self, tmp_path):
        src = "def rows():\n    return 65536\n"
        assert lint_snippet(
            tmp_path, "src/repro/stack/geometry.py", src, codes=["REPRO002"]
        ) == []

    def test_tests_not_in_scope(self, tmp_path):
        src = "assert 2 ** 16 == 65536\n"
        assert lint_snippet(
            tmp_path, "tests/test_foo.py", src, codes=["REPRO002"]
        ) == []

    def test_file_level_suppression(self, tmp_path):
        src = (
            "# reprolint: disable-file=REPRO002 -- field arithmetic\n"
            "TABLE = [0] * 256\n"
            "def f(x):\n    return x % 256\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO002"]
        ) == []


# ---------------------------------------------------------------------- #
# REPRO003 — float equality
# ---------------------------------------------------------------------- #
class TestRepro003:
    def test_flags_float_literal_comparison(self, tmp_path):
        src = "def check(p):\n    return p == 0.5\n"
        findings = lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO003"]
        )
        assert codes_of(findings) == ["REPRO003"]

    def test_flags_probability_name_comparison(self, tmp_path):
        src = "def same(prob_a, prob_b):\n    return prob_a != prob_b\n"
        findings = lint_snippet(
            tmp_path, "src/repro/ecc/foo.py", src, codes=["REPRO003"]
        )
        assert codes_of(findings) == ["REPRO003"]

    def test_int_comparison_clean(self, tmp_path):
        src = "def check(count):\n    return count == 4\n"
        assert lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO003"]
        ) == []

    def test_out_of_scope_module_clean(self, tmp_path):
        src = "def check(p):\n    return p == 0.5\n"
        assert lint_snippet(
            tmp_path, "src/repro/perf/foo.py", src, codes=["REPRO003"]
        ) == []

    def test_suppression(self, tmp_path):
        src = (
            "def check(p):\n"
            "    return p == 0.0  # reprolint: disable=REPRO003\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO003"]
        ) == []


# ---------------------------------------------------------------------- #
# REPRO004 — mutable default arguments
# ---------------------------------------------------------------------- #
class TestRepro004:
    def test_flags_mutable_literal_defaults(self, tmp_path):
        src = "def f(xs=[], m={}):\n    return xs, m\n"
        findings = lint_snippet(
            tmp_path, "src/repro/foo.py", src, codes=["REPRO004"]
        )
        assert codes_of(findings) == ["REPRO004", "REPRO004"]

    def test_flags_constructor_call_default(self, tmp_path):
        src = "def f(xs=list()):\n    return xs\n"
        findings = lint_snippet(
            tmp_path, "src/repro/foo.py", src, codes=["REPRO004"]
        )
        assert codes_of(findings) == ["REPRO004"]

    def test_flags_kwonly_and_lambda_defaults(self, tmp_path):
        src = "f = lambda xs=[]: xs\ndef g(*, m={}):\n    return m\n"
        findings = lint_snippet(
            tmp_path, "src/repro/foo.py", src, codes=["REPRO004"]
        )
        assert len(findings) == 2

    def test_none_and_tuple_defaults_clean(self, tmp_path):
        src = "def f(xs=None, t=(), s='x'):\n    return xs, t, s\n"
        assert lint_snippet(
            tmp_path, "src/repro/foo.py", src, codes=["REPRO004"]
        ) == []

    def test_applies_to_tests_too(self, tmp_path):
        src = "def helper(acc=[]):\n    return acc\n"
        findings = lint_snippet(
            tmp_path, "tests/test_foo.py", src, codes=["REPRO004"]
        )
        assert codes_of(findings) == ["REPRO004"]


# ---------------------------------------------------------------------- #
# REPRO005 — FIT vs per-hour probability unit discipline
# ---------------------------------------------------------------------- #
class TestRepro005:
    def test_flags_fit_plus_probability(self, tmp_path):
        src = (
            "def total(bank_fit, fail_prob):\n"
            "    return bank_fit + fail_prob\n"
        )
        findings = lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO005"]
        )
        assert codes_of(findings) == ["REPRO005"]

    def test_flags_fit_compared_to_probability(self, tmp_path):
        src = (
            "def worse(row_fit, prob_per_hour):\n"
            "    return row_fit > prob_per_hour\n"
        )
        findings = lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO005"]
        )
        assert codes_of(findings) == ["REPRO005"]

    def test_converted_sum_clean(self, tmp_path):
        src = (
            "FIT_TO_PER_HOUR = 1e-9\n"
            "def total(bank_fit, fail_prob):\n"
            "    return bank_fit * FIT_TO_PER_HOUR + fail_prob\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO005"]
        ) == []

    def test_same_unit_sum_clean(self, tmp_path):
        src = (
            "def total(bank_fit, row_fit):\n"
            "    return bank_fit + row_fit\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO005"]
        ) == []

    def test_suppression(self, tmp_path):
        src = (
            "def total(bank_fit, fail_prob):\n"
            "    return bank_fit + fail_prob  # reprolint: disable=REPRO005\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO005"]
        ) == []


# ---------------------------------------------------------------------- #
# REPRO006 — dataclass physical-field validation
# ---------------------------------------------------------------------- #
class TestRepro006:
    VIOLATING = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Loc:\n"
        "    channel: int\n"
        "    bank: int\n"
    )

    def test_flags_missing_post_init(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/stack/foo.py", self.VIOLATING,
            codes=["REPRO006"],
        )
        assert codes_of(findings) == ["REPRO006"]

    def test_clean_with_post_init(self, tmp_path):
        src = self.VIOLATING + (
            "    def __post_init__(self):\n"
            "        assert self.channel >= 0\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO006"]
        ) == []

    def test_non_physical_fields_clean(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Stats:\n"
            "    hits: int\n"
            "    misses: int\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO006"]
        ) == []

    def test_collection_fields_clean(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "from typing import List\n"
            "@dataclass\n"
            "class Hist:\n"
            "    rows_per_bank: List[int]\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO006"]
        ) == []

    def test_suppression(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Loc:  # reprolint: disable=REPRO006\n"
            "    channel: int\n"
        )
        assert lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO006"]
        ) == []


# ---------------------------------------------------------------------- #
# REPRO007 — telemetry discipline in instrumented modules
# ---------------------------------------------------------------------- #
class TestRepro007:
    def test_flags_print_in_instrumented_module(self, tmp_path):
        src = "def report(x):\n    print(x)\n"
        findings = lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO007"]
        )
        assert codes_of(findings) == ["REPRO007"]

    def test_flags_time_time(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.time()\n"
        findings = lint_snippet(
            tmp_path, "src/repro/core/foo.py", src, codes=["REPRO007"]
        )
        assert codes_of(findings) == ["REPRO007"]

    def test_flags_from_time_import_time(self, tmp_path):
        src = "from time import time\n\ndef now():\n    return time()\n"
        findings = lint_snippet(
            tmp_path, "src/repro/perf/foo.py", src, codes=["REPRO007"]
        )
        assert codes_of(findings) == ["REPRO007"]

    def test_monotonic_is_allowed(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.monotonic()\n"
        assert lint_snippet(
            tmp_path, "src/repro/reliability/foo.py", src, codes=["REPRO007"]
        ) == []

    def test_flags_print_in_ecc_kernel_module(self, tmp_path):
        # The incremental correctability kernels (src/repro/ecc/*) sit on
        # the Monte-Carlo hot path and are held to the same discipline.
        src = "def observe(f):\n    print(f)\n"
        findings = lint_snippet(
            tmp_path, "src/repro/ecc/foo.py", src, codes=["REPRO007"]
        )
        assert codes_of(findings) == ["REPRO007"]

    def test_uninstrumented_modules_exempt(self, tmp_path):
        src = "def report(x):\n    print(x)\n"
        assert lint_snippet(
            tmp_path, "src/repro/analysis/foo.py", src, codes=["REPRO007"]
        ) == []

    def test_telemetry_package_exempt(self, tmp_path):
        # console.py *is* the sanctioned output path; it may print.
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        assert lint_snippet(
            tmp_path, "src/repro/telemetry/foo.py", src, codes=["REPRO007"]
        ) == []

    def test_service_package_is_instrumented(self, tmp_path):
        # The campaign service is long-lived and observable through
        # /metrics; its modules follow the same telemetry discipline.
        src = "def report(x):\n    print(x)\n"
        findings = lint_snippet(
            tmp_path, "src/repro/service/foo.py", src, codes=["REPRO007"]
        )
        assert codes_of(findings) == ["REPRO007"]

    def test_service_package_flags_wall_clock(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.time()\n"
        findings = lint_snippet(
            tmp_path, "src/repro/service/foo.py", src, codes=["REPRO007"]
        )
        assert codes_of(findings) == ["REPRO007"]


# ---------------------------------------------------------------------- #
# REPRO011 — no calls in the message arguments of a contract check
# ---------------------------------------------------------------------- #
class TestRepro011:
    def lint(self, tmp_path, src):
        return lint_snippet(
            tmp_path, "src/repro/stack/foo.py", src, codes=["REPRO011"]
        )

    @pytest.mark.parametrize("header,call", [
        ("from repro import contracts", "contracts.ensure"),
        ("from repro import contracts as k", "k.ensure"),
        ("import repro.contracts", "repro.contracts.ensure"),
        ("import repro.contracts as c", "c.ensure"),
        ("from repro.contracts import ensure", "ensure"),
        ("from repro.contracts import ensure as post", "post"),
        ("from . import contracts", "contracts.ensure"),
        ("from .contracts import ensure", "ensure"),
    ])
    def test_flags_a_call_however_the_verb_is_imported(
        self, tmp_path, header, call
    ):
        # The round-trip contract as it once was: the re-encode in the
        # message ran on every decode.
        src = (
            f"{header}\n\n"
            "def decode(self, address, location):\n"
            f"    {call}(self.to_address(location) == address,\n"
            "        'round trip broken: %d -> %d', address,\n"
            "        self.to_address(location))\n"
        )
        findings = self.lint(tmp_path, src)
        assert codes_of(findings) == ["REPRO011"]
        assert findings[0].line == 6
        assert "self.to_address()" in findings[0].message

    @pytest.mark.parametrize("verb", ["require", "ensure", "invariant"])
    def test_flags_every_verb_and_nested_calls(self, tmp_path, verb):
        src = (
            "from repro import contracts\n\n"
            "def f(xs):\n"
            f"    contracts.{verb}(not xs, 'left: %s', sorted(len(x) for x in xs))\n"
            f"    contracts.{verb}(not xs, message=repr(xs))\n"
            f"    contracts.{verb}(not xs, 'got %d', len(tuple(xs)))\n"
        )
        findings = self.lint(tmp_path, src)
        assert [f.line for f in findings] == [4, 5, 6]

    def test_names_len_and_the_condition_are_allowed(self, tmp_path):
        src = (
            "from repro import contracts\n\n"
            "def f(self, xs, location):\n"
            "    encoded = self.to_address(location)\n"
            "    contracts.ensure(self.to_address(location) == encoded,\n"
            "                     'got %d of %d (%r)', len(xs), encoded,\n"
            "                     (location, xs[0], self.limit))\n"
            "    contracts.require(all(xs), 'lazy %r', lambda: sorted(xs))\n"
        )
        assert self.lint(tmp_path, src) == []

    def test_other_modules_verbs_are_not_contracts(self, tmp_path):
        src = (
            "from checks import ensure\n"
            "import policy\n\n"
            "def f(xs):\n"
            "    ensure(xs, 'bad %r', sorted(xs))\n"
            "    policy.require(xs, 'bad %r', sorted(xs))\n"
        )
        assert self.lint(tmp_path, src) == []

    def test_suppressed_line(self, tmp_path):
        src = (
            "from repro import contracts\n\n"
            "def f(xs):\n"
            "    contracts.ensure(xs, 'bad %r', sorted(xs))"
            "  # reprolint: disable=REPRO011 -- cold path\n"
        )
        assert self.lint(tmp_path, src) == []


# ---------------------------------------------------------------------- #
# Reporters and CLI
# ---------------------------------------------------------------------- #
class TestReporting:
    def _one_finding(self, tmp_path):
        return lint_snippet(
            tmp_path, "src/repro/foo.py", "def f(xs=[]):\n    return xs\n"
        )

    def test_text_reporter(self, tmp_path):
        out = io.StringIO()
        TextReporter(out).report(self._one_finding(tmp_path))
        text = out.getvalue()
        assert "src/repro/foo.py:1:" in text
        assert "REPRO004: 1" in text

    def test_text_reporter_clean(self):
        out = io.StringIO()
        TextReporter(out).report([])
        assert "clean" in out.getvalue()

    def test_json_reporter(self, tmp_path):
        out = io.StringIO()
        JsonReporter(out).report(self._one_finding(tmp_path))
        payload = json.loads(out.getvalue())
        assert payload["count"] == 1
        assert payload["by_code"] == {"REPRO004": 1}
        assert payload["findings"][0]["path"] == "src/repro/foo.py"

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "foo.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(xs=[]):\n    return xs\n")
        assert reprolint_main([str(bad), "--root", str(tmp_path)]) == 1
        bad.write_text("def f(xs=None):\n    return xs\n")
        assert reprolint_main([str(bad), "--root", str(tmp_path)]) == 0
        assert reprolint_main([str(tmp_path / "missing")]) == 2
        assert reprolint_main(["--select", "NOPE", str(bad)]) == 2
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_CHECKERS:
            assert cls.code in out


# ---------------------------------------------------------------------- #
# The tree itself
# ---------------------------------------------------------------------- #
class TestRepositoryIsClean:
    def test_src_tests_benchmarks_lint_clean(self):
        paths = [
            REPO_ROOT / name
            for name in ("src", "tests", "benchmarks")
            if (REPO_ROOT / name).exists()
        ]
        findings = lint_paths(paths, root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)
