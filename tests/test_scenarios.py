"""Registry parsing, scenario execution, and batch-run reporting."""

import re
import shlex

import pytest

from folinv.scenarios import (
    RegistryError,
    RunReport,
    Scenario,
    load_registry,
    parse_registry,
    run_all,
    run_scenario,
)


VALID_TEXT = """\
# comment line
b-second | a description | section-1 | milnor x^2+y^3 | 2

a-first | another | section-2 | intersect x y | 1
"""


class TestParseRegistry:
    def test_sorted_and_fields(self):
        scenarios = parse_registry(VALID_TEXT)
        assert [sc.id for sc in scenarios] == ["a-first", "b-second"]
        sc = scenarios[1]
        assert sc.description == "a description"
        assert sc.paper_location == "section-1"
        assert sc.expression == "milnor x^2+y^3"
        assert sc.expected == "2"

    def test_comments_and_blanks_skipped(self):
        assert parse_registry("# only a comment\n\n   \n") == ()

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(RegistryError, match="line 2"):
            parse_registry("# ok\nx | y | z | w\n")

    def test_duplicate_id_rejected(self):
        text = "dup | a | s | milnor x^2 | 1\ndup | b | s | milnor y^2 | 1\n"
        with pytest.raises(RegistryError, match="duplicate scenario id 'dup'"):
            parse_registry(text)

    def test_empty_required_field_rejected(self):
        with pytest.raises(RegistryError, match="line 1"):
            parse_registry(" | a | s | milnor x^2 | 1\n")
        with pytest.raises(RegistryError, match="line 1"):
            parse_registry("ok | a | s |  | 1\n")

    def test_load_registry_from_path(self, tmp_path):
        p = tmp_path / "reg.txt"
        p.write_text(VALID_TEXT, encoding="utf-8")
        assert [sc.id for sc in load_registry(p)] == ["a-first", "b-second"]

    @pytest.mark.parametrize("expression", [
        "milnor 'x^2+y^3'", 'milnor "x^2+y^3"', "milnor x^2+y^3\\ --k 1",
    ])
    def test_quotes_and_backslashes_rejected(self, tmp_path, expression):
        # a shell would read these differently from the whitespace split
        text = f"# ok\nok | a | s | milnor x^2 | 1\nq | b | s | {expression} | 2\n"
        with pytest.raises(RegistryError, match="^line 3: expression holds"):
            parse_registry(text)
        p = tmp_path / "quoted.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(RegistryError, match="^line 3: expression holds"):
            load_registry(p)

    def test_unreadable_path_is_a_registry_error(self, tmp_path):
        not_utf8 = tmp_path / "bad.txt"
        not_utf8.write_bytes(b"a | d | section-1 | milnor x^2 | 1\n# \xff\n")
        for path in (tmp_path / "missing.txt", tmp_path, not_utf8):
            message = f"cannot read registry {str(path)!r}: "
            with pytest.raises(RegistryError, match=re.escape(message)):
                load_registry(path)


class TestBundledRegistry:
    def setup_method(self):
        self.registry = load_registry()
        self.ids = {sc.id for sc in self.registry}

    def test_ids_unique_and_sorted(self):
        ids = [sc.id for sc in self.registry]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_full_intersection_table_registered(self):
        for col in (1, 2, 3, 4):
            for k in range(11):
                assert f"table-3-{col}-k{k}" in self.ids

    def test_named_examples_registered(self):
        for sid in (
            "table-3-1-k4",
            "counterexample-7-ratio",
            "tau0-topology-f",
            "tau0-topology-g",
            "tau1-topology-f",
            "tau1-topology-g",
            "counterexample-7-mu8",
            "counterexample-7-tau8",
        ):
            assert sid in self.ids

    def test_example_families_registered(self):
        for k in range(6):
            assert f"example-8-1-tauk-k{k}" in self.ids
            assert f"example-8-2-tauk-k{k}" in self.ids
            assert f"example-9-1-mu-k{k}" in self.ids
            assert f"example-9-1-tau-k{k}" in self.ids
        for n, m in ((2, 2), (3, 2), (5, 3)):
            assert any(f"example-8-3-n{n}m{m}" in sid for sid in self.ids)
        for ell in (1, 2, 3):
            for k in range(4):
                assert f"prop-2-2-sn{ell}-mu-k{k}" in self.ids
                assert f"prop-2-2-sn{ell}-tau-k{k}" in self.ids
        for k in range(4):
            assert f"prop-2-2-nd-mu-k{k}" in self.ids

    def test_locations_all_use_section_tags(self):
        assert all(sc.paper_location.startswith("section-") for sc in self.registry)

    def test_whitespace_split_matches_the_shell(self):
        for sc in self.registry:
            assert sc.expression.split() == shlex.split(sc.expression), sc.id


class TestRunScenario:
    def test_table_cell(self):
        report = run_scenario("table-3-1-k4")
        assert report == RunReport(
            "table-3-1-k4", "39", "39", True, report.elapsed_ms
        )

    def test_ratio_counterexample(self):
        report = run_scenario("counterexample-7-ratio")
        assert report.computed == "78,50,true"
        assert report.passed

    def test_topology_pair(self):
        assert run_scenario("tau1-topology-f").computed == "14"
        assert run_scenario("tau1-topology-g").computed == "13"

    def test_unknown_id(self):
        with pytest.raises(RegistryError, match="unknown scenario id"):
            run_scenario("no-such-scenario")

    def test_scenario_object_direct(self):
        sc = Scenario("adhoc", "", "section-0", "milnor x^2+y^3", "2")
        report = run_scenario(sc)
        assert report.passed and report.computed == "2"

    def test_bad_expression_reported_not_raised(self):
        sc = Scenario("bad", "", "section-0", "milnor x^", "1")
        report = run_scenario(sc)
        assert not report.passed
        assert report.computed.startswith("error:")

    def test_unknown_verb_reported_not_raised(self):
        sc = Scenario("bad", "", "section-0", "frobnicate x", "1")
        report = run_scenario(sc)
        assert not report.passed
        assert report.computed.startswith(
            "error: argument verb: invalid choice: 'frobnicate'"
        )

    def test_refused_arguments_reported_without_stderr(self, capsys):
        sc = Scenario("bad", "", "section-0", "milnor x^2 --bogus", "1")
        report = run_scenario(sc)
        assert report.computed == "error: unrecognized arguments: --bogus"
        assert capsys.readouterr() == ("", "")

    def test_help_row_reported_without_output(self, capsys):
        # argparse's own help action prints to stdout and exits
        sc = Scenario("help", "", "section-0", "milnor x^2 -h", "1")
        assert run_scenario(sc).computed == "error: help requested"
        assert capsys.readouterr() == ("", "")

    def test_deep_input_reported_as_syntax_error(self):
        deep = "milnor " + "(" * 199 + "x" + ")" * 199
        assert run_scenario(Scenario("deep", "", "section-0", deep, "0")).computed == (
            "error: syntax error at byte offset 100: parentheses nested deeper than 100"
        )
        long = "milnor x^" + "9" * 5000
        assert run_scenario(Scenario("long", "", "section-0", long, "0")).computed == (
            "error: syntax error at byte offset 2: number has more than 4300 digits"
        )
        signs = "milnor y+" + "-" * 1000 + "x"
        assert run_scenario(Scenario("signs", "", "section-0", signs, "0")).passed

    def test_scenarios_verb_rejected_inside_scenario(self):
        sc = Scenario("recur", "", "section-0", "scenarios run --all", "true")
        report = run_scenario(sc)
        assert not report.passed
        assert "scenarios" in report.computed

    def test_property_marker_passes_on_true(self):
        sc = Scenario(
            "prop", "", "section-0",
            "check teissier-k --f x^2+y^2 --k-max 2", "property",
        )
        assert run_scenario(sc).passed

    def test_property_marker_fails_on_non_true(self):
        sc = Scenario(
            "prop", "", "section-0", "check ratio --f x^4-y^3 --k 2", "property"
        )
        report = run_scenario(sc)
        assert not report.passed
        assert report.computed == "12,11,false"


class TestRunAll:
    def test_full_run_passes(self):
        reports, summary = run_all()
        assert summary == {"total": 212, "passed": 212, "failed": 0}
        assert [r.scenario_id for r in reports] == sorted(
            r.scenario_id for r in reports
        )
        assert all(r.passed for r in reports)

    def test_bit_stable_reports(self):
        first, _ = run_all(filter="section-9")
        second, _ = run_all(filter="section-9")
        strip = lambda rs: [(r.scenario_id, r.computed, r.expected, r.passed) for r in rs]
        assert strip(first) == strip(second)
        assert len(first) > 0

    def test_filter_selects_subset(self):
        registry = load_registry()
        expected_ids = sorted(
            sc.id
            for sc in registry
            if "section-8" in sc.id or "section-8" in sc.paper_location
        )
        reports, summary = run_all(filter="section-8")
        assert [r.scenario_id for r in reports] == expected_ids
        assert 0 < summary["total"] < len(registry)
        assert summary["failed"] == 0

    def test_empty_filter_match_is_success(self):
        reports, summary = run_all(filter="zzz-no-match")
        assert reports == ()
        assert summary == {"total": 0, "passed": 0, "failed": 0}

    def test_failures_counted(self):
        registry = (
            Scenario("a", "", "section-0", "milnor x^2+y^3", "2"),
            Scenario("b", "", "section-0", "milnor x^2+y^3", "999"),
        )
        reports, summary = run_all(registry=registry)
        assert summary == {"total": 2, "passed": 1, "failed": 1}
        assert [r.passed for r in reports] == [True, False]

    def test_scenarios_verb_row_fails_and_the_batch_goes_on(self):
        registry = (
            Scenario("a", "", "section-0", "scenarios list", "true"),
            Scenario("b", "", "section-0", "milnor x^2+y^3", "2"),
        )
        reports, summary = run_all(registry=registry)
        assert reports[0].computed == (
            "error: scenario expressions may not invoke the scenarios verb"
        )
        assert [r.passed for r in reports] == [False, True]
        assert summary == {"total": 2, "passed": 1, "failed": 1}


class TestRecords:
    """Scenario and RunReport are immutable records compared by value."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Scenario("a", "d", "section-1", "milnor x^2", "1"),
            lambda: RunReport("a", "1", "1", True, 3),
        ],
        ids=["Scenario", "RunReport"],
    )
    def test_value_semantics(self, make):
        one, two = make(), make()
        assert one is not two and one == two and hash(one) == hash(two)
        with pytest.raises(AttributeError):
            one.expected = "2"
