"""Checks of the published-table verification report.

The report (exact reductions of the block systems plus the full n = 6
redundancy scan) is computed once per process and shared with the
acceptance suite through the module-level cache.
"""

import hashlib
import json

import pytest

from weilgroup.cli import main
from weilgroup.horn import HornTriple
from weilgroup.verify import (
    published_rows_p2q,
    published_rows_real_sq,
    summary_list_p2q,
    summary_list_real_sq,
    verify_paper_lists,
)


@pytest.fixture(scope="module")
def report():
    return verify_paper_lists()


def test_row_inventory(report):
    assert len(report.row_checks) == 101
    assert report.ok_rows() == 85
    assert len(report.tilde_only_rows) == 12
    assert len(report.malformed_rows) == 4


def test_malformed_rows_are_the_expected_four(report):
    assert set(report.malformed_rows) == {
        "p2q/sizes-2-and-4/[11]/i=1",
        "p2q/size-3/[21]",
        "real_sq/sizes-2-and-4/[8]/i=1",
        "real_sq/size-3/[19]",
    }


def test_tilde_only_rows_are_the_size_one_families(report):
    prefixes = {rid.rsplit("/i=", 1)[0] for rid in report.tilde_only_rows}
    assert prefixes == {
        "p2q/sizes-1-and-5/[0]",
        "p2q/sizes-1-and-5/[0]b",
        "real_sq/sizes-1-and-5/[0]",
    }


def test_duplicate_printed_tags(report):
    labels = {label for label, _rows in report.duplicate_labels}
    assert labels == {"[0]", "[14]"}


def test_all_stated_implications_confirmed(report):
    assert report.implications
    assert all(ok for _name, ok in report.implications)


def test_full_redundancy_finding(report):
    assert report.full_redundant_members == (
        HornTriple((1, 3, 5), (1, 3, 5), (2, 4, 6)),
    )
    assert not report.full_redundancy_matches_print
    assert "trace" in report.full_redundancy_note


def test_summary_diffs(report):
    by_case = {d.case: d for d in report.diffs}
    p2q = by_case["p2q"]
    # after pairing the two single-row misprints, exactly the one missing
    # size-3 line remains
    assert p2q.residual_machine_only == ("a1+a3+b1 >= c1+c4+c6",)
    assert len(p2q.published_only) == 2
    assert len(p2q.misprint_pairs) == 2
    printed = {p.published for p in p2q.misprint_pairs}
    assert printed == {"a2+a4+b1 >= c3+c4+c5", "a1+b2 <= c2+c2"}
    machine = {p.machine for p in p2q.misprint_pairs}
    assert machine == {
        "a2+a4+b1 >= c3+c4+c6",
        "a1+a2+a3+b1 >= c1+c3+c4+c6",  # complement form of a4+b2 <= c2+c5
    }

    realsq = by_case["p_realsq"]
    assert realsq.residual_machine_only == ()
    assert {p.published for p in realsq.misprint_pairs} == {
        "a2+a4+b >= c3+c4+c5",
        "a1+b <= c2+c2",
    }

    q2 = by_case["q2_realsq"]
    assert q2.residual_machine_only == ("a1+a3+b >= c1+c4+c6",)


def test_witness_equivalent_pair(report):
    assert report.witness_equivalent_pairs == (
        ("a1+a4+b1 >= c2+c4+c6", "a2+a3+b1 >= c2+c4+c6"),
    )


def test_summary_list_analysis(report):
    an = report.analysis
    assert an.omitted_line == "a1+a3+b1 >= c1+c4+c6"
    assert an.in_strict_set and an.lp_irredundant
    assert not an.omission_changes_grid
    assert an.misprinted_row == "a2+a4+b1 >= c3+c4+c5"
    assert an.rejected_c == (2, 2, 2, 1, 1, 0)
    assert an.lr_count == 1
    assert an.misprint_rejects and an.corrected_row_holds
    assert an.corrected_list_matches_grid
    assert an.machine_matches_lr_on_grid


def test_scalar_prune_confirmed(report):
    assert report.scalar_prune_confirmed


def test_report_serializes(report):
    text = report.to_text()
    assert "published-table verification" in text
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["rows_checked"] == 101
    assert payload["summary_list_analysis"]["lr_count"] == 1


def test_verification_script_prints_the_report(report, capsys):
    # the fixture has filled the per-process cache, so the CLI reuses it;
    # the --json form is checked in tests/test_cli.py
    assert main(["verify", "paper-lists"]) == 0
    assert capsys.readouterr().out == report.to_text() + "\n"


def test_transcription_shapes():
    assert len(published_rows_p2q()) == 61
    assert len(published_rows_real_sq()) == 40
    assert len(summary_list_p2q()) == 52  # families expanded over their ranges
    # the squared-quadratic real list omits the a1+a3 / c1+c4+c6 line
    with_line = {r.pretty() for r in summary_list_real_sq(True)}
    without = {r.pretty() for r in summary_list_real_sq(False)}
    assert "a1+a3+b >= c1+c4+c6" in with_line - without


def test_transcription_is_pinned():
    """Every field of every row of the five transcribed tables, in order,
    hashes to the digest of the transcription as first checked in: a
    changed index set, tag, range or sense fails here even where the
    report does not move."""
    tables = (
        published_rows_p2q(),
        published_rows_real_sq(),
        summary_list_p2q(),
        summary_list_real_sq(True),
        summary_list_real_sq(False),
    )
    assert [len(t) for t in tables] == [61, 40, 52, 36, 35]
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == "7d37c56f8e50a3e47eed19874dccca4511dfa4af963c0ee51d983651865161eb"
