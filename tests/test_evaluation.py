import json

import pytest

from convground import (
    CoverageError,
    GoldAnnotation,
    GroundingLabel,
    ReportFormat,
    render_report,
    score,
)
from convground.evaluation import KnowledgeVerdict


@pytest.fixture
def report(gold, predictions):
    return score(gold, predictions)


class TestScore:
    def test_per_label_counts(self, report):
        assert report.per_label_accuracy[GroundingLabel.EXPLICIT] == (5, 6)
        assert report.per_label_accuracy[GroundingLabel.IMPLICIT] == (1, 3)
        assert report.per_label_accuracy[GroundingLabel.CLARIFICATION] == (0, 2)

    def test_knowledge_accuracy(self, report):
        assert report.knowledge_accuracy == (8, 11)

    def test_overall_label_accuracy(self, report):
        assert report.label_accuracy == (6, 11)

    def test_confusion_rows_sum_to_gold_totals(self, report):
        for label in (GroundingLabel.EXPLICIT, GroundingLabel.IMPLICIT,
                      GroundingLabel.CLARIFICATION):
            row_sum = sum(
                count for (g, _), count in report.confusion.items() if g is label
            )
            assert row_sum == report.per_label_accuracy[label][1]

    def test_predictions_equal_gold_all_correct(self, gold):
        perfect = score(gold, gold)
        assert perfect.label_accuracy == (11, 11)
        assert perfect.knowledge_accuracy == (11, 11)
        assert all(g is p for (g, p) in perfect.confusion)

    def test_missing_prediction_raises_coverage_error(self, gold, predictions):
        incomplete = {k: v[1:] if k == "A" else v for k, v in predictions.items()}
        with pytest.raises(CoverageError, match="dialogue 'A' turn 2"):
            score(gold, incomplete)

    def test_every_missing_turn_is_named_in_gold_order(self, gold, predictions):
        incomplete = {
            k: [p for p in v if p.turn_index not in (2, 14)] for k, v in predictions.items()
        }
        with pytest.raises(CoverageError) as raised:
            score(gold, incomplete)
        assert str(raised.value) == (
            "no prediction for dialogue 'A' turn 2, dialogue 'B' turn 2, dialogue 'B' turn 14"
        )

    def test_permutation_invariant(self, gold, predictions):
        shuffled = {k: list(reversed(v)) for k, v in predictions.items()}
        assert score(gold, shuffled).to_json_dict() == score(gold, predictions).to_json_dict()

    def test_gold_without_knowledge_scored_on_label_only(self):
        gold = {"d": [GoldAnnotation(1, GroundingLabel.EXPLICIT)]}
        predictions = {"d": [GoldAnnotation(1, GroundingLabel.EXPLICIT)]}
        report = score(gold, predictions)
        assert report.knowledge_accuracy == (0, 0)
        assert report.per_turn[0].knowledge_verdict is KnowledgeVerdict.NO_GOLD


class TestRender:
    def test_markdown_shows_a2_mismatch(self, report):
        rendered = render_report(report, ReportFormat.MARKDOWN)
        assert "| A | 2 | C ≠ E | ✗ |" in rendered
        assert "| A | 11 | E = E | ✓ |" in rendered

    def test_summary_line(self, report):
        assert report.summary_line() == (
            "explicit 5/6, implicit 1/3, clarification 0/2, knowledge 8/11"
        )

    def test_machine_format_round_trips(self, report):
        rendered = render_report(report, ReportFormat.MACHINE)
        parsed = json.loads(rendered)
        assert parsed["label_accuracy"] == [6, 11]
        assert parsed["confusion"]["explicit"]["explicit"] == 5
        assert json.loads(json.dumps(parsed)) == parsed

    def test_empty_report_headers_only(self):
        report = score({}, {})
        rendered = render_report(report, ReportFormat.MARKDOWN)
        assert rendered.splitlines()[0] == "| Dialogue | Turn | Label | Knowledge |"
