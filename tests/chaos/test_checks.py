"""Check-registry rows audited on hand-built contexts."""

from repro.chaos.checks import CHECKS, CheckContext

from .helpers import corpus_spec


def test_loss_cost_visible_names_the_highest_loss_rate():
    spec = corpus_spec("monotone-loss")
    ctx = CheckContext(
        spec,
        {"loss_rates": [0.0, 0.02, 0.08]},
        sweep_elapsed=[5_000, 5_200, 5_000],
    )
    [row] = CHECKS["loss-cost-visible"](ctx, {})
    assert row.name == "loss-cost-visible"
    assert not row.ok
    assert row.detail == "8% loss no slower than clean run ([5000, 5200, 5000])"
