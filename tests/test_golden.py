"""The figure regression of the acceptance suite only reads tests/golden/:
a missing golden file fails it, and it writes nothing in its place."""

import pytest

import test_acceptance
from ptfloquet import sweep_grid


def test_figure_regression_fails_on_missing_goldens_and_writes_none(
    tmp_path, monkeypatch
):
    golden = tmp_path / "golden"
    golden.mkdir()
    for name, path in [
        ("GOLDEN_DIR", golden),
        ("MANIFEST_PATH", golden / "manifest.json"),
        ("CLASSES_PATH", golden / "figure_classes.npz"),
        ("MINI_GOLDEN_PATH", golden / "mini_mu_minus1.csv"),
    ]:
        monkeypatch.setattr(test_acceptance, name, path)
    # six small panels that pass the review, so nothing before the goldens
    # are read stops the test
    monkeypatch.setattr(
        test_acceptance,
        "_figure_grids",
        lambda: {
            mu: sweep_grid(mu, 1.0, (0.0, 4.0, 3), (0.1, 6.0, 3))
            for mu in test_acceptance.FIGURE_MUS
        },
    )
    monkeypatch.setattr(test_acceptance, "_review_panel_structure", lambda grids: [])
    with pytest.raises(FileNotFoundError) as failure:
        test_acceptance.test_criterion_9_figure_regression()
    assert failure.value.filename.startswith(str(golden))
    assert list(golden.iterdir()) == []
