"""Fresh-process reports of the subcommands that draw nothing, byte for byte against `tests/golden/`."""

import pytest

from golden_reports import CASES, GOLDEN, render


def test_every_golden_file_is_a_case():
    assert {path.stem for path in GOLDEN.glob("*.txt")} == {name for name, _ in CASES}


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden_file(name, argv):
    assert render(argv) == (GOLDEN / f"{name}.txt").read_text()
