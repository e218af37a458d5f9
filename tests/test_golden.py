"""Fresh-process reports, against `tests/golden/`: byte for byte, or, for a drawing subcommand under
another numpy release than the corpus's, the exit code, stderr, the verdict and the `inputs`."""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import version

import pytest

from golden_reports import CASES, GOLDEN, NUMPY_VERSION, draws, render


def test_every_golden_file_is_a_case():
    assert {path.stem for path in GOLDEN.glob("*.txt")} == {name for name, _ in CASES}


def essentials(text: str):
    """The argv, exit code and stderr of a case's text, with its report's verdict and inputs."""
    head, stdout = text.split("--- stdout\n", 1)
    if stdout.startswith("{"):  # the wall_time_s line is gone, so the verdict's comma is dropped too
        report = json.loads(stdout.replace(',\n}\n', '\n}\n'))
        return head, report["verdict"], report["inputs"]
    return head, [line for line in stdout.splitlines() if line.startswith(("verdict,", "inputs."))]


@pytest.mark.parametrize("name", ["nosignal", "nosignal-csv"])
def test_essentials_keep_exit_stderr_verdict_and_inputs(name):
    text = (GOLDEN / f"{name}.txt").read_text()
    assert essentials(text.replace("2.23772605e-16", "3e-16")) == essentials(text)
    for old, new in (("300", "301"), ("PASS", "FAIL"), ("exit 0", "exit 1")):
        assert essentials(text.replace(old, new)) != essentials(text)


@pytest.fixture(scope="module")
def renders(request):
    """Each selected case's render, all started at once, each still in its own process and directory,
    at most one at a time per CPU this process may run on."""
    selected = {item.callspec.params["name"] for item in request.session.items
                if item.originalname == "test_report_matches_golden_file"}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=cpus or 1) as pool:
        yield {name: pool.submit(render, argv) for name, argv in CASES if name in selected}


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden_file(renders, name, argv):
    got, want = renders[name].result(), (GOLDEN / f"{name}.txt").read_text()
    if draws(argv) and version("numpy") != NUMPY_VERSION.read_text().strip():
        assert essentials(got) == essentials(want)
    else:
        assert got == want
