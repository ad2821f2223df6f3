import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from soapkit.preprocess import preprocess_corpus
from soapkit.synth import SynthConfig, generate_corpus

_CRITERION_LINES = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    """Store one acceptance-criterion verdict for the end-of-run summary,
    then fail the calling test if the criterion did not hold."""
    verdict = "PASS" if ok else "FAIL"
    _CRITERION_LINES[number] = f"[ACCEPTANCE] criterion {number}: {verdict} - {detail}"
    assert ok, f"acceptance criterion {number} failed: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


@pytest.fixture(scope="session")
def small_corpus():
    """20 reference transcripts shared by tests that only need live data."""
    return generate_corpus(SynthConfig(n_transcripts=20, seed=7))


@pytest.fixture(scope="session")
def small_tokenized(small_corpus):
    return preprocess_corpus(small_corpus)
