"""Test-session hooks."""

from pathlib import Path

import hurstlab


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src first, whatever PYTHONPATH says
    return f"hurstlab imported from {Path(hurstlab.__file__).parent}"
