from __future__ import annotations

import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# import hfib from this checkout's src, here and in every subprocess a test starts
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_terminal_summary(terminalreporter) -> None:
    # one visible line per acceptance criterion, independent of capture
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)
