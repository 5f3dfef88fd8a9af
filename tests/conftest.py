"""Shared test hooks: surface acceptance-criterion results in the summary,
and measure the peak memory of one call."""

import tracemalloc

from hypothesis import settings

# Fixed examples keep tier-1 runs reproducible; few of them keep them short.
settings.register_profile("otpost", derandomize=True, deadline=None, max_examples=20)
settings.load_profile("otpost")

criterion_lines = []


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


def peak_traced_bytes(fn, *args) -> int:
    """Peak bytes that Python and numpy allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
