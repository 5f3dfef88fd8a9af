"""Shared test hooks: surface acceptance-criterion results in the summary."""

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
