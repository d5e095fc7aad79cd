"""The console checks of `tests/console_checks.py`, run in-process through `cli.main`.

CI runs the same checks against the installed `cee` script, one process per request.
"""

import console_checks


def test_console_checks_pass_in_process(tmp_path, monkeypatch):
    monkeypatch.delenv("CEE_BLOCK_CAP", raising=False)
    assert console_checks.run_checks(console_checks.in_process, tmp_path) == []

