"""Shared test helpers."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock


class CliRunner:
    """Runs a command-line entry point in this process, with the call shape
    of click.testing.CliRunner: ``invoke(main, args, env=None)`` gives
    ``exit_code``, ``output`` (stdout then stderr), ``stdout_bytes`` and
    ``exception`` (the SystemExit of a non-zero exit, else None)."""

    def invoke(self, main, args, env=None):
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
        return SimpleNamespace(exit_code=code, output=out.getvalue() + err.getvalue(),
                               stdout_bytes=out.getvalue().encode(), exception=exception)
