"""Shared test helpers."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

from bernkit import identities


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


def family_pairs(which, n):
    """(lhs, rhs) of one family at n as (GammaProduct, scalar) pairs, one per
    distinct factor tuple in the layout's order: the layout's product and
    the scalar of family_terms(which, n) at its position, as a reduced
    integer pair (numerator, denominator)."""
    sides, layout = identities._family(which, n)
    return tuple(
        tuple((product, Fraction(num, common).as_integer_ratio())
              for product, num in zip(products.values(), numerators))
        for products, (common, numerators) in zip(layout.products, sides))
