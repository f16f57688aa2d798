"""Shared test fixtures."""

from __future__ import annotations

import math
from functools import lru_cache

import pytest


@lru_cache(maxsize=None)
def _compile_checker(source: str):
    namespace = {"_gcd": math.gcd}
    exec(compile(source, "<checker>", "exec"), namespace)
    return namespace["_check_solution"]


@pytest.fixture(scope="session")
def compile_checker():
    """Compiles a `sweep.checker_source` text into the per-solution check
    it defines, `_check_solution(m, n, *pattern data, *x, *t)`, which
    returns the failing check keys.  The sweep only runs that body inlined
    in its walk; this is the one-solution form the tests compare."""
    return _compile_checker
