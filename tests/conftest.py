"""Shared fixtures: compiled session environment and per-script runs."""

import functools

import pytest

from fibwalk import identities as idn
from fibwalk import logic
from fibwalk import repetitions as rp


@pytest.fixture(scope="session")
def env():
    return rp.session_env()


@pytest.fixture(scope="session")
def script_run():
    """(report, environment) of a shipped script, run at most once per test
    session, keyed by name."""
    cache = {}

    def run(name):
        if name not in cache:
            env = logic.PredicateEnv()
            cache[name] = (logic.run_session(rp.script_text(name), env), env)
        return cache[name]

    return run


@pytest.fixture(scope="session")
def script_report(script_run):
    return lambda name: script_run(name)[0]


@pytest.fixture(scope="session")
def cached_crossover():
    """identities.crossover(i, family), each table built once per test
    session: several tests sweep the same i <= 400."""
    return functools.cache(idn.crossover)
