"""Run the doctest examples embedded in the library's docstrings.

Documentation that executes is documentation that stays true; every
module with ``>>>`` examples is collected here.
"""

import doctest

import pytest

import repro.analysis.sweep
import repro.core.branch
import repro.sbbt.header
import repro.telemetry.instrumentation
import repro.telemetry.interval
import repro.telemetry.manifest
import repro.telemetry.sinks
import repro.traces.tracer
import repro.traces.workloads
import repro.utils.bits
import repro.utils.counters
import repro.utils.folded
import repro.utils.hashing
import repro.utils.history
import repro.utils.lfsr

MODULES = [
    repro.core.branch,
    repro.utils.bits,
    repro.utils.counters,
    repro.utils.hashing,
    repro.utils.history,
    repro.utils.lfsr,
    repro.telemetry.instrumentation,
    repro.telemetry.interval,
    repro.telemetry.manifest,
    repro.telemetry.sinks,
    repro.traces.tracer,
    repro.traces.workloads,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.failed == 0, f"{module.__name__}: {results}"
    assert results.attempted > 0, f"{module.__name__} has no examples"
