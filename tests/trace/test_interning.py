"""One record object per distinct block, whichever constructor built the
trace.

A trace repeats a few hundred to a few thousand distinct blocks tens of
thousands of times.  The generator, the npz loader (and with it the
artifact cache) and the text-format reader all build records through
:class:`~repro.trace.event.RecordInterner`, so a trace costs one list
slot per dynamic block plus one record per distinct block.  These tests
pin that sharing, that it changes no record value, and what a long trace
retains.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.artifacts import ArtifactCache
from repro.program.workloads import build_workload
from repro.trace import BlockRecord, RecordInterner
from repro.trace.generator import generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.text_format import load_text_trace, save_text_trace

TRACE_LENGTH = 20_000
SEED = 5


@pytest.fixture(scope="module")
def program():
    return build_workload("li")


@pytest.fixture(scope="module")
def trace(program):
    return generate_trace(program, TRACE_LENGTH, seed=SEED)


@pytest.fixture(scope="module")
def columns(trace, tmp_path_factory):
    """The trace rebuilt as one plain tuple per record from the npz
    columns, without going through any trace constructor."""
    path = tmp_path_factory.mktemp("columns") / "li.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        fields = ("starts", "lengths", "kinds", "takens", "next_pcs")
        return list(zip(*(data[name].tolist() for name in fields)))


def assert_interned(records, columns) -> None:
    assert len(records) == len(columns)
    # Equal records are one object (and the trace does repeat blocks).
    assert len({id(r) for r in records}) == len(set(records))
    assert len(set(records)) < len(records)
    # Interning changes no value, nor any field's type (1 == True).
    assert [tuple(r) for r in records] == columns
    for record in set(records):
        assert type(record) is BlockRecord
        assert [type(v) for v in record] == [int, int, int, bool, int]


def test_generate_trace(trace, columns):
    assert_interned(trace.records, columns)


def test_npz_round_trip(trace, columns, tmp_path):
    path = tmp_path / "li.npz"
    save_trace(trace, path)
    assert_interned(load_trace(path).records, columns)


def test_text_format_reader(trace, columns, tmp_path):
    path = tmp_path / "li.trace"
    save_text_trace(trace, path)
    assert_interned(load_text_trace(path).records, columns)


def test_artifact_cache_round_trip(program, trace, columns, tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store("li", TRACE_LENGTH, SEED, program, trace)
    hit = cache.load("li", TRACE_LENGTH, SEED)
    assert hit is not None
    assert_interned(hit[1].records, columns)


def test_interner_builds_each_record_once():
    interned = RecordInterner()
    first = interned[(64, 3, 1, True, 128)]
    assert type(first) is BlockRecord
    assert interned[(64, 3, 1, True, 128)] is first
    assert interned[(64, 3, 1, False, 76)] is not first
    assert len(interned) == 2


def test_long_trace_retains_one_record_per_distinct_block(program):
    """A 200k-instruction li trace (~36k records, ~800 distinct) keeps
    its list and its distinct records: about 0.4 MB.  A record object
    per dynamic block would retain about 3.8 MB."""
    gc.collect()
    tracemalloc.start()
    try:
        trace = generate_trace(program, 200_000, seed=1995)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) > 30_000
    assert retained < 1_000_000, retained
