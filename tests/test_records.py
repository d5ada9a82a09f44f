"""The library's result records are immutable ``NamedTuple``s: each field
reads by name, ``_replace`` copies, and the repr names the type."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mixspec import bounds, enumeration, genfunc, graph, verify

RECORDS = {
    "Graph": lambda: graph.path_graph(3),
    "NeighborhoodStats": lambda: graph.neighborhood_stats(graph.path_graph(3)),
    "SrgParams": lambda: graph.detect_srg(graph.petersen_graph()),
    "MixHistogram": lambda: enumeration.mix_histogram(graph.path_graph(3)),
    "BoundReport": lambda: bounds.bound_general(graph.cycle_graph(5)),
    "OracleMoments": lambda: bounds.semirandom_oracle(graph.cycle_graph(5)),
    "ExtremalBounds": lambda: bounds.extremal_bounds(graph.path_graph(3)),
    "UPoly": lambda: genfunc.UPoly.of([0, 2]),
    "ModelCheckReport": genfunc.asymptotic_model_check,
    "CltReport": lambda: genfunc.clt_diagnostics("path", 20),
    "CheckResult": lambda: verify.check_paths(4),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    old = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    new = object()
    changed = record._replace(**{field: new})
    assert getattr(changed, field) is new
    assert getattr(record, field) is old
    assert repr(record).startswith(f"{name}(")


def test_bound_report_defaults_fill_keyword_construction():
    assert bounds.BoundReport(variant="general", applicable=False, reason="no edges") == (
        bounds.BoundReport("general", False, "no edges", 0, 0, 0, Fraction(0), Fraction(0), Fraction(0), False)
    )


def test_mix_histogram_stays_unhashable():
    with pytest.raises(TypeError):
        hash(enumeration.mix_histogram(graph.path_graph(3)))
