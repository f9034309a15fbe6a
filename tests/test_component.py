"""The request path every component shares: liveness, authorization and
exactly one access-log entry per request."""

from __future__ import annotations

import pytest

from mmw.adapters import MemoryAdapter
from mmw.component import ACCESS_LOG_CAPACITY
from mmw.errors import AccessDeniedError, MeshError, UnavailableError
from mmw.mask import Mask
from mmw.mediator import Mediator
from mmw.query.parse import parse_query
from mmw.relational import Attribute, Kind, RelationSchema, Value
from mmw.wrapper import Wrapper, WrapperConfig

NUMS = RelationSchema("nums", [Attribute("a", Kind.INTEGER)])


def build():
    adapter = MemoryAdapter([NUMS], {"nums": [(Value.integer(1),), (Value.integer(2),)]})
    wrapper = Wrapper(WrapperConfig("w_nums", "src", adapter))
    mediator = Mediator("m_nums", "prod", {"s": wrapper}, ["CREATE VIEW v AS SELECT a FROM s.nums"])
    return wrapper, mediator, Mask("k_nums", mediator)


# name: (component under test, request call, served query, failing query)
ENTRY_POINTS = {
    "wrapper.execute": (0, lambda c, q, p: c.execute(q, p), "SELECT * FROM src.nums", "SELECT * FROM src.nope"),
    "mediator.execute": (1, lambda c, q, p: c.execute(q, p), "SELECT * FROM prod.v", "SELECT * FROM prod.nope"),
    "mask.execute": (2, lambda c, q, p: c.execute(q, p), "SELECT * FROM prod.v", "SELECT * FROM prod.nope"),
    "mask.serve": (2, lambda c, q, p: c.serve(q, "csv", p), "SELECT * FROM prod.v", "SELECT * FROM prod.nope"),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_one_entry_per_request(entry_point):
    index, call, served, failing = ENTRY_POINTS[entry_point]
    component = build()[index]
    component.set_access_checker(lambda principal: (principal != "mallory", "no mallory"))

    call(component, parse_query(served), "alice")
    with pytest.raises(AccessDeniedError):
        call(component, parse_query(served), "mallory")
    with pytest.raises(MeshError):
        call(component, parse_query(failing), "alice")

    log = component.access_log
    assert [entry.outcome for entry in log] == ["ok", "denied", "error"]
    assert [entry.principal for entry in log] == ["alice", "mallory", "alice"]
    assert [entry.row_count for entry in log] == [2, 0, 0]
    assert {entry.component for entry in log} == {component.component_id}
    stats = component.stats()
    assert (stats["queries_served"], stats["rows_returned"], stats["errors"]) == (1, 2, 2)

    component.stop()
    with pytest.raises(UnavailableError):
        call(component, parse_query(served), "alice")
    assert len(component.access_log) == 3
    assert component.stats() == stats


def test_access_log_keeps_the_newest_entries(tmp_path):
    wrapper = build()[0]
    log_file = tmp_path / "w_nums.log"
    wrapper.set_log_path(log_file)
    q = parse_query("SELECT * FROM src.nums")
    requests = ACCESS_LOG_CAPACITY + 5
    for i in range(requests):
        wrapper.execute(q, f"p{i}")
    log = wrapper.access_log
    assert len(log) == ACCESS_LOG_CAPACITY
    assert log[0].principal == "p5" and log[-1].principal == f"p{requests - 1}"
    assert wrapper.stats()["queries_served"] == requests
    assert len(log_file.read_text(encoding="utf-8").splitlines()) == requests
