"""A maintained DC whose band choice flips is rebuilt, not patched wrong.

With two ordered predicates the planner bands on whichever examines fewer
pairs over the current data (``dc_kernel._most_selective``), so a write can
change the plan.  The table below is built so that an append flips the
band from ``b`` to ``a``, an update flips it back, and a last update flips
it again while clearing every violation.  The maintained state must notice
each time, rebuild through the builder, and still answer exactly as a
session that has never seen the table — on the row backend and on worker
processes alike.
"""

import pytest

from fixtures import WORKERS
from repro import CleanDB

RULE = "t1.a < t2.a and t1.b > t2.b"
BASE = [{"a": i, "b": i % 3} for i in range(12)]
#: Wide, distinct ``b`` values make ``b`` the worse band ...
APPENDED = [{"a": 100, "b": 100 + j} for j in range(10)]
#: ... and collapsing them to one value makes it the better one again.
UPDATED = {12 + j: {"a": 100, "b": 0} for j in range(10)}
#: One ``a`` everywhere: ``a`` bands best, and no pair violates any more.
CLEANED = {rid: {"a": 0, "b": rid} for rid in range(22)}


@pytest.fixture(params=["row", "parallel"])
def kwargs(request):
    extra = {"workers": WORKERS} if request.param == "parallel" else {}
    return dict(num_nodes=3, execution=request.param, **extra)


def maintained(db):
    (state,) = [entry[2] for slot, entry in db.tables._derived["t"].items() if slot[0] == "dc"]
    return state


def test_a_write_that_flips_the_band_rebuilds_the_maintained_state(kwargs):
    with CleanDB(incremental=True, **kwargs) as db:
        db.register_table("t", [dict(row) for row in BASE])
        db.check_dc("t", RULE)
        state = maintained(db)
        bands, found = [state.plan.band_idx], []
        for write in (
            lambda: db.append_rows("t", [dict(row) for row in APPENDED]),
            lambda: db.update_rows("t", UPDATED),
            lambda: db.update_rows("t", CLEANED),
        ):
            write()
            got = db.check_dc("t", RULE)
            assert maintained(db) is state, "the state was dropped, not rebuilt"
            assert db.cluster.metrics.ops[-1].name == "incremental:dc:t"
            bands.append(state.plan.band_idx)
            found.append(len(got))
            with CleanDB(**kwargs) as cold:
                cold.register_table("t", [dict(row) for row in db.table("t")])
                assert repr(got) == repr(cold.check_dc("t", RULE))
        assert bands == [1, 0, 1, 0]
        assert found[0] and found[1] and not found[2]
