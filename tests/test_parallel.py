"""Parallel distributed execution: the exchange operators.

Covers ``SET PARALLEL_DOP`` parsing/validation, optimizer insertion of
``Gather``/``GatherMerge`` above remote UNION ALL branches, result
determinism across DOP levels, order preservation under GatherMerge,
overlap accounting (``parallel_saved_ms`` against the LPT busiest-slot
formula), plan-fingerprint invariance to DOP, branch-side fault
semantics on the statement's thread (transient faults masked by
retries inside a branch; a down member mid-scan triggering the bounded
replan; the first error stopping the remaining branches; concurrent
sessions tripping a breaker once), early stop under TOP, and
``parallel_branch`` span attribution.
"""

import threading

import pytest

from repro import (
    Engine,
    FaultInjector,
    NetworkChannel,
    RetryPolicy,
    ServerInstance,
)
from repro.core import physical as P
from repro.errors import ParseError, ServerUnavailableError, SqlError
from repro.execution.exchange import assign_slots
from repro.execution.plancache import plan_references
from repro.testcheck import worlds
from repro.workloads.tpcc import build_federation

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def federation():
    """Four-member TPC-C style federation with slow (2ms) links."""
    return build_federation(
        member_count=4,
        warehouses_per_member=1,
        customers_per_warehouse=25,
        latency_ms=2.0,
    )


@pytest.fixture
def pv_world():
    """Three-member distributed partitioned view, metadata warmed."""
    local, channels = worlds.build_pruning_world()
    local.execute("SELECT * FROM lineitem")
    return local, channels


def _plan_ops(plan, cls):
    return [node for node in plan.walk() if isinstance(node, cls)]


def _four_member_view():
    """A local view over four remote members of growing size, one
    channel each; metadata warmed.  Returns (engine, channels by
    server name)."""
    local = Engine("local")
    channels = {}
    for i in range(4):
        member = ServerInstance(f"m{i}")
        member.execute(f"CREATE TABLE t{i} (id int, v int)")
        table = member.catalog.database().table(f"t{i}")
        for row_id in range(20 + 10 * i):
            table.insert((row_id, i))
        channels[f"m{i}"] = NetworkChannel(f"ch{i}", latency_ms=1.0)
        local.add_linked_server(f"m{i}", member, channels[f"m{i}"])
    local.execute(
        "CREATE VIEW v AS " + " UNION ALL ".join(
            f"SELECT * FROM m{i}.master.dbo.t{i}" for i in range(4)
        )
    )
    local.execute("SELECT id FROM v")
    return local, channels


def _servers_in_slot_order(gather, dop):
    """The server each Gather branch reads, in the order the exchange
    runs the branches (LPT slot order, ties by branch index)."""
    slots = assign_slots([child.cost for child in gather.children], dop)
    order = sorted(range(len(slots)), key=slots.__getitem__)
    return [
        next(iter(plan_references(gather.children[i])[0])) for i in order
    ]


# ----------------------------------------------------------------------
# SET PARALLEL_DOP
# ----------------------------------------------------------------------
class TestSetParallelDop:
    def test_set_and_gauge(self):
        engine = Engine("e")
        engine.execute("SET PARALLEL_DOP 4")
        assert engine.parallel_dop == 4
        assert engine.optimizer.parallel_dop == 4
        assert engine.metrics.value_of("engine.parallel_dop") == 4.0
        engine.execute("SET PARALLEL_DOP 1")
        assert engine.optimizer.parallel_dop == 1

    def test_rejects_on_off(self):
        engine = Engine("e")
        with pytest.raises(SqlError):
            engine.execute("SET PARALLEL_DOP ON")

    def test_rejects_zero(self):
        engine = Engine("e")
        with pytest.raises(SqlError):
            engine.execute("SET PARALLEL_DOP 0")

    def test_rejects_garbage(self):
        engine = Engine("e")
        with pytest.raises(ParseError):
            engine.execute("SET PARALLEL_DOP fast")

    def test_partial_results_still_boolean(self):
        engine = Engine("e")
        with pytest.raises(SqlError):
            engine.execute("SET PARTIAL_RESULTS 3")


# ----------------------------------------------------------------------
# optimizer insertion
# ----------------------------------------------------------------------
class TestExchangeInsertion:
    def test_gather_above_remote_union(self, federation):
        co = federation.coordinator
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        gathers = _plan_ops(result.plan, P.Gather)
        assert len(gathers) == 1
        assert gathers[0].dop == 4
        assert len(gathers[0].children) == 4

    def test_no_gather_at_dop_one(self, federation):
        co = federation.coordinator
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        assert not _plan_ops(result.plan, P.Gather)
        assert not _plan_ops(result.plan, P.GatherMerge)
        assert result.dop == 1
        assert result.parallel_saved_ms == 0.0

    def test_no_gather_for_all_local_union(self):
        engine = Engine("local")
        engine.execute("CREATE TABLE a (x int)")
        engine.execute("CREATE TABLE b (x int)")
        engine.execute("INSERT INTO a VALUES (1), (2)")
        engine.execute("INSERT INTO b VALUES (3)")
        engine.execute("CREATE VIEW ab AS "
                       "SELECT * FROM a UNION ALL SELECT * FROM b")
        engine.execute("SET PARALLEL_DOP 4")
        result = engine.execute("SELECT x FROM ab")
        # no network latency to hide: the serial Concat must win
        assert not _plan_ops(result.plan, P.Gather)
        assert sorted(result.rows) == [(1,), (2,), (3,)]

    def test_gather_merge_for_ordered_union(self, federation):
        co = federation.coordinator
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute(
            "SELECT c_w_id, c_id, c_balance FROM customer "
            "ORDER BY c_balance DESC, c_id"
        )
        merges = _plan_ops(result.plan, P.GatherMerge)
        assert len(merges) == 1
        assert [(k.ascending) for k in merges[0].keys] == [False, True]


# ----------------------------------------------------------------------
# determinism and order preservation
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_multiset_across_dop_levels(self, federation):
        co = federation.coordinator
        query = (
            "SELECT c_w_id, c_id, c_name, c_balance FROM customer "
            "WHERE c_balance >= 0"
        )
        reference = sorted(co.execute(query).rows)
        for dop in (2, 8):
            co.execute(f"SET PARALLEL_DOP {dop}")
            assert sorted(co.execute(query).rows) == reference

    def test_gather_merge_preserves_order(self, federation):
        co = federation.coordinator
        query = (
            "SELECT c_w_id, c_id, c_balance FROM customer "
            "ORDER BY c_balance DESC, c_id"
        )
        serial = co.execute(query)
        co.execute("SET PARALLEL_DOP 4")
        parallel = co.execute(query)
        assert _plan_ops(parallel.plan, P.GatherMerge)
        # exact row order, not just the multiset
        assert parallel.rows == serial.rows

    def test_aggregate_agrees(self, federation):
        co = federation.coordinator
        total = co.execute("SELECT COUNT(*) FROM customer").scalar()
        co.execute("SET PARALLEL_DOP 8")
        assert co.execute("SELECT COUNT(*) FROM customer").scalar() == total


# ----------------------------------------------------------------------
# latency hiding and fingerprints
# ----------------------------------------------------------------------
class TestAccounting:
    def test_saved_ms_reported(self, federation):
        co = federation.coordinator
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        assert result.dop == 4
        # four branches of ~equal network time overlap on four workers:
        # roughly three branches' worth of simulated latency is hidden
        total_net = sum(
            stats["simulated_ms"] for stats in result.network.values()
        )
        assert result.parallel_saved_ms > 0.0
        assert result.parallel_saved_ms < total_net
        payload = result.to_json()
        assert '"dop": 4' in payload

    @pytest.mark.parametrize("dop", [1, 2, 4])
    def test_saved_ms_is_the_busiest_slot_formula(self, federation, dop):
        """saved = sum of branch simulated ms - the busiest slot's load
        under the LPT assignment of the branches onto ``dop`` slots."""
        co = federation.coordinator
        co.execute(f"SET PARALLEL_DOP {dop}")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        branch_ms = {
            server: stats["simulated_ms"]
            for server, stats in result.network.items()
        }
        assert len(branch_ms) == 4
        gathers = _plan_ops(result.plan, P.Gather)
        if dop == 1:
            assert not gathers
            assert result.parallel_saved_ms == 0.0
            return
        (gather,) = gathers
        slots = assign_slots([child.cost for child in gather.children], dop)
        loads: dict = {}
        for child, slot in zip(gather.children, slots):
            (server,) = plan_references(child)[0]
            loads[slot] = loads.get(slot, 0.0) + branch_ms[server]
        expected = sum(branch_ms.values()) - max(loads.values())
        assert result.parallel_saved_ms == pytest.approx(expected, abs=1e-9)
        assert result.parallel_saved_ms > 0.0

    def test_fingerprint_ignores_dop(self, federation):
        co = federation.coordinator
        query = "SELECT c_w_id, c_id, c_balance FROM customer"
        serial_fp = P.plan_fingerprint(co.execute(query).plan)
        co.execute("SET PARALLEL_DOP 4")
        parallel_plan = co.execute(query).plan
        assert _plan_ops(parallel_plan, P.Gather)
        assert P.plan_fingerprint(parallel_plan) == serial_fp

    def test_gather_merge_fingerprint_ignores_dop(self, federation):
        co = federation.coordinator
        query = (
            "SELECT c_w_id, c_id, c_balance FROM customer "
            "ORDER BY c_balance DESC, c_id"
        )
        co.execute("SET PARALLEL_DOP 2")
        fp2 = P.plan_fingerprint(co.execute(query).plan)
        co.execute("SET PARALLEL_DOP 8")
        fp8 = P.plan_fingerprint(co.execute(query).plan)
        assert fp2 == fp8


# ----------------------------------------------------------------------
# branch-side faults (branches run on the statement's thread)
# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_transient_faults_masked_inside_workers(self):
        """Transient faults are retried inside the branch that hit
        them; the exchange sees only rows."""
        local = Engine("local")
        members = []
        branches = []
        for i in range(4):
            member = ServerInstance(f"m{i}")
            member.execute(f"CREATE TABLE t{i} (id int, v int)")
            table = member.catalog.database().table(f"t{i}")
            for row_id in range(40):
                table.insert((row_id, i))
            channel = NetworkChannel(f"ch{i}", latency_ms=1.0)
            channel.fault_injector = FaultInjector(
                seed=100 + i, transient_rate=0.2
            )
            local.add_linked_server(
                f"m{i}", member, channel,
                retry_policy=RetryPolicy(
                    max_attempts=10, base_backoff_ms=1.0, max_backoff_ms=4.0
                ),
            )
            branches.append(f"SELECT * FROM m{i}.master.dbo.t{i}")
            members.append(member)
        local.execute("CREATE VIEW v AS " + " UNION ALL ".join(branches))
        local.execute("SET PARALLEL_DOP 4")
        result = local.execute("SELECT id, v FROM v")
        assert len(result.rows) == 160
        retries = sum(
            stats["retries"] for stats in result.network.values()
        )
        assert retries > 0  # the faults actually fired, in branches

    def test_down_member_mid_scan_replans(self, pv_world):
        local, channels = pv_world
        local.execute("SET PARALLEL_DOP 4")
        local.execute("SET PARTIAL_RESULTS ON")
        channels[1993].fault_injector = FaultInjector(down=True)
        result = local.execute("SELECT l_orderkey, l_qty FROM lineitem")
        # one member died mid-scan: the bounded replan prunes it and
        # the two healthy members still answer
        assert result.replans == 1
        assert result.is_partial
        assert len(result.rows) == 80

    def test_cancellation_on_first_error(self):
        """The first branch error ends the exchange: branches after
        the failing one in run order never touch their members."""
        local, channels = _four_member_view()
        local.replan_on_failure = False
        local.execute("SET PARALLEL_DOP 4")
        healthy = local.execute("SELECT id, v FROM v")
        (gather,) = _plan_ops(healthy.plan, P.Gather)
        run_order = _servers_in_slot_order(gather, 4)
        first, failing, *after = run_order
        channels[failing].fault_injector = FaultInjector(down=True)
        before = {name: ch.stats.round_trips for name, ch in channels.items()}
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT id, v FROM v")
        trips = {
            name: ch.stats.round_trips - before[name]
            for name, ch in channels.items()
        }
        assert trips[first] > 0
        assert all(trips[name] == 0 for name in after), (run_order, trips)

    def test_concurrent_workers_trip_breaker_once(self):
        """Concurrent sessions, each running an exchange whose two
        branches hit the same down server, trip its shared breaker
        exactly once."""
        local = Engine("local")
        local.health.open_interval_ms = 1e9
        remote = ServerInstance("r0")
        remote.execute("CREATE TABLE a (x int)")
        remote.execute("CREATE TABLE b (x int)")
        remote.execute("INSERT INTO a VALUES (1)")
        remote.execute("INSERT INTO b VALUES (2)")
        channel = NetworkChannel("wan", latency_ms=1.0)
        local.add_linked_server("r0", remote, channel)
        local.execute(
            "CREATE VIEW v AS SELECT * FROM r0.master.dbo.a "
            "UNION ALL SELECT * FROM r0.master.dbo.b"
        )
        local.execute("SELECT x FROM v")  # warm metadata
        local.replan_on_failure = False
        channel.fault_injector = FaultInjector(down=True)
        sessions = 4
        barrier = threading.Barrier(sessions)
        outcomes: list = []

        def run_session(index: int) -> None:
            session = local.create_session(f"s{index}")
            session.execute("SET PARALLEL_DOP 2")
            barrier.wait()
            try:
                session.execute("SELECT x FROM v")
            except ServerUnavailableError:
                outcomes.append("unavailable")
            else:
                outcomes.append("rows-from-a-dead-server")

        threads = [
            threading.Thread(target=run_session, args=(i,))
            for i in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == ["unavailable"] * sessions
        breaker = local.health.get("r0")
        assert breaker is not None
        assert breaker.state == "open"
        assert breaker.trip_count == 1

    def test_top_over_gather_stops_after_first_row(self):
        """TOP 1 over a four-branch Gather opens only the branch that
        produced the row; the other members see no traffic."""
        local, channels = _four_member_view()
        local.execute("SET PARALLEL_DOP 4")
        local.tracing_enabled = True
        before = {name: ch.stats.round_trips for name, ch in channels.items()}
        result = local.execute("SELECT TOP 1 id, v FROM v")
        assert len(result.rows) == 1
        (gather,) = _plan_ops(result.plan, P.Gather)
        assert len(gather.children) == 4
        first = _servers_in_slot_order(gather, 4)[0]
        touched = {
            name for name, ch in channels.items()
            if ch.stats.round_trips > before[name]
        }
        assert touched == {first}
        assert len(result.trace.spans("parallel_branch")) == 1


# ----------------------------------------------------------------------
# span attribution
# ----------------------------------------------------------------------
class TestParallelSpans:
    def test_parallel_branch_spans_under_gather(self, federation):
        co = federation.coordinator
        co.tracing_enabled = True
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        trace = result.trace
        assert trace is not None
        branches = trace.spans("parallel_branch")
        assert len(branches) == 4
        assert {span.attrs["branch"] for span in branches} == {0, 1, 2, 3}
        assert all(span.attrs["parallelism"] == 4 for span in branches)
        assert all(span.attrs["exchange"] == "Gather" for span in branches)
        assert all(0 <= span.attrs["worker"] < 4 for span in branches)
        # each branch is parented to the consumer-side Gather span
        gather_spans = [
            span for span in trace.spans("operator")
            if span.attrs.get("operator") == "Gather"
        ]
        assert len(gather_spans) == 1
        assert all(
            span.parent_id == gather_spans[0].span_id for span in branches
        )
        # per-branch network time is attributed to the branch spans AND
        # mirrored up so the execute span still totals the statement
        assert all(span.net_ms > 0 for span in branches)
        execute_span = trace.spans("execute")[0]
        total_net = sum(
            stats["simulated_ms"] for stats in result.network.values()
        )
        assert execute_span.net_ms == pytest.approx(total_net)

    def test_gather_complete_event(self, federation):
        co = federation.coordinator
        co.tracing_enabled = True
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        events = [
            e for e in result.trace.events if e.name == "gather_complete"
        ]
        assert len(events) == 1
        assert events[0].attrs["dop"] == 4
        assert events[0].attrs["branches"] == 4
        assert events[0].attrs["saved_ms"] > 0
