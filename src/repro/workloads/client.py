"""Closed-loop workload clients with abort/retry handling.

A client owns a session on one coordinator node and repeatedly runs a
transaction *body* — a generator taking ``(session, txn)`` that issues the
statements. Aborts (WW conflicts, migration kills, interrupts from
lock-and-abort) roll the transaction back and run it again until it
commits or the client is stopped — the paper's clients behave the same way
("we add repeatable retry logic for the batch insert client", §4.3).
"""

from repro.sim.errors import Interrupt
from repro.txn.errors import MigrationAbort, TransactionError


def run_transaction(session, body, label="", process=None, begin_time=None):
    """Generator: run ``body`` in a fresh transaction.

    Returns (committed, error). The transaction's owning process is recorded
    so migration protocols can interrupt it (lock-and-abort's kills).
    ``begin_time`` backdates the latency measurement to the client's first
    attempt, so a commit after migration-induced aborts reports the
    *client-perceived* latency (blocked + aborted + retried), as §4.7
    accounts it.
    """
    txn = None
    try:
        txn = yield from session.begin(label=label)
        txn.process = process
        if begin_time is not None:
            txn.begin_time = begin_time
        yield from body(session, txn)
        yield from session.commit(txn)
        return True, None
    except Interrupt as exc:
        if isinstance(exc.cause, TransactionError):
            cause = exc.cause
        else:
            cause = MigrationAbort(str(exc.cause))
        if txn is not None and not txn.finished:
            yield from session.abort(txn, reason=cause)
        return False, cause
    except TransactionError as exc:
        if txn is not None and not txn.finished:
            yield from session.abort(txn, reason=exc)
        return False, exc


class ClosedLoopClient:
    """Issues one transaction after another until stopped."""

    def __init__(
        self,
        cluster,
        node_id,
        body_factory,
        label,
        think_time=0.0,
        node_resolver=None,
    ):
        """``body_factory()`` returns a fresh transaction body generator
        function per attempt (retries re-invoke the factory so that, e.g., a
        batch insert restarts from its beginning).

        ``node_resolver()`` (optional) is consulted before each transaction
        and may move the session to another coordinator node — used by the
        TPC-C clients to follow their home warehouse after a migration, as a
        cloud load balancer would."""
        self.cluster = cluster
        self.session = cluster.session(node_id)
        self.node_resolver = node_resolver
        self.body_factory = body_factory
        self.label = label
        self.think_time = think_time
        self.process = None
        self.committed = 0
        self.aborted = 0
        self._running = False

    def start(self):
        self._running = True
        self.process = self.cluster.spawn(self._loop(), name="client:{}".format(self.label))
        return self.process

    def stop(self):
        self._running = False

    def _rebind(self):
        if self.node_resolver is None:
            return
        target = self.node_resolver()
        if target != self.session.node_id:
            self.session = self.cluster.session(target)

    def _loop(self):
        while self._running:
            first_attempt = self.cluster.sim.now
            begin_time = None  # a retry's latency runs from the first attempt
            while True:
                self._rebind()
                committed, _error = yield from run_transaction(
                    self.session,
                    self.body_factory(),
                    label=self.label,
                    process=self.process,
                    begin_time=begin_time,
                )
                if committed:
                    self.committed += 1
                    break
                self.aborted += 1
                if not self._running:
                    break
                begin_time = first_attempt
            if self.think_time:
                yield self.think_time


class ClientPool:
    """A set of closed-loop clients spread over the cluster's nodes."""

    def __init__(self, clients):
        self.clients = list(clients)

    def start(self):
        for client in self.clients:
            client.start()

    def stop(self):
        for client in self.clients:
            client.stop()

    @property
    def committed(self):
        return sum(c.committed for c in self.clients)

    @property
    def aborted(self):
        return sum(c.aborted for c in self.clients)
