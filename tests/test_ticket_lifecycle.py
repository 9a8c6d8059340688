"""Model-checked ticket lifecycle of :class:`repro.serving.LatencyService`.

A hypothesis state machine drives a tiny-config service (``autostart=False``,
so submissions stay queued until the first ``join``) through random
interleavings of submit, join, poll, ``result(timeout=0)``, a ``result``
that blocks on another thread, abandon, ``reap_abandoned`` and close, and
checks it against a small reference model of the lifecycle in
:mod:`repro.serving.api`.  Batch rules drive the same lifecycle a batch at a
time: ``submit_batch`` issues a contiguous id range, ``query_batch`` claims
a whole batch, one slot of a batch is abandoned alone, and a reap runs while
a batch is half claimed.  Once the dispatcher runs, a
ticket the model has not seen fulfilled may be either pending or fulfilled;
``join`` and ``close`` settle every live ticket.  A length simulated before
the last settle is a memo hit: while nothing new waits for pricing, its
ticket is fulfilled before ``submit`` returns.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ppm import PPMConfig
from repro.serving import LatencyRequest, LatencyService

LENGTHS = (24, 32, 40)

#: Picks an issued ticket id, or the next (never issued) one: ``pick % (issued + 1)``.
PICKS = st.integers(min_value=0, max_value=1 << 16)


class TicketLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.service = LatencyService(
            ppm_config=PPMConfig.tiny(), autostart=False
        )
        self.issued = 0
        #: Live ids (pending or fulfilled-unclaimed) -> sequence length.
        self.live: Dict[int, int] = {}
        #: Live ids the model knows are fulfilled (settled by join/close).
        self.fulfilled: Set[int] = set()
        #: Live ids whose last word was a give-up (abandon or a timed-out result).
        self.abandoned: Set[int] = set()
        self.ever_abandoned: Set[int] = set()
        self.consumed: Set[int] = set()
        self.reaped: Set[int] = set()
        self.lengths: Set[int] = set()
        #: Id ranges issued by ``submit_batch``, in issue order.
        self.batches: List[range] = []
        #: Lengths in the session memo (submitted before the last settle).
        self.simulated: Set[int] = set()
        #: A new length was submitted since the last settle, so the
        #: dispatcher may be pricing and a hit may queue behind it.
        self.pricing = False
        self.timeouts = 0
        self.started = False
        self.closed = False

    def teardown(self) -> None:
        self.service.close()

    def _pick(self, pick: int) -> int:
        return pick % (self.issued + 1)

    def _finish(self, ticket: int, into: Set[int]) -> None:
        """Move a live ticket to a terminal set; no id ends twice."""
        assert ticket in self.live
        assert ticket not in self.consumed and ticket not in self.reaped
        del self.live[ticket]
        self.fulfilled.discard(ticket)
        self.abandoned.discard(ticket)
        into.add(ticket)

    def _settle(self) -> None:
        self.fulfilled = set(self.live)
        self.simulated |= self.lengths
        self.pricing = False

    def _issue(self, lengths: List[int], tickets: List[int]) -> None:
        """Model the tickets one ``submit``/``submit_batch`` call returned.

        Ids are contiguous from the next unissued one.  A length the memo
        holds is answered at submit when nothing was pricing as the call
        began: the call peeks the memo before it queues anything.
        """
        assert tickets == list(range(self.issued, self.issued + len(lengths)))
        pricing = self.pricing
        for ticket, length in zip(tickets, lengths):
            self.live[ticket] = length
            if length not in self.simulated:
                self.pricing = True
            elif not pricing:
                assert self.service.ticket_state(ticket) == "fulfilled"
                self.fulfilled.add(ticket)
        self.issued += len(lengths)

    def _coalesced_in(self, lengths: List[int]) -> int:
        """Duplicates a call must attach to queued jobs before any dispatch."""
        seen = set(self.lengths)
        duplicates = 0
        for length in lengths:
            duplicates += length in seen
            seen.add(length)
        return duplicates

    # ------------------------------------------------------------------ rules
    @rule(length=st.sampled_from(LENGTHS))
    def submit(self, length: int) -> None:
        request = LatencyRequest(backend="lightnobel", sequence_length=length)
        if self.closed:
            with pytest.raises(RuntimeError):
                self.service.submit(request)
            return
        before = self.service.stats.coalesced
        ticket = self.service.submit(request)
        if not self.started:
            # Nothing has been dispatched yet, so a duplicate length must
            # attach to the queued job.
            assert self.service.stats.coalesced - before == self._coalesced_in([length])
        self._issue([length], [ticket])
        self.lengths.add(length)

    @rule(lengths=st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=6))
    def submit_batch(self, lengths: List[int]) -> None:
        requests = [("lightnobel", length) for length in lengths]
        if self.closed:
            with pytest.raises(RuntimeError):
                self.service.submit_batch(requests)
            return
        before = self.service.stats.coalesced
        tickets = self.service.submit_batch(requests)
        if not self.started:
            assert self.service.stats.coalesced - before == self._coalesced_in(lengths)
        self._issue(lengths, tickets)
        self.lengths.update(lengths)
        self.batches.append(range(tickets[0], tickets[-1] + 1))

    @rule(lengths=st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=6))
    def query_batch(self, lengths: List[int]) -> None:
        """Claim a whole batch: every slot is consumed, in input order."""
        requests = [("lightnobel", length) for length in lengths]
        if self.closed:
            with pytest.raises(RuntimeError):
                self.service.query_batch(requests, timeout=60.0)
            return
        self.service.start()
        self.started = True
        before = self.service.capacity_report().requests
        reports = self.service.query_batch(requests, timeout=60.0)
        assert [report.sequence_length for report in reports] == lengths
        first = self.issued
        assert self.service.capacity_report().requests - before == len(lengths)
        self.issued += len(lengths)
        for ticket in range(first, self.issued):
            assert self.service.ticket_state(ticket) == "consumed"
            self.consumed.add(ticket)
        # Priced before query_batch returned; anything still pricing is
        # older work, so the flag keeps its value.
        self.lengths.update(lengths)
        self.simulated.update(lengths)

    @rule(pick=PICKS, slot=PICKS)
    def abandon_one_slot(self, pick: int, slot: int) -> None:
        """Abandon one live slot of a batch; its siblings stay unabandoned."""
        batches = [b for b in self.batches if any(t in self.live for t in b)]
        if not batches:
            return
        batch = batches[pick % len(batches)]
        live = [t for t in batch if t in self.live]
        ticket = live[slot % len(live)]
        siblings = {t for t in live if t != ticket and t not in self.abandoned}
        assert self.service.abandon(ticket)
        self.abandoned.add(ticket)
        self.ever_abandoned.add(ticket)
        reaped = self._reap()
        assert not reaped & siblings

    @rule(pick=PICKS)
    def reap_half_claimed_batch(self, pick: int) -> None:
        """Settle a batch, claim its first half, abandon the rest, then reap."""
        batches = [b for b in self.batches if sum(t in self.live for t in b) >= 2]
        if not batches:
            return
        batch = batches[pick % len(batches)]
        self.join()
        live = [t for t in batch if t in self.live]
        half = len(live) // 2
        for ticket in live[:half]:
            response = self.service.poll(ticket)
            assert response is not None and response.ticket_id == ticket
            self._finish(ticket, self.consumed)
        for ticket in live[half:]:
            assert self.service.abandon(ticket)
            self.abandoned.add(ticket)
            self.ever_abandoned.add(ticket)
        reaped = self._reap()
        assert set(live[half:]) <= reaped
        for ticket in live[:half]:
            assert self.service.ticket_state(ticket) == "consumed"

    @rule()
    def join(self) -> None:
        if not self.closed:
            self.service.start()
            self.started = True
        assert self.service.join(timeout=60.0)
        self._settle()

    @rule(pick=PICKS)
    def poll(self, pick: int) -> None:
        ticket = self._pick(pick)
        if ticket not in self.live:
            with pytest.raises(KeyError):
                self.service.poll(ticket)
            return
        response = self.service.poll(ticket)
        if response is None:
            assert ticket not in self.fulfilled
            return
        assert response.ticket_id == ticket and response.ok
        self._finish(ticket, self.consumed)

    @rule(pick=PICKS)
    def result(self, pick: int) -> None:
        ticket = self._pick(pick)
        if ticket not in self.live:
            with pytest.raises(KeyError):
                self.service.result(ticket, timeout=0)
            return
        try:
            response = self.service.result(ticket, timeout=0)
        except TimeoutError:
            assert ticket not in self.fulfilled
            self.timeouts += 1
            self.abandoned.add(ticket)
            self.ever_abandoned.add(ticket)
            return
        assert response.ticket_id == ticket and response.ok
        self._finish(ticket, self.consumed)

    @rule(pick=PICKS, settle=st.booleans())
    def result_from_thread(self, pick: int, settle: bool) -> None:
        """A waiter blocks in ``result(timeout)`` on its own thread.

        With ``settle`` the main thread starts the dispatcher and joins while
        it waits, so the waiter must be woken promptly with its response;
        without, it waits briefly and either claims a fulfilled ticket or
        gives up, exactly like ``result(timeout=0)``.
        """
        # Prefer a ticket that may still be pending: that is the wait to check.
        candidates = sorted(set(self.live) - self.fulfilled) or sorted(self.live)
        if not candidates:
            return
        ticket = candidates[pick % len(candidates)]
        settle = settle and not self.closed
        outcome: Dict[str, object] = {}

        def wait() -> None:
            try:
                outcome["response"] = self.service.result(
                    ticket, timeout=20.0 if settle else 0.01
                )
            except TimeoutError:
                outcome["timeout"] = True

        waiter = threading.Thread(target=wait)
        waiter.start()
        if settle:
            self.join()
        # Once the ticket is settled, fulfilment must wake the waiter at once.
        waiter.join(10.0)
        assert not waiter.is_alive()
        if "timeout" in outcome:
            assert not settle and ticket not in self.fulfilled
            assert self.started or self.service.ticket_state(ticket) == "pending"
            self.timeouts += 1
            self.abandoned.add(ticket)
            self.ever_abandoned.add(ticket)
            return
        response = outcome["response"]
        assert response.ticket_id == ticket and response.ok
        self._finish(ticket, self.consumed)

    @rule(pick=PICKS)
    def abandon(self, pick: int) -> None:
        ticket = self._pick(pick)
        assert self.service.abandon(ticket) == (ticket in self.live)
        if ticket in self.live:
            self.abandoned.add(ticket)
            self.ever_abandoned.add(ticket)

    def _reap(self) -> Set[int]:
        reaped = {response.ticket_id for response in self.service.reap_abandoned()}
        # Every abandoned ticket known to be fulfilled is reaped; nothing
        # that was not abandoned is.
        assert self.abandoned & self.fulfilled <= reaped <= self.abandoned
        for ticket in reaped:
            self._finish(ticket, self.reaped)
        return reaped

    @rule()
    def reap_abandoned(self) -> None:
        self._reap()

    @rule()
    def close(self) -> None:
        self.service.close()
        self.started = self.closed = True
        self._settle()

    # ------------------------------------------------------------- invariants
    @invariant()
    def every_issued_id_has_exactly_one_state(self) -> None:
        for ticket in range(self.issued):
            state = self.service.ticket_state(ticket)
            if ticket in self.consumed:
                assert state == "consumed"
            elif ticket in self.reaped:
                assert state == "reaped"
            elif ticket in self.fulfilled or self.closed:
                # After close() no ticket is pending.
                assert state == "fulfilled"
            else:
                assert ticket in self.live and state in ("pending", "fulfilled")
        assert self.service.ticket_state(self.issued) == "unknown"
        assert self.service.ticket_counts() == {
            "consumed": len(self.consumed), "reaped": len(self.reaped),
        }

    @invariant()
    def capacity_report_agrees(self) -> None:
        report = self.service.capacity_report()
        assert report.requests == self.issued
        assert report.timed_out == self.timeouts
        assert report.errors == 0
        assert report.late_results <= len(self.ever_abandoned)
        if set(self.live) <= self.fulfilled:
            # Quiescent: every completion is a coalesced duplicate, a memo
            # hit or a fresh simulation, and each length simulates once.
            assert report.completed == self.issued
            assert report.queue_depth == 0
            assert report.coalesced + report.memo_hits + report.simulations == self.issued
            assert report.simulations <= len(self.lengths)


TicketLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestTicketLifecycle = TicketLifecycle.TestCase
