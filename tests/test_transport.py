"""Hardened transport layer (ISSUE 10): frames, auth, leases.

Proves the wire contract of DESIGN.md §13 at three levels:

* **frame protocol** — CRC32-checksummed framed messages over a raw
  socket pair: round-trips (single- and multi-frame), corrupt-frame
  NAK + per-frame retransmission, dropped-frame ACK-timeout
  retransmission, bounded budgets (exhaustion ⇒
  :class:`TransportError`), heartbeat frames;
* **handshake** — mutual HMAC-SHA256 challenge/response: wrong keys
  and protocol-version mismatches are refused (and logged as
  ``auth_refused``) before any job bytes flow;
* **the pool** — lease-based scheduling through the real
  ``process`` backend: tcp-vs-shm payload bit-identity, frame
  faults (``drop``/``corrupt``/``delay``), worker-side ``disconnect``
  and ``stage=transport`` kill/hang with in-place worker replacement
  (no pool teardown), heartbeat-detected frozen workers, checkout
  capacity top-up after an external SIGKILL, and full reaping on
  shutdown.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import TransportError
from repro.pram import use_ledger
from repro.pram.executor import (
    ExecutionContext,
    RetryPolicy,
    live_segment_names,
    live_worker_pids,
    shutdown_worker_pools,
)
from repro.pram.faults import FaultLog, FaultPlan, use_fault_log, use_faults
from repro.pram.transport import (
    _AUTH,
    _CHALLENGE,
    _HELLO,
    _REFUSE,
    _plain_recv,
    _plain_send,
    Channel,
    MAX_RETRANSMITS,
    PROTOCOL_VERSION,
    TransportPool,
    client_handshake,
    default_ack_timeout,
    default_heartbeat_s,
    default_transport,
    default_transport_key,
    payload_fingerprint,
    server_handshake,
)

#: Fast retry policy for tests (no reason to sleep real backoffs).
FAST = RetryPolicy(max_attempts=3, base_delay=0.01)


def _square_task(arrays, meta, lo, hi, stream, ledger):
    """Module-level shipped task (pickled by reference over the wire):
    deterministic value + one charged region."""
    from repro.pram import charge, use_ledger as _use

    value = float((arrays["x"][lo:hi] ** 2).sum()) + meta["bias"]
    if stream is not None:
        value += float(stream.random())
    if ledger is not None:
        with _use(ledger):
            charge(hi - lo, 2.0, label="sq")
    return value


@pytest.fixture(autouse=True)
def _reap_pools():
    """Teardown: drop cached transport pools so worker-id counters,
    env-config snapshots, and worker processes never leak across
    tests."""
    yield
    shutdown_worker_pools()


# ---------------------------------------------------------------------------
# fault grammar (transport extension)


class TestTransportGrammar:
    def test_parse_and_spec_roundtrip(self):
        text = ("drop:frame=0,corrupt:frame=2:attempt=*,"
                "disconnect:worker=1,delay:seconds=0.5,"
                "kill:chunk=1:stage=transport,"
                "hang:chunk=0:stage=transport:seconds=9")
        plan = FaultPlan.parse(text)
        reparsed = FaultPlan.parse(
            ",".join(d.spec() for d in plan.directives))
        assert reparsed == plan

    def test_frame_match_semantics(self):
        drop = FaultPlan.parse("drop:frame=2").directives[0]
        assert drop.matches_frame(frame=2, attempt=0)
        # Default attempt=0: never refires on the retransmission path.
        assert not drop.matches_frame(frame=2, attempt=1)
        assert not drop.matches_frame(frame=1, attempt=0)
        always = FaultPlan.parse("corrupt:frame=2:attempt=*").directives[0]
        assert always.matches_frame(frame=2, attempt=5)
        pinned = FaultPlan.parse("drop:frame=0:worker=1").directives[0]
        assert pinned.matches_frame(frame=0, attempt=0, worker=1)
        assert not pinned.matches_frame(frame=0, attempt=0, worker=2)
        # delay has no frame= selector: matches every outbound frame.
        delay = FaultPlan.parse("delay:seconds=0.1").directives[0]
        assert delay.matches_frame(frame=7, attempt=0)
        # kill/hang never match the frame hook.
        kill = FaultPlan.parse("kill:chunk=0").directives[0]
        assert not kill.matches_frame(frame=0, attempt=0)

    @pytest.mark.parametrize("bad", [
        "drop",                    # drop needs frame=
        "corrupt:worker=1",        # corrupt needs frame=
        "disconnect:frame=1",      # disconnect needs worker=
        "drop:frame=x",            # non-integer
        "delay:seconds=-1",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_directive_partition(self):
        plan = FaultPlan.parse(
            "drop:frame=0,corrupt:frame=1,delay:seconds=0.1,"
            "disconnect:worker=0,kill:chunk=1:stage=transport,"
            "hang:chunk=0:phase=transport,kill:chunk=2")
        assert [d.kind for d in plan.frame_directives()] == \
            ["drop", "corrupt", "delay"]
        assert [d.kind for d in plan.transport_directives()] == \
            ["disconnect", "kill", "hang"]
        # Transport-scope kill/hang never ship to pool workers ...
        ships = plan.chunk_directives(backend="process", phase="walk")
        assert [d.chunk for d in ships] == [2]
        # ... frame faults are invisible to the chunk filter too.
        assert all(d.kind in ("kill", "hang") for d in ships)


# ---------------------------------------------------------------------------
# env knobs


class TestEnvKnobs:
    def test_default_transport(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert default_transport() == "shm"
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        assert default_transport() == "tcp"
        monkeypatch.setenv("REPRO_TRANSPORT", "SHM")
        assert default_transport() == "shm"
        monkeypatch.setenv("REPRO_TRANSPORT", "udp")
        with pytest.raises(ValueError):
            default_transport()

    def test_default_transport_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT_KEY", raising=False)
        assert default_transport_key() is None
        monkeypatch.setenv("REPRO_TRANSPORT_KEY", "sesame")
        assert default_transport_key() == b"sesame"

    def test_default_heartbeat_s(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_S", raising=False)
        assert default_heartbeat_s() == 5.0
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        assert default_heartbeat_s() == 0.0  # disabled
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "-1")
        with pytest.raises(ValueError):
            default_heartbeat_s()

    def test_default_ack_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT_ACK_S", raising=False)
        assert default_ack_timeout() == 5.0
        monkeypatch.setenv("REPRO_TRANSPORT_ACK_S", "0.25")
        assert default_ack_timeout() == 0.25
        monkeypatch.setenv("REPRO_TRANSPORT_ACK_S", "0")
        with pytest.raises(ValueError):
            default_ack_timeout()


class TestPayloadFingerprint:
    def test_content_addressing(self):
        a = {"x": np.arange(5.0), "y": np.arange(3)}
        same = {"y": np.arange(3), "x": np.arange(5.0)}  # order-free
        assert payload_fingerprint(a) == payload_fingerprint(same)
        renamed = {"z": np.arange(5.0), "y": np.arange(3)}
        assert payload_fingerprint(a) != payload_fingerprint(renamed)
        cast = {"x": np.arange(5.0, dtype=np.float32),
                "y": np.arange(3)}
        assert payload_fingerprint(a) != payload_fingerprint(cast)
        bumped = {"x": np.arange(5.0) + 1e-16, "y": np.arange(3)}
        assert payload_fingerprint(a) == payload_fingerprint(bumped) \
            or not np.array_equal(a["x"], bumped["x"])


# ---------------------------------------------------------------------------
# the framed channel


def _chan_pair(ack_timeout=2.0):
    sa, sb = socket.socketpair()
    return (Channel(sa, peer=0, ack_timeout=ack_timeout),
            Channel(sb, peer=0, ack_timeout=ack_timeout))


def _recv_in_thread(chan, timeout=15.0):
    box: dict = {}

    def run():
        try:
            box["msg"] = chan.recv_msg(timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - captured for asserts
            box["exc"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


class TestChannel:
    def test_round_trip_and_duplex(self):
        a, b = _chan_pair()
        thread, box = _recv_in_thread(b)
        a.send_msg({"hello": [1, 2, 3]})
        thread.join(15)
        assert box["msg"] == {"hello": [1, 2, 3]}
        # Other direction on the same sockets.
        thread, box = _recv_in_thread(a)
        b.send_msg(("reply", 7))
        thread.join(15)
        assert box["msg"] == ("reply", 7)
        a.close(), b.close()

    def test_multi_frame_message(self):
        a, b = _chan_pair()
        big = np.arange(400_000, dtype=np.float64)  # > 3 MB pickled
        thread, box = _recv_in_thread(b)
        a.send_msg(big)
        thread.join(30)
        np.testing.assert_array_equal(box["msg"], big)
        assert a._frames_sent >= 3  # really did span frames
        a.close(), b.close()

    def test_corrupt_frame_naked_and_resent(self):
        a, b = _chan_pair()
        a.log, b.log = FaultLog(), FaultLog()
        a.directives = FaultPlan.parse("corrupt:frame=0") \
            .frame_directives()
        thread, box = _recv_in_thread(b)
        a.send_msg("payload intact?")
        thread.join(15)
        assert box["msg"] == "payload intact?"
        assert a.log.count("inject") == 1  # the corruption
        assert a.log.count("nak") == 1     # the per-frame resend
        assert b.log.count("nak") == 1     # the receiver's rejection
        a.close(), b.close()

    def test_corrupt_every_attempt_exhausts(self):
        a, b = _chan_pair()
        a.directives = FaultPlan.parse("corrupt:frame=0:attempt=*") \
            .frame_directives()
        thread, box = _recv_in_thread(b)
        with pytest.raises(TransportError):
            a.send_msg("never arrives")
        thread.join(15)
        assert isinstance(box.get("exc"), TransportError)
        assert a.closed
        with pytest.raises(TransportError):
            a.send_msg("channel is dead")

    def test_dropped_frame_retransmits_on_ack_timeout(self):
        a, b = _chan_pair(ack_timeout=0.3)
        a.log = FaultLog()
        a.directives = FaultPlan.parse("drop:frame=0").frame_directives()
        thread, box = _recv_in_thread(b)
        t0 = time.monotonic()
        a.send_msg([9, 9, 9])
        thread.join(15)
        assert box["msg"] == [9, 9, 9]
        assert time.monotonic() - t0 >= 0.3  # waited out the ACK window
        assert a.log.count("inject") == 1
        assert a.log.count("retransmit") == 1
        a.close(), b.close()

    def test_delay_directive_slows_but_delivers(self):
        a, b = _chan_pair()
        a.log = FaultLog()
        a.directives = FaultPlan.parse("delay:seconds=0.05") \
            .frame_directives()
        thread, box = _recv_in_thread(b)
        t0 = time.monotonic()
        a.send_msg("late but intact")
        thread.join(15)
        assert box["msg"] == "late but intact"
        assert time.monotonic() - t0 >= 0.05
        assert a.log.count("inject") >= 1
        a.close(), b.close()

    def test_heartbeat_updates_last_heard(self):
        a, b = _chan_pair()
        b.last_heard = 0.0
        a.send_heartbeat()
        assert b.pump(time.monotonic() + 2.0)
        assert b.last_heard > 0.0
        assert not b.poll(0.0)  # heartbeats are not messages
        a.close(), b.close()

    def test_exhausted_retransmits_raise(self):
        a, b = _chan_pair(ack_timeout=0.05)
        a.directives = FaultPlan.parse("drop:frame=0:attempt=*") \
            .frame_directives()
        thread, box = _recv_in_thread(b, timeout=5.0)
        with pytest.raises(TransportError, match="unacknowledged"):
            a.send_msg("black hole")
        thread.join(15)
        assert MAX_RETRANSMITS == 3  # budget pinned by the docs


# ---------------------------------------------------------------------------
# the handshake


class TestHandshake:
    WELCOME = {"worker_id": 7, "heartbeat_s": 1.0, "ack_timeout": 2.0}

    def _serve(self, sock, key, log=None):
        box: dict = {}

        def run():
            box["ok"] = server_handshake(sock, key, self.WELCOME,
                                         log=log)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, box

    def test_mutual_auth_success(self):
        sa, sb = socket.socketpair()
        thread, box = self._serve(sa, b"secret")
        welcome = client_handshake(sb, b"secret")
        thread.join(15)
        assert box["ok"] is True
        assert welcome == self.WELCOME
        sa.close(), sb.close()

    def test_wrong_key_refused_both_ways(self):
        # Mutual auth: the client detects the impostor first (the
        # server's CHALLENGE proof fails), and the server logs the
        # refusal when the client walks away.
        sa, sb = socket.socketpair()
        log = FaultLog()
        thread, box = self._serve(sa, b"right", log=log)
        with pytest.raises(TransportError):
            client_handshake(sb, b"wrong")
        sb.close()
        thread.join(15)
        assert box["ok"] is False
        assert log.count("auth_refused") == 1

    def test_forged_client_proof_refused(self):
        # Raw-framed handshake: HELLO is a bare 16-byte nonce, AUTH a
        # bare 32-byte proof — no pickle ever crosses pre-auth.
        sa, sb = socket.socketpair()
        log = FaultLog()
        thread, box = self._serve(sa, b"secret", log=log)
        _plain_send(sb, _HELLO, os.urandom(16))
        _, ftype, _ = _plain_recv(sb)
        assert ftype == _CHALLENGE
        _plain_send(sb, _AUTH, os.urandom(32))  # right width, wrong key
        _, ftype, _ = _plain_recv(sb)
        assert ftype == _REFUSE
        thread.join(15)
        assert box["ok"] is False
        assert log.count("auth_refused") == 1
        assert "HMAC" in log.events[0].detail
        sa.close(), sb.close()

    def test_malformed_hello_refused_without_unpickling(self):
        # A pickle bomb in the HELLO payload is refused on width alone.
        sa, sb = socket.socketpair()
        log = FaultLog()
        thread, box = self._serve(sa, b"secret", log=log)
        _plain_send(sb, _HELLO, __import__("pickle").dumps(
            {"version": PROTOCOL_VERSION, "nonce": os.urandom(16)}))
        _, ftype, payload = _plain_recv(sb)
        assert ftype == _REFUSE
        assert "malformed HELLO" in payload.decode("utf-8")
        thread.join(15)
        assert box["ok"] is False
        assert log.count("auth_refused") == 1
        sa.close(), sb.close()

    def test_version_mismatch_refused(self):
        # The protocol version rides in the frame header.
        sa, sb = socket.socketpair()
        log = FaultLog()
        thread, box = self._serve(sa, b"secret", log=log)
        _plain_send(sb, _HELLO, os.urandom(16), version=99)
        _, ftype, payload = _plain_recv(sb)
        assert ftype == _REFUSE
        reason = payload.decode("utf-8")
        assert "version" in reason
        thread.join(15)
        assert box["ok"] is False
        assert log.count("auth_refused") == 1


# ---------------------------------------------------------------------------
# the pool (direct API)


class TestTransportPool:
    def test_spawn_kill_topup_shutdown(self):
        pool = TransportPool(2, heartbeat_s=0.0, ack_timeout=1.0)
        try:
            pids = pool.alive_pids()
            assert len(pids) == 2
            assert sorted(w.id for w in pool.workers) == [0, 1]
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while len(pool.alive_pids()) == 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            # The checkout liveness check: retire the corpse, top up.
            assert pool.ensure_capacity() == 1
            assert len(pool.alive_pids()) == 2
            # Replacements get fresh (monotone) worker ids.
            assert max(w.id for w in pool.workers) == 2
        finally:
            pool.shutdown()
        assert pool.alive_pids() == ()
        assert pool.workers == []


# ---------------------------------------------------------------------------
# the process backend over the wire (integration)


class TestDistributedWire:
    """Fixed seed ⇒ bit-identical results and ledger totals across
    payload modes and under every transport fault kind — with worker
    replacement, never pool teardown."""

    def _run(self, monkeypatch, plan=None, transport="shm",
             policy=FAST):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_TRANSPORT", transport)
        monkeypatch.setenv("REPRO_TRANSPORT_ACK_S", "0.5")
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(backend="process", chunk_items=8,
                               retry=policy)
        pieces = ctx.item_chunks(x.size)
        assert len(pieces) > 2
        rng = np.random.default_rng(5)
        with use_ledger() as ledger:
            with use_faults(plan), use_fault_log() as flog:
                out = ctx.run_shipped(_square_task, {"x": x},
                                      {"bias": 1.5}, pieces, rng=rng)
        return out, (ledger.work, ledger.depth), flog

    def test_fast_results_never_wait_for_retransmit(self, monkeypatch):
        # Regression: a result that lands during the job send's ACK
        # wait is pulled into Channel._rbuf, which select() cannot
        # see.  The scheduler must drain userspace buffers every
        # iteration — otherwise each such chunk stalls until the
        # worker's ACK-timeout retransmit (5 s default), turning a
        # sub-second round into minutes.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.delenv("REPRO_TRANSPORT_ACK_S", raising=False)
        x = np.linspace(0.0, 3.0, 197)
        ctx = ExecutionContext(backend="process", chunk_items=8,
                               retry=FAST)
        pieces = ctx.item_chunks(x.size)
        assert len(pieces) >= 20
        start = time.monotonic()
        out = ctx.run_shipped(_square_task, {"x": x}, {"bias": 1.5},
                              pieces, rng=np.random.default_rng(5))
        elapsed = time.monotonic() - start
        assert len(out) == len(pieces)
        # Pre-fix this took >= one 5 s ACK cycle per couple of chunks
        # (~50 s here); post-fix the whole round is well under one.
        assert elapsed < 5.0, f"wire round stalled: {elapsed:.1f}s"

    def test_tcp_payloads_match_shm_bit_identical(self, monkeypatch):
        base, lbase, _ = self._run(monkeypatch, transport="shm")
        shutdown_worker_pools()  # mode switch: fresh pool
        out, led, _ = self._run(monkeypatch, transport="tcp")
        assert out == base
        assert led == lbase
        # In-band payloads never touch /dev/shm.
        assert live_segment_names() == ()

    @pytest.mark.parametrize("plan, actions", [
        ("drop:frame=0", ("inject", "retransmit")),
        ("corrupt:frame=1", ("inject", "nak")),
        ("delay:seconds=0.01", ("inject",)),
    ])
    def test_frame_faults_are_invisible(self, monkeypatch, plan,
                                        actions):
        base, lbase, _ = self._run(monkeypatch)
        shutdown_worker_pools()  # frame counters restart at 0
        out, led, flog = self._run(monkeypatch, plan=plan)
        assert out == base and led == lbase
        summary = flog.summary()
        for action in actions:
            assert summary.get(action, 0) >= 1, (plan, summary)
        assert summary.get("pool_rebuild", 0) == 0

    def test_disconnect_replaces_worker_in_place(self, monkeypatch):
        base, lbase, _ = self._run(monkeypatch)
        shutdown_worker_pools()  # worker ids restart at 0
        out, led, flog = self._run(monkeypatch, plan="disconnect:worker=0")
        assert out == base and led == lbase
        summary = flog.summary()
        assert summary.get("worker_dead", 0) >= 1
        assert summary.get("worker_replace", 0) >= 1
        assert summary.get("retry", 0) >= 1
        assert summary.get("pool_rebuild", 0) == 0

    def test_transport_kill_replaces_worker(self, monkeypatch):
        base, lbase, _ = self._run(monkeypatch)
        out, led, flog = self._run(monkeypatch,
                                   plan="kill:chunk=1:stage=transport")
        assert out == base and led == lbase
        assert flog.count("worker_replace") >= 1
        assert flog.count("pool_rebuild") == 0

    @pytest.mark.parametrize("scope", ["stage", "phase"])
    def test_heartbeats_detect_frozen_worker(self, monkeypatch, scope):
        base, lbase, _ = self._run(monkeypatch)
        shutdown_worker_pools()
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0.2")
        # A 30s freeze with suspended heartbeats: no EOF, no lease
        # timeout (FAST has none) — only heartbeat monitoring can
        # detect it within the test's lifetime.  Both transport-scope
        # spellings must suspend heartbeats worker-side (the filter
        # mirrors FaultPlan.transport_directives).
        t0 = time.monotonic()
        out, led, flog = self._run(
            monkeypatch, plan=f"hang:chunk=0:{scope}=transport:seconds=30")
        assert time.monotonic() - t0 < 20.0
        assert out == base and led == lbase
        assert any("heartbeat" in e.detail for e in flog.events
                   if e.action == "worker_dead")
        assert flog.count("worker_replace") >= 1

    def test_checkout_survives_external_worker_death(self, monkeypatch):
        from repro.pram.executor import _worker_pool

        base, lbase, _ = self._run(monkeypatch)
        pool = _worker_pool(2)
        pids = pool.alive_pids()
        assert len(pids) == 2
        os.kill(pids[-1], signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while len(pool.alive_pids()) == 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        # The cached pool is checked out again with a dead worker:
        # capacity must be topped up, not trusted (the rot fix).
        out, led, _ = self._run(monkeypatch)
        assert out == base and led == lbase
        assert len(_worker_pool(2).alive_pids()) == 2

    def test_config_drift_rebuilds_pool_at_checkout(self, monkeypatch):
        from repro.pram.executor import _worker_pool

        self._run(monkeypatch)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_TRANSPORT_ACK_S", "0.5")
        first = _worker_pool(2)
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "1.25")
        rebuilt = _worker_pool(2)
        assert rebuilt is not first
        assert rebuilt.heartbeat_s == 1.25

    def test_shutdown_reaps_every_worker(self, monkeypatch):
        self._run(monkeypatch)
        assert len(live_worker_pids()) >= 1
        shutdown_worker_pools()
        assert live_worker_pids() == ()
        assert live_segment_names() == ()
