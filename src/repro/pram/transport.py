"""Hardened wire transport for the process backend (DESIGN.md §13).

Worker processes talk to the coordinator over authenticated,
checksummed sockets rather than a bare pickled pipe that trusts every
byte, and payloads need not live in ``/dev/shm``.  This gives the
backend a transport with the failure envelope a real fleet imposes:

* **Framed messages** — every message is pickled, split into
  ≤ :data:`FRAME_CHUNK` pieces, and sent as length-prefixed frames
  carrying a CRC32 of their payload.  A corrupt frame is rejected by
  the receiver, which NAKs it; the sender retransmits **that frame**,
  bounded by :data:`MAX_RETRANSMITS`.  A *dropped* frame surfaces as a
  missing ACK: the sender retransmits the whole message after
  ``REPRO_TRANSPORT_ACK_S`` (receivers deduplicate by message id), also
  bounded.  Exhausting either budget raises
  :class:`~repro.errors.TransportError`, which the scheduler treats as
  a dead peer.
* **Authenticated sessions** — an HMAC-SHA256 challenge/response
  handshake (mutual: each side proves knowledge of the shared key from
  ``REPRO_TRANSPORT_KEY``, or a per-pool random key when unset) plus a
  protocol version check.  Handshake payloads are **fixed-format raw
  bytes** (nonces, proofs, UTF-8 refusal reasons) — nothing from the
  wire is unpickled until the peer has proven it holds the key, so an
  unauthenticated connector can never reach ``pickle.loads``.  Bad
  auth or a version mismatch ⇒ the connection is refused and logged;
  no job bytes ever reach an unauthenticated peer.
* **Heartbeats** — each worker pushes a heartbeat frame every
  ``REPRO_HEARTBEAT_S`` seconds from a background thread.  The
  coordinator tracks ``last_heard`` per connection and declares a
  worker dead after :data:`HEARTBEAT_MISS_FACTOR` missed intervals —
  so a wedged worker (frozen VM, not a clean EOF) is detected before
  the round stalls on it.
* **In-band payloads** — with ``REPRO_TRANSPORT=tcp``, array payloads
  ship as chunked frames instead of shared-memory segments: the
  coordinator sends each distinct payload (keyed by
  :func:`payload_fingerprint`) to a worker **once**; the worker keeps
  an attach-once LRU cache mirroring the shm attachment cache, and
  can request a re-send (``need``) if its cache evicted a payload.
  Nothing in ``tcp`` mode touches ``/dev/shm``.

Scheduling on top of the transport is **lease-based**
(:class:`TransportPool`): each dispatched chunk holds a lease on its
worker; a worker death — EOF, transport failure, missed heartbeats, or
a lease held past the policy's lease timeout — expires only that
worker's lease, re-queues its chunk, and **spawns a replacement
worker** (with backoff) instead of tearing the pool down.  The pool
survives any number of deaths as long as replacements can be spawned;
the determinism contract (DESIGN.md §6) makes every re-dispatch
bit-identical.

Fault injection (``stage=transport`` grammar, :mod:`repro.pram.faults`)
hooks the coordinator's outbound frames: ``drop:frame=N`` skips the
``N``-th first-transmission payload frame on a connection,
``corrupt:frame=N`` flips payload bytes after the CRC is computed,
``delay:seconds=F`` sleeps before sending.  Retransmitted frames carry
an ``attempt`` coordinate ≥ 1, so default (``attempt=0``) directives
never refire on the recovery path — keeping faulted runs convergent
and deterministic.  ``disconnect:worker=N`` ships with the job and
severs the connection worker-side; control frames (ACK/NAK/heartbeat)
are never fault targets.
"""

from __future__ import annotations

import hashlib
import hmac
import logging
import os
import pickle
import select
import socket
import struct
import threading
import time
import zlib
from collections import OrderedDict, deque

import numpy as np

from repro.errors import ExecutionError, TransportError

__all__ = ["PROTOCOL_VERSION", "FRAME_CHUNK", "MAX_RETRANSMITS",
           "HEARTBEAT_MISS_FACTOR", "Channel", "TransportPool",
           "payload_fingerprint", "default_transport",
           "default_transport_key", "default_heartbeat_s",
           "default_ack_timeout", "transport_worker_main"]

_log = logging.getLogger("repro.transport")

#: Wire protocol version; checked in the handshake and on every frame.
PROTOCOL_VERSION = 1

_MAGIC = b"RT"

#: Frame header: magic(2s) version(B) type(B) msg_id(I) chunk_idx(H)
#: nchunks(H) payload_length(I) payload_crc32(I) — network byte order.
_HEADER = struct.Struct("!2sBBIHHII")

# Frame types.
_DATA = 1
_ACK = 2
_NAK = 3
_HEARTBEAT = 4
_HELLO = 5
_CHALLENGE = 6
_AUTH = 7
_WELCOME = 8
_REFUSE = 9

#: Payload bytes per DATA frame; large messages span several frames.
FRAME_CHUNK = 1 << 20

#: Retransmission budget, applied independently to the per-frame NAK
#: path and the whole-message ACK-timeout path.
MAX_RETRANSMITS = 3

#: Heartbeat intervals a worker may miss before it is declared dead.
HEARTBEAT_MISS_FACTOR = 3

_HANDSHAKE_TIMEOUT = 10.0
_SPAWN_TIMEOUT = 15.0
_SEND_TIMEOUT = 60.0

#: Fixed handshake field widths: 16-byte nonces, 32-byte HMAC-SHA256
#: proofs.  Handshake payloads are raw concatenations of these — never
#: pickle — so nothing attacker-controlled is deserialized pre-auth.
_NONCE_LEN = 16
_PROOF_LEN = 32

#: Worker-side payload cache width — same rationale as the shm
#: attachment cache (executor ``_ATTACH_CACHE``): one slot for the
#: persistent chain payload, one for the current dispatch payload.
_PAYLOAD_CACHE = 2


# -- env knobs (shared cache idiom with the executor) -------------------------


def default_transport() -> str:
    """Payload mode from ``REPRO_TRANSPORT``: ``shm`` (default) or ``tcp``.

    ``shm`` publishes payload arrays as shared-memory segments that
    workers attach (same-host only); ``tcp`` ships them in-band as
    chunked frames (no ``/dev/shm`` assumption — the remote-ready
    mode).  Either way the job messages travel over the framed socket.
    """
    from repro.pram.executor import _env_cached

    def parse(env: str | None) -> str:
        if not env or not env.strip():
            return "shm"
        value = env.strip().lower()
        if value not in ("shm", "tcp"):
            raise ValueError(
                f"REPRO_TRANSPORT must be 'shm' or 'tcp', got {env!r}")
        return value

    return _env_cached("REPRO_TRANSPORT", parse)


def default_transport_key() -> bytes | None:
    """Shared HMAC key from ``REPRO_TRANSPORT_KEY`` (utf-8), or ``None``.

    When unset, each pool generates a random per-process key — secure
    for same-host pools (the key travels only through process spawn
    arguments, never the wire).  A real multi-host deployment sets the
    env var on every node.
    """
    from repro.pram.executor import _env_cached

    def parse(env: str | None) -> bytes | None:
        if not env or not env.strip():
            return None
        return env.encode("utf-8")

    return _env_cached("REPRO_TRANSPORT_KEY", parse)


def default_heartbeat_s() -> float:
    """Heartbeat interval from ``REPRO_HEARTBEAT_S`` (seconds, ≥ 0).

    ``0`` disables heartbeats (liveness then rests on EOF detection and
    lease timeouts alone).  Default 5 s; a worker is declared dead
    after :data:`HEARTBEAT_MISS_FACTOR` missed intervals.
    """
    from repro.pram.executor import _env_cached

    def parse(env: str | None) -> float:
        if not env or not env.strip():
            return 5.0
        try:
            value = float(env)
        except ValueError:
            value = -1.0
        if value < 0 or not np.isfinite(value):
            raise ValueError(
                f"REPRO_HEARTBEAT_S must be a non-negative number of "
                f"seconds, got {env!r}")
        return value

    return _env_cached("REPRO_HEARTBEAT_S", parse)


def default_ack_timeout() -> float:
    """Per-message ACK timeout from ``REPRO_TRANSPORT_ACK_S`` (s, > 0).

    How long a sender waits for a message ACK before retransmitting the
    whole message (the dropped-frame recovery path).
    """
    from repro.pram.executor import _env_cached

    def parse(env: str | None) -> float:
        if not env or not env.strip():
            return 5.0
        try:
            value = float(env)
        except ValueError:
            value = 0.0
        if value <= 0 or not np.isfinite(value):
            raise ValueError(
                f"REPRO_TRANSPORT_ACK_S must be a positive number of "
                f"seconds, got {env!r}")
        return value

    return _env_cached("REPRO_TRANSPORT_ACK_S", parse)


_auto_key: bytes | None = None


def _resolve_key() -> bytes:
    """The session key: env-configured, else one random key per process."""
    global _auto_key
    key = default_transport_key()
    if key is not None:
        return key
    if _auto_key is None:
        _auto_key = os.urandom(32)
    return _auto_key


# -- payload identity ---------------------------------------------------------


def payload_fingerprint(arrays: dict) -> str:
    """Content hash of a named-array payload (sha256 hex digest).

    The in-band payload cache key: covers names, dtypes, shapes, and
    raw bytes in sorted-name order, so two payloads share a fingerprint
    iff a worker could use either interchangeably.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# -- handshake ----------------------------------------------------------------


class _PumpTimeout(Exception):
    """Internal: a bounded pump found no complete frame in time."""


def _plain_recv_exact(sock, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            data = sock.recv(n - len(buf))
        except socket.timeout:
            raise TransportError("handshake timed out") from None
        except OSError as exc:
            raise TransportError(
                f"handshake connection lost: {exc!r}") from None
        if not data:
            raise TransportError("peer closed during handshake")
        buf += data
    return bytes(buf)


def _plain_send(sock, ftype: int, payload: bytes,
                version: int = PROTOCOL_VERSION) -> None:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = _HEADER.pack(_MAGIC, version, ftype, 0, 0, 1,
                          len(payload), crc)
    sock.sendall(header + payload)


def _plain_recv(sock) -> tuple[int, int, bytes]:
    header = _plain_recv_exact(sock, _HEADER.size)
    magic, ver, ftype, _, _, _, length, crc = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise TransportError("peer is not speaking the repro transport")
    payload = _plain_recv_exact(sock, length) if length else b""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TransportError("corrupt handshake frame")
    return ver, ftype, payload


def _proof(key: bytes, role: bytes, nonce: bytes) -> bytes:
    return hmac.new(key, role + nonce, hashlib.sha256).digest()


def server_handshake(sock, key: bytes, welcome: dict,
                     log=None) -> bool:
    """Authenticate an inbound connection (coordinator side).

    Protocol (all payloads fixed-format raw bytes — **no pickle is
    ever applied to pre-auth wire data**): peer sends HELLO (16-byte
    nonce; the protocol version rides in the frame header); we answer
    CHALLENGE (our 16-byte nonce ‖ 32-byte proof over the peer's nonce,
    proving *we* hold the key — mutual auth); peer answers AUTH (32-byte
    proof over our nonce); on success we send WELCOME, a pickled dict
    tagged with an HMAC bound to the session nonce (the one post-auth
    payload).  Any failure sends REFUSE (UTF-8 reason), closes the
    socket, logs the refusal, and returns ``False`` — no job traffic
    ever flows on an unauthenticated connection.
    """
    def refuse(reason: str) -> bool:
        _log.warning("transport handshake refused: %s", reason)
        if log is not None:
            log.record("auth_refused", backend="transport", detail=reason)
        try:
            _plain_send(sock, _REFUSE, reason.encode("utf-8"))
        except OSError:
            pass
        sock.close()
        return False

    sock.settimeout(_HANDSHAKE_TIMEOUT)
    try:
        ver, ftype, payload = _plain_recv(sock)
        if ftype != _HELLO:
            return refuse(f"expected HELLO, got frame type {ftype}")
        if ver != PROTOCOL_VERSION:
            return refuse(f"protocol version mismatch: peer "
                          f"{ver}, ours {PROTOCOL_VERSION}")
        if len(payload) != _NONCE_LEN:
            return refuse(f"malformed HELLO nonce "
                          f"({len(payload)} bytes, want {_NONCE_LEN})")
        nonce_c = payload
        nonce_s = os.urandom(_NONCE_LEN)
        _plain_send(sock, _CHALLENGE,
                    nonce_s + _proof(key, b"server", nonce_c))
        ver, ftype, payload = _plain_recv(sock)
        if ftype != _AUTH:
            return refuse(f"expected AUTH, got frame type {ftype}")
        if len(payload) != _PROOF_LEN:
            return refuse(f"malformed AUTH proof "
                          f"({len(payload)} bytes, want {_PROOF_LEN})")
        if not hmac.compare_digest(payload,
                                   _proof(key, b"client", nonce_s)):
            return refuse("authentication failed (bad HMAC proof)")
        blob = pickle.dumps(welcome)
        _plain_send(sock, _WELCOME,
                    blob + _proof(key, b"welcome", nonce_c + blob))
    except (TransportError, OSError) as exc:
        return refuse(f"handshake error: {exc}")
    sock.settimeout(None)
    return True


def client_handshake(sock, key: bytes) -> dict:
    """Authenticate an outbound connection (worker side).

    Mirror image of :func:`server_handshake`; verifies the server's
    proof before answering (so a worker never talks jobs with an
    impostor coordinator either), and only unpickles the WELCOME dict
    after checking its HMAC tag — the wire never reaches
    ``pickle.loads`` unauthenticated.  Returns the WELCOME dict; raises
    :class:`TransportError` on refusal or mismatch.
    """
    def refusal(payload: bytes) -> str:
        return payload.decode("utf-8", "replace") or "refused"

    sock.settimeout(_HANDSHAKE_TIMEOUT)
    nonce_c = os.urandom(_NONCE_LEN)
    _plain_send(sock, _HELLO, nonce_c)
    ver, ftype, payload = _plain_recv(sock)
    if ftype == _REFUSE:
        raise TransportError(f"connection refused: {refusal(payload)}")
    if ftype != _CHALLENGE:
        raise TransportError(f"expected CHALLENGE, got type {ftype}")
    if ver != PROTOCOL_VERSION:
        raise TransportError(f"protocol version mismatch: coordinator "
                             f"{ver}, ours {PROTOCOL_VERSION}")
    if len(payload) != _NONCE_LEN + _PROOF_LEN:
        raise TransportError("malformed CHALLENGE frame")
    nonce_s = payload[:_NONCE_LEN]
    if not hmac.compare_digest(payload[_NONCE_LEN:],
                               _proof(key, b"server", nonce_c)):
        raise TransportError("coordinator failed authentication")
    _plain_send(sock, _AUTH, _proof(key, b"client", nonce_s))
    ver, ftype, payload = _plain_recv(sock)
    if ftype == _REFUSE:
        raise TransportError(f"connection refused: {refusal(payload)}")
    if ftype != _WELCOME:
        raise TransportError(f"expected WELCOME, got type {ftype}")
    blob, tag = payload[:-_PROOF_LEN], payload[-_PROOF_LEN:]
    if not hmac.compare_digest(tag,
                               _proof(key, b"welcome", nonce_c + blob)):
        raise TransportError("WELCOME failed authentication")
    sock.settimeout(None)
    return pickle.loads(blob)


# -- the framed channel -------------------------------------------------------


class Channel:
    """One authenticated, framed, checksummed duplex connection.

    Messages are arbitrary picklable objects.  :meth:`send_msg` blocks
    until the peer ACKs the assembled message (retransmitting on ACK
    timeout or NAK, bounded); :meth:`recv_msg` / :meth:`poll` pump
    inbound frames, transparently ACKing completed messages and
    answering NAKs.  Inbound messages that arrive while a send waits
    for its ACK are queued — full-duplex traffic cannot deadlock.

    Threading: receives happen on one thread only.  Sends are
    serialized by an internal lock so a worker's heartbeat thread can
    interleave with its result sends.  The coordinator is
    single-threaded per pool.  Both directions bound their waits with
    ``select`` on a blocking socket — the shared per-socket timeout is
    never touched after construction, so a heartbeat send can never
    race a concurrent receive into inheriting the wrong timeout.

    ``directives`` (set per dispatch round by the scheduler) are
    coordinator-side ``stage=transport`` frame faults; ``peer`` is the
    remote worker id used by ``worker=`` selectors.
    """

    def __init__(self, sock, *, peer: int | None = None,
                 ack_timeout: float | None = None) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test sockets
            pass
        sock.settimeout(None)  # waits are select-bounded from here on
        self.sock = sock
        self.peer = peer
        self.directives: tuple = ()
        self.log = None
        self.closed = False
        self.last_heard = time.monotonic()
        self._ack_timeout = ack_timeout
        self._send_lock = threading.Lock()
        self._rbuf = bytearray()
        self._inbox: deque = deque()
        self._next_msg_id = 1
        self._frames_sent = 0          # first-transmission DATA frames
        self._out: tuple | None = None  # (msg_id, [(frame_no, idx, bytes)])
        self._out_acked = False
        self._nak_resends: dict[tuple[int, int], int] = {}
        self._nak_sent: dict[tuple[int, int], int] = {}
        self._partial: dict[int, dict[int, bytes]] = {}
        self._last_delivered = 0

    # -- low level ------------------------------------------------------------

    def close(self) -> None:
        """Close the socket (idempotent)."""
        self.closed = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def _fail(self, reason: str) -> TransportError:
        self.close()
        return TransportError(
            f"peer {self.peer if self.peer is not None else '?'}: {reason}")

    def _raw_send(self, data: bytes) -> None:
        with self._send_lock:
            view = memoryview(data)
            deadline = time.monotonic() + _SEND_TIMEOUT
            while view:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise self._fail(
                        f"send timed out after {_SEND_TIMEOUT}s")
                try:
                    _, writable, _ = select.select([], [self.sock], [],
                                                   remaining)
                except (OSError, ValueError) as exc:
                    raise self._fail(f"send failed ({exc!r})") from None
                if not writable:
                    raise self._fail(
                        f"send timed out after {_SEND_TIMEOUT}s")
                try:
                    sent = self.sock.send(view)
                except OSError as exc:
                    raise self._fail(f"send failed ({exc!r})") from None
                view = view[sent:]

    def _frame(self, ftype: int, msg_id: int, chunk: int, nchunks: int,
               payload: bytes) -> bytes:
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return _HEADER.pack(_MAGIC, PROTOCOL_VERSION, ftype, msg_id,
                            chunk, nchunks, len(payload), crc) + payload

    def _fill(self, n: int, deadline: float | None) -> None:
        """Buffer at least ``n`` inbound bytes or raise ``_PumpTimeout``.

        An already-expired deadline still sweeps whatever the kernel
        has buffered (zero-timeout select) before giving up, so
        :meth:`drain`/:meth:`pump` with a past deadline deliver
        kernel-buffered frames — heartbeats included — without
        blocking.
        """
        while len(self._rbuf) < n:
            if deadline is None:
                remaining = None
            else:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                readable, _, _ = select.select([self.sock], [], [],
                                               remaining)
            except (OSError, ValueError) as exc:
                raise self._fail(f"receive failed ({exc!r})") from None
            if not readable:
                raise _PumpTimeout
            try:
                data = self.sock.recv(1 << 16)
            except OSError as exc:
                raise self._fail(f"receive failed ({exc!r})") from None
            if not data:
                raise self._fail("connection closed by peer")
            self._rbuf += data

    # -- fault hooks (coordinator-side outbound frames) -----------------------

    def _send_data_frame(self, frame_no: int, msg_id: int, idx: int,
                         nchunks: int, payload: bytes,
                         attempt: int) -> None:
        drop = corrupt = False
        for d in self.directives:
            if not d.matches_frame(frame=frame_no, attempt=attempt,
                                   worker=self.peer):
                continue
            if self.log is not None:
                self.log.record("inject", kind=d.kind, chunk=frame_no,
                                attempt=attempt, backend="transport",
                                detail=d.spec())
            if d.kind == "delay":
                time.sleep(d.seconds)
            elif d.kind == "drop":
                drop = True
            elif d.kind == "corrupt":
                corrupt = True
        if drop:
            return
        frame = self._frame(_DATA, msg_id, idx, nchunks, payload)
        if corrupt:
            damaged = bytearray(frame)
            damaged[_HEADER.size] ^= 0xFF  # payload byte; CRC now lies
            frame = bytes(damaged)
        self._raw_send(frame)

    # -- sending --------------------------------------------------------------

    def send_heartbeat(self) -> None:
        """Push one heartbeat frame (never fault-targeted, never ACKed)."""
        self._raw_send(self._frame(_HEARTBEAT, 0, 0, 0, b""))

    def send_msg(self, obj) -> None:
        """Send one message reliably; blocks until the peer ACKs it.

        Recovery: a NAKed frame is retransmitted individually; a
        missing ACK retransmits the whole message after the ACK
        timeout (the receiver deduplicates).  Both paths are bounded
        by :data:`MAX_RETRANSMITS`; exhaustion (or a vanished peer)
        raises :class:`TransportError`.
        """
        if self.closed:
            raise TransportError(f"channel to peer {self.peer} is closed")
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        pieces = [blob[i:i + FRAME_CHUNK]
                  for i in range(0, len(blob), FRAME_CHUNK)] or [b""]
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        frames = []
        for idx, piece in enumerate(pieces):
            frames.append((self._frames_sent, idx, piece))
            self._frames_sent += 1
        self._out = (msg_id, frames)
        self._out_acked = False
        try:
            for transmission in range(MAX_RETRANSMITS + 1):
                for frame_no, idx, piece in frames:
                    self._send_data_frame(frame_no, msg_id, idx,
                                          len(pieces), piece, transmission)
                deadline = time.monotonic() + self.ack_timeout()
                while not self._out_acked:
                    if not self.pump(deadline):
                        break
                if self._out_acked:
                    return
                if self.log is not None:
                    self.log.record("retransmit", chunk=None,
                                    attempt=transmission + 1,
                                    backend="transport",
                                    detail=f"msg {msg_id} unacked, "
                                           f"resending to peer {self.peer}")
            raise self._fail(
                f"message {msg_id} unacknowledged after "
                f"{MAX_RETRANSMITS + 1} transmissions")
        finally:
            self._out = None

    def ack_timeout(self) -> float:
        """Per-message ACK wait (constructor override or env)."""
        if self._ack_timeout is not None:
            return self._ack_timeout
        return default_ack_timeout()

    # -- receiving ------------------------------------------------------------

    def pump(self, deadline: float | None = None) -> bool:
        """Process one inbound frame; ``False`` if none arrived in time.

        Handles control frames internally (ACK/NAK/heartbeat), CRC
        checking + NAK generation, and message assembly: a completed
        message is ACKed and appended to the inbox.
        """
        try:
            self._fill(_HEADER.size, deadline)
        except _PumpTimeout:
            return False
        header = bytes(self._rbuf[:_HEADER.size])
        magic, ver, ftype, msg_id, idx, nchunks, length, crc = \
            _HEADER.unpack(header)
        if magic != _MAGIC:
            raise self._fail("bad frame magic (desynchronized stream)")
        if ver != PROTOCOL_VERSION:
            raise self._fail(f"protocol version {ver} != "
                             f"{PROTOCOL_VERSION} mid-session")
        try:
            self._fill(_HEADER.size + length, deadline)
        except _PumpTimeout:
            return False            # partial frame stays buffered
        del self._rbuf[:_HEADER.size]
        payload = bytes(self._rbuf[:length])
        del self._rbuf[:length]
        self.last_heard = time.monotonic()

        if ftype == _HEARTBEAT:
            return True
        if ftype == _ACK:
            if self._out is not None and msg_id == self._out[0]:
                self._out_acked = True
            return True
        if ftype == _NAK:
            self._handle_nak(msg_id, idx)
            return True
        if ftype != _DATA:
            raise self._fail(f"unexpected frame type {ftype} mid-session")

        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            seen = self._nak_sent.get((msg_id, idx), 0) + 1
            self._nak_sent[(msg_id, idx)] = seen
            if seen > MAX_RETRANSMITS:
                raise self._fail(
                    f"frame {idx} of message {msg_id} still corrupt "
                    f"after {MAX_RETRANSMITS} retransmissions")
            if self.log is not None:
                self.log.record("nak", chunk=idx, attempt=seen,
                                backend="transport",
                                detail=f"corrupt frame (msg {msg_id})")
            self._raw_send(self._frame(_NAK, msg_id, idx, 0, b""))
            return True

        if msg_id <= self._last_delivered:
            # Whole-message retransmit of something we already ACKed
            # (our ACK crossed the sender's timeout): re-ACK, discard.
            self._raw_send(self._frame(_ACK, msg_id, 0, 0, b""))
            return True
        entry = self._partial.setdefault(msg_id, {})
        entry[idx] = payload
        if len(entry) == nchunks:
            del self._partial[msg_id]
            blob = b"".join(entry[i] for i in range(nchunks))
            self._raw_send(self._frame(_ACK, msg_id, 0, 0, b""))
            self._last_delivered = msg_id
            self._inbox.append(pickle.loads(blob))
        return True

    def _handle_nak(self, msg_id: int, idx: int) -> None:
        if self._out is None or self._out[0] != msg_id:
            return
        resend = self._nak_resends.get((msg_id, idx), 0) + 1
        self._nak_resends[(msg_id, idx)] = resend
        if resend > MAX_RETRANSMITS:
            raise self._fail(
                f"frame {idx} of message {msg_id} NAKed more than "
                f"{MAX_RETRANSMITS} times")
        if self.log is not None:
            self.log.record("nak", chunk=idx, attempt=resend,
                            backend="transport",
                            detail=f"peer {self.peer} rejected frame "
                                   f"{idx} of msg {msg_id}; resending")
        _, frames = self._out
        frame_no, _, piece = frames[idx]
        nchunks = len(frames)
        self._send_data_frame(frame_no, msg_id, idx, nchunks, piece,
                              resend)

    def poll(self, timeout: float = 0.0) -> bool:
        """Pump inbound frames for up to ``timeout``; any messages queued?"""
        deadline = time.monotonic() + timeout
        while not self._inbox:
            if not self.pump(deadline):
                break
        return bool(self._inbox)

    def recv_msg(self, timeout: float | None = None):
        """Next inbound message; blocks (``timeout=None``) or raises
        :class:`TransportError` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._inbox:
            if not self.pump(deadline):
                raise TransportError(
                    f"no message from peer {self.peer} within {timeout}s")
        return self._inbox.popleft()

    def drain(self) -> list:
        """All already-queued inbound messages (non-blocking beyond
        what is buffered on the socket)."""
        while self.pump(time.monotonic()):
            pass
        out = list(self._inbox)
        self._inbox.clear()
        return out


# -- worker process -----------------------------------------------------------


def _heartbeat_loop(chan: Channel, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            chan.send_heartbeat()
        except TransportError:  # pragma: no cover - parent went away
            return


def _apply_wire_faults(directives, *, worker_id: int, chunk: int,
                       attempt: int, chan: Channel,
                       stop_hb: threading.Event) -> None:
    """Worker-side ``stage=transport`` faults, applied on job receipt.

    ``disconnect`` severs the connection and exits (clean EOF at the
    coordinator); ``kill:stage=transport`` exits hard; a
    ``hang:stage=transport`` **suspends heartbeats first** and then
    sleeps — the frozen-machine case only heartbeat monitoring can
    detect — before exiting.
    """
    for d in directives:
        if d.kind == "disconnect":
            if d.worker is not None and d.worker != worker_id:
                continue
            if d.chunk is not None and d.chunk != chunk:
                continue
            if d.attempt is not None and d.attempt != attempt:
                continue
            stop_hb.set()
            chan.close()
            os._exit(78)
        elif d.kind in ("kill", "hang"):
            if not d.matches_chunk(chunk=chunk, attempt=attempt):
                continue
            if d.kind == "kill":
                os._exit(77)
            stop_hb.set()
            time.sleep(d.seconds)
            os._exit(79)


def transport_worker_main(address, key: bytes) -> None:
    """Entry point of one transport-backed worker process.

    Connects back to the coordinator, authenticates, starts the
    heartbeat thread, and serves messages until told to stop:

    * ``("payload", fp, arrays)`` — store in the attach-once cache;
    * ``("job", i, args)`` — resolve payload refs (shm attach or cache
      lookup; reply ``("need", i, fps)`` if the cache evicted one),
      run the chunk, reply ``("result", i, attempt, triple)``;
    * ``("stop",)`` — drain and exit.
    """
    from repro.pram.executor import (_attach_payload,
                                     _execute_shipped_chunk)
    from repro.pram.ledger import detach_ledger

    detach_ledger()
    try:
        sock = socket.create_connection(address,
                                        timeout=_HANDSHAKE_TIMEOUT)
        welcome = client_handshake(sock, key)
    except (TransportError, OSError):  # pragma: no cover - refused
        return
    worker_id = welcome["worker_id"]
    chan = Channel(sock, peer=worker_id,
                   ack_timeout=welcome.get("ack_timeout"))
    stop_hb = threading.Event()
    heartbeat_s = float(welcome.get("heartbeat_s", 0.0))
    if heartbeat_s > 0:
        threading.Thread(target=_heartbeat_loop,
                         args=(chan, heartbeat_s, stop_hb),
                         daemon=True).start()
    payloads: "OrderedDict[str, dict]" = OrderedDict()

    def resolve(ref):
        if ref is None:
            return {}
        kind, spec = ref
        if kind == "shm":
            return _attach_payload(spec)
        arrays = payloads[spec]
        payloads.move_to_end(spec)
        return arrays

    try:
        while True:
            msg = chan.recv_msg()
            tag = msg[0]
            if tag == "stop":
                break
            if tag == "payload":
                _, fp, arrays = msg
                payloads[fp] = arrays
                payloads.move_to_end(fp)
                while len(payloads) > _PAYLOAD_CACHE:
                    payloads.popitem(last=False)
                continue
            if tag != "job":  # pragma: no cover - protocol error
                continue
            _, i, args = msg
            (dispatch_ref, shared_ref, task, meta, lo, hi, seed_seq,
             bitgen_cls, want_ledger, directives, chunk, attempt) = args
            # Mirrors FaultPlan.transport_directives: kill/hang pinned
            # to the transport scope via either stage= or phase= are
            # wire faults (hang must suspend heartbeats first).
            wire = tuple(d for d in directives
                         if d.kind == "disconnect"
                         or (d.kind in ("kill", "hang")
                             and "transport" in (d.stage, d.phase)))
            rest = tuple(d for d in directives if d not in wire)
            _apply_wire_faults(wire, worker_id=worker_id, chunk=chunk,
                               attempt=attempt, chan=chan,
                               stop_hb=stop_hb)
            missing = [ref[1] for ref in (dispatch_ref, shared_ref)
                       if ref is not None and ref[0] == "tcp"
                       and ref[1] not in payloads]
            if missing:
                chan.send_msg(("need", i, tuple(missing)))
                continue

            def arrays_fn():
                # Dispatch first, shared second: the merge lets
                # dispatch keys win, and touching the shared (chain)
                # payload last keeps it MRU in the cache so eviction
                # always reclaims the previous dispatch payload.
                dispatch_arrays = resolve(dispatch_ref)
                shared_arrays = resolve(shared_ref)
                if shared_arrays:
                    return {**shared_arrays, **dispatch_arrays}
                return dispatch_arrays

            triple = _execute_shipped_chunk(
                arrays_fn, task, meta, lo, hi, seed_seq, bitgen_cls,
                want_ledger, rest, chunk, attempt)
            chan.send_msg(("result", i, attempt, triple))
    except TransportError:  # pragma: no cover - parent went away
        pass
    finally:
        stop_hb.set()
        chan.close()


# -- the lease-based pool -----------------------------------------------------


class _RemoteWorker:
    __slots__ = ("id", "proc", "chan", "lease", "lease_started",
                 "shipped")

    def __init__(self, worker_id: int, proc, chan: Channel) -> None:
        self.id = worker_id
        self.proc = proc
        self.chan = chan
        self.lease: tuple[int, int] | None = None  # (chunk, attempt)
        self.lease_started = 0.0
        self.shipped: set[str] = set()             # tcp payload fps


class TransportPool:
    """A replaceable fleet of authenticated transport workers.

    Maintains ``size`` live workers behind a loopback listener, each
    authenticated via the HMAC handshake and monitored by heartbeats.
    :meth:`run_tasks` schedules chunks under **leases**: one chunk per
    worker at a time; a worker death expires only its own lease (the
    chunk is re-queued with its attempt counter bumped) and a
    replacement worker is spawned with backoff — the pool is never
    torn down mid-round.  :meth:`ensure_capacity` performs the same
    liveness check at checkout, fixing the capacity-rot failure mode
    where a cached pool was reused with dead workers.

    Worker ids are **monotone** — a replacement gets a fresh id — so
    ``worker=N`` fault selectors cannot refire on the replacement.
    """

    def __init__(self, size: int, *, key: bytes | None = None,
                 heartbeat_s: float | None = None,
                 ack_timeout: float | None = None) -> None:
        import multiprocessing

        self.size = max(1, size)
        self.key = key if key is not None else _resolve_key()
        self.heartbeat_s = heartbeat_s if heartbeat_s is not None \
            else default_heartbeat_s()
        self.ack_timeout = ack_timeout if ack_timeout is not None \
            else default_ack_timeout()
        #: Env snapshot the pool was built under; a cached pool whose
        #: config drifted from the environment is rebuilt at checkout.
        self.config = (self.heartbeat_s, self.ack_timeout, self.key)
        method = "fork" \
            if "fork" in multiprocessing.get_all_start_methods() \
            else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self._next_id = 0
        self._deaths = 0
        self._closing = False
        self.replacements = 0
        self.workers: list[_RemoteWorker] = []
        try:
            for _ in range(self.size):
                self._spawn_worker()
        except TransportError:
            self.shutdown(terminate=True)
            raise

    # -- membership -----------------------------------------------------------

    def _spawn_worker(self, log=None) -> _RemoteWorker:
        worker_id = self._next_id
        self._next_id += 1
        proc = self._ctx.Process(
            target=transport_worker_main,
            args=(self._listener.getsockname(), self.key),
            daemon=True)
        proc.start()
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        welcome = {"worker_id": worker_id,
                   "heartbeat_s": self.heartbeat_s,
                   "ack_timeout": self.ack_timeout}
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not proc.is_alive():
                proc.terminate()
                raise TransportError(
                    f"worker {worker_id} did not complete the "
                    f"handshake within {_SPAWN_TIMEOUT}s")
            self._listener.settimeout(remaining)
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            # Reject unauthenticated connectors and keep listening for
            # the worker we actually spawned.
            if server_handshake(sock, self.key, welcome, log=log):
                break
        chan = Channel(sock, peer=worker_id, ack_timeout=self.ack_timeout)
        worker = _RemoteWorker(worker_id, proc, chan)
        self.workers.append(worker)
        return worker

    def _retire(self, worker: _RemoteWorker) -> None:
        worker.chan.close()
        try:
            worker.proc.terminate()
            worker.proc.join(timeout=1.0)
        except Exception:  # pragma: no cover
            pass
        if worker in self.workers:
            self.workers.remove(worker)

    def ensure_capacity(self, log=None) -> int:
        """Retire dead workers, top back up to ``size``; returns the
        number of replacements made (the checkout liveness check)."""
        replaced = 0
        for worker in list(self.workers):
            if worker.proc.is_alive() and not worker.chan.closed:
                continue
            self._retire(worker)
            replaced += 1
        while len(self.workers) < self.size and not self._closing:
            self._spawn_worker(log=log)
        return replaced

    def alive_pids(self) -> tuple[int, ...]:
        """PIDs of workers whose processes are still running."""
        return tuple(w.proc.pid for w in self.workers
                     if w.proc.is_alive())

    def shutdown(self, terminate: bool = False) -> None:
        """Graceful drain: stop every worker, join, terminate stragglers."""
        self._closing = True
        for worker in self.workers:
            if not terminate:
                try:
                    worker.chan.send_msg(("stop",))
                except TransportError:
                    pass
            worker.chan.close()
        for worker in self.workers:
            try:
                if terminate:
                    worker.proc.terminate()
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():  # pragma: no cover - wedged
                    worker.proc.terminate()
                    worker.proc.join(timeout=1.0)
            except Exception:  # pragma: no cover
                pass
        self.workers.clear()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass

    # -- the lease scheduler --------------------------------------------------

    def run_tasks(self, njobs: int, make_args, payload_refs, payloads,
                  *, policy=None, log=None, frame_directives=(),
                  backend_name: str = "process") -> list:
        """Run jobs ``0..njobs-1``; returns their result triples.

        ``make_args(i, attempt)`` builds the job's argument tuple;
        ``payload_refs`` are the ``("shm", spec)`` / ``("tcp", fp)``
        refs the jobs cite, and ``payloads`` maps tcp fingerprints to
        host arrays for in-band shipping (attach-once per worker).

        Lease semantics: a chunk assigned to a worker holds a lease on
        it until its result lands.  Deaths (EOF, transport failure,
        missed heartbeats, lease past the policy timeout) expire that
        lease only: the chunk re-queues with ``attempt + 1`` and a
        backoff window, the worker is replaced, and the round
        continues.  A chunk out of attempts settles as an
        :class:`~repro.errors.ExecutionError` triple, exactly like the
        in-process backends.
        """
        from repro.pram.executor import _is_transient

        max_attempts = policy.max_attempts if policy is not None else 1
        lease_timeout = policy.timeout if policy is not None else None
        now = time.monotonic()
        self.ensure_capacity(log=log)
        for worker in self.workers:
            worker.chan.directives = tuple(frame_directives)
            worker.chan.log = log
            worker.chan.last_heard = now
            worker.chan.drain()  # heartbeats buffered since last round

        results: dict[int, tuple] = {}
        queue: deque[tuple[int, int]] = deque(
            (i, 0) for i in range(njobs))
        ready_at: dict[int, float] = {}

        def settle_failure(i: int, attempt: int,
                           cause: BaseException) -> None:
            if i in results:
                return
            nxt = attempt + 1
            if nxt >= max_attempts:
                if log is not None:
                    log.record("exhausted", chunk=i, attempt=max_attempts,
                               backend=backend_name, detail=repr(cause))
                results[i] = (False, ExecutionError(
                    f"chunk {i} failed after {max_attempts} attempt(s) "
                    f"on the {backend_name} backend",
                    chunk=i, attempts=max_attempts, cause=cause), None)
            else:
                if log is not None:
                    log.record("retry", chunk=i, attempt=nxt,
                               backend=backend_name, detail=repr(cause))
                delay = policy.delay(nxt) if policy is not None else 0.0
                ready_at[i] = time.monotonic() + delay
                queue.append((i, nxt))

        def replace_dead(worker: _RemoteWorker,
                         cause: BaseException) -> None:
            if log is not None:
                log.record("worker_dead", backend=backend_name,
                           detail=f"worker {worker.id}: {cause}")
            lease = worker.lease
            self._retire(worker)
            if lease is not None:
                settle_failure(lease[0], lease[1], cause)
            if self._closing or len(self.workers) >= self.size:
                return
            # Reconnect backoff: consecutive deaths widen the pause so
            # a crash-looping environment cannot spin the spawner.
            self._deaths += 1
            time.sleep(min(1.0, 0.05 * 2 ** min(self._deaths - 1, 4)))
            replacement = self._spawn_worker(log=log)
            replacement.chan.directives = tuple(frame_directives)
            replacement.chan.log = log
            self.replacements += 1
            if log is not None:
                log.record("worker_replace", backend=backend_name,
                           detail=f"worker {worker.id} -> "
                                  f"{replacement.id}")

        def assign(worker: _RemoteWorker, i: int, attempt: int) -> None:
            worker.lease = (i, attempt)
            worker.lease_started = time.monotonic()
            for ref in payload_refs:
                if ref is not None and ref[0] == "tcp" \
                        and ref[1] not in worker.shipped:
                    worker.chan.send_msg(("payload", ref[1],
                                          payloads[ref[1]]))
                    worker.shipped.add(ref[1])
            worker.chan.send_msg(("job", i, make_args(i, attempt)))

        def handle(worker: _RemoteWorker, msg) -> None:
            tag = msg[0]
            if tag == "result":
                _, i, attempt, triple = msg
                if worker.lease is not None and worker.lease[0] == i:
                    worker.lease = None
                ok, val, _ = triple
                if ok or not _is_transient(val):
                    results[i] = triple
                else:
                    settle_failure(i, attempt, val)
            elif tag == "need":
                # The worker's payload cache evicted something the job
                # cites: re-ship and re-send the job, same attempt.
                _, i, fps = msg
                for fp in fps:
                    worker.chan.send_msg(("payload", fp, payloads[fp]))
                    worker.shipped.add(fp)
                if worker.lease is not None and worker.lease[0] == i:
                    worker.lease_started = time.monotonic()
                    worker.chan.send_msg(
                        ("job", i, make_args(i, worker.lease[1])))

        while len(results) < njobs:
            now = time.monotonic()
            # 1. reap: proc death, closed channel, missed heartbeats,
            #    expired lease.
            for worker in list(self.workers):
                cause: BaseException | None = None
                if not worker.proc.is_alive() or worker.chan.closed:
                    cause = TransportError(
                        f"worker {worker.id} connection lost")
                elif self.heartbeat_s > 0 and now - worker.chan.last_heard \
                        > HEARTBEAT_MISS_FACTOR * self.heartbeat_s:
                    # A long serial stretch (e.g. shipping big tcp
                    # payloads to other workers) can leave this
                    # worker's heartbeats unread in the kernel buffer.
                    # Sweep the socket before declaring death; frames
                    # pumped here land in the inbox and are delivered
                    # by the drain step below.
                    try:
                        while worker.chan.pump(now):
                            pass
                    except TransportError as exc:
                        cause = exc
                    if cause is None and (time.monotonic()
                                          - worker.chan.last_heard) \
                            > HEARTBEAT_MISS_FACTOR * self.heartbeat_s:
                        cause = TransportError(
                            f"worker {worker.id} missed "
                            f"{HEARTBEAT_MISS_FACTOR} heartbeats")
                elif lease_timeout is not None and worker.lease is not None \
                        and now - worker.lease_started > lease_timeout:
                    cause = TimeoutError(
                        f"chunk {worker.lease[0]} lease expired after "
                        f"{lease_timeout}s (stalled worker "
                        f"{worker.id})")
                    if log is not None:
                        log.record("timeout", chunk=worker.lease[0],
                                   backend=backend_name,
                                   detail=str(cause))
                if cause is not None:
                    replace_dead(worker, cause)
            if not self.workers:
                self.ensure_capacity(log=log)

            # 2. assign eligible queued chunks to idle workers.
            idle = [w for w in self.workers if w.lease is None]
            for _ in range(len(queue)):
                if not idle:
                    break
                i, attempt = queue.popleft()
                if i in results:
                    continue
                if ready_at.get(i, 0.0) > now:
                    queue.append((i, attempt))
                    continue
                worker = idle.pop()
                try:
                    assign(worker, i, attempt)
                except TransportError as exc:
                    replace_dead(worker, exc)
            if len(results) >= njobs:
                break

            # 3. deliver buffered traffic (userspace and kernel) from
            #    every worker without blocking.  A send_msg ACK wait
            #    can pull a worker's result into Channel._rbuf
            #    alongside the ACK; the sweep also keeps last_heard
            #    fresh for workers whose heartbeats arrived while the
            #    loop was busy elsewhere.
            delivered = False
            for worker in list(self.workers):
                if worker.chan.closed:
                    continue
                try:
                    msgs = worker.chan.drain()
                except TransportError as exc:
                    replace_dead(worker, exc)
                    continue
                if msgs:
                    delivered = True
                for msg in msgs:
                    try:
                        handle(worker, msg)
                    except TransportError as exc:
                        replace_dead(worker, exc)
                        break
            if delivered:
                # New results may free workers or finish the round;
                # re-run reap/assign before blocking in select.
                continue

            # 4. wait for kernel traffic (results, needs, heartbeats).
            socks = {w.chan.sock: w for w in self.workers
                     if not w.chan.closed}
            waits = [0.25]
            if self.heartbeat_s > 0:
                waits.append(self.heartbeat_s / 2.0)
            if lease_timeout is not None:
                waits.append(lease_timeout / 4.0)
            pending_backoff = [t - now for t in ready_at.values()
                               if t > now]
            if pending_backoff:
                waits.append(max(min(pending_backoff), 0.005))
            timeout = max(min(waits), 0.005)
            if not socks:
                continue
            try:
                readable, _, _ = select.select(list(socks), [], [],
                                               timeout)
            except OSError:  # pragma: no cover - racing retirement
                continue
            for sock in readable:
                worker = socks[sock]
                try:
                    worker.chan.pump(time.monotonic() + 0.5)
                except TransportError as exc:
                    replace_dead(worker, exc)
                    continue
                for msg in worker.chan.drain():
                    try:
                        handle(worker, msg)
                    except TransportError as exc:
                        replace_dead(worker, exc)
                        break
        self._deaths = 0
        return [results[i] for i in range(njobs)]
