"""The open-loop generator: one thread, one selector, raw framed sockets.

Every stream fires on a fixed schedule whatever the daemons do, and every
operation is timed from the moment it was *due*, so a stall in a daemon
(or in this loop) shows as latency instead of as fewer requests.  Frames
are the serve plane's own wire format, built with ``repro.serve.protocol``
and pre-encoded where the content is known in advance; replies are parsed
straight out of the socket buffer.  Each connection gets replies in
request order (the server executes one connection's frames in sequence),
so a FIFO of pending handlers pairs them up, and the correlation id is
checked on top.

Per daemon the generator opens at most two connections: ``ctl`` (JSON
INFO and horizon polls, binary usage reports) and ``lk`` (binary
lookups).  Reports and their INFO share ``ctl`` on purpose: the server
runs them in order, so the clock INFO returns was read after the reports
were enqueued.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.serve.protocol import (BIN_FS_REPLY, BIN_HEADER, BIN_REP_MAGIC,
                                  BST_OK, HEADER, bin_get_fairshare_by_name,
                                  bin_ping, bin_report_usage, encode_frame)

from stats import HorizonMatcher, Probe

_READ = 1 << 16

#: a probe not visible at its observer within this many seconds fails
PROBE_DEADLINE_S = 5.0

#: replies later than this fail; so do requests still unanswered this
#: long after the load stops
REPLY_DEADLINE_S = 5.0

#: every observer is polled at least this often; any user's reply carries
#: the horizons, so the polls ask about one fixed user
POLL_S = 0.01
POLL_USER = "u0"

#: binary PING round trips timed after a traced window
PINGS = 500

#: the closed-loop capacity phase: requests kept in flight, and bursts of
#: one refresh period each, timed on their own; with 128 in flight the
#: server idled a fifth of each burst waiting for the generator's next
#: batch, with 1024 it is busy throughout
CAPACITY_DEPTH = 1024
CAPACITY_BURSTS = 2
BURST_S = 0.5


def wall_offset() -> float:
    """``time.time() - time.perf_counter()``, the tightest of a few reads."""
    best = None
    for _ in range(5):
        a = time.perf_counter()
        w = time.time()
        b = time.perf_counter()
        if best is None or b - a < best[0]:
            best = (b - a, w - (a + b) / 2.0)
    return best[1]


class Conn:
    """A non-blocking client connection with a FIFO of reply handlers."""

    def __init__(self, site: str, host: str, port: int):
        self.site = site
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.buf = bytearray()
        #: (handler, context, due time) per request awaiting its reply;
        #: due is None for requests no window counts
        self.pending: Deque[Tuple[Callable, object, Optional[float]]] = \
            deque()
        self.rid = 0

    def next_rid(self) -> int:
        self.rid = (self.rid + 1) & 0x7FFFFFFF
        return self.rid

    def send(self, frame: bytes, handler: Callable, ctx: object,
             due: Optional[float]) -> None:
        self.out += frame
        self.pending.append((handler, ctx, due))

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def receive(self, now: float) -> None:
        try:
            chunk = self.sock.recv(_READ)
        except BlockingIOError:
            return
        if not chunk:
            raise ConnectionError(f"{self.site}: server closed the connection")
        buf = self.buf
        buf += chunk
        pos, end = 0, len(buf)
        while end - pos >= 4:
            if buf[pos] == BIN_REP_MAGIC:
                if end - pos < BIN_HEADER.size:
                    break
                _, status, _, rid, body_len = BIN_HEADER.unpack_from(buf, pos)
                stop = pos + BIN_HEADER.size + body_len
                if stop > end:
                    break
                reply = (status, rid, bytes(buf[pos + BIN_HEADER.size:stop]))
            else:
                (length,) = HEADER.unpack_from(buf, pos)
                stop = pos + HEADER.size + length
                if stop > end:
                    break
                reply = json.loads(bytes(buf[pos + HEADER.size:stop]))
            pos = stop
            handler, ctx, _due = self.pending.popleft()
            handler(ctx, reply, now)
        del buf[:pos]

    def close(self) -> None:
        self.sock.close()


class Stream:
    """A fixed-rate schedule; ``fire`` runs once per due slot."""

    def __init__(self, interval: float):
        self.interval = interval
        self.next_due = float("inf")
        self.active = False

    def start(self, t0: float) -> None:
        self.next_due = t0
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.next_due = float("inf")

    def fire(self, due: float, now: float) -> None:
        raise NotImplementedError


class Window:
    """Which due times count, and the samples the window collected."""

    def __init__(self, t0: float, t1: float) -> None:
        self.t0 = t0
        self.t1 = t1
        self.late: List[float] = []
        #: site -> open-loop lookup latencies, seconds from due time
        self.lookup_lat: Dict[str, List[float]] = {}
        self.delays: List[float] = []
        self.ops_sent = 0
        self.attempted = 0
        self.failed = 0
        self.bad_values = 0
        #: landed probes as (origin, observer, v, due, t_land)
        self.landed: List[Tuple[str, str, float, float, float, float]] = []
        #: (origin, due, user, duration) of every report accepted
        self.accepted_jobs: List[Tuple[str, float, str, float]] = []
        #: (origin, reply time, engine clock) of every INFO answered
        self.clock_reads: List[Tuple[str, float, float]] = []
        #: site -> METRICS text at the window's edges
        self.metrics_at_start: Dict[str, str] = {}
        self.metrics_at_end: Dict[str, str] = {}


class LookupStream(Stream):
    """Open-loop binary GET_FAIRSHARE by name over pre-encoded frames."""

    def __init__(self, gen: "Generator", conn: Conn, users: Sequence[str],
                 rate: float):
        super().__init__(1.0 / rate)
        self.gen = gen
        self.conn = conn
        self.frames = [bin_get_fairshare_by_name(i & 0x7FFFFFFF, u)
                       for i, u in enumerate(users)]
        self.i = 0

    def fire(self, due: float, now: float) -> None:
        frame = self.frames[self.i % len(self.frames)]
        self.conn.send(frame, self.gen.on_lookup,
                       (due, (self.i % len(self.frames)) & 0x7FFFFFFF,
                        self.conn.site), due)
        self.i += 1
        self.gen.count_send(due, now)


class ReportSlot:
    __slots__ = ("origin", "due", "user", "duration", "accepted")

    def __init__(self, origin: str, due: float, user: str, duration: float):
        self.origin = origin
        self.due = due
        self.user = user
        self.duration = duration
        self.accepted = False


class ReportStream(Stream):
    """Open-loop usage reports to one origin, each followed by an INFO.

    One report per send slot, so every probe has its own due time and
    clock read: probes of one slot would be copies of one sample.
    """

    def __init__(self, gen: "Generator", conn: Conn, rate: float,
                 jobs: Sequence[Tuple[str, float]]):
        super().__init__(1.0 / rate)
        self.gen = gen
        self.conn = conn
        self.jobs = jobs
        self.i = 0

    def fire(self, due: float, now: float) -> None:
        conn = self.conn
        end = self.gen.origin_clock(conn.site, now)
        user, duration = self.jobs[self.i % len(self.jobs)]
        self.i += 1
        slot = ReportSlot(conn.site, due, user, duration)
        conn.send(bin_report_usage(conn.next_rid(), user, end - duration,
                                   end, 1), self.gen.on_report, slot, due)
        conn.send(encode_frame({"v": 1, "id": conn.next_rid(),
                                "op": "INFO"}), self.gen.on_info, slot, due)
        self.gen.count_send(due, now)
        self.gen.open_slots += 1


class PollStream(Stream):
    """GET_FAIRSHARE + horizons on one observer, at least every POLL_S."""

    def __init__(self, gen: "Generator", conn: Conn):
        super().__init__(POLL_S)
        self.gen = gen
        self.conn = conn
        self.outstanding = False
        self.deferred = False

    def fire(self, due: float, now: float) -> None:
        if self.outstanding:
            self.deferred = True  # send the moment the current one lands
            return
        self.send(now)

    def send(self, now: float) -> None:
        self.outstanding = True
        self.deferred = False
        rid = self.conn.next_rid()
        self.conn.send(encode_frame({"v": 1, "id": rid, "op": "GET_FAIRSHARE",
                                     "user": POLL_USER, "horizons": True}),
                       self.gen.on_poll, (self, now), now)


class Generator:
    """Runs the streams on one selector loop and keeps the samples."""

    def __init__(self, observers: Dict[str, List[str]]):
        self.sel = selectors.DefaultSelector()
        self.conns: List[Conn] = []
        self.streams: List[Stream] = []
        #: origin -> the sites that poll for its reports
        self.observers = observers
        self.matcher = HorizonMatcher()
        #: measurement windows; a sample counts in the one holding its due
        #: time, whenever its reply arrives
        self.windows: List[Window] = []
        #: the window the run reports, and (traced runs) the untraced
        #: windows around it
        self.measured: Optional[Window] = None
        self.baseline: List[Window] = []
        self.clocks: Dict[str, Tuple[float, float]] = {}
        self.accepted: Dict[str, int] = {}
        self.reported_users: set = set()
        self.open_slots = 0
        self.errors: List[str] = []
        #: benchmark spans are kept only inside a traced window
        self.record_spans = False
        self.spans: List[dict] = []
        self.offset = wall_offset()
        #: (daemon cores, generator cores, machine steal share) over the
        #: measured window
        self.utilization = (0.0, 0.0, 0.0)
        #: largest priority difference between sites after quiesce
        self.value_spread = 0.0
        #: threads in this process, sampled mid-window
        self.threads = 0

    # -- wiring ---------------------------------------------------------------

    def connect(self, site: str, host: str, port: int) -> Conn:
        conn = Conn(site, host, port)
        self.conns.append(conn)
        self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def add(self, stream: Stream) -> Stream:
        self.streams.append(stream)
        return stream

    def set_clock(self, site: str, v: float, at: float) -> None:
        self.clocks[site] = (at, v)

    def origin_clock(self, site: str, now: float) -> float:
        at, v = self.clocks[site]
        return v + (now - at)

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.close()
        self.conns.clear()
        self.sel.close()

    # -- the loop ---------------------------------------------------------------

    def run(self, until: float, done: Optional[Callable[[], bool]] = None
            ) -> None:
        perf = time.perf_counter
        while True:
            now = perf()
            if now >= until or (done is not None and done()):
                return
            nxt = until
            for stream in self.streams:
                if not stream.active:
                    continue
                while stream.next_due <= now:
                    due = stream.next_due
                    stream.next_due = due + stream.interval
                    stream.fire(due, now)
                if stream.next_due < nxt:
                    nxt = stream.next_due
            for conn in self.conns:
                if conn.out:
                    conn.flush()
                    if conn.out:
                        self.sel.modify(conn.sock, selectors.EVENT_READ
                                        | selectors.EVENT_WRITE, conn)
            for key, events in self.sel.select(max(0.0, nxt - perf())):
                conn = key.data
                if events & selectors.EVENT_WRITE:
                    conn.flush()
                    if not conn.out:
                        self.sel.modify(conn.sock, selectors.EVENT_READ, conn)
                if events & selectors.EVENT_READ:
                    conn.receive(perf())

    def window(self, due: float) -> Optional[Window]:
        for window in self.windows:
            if window.t0 <= due < window.t1:
                return window
        return None

    def count_send(self, due: float, now: float) -> None:
        window = self.window(due)
        if window is not None:
            window.late.append(now - due)
            window.ops_sent += 1

    def tally(self, due: Optional[float], ok: bool) -> Optional[Window]:
        """Count one answered (or abandoned) operation in its window."""
        window = self.window(due) if due is not None else None
        if window is not None:
            window.attempted += 1
            if not ok:
                window.failed += 1
        return window

    def scrape(self, into: Dict[str, str]) -> None:
        """Queue a METRICS scrape of every site, stored by site in ``into``."""
        seen = set()
        for conn in self.conns:
            if conn.site not in seen:
                seen.add(conn.site)
                conn.send(encode_frame({"v": 1, "id": conn.next_rid(),
                                        "op": "METRICS"}),
                          self.on_scrape, (into, conn.site), None)

    def on_scrape(self, ctx, reply, now: float) -> None:
        """A failed scrape leaves its site out of ``into``, which the
        traced run's checks refuse."""
        into, site = ctx
        if reply.get("ok"):
            into[site] = reply["text"]
        else:
            self.errors.append(f"METRICS at {site}: {reply.get('error')}")

    def span(self, name: str, start: float, end: float, **args) -> None:
        if self.record_spans:
            self.spans.append({"name": name, "ph": "X",
                               "ts": (start + self.offset) * 1e6,
                               "dur": (end - start) * 1e6, "pid": 0,
                               "args": args})

    # -- reply handlers -----------------------------------------------------------

    def on_lookup(self, ctx, reply, now: float) -> None:
        due, rid, site = ctx
        status, got_rid, body = reply
        ok = status == BST_OK and got_rid == rid \
            and len(body) == BIN_FS_REPLY.size
        if ok:
            value, known, _seq, _gen, _leaf = BIN_FS_REPLY.unpack(body)
            ok = bool(known) and 0.0 <= value <= 1.0
            if not ok:
                window = self.window(due)
                if window is not None:
                    window.bad_values += 1
                self.errors.append(f"lookup rid {rid}: value {value} "
                                   f"known {known}")
        else:
            self.errors.append(f"lookup at {site}: status {status} "
                               f"{body[:80].decode('utf-8', 'replace')}")
        ok = ok and now - due <= REPLY_DEADLINE_S
        window = self.tally(due, ok)
        if ok and window is not None:
            window.lookup_lat.setdefault(site, []).append(now - due)

    def on_report(self, slot: ReportSlot, reply, now: float) -> None:
        status, _rid, body = reply
        slot.accepted = status == BST_OK and body == b"\x01"
        window = self.tally(slot.due, slot.accepted)
        if not slot.accepted:
            self.errors.append(f"report to {slot.origin}: status {status}")
            return
        self.accepted[slot.origin] = self.accepted.get(slot.origin, 0) + 1
        if window is not None:
            window.accepted_jobs.append((slot.origin, slot.due, slot.user,
                                         slot.duration))

    def on_info(self, slot: ReportSlot, reply, now: float) -> None:
        """Read the origin's clock; an accepted report becomes a probe
        at every observer.  A failed INFO fails, and its report makes no
        probe."""
        self.open_slots -= 1
        self.tally(slot.due, bool(reply.get("ok")))
        if not reply.get("ok"):
            self.errors.append(f"INFO at {slot.origin}: {reply.get('error')}")
            return
        v = float(reply["info"]["time"])
        self.set_clock(slot.origin, v, now)
        window = self.window(slot.due)
        if window is not None:
            window.clock_reads.append((slot.origin, now, v))
        self.span("gen.report", slot.due, now, origin=slot.origin, v=v)
        if slot.accepted:
            self.reported_users.add(slot.user)
            for observer in self.observers.get(slot.origin, ()):
                self.matcher.add(Probe(slot.origin, observer, v, slot.due))

    def on_poll(self, ctx, reply, now: float) -> None:
        stream, sent = ctx
        stream.outstanding = False
        self.tally(sent, bool(reply.get("ok")))
        if not reply.get("ok"):
            self.errors.append(f"poll at {stream.conn.site}: "
                               f"{reply.get('error')}")
        else:
            observer = stream.conn.site
            self.span("gen.poll", sent, now, site=observer)
            for probe in self.matcher.observe(observer, reply["horizons"]):
                self.land(probe, now)
        if stream.deferred and stream.active:
            stream.send(now)

    def land(self, probe: Probe, now: float) -> None:
        delay = now - probe.due
        window = self.tally(probe.due, delay <= PROBE_DEADLINE_S)
        if window is None or delay > PROBE_DEADLINE_S:
            return
        window.delays.append(delay)
        window.landed.append((probe.origin, probe.observer, probe.v, probe.due,
                              now))
        self.span("gen.probe", probe.due, now, origin=probe.origin,
                  observer=probe.observer, v=probe.v)

    def expire(self) -> None:
        """Count every probe still waiting and every request still
        unanswered as attempted and failed (their deadlines passed)."""
        for probe in self.matcher.drain():
            self.tally(probe.due, False)
        for conn in self.conns:
            for _handler, _ctx, due in conn.pending:
                self.tally(due, False)
            conn.pending.clear()


# -- closed-loop helpers (blocking sockets) ------------------------------------

def _read_bin_replies(sock: socket.socket, buf: bytearray, want: int,
                      sink: Callable[[int, int, bytes], None]) -> int:
    """Read until at least ``want`` binary replies went to ``sink``.

    Returns how many were parsed, which can exceed ``want`` when one read
    brought more.
    """
    got = 0
    while got < want:
        chunk = sock.recv(_READ)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
        pos, end = 0, len(buf)
        while end - pos >= BIN_HEADER.size:
            _, status, _, rid, body_len = BIN_HEADER.unpack_from(buf, pos)
            stop = pos + BIN_HEADER.size + body_len
            if stop > end:
                break
            sink(status, rid, bytes(buf[pos + BIN_HEADER.size:stop]))
            pos = stop
            got += 1
        del buf[:pos]
    return got


class CapacityResult:
    """What one closed-loop capacity phase saw."""

    def __init__(self) -> None:
        self.rates: List[float] = []      #: req/s of each burst
        self.replies = 0
        #: error replies (the server refused or failed the request)
        self.refused: List[str] = []
        #: OK replies that were wrong: unknown user or value outside [0, 1]
        self.wrong = 0


def capacity(host: str, port: int, users: Sequence[str]) -> CapacityResult:
    """Closed-loop pipelined lookups on one connection.

    ``CAPACITY_DEPTH`` requests stay in flight: every reply read is
    answered with one new pre-encoded frame.  ``CAPACITY_BURSTS`` bursts
    of ``BURST_S`` each are timed on their own.
    """
    frames = [bin_get_fairshare_by_name(i, u) for i, u in enumerate(users)]
    result = CapacityResult()

    def sink(status: int, _rid: int, body: bytes) -> None:
        result.replies += 1
        if status != BST_OK:
            result.refused.append(
                f"status {status} {body[:80].decode('utf-8', 'replace')}")
            return
        value, known = BIN_FS_REPLY.unpack(body)[:2]
        if not known or not 0.0 <= value <= 1.0:
            result.wrong += 1

    def batch(start: int, count: int) -> bytes:
        return b"".join(frames[(start + j) % len(frames)]
                        for j in range(count))

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        sock.sendall(batch(0, CAPACITY_DEPTH))
        sent = CAPACITY_DEPTH
        done = 0
        for _ in range(CAPACITY_BURSTS):
            start_done = done
            t0 = time.perf_counter()
            t_end = t0 + BURST_S
            while time.perf_counter() < t_end:
                got = _read_bin_replies(sock, buf, 1, sink)
                done += got
                sock.sendall(batch(sent, got))
                sent += got
            result.rates.append((done - start_done)
                                / (time.perf_counter() - t0))
        _read_bin_replies(sock, buf, sent - done, sink)
    return result


def ping_rtts(host: str, port: int) -> List[float]:
    """``PINGS`` sequential binary PING round trips, in seconds."""
    out: List[float] = []
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        for i in range(PINGS):
            t0 = time.perf_counter()
            sock.sendall(bin_ping(i))
            _read_bin_replies(sock, buf, 1, lambda *_: None)
            out.append(time.perf_counter() - t0)
    return out


def lookup_values(host: str, port: int, users: Sequence[str]
                  ) -> Dict[str, Tuple[float, int]]:
    """Pipelined by-name lookups: user -> (value, known)."""
    out: Dict[str, Tuple[float, int]] = {}
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        for at in range(0, len(users), 256):
            chunk = list(users[at:at + 256])
            sock.sendall(b"".join(bin_get_fairshare_by_name(at + j, u)
                                  for j, u in enumerate(chunk)))

            def sink(status: int, rid: int, body: bytes) -> None:
                user = users[rid]
                if status != BST_OK:
                    out[user] = (float("nan"), 0)
                else:
                    value, known = BIN_FS_REPLY.unpack(body)[:2]
                    out[user] = (value, known)
            _read_bin_replies(sock, buf, len(chunk), sink)
    return out


def json_call(host: str, port: int, op: str) -> dict:
    """One blocking JSON request/reply (INFO, PING, TRACE_EXPORT).

    ``SyncAequusClient`` would do, but it runs a loop thread per client,
    and the generator process keeps to one thread.
    """
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(encode_frame({"v": 1, "id": 1, "op": op}))
        buf = bytearray()
        while True:
            if len(buf) >= HEADER.size:
                (length,) = HEADER.unpack_from(buf, 0)
                if len(buf) >= HEADER.size + length:
                    return json.loads(bytes(buf[HEADER.size:
                                                HEADER.size + length]))
            chunk = sock.recv(_READ)
            if not chunk:
                raise ConnectionError(f"{op}: server closed the connection")
            buf += chunk


__all__ = ["Conn", "Generator", "LookupStream", "ReportStream", "PollStream",
           "capacity", "ping_rtts", "lookup_values", "json_call",
           "wall_offset", "PROBE_DEADLINE_S"]
