//! The server's connection engine: readiness event loops (the C10k path).
//!
//! Instead of parking one thread per connection, a fixed set of event
//! loops multiplexes *every* connection over a level-triggered readiness
//! poller (the vendored `polling` shim: epoll on Linux, poll(2) on other
//! unix hosts). Loop 0 owns the non-blocking listener and deals accepted
//! sockets round-robin across all loops through small hand-off inboxes
//! (woken by [`polling::Poller::notify`]); each loop then owns its
//! connections outright — no cross-loop locking on the hot path.
//!
//! Per connection the loop drives a small state machine:
//!
//! ```text
//!            Hello ok                    query frame
//! Handshake ─────────▶ Open ──────────────────────────▶ Settling
//!     │                 │  ▲                               │
//!     │ bad Hello       │  └── reply flushed ◀─────────────┘ frontier verdict
//!     ▼                 ▼ protocol violation
//!  Closing ◀────────────┘   (flush the Reject, then close)
//! ```
//!
//! Reads feed the incremental [`FrameAssembler`] — a peer's claimed frame
//! length never allocates ahead of its bytes, so a slow-loris drip holds
//! only what it has sent. Replies are strictly one-at-a-time: while a
//! reply is buffered (or a query is settling) the connection's read
//! interest is off, so a pipelining peer is throttled by its own socket
//! buffer — the kernel provides the backpressure, the server buffers at
//! most one reply. Queries cannot block the loop: they park the
//! connection in `Settling` and the loop re-polls the fold frontier
//! ([`crate::queue::IngestQueue::poll_processed`]) at a short tick while
//! any settle is pending — the watermark was captured at
//! frame-processing time, so linearization (and bit-identity with the
//! batch pipeline) is untouched.
//!
//! Idle peers are reaped: a connection that completes no frame within the
//! configured idle timeout is closed on the next sweep, whether it is
//! silent or dripping bytes one poll at a time. Protocol logic lives in
//! [`crate::conn`], free of any socket.

use crate::conn::{self, FrameAction, PendingQuery};
use crate::frame::{Frame, FrameAssembler};
use crate::server::{EventLoops, Shared};
use polling::{Event, Poller};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poller key of loop 0's listener; connection keys start above it.
const KEY_LISTENER: usize = 0;
/// Read chunk size — also the per-read growth quantum of a connection's
/// buffered frame bytes.
const READ_CHUNK: usize = 8 << 10;
/// Reads taken from one connection per readiness event before yielding to
/// the other connections on the loop (level-triggered: a still-readable
/// socket fires again on the next wait).
const MAX_READS_PER_EVENT: usize = 32;
/// Default wait bound: an idle loop wakes at least this often to sweep
/// idle deadlines.
const IDLE_TICK: Duration = Duration::from_millis(200);
/// Wait bound while any query is settling — the fold frontier is polled
/// at this tick.
const SETTLE_TICK: Duration = Duration::from_millis(1);

/// Connection phase (see the module-level diagram).
enum Phase {
    /// Awaiting the Hello frame.
    Handshake,
    /// Negotiated; serving the frame loop.
    Open,
    /// A query awaits the fold frontier's verdict.
    Settling(PendingQuery),
    /// Flush the buffered reply, then close.
    Closing,
}

/// One multiplexed connection owned by an event loop.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// The (single) buffered reply, partially flushed up to `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// The tenant this connection bound to at handshake (index into the
    /// shared registry; 0 — the default tenant — until the Hello lands).
    tenant: usize,
    /// Reap deadline; refreshed each time a complete frame is processed.
    deadline: Option<Instant>,
    /// Interest currently registered with the poller, to skip redundant
    /// `modify` syscalls.
    interest: (bool, bool),
}

impl Conn {
    /// Queues `reply` as the connection's outgoing buffer (one reply at a
    /// time by construction: callers only queue while `out` is empty).
    fn queue_reply(&mut self, reply: &Frame) {
        debug_assert!(self.out.is_empty(), "one reply at a time");
        self.out = conn::encode_reply(reply);
        self.out_pos = 0;
    }

    /// Refreshes the idle deadline (a complete frame arrived).
    fn touch(&mut self, idle: Option<Duration>) {
        self.deadline = idle.map(|d| Instant::now() + d);
    }

    /// Flushes the outgoing buffer as far as the socket allows. `Ok(true)`
    /// when drained, `Ok(false)` when the socket is full (arm write
    /// interest), `Err` when the connection is dead.
    fn flush_out(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

/// Everything one event loop needs.
struct LoopCtx {
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    /// Sockets handed to this loop by loop 0's acceptor.
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    /// Loop 0 only: the non-blocking listener.
    listener: Option<TcpListener>,
    /// All loops' pollers/inboxes, for round-robin accept hand-off.
    peer_pollers: Vec<Arc<Poller>>,
    peer_inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    index: usize,
    idle_timeout: Option<Duration>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Spawns `loops` event-loop threads serving `listener` and returns one
/// poller per loop (`notify` them all to make the loops observe the stop
/// flag) with the threads to join. The listener is switched to
/// non-blocking and owned by loop 0.
///
/// # Errors
/// Poller construction failure.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
    loops: usize,
    idle_timeout: Option<Duration>,
) -> std::io::Result<EventLoops> {
    listener.set_nonblocking(true)?;
    let mut pollers = Vec::with_capacity(loops);
    let mut inboxes = Vec::with_capacity(loops);
    for _ in 0..loops {
        pollers.push(Arc::new(Poller::new()?));
        inboxes.push(Arc::new(Mutex::new(Vec::new())));
    }
    let mut threads = Vec::with_capacity(loops);
    let mut listener = Some(listener);
    for index in 0..loops {
        let ctx = LoopCtx {
            shared: Arc::clone(&shared),
            poller: Arc::clone(&pollers[index]),
            inbox: Arc::clone(&inboxes[index]),
            listener: if index == 0 { listener.take() } else { None },
            peer_pollers: pollers.clone(),
            peer_inboxes: inboxes.clone(),
            index,
            idle_timeout,
        };
        threads.push(std::thread::spawn(move || event_loop(ctx)));
    }
    Ok((pollers, threads))
}

fn event_loop(ctx: LoopCtx) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    // Key 0 is the listener; connection keys are never reused (a u64-ish
    // counter — reuse could misroute a stale readiness event).
    let mut next_key = KEY_LISTENER + 1;
    let mut rr = 0usize;
    let mut events = Vec::new();
    if let Some(listener) = &ctx.listener {
        if ctx
            .poller
            .add(listener.as_raw_fd(), Event::readable(KEY_LISTENER))
            .is_err()
        {
            return; // nothing can ever be accepted
        }
    }
    loop {
        if ctx.shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let timeout = wait_timeout(&conns);
        events.clear();
        if ctx.poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        if ctx.shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Adopt connections handed off by the accepting loop.
        let handoff = std::mem::take(&mut *lock(&ctx.inbox));
        for stream in handoff {
            register_conn(&ctx, &mut conns, &mut next_key, stream);
        }
        for i in 0..events.len() {
            let ev = events[i];
            if ev.key == KEY_LISTENER {
                accept_ready(&ctx, &mut conns, &mut next_key, &mut rr);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue; // closed earlier this iteration
            };
            let mut alive = true;
            if ev.readable && alive {
                alive = on_readable(conn, &ctx.shared, ctx.idle_timeout);
            }
            if ev.writable && alive {
                alive = on_writable(conn, &ctx.shared, ctx.idle_timeout);
            }
            finish_event(&ctx.poller, &mut conns, ev.key, alive);
        }
        tick_settling(&ctx, &mut conns);
        reap_idle(&ctx, &mut conns);
    }
    // Shutdown: close every owned connection (and any not-yet-adopted
    // hand-offs), then exit; `ReportServer::shutdown` joins us.
    for (_, conn) in conns.drain() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    for stream in std::mem::take(&mut *lock(&ctx.inbox)) {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// How long the next `wait` may block: the settle tick while any query is
/// pending, otherwise the idle-sweep tick (hand-offs and shutdown wake
/// the poller explicitly, so the bound is a safety net, not a latency).
fn wait_timeout(conns: &HashMap<usize, Conn>) -> Duration {
    if conns
        .values()
        .any(|c| matches!(c.phase, Phase::Settling(_)))
    {
        SETTLE_TICK
    } else {
        IDLE_TICK
    }
}

/// Drains the listener's accept backlog, dealing connections round-robin
/// across all loops. Never blocks: the listener is non-blocking, and a
/// hand-off is a vec push + notify.
fn accept_ready(
    ctx: &LoopCtx,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    rr: &mut usize,
) {
    let Some(listener) = &ctx.listener else {
        return;
    };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let target = *rr % ctx.peer_inboxes.len();
                *rr += 1;
                if target == ctx.index {
                    register_conn(ctx, conns, next_key, stream);
                } else {
                    lock(&ctx.peer_inboxes[target]).push(stream);
                    let _ = ctx.peer_pollers[target].notify();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return, // transient accept error; backlog retried on the next event
        }
    }
}

/// Takes ownership of an accepted socket: non-blocking, nodelay, fresh
/// state machine, read interest. A socket that cannot be registered is
/// dropped (closed) outright.
fn register_conn(
    ctx: &LoopCtx,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let key = *next_key;
    *next_key += 1;
    if ctx
        .poller
        .add(stream.as_raw_fd(), Event::readable(key))
        .is_err()
    {
        return;
    }
    let mut conn = Conn {
        stream,
        asm: FrameAssembler::new(),
        out: Vec::new(),
        out_pos: 0,
        phase: Phase::Handshake,
        tenant: 0,
        deadline: None,
        interest: (true, false),
    };
    conn.touch(ctx.idle_timeout);
    conns.insert(key, conn);
}

/// Reads as much as fairness allows, feeding the assembler and processing
/// completed frames. Returns `false` when the connection must close now.
fn on_readable(conn: &mut Conn, shared: &Shared, idle: Option<Duration>) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    for _ in 0..MAX_READS_PER_EVENT {
        // One reply at a time: stop consuming input while a reply is
        // buffered or a query is settling (read interest is off then;
        // this also catches the transition mid-event).
        if !conn.out.is_empty() || !matches!(conn.phase, Phase::Handshake | Phase::Open) {
            return true;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // EOF. At a frame boundary it is a clean close; inside a
                // frame it is the typed truncation, answered like any
                // protocol violation (the peer may have only half-closed).
                return match conn.asm.eof_truncation() {
                    None => false,
                    Some(e) => {
                        protocol_violation(conn, &e.to_string());
                        true
                    }
                };
            }
            Ok(n) => {
                if let Err(e) = conn.asm.feed(&buf[..n]) {
                    protocol_violation(conn, &e.to_string());
                    return true;
                }
                shared.note_buffered(conn.asm.buffered_bytes());
                if !process_ready(conn, shared, idle) {
                    return false;
                }
                if n < buf.len() {
                    return true; // socket drained (TCP short read)
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Queues the typed `Reject` for a protocol violation and moves to
/// `Closing`: reply, then close. The message is prefixed `handshake:`
/// before the `HelloAck` and `bad frame:` after it.
fn protocol_violation(conn: &mut Conn, detail: &str) {
    let message = match conn.phase {
        Phase::Handshake => format!("handshake: {detail}"),
        _ => format!("bad frame: {detail}"),
    };
    conn.queue_reply(&Frame::Reject {
        accepted: 0,
        message,
    });
    conn.phase = Phase::Closing;
}

/// Applies completed frames while the connection can reply (out buffer
/// empty, not settling). Each reply is flushed eagerly — most complete in
/// one write and the loop moves straight to the next pipelined frame.
/// Returns `false` when the connection must close now.
fn process_ready(conn: &mut Conn, shared: &Shared, idle: Option<Duration>) -> bool {
    while conn.out.is_empty() {
        match conn.phase {
            Phase::Handshake => {
                let Some(frame) = conn.asm.next_frame() else {
                    return true;
                };
                conn.touch(idle);
                match conn::apply_hello(shared, frame) {
                    Ok((tenant, ack)) => {
                        conn.tenant = tenant;
                        conn.queue_reply(&ack);
                        conn.phase = Phase::Open;
                    }
                    Err(reject) => {
                        conn.queue_reply(&reject);
                        conn.phase = Phase::Closing;
                    }
                }
            }
            Phase::Open => {
                let Some(frame) = conn.asm.next_frame() else {
                    return true;
                };
                conn.touch(idle);
                match conn::apply_frame(shared, conn.tenant, frame) {
                    FrameAction::Reply(reply) => conn.queue_reply(&reply),
                    FrameAction::Settle(pending) => conn.phase = Phase::Settling(pending),
                }
            }
            Phase::Settling(_) | Phase::Closing => return true,
        }
        if !conn.out.is_empty() {
            match conn.flush_out() {
                Ok(true) => {
                    if matches!(conn.phase, Phase::Closing) {
                        return false; // reject flushed; close now
                    }
                }
                Ok(false) => return true, // socket full; write interest arms
                Err(_) => return false,
            }
        }
    }
    true
}

/// Drains the write buffer on writability; a completed flush either closes
/// (`Closing`) or resumes frame processing. Returns `false` to close.
fn on_writable(conn: &mut Conn, shared: &Shared, idle: Option<Duration>) -> bool {
    match conn.flush_out() {
        Ok(true) => match conn.phase {
            Phase::Closing => false,
            _ => process_ready(conn, shared, idle),
        },
        Ok(false) => true,
        Err(_) => false,
    }
}

/// Re-polls every settling connection's watermark against the fold
/// frontier; settled ones get their reply queued (and flushed) or hang up
/// on shutdown.
fn tick_settling(ctx: &LoopCtx, conns: &mut HashMap<usize, Conn>) {
    let keys: Vec<usize> = conns
        .iter()
        .filter(|(_, c)| matches!(c.phase, Phase::Settling(_)))
        .map(|(&k, _)| k)
        .collect();
    for key in keys {
        let conn = conns.get_mut(&key).expect("settling key just collected");
        let Phase::Settling(pending) = &conn.phase else {
            continue;
        };
        let Some(outcome) = ctx
            .shared
            .tenant(pending.tenant)
            .queue
            .poll_processed(pending.watermark)
        else {
            continue; // frontier still short of the watermark
        };
        let alive = match conn::settle_reply(&ctx.shared, pending, outcome) {
            Some(reply) => {
                conn.phase = Phase::Open;
                conn.queue_reply(&reply);
                match conn.flush_out() {
                    Ok(true) => process_ready(conn, &ctx.shared, ctx.idle_timeout),
                    Ok(false) => true,
                    Err(_) => false,
                }
            }
            None => false, // shutdown mid-query: drop without a reply
        };
        finish_event(&ctx.poller, conns, key, alive);
    }
}

/// Closes connections whose idle deadline passed without a completed
/// frame — silent peers and slow-loris drips alike. Settling connections
/// are exempt: their latency is the server's own fold frontier, not the
/// peer's.
fn reap_idle(ctx: &LoopCtx, conns: &mut HashMap<usize, Conn>) {
    if ctx.idle_timeout.is_none() {
        return;
    }
    let now = Instant::now();
    let expired: Vec<usize> = conns
        .iter()
        .filter(|(_, c)| {
            !matches!(c.phase, Phase::Settling(_)) && c.deadline.is_some_and(|d| now >= d)
        })
        .map(|(&k, _)| k)
        .collect();
    for key in expired {
        ctx.shared.reaped.fetch_add(1, Ordering::SeqCst);
        teardown(&ctx.poller, conns, key);
    }
}

/// Post-event bookkeeping: close a dead connection, or re-register the
/// interest its state now wants (read while it can accept a frame, write
/// while a reply is buffered).
fn finish_event(poller: &Poller, conns: &mut HashMap<usize, Conn>, key: usize, alive: bool) {
    if !alive {
        teardown(poller, conns, key);
        return;
    }
    let Some(conn) = conns.get_mut(&key) else {
        return;
    };
    if matches!(conn.phase, Phase::Closing) && conn.out.is_empty() {
        teardown(poller, conns, key);
        return;
    }
    let want = (
        conn.out.is_empty() && matches!(conn.phase, Phase::Handshake | Phase::Open),
        !conn.out.is_empty(),
    );
    if want != conn.interest {
        let ev = Event {
            key,
            readable: want.0,
            writable: want.1,
        };
        if poller.modify(conn.stream.as_raw_fd(), ev).is_ok() {
            conn.interest = want;
        }
    }
}

/// Unregisters and closes one connection.
fn teardown(poller: &Poller, conns: &mut HashMap<usize, Conn>, key: usize) {
    if let Some(conn) = conns.remove(&key) {
        let _ = poller.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}
