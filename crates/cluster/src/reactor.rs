//! The sharded-reactor serving loop and the executor its requests run on.
//!
//! Connection lifecycle is explicit state, not a thread stack:
//!
//! * **Shards.** N event-loop threads, each with its own [`Poller`]
//!   (epoll) and an owned set of nonblocking connections. The listener
//!   lives on shard 0; accepted sockets are handed out round-robin through
//!   a cross-thread [`Mailbox`] plus wake pipe. A shard never blocks on
//!   anything but `epoll_wait`, and a node runs no thread but its shards.
//! * **Connections.** Each [`Conn`] owns a resumable [`FrameDecoder`]
//!   (reads may deliver half a length prefix or ten pipelined frames)
//!   and an outgoing byte buffer flushed as far as the socket allows,
//!   with `EPOLLOUT` interest registered only while bytes remain.
//! * **Tasks.** Every decoded request becomes a task — the future
//!   [`Service::call`] returns — polled on the shard that decoded it. A
//!   handler that never waits on a peer completes in that first poll and
//!   its response goes straight to the write buffer. A handler that needs
//!   peers awaits nonblocking calls ([`ShardIo::call`]) on connections the
//!   shard owns; while it is parked the shard keeps serving every other
//!   connection, and a socket event or a timer wakes it again. Nothing
//!   ever blocks a shard on a peer, so two nodes waiting on each other
//!   (an `Update` whose `Put` makes its target register back at the
//!   sender) always make progress: there is no pool to exhaust.
//! * **Ordering.** At most one task is pending per connection (`busy`);
//!   further frames wait in the decoder. Because client sockets are
//!   level-triggered, bytes already sitting in the decoder produce no
//!   event — completion re-drains the decoder explicitly before re-arming
//!   read interest.
//! * **Shutdown.** `shutdown` stops the listener, closes idle
//!   connections immediately, lets pending tasks finish and flush their
//!   responses (up to [`DRAIN_DEADLINE`]), and only then joins the shard
//!   threads — nothing outlives the node, and no started request loses
//!   its response.
//!
//! The executor is std-only: one ready queue and one timer heap per
//! shard, [`std::task::Wake`] wakers that push a task's token onto the
//! ready queue, and one-shot socket arming for parked peer calls.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::future::Future;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use cachecloud_types::CacheCloudError;

use crate::conn::peer_err;
use crate::poller::{
    connect_nonblocking, drain_waker, waker_pair, Interest, PollEvent, PollableFd, Poller,
    Waker as WakePipe,
};
use crate::sync::Mutex;
use crate::wire::{frame_request, frame_response, FrameDecoder, Request, Response};

/// One request in flight on a shard: the handler's future.
pub(crate) type Task = Pin<Box<dyn Future<Output = Response>>>;

/// What the reactor serves. Implemented by the cache node; kept as a
/// trait so the reactor's connection machinery is testable in isolation.
pub(crate) trait Service: Send + Sync + 'static {
    /// Starts handling `req` on the shard owning `io`. The task is polled
    /// at once; one that needs no peer completes in that first poll.
    fn call(&self, req: Request, io: &Rc<ShardIo>) -> Task;

    /// Observes a failed `accept` (telemetry).
    fn accept_error(&self, err: &io::Error) {
        let _ = err;
    }
}

/// Sizing knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub(crate) struct ServerOptions {
    /// Event-loop shard count (0 = one per available core, capped at 4).
    pub shards: usize,
    /// Thread-name prefix, e.g. `ccnode-3`.
    pub name: String,
}

impl ServerOptions {
    pub(crate) fn named(name: String) -> Self {
        ServerOptions { shards: 0, name }
    }

    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(4)
    }
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_FIRST_CONN: u64 = 2;
/// Peer (outgoing) sockets are registered under tokens with this bit set,
/// so one poller serves both kinds without the token spaces colliding.
const TOK_PEER: u64 = 1 << 63;

/// How long a shard keeps waiting for pending tasks to finish during
/// shutdown. In practice drains complete within one RPC deadline; this
/// only bounds a pathological stall.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Pause after fd exhaustion before accepting again. Spinning on a
/// level-triggered readable listener that cannot accept would peg the
/// shard; a short pause lets connections (and fds) drain.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Per-connection write-buffer high-water mark: while the buffer holds
/// more than this, the shard stops decoding further pipelined frames
/// for the connection until the socket drains (backpressure).
const MAX_PENDING_OUT: usize = 1 << 20;

/// Idle peer connections a shard keeps per peer (beyond this, finished
/// connections are closed instead of pooled).
const MAX_IDLE_PER_PEER: usize = 8;

/// Cross-thread deliveries into one shard: freshly accepted sockets (from
/// shard 0) and the tokens of woken tasks. Push, then wake.
struct Mailbox {
    pipe: WakePipe,
    conns: Mutex<Vec<TcpStream>>,
    woken: Mutex<Vec<u64>>,
    /// The shard's thread: wakes raised on it need no wake-pipe write,
    /// because the shard drains its ready queue before it polls again.
    thread: OnceLock<ThreadId>,
}

impl Mailbox {
    fn push_conn(&self, stream: TcpStream) {
        self.conns.lock().push(stream);
        self.pipe.wake();
    }

    fn push_woken(&self, token: u64) {
        self.woken.lock().push(token);
        if self.thread.get() != Some(&std::thread::current().id()) {
            self.pipe.wake();
        }
    }
}

/// The waker of the task pending on connection `token`.
struct TaskWake {
    token: u64,
    mailbox: Arc<Mailbox>,
}

impl Wake for TaskWake {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.mailbox.push_woken(self.token);
    }
}

/// Pending timers of one shard: a min-heap of deadlines plus the wakers
/// of the timers still live. A cancelled timer leaves its heap entry
/// behind; it is skipped when it surfaces.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    live: HashMap<u64, Waker>,
    next_id: u64,
}

impl Timers {
    fn add(&mut self, at: Instant, waker: Waker) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Reverse((at, id)));
        self.live.insert(id, waker);
        id
    }

    fn cancel(&mut self, id: u64) {
        self.live.remove(&id);
    }

    /// The earliest live deadline, discarding cancelled entries on top.
    fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(Reverse((at, id))) = self.heap.peek().copied() {
            if self.live.contains_key(&id) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    /// Removes and returns the wakers of every timer due by `now`.
    fn take_due(&mut self, now: Instant) -> Vec<Waker> {
        let mut due = Vec::new();
        while let Some(Reverse((at, id))) = self.heap.peek().copied() {
            if at > now {
                break;
            }
            self.heap.pop();
            due.extend(self.live.remove(&id));
        }
        due
    }
}

/// One outgoing connection to a peer, owned by a shard.
struct PeerConn {
    stream: TcpStream,
    token: u64,
    /// Whether the socket is in the poller's interest list yet.
    registered: bool,
    /// Reusable request scratch.
    wbuf: Vec<u8>,
    decoder: FrameDecoder,
}

/// The shard-local half of the executor that tasks see: socket
/// readiness, timers and the shard's peer connections.
pub(crate) struct ShardIo {
    poller: Poller,
    /// Tasks parked on a peer socket, by poller token.
    parked: RefCell<HashMap<u64, Waker>>,
    timers: RefCell<Timers>,
    next_peer_token: Cell<u64>,
    /// Idle peer connections, reused only after a fully successful
    /// exchange (the [`crate::ConnectionPool`] contract).
    idle: RefCell<HashMap<SocketAddr, Vec<PeerConn>>>,
}

impl ShardIo {
    fn new(poller: Poller) -> Self {
        ShardIo {
            poller,
            parked: RefCell::new(HashMap::new()),
            timers: RefCell::new(Timers::default()),
            next_peer_token: Cell::new(TOK_PEER),
            idle: RefCell::new(HashMap::new()),
        }
    }

    /// Completes after `d`.
    pub(crate) fn sleep(&self, d: Duration) -> Sleep<'_> {
        Sleep {
            io: self,
            at: Instant::now() + d,
            timer: None,
        }
    }

    /// One request/response exchange with `addr`, bounded by `budget`
    /// from connect to the last response byte. With `reuse`, an idle
    /// connection is taken when one exists and the connection is pooled
    /// again after a fully successful exchange; any failure discards it.
    /// Without, every call connects afresh.
    pub(crate) async fn call(
        &self,
        addr: SocketAddr,
        req: &Request,
        budget: Duration,
        reuse: bool,
    ) -> Result<Response, CacheCloudError> {
        let deadline = Instant::now() + budget;
        let pooled = if reuse {
            self.idle.borrow_mut().get_mut(&addr).and_then(Vec::pop)
        } else {
            None
        };
        let mut conn = match pooled {
            Some(conn) => conn,
            None => self
                .connect(addr, deadline)
                .await
                .map_err(|e| peer_err(addr, &e))?,
        };
        let resp = self
            .exchange(&mut conn, req, deadline)
            .await
            .map_err(|e| peer_err(addr, &e))?;
        if reuse {
            let mut idle = self.idle.borrow_mut();
            let list = idle.entry(addr).or_default();
            if list.len() < MAX_IDLE_PER_PEER {
                list.push(conn);
            }
        }
        Ok(resp)
    }

    async fn connect(
        &self,
        addr: SocketAddr,
        deadline: Instant,
    ) -> Result<PeerConn, CacheCloudError> {
        let stream = connect_nonblocking(addr)?;
        let token = self.next_peer_token.get();
        self.next_peer_token.set(token + 1);
        let mut conn = PeerConn {
            stream,
            token,
            registered: false,
            wbuf: Vec::new(),
            decoder: FrameDecoder::new(),
        };
        self.ready(&mut conn, Interest::WRITE, deadline).await?;
        if let Some(e) = conn.stream.take_error()? {
            return Err(e.into());
        }
        // Small frames must not sit in Nagle's buffer.
        let _ = conn.stream.set_nodelay(true);
        Ok(conn)
    }

    async fn exchange(
        &self,
        conn: &mut PeerConn,
        req: &Request,
        deadline: Instant,
    ) -> Result<Response, CacheCloudError> {
        conn.wbuf.clear();
        frame_request(&mut conn.wbuf, req)?;
        let mut pos = 0;
        while pos < conn.wbuf.len() {
            match (&conn.stream).write(&conn.wbuf[pos..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.ready(conn, Interest::WRITE, deadline).await?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        loop {
            if let Some(frame) = conn.decoder.next_frame()? {
                return Response::decode(frame);
            }
            match conn.decoder.read_from(&mut &conn.stream) {
                Ok(0) => {
                    return Err(CacheCloudError::Protocol(if conn.decoder.is_mid_frame() {
                        "connection closed mid-response".into()
                    } else {
                        "connection closed before response".into()
                    }))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.ready(conn, Interest::READ, deadline).await?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Parks until `conn` reports `interest` (or an error), failing once
    /// `deadline` passes.
    async fn ready(
        &self,
        conn: &mut PeerConn,
        interest: Interest,
        deadline: Instant,
    ) -> Result<(), CacheCloudError> {
        Readiness {
            io: self,
            fd: conn.stream.as_raw_fd(),
            token: conn.token,
            registered: &mut conn.registered,
            interest,
            deadline,
            armed: false,
            timer: None,
        }
        .await
        .map_err(|e| match e.kind() {
            io::ErrorKind::TimedOut => CacheCloudError::Io("no reply in time".into()),
            _ => e.into(),
        })
    }

    /// Wakes the task parked on peer socket `token`.
    fn on_peer_event(&self, token: u64) {
        let waker = self.parked.borrow_mut().remove(&token);
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// A timer future: see [`ShardIo::sleep`].
pub(crate) struct Sleep<'a> {
    io: &'a ShardIo,
    at: Instant,
    timer: Option<u64>,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.at {
            return Poll::Ready(());
        }
        if self.timer.is_none() {
            let id = self.io.timers.borrow_mut().add(self.at, cx.waker().clone());
            self.timer = Some(id);
        }
        Poll::Pending
    }
}

impl Drop for Sleep<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.timer {
            self.io.timers.borrow_mut().cancel(id);
        }
    }
}

/// Waits for one readiness event on a peer socket; fails with
/// `TimedOut` once the deadline passes.
struct Readiness<'a> {
    io: &'a ShardIo,
    fd: i32,
    token: u64,
    /// The connection's "in the interest list" flag: the first arming
    /// adds the socket, later ones re-arm it.
    registered: &'a mut bool,
    interest: Interest,
    deadline: Instant,
    armed: bool,
    timer: Option<u64>,
}

impl Future for Readiness<'_> {
    type Output = io::Result<()>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        let this = &mut *self;
        if this.armed && !this.io.parked.borrow().contains_key(&this.token) {
            this.armed = false;
            return Poll::Ready(Ok(())); // the event fired
        }
        if Instant::now() >= this.deadline {
            return Poll::Ready(Err(io::ErrorKind::TimedOut.into()));
        }
        if !this.armed {
            let first = !*this.registered;
            if let Err(e) = this
                .io
                .poller
                .arm_once(this.fd, this.token, this.interest, first)
            {
                return Poll::Ready(Err(e));
            }
            *this.registered = true;
            this.armed = true;
            this.io
                .parked
                .borrow_mut()
                .insert(this.token, cx.waker().clone());
        }
        if this.timer.is_none() {
            let id = this
                .io
                .timers
                .borrow_mut()
                .add(this.deadline, cx.waker().clone());
            this.timer = Some(id);
        }
        Poll::Pending
    }
}

impl Drop for Readiness<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.io.parked.borrow_mut().remove(&self.token);
        }
        if let Some(id) = self.timer {
            self.io.timers.borrow_mut().cancel(id);
        }
    }
}

/// Runs every future to completion concurrently and returns their outputs
/// in order. Independent peer calls of one request go out together this
/// way and are awaited together.
pub(crate) fn join_all<F: Future>(futures: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futures: Vec<_> = futures.into_iter().map(|f| Some(Box::pin(f))).collect();
    let done = futures.iter().map(|_| None).collect();
    JoinAll { futures, done }
}

/// See [`join_all`].
pub(crate) struct JoinAll<F: Future> {
    futures: Vec<Option<Pin<Box<F>>>>,
    done: Vec<Option<F::Output>>,
}

// Every future is boxed, so moving the set never moves a future.
impl<F: Future> Unpin for JoinAll<F> {}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = &mut *self;
        let mut pending = false;
        for (slot, out) in this.futures.iter_mut().zip(&mut this.done) {
            if let Some(f) = slot {
                match f.as_mut().poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => pending = true,
                }
            }
        }
        if pending {
            return Poll::Pending;
        }
        Poll::Ready(
            this.done
                .drain(..)
                .map(|v| v.expect("every future completed"))
                .collect(),
        )
    }
}

/// One nonblocking client connection owned by a shard.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending outgoing bytes; `[out_pos..]` is still unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// A task is pending for this connection; reads are paused and
    /// further decoded frames wait in the decoder.
    busy: bool,
    /// The peer half-closed (or fully closed) its sending side.
    read_closed: bool,
    /// Unrecoverable (I/O error, protocol violation): close now.
    dead: bool,
    /// The interest set currently registered with the poller.
    interest: Interest,
    /// Wakes this connection's pending task.
    waker: Waker,
}

impl Conn {
    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Writes as much of the out-buffer as the socket accepts.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Appends a framed response to the out-buffer.
    fn enqueue_response(&mut self, resp: &Response) {
        if frame_response(&mut self.out, resp).is_err() {
            // An oversized response cannot be framed; the connection can
            // only be abandoned (the peer would mis-sync otherwise).
            self.dead = true;
        }
    }
}

/// One event-loop thread: poller, owned connections and their tasks,
/// and (on shard 0) the listener.
struct Shard {
    id: usize,
    nshards: usize,
    io: Rc<ShardIo>,
    waker_rx: UnixStream,
    listener: Option<TcpListener>,
    svc: Arc<dyn Service>,
    mailboxes: Arc<Vec<Arc<Mailbox>>>,
    shutdown: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    /// Pending tasks by connection token. A task outlives its connection
    /// when the client goes away mid-request: it still runs to completion
    /// and its response is discarded.
    tasks: HashMap<u64, (Task, Waker)>,
    next_token: u64,
    next_shard: usize,
    accept_paused_until: Option<Instant>,
    draining_since: Option<Instant>,
}

impl Shard {
    fn draining(&self) -> bool {
        self.draining_since.is_some()
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailboxes[self.id]
    }

    fn run(mut self) {
        let _ = self.mailbox().thread.set(std::thread::current().id());
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            let timeout = self.tick_timeout();
            if self.io.poller.wait(&mut events, timeout).is_err() {
                break; // EBADF/EINVAL: the poller itself is gone
            }
            if self.shutdown.load(Ordering::SeqCst) && !self.draining() {
                self.begin_drain();
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOK_WAKER => drain_waker(&self.waker_rx),
                    TOK_LISTENER => {
                        if !self.draining() && self.accept_paused_until.is_none() {
                            self.on_accept();
                        }
                    }
                    t if t & TOK_PEER != 0 => self.io.on_peer_event(t),
                    _ => self.on_conn_event(ev),
                }
            }
            let conns = std::mem::take(&mut *self.mailbox().conns.lock());
            for stream in conns {
                if !self.draining() {
                    self.adopt(stream); // dropped while draining: no new work
                }
            }
            let due = self.io.timers.borrow_mut().take_due(Instant::now());
            due.into_iter().for_each(Waker::wake);
            self.run_woken();
            self.maybe_resume_accept();
            if let Some(since) = self.draining_since {
                let idle = self.conns.is_empty() && self.tasks.is_empty();
                if idle || since.elapsed() > DRAIN_DEADLINE {
                    break;
                }
            }
        }
        // Everything still open (drain deadline hit, poller failure) is
        // force-closed by drop, pending tasks included.
    }

    fn tick_timeout(&self) -> Option<Duration> {
        let mut t: Option<Duration> = None;
        let mut cap = |d: Duration| match t {
            Some(cur) if cur <= d => {}
            _ => t = Some(d),
        };
        if let Some(until) = self.accept_paused_until {
            cap(until.saturating_duration_since(Instant::now()));
        }
        if let Some(at) = self.io.timers.borrow_mut().next_deadline() {
            cap(at.saturating_duration_since(Instant::now()));
        }
        if self.draining() {
            cap(Duration::from_millis(10));
        }
        t
    }

    /// Polls every woken task until none is left awake.
    fn run_woken(&mut self) {
        loop {
            let woken = std::mem::take(&mut *self.mailbox().woken.lock());
            if woken.is_empty() {
                return;
            }
            for token in woken {
                let Some((task, waker)) = self.tasks.get_mut(&token) else {
                    continue; // already finished: a stale wake
                };
                if let Poll::Ready(resp) = task.as_mut().poll(&mut Context::from_waker(waker)) {
                    self.tasks.remove(&token);
                    self.on_completion(token, resp);
                }
            }
        }
    }

    /// Stops the listener and closes every connection that has nothing
    /// left to deliver. Busy connections stay until their pending
    /// response is written; no new frames are decoded for anyone.
    fn begin_drain(&mut self) {
        self.draining_since = Some(Instant::now());
        if let Some(listener) = self.listener.take() {
            let _ = self.io.poller.deregister(listener.as_raw_fd());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.settle(token);
        }
    }

    /// Takes ownership of an accepted socket: register and wait for the
    /// first readable event (any bytes already queued by the client
    /// trigger level-triggered epoll immediately).
    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .io
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return; // drop the stream; the client sees a reset
        }
        let waker = Waker::from(Arc::new(TaskWake {
            token,
            mailbox: Arc::clone(&self.mailboxes[self.id]),
        }));
        self.conns.insert(
            token,
            Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                out_pos: 0,
                busy: false,
                read_closed: false,
                dead: false,
                interest: Interest::READ,
                waker,
            },
        );
    }

    fn on_accept(&mut self) {
        // Temporarily take the listener so accepted streams can be
        // adopted (a `&mut self` call) while iterating.
        let Some(listener) = self.listener.take() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Long-lived pooled connections: a response must not
                    // sit in Nagle's buffer waiting for a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let target = self.next_shard;
                    self.next_shard = (self.next_shard + 1) % self.nshards;
                    if target == self.id {
                        self.adopt(stream);
                    } else {
                        self.mailboxes[target].push_conn(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.svc.accept_error(&e);
                    // EMFILE(24)/ENFILE(23): the process is out of fds.
                    // Accepting again immediately would fail the same way
                    // while level-triggered epoll keeps the listener
                    // readable — pause instead of spinning.
                    if matches!(e.raw_os_error(), Some(23) | Some(24)) {
                        let _ = self.io.poller.deregister(listener.as_raw_fd());
                        self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        break;
                    }
                    // Transient (ECONNABORTED and friends): next socket.
                }
            }
        }
        self.listener = Some(listener);
    }

    fn maybe_resume_accept(&mut self) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if Instant::now() < until || self.draining() {
            return;
        }
        self.accept_paused_until = None;
        if let Some(listener) = &self.listener {
            let _ = self
                .io
                .poller
                .register(listener.as_raw_fd(), TOK_LISTENER, Interest::READ);
        }
    }

    fn on_conn_event(&mut self, ev: PollEvent) {
        let draining = self.draining();
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return; // closed earlier in this batch
        };
        // An error or hang-up while a task is pending: the response can
        // never be delivered, and the level-triggered report would repeat
        // until the task finishes. The task runs on, detached.
        if ev.error && (conn.busy || !ev.readable) {
            conn.dead = true;
            self.settle(ev.token);
            return;
        }
        if ev.readable && !conn.busy && !conn.read_closed && !draining {
            // One read per event: level-triggered epoll re-reports any
            // bytes left in the socket, which keeps shards fair across
            // connections without a drain-until-WouldBlock loop.
            match conn.decoder.read_from(&mut conn.stream) {
                Ok(0) => {
                    conn.read_closed = true;
                    if conn.decoder.is_mid_frame() {
                        conn.dead = true; // severed mid-frame: not a clean close
                    }
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => conn.dead = true,
            }
            self.drain_frames(ev.token);
        }
        self.settle(ev.token);
    }

    /// Decodes and starts buffered frames until the connection goes busy,
    /// runs out of complete frames, or hits backpressure.
    fn drain_frames(&mut self, token: u64) {
        let draining = self.draining();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            if conn.busy || conn.dead || draining || conn.out.len() - conn.out_pos > MAX_PENDING_OUT
            {
                return;
            }
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => {
                    conn.dead = true; // oversized prefix: stream unframeable
                    return;
                }
            };
            let req = match Request::decode(frame) {
                Ok(req) => req,
                Err(e) => {
                    // A malformed request gets an Error response and the
                    // connection lives on.
                    conn.enqueue_response(&Response::Error {
                        message: e.to_string(),
                    });
                    continue;
                }
            };
            let mut task = self.svc.call(req, &self.io);
            match task.as_mut().poll(&mut Context::from_waker(&conn.waker)) {
                Poll::Ready(resp) => conn.enqueue_response(&resp),
                Poll::Pending => {
                    conn.busy = true;
                    self.tasks.insert(token, (task, conn.waker.clone()));
                    return;
                }
            }
        }
    }

    /// This connection's pending task finished.
    fn on_completion(&mut self, token: u64, resp: Response) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died while the task ran
        };
        conn.busy = false;
        conn.enqueue_response(&resp);
        // Bytes already sitting in the decoder never produce an epoll
        // event — drain them now that the connection can accept work.
        self.drain_frames(token);
        self.settle(token);
    }

    /// Flushes, recomputes poller interest, and closes the connection
    /// when nothing more can happen on it.
    fn settle(&mut self, token: u64) {
        let draining = self.draining();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.dead && conn.flush().is_err() {
            conn.dead = true;
        }
        let finished = !conn.busy && !conn.has_pending_out();
        if !conn.dead && finished && (conn.read_closed || draining) {
            conn.dead = true;
        }
        if conn.dead {
            let _ = self.io.poller.deregister(conn.stream.as_raw_fd());
            self.conns.remove(&token);
            return;
        }
        let desired = Interest {
            read: !conn.busy && !conn.read_closed && !draining,
            write: conn.has_pending_out(),
        };
        if desired != conn.interest {
            if self
                .io
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                let _ = self.io.poller.deregister(conn.stream.as_raw_fd());
                self.conns.remove(&token);
                return;
            }
            conn.interest = desired;
        }
    }
}

/// A running sharded-reactor server: its shard threads and the handles
/// to drain them.
pub(crate) struct Server {
    shutdown: Arc<AtomicBool>,
    mailboxes: Arc<Vec<Arc<Mailbox>>>,
    shard_handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("shards", &self.shard_handles.len())
            .finish()
    }
}

impl Server {
    /// Starts the reactor on an already-bound listener.
    pub(crate) fn start(
        listener: TcpListener,
        svc: Arc<dyn Service>,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        listener.set_nonblocking(true)?;
        let nshards = opts.resolved_shards();
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut mailboxes = Vec::with_capacity(nshards);
        let mut parts = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let poller = Poller::new()?;
            let (pipe, waker_rx) = waker_pair()?;
            poller.register(waker_rx.as_raw_fd(), TOK_WAKER, Interest::READ)?;
            mailboxes.push(Arc::new(Mailbox {
                pipe,
                conns: Mutex::new(Vec::new()),
                woken: Mutex::new(Vec::new()),
                thread: OnceLock::new(),
            }));
            parts.push((poller, waker_rx));
        }
        let mailboxes = Arc::new(mailboxes);

        let mut shard_handles = Vec::with_capacity(nshards);
        for (id, (poller, waker_rx)) in parts.into_iter().enumerate() {
            let listener = if id == 0 {
                poller.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
                Some(listener.try_clone()?)
            } else {
                None
            };
            let svc = Arc::clone(&svc);
            let mailboxes = Arc::clone(&mailboxes);
            let shutdown = Arc::clone(&shutdown);
            let handle = std::thread::Builder::new()
                .name(format!("{}-shard{id}", opts.name))
                .spawn(move || {
                    Shard {
                        id,
                        nshards,
                        io: Rc::new(ShardIo::new(poller)),
                        waker_rx,
                        listener,
                        svc,
                        mailboxes,
                        shutdown,
                        conns: HashMap::new(),
                        tasks: HashMap::new(),
                        next_token: TOK_FIRST_CONN,
                        next_shard: 0,
                        accept_paused_until: None,
                        draining_since: None,
                    }
                    .run();
                })
                .map_err(|e| io::Error::other(e.to_string()))?;
            shard_handles.push(handle);
        }

        Ok(Server {
            shutdown,
            mailboxes,
            shard_handles,
        })
    }

    /// Drains and joins every shard: pending tasks finish and flush their
    /// responses first. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for mb in self.mailboxes.iter() {
            mb.pipe.wake();
        }
        for handle in self.shard_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_into, read_frame, write_frame, Bytes};

    /// Ping answers in the first poll. `Serve` sleeps on a shard timer and
    /// echoes the url back as a document. `Put` forwards a `Ping` to the
    /// peer named by its body (an address string) and answers with the
    /// peer's reply wrapped as a document, or `Error` when the call fails.
    struct Echo {
        delay: Duration,
        accept_errors: std::sync::atomic::AtomicU64,
    }

    impl Echo {
        fn new(delay: Duration) -> Self {
            Echo {
                delay,
                accept_errors: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }

    impl Service for Echo {
        fn call(&self, req: Request, io: &Rc<ShardIo>) -> Task {
            let io = Rc::clone(io);
            let delay = self.delay;
            Box::pin(async move {
                match req {
                    Request::Ping => Response::Pong,
                    Request::Serve { url } => {
                        io.sleep(delay).await;
                        Response::Document {
                            version: 1,
                            body: Bytes::from(url.into_bytes()),
                        }
                    }
                    Request::Put { url, version, body } => {
                        let peer: SocketAddr = std::str::from_utf8(&body).unwrap().parse().unwrap();
                        match io.call(peer, &Request::Ping, delay, true).await {
                            Ok(_) => Response::Document {
                                version,
                                body: Bytes::from(url.into_bytes()),
                            },
                            Err(e) => Response::Error {
                                message: e.to_string(),
                            },
                        }
                    }
                    _ => Response::Ok,
                }
            })
        }

        fn accept_error(&self, _err: &io::Error) {
            self.accept_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn start_echo(delay: Duration, shards: usize) -> (Server, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut opts = ServerOptions::named("echo-test".into());
        opts.shards = shards;
        let server = Server::start(listener, Arc::new(Echo::new(delay)), opts).unwrap();
        (server, addr)
    }

    fn call(stream: &mut TcpStream, req: &Request) -> Response {
        write_frame(stream, &req.encode()).unwrap();
        let frame = read_frame(stream).unwrap().expect("response frame");
        Response::decode(frame).unwrap()
    }

    #[test]
    fn inline_and_pending_requests_roundtrip() {
        let (mut server, addr) = start_echo(Duration::from_millis(1), 2);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        assert_eq!(call(&mut stream, &Request::Ping), Response::Pong);
        assert_eq!(
            call(&mut stream, &Request::Serve { url: "/doc".into() }),
            Response::Document {
                version: 1,
                body: Bytes::from_static(b"/doc"),
            }
        );
        // Interleave fast and slow on the same connection, repeatedly.
        for i in 0..16 {
            assert_eq!(call(&mut stream, &Request::Ping), Response::Pong);
            let url = format!("/d{i}");
            assert_eq!(
                call(&mut stream, &Request::Serve { url: url.clone() }),
                Response::Document {
                    version: 1,
                    body: Bytes::from(url.into_bytes()),
                }
            );
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_burst_answers_every_frame_in_order() {
        let (mut server, addr) = start_echo(Duration::from_millis(1), 1);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // 50 pings + a slow serve + 50 more pings, written as one burst.
        let mut burst = Vec::new();
        for _ in 0..50 {
            frame_into(&mut burst, &Request::Ping.encode()).unwrap();
        }
        frame_into(&mut burst, &Request::Serve { url: "/mid".into() }.encode()).unwrap();
        for _ in 0..50 {
            frame_into(&mut burst, &Request::Ping.encode()).unwrap();
        }
        stream.write_all(&burst).unwrap();
        for i in 0..101 {
            let frame = read_frame(&mut stream).unwrap().expect("response");
            let resp = Response::decode(frame).unwrap();
            if i == 50 {
                assert_eq!(
                    resp,
                    Response::Document {
                        version: 1,
                        body: Bytes::from_static(b"/mid"),
                    },
                    "slow response must arrive in pipeline order"
                );
            } else {
                assert_eq!(resp, Response::Pong, "frame {i}");
            }
        }
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_response_and_connection_survives() {
        let (mut server, addr) = start_echo(Duration::from_millis(1), 1);
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &[99u8, 1, 2, 3]).unwrap(); // unknown tag
        let frame = read_frame(&mut stream).unwrap().expect("error response");
        assert!(matches!(
            Response::decode(frame).unwrap(),
            Response::Error { .. }
        ));
        assert_eq!(call(&mut stream, &Request::Ping), Response::Pong);
        server.shutdown();
    }

    #[test]
    fn shutdown_mid_request_still_delivers_the_response() {
        // The reactor must (a) complete the pending task and flush its
        // response, and (b) have no serving thread outlive `shutdown()`.
        let (mut server, addr) = start_echo(Duration::from_millis(120), 1);
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut stream,
            &Request::Serve {
                url: "/inflight".into(),
            }
            .encode(),
        )
        .unwrap();
        // Let the request start, then shut down around it.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < DRAIN_DEADLINE,
            "shutdown must not hang on the drain deadline"
        );
        // The response was flushed before the connection closed.
        let frame = read_frame(&mut stream)
            .unwrap()
            .expect("in-flight response");
        assert_eq!(
            Response::decode(frame).unwrap(),
            Response::Document {
                version: 1,
                body: Bytes::from_static(b"/inflight"),
            }
        );
        // ...and the server is actually gone: the next read is EOF.
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn shutdown_closes_idle_connections_and_refuses_new_ones() {
        let (mut server, addr) = start_echo(Duration::from_millis(1), 2);
        let mut idle = TcpStream::connect(addr).unwrap();
        assert_eq!(call(&mut idle, &Request::Ping), Response::Pong);
        server.shutdown();
        assert!(
            read_frame(&mut idle).unwrap().is_none(),
            "idle connection must be closed cleanly at a frame boundary"
        );
    }

    #[test]
    fn half_close_after_request_still_gets_the_response() {
        let (mut server, addr) = start_echo(Duration::from_millis(20), 1);
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut stream,
            &Request::Serve {
                url: "/half".into(),
            }
            .encode(),
        )
        .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let frame = read_frame(&mut stream).unwrap().expect("response");
        assert_eq!(
            Response::decode(frame).unwrap(),
            Response::Document {
                version: 1,
                body: Bytes::from_static(b"/half"),
            }
        );
        assert!(read_frame(&mut stream).unwrap().is_none());
        server.shutdown();
    }

    /// A peer that accepts connections and never answers.
    fn stalled_peer() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn put_via(peer: SocketAddr) -> Request {
        Request::Put {
            url: "/via".into(),
            version: 7,
            body: Bytes::from(peer.to_string().into_bytes()),
        }
    }

    #[test]
    fn task_waiting_on_a_stalled_peer_does_not_delay_other_connections() {
        // One shard. Eight connections each start a task whose peer call
        // stalls for its whole 400 ms budget; meanwhile another connection
        // on the same shard is answered at once, and so are peer calls to
        // a live peer.
        let budget = Duration::from_millis(400);
        let (mut server, addr) = start_echo(budget, 1);
        let (_held, stalled) = stalled_peer();
        let (mut live, live_addr) = start_echo(budget, 1);
        let mut blockers: Vec<TcpStream> =
            (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for s in &mut blockers {
            write_frame(s, &put_via(stalled).encode()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let mut other = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        for _ in 0..20 {
            assert_eq!(call(&mut other, &Request::Ping), Response::Pong);
        }
        assert!(
            matches!(
                call(&mut other, &put_via(live_addr)),
                Response::Document { version: 7, .. }
            ),
            "a peer call to a live peer completes"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "the stalled tasks held up the shard: {:?}",
            t0.elapsed()
        );
        for s in &mut blockers {
            let frame = read_frame(s).unwrap().expect("blocker response");
            let resp = Response::decode(frame).unwrap();
            assert!(
                matches!(resp, Response::Error { ref message } if message.contains("in time")),
                "the stalled call fails at its deadline: {resp:?}"
            );
        }
        server.shutdown();
        live.shutdown();
    }

    #[test]
    fn refused_peer_call_fails_fast_with_the_peer_named() {
        let (mut server, addr) = start_echo(Duration::from_secs(2), 1);
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        match call(&mut stream, &put_via(dead)) {
            Response::Error { message } => {
                assert!(message.contains(&dead.to_string()), "{message}")
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(1));
        server.shutdown();
    }

    #[test]
    fn many_connections_across_shards() {
        let (mut server, addr) = start_echo(Duration::from_millis(1), 3);
        let mut streams: Vec<TcpStream> =
            (0..24).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for round in 0..4 {
            for (i, s) in streams.iter_mut().enumerate() {
                write_frame(s, &Request::Ping.encode()).unwrap();
                let frame = read_frame(s).unwrap().expect("pong");
                assert_eq!(
                    Response::decode(frame).unwrap(),
                    Response::Pong,
                    "round {round}, conn {i}"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn timers_skip_cancelled_entries_and_fire_in_order() {
        let waker = Waker::noop().clone();
        let mut timers = Timers::default();
        let t0 = Instant::now();
        let a = timers.add(t0 + Duration::from_millis(5), waker.clone());
        timers.add(t0 + Duration::from_millis(10), waker.clone());
        timers.cancel(a);
        assert_eq!(timers.next_deadline(), Some(t0 + Duration::from_millis(10)));
        assert!(timers.take_due(t0 + Duration::from_millis(9)).is_empty());
        assert_eq!(timers.take_due(t0 + Duration::from_millis(10)).len(), 1);
        assert_eq!(timers.next_deadline(), None);
    }
}
