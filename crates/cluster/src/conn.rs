//! Persistent framed connections and a per-peer connection pool.
//!
//! The wire protocol is strictly alternating request/response over one
//! stream, and the server reactor keeps each accepted connection open
//! across frames until EOF — so a single [`Connection`] can carry
//! arbitrarily many exchanges. [`ConnectionPool`] keeps a small idle list
//! per peer and is what [`crate::CloudClient`] rides on instead of paying a
//! fresh `TcpStream::connect` per RPC. Nodes keep the same contract for
//! their peer calls, with one nonblocking pool per reactor shard.
//!
//! ## Hot-path economics
//!
//! A pooled exchange costs exactly one `write` and (usually) one `read`
//! syscall: the request is framed into a reusable buffer held by the
//! connection (no per-RPC allocation), and responses are pulled through a
//! [`FrameDecoder`] that keeps its scratch buffer across calls. Socket
//! timeouts are quantized to [`TIMEOUT_STEP`] and cached, so the pair of
//! `setsockopt` calls that used to precede every RPC only happens when the
//! deadline bucket actually changes — on a steady workload that is almost
//! never.
//!
//! ## Pool semantics under [`crate::RetryPolicy`]
//!
//! A connection is returned to the idle list **only after a fully
//! successful exchange**. Any failure — connect, write, read, decode,
//! timeout — discards the connection instead, so a poisoned or stale
//! stream (peer restarted, proxy dropped it, half-written frame) can never
//! be handed out twice. The retry layer above then opens a *fresh*
//! connection on its next attempt: "reconnect on a stale pooled stream" is
//! a consequence of discard-on-error plus retry-on-any-failure, with no
//! extra coordination.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cachecloud_types::CacheCloudError;

use crate::sync::Mutex;
use crate::wire::{frame_request, FrameDecoder, Request, Response};

/// Idle connections kept per peer (beyond this, finished connections are
/// closed instead of pooled).
const DEFAULT_MAX_IDLE_PER_PEER: usize = 8;

/// Socket timeouts are rounded **up** to a multiple of this before being
/// applied, so retry-budget deadlines that shrink by a few hundred
/// microseconds per attempt land in the same bucket and skip the
/// `setsockopt` pair entirely. Rounding up can only lengthen a deadline by
/// under one step, which delays error *detection* slightly but never cuts
/// a caller's budget short.
const TIMEOUT_STEP: Duration = Duration::from_millis(5);

fn quantize_timeout(t: Duration) -> Duration {
    let step = TIMEOUT_STEP.as_micros() as u64;
    let steps = (t.as_micros() as u64).div_ceil(step).max(1);
    Duration::from_micros(steps * step)
}

/// One persistent framed connection to a peer, usable for many sequential
/// request/response exchanges.
#[derive(Debug)]
pub struct Connection {
    peer: SocketAddr,
    stream: TcpStream,
    /// Reusable request scratch: cleared and re-framed each exchange.
    wbuf: Vec<u8>,
    /// Response reassembly; its buffer also persists across exchanges.
    decoder: FrameDecoder,
    /// The timeout currently applied to the socket (`None` = blocking,
    /// which is the state of a freshly connected stream).
    applied_timeout: Option<Duration>,
}

impl Connection {
    /// Connects to `peer`. With a timeout, the connect itself is bounded
    /// (clamped to at least 1 ms — a zero timeout would mean "block
    /// forever" to the socket API). `TCP_NODELAY` is set so small frames
    /// are not batched by Nagle's algorithm.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, with the peer address attached.
    pub fn connect(peer: SocketAddr, timeout: Option<Duration>) -> Result<Self, CacheCloudError> {
        let stream = match timeout {
            Some(t) => TcpStream::connect_timeout(&peer, t.max(Duration::from_millis(1))),
            None => TcpStream::connect(peer),
        }
        .map_err(|e| peer_err(peer, &CacheCloudError::from(e)))?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            peer,
            stream,
            wbuf: Vec::new(),
            decoder: FrameDecoder::new(),
            applied_timeout: None,
        })
    }

    /// The peer this connection talks to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// One request/response exchange. With a timeout, both the write and
    /// the read are bounded by it (rounded up to the next
    /// [`TIMEOUT_STEP`], minimum one step — a zero timeout would mean
    /// "block forever" to the socket API); without one, the exchange
    /// blocks indefinitely.
    ///
    /// After any error the connection must be considered poisoned and
    /// dropped: a timed-out read may leave half a frame in the stream.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors, with the peer address
    /// attached. A clean EOF before the response is a
    /// [`CacheCloudError::Protocol`] ("connection closed before response")
    /// — the signature of a stale pooled stream.
    pub fn call(
        &mut self,
        req: &Request,
        timeout: Option<Duration>,
    ) -> Result<Response, CacheCloudError> {
        self.call_inner(req, timeout)
            .map_err(|e| peer_err(self.peer, &e))
    }

    fn call_inner(
        &mut self,
        req: &Request,
        timeout: Option<Duration>,
    ) -> Result<Response, CacheCloudError> {
        let t = timeout.map(quantize_timeout);
        if t != self.applied_timeout {
            self.stream.set_read_timeout(t)?;
            self.stream.set_write_timeout(t)?;
            self.applied_timeout = t;
        }
        self.wbuf.clear();
        frame_request(&mut self.wbuf, req)?;
        // One write for prefix + body (see `write_frame` for why splitting
        // them costs ~40 ms under Nagle), but framed into a buffer this
        // connection keeps, so steady-state exchanges allocate nothing.
        (&self.stream).write_all(&self.wbuf)?;
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Response::decode(frame);
            }
            if self.decoder.read_from(&mut &self.stream)? == 0 {
                return Err(CacheCloudError::Protocol(if self.decoder.is_mid_frame() {
                    "connection closed mid-response".into()
                } else {
                    "connection closed before response".into()
                }));
            }
        }
    }
}

pub(crate) fn peer_err(peer: SocketAddr, e: &CacheCloudError) -> CacheCloudError {
    match e {
        CacheCloudError::Io(m) => CacheCloudError::Io(format!("peer {peer}: {m}")),
        CacheCloudError::Protocol(m) => CacheCloudError::Protocol(format!("peer {peer}: {m}")),
        other => other.clone(),
    }
}

/// Lifetime counters of one [`ConnectionPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Fresh TCP connects the pool performed.
    pub opened: u64,
    /// Exchanges served by an idle pooled connection.
    pub reused: u64,
    /// Connections dropped after a failed exchange (poisoned/stale).
    pub discarded: u64,
}

/// A per-peer pool of idle [`Connection`]s.
///
/// Checkout pops the most recently returned connection (LIFO keeps warm
/// streams hot); check-in caps the idle list per peer. See the module docs
/// for the discard-on-error contract the retry layer depends on.
#[derive(Debug)]
pub struct ConnectionPool {
    idle: Mutex<HashMap<SocketAddr, Vec<Connection>>>,
    max_idle_per_peer: usize,
    opened: AtomicU64,
    reused: AtomicU64,
    discarded: AtomicU64,
}

impl Default for ConnectionPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnectionPool {
    /// An empty pool with the default idle cap per peer.
    pub fn new() -> Self {
        Self::with_max_idle(DEFAULT_MAX_IDLE_PER_PEER)
    }

    /// An empty pool keeping at most `max_idle_per_peer` idle connections
    /// per peer (0 disables reuse entirely).
    pub fn with_max_idle(max_idle_per_peer: usize) -> Self {
        ConnectionPool {
            idle: Mutex::new(HashMap::new()),
            max_idle_per_peer,
            opened: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// One pooled request/response exchange with `addr`: reuse an idle
    /// connection when one exists, connect otherwise; return the
    /// connection to the pool only on success.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Connection`] errors. The failed
    /// connection is discarded, so a retrying caller's next attempt
    /// reconnects fresh.
    pub fn rpc(
        &self,
        addr: SocketAddr,
        req: &Request,
        timeout: Option<Duration>,
    ) -> Result<Response, CacheCloudError> {
        let pooled = self.idle.lock().get_mut(&addr).and_then(Vec::pop);
        let mut conn = match pooled {
            Some(conn) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                conn
            }
            None => {
                self.opened.fetch_add(1, Ordering::Relaxed);
                Connection::connect(addr, timeout)?
            }
        };
        match conn.call(req, timeout) {
            Ok(resp) => {
                self.check_in(conn);
                Ok(resp)
            }
            Err(e) => {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                drop(conn);
                Err(e)
            }
        }
    }

    /// Returns a healthy connection to the idle list (dropping it when the
    /// per-peer cap is already met).
    fn check_in(&self, conn: Connection) {
        let mut idle = self.idle.lock();
        let list = idle.entry(conn.peer()).or_default();
        if list.len() < self.max_idle_per_peer {
            list.push(conn);
        }
    }

    /// Closes every idle connection (in-flight exchanges are unaffected).
    pub fn clear(&self) {
        self.idle.lock().clear();
    }

    /// Point-in-time lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            opened: self.opened.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LocalCluster;
    use crate::retry::RetryPolicy;
    use crate::wire::{read_frame, write_frame};
    use std::io::BufReader;
    use std::net::TcpListener;

    #[test]
    fn timeouts_quantize_up_to_a_step_boundary() {
        let q = quantize_timeout;
        assert_eq!(q(TIMEOUT_STEP), TIMEOUT_STEP);
        assert_eq!(q(Duration::from_micros(1)), TIMEOUT_STEP);
        assert_eq!(
            q(Duration::ZERO),
            TIMEOUT_STEP,
            "zero must not mean forever"
        );
        assert_eq!(q(Duration::from_millis(7)), Duration::from_millis(10));
        // Retry budgets that shave fractions of a millisecond per attempt
        // stay in one bucket, so the socket options are left untouched.
        assert_eq!(
            q(Duration::from_micros(299_400)),
            q(Duration::from_micros(296_100))
        );
    }

    #[test]
    fn one_connection_carries_many_exchanges() {
        let cluster = LocalCluster::spawn(1).unwrap();
        let addr = cluster.peers()[0];
        let mut conn = Connection::connect(addr, None).unwrap();
        for i in 0..4 {
            let resp = conn
                .call(&Request::Ping, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(resp, Response::Pong, "exchange {i}");
        }
        // Mixed request kinds over the same stream.
        let resp = conn
            .call(
                &Request::Get { url: "/x".into() },
                Some(Duration::from_secs(2)),
            )
            .unwrap();
        assert_eq!(resp, Response::NotFound);
        cluster.shutdown();
    }

    #[test]
    fn pool_reuses_and_caps_idle_connections() {
        let cluster = LocalCluster::spawn(1).unwrap();
        let addr = cluster.peers()[0];
        let pool = ConnectionPool::new();
        for _ in 0..5 {
            let resp = pool
                .rpc(addr, &Request::Ping, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(resp, Response::Pong);
        }
        let stats = pool.stats();
        assert_eq!(stats.opened, 1, "sequential calls share one connection");
        assert_eq!(stats.reused, 4);
        assert_eq!(stats.discarded, 0);
        cluster.shutdown();
    }

    /// A wire-speaking server that closes each connection after a fixed
    /// number of exchanges — the stale-stream generator.
    fn short_lived_server(exchanges_per_conn: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                for _ in 0..exchanges_per_conn {
                    match read_frame(&mut reader) {
                        Ok(Some(_)) => {
                            write_frame(&mut writer, &Response::Pong.encode()).unwrap();
                        }
                        _ => break,
                    }
                }
                // Dropping the streams closes the connection: the pooled
                // client side goes stale without knowing.
            }
        });
        addr
    }

    #[test]
    fn retry_reconnects_after_a_stale_pooled_stream() {
        let addr = short_lived_server(1);
        let pool = ConnectionPool::new();
        let retry = RetryPolicy::fast();

        // Exchange 1 succeeds and pools the connection; the server then
        // closes its side, so the pooled stream is stale.
        let run = |lane| {
            retry.run(lane, "pooled rpc", |budget| {
                pool.rpc(addr, &Request::Ping, Some(budget))
            })
        };
        let (first, report) = run(1);
        assert_eq!(first.unwrap(), Response::Pong);
        assert_eq!(report.retries, 0);

        // Exchange 2 draws the stale connection: attempt 1 fails (clean
        // EOF before a response), the pool discards it, and the retry's
        // second attempt reconnects fresh and succeeds.
        let (second, report) = run(2);
        assert_eq!(second.unwrap(), Response::Pong);
        assert_eq!(report.retries, 1, "exactly one reconnect attempt");
        let stats = pool.stats();
        assert_eq!(stats.opened, 2);
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.discarded, 1);
    }

    #[test]
    fn zero_cap_pool_never_reuses() {
        let cluster = LocalCluster::spawn(1).unwrap();
        let addr = cluster.peers()[0];
        let pool = ConnectionPool::with_max_idle(0);
        for _ in 0..3 {
            pool.rpc(addr, &Request::Ping, Some(Duration::from_secs(2)))
                .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.opened, 3);
        assert_eq!(stats.reused, 0);
        cluster.shutdown();
    }
}
