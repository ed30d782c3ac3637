//! The wire protocol: length-prefixed binary frames.
//!
//! Every message is `u32` big-endian frame length followed by a tag byte and
//! tag-specific fields. Strings and bodies are length-prefixed. The format
//! is hand-rolled (no serde) so the frame layout is explicit and stable.

use std::io::{Read, Write};

use cachecloud_metrics::telemetry::{HistogramSnapshot, NodeStats};
use cachecloud_types::CacheCloudError;

pub use crate::bytes::{BufMut, Bytes};

/// Frames larger than this are rejected (corrupt or hostile peers).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A request sent to a cache node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Beacon-point lookup: who holds `url`?
    Lookup {
        /// Document URL.
        url: String,
    },
    /// Beacon-point registration of a stored copy.
    Register {
        /// Document URL.
        url: String,
        /// Node that now holds a copy.
        holder: u32,
        /// The sender's routing-table version. A receiver that is not the
        /// URL's beacon under a *newer* table re-routes the registration
        /// instead of applying it (the sender routed with a stale table).
        table_version: u64,
    },
    /// Beacon-point deregistration (copy evicted or dropped).
    Unregister {
        /// Document URL.
        url: String,
        /// Node that dropped its copy.
        holder: u32,
        /// The sender's routing-table version (see [`Request::Register`]).
        table_version: u64,
    },
    /// Fetch a document from this node's local store only.
    Get {
        /// Document URL.
        url: String,
    },
    /// The full cooperative read path: local store, then beacon lookup,
    /// then peer fetch.
    Serve {
        /// Document URL.
        url: String,
    },
    /// Store a document body at this node (also used for update delivery).
    Put {
        /// Document URL.
        url: String,
        /// Version of the body.
        version: u64,
        /// The document body.
        body: Bytes,
    },
    /// Origin-side update: deliver to the beacon, which fans out to all
    /// registered holders.
    Update {
        /// Document URL.
        url: String,
        /// New version.
        version: u64,
        /// New body.
        body: Bytes,
    },
    /// Node statistics.
    Stats,
    /// Coordinator: read and reset the node's per-IrH beacon-load ledger.
    GetLoad,
    /// Coordinator: install a new routing table (directory records whose
    /// IrH values moved away are pushed to their new owners).
    SetRanges {
        /// The new table; applied only if its version is newer.
        table: crate::route::RouteTable,
    },
    /// Read the node's current routing table.
    GetTable,
    /// Hand over a beacon directory record after a sub-range move.
    Adopt {
        /// Document URL.
        url: String,
        /// Latest version the previous beacon had seen.
        version: u64,
        /// Registered holders of the document.
        holders: Vec<u32>,
    },
    /// Batched beacon-point registration: one RPC registers `holder` for
    /// every URL in the batch (all routed to the same beacon).
    RegisterBatch {
        /// Document URLs.
        urls: Vec<String>,
        /// Node that now holds a copy of each document.
        holder: u32,
        /// The sender's routing-table version (see [`Request::Register`]).
        table_version: u64,
    },
    /// Batched beacon-point deregistration — the eviction path groups its
    /// victims by beacon and sends one of these per peer instead of one
    /// [`Request::Unregister`] per victim.
    UnregisterBatch {
        /// Document URLs.
        urls: Vec<String>,
        /// Node that dropped its copy of each document.
        holder: u32,
        /// The sender's routing-table version (see [`Request::Register`]).
        table_version: u64,
    },
    /// A cooperative miss at `requester`, sent to the document's beacon.
    /// A beacon that holds a current copy, owns `url` under its own table
    /// and is not behind the sender's `table_version` registers
    /// `requester` as a holder and answers with the `Document` in the same
    /// exchange. Otherwise it registers nothing and answers `Holders`, as
    /// for a [`Request::Lookup`].
    Fill {
        /// Document URL.
        url: String,
        /// The node that missed and will store the copy.
        requester: u32,
        /// The requester's routing-table version.
        table_version: u64,
    },
}

/// A response from a cache node.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Generic success.
    Ok,
    /// Holder list from a beacon point.
    Holders {
        /// Nodes currently holding the document.
        holders: Vec<u32>,
        /// Latest version the beacon has seen.
        version: u64,
    },
    /// A document body.
    Document {
        /// Version of the returned body.
        version: u64,
        /// The body.
        body: Bytes,
    },
    /// The document is not available.
    NotFound,
    /// Node statistics: the full telemetry snapshot (lifecycle counters and
    /// latency histograms) scraped from one node.
    Stats {
        /// The node's telemetry snapshot.
        stats: NodeStats,
    },
    /// A protocol-level failure.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The node's per-IrH beacon-load ledger: `(ring, irh, load)` entries.
    Load {
        /// Non-zero ledger entries.
        entries: Vec<(u32, u64, f64)>,
    },
    /// The node's current routing table.
    Table {
        /// The table.
        table: crate::route::RouteTable,
    },
}

fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_bytes<B: BufMut>(buf: &mut B, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

fn take_str(buf: &mut Bytes) -> Result<String, CacheCloudError> {
    let raw = take_bytes(buf)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| CacheCloudError::Protocol("invalid utf-8 in string field".into()))
}

fn take_bytes(buf: &mut Bytes) -> Result<Bytes, CacheCloudError> {
    if buf.len() < 4 {
        return Err(CacheCloudError::Protocol("truncated length prefix".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.len() < len {
        return Err(CacheCloudError::Protocol("truncated field body".into()));
    }
    Ok(buf.split_to(len))
}

fn take_u64(buf: &mut Bytes) -> Result<u64, CacheCloudError> {
    if buf.len() < 8 {
        return Err(CacheCloudError::Protocol("truncated u64".into()));
    }
    Ok(buf.get_u64())
}

fn take_u32(buf: &mut Bytes) -> Result<u32, CacheCloudError> {
    if buf.len() < 4 {
        return Err(CacheCloudError::Protocol("truncated u32".into()));
    }
    Ok(buf.get_u32())
}

fn take_f64(buf: &mut Bytes) -> Result<f64, CacheCloudError> {
    Ok(f64::from_bits(take_u64(buf)?))
}

/// Bounds-checks a decoded element count before a `Vec::with_capacity`, so a
/// hostile length prefix cannot force a huge allocation.
fn checked_len(n: usize, elem_size: usize, what: &str) -> Result<usize, CacheCloudError> {
    if n > MAX_FRAME / elem_size {
        return Err(CacheCloudError::Protocol(format!("{what} list too long")));
    }
    Ok(n)
}

fn put_histogram<B: BufMut>(buf: &mut B, h: &HistogramSnapshot) {
    buf.put_u64(h.lo.to_bits());
    buf.put_u64(h.hi.to_bits());
    buf.put_u32(h.buckets.len() as u32);
    for b in &h.buckets {
        buf.put_u64(*b);
    }
    buf.put_u64(h.underflow);
    buf.put_u64(h.overflow);
    buf.put_u64(h.count);
    buf.put_u64(h.sum.to_bits());
}

fn take_histogram(buf: &mut Bytes) -> Result<HistogramSnapshot, CacheCloudError> {
    let lo = take_f64(buf)?;
    let hi = take_f64(buf)?;
    let n = checked_len(take_u32(buf)? as usize, 8, "histogram bucket")?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push(take_u64(buf)?);
    }
    Ok(HistogramSnapshot {
        lo,
        hi,
        buckets,
        underflow: take_u64(buf)?,
        overflow: take_u64(buf)?,
        count: take_u64(buf)?,
        sum: take_f64(buf)?,
    })
}

fn put_url_batch<B: BufMut>(buf: &mut B, urls: &[String], holder: u32, table_version: u64) {
    buf.put_u32(holder);
    buf.put_u64(table_version);
    buf.put_u32(urls.len() as u32);
    for url in urls {
        put_str(buf, url);
    }
}

fn take_url_batch(buf: &mut Bytes) -> Result<(Vec<String>, u32, u64), CacheCloudError> {
    let holder = take_u32(buf)?;
    let table_version = take_u64(buf)?;
    let n = checked_len(take_u32(buf)? as usize, 4, "url batch")?;
    let mut urls = Vec::with_capacity(n);
    for _ in 0..n {
        urls.push(take_str(buf)?);
    }
    Ok((urls, holder, table_version))
}

fn put_node_stats<B: BufMut>(buf: &mut B, s: &NodeStats) {
    buf.put_u32(s.node);
    buf.put_u64(s.resident);
    buf.put_u64(s.directory_records);
    buf.put_u32(s.counters.len() as u32);
    for (name, v) in &s.counters {
        put_str(buf, name);
        buf.put_u64(*v);
    }
    buf.put_u32(s.histograms.len() as u32);
    for (name, h) in &s.histograms {
        put_str(buf, name);
        put_histogram(buf, h);
    }
}

fn take_node_stats(buf: &mut Bytes) -> Result<NodeStats, CacheCloudError> {
    let node = take_u32(buf)?;
    let resident = take_u64(buf)?;
    let directory_records = take_u64(buf)?;
    let n = checked_len(take_u32(buf)? as usize, 12, "counter")?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(buf)?;
        let v = take_u64(buf)?;
        counters.push((name, v));
    }
    let n = checked_len(take_u32(buf)? as usize, 52, "histogram")?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(buf)?;
        let h = take_histogram(buf)?;
        histograms.push((name, h));
    }
    Ok(NodeStats {
        node,
        resident,
        directory_records,
        counters,
        histograms,
    })
}

impl Request {
    /// Encodes the request body (without the outer frame length).
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::new();
        self.encode_to(&mut b);
        Bytes::from(b)
    }

    /// Encodes the request body directly into `b` (without the outer frame
    /// length). Hot paths encode straight into a reusable write buffer via
    /// [`frame_request`] instead of materialising an intermediate [`Bytes`].
    pub fn encode_to<B: BufMut>(&self, b: &mut B) {
        match self {
            Request::Ping => b.put_u8(0),
            Request::Lookup { url } => {
                b.put_u8(1);
                put_str(b, url);
            }
            Request::Register {
                url,
                holder,
                table_version,
            } => {
                b.put_u8(2);
                put_str(b, url);
                b.put_u32(*holder);
                b.put_u64(*table_version);
            }
            Request::Unregister {
                url,
                holder,
                table_version,
            } => {
                b.put_u8(3);
                put_str(b, url);
                b.put_u32(*holder);
                b.put_u64(*table_version);
            }
            Request::Get { url } => {
                b.put_u8(4);
                put_str(b, url);
            }
            Request::Serve { url } => {
                b.put_u8(5);
                put_str(b, url);
            }
            Request::Put { url, version, body } => {
                b.put_u8(6);
                put_str(b, url);
                b.put_u64(*version);
                put_bytes(b, body);
            }
            Request::Update { url, version, body } => {
                b.put_u8(7);
                put_str(b, url);
                b.put_u64(*version);
                put_bytes(b, body);
            }
            Request::Stats => b.put_u8(8),
            Request::GetLoad => b.put_u8(9),
            Request::SetRanges { table } => {
                b.put_u8(10);
                table.encode(b);
            }
            Request::GetTable => b.put_u8(11),
            Request::Adopt {
                url,
                version,
                holders,
            } => {
                b.put_u8(12);
                put_str(b, url);
                b.put_u64(*version);
                b.put_u32(holders.len() as u32);
                for h in holders {
                    b.put_u32(*h);
                }
            }
            Request::RegisterBatch {
                urls,
                holder,
                table_version,
            } => {
                b.put_u8(13);
                put_url_batch(b, urls, *holder, *table_version);
            }
            Request::UnregisterBatch {
                urls,
                holder,
                table_version,
            } => {
                b.put_u8(14);
                put_url_batch(b, urls, *holder, *table_version);
            }
            Request::Fill {
                url,
                requester,
                table_version,
            } => {
                b.put_u8(15);
                put_str(b, url);
                b.put_u32(*requester);
                b.put_u64(*table_version);
            }
        }
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`CacheCloudError::Protocol`] on truncation, trailing garbage or an
    /// unknown tag.
    pub fn decode(mut buf: Bytes) -> Result<Request, CacheCloudError> {
        if buf.is_empty() {
            return Err(CacheCloudError::Protocol("empty request frame".into()));
        }
        let tag = buf.get_u8();
        let req = match tag {
            0 => Request::Ping,
            1 => Request::Lookup {
                url: take_str(&mut buf)?,
            },
            2 => Request::Register {
                url: take_str(&mut buf)?,
                holder: take_u32(&mut buf)?,
                table_version: take_u64(&mut buf)?,
            },
            3 => Request::Unregister {
                url: take_str(&mut buf)?,
                holder: take_u32(&mut buf)?,
                table_version: take_u64(&mut buf)?,
            },
            4 => Request::Get {
                url: take_str(&mut buf)?,
            },
            5 => Request::Serve {
                url: take_str(&mut buf)?,
            },
            6 => Request::Put {
                url: take_str(&mut buf)?,
                version: take_u64(&mut buf)?,
                body: take_bytes(&mut buf)?,
            },
            7 => Request::Update {
                url: take_str(&mut buf)?,
                version: take_u64(&mut buf)?,
                body: take_bytes(&mut buf)?,
            },
            8 => Request::Stats,
            9 => Request::GetLoad,
            10 => Request::SetRanges {
                table: crate::route::RouteTable::decode(&mut buf)?,
            },
            11 => Request::GetTable,
            12 => {
                let url = take_str(&mut buf)?;
                let version = take_u64(&mut buf)?;
                let n = take_u32(&mut buf)? as usize;
                if n > MAX_FRAME / 4 {
                    return Err(CacheCloudError::Protocol("holder list too long".into()));
                }
                let mut holders = Vec::with_capacity(n);
                for _ in 0..n {
                    holders.push(take_u32(&mut buf)?);
                }
                Request::Adopt {
                    url,
                    version,
                    holders,
                }
            }
            13 => {
                let (urls, holder, table_version) = take_url_batch(&mut buf)?;
                Request::RegisterBatch {
                    urls,
                    holder,
                    table_version,
                }
            }
            14 => {
                let (urls, holder, table_version) = take_url_batch(&mut buf)?;
                Request::UnregisterBatch {
                    urls,
                    holder,
                    table_version,
                }
            }
            15 => Request::Fill {
                url: take_str(&mut buf)?,
                requester: take_u32(&mut buf)?,
                table_version: take_u64(&mut buf)?,
            },
            t => {
                return Err(CacheCloudError::Protocol(format!(
                    "unknown request tag {t}"
                )))
            }
        };
        if !buf.is_empty() {
            return Err(CacheCloudError::Protocol(
                "trailing bytes after request".into(),
            ));
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes the response body (without the outer frame length).
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::new();
        self.encode_to(&mut b);
        Bytes::from(b)
    }

    /// Encodes the response body directly into `b` (without the outer frame
    /// length). The reactor frames responses straight into each connection's
    /// write buffer via [`frame_response`].
    pub fn encode_to<B: BufMut>(&self, b: &mut B) {
        match self {
            Response::Pong => b.put_u8(0),
            Response::Ok => b.put_u8(1),
            Response::Holders { holders, version } => {
                b.put_u8(2);
                b.put_u32(holders.len() as u32);
                for h in holders {
                    b.put_u32(*h);
                }
                b.put_u64(*version);
            }
            Response::Document { version, body } => {
                b.put_u8(3);
                b.put_u64(*version);
                put_bytes(b, body);
            }
            Response::NotFound => b.put_u8(4),
            Response::Stats { stats } => {
                b.put_u8(5);
                put_node_stats(b, stats);
            }
            Response::Error { message } => {
                b.put_u8(6);
                put_str(b, message);
            }
            Response::Load { entries } => {
                b.put_u8(7);
                b.put_u32(entries.len() as u32);
                for (ring, irh, load) in entries {
                    b.put_u32(*ring);
                    b.put_u64(*irh);
                    b.put_u64(load.to_bits());
                }
            }
            Response::Table { table } => {
                b.put_u8(8);
                table.encode(b);
            }
        }
    }

    /// Decodes a response body.
    ///
    /// # Errors
    ///
    /// [`CacheCloudError::Protocol`] on truncation, trailing garbage or an
    /// unknown tag.
    pub fn decode(mut buf: Bytes) -> Result<Response, CacheCloudError> {
        if buf.is_empty() {
            return Err(CacheCloudError::Protocol("empty response frame".into()));
        }
        let tag = buf.get_u8();
        let resp = match tag {
            0 => Response::Pong,
            1 => Response::Ok,
            2 => {
                let n = take_u32(&mut buf)? as usize;
                if n > MAX_FRAME / 4 {
                    return Err(CacheCloudError::Protocol("holder list too long".into()));
                }
                let mut holders = Vec::with_capacity(n);
                for _ in 0..n {
                    holders.push(take_u32(&mut buf)?);
                }
                Response::Holders {
                    holders,
                    version: take_u64(&mut buf)?,
                }
            }
            3 => Response::Document {
                version: take_u64(&mut buf)?,
                body: take_bytes(&mut buf)?,
            },
            4 => Response::NotFound,
            5 => Response::Stats {
                stats: take_node_stats(&mut buf)?,
            },
            6 => Response::Error {
                message: take_str(&mut buf)?,
            },
            7 => {
                let n = take_u32(&mut buf)? as usize;
                if n > MAX_FRAME / 20 {
                    return Err(CacheCloudError::Protocol("load ledger too long".into()));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let ring = take_u32(&mut buf)?;
                    let irh = take_u64(&mut buf)?;
                    let load = f64::from_bits(take_u64(&mut buf)?);
                    entries.push((ring, irh, load));
                }
                Response::Load { entries }
            }
            8 => Response::Table {
                table: crate::route::RouteTable::decode(&mut buf)?,
            },
            t => {
                return Err(CacheCloudError::Protocol(format!(
                    "unknown response tag {t}"
                )))
            }
        };
        if !buf.is_empty() {
            return Err(CacheCloudError::Protocol(
                "trailing bytes after response".into(),
            ));
        }
        Ok(resp)
    }
}

/// Writes one framed message to `w`.
///
/// # Errors
///
/// Propagates I/O failures; rejects bodies larger than [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), CacheCloudError> {
    if body.len() > MAX_FRAME {
        return Err(CacheCloudError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            body.len()
        )));
    }
    // One write for prefix + body. Written separately, the 4-byte prefix
    // segment leaves first and Nagle holds the body until it is ACKed;
    // on a warm (pooled) connection the peer delays that ACK, costing
    // ~40 ms per exchange. A single write never splits a small frame.
    let mut wire = Vec::with_capacity(4 + body.len());
    wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(())
}

/// Appends one framed message (length prefix + body) to `dst` without an
/// intermediate allocation. This is the buffered-writer counterpart of
/// [`write_frame`]: the reactor accumulates frames in a per-connection
/// write buffer and flushes them with as few `write` syscalls as the
/// socket allows.
///
/// # Errors
///
/// Rejects bodies larger than [`MAX_FRAME`].
pub fn frame_into(dst: &mut Vec<u8>, body: &[u8]) -> Result<(), CacheCloudError> {
    if body.len() > MAX_FRAME {
        return Err(CacheCloudError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            body.len()
        )));
    }
    dst.reserve(4 + body.len());
    dst.extend_from_slice(&(body.len() as u32).to_be_bytes());
    dst.extend_from_slice(body);
    Ok(())
}

/// Appends a framed [`Request`] to `dst`, encoding the body directly into
/// the destination buffer: a 4-byte length placeholder goes in first and is
/// backfilled once the body length is known, so no intermediate `Bytes`
/// allocation or copy happens on the client hot path.
///
/// # Errors
///
/// Rejects encoded bodies larger than [`MAX_FRAME`]; `dst` is rolled back
/// to its original length on failure.
pub fn frame_request(dst: &mut Vec<u8>, req: &Request) -> Result<(), CacheCloudError> {
    frame_encoded(dst, |b| req.encode_to(b))
}

/// Appends a framed [`Response`] to `dst` — the server-side counterpart of
/// [`frame_request`], used by the reactor to frame responses straight into
/// each connection's write buffer.
///
/// # Errors
///
/// Rejects encoded bodies larger than [`MAX_FRAME`]; `dst` is rolled back
/// to its original length on failure.
pub fn frame_response(dst: &mut Vec<u8>, resp: &Response) -> Result<(), CacheCloudError> {
    frame_encoded(dst, |b| resp.encode_to(b))
}

fn frame_encoded(
    dst: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), CacheCloudError> {
    let prefix_at = dst.len();
    dst.extend_from_slice(&[0u8; 4]);
    encode(dst);
    let body_len = dst.len() - prefix_at - 4;
    if body_len > MAX_FRAME {
        dst.truncate(prefix_at);
        return Err(CacheCloudError::Protocol(format!(
            "frame of {body_len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    dst[prefix_at..prefix_at + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    Ok(())
}

/// How many bytes [`FrameDecoder::read_from`] asks the source for per call.
const READ_CHUNK: usize = 64 * 1024;

/// A resumable, nonblocking-friendly frame decoder.
///
/// The blocking [`read_frame`] owns the socket until a whole frame arrives;
/// a reactor cannot afford that — a `read` may deliver half a length
/// prefix, a frame and a half, or ten pipelined frames at once. The
/// decoder accumulates whatever bytes the socket had and hands back
/// complete frames as they materialise:
///
/// ```
/// use cachecloud_cluster::wire::{frame_into, FrameDecoder};
///
/// let mut wire = Vec::new();
/// frame_into(&mut wire, b"hello").unwrap();
/// let mut dec = FrameDecoder::new();
/// dec.feed(&wire[..3]); // partial prefix
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.feed(&wire[3..]);
/// assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"hello");
/// ```
///
/// Oversized length prefixes are rejected as soon as the prefix itself is
/// readable — before any body bytes are buffered — so a hostile peer
/// cannot force a [`MAX_FRAME`] allocation. The internal buffer is reused
/// across frames; consumed bytes are compacted away lazily.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the transport to the decode buffer.
    pub fn feed(&mut self, data: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(data);
    }

    /// Reads once from `r` directly into the decode buffer (no bounce
    /// buffer) and returns how many bytes arrived. `Ok(0)` means EOF; a
    /// `WouldBlock` error from a nonblocking socket is returned untouched
    /// for the caller to interpret.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `read` error.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.compact();
        let old = self.buf.len();
        self.buf.resize(old + READ_CHUNK, 0);
        let res = r.read(&mut self.buf[old..]);
        let n = *res.as_ref().unwrap_or(&0);
        self.buf.truncate(old + n);
        res
    }

    /// Pops the next complete frame, or `None` if more bytes are needed.
    /// Call repeatedly after each `feed`/`read_from`: one read can carry
    /// several pipelined frames.
    ///
    /// # Errors
    ///
    /// [`CacheCloudError::Protocol`] if the buffered length prefix exceeds
    /// [`MAX_FRAME`]. The decoder is poisoned conceptually — the stream can
    /// no longer be framed — so callers should drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, CacheCloudError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&self.buf[self.start..self.start + 4]);
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(CacheCloudError::Protocol(format!(
                "incoming frame of {len} bytes exceeds the limit"
            )));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let body = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(Bytes::from(body)))
    }

    /// True when bytes of an unfinished frame are buffered. After draining
    /// [`Self::next_frame`] to `None`, this distinguishes an EOF at a frame
    /// boundary (clean close) from one mid-frame (a severed stream).
    pub fn is_mid_frame(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Bytes currently buffered and not yet consumed by a returned frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Drops consumed bytes. Free when the buffer is fully drained (the
    /// common case: request/response traffic consumes everything); a
    /// `copy_within` otherwise, amortised by only firing once the dead
    /// prefix outweighs the live tail.
    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= READ_CHUNK || self.start > self.buf.len() - self.start {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
    }
}

/// Reads one framed message from `r`. Returns `None` on clean EOF at a
/// frame boundary; an EOF *inside* the length prefix or the body is an
/// error, so a connection that dies mid-frame (a stale pooled stream, a
/// half-forwarded proxy) is never mistaken for a graceful close.
///
/// # Errors
///
/// Propagates I/O failures; rejects frames larger than [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Bytes>, CacheCloudError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(CacheCloudError::Protocol(
                    "connection closed inside a frame length prefix".into(),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(CacheCloudError::Protocol(format!(
            "incoming frame of {len} bytes exceeds the limit"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let decoded = Request::decode(req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    fn roundtrip_response(resp: Response) {
        let decoded = Response::decode(resp.encode()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Lookup { url: "/a".into() });
        roundtrip_request(Request::Register {
            url: "/a".into(),
            holder: 7,
            table_version: 3,
        });
        roundtrip_request(Request::Unregister {
            url: "/δ/unicode".into(),
            holder: 0,
            table_version: u64::MAX,
        });
        roundtrip_request(Request::Get { url: String::new() });
        roundtrip_request(Request::Serve { url: "/s".into() });
        roundtrip_request(Request::Put {
            url: "/p".into(),
            version: u64::MAX,
            body: Bytes::from_static(b"\x00\x01\x02"),
        });
        roundtrip_request(Request::Update {
            url: "/u".into(),
            version: 3,
            body: Bytes::new(),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::GetLoad);
        roundtrip_request(Request::GetTable);
        roundtrip_request(Request::SetRanges {
            table: crate::route::RouteTable::initial(4, 2, 100),
        });
        roundtrip_request(Request::Adopt {
            url: "/adopt".into(),
            version: 42,
            holders: vec![0, 3, 1],
        });
        roundtrip_request(Request::RegisterBatch {
            urls: vec!["/a".into(), "/δ/unicode".into(), String::new()],
            holder: 2,
            table_version: 17,
        });
        roundtrip_request(Request::RegisterBatch {
            urls: vec![],
            holder: 0,
            table_version: 0,
        });
        roundtrip_request(Request::UnregisterBatch {
            urls: vec!["/victim-1".into(), "/victim-2".into()],
            holder: u32::MAX,
            table_version: 9,
        });
        roundtrip_request(Request::UnregisterBatch {
            urls: vec![String::new()],
            holder: 1,
            table_version: u64::MAX,
        });
        roundtrip_request(Request::Fill {
            url: "/fill".into(),
            requester: 3,
            table_version: 5,
        });
        roundtrip_request(Request::Fill {
            url: "/δ/unicode".into(),
            requester: u32::MAX,
            table_version: u64::MAX,
        });
    }

    #[test]
    fn fill_decode_rejects_truncation_and_garbage() {
        let full = Request::Fill {
            url: "/fill/me".into(),
            requester: 2,
            table_version: 9,
        }
        .encode();
        // Every strict prefix must be rejected, never panic or mis-decode.
        for cut in 1..full.len() {
            assert!(
                Request::decode(full.slice(0..cut)).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage after a complete Fill body.
        let mut buf = Vec::new();
        buf.put_slice(&full);
        buf.put_u8(0xEE);
        assert!(Request::decode(Bytes::from(buf)).is_err());
        // Invalid UTF-8 in the URL.
        let mut buf = Vec::new();
        buf.put_u8(15);
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        buf.put_u32(2);
        buf.put_u64(9);
        assert!(Request::decode(Bytes::from(buf)).is_err());
        // A URL length prefix longer than the frame.
        let mut buf = Vec::new();
        buf.put_u8(15);
        buf.put_u32(u32::MAX);
        assert!(Request::decode(Bytes::from(buf)).is_err());
        assert!(Request::decode(full).is_ok());
    }

    #[test]
    fn batch_decode_rejects_truncation_and_garbage() {
        let full = Request::UnregisterBatch {
            urls: vec!["/a".into(), "/bb".into(), "/ccc".into()],
            holder: 3,
            table_version: 12,
        }
        .encode();
        // Every strict prefix must be rejected, never panic or mis-decode.
        for cut in 1..full.len() {
            assert!(
                Request::decode(full.slice(0..cut)).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage after a complete batch body.
        let mut buf = Vec::new();
        buf.put_slice(&full);
        buf.put_u8(0xEE);
        assert!(Request::decode(Bytes::from(buf)).is_err());
        // A hostile URL count must not force a huge allocation.
        for tag in [13u8, 14] {
            let mut buf = Vec::new();
            buf.put_u8(tag);
            buf.put_u32(1); // holder
            buf.put_u64(2); // table_version
            buf.put_u32(u32::MAX); // url count
            assert!(Request::decode(Bytes::from(buf)).is_err());
        }
        // Invalid UTF-8 inside a batched URL.
        let mut buf = Vec::new();
        buf.put_u8(13);
        buf.put_u32(1);
        buf.put_u64(2);
        buf.put_u32(1);
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(Request::decode(Bytes::from(buf)).is_err());
        // Sanity: the untouched encoding still decodes, and RegisterBatch
        // shares the layout under its own tag.
        assert!(Request::decode(full).is_ok());
        let reg = Request::RegisterBatch {
            urls: vec!["/a".into()],
            holder: 3,
            table_version: 12,
        };
        assert_eq!(Request::decode(reg.encode()).unwrap(), reg);
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Holders {
            holders: vec![1, 2, 3],
            version: 9,
        });
        roundtrip_response(Response::Holders {
            holders: vec![],
            version: 0,
        });
        roundtrip_response(Response::Document {
            version: 5,
            body: Bytes::from(vec![9u8; 10_000]),
        });
        roundtrip_response(Response::NotFound);
        roundtrip_response(Response::Stats {
            stats: NodeStats {
                node: 7,
                resident: 1,
                directory_records: 2,
                counters: vec![("local_hits".into(), 3), ("requests".into(), 9)],
                histograms: vec![(
                    "rpc_ms".into(),
                    HistogramSnapshot {
                        lo: 0.0,
                        hi: 250.0,
                        buckets: vec![4, 0, 1],
                        underflow: 0,
                        overflow: 2,
                        count: 7,
                        sum: 123.5,
                    },
                )],
            },
        });
        roundtrip_response(Response::Stats {
            stats: NodeStats::default(),
        });
        roundtrip_response(Response::Error {
            message: "boom".into(),
        });
        roundtrip_response(Response::Load {
            entries: vec![(0, 17, 3.5), (1, 999, 0.25)],
        });
        roundtrip_response(Response::Load { entries: vec![] });
        roundtrip_response(Response::Table {
            table: crate::route::RouteTable::initial(10, 5, 1000),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(Bytes::new()).is_err());
        assert!(Request::decode(Bytes::from_static(&[99])).is_err());
        assert!(Response::decode(Bytes::from_static(&[99])).is_err());
        // Truncated string length.
        assert!(Request::decode(Bytes::from_static(&[1, 0, 0])).is_err());
        // A Fill missing its requester and table version.
        assert!(Request::decode(Bytes::from_static(&[15, 0, 0, 0, 1, b'x'])).is_err());
        // Length prefix longer than payload.
        assert!(Request::decode(Bytes::from_static(&[1, 0, 0, 0, 9, b'x'])).is_err());
        // Trailing garbage.
        let mut buf = Vec::new();
        buf.put_slice(&Request::Ping.encode());
        buf.put_u8(0xFF);
        assert!(Request::decode(Bytes::from(buf)).is_err());
    }

    #[test]
    fn stats_decode_rejects_truncation_and_garbage() {
        let stats = NodeStats {
            node: 3,
            resident: 10,
            directory_records: 4,
            counters: vec![("requests".into(), 11)],
            histograms: vec![(
                "serve_ms".into(),
                HistogramSnapshot {
                    lo: 0.0,
                    hi: 100.0,
                    buckets: vec![1, 2],
                    underflow: 0,
                    overflow: 0,
                    count: 3,
                    sum: 42.0,
                },
            )],
        };
        let full = Response::Stats {
            stats: stats.clone(),
        }
        .encode();
        // Every strict prefix must be rejected, never panic or mis-decode.
        for cut in 1..full.len() {
            assert!(
                Response::decode(full.slice(0..cut)).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage after a complete Stats body.
        let mut buf = Vec::new();
        buf.put_slice(&full);
        buf.put_u8(0);
        assert!(Response::decode(Bytes::from(buf)).is_err());
        // A hostile counter count must not force a huge allocation.
        let mut buf = Vec::new();
        buf.put_u8(5);
        buf.put_u32(3);
        buf.put_u64(0);
        buf.put_u64(0);
        buf.put_u32(u32::MAX);
        assert!(Response::decode(Bytes::from(buf)).is_err());
        // Sanity: the untouched encoding still decodes.
        assert_eq!(Response::decode(full).unwrap(), Response::Stats { stats });
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Lookup { url: "/x".into() }.encode()).unwrap();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let f1 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(
            Request::decode(f1).unwrap(),
            Request::Lookup { url: "/x".into() }
        );
        let f2 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(f2).unwrap(), Request::Stats);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn many_sequential_exchanges_share_one_stream() {
        // The property the connection pool depends on: N alternating
        // request/response frames over a single byte stream, each framed
        // independently, ending in a clean EOF.
        let requests: Vec<Request> = (0..8)
            .map(|i| Request::Serve {
                url: format!("/doc/{i}"),
            })
            .collect();
        let mut wire = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            write_frame(&mut wire, &req.encode()).unwrap();
            let resp = Response::Document {
                version: i as u64,
                body: Bytes::from(vec![i as u8; 100 * (i + 1)]),
            };
            write_frame(&mut wire, &resp.encode()).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for (i, req) in requests.iter().enumerate() {
            let f = read_frame(&mut cursor).unwrap().expect("request frame");
            assert_eq!(&Request::decode(f).unwrap(), req, "exchange {i}");
            let f = read_frame(&mut cursor).unwrap().expect("response frame");
            match Response::decode(f).unwrap() {
                Response::Document { version, body } => {
                    assert_eq!(version, i as u64);
                    assert_eq!(body.len(), 100 * (i + 1));
                }
                other => panic!("exchange {i}: unexpected {other:?}"),
            }
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_second_frame_fails_only_the_second_read() {
        // A reused connection that dies mid-second-frame must deliver the
        // first frame intact and surface an error (not a clean EOF, not a
        // mis-framed success) on the second.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Response::Pong.encode()).unwrap();
        let second = Response::Document {
            version: 9,
            body: Bytes::from(vec![7u8; 64]),
        }
        .encode();
        wire.extend_from_slice(&(second.len() as u32).to_be_bytes());
        wire.extend_from_slice(&second[..second.len() / 2]); // half a body
        let mut cursor = std::io::Cursor::new(wire);
        let f1 = read_frame(&mut cursor).unwrap().expect("first frame");
        assert_eq!(Response::decode(f1).unwrap(), Response::Pong);
        assert!(
            read_frame(&mut cursor).is_err(),
            "truncated second frame must be an error, not EOF"
        );
    }

    #[test]
    fn frame_cut_inside_second_length_prefix_is_clean_eof_vs_error() {
        // Dying exactly at a frame boundary is a clean EOF; dying inside
        // the next length prefix is not.
        let mut at_boundary = Vec::new();
        write_frame(&mut at_boundary, &Response::Ok.encode()).unwrap();
        let mut mid_prefix = at_boundary.clone();
        mid_prefix.extend_from_slice(&[0u8, 0]); // 2 of 4 length bytes
        let mut cursor = std::io::Cursor::new(at_boundary);
        read_frame(&mut cursor).unwrap().expect("first frame");
        assert!(read_frame(&mut cursor).unwrap().is_none());
        let mut cursor = std::io::Cursor::new(mid_prefix);
        read_frame(&mut cursor).unwrap().expect("first frame");
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frames_rejected_on_both_sides() {
        let big = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &big).is_err());
        let mut header = Vec::new();
        header.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        let mut cursor = std::io::Cursor::new(header);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn truncated_frame_body_is_an_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(b"shrt");
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn frame_into_matches_write_frame() {
        let bodies: [&[u8]; 3] = [b"", b"x", &[7u8; 300]];
        for body in bodies {
            let mut blocking = Vec::new();
            write_frame(&mut blocking, body).unwrap();
            let mut buffered = Vec::new();
            frame_into(&mut buffered, body).unwrap();
            assert_eq!(blocking, buffered);
        }
        // Appends, never clears: two frames accumulate in one buffer.
        let mut acc = Vec::new();
        frame_into(&mut acc, b"a").unwrap();
        frame_into(&mut acc, b"bb").unwrap();
        assert_eq!(acc.len(), (4 + 1) + (4 + 2));
        // And the oversized check still applies.
        assert!(frame_into(&mut Vec::new(), &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn frame_request_and_response_match_the_two_step_encoding() {
        let req = Request::Put {
            url: "/a".into(),
            version: 9,
            body: Bytes::from(vec![1, 2, 3]),
        };
        let mut direct = Vec::new();
        frame_request(&mut direct, &req).unwrap();
        let mut two_step = Vec::new();
        frame_into(&mut two_step, &req.encode()).unwrap();
        assert_eq!(direct, two_step);

        let resp = Response::Document {
            version: 9,
            body: Bytes::from(vec![4, 5]),
        };
        let mut direct = Vec::new();
        frame_response(&mut direct, &resp).unwrap();
        let mut two_step = Vec::new();
        frame_into(&mut two_step, &resp.encode()).unwrap();
        assert_eq!(direct, two_step);
    }

    #[test]
    fn frame_request_rolls_back_the_buffer_on_an_oversized_body() {
        let req = Request::Put {
            url: "/big".into(),
            version: 1,
            body: Bytes::from(vec![0u8; MAX_FRAME]),
        };
        let mut dst = vec![7u8, 7, 7];
        assert!(frame_request(&mut dst, &req).is_err());
        assert_eq!(dst, vec![7u8, 7, 7], "failed frame leaves no partial bytes");
    }

    #[test]
    fn decoder_handles_partial_prefix() {
        let mut wire = Vec::new();
        frame_into(&mut wire, b"payload").unwrap();
        let mut dec = FrameDecoder::new();
        // 1, then 2, then the last byte of the 4-byte prefix.
        dec.feed(&wire[..1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.is_mid_frame());
        dec.feed(&wire[1..3]);
        assert!(dec.next_frame().unwrap().is_none());
        dec.feed(&wire[3..4]);
        assert!(
            dec.next_frame().unwrap().is_none(),
            "prefix alone is not a frame"
        );
        assert!(dec.is_mid_frame());
        dec.feed(&wire[4..]);
        let frame = dec.next_frame().unwrap().expect("complete frame");
        assert_eq!(&frame[..], b"payload");
        assert!(!dec.is_mid_frame(), "boundary after the frame is clean");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_handles_partial_body() {
        let body = Response::Document {
            version: 3,
            body: Bytes::from(vec![0xAB; 1000]),
        }
        .encode();
        let mut wire = Vec::new();
        frame_into(&mut wire, &body).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() / 2]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.is_mid_frame(), "half a body is mid-frame");
        dec.feed(&wire[wire.len() / 2..]);
        let frame = dec.next_frame().unwrap().expect("complete frame");
        assert_eq!(
            Response::decode(frame).unwrap(),
            Response::Document {
                version: 3,
                body: Bytes::from(vec![0xAB; 1000]),
            }
        );
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.is_mid_frame());
    }

    #[test]
    fn decoder_reassembles_pipelined_frames_at_every_split_boundary() {
        // Five pipelined frames of varying sizes in one byte stream; for
        // every possible split point, feed the two halves separately and
        // demand the identical frame sequence. This sweeps every "read()
        // returned a weird amount" case the reactor can see.
        let frames: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            vec![0x55; 37],
            Request::Serve {
                url: "/pipelined".into(),
            }
            .encode()
            .to_vec(),
            vec![0xFF; 256],
        ];
        let mut wire = Vec::new();
        for f in &frames {
            frame_into(&mut wire, f).unwrap();
        }
        for split in 0..=wire.len() {
            let mut dec = FrameDecoder::new();
            let mut out: Vec<Bytes> = Vec::new();
            for half in [&wire[..split], &wire[split..]] {
                dec.feed(half);
                while let Some(f) = dec.next_frame().unwrap() {
                    out.push(f);
                }
            }
            assert_eq!(out.len(), frames.len(), "split at {split}");
            for (got, want) in out.iter().zip(&frames) {
                assert_eq!(&got[..], &want[..], "split at {split}");
            }
            assert!(!dec.is_mid_frame(), "split at {split}: clean boundary");
        }
    }

    #[test]
    fn decoder_survives_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        for i in 0..4u8 {
            frame_into(&mut wire, &vec![i; (i as usize + 1) * 3]).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out.len(), 4);
        for (i, f) in out.iter().enumerate() {
            assert_eq!(&f[..], &vec![i as u8; (i + 1) * 3][..]);
        }
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_buffering_a_body() {
        let mut dec = FrameDecoder::new();
        dec.feed(&((MAX_FRAME + 1) as u32).to_be_bytes());
        // Rejected on the prefix alone — no body bytes were ever needed.
        assert!(dec.next_frame().is_err());
        // The stream is unframeable; the error is sticky on retry too.
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_read_from_pulls_pipelined_frames_off_a_stream() {
        let mut wire = Vec::new();
        frame_into(&mut wire, &Request::Ping.encode()).unwrap();
        frame_into(&mut wire, &Request::Stats.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut dec = FrameDecoder::new();
        let n = dec.read_from(&mut cursor).unwrap();
        assert!(n > 0);
        assert_eq!(
            Request::decode(dec.next_frame().unwrap().unwrap()).unwrap(),
            Request::Ping
        );
        assert_eq!(
            Request::decode(dec.next_frame().unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.read_from(&mut cursor).unwrap(), 0, "EOF");
        assert!(!dec.is_mid_frame(), "EOF at a boundary is a clean close");
    }

    #[test]
    fn decoder_buffer_compacts_across_many_frames() {
        // Long-lived connections must not grow the decode buffer without
        // bound: push far more frame bytes than READ_CHUNK through one
        // decoder with a straggling partial frame in between.
        let mut dec = FrameDecoder::new();
        let payload = vec![9u8; 4096];
        let mut wire = Vec::new();
        frame_into(&mut wire, &payload).unwrap();
        for _ in 0..64 {
            // Feed one frame plus the first 3 bytes of the next.
            dec.feed(&wire);
            dec.feed(&wire[..3]);
            assert_eq!(&dec.next_frame().unwrap().unwrap()[..], &payload[..]);
            assert!(dec.next_frame().unwrap().is_none());
            assert!(dec.is_mid_frame());
            dec.feed(&wire[3..]);
            assert_eq!(&dec.next_frame().unwrap().unwrap()[..], &payload[..]);
            assert!(!dec.is_mid_frame());
            assert!(
                dec.buf.capacity() < 16 * wire.len(),
                "decode buffer must stay bounded, got {}",
                dec.buf.capacity()
            );
        }
    }
}
