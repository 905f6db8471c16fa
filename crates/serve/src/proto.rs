//! The daemon's wire protocol: length-prefixed frames carrying requests
//! and responses in the workspace's hand-rolled codec.
//!
//! A frame is a little-endian `u32` payload length followed by that many
//! payload bytes, capped at [`MAX_FRAME`] (a hostile length prefix must
//! not drive an allocation). Payloads encode with
//! [`oha_store::Writer`]/[`oha_store::Reader`], so the same truncation
//! and bad-tag discipline the on-disk artifacts enjoy applies on the
//! wire: decoding is total over arbitrary bytes.

use std::io::{self, Read, Write as IoWrite};

use oha_ir::{Fingerprint, FingerprintHasher};
use oha_store::{CodecError, Reader, Writer};

/// Upper bound on one frame's payload (16 MiB — a whole benchmark
/// program in IR text plus corpora fits with room to spare).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Which pipeline a request drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// Optimistic FastTrack race detection.
    OptFt,
    /// Optimistic dynamic backward slicing.
    OptSlice,
}

impl Tool {
    fn tag(self) -> u8 {
        match self {
            Tool::OptFt => 1,
            Tool::OptSlice => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Tool::OptFt),
            2 => Some(Tool::OptSlice),
            _ => None,
        }
    }

    /// The tool's protocol name (`optft` / `optslice`).
    pub fn name(self) -> &'static str {
        match self {
            Tool::OptFt => "optft",
            Tool::OptSlice => "optslice",
        }
    }
}

/// The shape the `metrics` op answers in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// A JSON snapshot of live gauges, counters and latency histograms.
    Json,
    /// Prometheus-style text exposition (`# TYPE ...` plus samples).
    Prometheus,
}

impl MetricsFormat {
    fn tag(self) -> u8 {
        match self {
            MetricsFormat::Json => 0,
            MetricsFormat::Prometheus => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(MetricsFormat::Json),
            1 => Some(MetricsFormat::Prometheus),
            _ => None,
        }
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a full pipeline on a program shipped as IR text.
    Analyze {
        /// Which pipeline to run.
        tool: Tool,
        /// The program in IR text form ([`oha_ir::parse_program`]).
        program: String,
        /// Profiling corpus.
        profiling: Vec<Vec<i64>>,
        /// Testing corpus.
        testing: Vec<Vec<i64>>,
        /// Slice endpoints (raw instruction ids) for
        /// [`Tool::OptSlice`]. Empty means "every `output` instruction"
        /// (resolved server-side); ignored for [`Tool::OptFt`].
        endpoints: Vec<u32>,
        /// Client-chosen trace ID linking this request's server-side
        /// trace events; 0 asks the daemon to mint one. Echoed back in
        /// [`Response::trace_id`].
        trace_id: u64,
    },
    /// Ask for daemon and store statistics as JSON.
    Stats,
    /// Ask for live telemetry (gauges, counters, latency histograms).
    Metrics {
        /// JSON snapshot or Prometheus text exposition.
        format: MetricsFormat,
    },
    /// Graceful drain: finish in-flight requests, then exit.
    Shutdown,
}

const OP_ANALYZE: u8 = 1;
const OP_STATS: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_METRICS: u8 = 6;

/// Width of the trace ID that ends every analyze payload.
const TRACE_ID_LEN: usize = 8;

/// Whether `payload` carries an analyze request, judged by its op byte
/// alone — the payload may still fail to decode.
pub fn is_analyze_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&OP_ANALYZE)
}

/// Whether `payload` carries a shutdown request, judged by its op byte.
pub(crate) fn is_shutdown_payload(payload: &[u8]) -> bool {
    payload.first() == Some(&OP_SHUTDOWN)
}

/// The cache key of an encoded request, computed from its payload
/// without decoding or re-encoding it: the bytes stream through
/// [`FingerprintHasher`], with the trailing trace ID of an analyze
/// payload fed as zeros. For every decodable request this equals
/// `Fingerprint::of_bytes(&request.cache_key_bytes())`, so LRU keys,
/// shard homes and retry jitter agree whichever form a hop holds. Total
/// over arbitrary bytes; an undecodable payload just gets some key.
pub fn cache_key_of_payload(payload: &[u8]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    if is_analyze_payload(payload) && payload.len() > TRACE_ID_LEN {
        let (body, _trace_id) = payload.split_at(payload.len() - TRACE_ID_LEN);
        h.write(body);
        h.write(&[0; TRACE_ID_LEN]);
    } else {
        h.write(payload);
    }
    h.finish()
}

impl Request {
    /// Serializes the request payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Analyze {
                tool,
                program,
                profiling,
                testing,
                endpoints,
                trace_id,
            } => {
                w.put_u8(OP_ANALYZE);
                w.put_u8(tool.tag());
                w.put_str(program);
                put_corpus(&mut w, profiling);
                put_corpus(&mut w, testing);
                w.put_usize(endpoints.len());
                for &e in endpoints {
                    w.put_u32(e);
                }
                w.put_u64(*trace_id);
            }
            Request::Stats => w.put_u8(OP_STATS),
            Request::Metrics { format } => {
                w.put_u8(OP_METRICS);
                w.put_u8(format.tag());
            }
            Request::Shutdown => w.put_u8(OP_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// The request's encoding with the trace ID zeroed — the daemon's
    /// LRU cache key, so identical analyses stay byte-identical (and
    /// deduplicate) no matter which trace each one rides in. Hops that
    /// hold the encoded payload fingerprint it with
    /// [`cache_key_of_payload`], which gives the same key.
    pub fn cache_key_bytes(&self) -> Vec<u8> {
        match self {
            Request::Analyze { trace_id, .. } if *trace_id != 0 => {
                let mut normalized = self.clone();
                if let Request::Analyze { trace_id, .. } = &mut normalized {
                    *trace_id = 0;
                }
                normalized.encode()
            }
            _ => self.encode(),
        }
    }

    /// Decodes a request payload; total over arbitrary bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let op = r.get_u8()?;
        let req = match op {
            OP_ANALYZE => {
                let tool_tag = r.get_u8()?;
                let tool = Tool::from_tag(tool_tag).ok_or(CodecError::BadTag(tool_tag))?;
                let program = r.get_str()?.to_string();
                let profiling = get_corpus(&mut r)?;
                let testing = get_corpus(&mut r)?;
                let n = r.get_len(4)?;
                let mut endpoints = Vec::with_capacity(n);
                for _ in 0..n {
                    endpoints.push(r.get_u32()?);
                }
                let trace_id = r.get_u64()?;
                Request::Analyze {
                    tool,
                    program,
                    profiling,
                    testing,
                    endpoints,
                    trace_id,
                }
            }
            OP_STATS => Request::Stats,
            OP_METRICS => {
                let tag = r.get_u8()?;
                let format = MetricsFormat::from_tag(tag).ok_or(CodecError::BadTag(tag))?;
                Request::Metrics { format }
            }
            OP_SHUTDOWN => Request::Shutdown,
            _ => return Err(CodecError::BadTag(op)),
        };
        if !r.is_done() {
            return Err(CodecError::BadLength(r.remaining() as u64));
        }
        Ok(req)
    }
}

/// One daemon response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// `false` means `body` is an error message, not a result.
    pub ok: bool,
    /// The daemon shed this request at its queue bound (always with
    /// `ok == false`): the request was *not* processed, and an
    /// idempotent client should back off and retry rather than report
    /// a failure.
    pub busy: bool,
    /// Canonical result JSON (analyze), stats JSON, or an error message.
    pub body: String,
    /// Whether the response was served from the daemon's in-memory LRU
    /// front (the body is byte-identical either way).
    pub cached: bool,
    /// Server-side wall-clock nanoseconds spent on this request.
    pub elapsed_ns: u64,
    /// The trace ID this request's server-side events were recorded
    /// under (the client's, or daemon-minted when the client sent 0;
    /// 0 when tracing is disabled).
    pub trace_id: u64,
}

/// Wire tag for a busy (shed) response — distinct from plain errors so
/// clients can apply the retry-with-backoff rule only where it is safe.
const STATUS_ERR: u8 = 0;
const STATUS_OK: u8 = 1;
const STATUS_BUSY: u8 = 2;

impl Response {
    /// A successful response.
    pub fn ok(body: impl Into<String>) -> Self {
        Response {
            ok: true,
            busy: false,
            body: body.into(),
            cached: false,
            elapsed_ns: 0,
            trace_id: 0,
        }
    }

    /// An error response.
    pub fn err(message: impl Into<String>) -> Self {
        Response {
            ok: false,
            busy: false,
            body: message.into(),
            cached: false,
            elapsed_ns: 0,
            trace_id: 0,
        }
    }

    /// A load-shed response: the daemon's queue is at its bound and the
    /// request was refused *before* any processing.
    pub fn busy(message: impl Into<String>) -> Self {
        Response {
            ok: false,
            busy: true,
            body: message.into(),
            cached: false,
            elapsed_ns: 0,
            trace_id: 0,
        }
    }

    /// Serializes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(if self.busy {
            STATUS_BUSY
        } else if self.ok {
            STATUS_OK
        } else {
            STATUS_ERR
        });
        w.put_str(&self.body);
        w.put_u8(u8::from(self.cached));
        w.put_u64(self.elapsed_ns);
        w.put_u64(self.trace_id);
        w.into_bytes()
    }

    /// Decodes a response payload; total over arbitrary bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let (ok, busy) = match r.get_u8()? {
            STATUS_ERR => (false, false),
            STATUS_OK => (true, false),
            STATUS_BUSY => (false, true),
            t => return Err(CodecError::BadTag(t)),
        };
        let body = r.get_str()?.to_string();
        let cached = match r.get_u8()? {
            0 => false,
            1 => true,
            t => return Err(CodecError::BadTag(t)),
        };
        let elapsed_ns = r.get_u64()?;
        let trace_id = r.get_u64()?;
        if !r.is_done() {
            return Err(CodecError::BadLength(r.remaining() as u64));
        }
        Ok(Response {
            ok,
            busy,
            body,
            cached,
            elapsed_ns,
            trace_id,
        })
    }
}

fn put_corpus(w: &mut Writer, corpus: &[Vec<i64>]) {
    w.put_usize(corpus.len());
    for input in corpus {
        w.put_usize(input.len());
        for &v in input {
            w.put_i64(v);
        }
    }
}

fn get_corpus(r: &mut Reader<'_>) -> Result<Vec<Vec<i64>>, CodecError> {
    let n = r.get_len(8)?;
    let mut corpus = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.get_len(8)?;
        let mut input = Vec::with_capacity(len);
        for _ in 0..len {
            input.push(r.get_i64()?);
        }
        corpus.push(input);
    }
    Ok(corpus)
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl IoWrite, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer hung up); oversized or truncated frames
/// are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_analyze() -> Request {
        Request::Analyze {
            tool: Tool::OptSlice,
            program: "func @main() {\n}\n".to_string(),
            profiling: vec![vec![1, 2], vec![-3]],
            testing: vec![vec![], vec![i64::MIN, i64::MAX]],
            endpoints: vec![7, 42],
            trace_id: 99,
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            sample_analyze(),
            Request::Stats,
            Request::Metrics {
                format: MetricsFormat::Json,
            },
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Shutdown,
        ] {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response {
            ok: true,
            busy: false,
            body: "{\"tool\":\"optft\"}".to_string(),
            cached: true,
            elapsed_ns: 123_456,
            trace_id: 7,
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn busy_responses_round_trip_and_read_as_failures() {
        let resp = Response::busy("queue full: 64 jobs pending");
        assert!(!resp.ok, "busy is not success — scripts must fail closed");
        assert!(resp.busy);
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded, resp);
        // Plain errors stay non-busy on the wire.
        let err = Response::decode(&Response::err("boom").encode()).unwrap();
        assert!(!err.ok && !err.busy);
    }

    #[test]
    fn cache_key_ignores_the_trace_id() {
        let traced = sample_analyze();
        let mut untraced = traced.clone();
        if let Request::Analyze { trace_id, .. } = &mut untraced {
            *trace_id = 0;
        }
        assert_ne!(traced.encode(), untraced.encode());
        assert_eq!(traced.cache_key_bytes(), untraced.cache_key_bytes());
        assert_eq!(untraced.cache_key_bytes(), untraced.encode());
        // Non-analyze ops key on their plain encoding.
        assert_eq!(Request::Stats.cache_key_bytes(), Request::Stats.encode());
    }

    /// The payload-side key must equal the decoded-side definition for
    /// every request shape; this is what catches a codec change that
    /// moves the trace ID off the end of the analyze payload.
    #[test]
    fn payload_cache_key_matches_cache_key_bytes() {
        let mut requests = vec![
            Request::Stats,
            Request::Metrics {
                format: MetricsFormat::Json,
            },
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Shutdown,
        ];
        for tool in [Tool::OptFt, Tool::OptSlice] {
            for trace_id in [0, 1, u64::MAX] {
                for (endpoints, profiling, testing) in [
                    (vec![], vec![], vec![]),
                    (
                        vec![7, 42],
                        vec![vec![1, 2], vec![-3]],
                        vec![vec![], vec![i64::MIN]],
                    ),
                ] {
                    requests.push(Request::Analyze {
                        tool,
                        program: "func @main() {\n}\n".to_string(),
                        profiling,
                        testing,
                        endpoints,
                        trace_id,
                    });
                }
            }
        }
        for req in &requests {
            assert_eq!(
                cache_key_of_payload(&req.encode()),
                Fingerprint::of_bytes(&req.cache_key_bytes()),
                "{req:?}"
            );
        }
    }

    #[test]
    fn payload_cache_key_is_total_over_short_analyze_payloads() {
        for len in 0..=TRACE_ID_LEN {
            let mut payload = vec![0xA5; len];
            if let Some(op) = payload.first_mut() {
                *op = OP_ANALYZE;
            }
            let _ = cache_key_of_payload(&payload);
            assert!(Request::decode(&payload).is_err(), "len {len}");
        }
    }

    #[test]
    fn truncated_requests_never_panic() {
        let bytes = sample_analyze().encode();
        for cut in 0..bytes.len() {
            assert!(Request::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Request::Stats.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }
}
