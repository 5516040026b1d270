//! The `lgend` wire protocol: length-prefixed frames over a Unix socket.
//!
//! A connection carries a sequence of request/response exchanges in
//! lockstep (no pipelining — the client waits for each response). Each
//! direction uses the same **frame** format:
//!
//! ```text
//! [u32 LE payload length][payload bytes]
//! ```
//!
//! A frame longer than `MAX_FRAME` is a protocol error and the server
//! closes the connection — the length prefix is attacker-controlled input
//! and must never size an allocation unchecked.
//!
//! The payload is text, structured like a minimal HTTP/1 message:
//!
//! ```text
//! <verb line>\n
//! <key>: <value>\n
//! ...\n
//! \n
//! <body: LL program source (requests) / C source or report (responses)>
//! ```
//!
//! Request verbs are `compile`, `tune`, `stats`, `dump`, `ping`, and
//! `shutdown`; response verb lines are `ok` or `error <kind>` where
//! `kind` ∈ {`busy`, `bad-request`, `compile-failed`, `shutting-down`,
//! `internal`}. Unknown header keys are ignored on both sides so the
//! format can grow without breaking older peers.
//!
//! `stats` with a `format: json` header answers with the stable-order
//! JSON stats document instead of the text report; `dump` answers with
//! the flight recorder's JSON (`lgen-cli tail` renders it).
//!
//! Header semantics (requests): `tenant` names the fairness lane
//! (default `anon`), `name` the kernel symbol, `target` the ISA
//! (`atom|cortex-a8|cortex-a9|arm1176`), `variant` the paper config
//! (`base|align|mvm|full`), `passes` an optional pass-pipeline spec.
//! `compile` compiles the body as an LL program; `tune` does the same but
//! autotunes the unroll genome first (bounded, deterministic seed).
//! Responses carry `fingerprint`, `outcome`
//! (`memory|disk|compiled|coalesced`), and `wall_us` so clients and the
//! replay harness can account hits without scraping global metrics.

use lgen_isa::Microarch;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Hard cap on a frame payload (1 MiB): larger LL programs than this are
/// far outside the paper's problem sizes, and the prefix must not be able
/// to size an unchecked allocation.
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// Request verbs the daemon understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Compile the LL program in the body; respond with the C source.
    Compile,
    /// Compile with a bounded joint unroll-genome autotune first.
    Tune,
    /// Respond with a metrics/cache report (no body in the request).
    /// A `format: json` header selects the stable-order JSON document.
    Stats,
    /// Respond with the flight recorder's retained request records
    /// (JSON body; see `lgen_serve::recorder`).
    Dump,
    /// Liveness probe; echoes back.
    Ping,
    /// Drain and stop the daemon.
    Shutdown,
}

impl Verb {
    fn parse(s: &str) -> Option<Verb> {
        Some(match s {
            "compile" => Verb::Compile,
            "tune" => Verb::Tune,
            "stats" => Verb::Stats,
            "dump" => Verb::Dump,
            "ping" => Verb::Ping,
            "shutdown" => Verb::Shutdown,
            _ => return None,
        })
    }

    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Compile => "compile",
            Verb::Tune => "tune",
            Verb::Stats => "stats",
            Verb::Dump => "dump",
            Verb::Ping => "ping",
            Verb::Shutdown => "shutdown",
        }
    }
}

/// A parsed request message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub verb: Verb,
    /// Headers in arrival order (later duplicates win on lookup).
    pub headers: BTreeMap<String, String>,
    /// LL program source for `compile`/`tune`; empty otherwise.
    pub body: String,
}

impl Request {
    /// A request with no headers or body.
    pub fn new(verb: Verb) -> Request {
        Request {
            verb,
            headers: BTreeMap::new(),
            body: String::new(),
        }
    }

    /// Sets a header (builder style).
    pub fn with(mut self, key: &str, value: &str) -> Request {
        self.headers.insert(key.to_string(), value.to_string());
        self
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: &str) -> Request {
        self.body = body.to_string();
        self
    }

    /// The fairness lane this request bills to.
    pub fn tenant(&self) -> &str {
        self.headers
            .get("tenant")
            .map(String::as_str)
            .unwrap_or("anon")
    }

    /// The kernel symbol name.
    pub(crate) fn kernel_name(&self) -> &str {
        self.headers
            .get("name")
            .map(String::as_str)
            .unwrap_or("kernel")
    }

    /// The target microarchitecture (`atom` if unspecified).
    pub fn target(&self) -> Result<Microarch, ProtoError> {
        match self.headers.get("target").map(String::as_str) {
            None | Some("atom") => Ok(Microarch::Atom),
            Some("cortex-a8") => Ok(Microarch::CortexA8),
            Some("cortex-a9") => Ok(Microarch::CortexA9),
            Some("arm1176") => Ok(Microarch::Arm1176),
            Some(other) => Err(ProtoError::Malformed(format!("unknown target {other:?}"))),
        }
    }

    /// Serializes into a frame payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        encode_message(self.verb.as_str(), &self.headers, &self.body)
    }

    /// Parses a frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let (verb_line, headers, body) = decode_message(payload)?;
        let verb = Verb::parse(&verb_line)
            .ok_or_else(|| ProtoError::Malformed(format!("unknown verb {verb_line:?}")))?;
        Ok(Request {
            verb,
            headers,
            body,
        })
    }
}

/// Error kinds a response can carry (the `error <kind>` verb line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission queue full; retry with backoff.
    Busy,
    /// The request could not be parsed or named an unknown option.
    BadRequest,
    /// The LL program failed to parse, verify, or compile.
    CompileFailed,
    /// The daemon is draining; do not retry against this socket.
    ShuttingDown,
    /// A bug: the handler panicked (contained) or an invariant broke.
    Internal,
}

impl ErrorKind {
    fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "busy" => ErrorKind::Busy,
            "bad-request" => ErrorKind::BadRequest,
            "compile-failed" => ErrorKind::CompileFailed,
            "shutting-down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::CompileFailed => "compile-failed",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A parsed response message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// `None` = ok; `Some(kind)` = error.
    pub error: Option<ErrorKind>,
    /// Headers (e.g. `outcome`, `fingerprint`, `wall_us`).
    pub headers: BTreeMap<String, String>,
    /// C source (`compile`/`tune`), report text (`stats`), or a
    /// human-readable error message.
    pub body: String,
}

impl Response {
    /// A success response with the given body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response {
            error: None,
            headers: BTreeMap::new(),
            body: body.into(),
        }
    }

    /// An error response with a human-readable message body.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response {
            error: Some(kind),
            headers: BTreeMap::new(),
            body: message.into(),
        }
    }

    /// Sets a header (builder style).
    pub fn with(mut self, key: &str, value: impl ToString) -> Response {
        self.headers.insert(key.to_string(), value.to_string());
        self
    }

    /// Whether this is a success.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Serializes into a frame payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let verb = match self.error {
            None => "ok".to_string(),
            Some(kind) => format!("error {}", kind.as_str()),
        };
        encode_message(&verb, &self.headers, &self.body)
    }

    /// Parses a frame payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let (verb_line, headers, body) = decode_message(payload)?;
        let error = if verb_line == "ok" {
            None
        } else if let Some(kind) = verb_line.strip_prefix("error ") {
            Some(
                ErrorKind::parse(kind)
                    .ok_or_else(|| ProtoError::Malformed(format!("unknown error kind {kind:?}")))?,
            )
        } else {
            return Err(ProtoError::Malformed(format!(
                "bad response verb line {verb_line:?}"
            )));
        };
        Ok(Response {
            error,
            headers,
            body,
        })
    }
}

/// Why a frame or message failed to parse.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (includes clean EOF between frames).
    Io(io::Error),
    /// The peer announced a frame over `MAX_FRAME`.
    Oversized(usize),
    /// The payload text violated the message grammar.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one length-prefixed frame.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame; rejects oversized announcements
/// *before* allocating.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

fn encode_message(verb: &str, headers: &BTreeMap<String, String>, body: &str) -> Vec<u8> {
    let mut text = String::with_capacity(64 + body.len());
    text.push_str(verb);
    text.push('\n');
    for (k, v) in headers {
        debug_assert!(!k.contains([':', '\n']) && !v.contains('\n'));
        text.push_str(k);
        text.push_str(": ");
        text.push_str(v);
        text.push('\n');
    }
    text.push('\n');
    text.push_str(body);
    text.into_bytes()
}

fn decode_message(
    payload: &[u8],
) -> Result<(String, BTreeMap<String, String>, String), ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtoError::Malformed("payload is not utf-8".to_string()))?;
    let (head, body) = match text.split_once("\n\n") {
        Some((h, b)) => (h, b),
        None => (text.strip_suffix('\n').unwrap_or(text), ""),
    };
    let mut lines = head.lines();
    let verb_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| ProtoError::Malformed("empty message".to_string()))?
        .to_string();
    let mut headers = BTreeMap::new();
    for line in lines {
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| ProtoError::Malformed(format!("header line without ':': {line:?}")))?;
        headers.insert(k.trim().to_string(), v.trim().to_string());
    }
    Ok((verb_line, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_the_wire_format() {
        let req = Request::new(Verb::Compile)
            .with("tenant", "team-a")
            .with("name", "mvm4")
            .with("target", "cortex-a8")
            .with_body("A = matrix(4, 4)\nx = vector(4)\ny = vector(4)\ny = A * x;");
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
        assert_eq!(back.tenant(), "team-a");
        assert_eq!(back.kernel_name(), "mvm4");
        assert_eq!(back.target().unwrap(), Microarch::CortexA8);
    }

    #[test]
    fn response_roundtrips_including_errors() {
        let ok = Response::ok("void f(void) {}\n")
            .with("outcome", "memory")
            .with("wall_us", 12);
        assert_eq!(Response::decode(&ok.encode()).unwrap(), ok);
        let err = Response::error(ErrorKind::Busy, "queue full, retry");
        let back = Response::decode(&err.encode()).unwrap();
        assert_eq!(back.error, Some(ErrorKind::Busy));
        assert!(!back.is_ok());
        assert_eq!(back.body, "queue full, retry");
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        for bad in [
            &b""[..],
            b"\n\n",
            b"frobnicate\n\n",
            b"ok\nheader-without-colon\n\n",
            b"error nonsense-kind\n\n",
            &[0xff, 0xfe, 0x00][..],
        ] {
            assert!(
                Request::decode(bad).is_err() || Response::decode(bad).is_err(),
                "{bad:?} must not fully parse"
            );
        }
        assert!(Request::decode(b"compile\nx\n\n").is_err());
        assert!(Request::new(Verb::Compile)
            .with("target", "pdp11")
            .target()
            .is_err());
    }

    #[test]
    fn frames_roundtrip_and_cap_oversized_announcements() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Io(_))), "eof");

        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn headerless_and_bodyless_messages_parse() {
        let ping = Request::new(Verb::Ping);
        let back = Request::decode(&ping.encode()).unwrap();
        assert_eq!(back.verb, Verb::Ping);
        assert!(back.body.is_empty());
        assert_eq!(back.tenant(), "anon");
    }
}
