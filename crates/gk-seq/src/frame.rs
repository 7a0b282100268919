//! Length-prefixed binary framing for the filter service (`gk-serve`).
//!
//! One frame = a little-endian `u32` payload length followed by the payload:
//! a protocol-version byte, a frame-tag byte, and the tag-specific body. The
//! format is deliberately dependency-free (no serde on the wire) so any
//! client in any language can speak it with a few dozen lines of code.
//!
//! Frames:
//!
//! * [`RequestFrame`] — a filter request: id, tenant, filter kind code
//!   (`gk_core::backend::FilterKind::code`), edit threshold, a queueing
//!   deadline in microseconds, and the read pairs (per-pair lengths + raw
//!   ASCII bases).
//! * [`CancelFrame`] — drop a request's not-yet-batched work.
//! * [`ResponseFrame`] — terminal reply: [`ResponseStatus`], an optional
//!   retry hint for backpressure rejections, and the decisions as packed
//!   words (see [`decision_word`]).
//!
//! Decisions travel as `u64` words in the same packing the FNV decision
//! digest hashes — `estimated_edits << 2 | accepted << 1 | undefined` — so a
//! client can digest a response without ever materializing decision structs.
//!
//! ```
//! use gk_seq::frame::{read_frame, write_frame, Frame, RequestFrame};
//! use gk_seq::pairs::SequencePair;
//!
//! let request = Frame::Request(RequestFrame {
//!     id: 7,
//!     tenant: 1,
//!     kind: 0, // gatekeeper
//!     threshold: 2,
//!     deadline_micros: 50_000,
//!     pairs: vec![SequencePair::new(&b"ACGT"[..], &b"ACGT"[..])],
//! });
//! let mut wire = Vec::new();
//! write_frame(&mut wire, &request).unwrap();
//! let back = read_frame(&mut wire.as_slice()).unwrap();
//! assert_eq!(back, Some(request));
//! // A cleanly closed stream reads as `None`, not an error.
//! assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
//! ```

use crate::pairs::SequencePair;
use std::io::{self, Read, Write};

/// Wire protocol version carried in every frame.
pub const FRAME_PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a single frame's payload, rejecting corrupt or hostile
/// length prefixes before any payload is read (256 MiB ≈ 600k pairs of
/// 250 bp — far above any sane request).
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Largest buffer [`read_frame`] reserves before any payload byte arrives;
/// bigger frames grow their buffer as the bytes come in.
const INITIAL_PAYLOAD_CAPACITY: usize = 64 << 10;

const TAG_REQUEST: u8 = 1;
const TAG_CANCEL: u8 = 2;
const TAG_RESPONSE: u8 = 3;

/// A filter request as it travels client → daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen request id, echoed in the response (unique per
    /// connection).
    pub id: u64,
    /// Tenant the request is accounted against in the fair queue.
    pub tenant: u32,
    /// Filter kind wire code (`gk_core::backend::FilterKind::code`).
    pub kind: u8,
    /// Edit-distance threshold `e`.
    pub threshold: u32,
    /// Maximum queueing delay the client tolerates, in microseconds; the
    /// batcher flushes the request's batch no later than this (clamped to
    /// its own flush interval).
    pub deadline_micros: u64,
    /// The read pairs to filter.
    pub pairs: Vec<SequencePair>,
}

/// Client-initiated cancellation of an in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelFrame {
    /// The id of the request to cancel.
    pub id: u64,
}

/// Terminal status of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Filtered; decisions attached.
    Ok,
    /// Rejected by backpressure before queueing; retry after the hint.
    Rejected,
    /// Cancelled before execution; no decisions were produced.
    Cancelled,
    /// The daemon could not process the request (malformed kind, shutdown).
    Error,
}

impl ResponseStatus {
    /// Stable one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            ResponseStatus::Ok => 0,
            ResponseStatus::Rejected => 1,
            ResponseStatus::Cancelled => 2,
            ResponseStatus::Error => 3,
        }
    }

    /// Inverse of [`ResponseStatus::code`].
    pub fn from_code(code: u8) -> Option<ResponseStatus> {
        match code {
            0 => Some(ResponseStatus::Ok),
            1 => Some(ResponseStatus::Rejected),
            2 => Some(ResponseStatus::Cancelled),
            3 => Some(ResponseStatus::Error),
            _ => None,
        }
    }
}

/// A reply as it travels daemon → client. Every accepted request receives
/// exactly one response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Echo of the request id.
    pub id: u64,
    /// Terminal status.
    pub status: ResponseStatus,
    /// Backpressure retry hint in microseconds (0 unless `Rejected`).
    pub retry_after_micros: u64,
    /// Per-pair decisions as packed words (see [`decision_word`]); empty
    /// unless `Ok`.
    pub decisions: Vec<u64>,
    /// Human-readable detail for `Error` responses, empty otherwise.
    pub message: String,
}

/// Any frame of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → daemon filter request.
    Request(RequestFrame),
    /// Client → daemon cancellation.
    Cancel(CancelFrame),
    /// Daemon → client terminal reply.
    Response(ResponseFrame),
}

/// Packs one decision into its wire word: `edits << 2 | accepted << 1 |
/// undefined` — bit-compatible with the word the FNV decision digest hashes.
pub fn decision_word(estimated_edits: u32, accepted: bool, undefined: bool) -> u64 {
    (u64::from(estimated_edits) << 2) | (u64::from(accepted) << 1) | u64::from(undefined)
}

/// Unpacks a wire word into `(estimated_edits, accepted, undefined)`.
pub fn decision_word_fields(word: u64) -> (u32, bool, bool) {
    ((word >> 2) as u32, word & 0b10 != 0, word & 0b1 != 0)
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Bounds-checked little-endian reader over a received payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| invalid("frame body truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let bytes = self.take(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(word))
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes after frame body"))
        }
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = vec![FRAME_PROTOCOL_VERSION];
    match frame {
        Frame::Request(req) => {
            out.push(TAG_REQUEST);
            out.extend_from_slice(&req.id.to_le_bytes());
            out.extend_from_slice(&req.tenant.to_le_bytes());
            out.push(req.kind);
            out.extend_from_slice(&req.threshold.to_le_bytes());
            out.extend_from_slice(&req.deadline_micros.to_le_bytes());
            out.extend_from_slice(&(req.pairs.len() as u32).to_le_bytes());
            for pair in &req.pairs {
                out.extend_from_slice(&(pair.read.len() as u32).to_le_bytes());
                out.extend_from_slice(&(pair.reference.len() as u32).to_le_bytes());
                out.extend_from_slice(&pair.read);
                out.extend_from_slice(&pair.reference);
            }
        }
        Frame::Cancel(cancel) => {
            out.push(TAG_CANCEL);
            out.extend_from_slice(&cancel.id.to_le_bytes());
        }
        Frame::Response(resp) => {
            out.push(TAG_RESPONSE);
            out.extend_from_slice(&resp.id.to_le_bytes());
            out.push(resp.status.code());
            out.extend_from_slice(&resp.retry_after_micros.to_le_bytes());
            out.extend_from_slice(&(resp.message.len() as u32).to_le_bytes());
            out.extend_from_slice(resp.message.as_bytes());
            out.extend_from_slice(&(resp.decisions.len() as u32).to_le_bytes());
            for word in &resp.decisions {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> io::Result<Frame> {
    let mut cursor = Cursor::new(payload);
    let version = cursor.u8()?;
    if version != FRAME_PROTOCOL_VERSION {
        return Err(invalid(format!(
            "unsupported frame protocol version {version} (expected {FRAME_PROTOCOL_VERSION})"
        )));
    }
    let tag = cursor.u8()?;
    let frame = match tag {
        TAG_REQUEST => {
            let id = cursor.u64()?;
            let tenant = cursor.u32()?;
            let kind = cursor.u8()?;
            let threshold = cursor.u32()?;
            let deadline_micros = cursor.u64()?;
            let count = cursor.u32()? as usize;
            let mut pairs = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let read_len = cursor.u32()? as usize;
                let ref_len = cursor.u32()? as usize;
                let read = cursor.take(read_len)?.to_vec();
                let reference = cursor.take(ref_len)?.to_vec();
                pairs.push(SequencePair { read, reference });
            }
            Frame::Request(RequestFrame {
                id,
                tenant,
                kind,
                threshold,
                deadline_micros,
                pairs,
            })
        }
        TAG_CANCEL => Frame::Cancel(CancelFrame { id: cursor.u64()? }),
        TAG_RESPONSE => {
            let id = cursor.u64()?;
            let status = ResponseStatus::from_code(cursor.u8()?)
                .ok_or_else(|| invalid("unknown response status code"))?;
            let retry_after_micros = cursor.u64()?;
            let message_len = cursor.u32()? as usize;
            let message = String::from_utf8(cursor.take(message_len)?.to_vec())
                .map_err(|_| invalid("response message is not UTF-8"))?;
            let count = cursor.u32()? as usize;
            let mut decisions = Vec::with_capacity(count.min(1 << 24));
            for _ in 0..count {
                decisions.push(cursor.u64()?);
            }
            Frame::Response(ResponseFrame {
                id,
                status,
                retry_after_micros,
                decisions,
                message,
            })
        }
        other => return Err(invalid(format!("unknown frame tag {other}"))),
    };
    cursor.finish()?;
    Ok(frame)
}

/// Writes one frame (length prefix + payload) and flushes the writer.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = encode_payload(frame);
    if payload.len() > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame payload of {} bytes exceeds MAX_FRAME_BYTES",
            payload.len()
        )));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()
}

/// Reads one frame. Returns `Ok(None)` when the stream is cleanly closed at
/// a frame boundary; a close mid-frame is an `UnexpectedEof` error.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        let n = reader.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame length prefix of {len} bytes exceeds MAX_FRAME_BYTES"
        )));
    }
    // Grow the buffer only as payload bytes arrive: a prefix is just a
    // claim, and a client declaring `MAX_FRAME_BYTES` then stalling or
    // closing must not cost that much memory up front.
    let mut payload = Vec::with_capacity(len.min(INITIAL_PAYLOAD_CAPACITY));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed inside a frame body",
        ));
    }
    decode_payload(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("write");
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).expect("read"), Some(frame));
        assert_eq!(read_frame(&mut reader).expect("eof"), None);
    }

    #[test]
    fn request_round_trips() {
        roundtrip(Frame::Request(RequestFrame {
            id: 42,
            tenant: 9,
            kind: 3,
            threshold: 5,
            deadline_micros: 75_000,
            pairs: vec![
                SequencePair::new(&b"ACGTN"[..], &b"ACGTA"[..]),
                SequencePair::new(&b""[..], &b"GG"[..]),
            ],
        }));
        // A payload past the initial read buffer grows it as bytes arrive.
        roundtrip(Frame::Request(RequestFrame {
            id: 43,
            tenant: 9,
            kind: 0,
            threshold: 5,
            deadline_micros: 0,
            pairs: vec![SequencePair::new(vec![b'A'; 100_000], vec![b'C'; 100_000])],
        }));
    }

    #[test]
    fn cancel_and_response_round_trip() {
        roundtrip(Frame::Cancel(CancelFrame { id: u64::MAX }));
        roundtrip(Frame::Response(ResponseFrame {
            id: 1,
            status: ResponseStatus::Rejected,
            retry_after_micros: 2_000,
            decisions: vec![decision_word(3, true, false), decision_word(0, true, true)],
            message: "queue full".to_string(),
        }));
    }

    #[test]
    fn decision_words_pack_and_unpack() {
        for (edits, accepted, undefined) in [(0, false, false), (7, true, false), (0, true, true)] {
            let word = decision_word(edits, accepted, undefined);
            assert_eq!(decision_word_fields(word), (edits, accepted, undefined));
        }
    }

    #[test]
    fn multiple_frames_stream_in_order() {
        let frames = vec![
            Frame::Cancel(CancelFrame { id: 1 }),
            Frame::Cancel(CancelFrame { id: 2 }),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).expect("write");
        }
        let mut reader = wire.as_slice();
        for frame in &frames {
            assert_eq!(read_frame(&mut reader).expect("read"), Some(frame.clone()));
        }
        assert_eq!(read_frame(&mut reader).expect("eof"), None);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        // Oversized length prefix.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());

        // Truncated mid-frame.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Cancel(CancelFrame { id: 3 })).expect("write");
        wire.truncate(wire.len() - 2);
        assert!(read_frame(&mut wire.as_slice()).is_err());

        // Unknown tag.
        let payload = [FRAME_PROTOCOL_VERSION, 99];
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert!(read_frame(&mut wire.as_slice()).is_err());

        // Wrong version.
        let payload = [
            FRAME_PROTOCOL_VERSION + 1,
            TAG_CANCEL,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ];
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert!(read_frame(&mut wire.as_slice()).is_err());

        // Trailing garbage after a valid body.
        let mut payload = vec![FRAME_PROTOCOL_VERSION, TAG_CANCEL];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0xFF);
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }
}
