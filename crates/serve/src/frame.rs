//! Length-prefixed framing and the version handshake.
//!
//! Every connection opens with an 8-byte handshake in each direction —
//! `b"CPNV"` magic, a big-endian `u16` protocol version, two reserved
//! zero bytes — and then carries frames: a big-endian `u32` payload
//! length followed by that many bytes. The length is validated against
//! a configurable cap *before* any allocation, so an adversarial
//! oversized prefix costs four bytes of reading, not gigabytes of
//! memory.
//!
//! ## Version negotiation
//!
//! The client sends its handshake first, advertising the highest
//! version it speaks; the server answers with
//! `min(client_version, PROTO_VERSION)`, which both sides then use for
//! the rest of the connection. A v1 client therefore keeps working
//! against a v2 server (it advertises 1, the server echoes 1 and
//! answers it in lock-step), while two v2 peers get batches,
//! correlation ids, and streaming. A v2 client dialing an old
//! v1-only server fails the handshake (the old server rejects unknown
//! versions before replying); that direction is a deliberate
//! non-goal — servers upgrade first.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::RangeInclusive;
use std::time::Duration;

/// The 4-byte magic opening every connection.
pub const MAGIC: [u8; 4] = *b"CPNV";

/// The newest protocol version spoken by this build (v2: batches,
/// correlation ids, streaming partial results, server-side verify).
pub const PROTO_VERSION: u16 = 2;

/// The oldest protocol version this build still serves.
pub const MIN_PROTO_VERSION: u16 = 1;

/// Default cap on a single frame's payload (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// A framing-layer failure, kept separate from [`io::Error`] so callers
/// can distinguish protocol violations from transport faults.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes read timeouts).
    Io(io::Error),
    /// The peer's length prefix exceeded the negotiated cap.
    Oversized {
        /// The length the peer claimed.
        claimed: usize,
        /// The cap in force.
        max: usize,
    },
    /// The stream ended mid-frame (truncated payload).
    Truncated {
        /// Bytes actually received.
        got: usize,
        /// Bytes the prefix promised.
        want: usize,
    },
    /// The handshake magic did not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks an unsupported protocol version.
    BadVersion(u16),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Oversized { claimed, max } => {
                write!(f, "frame of {claimed} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated { got, want } => {
                write!(f, "frame truncated: got {got} of {want} bytes")
            }
            FrameError::BadMagic(m) => write!(f, "bad handshake magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is a transport-level timeout (idle connection).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }

    /// Whether this is a clean end-of-stream before any frame byte.
    pub fn is_eof(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

/// Writes the 8-byte handshake (magic, [`PROTO_VERSION`], reserved).
///
/// # Errors
///
/// [`io::Error`] from the transport.
pub fn write_handshake<W: Write>(w: &mut W) -> io::Result<()> {
    write_handshake_version(w, PROTO_VERSION)
}

/// Writes the 8-byte handshake advertising an explicit version — the
/// server uses this to echo the negotiated (possibly downgraded)
/// version back to the client.
///
/// # Errors
///
/// [`io::Error`] from the transport.
pub fn write_handshake_version<W: Write>(w: &mut W, version: u16) -> io::Result<()> {
    let mut hs = [0u8; 8];
    hs[..4].copy_from_slice(&MAGIC);
    hs[4..6].copy_from_slice(&version.to_be_bytes());
    w.write_all(&hs)?;
    w.flush()
}

/// Reads and validates the peer's 8-byte handshake, requiring exactly
/// [`PROTO_VERSION`].
///
/// # Errors
///
/// [`FrameError::BadMagic`] / [`FrameError::BadVersion`] on a
/// mismatched peer, [`FrameError::Io`] on transport failure.
pub fn read_handshake<R: Read>(r: &mut R) -> Result<u16, FrameError> {
    read_handshake_in(r, PROTO_VERSION..=PROTO_VERSION)
}

/// Reads the peer's handshake, accepting any version inside `accept`
/// and returning the one the peer advertised. The server accepts
/// [`MIN_PROTO_VERSION`]`..=`[`PROTO_VERSION`] and echoes
/// `min(peer, PROTO_VERSION)`; the client accepts the same range on
/// the server's reply (the server never echoes a version above the
/// client's own advertisement).
///
/// # Errors
///
/// [`FrameError::BadMagic`] / [`FrameError::BadVersion`] on a
/// mismatched peer, [`FrameError::Io`] on transport failure.
pub fn read_handshake_in<R: Read>(
    r: &mut R,
    accept: RangeInclusive<u16>,
) -> Result<u16, FrameError> {
    let mut hs = [0u8; 8];
    r.read_exact(&mut hs)?;
    let magic: [u8; 4] = [hs[0], hs[1], hs[2], hs[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_be_bytes([hs[4], hs[5]]);
    if !accept.contains(&version) {
        return Err(FrameError::BadVersion(version));
    }
    Ok(version)
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`FrameError::Oversized`] if the payload itself exceeds `max_frame`
/// (the local side refuses to send what the peer must refuse to read),
/// or [`FrameError::Io`] from the transport.
pub fn write_frame<W: Write>(
    w: &mut W,
    payload: &[u8],
    max_frame: usize,
) -> Result<(), FrameError> {
    if payload.len() > max_frame {
        return Err(FrameError::Oversized {
            claimed: payload.len(),
            max: max_frame,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        claimed: payload.len(),
        max: u32::MAX as usize,
    })?;
    // One buffer, one write: prefix + payload leave in a single syscall
    // (and, with TCP_NODELAY, a single packet) instead of two — the
    // difference is measurable at pipelined request rates.
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&len.to_be_bytes());
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame, capping the claimed length before
/// any allocation.
///
/// # Errors
///
/// [`FrameError::Oversized`] on a hostile prefix,
/// [`FrameError::Truncated`] if the stream ends mid-payload,
/// [`FrameError::Io`] on transport failure (including timeouts).
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let claimed = u32::from_be_bytes(prefix) as usize;
    read_frame_payload(r, claimed, max_frame)
}

/// Reads the payload of a frame whose length prefix was already
/// consumed — the continuation used by the server's split idle/frame
/// read path.
///
/// # Errors
///
/// As [`read_frame`], minus the prefix read.
pub fn read_frame_payload<R: Read>(
    r: &mut R,
    claimed: usize,
    max_frame: usize,
) -> Result<Vec<u8>, FrameError> {
    if claimed > max_frame {
        return Err(FrameError::Oversized {
            claimed,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; claimed];
    let mut got = 0;
    while got < claimed {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Truncated { got, want: claimed }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(payload)
}

/// Encodes a frame (prefix + payload) into a buffer — the byte-exact
/// wire form, for tests and fault injection.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// A suggested read timeout granting `deadline` plus a small margin.
pub fn reply_timeout(deadline: Duration) -> Duration {
    deadline + Duration::from_secs(5)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 1024).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"junk");
        let mut r = Cursor::new(wire);
        match read_frame(&mut r, 1024) {
            Err(FrameError::Oversized { claimed, max }) => {
                assert_eq!(claimed, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_reported() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(b"abc");
        let mut r = Cursor::new(wire);
        match read_frame(&mut r, 1024) {
            Err(FrameError::Truncated { got, want }) => {
                assert_eq!((got, want), (3, 10));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn handshake_round_trip_and_rejections() {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        assert_eq!(
            read_handshake(&mut Cursor::new(buf)).unwrap(),
            PROTO_VERSION
        );

        let bad_magic = *b"NOPE\x00\x01\x00\x00";
        assert!(matches!(
            read_handshake(&mut Cursor::new(bad_magic.to_vec())),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_ver = Vec::new();
        bad_ver.extend_from_slice(&MAGIC);
        bad_ver.extend_from_slice(&0xFFFFu16.to_be_bytes());
        bad_ver.extend_from_slice(&[0, 0]);
        assert!(matches!(
            read_handshake(&mut Cursor::new(bad_ver)),
            Err(FrameError::BadVersion(0xFFFF))
        ));
    }

    #[test]
    fn local_oversized_send_refused() {
        let mut buf = Vec::new();
        let big = vec![0u8; 100];
        assert!(matches!(
            write_frame(&mut buf, &big, 10),
            Err(FrameError::Oversized {
                claimed: 100,
                max: 10
            })
        ));
        assert!(buf.is_empty(), "nothing written on refusal");
    }
}
