//! Key-length-value frame codec (rebar KLV style).
//!
//! One frame on the wire is
//!
//! ```text
//! key ':' decimal-length ':' value '\n'
//! ```
//!
//! where `key` is 1–32 bytes of `[a-z0-9_-]`, `decimal-length` is 1–8 ASCII
//! digits giving the byte length of `value` (the trailing newline is *not*
//! counted), and `value` is arbitrary bytes. The newline keeps frames
//! eyeballable with `cat` while the explicit length keeps binary values
//! unambiguous.
//!
//! The decoder is **total**: any byte stream either yields frames or a
//! structured [`ProtocolError`] — it never panics, never over-reads past
//! what a frame declares, and never allocates more than the bytes actually
//! pushed into it (a declared length only causes buffering, capped by
//! [`MAX_VALUE_LEN`]).

/// Longest permitted key, bytes.
pub(crate) const MAX_KEY_LEN: usize = 32;
/// Most digits a length field may carry.
pub(crate) const MAX_LEN_DIGITS: usize = 8;
/// Largest permitted value, bytes (its length fits in 8 digits).
pub const MAX_VALUE_LEN: usize = 16 * 1024 * 1024;

/// One decoded key-length-value frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub key: String,
    pub value: Vec<u8>,
}

impl Frame {
    /// Build a frame, validating the key and value size.
    pub fn new(key: &str, value: impl Into<Vec<u8>>) -> Result<Frame, ProtocolError> {
        let value = value.into();
        if !valid_key(key.as_bytes()) {
            return Err(ProtocolError::BadKey {
                offset: 0,
                found: printable_head(key.as_bytes()),
            });
        }
        if value.len() > MAX_VALUE_LEN {
            return Err(ProtocolError::Oversized {
                offset: 0,
                key: key.to_string(),
                len: value.len() as u64,
            });
        }
        Ok(Frame {
            key: key.to_string(),
            value,
        })
    }

    /// Frame with a UTF-8 text value.
    pub fn text(key: &str, value: &str) -> Result<Frame, ProtocolError> {
        Frame::new(key, value.as_bytes().to_vec())
    }

    /// The value as text (lossy — engines may emit arbitrary bytes).
    pub(crate) fn value_lossy(&self) -> String {
        String::from_utf8_lossy(&self.value).into_owned()
    }

    /// Append the wire encoding of this frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.key.as_bytes());
        out.push(b':');
        out.extend_from_slice(self.value.len().to_string().as_bytes());
        out.push(b':');
        out.extend_from_slice(&self.value);
        out.push(b'\n');
    }

    /// The wire encoding of this frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.key.len() + self.value.len() + 12);
        self.encode_into(&mut out);
        out
    }
}

/// Why a byte stream is not a valid frame sequence. Every variant carries
/// the byte offset (into the whole stream) where decoding stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The key is empty, too long, or contains a byte outside `[a-z0-9_-]`.
    BadKey { offset: usize, found: String },
    /// The length field is empty, non-decimal, or longer than 8 digits.
    BadLength { offset: usize, found: String },
    /// The declared value length exceeds [`MAX_VALUE_LEN`].
    Oversized {
        offset: usize,
        key: String,
        len: u64,
    },
    /// The byte after the value is not the terminating newline.
    MissingNewline { offset: usize, key: String },
    /// The stream ended mid-frame.
    Truncated { offset: usize, inside: String },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadKey { offset, found } => {
                write!(f, "bad frame key at byte {offset}: {found:?}")
            }
            ProtocolError::BadLength { offset, found } => {
                write!(f, "bad frame length at byte {offset}: {found:?}")
            }
            ProtocolError::Oversized { offset, key, len } => {
                write!(
                    f,
                    "frame `{key}` at byte {offset} declares {len} bytes \
                     (limit {MAX_VALUE_LEN})"
                )
            }
            ProtocolError::MissingNewline { offset, key } => {
                write!(f, "frame `{key}` at byte {offset} not newline-terminated")
            }
            ProtocolError::Truncated { offset, inside } => {
                write!(f, "stream truncated at byte {offset} inside {inside}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

fn valid_key(key: &[u8]) -> bool {
    !key.is_empty()
        && key.len() <= MAX_KEY_LEN
        && key
            .iter()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_' || *b == b'-')
}

/// A short printable rendering of raw bytes for error messages.
fn printable_head(bytes: &[u8]) -> String {
    let head: String = String::from_utf8_lossy(bytes)
        .chars()
        .take(24)
        .map(|c| if c.is_control() { '.' } else { c })
        .collect();
    if bytes.len() > 24 {
        format!("{head}…")
    } else {
        head
    }
}

/// Incremental frame decoder. Feed it byte chunks of any size with
/// [`Decoder::push`]; call [`Decoder::finish`] at end of stream to detect a
/// truncated trailing frame. Once an error is returned the decoder is
/// poisoned and keeps returning the same error.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Bytes consumed from the stream before `buf[0]`.
    consumed: usize,
    poisoned: Option<ProtocolError>,
}

impl Decoder {
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Feed more bytes; returns every frame completed by this chunk.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<Frame>, ProtocolError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        loop {
            match self.try_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return Ok(frames),
                Err(err) => {
                    self.poisoned = Some(err.clone());
                    return Err(err);
                }
            }
        }
    }

    /// Declare end of stream: leftover bytes mean a truncated frame.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let inside = match self.buf.iter().position(|b| *b == b':') {
            Some(sep) if valid_key(&self.buf[..sep]) => {
                format!("frame `{}`", String::from_utf8_lossy(&self.buf[..sep]))
            }
            _ => format!("a frame key ({:?})", printable_head(&self.buf)),
        };
        Err(ProtocolError::Truncated {
            offset: self.consumed + self.buf.len(),
            inside,
        })
    }

    /// Try to decode one complete frame from the front of the buffer.
    /// `Ok(None)` means "need more bytes".
    fn try_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        // Key: bytes up to the first ':'. Garbage is flagged eagerly — an
        // invalid byte in the key region is an error even before the
        // separator arrives, so a non-KLV stream fails fast instead of
        // looking "truncated".
        let scan = &self.buf[..self.buf.len().min(MAX_KEY_LEN + 1)];
        let colon = scan.iter().position(|b| *b == b':');
        let key_region = &scan[..colon.unwrap_or(scan.len())];
        if !key_region
            .iter()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_' || *b == b'-')
            || colon == Some(0)
        {
            return Err(ProtocolError::BadKey {
                offset: self.consumed,
                found: printable_head(key_region),
            });
        }
        let key_end = match colon {
            Some(p) => p,
            None if self.buf.len() > MAX_KEY_LEN => {
                return Err(ProtocolError::BadKey {
                    offset: self.consumed,
                    found: printable_head(&self.buf),
                });
            }
            None => return Ok(None),
        };
        // Length: decimal digits up to the second ':', also checked
        // eagerly.
        let len_start = key_end + 1;
        let len_scan = &self.buf[len_start..self.buf.len().min(len_start + MAX_LEN_DIGITS + 1)];
        let len_colon = len_scan.iter().position(|b| *b == b':');
        let digit_region = &len_scan[..len_colon.unwrap_or(len_scan.len())];
        if !digit_region.iter().all(u8::is_ascii_digit) || len_colon == Some(0) {
            return Err(ProtocolError::BadLength {
                offset: self.consumed + len_start,
                found: printable_head(digit_region),
            });
        }
        let len_end = match len_colon {
            Some(p) => len_start + p,
            None if self.buf.len() > len_start + MAX_LEN_DIGITS => {
                return Err(ProtocolError::BadLength {
                    offset: self.consumed + len_start,
                    found: printable_head(len_scan),
                });
            }
            None => return Ok(None),
        };
        let digits = &self.buf[len_start..len_end];
        // ≤ 8 digits ⇒ fits u64 without overflow.
        let len: u64 = std::str::from_utf8(digits)
            .expect("ascii digits")
            .parse()
            .expect("bounded decimal");
        let key = String::from_utf8_lossy(&self.buf[..key_end]).into_owned();
        if len > MAX_VALUE_LEN as u64 {
            return Err(ProtocolError::Oversized {
                offset: self.consumed,
                key,
                len,
            });
        }
        let value_start = len_end + 1;
        let frame_end = value_start + len as usize; // index of the newline
        if self.buf.len() <= frame_end {
            return Ok(None);
        }
        if self.buf[frame_end] != b'\n' {
            return Err(ProtocolError::MissingNewline {
                offset: self.consumed + frame_end,
                key,
            });
        }
        let value = self.buf[value_start..frame_end].to_vec();
        self.buf.drain(..=frame_end);
        self.consumed += frame_end + 1;
        Ok(Some(Frame { key, value }))
    }
}

/// Decode a complete byte stream into frames.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, ProtocolError> {
    let mut decoder = Decoder::new();
    let frames = decoder.push(bytes)?;
    decoder.finish()?;
    Ok(frames)
}

/// Encode a frame sequence to its wire form.
pub fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in frames {
        frame.encode_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_simple_frames() {
        let frames = vec![
            Frame::text("wall", "1.25").unwrap(),
            Frame::new("stdout", b"line one\nline two\n".to_vec()).unwrap(),
            Frame::new("done", Vec::new()).unwrap(),
        ];
        let wire = encode_all(&frames);
        assert_eq!(decode_all(&wire).unwrap(), frames);
    }

    #[test]
    fn values_may_contain_colons_newlines_and_binary() {
        let frame = Frame::new("blob", b"a:b\nc:\x00\xff".to_vec()).unwrap();
        assert_eq!(decode_all(&frame.encode()).unwrap(), vec![frame]);
    }

    #[test]
    fn empty_stream_is_zero_frames() {
        assert_eq!(decode_all(b"").unwrap(), Vec::new());
    }

    #[test]
    fn rejects_bad_keys() {
        assert!(matches!(
            decode_all(b"BAD:0:\n"),
            Err(ProtocolError::BadKey { offset: 0, .. })
        ));
        assert!(matches!(
            decode_all(b":0:\n"),
            Err(ProtocolError::BadKey { .. })
        ));
        let long = format!("{}:0:\n", "k".repeat(MAX_KEY_LEN + 1));
        assert!(matches!(
            decode_all(long.as_bytes()),
            Err(ProtocolError::BadKey { .. })
        ));
        assert!(Frame::text("Bad Key", "v").is_err());
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(matches!(
            decode_all(b"k:x:\n"),
            Err(ProtocolError::BadLength { offset: 2, .. })
        ));
        assert!(matches!(
            decode_all(b"k::\n"),
            Err(ProtocolError::BadLength { .. })
        ));
        assert!(matches!(
            decode_all(b"k:123456789:\n"),
            Err(ProtocolError::BadLength { .. })
        ));
    }

    #[test]
    fn rejects_oversized_declarations_without_buffering_them() {
        let wire = format!("k:{}:", MAX_VALUE_LEN + 1);
        assert!(matches!(
            decode_all(wire.as_bytes()),
            Err(ProtocolError::Oversized { len, .. }) if len == (MAX_VALUE_LEN + 1) as u64
        ));
    }

    #[test]
    fn rejects_missing_newline() {
        assert!(matches!(
            decode_all(b"k:2:abX"),
            Err(ProtocolError::MissingNewline { offset: 6, .. })
        ));
    }

    #[test]
    fn finish_flags_truncation() {
        for cut in 1..b"key:5:hello\n".len() {
            let err = decode_all(&b"key:5:hello\n"[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn decoder_is_incremental_at_any_split() {
        let frames = vec![
            Frame::text("a", "12345").unwrap(),
            Frame::text("b-2", "").unwrap(),
            Frame::new("c", b"\n\n::\n".to_vec()).unwrap(),
        ];
        let wire = encode_all(&frames);
        for split in 0..=wire.len() {
            let mut decoder = Decoder::new();
            let mut got = decoder.push(&wire[..split]).unwrap();
            got.extend(decoder.push(&wire[split..]).unwrap());
            decoder.finish().unwrap();
            assert_eq!(got, frames, "split at {split}");
        }
    }

    #[test]
    fn poisoned_decoder_stays_poisoned() {
        let mut decoder = Decoder::new();
        let err = decoder.push(b"BAD:").unwrap_err();
        assert_eq!(decoder.push(b"more").unwrap_err(), err);
    }

    #[test]
    fn error_offsets_count_consumed_frames() {
        let mut wire = Frame::text("ok", "fine").unwrap().encode();
        let prefix = wire.len();
        wire.extend_from_slice(b"!bad");
        match decode_all(&wire) {
            Err(ProtocolError::BadKey { offset, .. }) => assert_eq!(offset, prefix),
            other => panic!("expected BadKey, got {other:?}"),
        }
    }
}
