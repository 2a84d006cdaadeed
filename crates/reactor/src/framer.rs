//! Request-line framing, shared by every serving mode.
//!
//! One [`LineFramer`] per connection splits an arbitrary chunking of the
//! byte stream into request lines. The rules live only here:
//!
//! * a line ends at `\n`, which is not part of the line (a `\r` before
//!   it is kept; the protocol trims whitespace);
//! * the cap counts the newline: a line of `cap - 1` bytes plus its `\n`
//!   fits, one byte more does not;
//! * an over-cap line is never buffered past the cap: it is discarded up
//!   to its newline and yields one [`Frame::Oversized`];
//! * at end of stream a non-empty unterminated tail still yields its
//!   line, or [`Frame::Oversized`] if it was over the cap.
//!
//! A line that arrives whole inside one chunk is handed out as a slice
//! of that chunk, so framing copies only lines that straddle reads, into
//! one buffer reused for the life of the connection.
//!
//! The newline is found eight bytes at a time: each `u64` word of input
//! is tested for a `\n` byte at once, and only the last few bytes of a
//! chunk are looked at one by one.

/// One framed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete line, newline stripped.
    Line(&'a [u8]),
    /// A line longer than the cap; its bytes were discarded.
    Oversized,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// `buf` holds the start of the current line.
    Filling,
    /// The current line blew the cap; discarding until its newline.
    Discarding,
    /// `buf` holds a line already handed out; cleared on the next call.
    Emitted,
}

/// Splits a byte stream into request lines of at most `cap` bytes,
/// newline included. See the module docs for the rules.
#[derive(Debug)]
pub struct LineFramer {
    cap: usize,
    buf: Vec<u8>,
    state: State,
}

impl LineFramer {
    /// A framer for lines of at most `cap` bytes, newline included.
    #[must_use]
    pub fn new(cap: usize) -> LineFramer {
        LineFramer {
            cap,
            buf: Vec::new(),
            state: State::Filling,
        }
    }

    /// Consume `input` up to and including its first newline. Returns
    /// the number of bytes consumed and the frame that newline ended;
    /// with no newline in `input`, all of it is consumed (buffered, or
    /// discarded past the cap) and no frame is returned.
    pub fn push<'a>(&'a mut self, input: &'a [u8]) -> (usize, Option<Frame<'a>>) {
        if self.state == State::Emitted {
            self.buf.clear();
            self.state = State::Filling;
        }
        let Some(pos) = find_newline(input) else {
            if self.state == State::Filling {
                if self.buf.len().saturating_add(input.len()) > self.cap {
                    self.buf.clear();
                    self.state = State::Discarding;
                } else {
                    self.buf.extend_from_slice(input);
                }
            }
            return (input.len(), None);
        };
        let used = pos + 1;
        let frame =
            if self.state == State::Discarding || self.buf.len().saturating_add(used) > self.cap {
                self.buf.clear();
                self.state = State::Filling;
                Frame::Oversized
            } else if self.buf.is_empty() {
                Frame::Line(&input[..pos])
            } else {
                self.buf.extend_from_slice(&input[..pos]);
                self.state = State::Emitted;
                Frame::Line(&self.buf)
            };
        (used, Some(frame))
    }

    /// End of stream: the frame for an unterminated tail, if one is
    /// pending. The framer is empty afterwards.
    pub fn finish(&mut self) -> Option<Frame<'_>> {
        match std::mem::replace(&mut self.state, State::Emitted) {
            State::Discarding => Some(Frame::Oversized),
            State::Filling if !self.buf.is_empty() => Some(Frame::Line(&self.buf)),
            _ => None,
        }
    }
}

/// The index of the first `\n` in `input`, eight bytes at a time.
fn find_newline(input: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = input.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        // A `\n` byte is zero after the xor, so its subtraction borrows
        // and sets its high bit. Borrows only mark bytes above the first
        // zero byte, so the lowest mark is exact.
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ (ONES * 0x0a);
        let hit = x.wrapping_sub(ONES) & !x & (ONES * 0x80);
        if hit != 0 {
            return Some(8 * i + (hit.trailing_zeros() / 8) as usize);
        }
    }
    let tail = words.remainder();
    let at = input.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|p| at + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames as owned values: `Some(line)` or `None` for oversized.
    type Owned = Option<Vec<u8>>;

    fn own(frame: Frame<'_>) -> Owned {
        match frame {
            Frame::Line(l) => Some(l.to_vec()),
            Frame::Oversized => None,
        }
    }

    /// Feed `chunks` in order, then end the stream.
    fn frames(cap: usize, chunks: &[&[u8]]) -> Vec<Owned> {
        let mut framer = LineFramer::new(cap);
        let mut out = Vec::new();
        for chunk in chunks {
            let mut rest = *chunk;
            while !rest.is_empty() {
                let (used, frame) = framer.push(rest);
                out.extend(frame.map(own));
                rest = &rest[used..];
            }
        }
        out.extend(framer.finish().map(own));
        assert_eq!(framer.finish(), None, "finish leaves the framer empty");
        out
    }

    const CAP: usize = 8;

    /// Every framing rule in one stream, at cap 8.
    const STREAM: &[u8] = b"\n  \nab\r\n1234567\n12345678\nxxxxxxxxxxxxxxxxxxxx\nok\nyyyyyyyyyyyy";

    fn expected() -> Vec<Owned> {
        vec![
            Some(b"".to_vec()),
            Some(b"  ".to_vec()),
            Some(b"ab\r".to_vec()),
            Some(b"1234567".to_vec()), // 7 bytes + newline: exactly the cap
            None,                      // 8 bytes + newline: one over
            None,
            Some(b"ok".to_vec()),
            None, // oversized unterminated tail
        ]
    }

    #[test]
    fn whole_stream_yields_every_rule() {
        assert_eq!(frames(CAP, &[STREAM]), expected());
    }

    #[test]
    fn frames_do_not_depend_on_chunking() {
        for i in 0..=STREAM.len() {
            let (a, b) = STREAM.split_at(i);
            assert_eq!(frames(CAP, &[a, b]), expected(), "split at {i}");
        }
        let bytes: Vec<&[u8]> = STREAM.chunks(1).collect();
        assert_eq!(frames(CAP, &bytes), expected(), "one byte per chunk");
    }

    #[test]
    fn end_of_stream_tails() {
        assert_eq!(frames(CAP, &[b"tail"]), vec![Some(b"tail".to_vec())]);
        // The cap counts a newline the tail never got: 8 bytes still fit.
        assert_eq!(
            frames(CAP, &[b"12345678"]),
            vec![Some(b"12345678".to_vec())]
        );
        assert_eq!(frames(CAP, &[b"123456789"]), vec![None]);
        assert_eq!(frames(CAP, &[b"ok\n"]), vec![Some(b"ok".to_vec())]);
        assert_eq!(frames(CAP, &[]), Vec::<Owned>::new());
    }

    /// A small xorshift generator: the framer's tests take no dependency.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Frames found with the plain byte-by-byte search, the reference for
    /// the word scan, fed the same chunks.
    fn frames_by_bytes(cap: usize, chunks: &[&[u8]]) -> Vec<Owned> {
        let mut out = Vec::new();
        let mut line = Vec::new();
        let mut over = false;
        for &b in chunks.concat().iter() {
            if b == b'\n' {
                out.push((!over && line.len() < cap).then(|| line.clone()));
                line.clear();
                over = false;
            } else if !over && line.len() < cap {
                line.push(b);
            } else {
                over = true;
            }
        }
        if over || !line.is_empty() {
            out.push((!over && line.len() <= cap).then_some(line));
        }
        out
    }

    #[test]
    fn word_scan_finds_every_newline_the_byte_scan_finds() {
        // Bytes that differ from `\n` in one bit, or share its low bits,
        // beside it: a word test that borrowed wrongly would stop there.
        const NEAR: [u8; 8] = [0x09, 0x0b, 0x8a, 0x80, 0xff, 0x0a ^ 0x20, 0x00, b'x'];
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for case in 0..2000 {
            let len = (next(&mut state) % 40) as usize;
            let mut input: Vec<u8> = (0..len)
                .map(|_| match next(&mut state) % 4 {
                    0 => NEAR[(next(&mut state) % 8) as usize],
                    1 => 0x80 | next(&mut state) as u8,
                    _ => b'a' + (next(&mut state) % 26) as u8,
                })
                .map(|b| if b == b'\n' { b'y' } else { b })
                .collect();
            // A newline at every offset 0-17 in turn, sometimes a second.
            let at = case % 18;
            if at < input.len() {
                input[at] = b'\n';
            }
            if next(&mut state).is_multiple_of(2) && !input.is_empty() {
                let i = (next(&mut state) as usize) % input.len();
                input[i] = b'\n';
            }
            let want = input.iter().position(|&b| b == b'\n');
            assert_eq!(find_newline(&input), want, "{input:02x?}");

            // Framing through random chunk splits matches the byte scan.
            let cap = 1 + (next(&mut state) % 20) as usize;
            let mut chunks = Vec::new();
            let mut rest = &input[..];
            while !rest.is_empty() {
                let n = 1 + (next(&mut state) as usize) % rest.len();
                let (chunk, tail) = rest.split_at(n);
                chunks.push(chunk);
                rest = tail;
            }
            assert_eq!(
                frames(cap, &chunks),
                frames_by_bytes(cap, &chunks),
                "cap {cap}, {input:02x?}"
            );
        }
    }
}
