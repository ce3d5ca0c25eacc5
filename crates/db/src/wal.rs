//! The write-ahead-log frame codec.
//!
//! Each committed mutation becomes one frame in the log:
//!
//! ```text
//! frame := len(u32 LE) ++ crc(u32 LE) ++ payload
//! payload := "<seq>:" ++ journal line (the escaped wire form of
//!            [`JournalEntry::to_line`])
//! ```
//!
//! `len` counts the payload bytes and `crc` is CRC-32 (IEEE 802.3) over the
//! payload, so a scan can detect both a torn tail (fewer bytes on disk than
//! the header promises — the classic crash-during-append shape) and bit rot.
//! `seq` is the global commit sequence number; recovery uses it to skip
//! frames a snapshot already covers, which makes a crash *between*
//! snapshot-rename and WAL-truncate harmless (the stale frames are simply
//! filtered out on replay).
//!
//! Decoding is total: a scan never panics, it truncates. Everything from the
//! first bad frame onward is discarded — after a torn append there is no
//! trustworthy framing to resynchronize on.

use moira_common::crc::crc32;

use crate::journal::JournalEntry;

/// Upper bound on a single frame payload. A length prefix beyond this is
/// treated as corruption rather than an instruction to allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// What a WAL scan found, beyond the frames themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Frames that decoded cleanly.
    pub recovered_frames: u64,
    /// 1 if the scan stopped early at a torn/corrupt tail, else 0.
    pub torn_tail_truncations: u64,
    /// Byte offset at which the clean prefix ends — the truncation point a
    /// recovering engine resumes appending from.
    pub clean_len: usize,
}

/// Encodes one journal entry as a WAL frame.
pub fn encode_frame(seq: u64, entry: &JournalEntry) -> Vec<u8> {
    let payload = format!("{seq}:{}", entry.to_line());
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(8 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(bytes).to_le_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// Scans a WAL byte stream into `(seq, entry)` frames.
///
/// Tolerates a torn tail: the scan stops at the first short header, short
/// payload, over-long length prefix, CRC mismatch, or unparseable payload,
/// reporting how many bytes of clean prefix precede it. It never panics —
/// arbitrary bytes are a valid (if mostly empty) log.
pub fn scan_frames(bytes: &[u8]) -> (Vec<(u64, JournalEntry)>, WalScan) {
    let mut frames = Vec::new();
    let mut stats = WalScan::default();
    while stats.clean_len < bytes.len() {
        let Some((len, frame)) = read_frame(&bytes[stats.clean_len..]) else {
            stats.torn_tail_truncations = 1;
            break;
        };
        frames.push(frame);
        stats.recovered_frames += 1;
        stats.clean_len += len;
    }
    (frames, stats)
}

/// Decodes the frame at the head of `bytes` into its length (header
/// included) and its `(seq, entry)`; `None` for anything [`scan_frames`]
/// stops at.
fn read_frame(bytes: &[u8]) -> Option<(usize, (u64, JournalEntry))> {
    let word = |at: usize| Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?));
    let (len, crc) = (word(0)?, word(4)?);
    if len > MAX_FRAME_LEN {
        return None;
    }
    let payload = bytes.get(8..8 + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    let (seq, line) = std::str::from_utf8(payload).ok()?.split_once(':')?;
    let entry = JournalEntry::from_line(line).ok()?;
    Some((8 + len as usize, (seq.parse().ok()?, entry)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: i64, q: &str, args: &[&str]) -> JournalEntry {
        JournalEntry {
            time: t,
            who: "ops".into(),
            with: "maint".into(),
            query: q.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn frame_round_trip() {
        let e = entry(100, "update_user_shell", &["babette", "/bin/csh"]);
        let mut log = encode_frame(7, &e);
        log.extend(encode_frame(8, &entry(101, "add_machine", &["K", "VAX"])));
        let (frames, stats) = scan_frames(&log);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (7, e));
        assert_eq!(frames[1].0, 8);
        assert_eq!(stats.recovered_frames, 2);
        assert_eq!(stats.torn_tail_truncations, 0);
        assert_eq!(stats.clean_len, log.len());
    }

    #[test]
    fn torn_tail_truncates_without_panic() {
        let e = entry(5, "q", &["a:b", "c\\d", "e\nf"]);
        let good = encode_frame(1, &e);
        let mut log = good.clone();
        log.extend(encode_frame(2, &e));
        // Tear the second frame at every possible byte boundary. A cut at
        // exactly the first frame's end is a clean log, so start one past.
        for cut in good.len() + 1..log.len() {
            let (frames, stats) = scan_frames(&log[..cut]);
            assert_eq!(frames.len(), 1, "cut at {cut}");
            assert_eq!(stats.torn_tail_truncations, 1, "cut at {cut}");
            assert_eq!(stats.clean_len, good.len());
        }
    }

    #[test]
    fn crc_mismatch_truncates() {
        let mut log = encode_frame(1, &entry(1, "q", &[]));
        log.extend(encode_frame(2, &entry(2, "q", &[])));
        let tail = log.len() - 1;
        log[tail] ^= 0x40; // flip a bit in the second payload
        let (frames, stats) = scan_frames(&log);
        assert_eq!(frames.len(), 1);
        assert_eq!(stats.torn_tail_truncations, 1);
    }

    #[test]
    fn absurd_length_prefix_is_corruption() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(b"whatever");
        let (frames, stats) = scan_frames(&log);
        assert!(frames.is_empty());
        assert_eq!(stats.torn_tail_truncations, 1);
        assert_eq!(stats.clean_len, 0);
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        let garbage: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        let (frames, _) = scan_frames(&garbage);
        assert!(frames.is_empty() || !frames.is_empty()); // totality only
        scan_frames(&[]);
        scan_frames(&[0x01]);
    }
}
