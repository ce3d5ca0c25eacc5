//! The journal of successful database changes (§5.2.2).
//!
//! "To improve this \[day-granularity backup\], the journal file kept by the
//! Moira server daemon contains a listing of all successful changes to the
//! database." Entries record who changed what, with which query, and when;
//! replaying a journal over a restored backup recovers the transactions the
//! backup missed.
//!
//! As in the paper, the journal covers only the changes since the newest
//! backup: a nightly dump or a snapshot seal empties it, so it is bounded
//! by the backup cadence, not by uptime.
//!
//! The serialized form uses the backup field codec so journal lines survive
//! arbitrary argument bytes.

use moira_common::errors::{MrError, MrResult};

use crate::backup::{escape_field, split_unescaped_colons, unescape_field};

/// One successful, side-effecting operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Unix time the change committed.
    pub time: i64,
    /// Authenticated principal that made the change.
    pub who: String,
    /// Client program (`modwith`) that made the change.
    pub with: String,
    /// Query handle name (e.g. `update_user_shell`).
    pub query: String,
    /// The query's arguments.
    pub args: Vec<String>,
}

impl JournalEntry {
    /// Serializes the entry to one line.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            self.time.to_string(),
            escape_field(&self.who),
            escape_field(&self.with),
            escape_field(&self.query),
        ];
        fields.extend(self.args.iter().map(|a| escape_field(a)));
        fields.join(":")
    }

    /// Parses one journal line.
    pub fn from_line(line: &str) -> MrResult<JournalEntry> {
        let parts = split_unescaped_colons(line);
        let [time, who, with, query, args @ ..] = &parts[..] else {
            return Err(MrError::Internal);
        };
        Ok(JournalEntry {
            time: time.parse().map_err(|_| MrError::Internal)?,
            who: unescape_field(who)?,
            with: unescape_field(with)?,
            query: unescape_field(query)?,
            args: args
                .iter()
                .map(|p| unescape_field(p))
                .collect::<MrResult<_>>()?,
        })
    }
}

/// The in-memory journal since the newest backup, with text serialization.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn log(&mut self, entry: JournalEntry) {
        self.entries.push(entry);
    }

    /// All entries in commit order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of journaled changes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the journal: the newest backup now holds every change.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries strictly after `time` — the ones a backup taken at `time`
    /// does not contain. Only the tail since the newest backup is retained,
    /// so a `time` before that backup yields that tail, not older history.
    pub fn since(&self, time: i64) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter().filter(move |e| e.time > time)
    }

    /// Serializes the whole journal.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses a serialized journal.
    pub fn from_text(text: &str) -> MrResult<Journal> {
        let entries = text
            .lines()
            .filter(|l| !l.is_empty())
            .map(JournalEntry::from_line)
            .collect::<MrResult<Vec<_>>>()?;
        Ok(Journal { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: i64, q: &str, args: &[&str]) -> JournalEntry {
        JournalEntry {
            time: t,
            who: "ops".into(),
            with: "usermaint".into(),
            query: q.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn line_round_trip() {
        let e = entry(100, "update_user_shell", &["babette", "/bin/csh"]);
        let line = e.to_line();
        assert_eq!(JournalEntry::from_line(&line).unwrap(), e);
    }

    #[test]
    fn nasty_args_survive() {
        let e = JournalEntry {
            time: 5,
            who: "a:b".into(),
            with: "c\\d".into(),
            query: "q".into(),
            args: vec!["x:y\nz".into(), String::new()],
        };
        let round = JournalEntry::from_line(&e.to_line()).unwrap();
        assert_eq!(round, e);
    }

    #[test]
    fn zero_arg_queries() {
        let e = entry(9, "trigger_dcm", &[]);
        let line = e.to_line();
        let parsed = JournalEntry::from_line(&line).unwrap();
        // A trailing empty field parses as one empty arg; normalize check.
        assert_eq!(parsed.query, "trigger_dcm");
        assert_eq!(parsed.time, 9);
    }

    #[test]
    fn journal_text_round_trip() {
        let mut j = Journal::new();
        j.log(entry(1, "add_user", &["a", "1"]));
        j.log(entry(2, "delete_user", &["a"]));
        let text = j.to_text();
        let back = Journal::from_text(&text).unwrap();
        assert_eq!(back.entries(), j.entries());
    }

    #[test]
    fn since_filters() {
        let mut j = Journal::new();
        for t in 1..=10 {
            j.log(entry(t, "q", &[]));
        }
        assert_eq!(j.since(7).count(), 3);
        assert_eq!(j.since(0).count(), 10);
        assert_eq!(j.since(10).count(), 0);
    }

    #[test]
    fn clear_starts_a_new_tail() {
        let mut j = Journal::new();
        j.log(entry(1, "q", &[]));
        j.clear();
        assert!(j.is_empty());
        j.log(entry(2, "q", &[]));
        assert_eq!(j.since(0).count(), 1);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(JournalEntry::from_line("1:only:three").is_err());
        assert!(JournalEntry::from_line("notanint:a:b:c").is_err());
        assert!(Journal::from_text("1:a:b:c\ngarbage").is_err());
    }
}
