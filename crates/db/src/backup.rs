//! `mrbackup` / `mrrestore` — the ASCII dump format of §5.2.2 — and the one
//! codec every dump document in this crate shares.
//!
//! Each relation is copied to an ASCII file, one line per row, fields
//! separated by colons. Colons and backslashes inside fields become `\:` and
//! `\\`; non-printing characters become `\nnn` with `nnn` the octal ASCII
//! code. The paper chose this over INGRES's own checkpointing because "the
//! only known cure \[for binary corruption\] is to dump the entire database
//! to text files, and recreate it from scratch from the text files".
//!
//! One codec serves every dump in this crate, in three layers: fields
//! ([`escape_field`], [`unescape_field`], and the colon splitter journal
//! lines use too); rows (one row's `mrbackup` line, also the tail of each
//! snapshot `row:` line); and sealed documents (a magic line, header
//! lines, `table:` sections closed by `endtable`, and a final `end`, with a
//! torn document or bytes after `end` rejected whole), shared by
//! `moira-backup` and `moira-snapshot` files.
//!
//! [`MediaRotation`] keeps `nightly.sh`'s last three backups on line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use moira_common::errors::{MrError, MrResult};

use crate::database::Database;
use crate::schema::ColumnDef;
use crate::storage::{replace_file, Media};
use crate::value::Value;

/// Escapes one field: `\:`, `\\`, and `\nnn` octal for non-printing bytes.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b':' => out.push_str("\\:"),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\{b:03o}")),
        }
    }
    out
}

/// Reverses [`escape_field`].
pub fn unescape_field(s: &str) -> MrResult<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let (byte, width) = match (bytes[i], bytes.get(i + 1)) {
            (b'\\', Some(&c @ (b':' | b'\\'))) => (c, 2),
            (b'\\', Some(d)) if d.is_ascii_digit() => {
                let oct = s.get(i + 1..i + 4).ok_or(MrError::Internal)?;
                (
                    u8::from_str_radix(oct, 8).map_err(|_| MrError::Internal)?,
                    4,
                )
            }
            (b'\\', _) => return Err(MrError::Internal),
            (b, _) => (b, 1),
        };
        out.push(byte);
        i += width;
    }
    String::from_utf8(out).map_err(|_| MrError::Internal)
}

/// Splits a dump line on its unescaped colons; the fields stay escaped.
pub(crate) fn split_unescaped_colons(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut fields = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b':' => {
                fields.push(&line[start..i]);
                start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    fields.push(&line[start..]);
    fields
}

/// Appends `row` as one `mrbackup` line: each value rendered and escaped,
/// joined by colons, ended by a newline.
pub(crate) fn push_row(out: &mut String, row: &[Value]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(':');
        }
        out.push_str(&escape_field(&v.render()));
    }
    out.push('\n');
}

/// Parses one `mrbackup` line into a row of `columns`. A wrong field
/// count, a bad escape or a value that does not parse as its column type is
/// `MR_INTERNAL`.
pub(crate) fn parse_row(line: &str, columns: &[ColumnDef]) -> MrResult<Vec<Value>> {
    let fields = split_unescaped_colons(line);
    if fields.len() != columns.len() {
        return Err(MrError::Internal);
    }
    fields
        .iter()
        .zip(columns)
        .map(|(raw, c)| Value::parse(c.ty, &unescape_field(raw)?).ok_or(MrError::Internal))
        .collect()
}

/// Writes a sealed dump document: the magic line, the `header` lines (each
/// ending in a newline), one `table:<head>` section per `(head, item)`
/// whose lines `body` appends for `item`, each closed by `endtable`, and
/// `end`. Bodies go straight into the document, so no table is held twice.
pub(crate) fn write_document<T>(
    magic: &str,
    header: &str,
    tables: impl IntoIterator<Item = (String, T)>,
    body: impl Fn(&mut String, T),
) -> String {
    let mut out = format!("{magic}\n{header}");
    for (head, item) in tables {
        let _ = writeln!(out, "table:{head}");
        body(&mut out, item);
        out.push_str("endtable\n");
    }
    out.push_str("end\n");
    out
}

/// A sealed dump document's header lines and `(head, body lines)` table
/// sections, every line still escaped.
pub(crate) type Document<'a> = (Vec<&'a str>, Vec<(&'a str, Vec<&'a str>)>);

/// Splits a document [`write_document`] wrote. Anything that does not
/// frame is [`MrError::Durability`]: another magic line, a section with no
/// `endtable`, a missing `end`, or bytes after it. A torn document is media
/// corruption and is never partially trusted.
pub(crate) fn read_document<'a>(text: &'a str, magic: &str) -> MrResult<Document<'a>> {
    let sealed = text.strip_suffix("\nend\n").ok_or(MrError::Durability)?;
    let mut lines = sealed.lines();
    if lines.next() != Some(magic) {
        return Err(MrError::Durability);
    }
    let (mut header, mut tables) = (Vec::new(), Vec::new());
    let mut open: Option<(&str, Vec<&str>)> = None;
    for line in lines {
        match (open.as_mut(), line.strip_prefix("table:")) {
            (Some(_), _) if line == "endtable" => tables.extend(open.take()),
            (Some((_, body)), _) => body.push(line),
            (None, Some(head)) => open = Some((head, Vec::new())),
            (None, None) if tables.is_empty() && line != "endtable" => header.push(line),
            (None, None) => return Err(MrError::Durability),
        }
    }
    match open {
        None => Ok((header, tables)),
        Some(_) => Err(MrError::Durability),
    }
}

/// Dumps one table to its ASCII representation.
pub fn dump_table(db: &Database, table: &str) -> String {
    let mut out = String::new();
    for (_, row) in db.table(table).iter() {
        push_row(&mut out, row);
    }
    out
}

/// Dumps every table; returns `relation name -> ASCII contents`.
pub fn mrbackup(db: &Database) -> BTreeMap<String, String> {
    db.table_names()
        .into_iter()
        .map(|name| (name.to_owned(), dump_table(db, name)))
        .collect()
}

/// Total size in bytes of a backup (the paper reports ~3.2 MB for the full
/// production database).
pub fn backup_size(backup: &BTreeMap<String, String>) -> usize {
    backup.values().map(|v| v.len()).sum()
}

/// Restores one table's rows from its ASCII dump into an *empty* table of
/// the same schema (the `mrrestore` precondition: "Have you initialized an
/// empty database?").
pub fn restore_table(db: &mut Database, table: &str, dump: &str) -> MrResult<usize> {
    if !db.table(table).is_empty() {
        return Err(MrError::Exists);
    }
    let columns = db.table(table).schema().columns.clone();
    let mut count = 0;
    for line in dump.lines().filter(|l| !l.is_empty()) {
        db.append(table, parse_row(line, &columns)?)?;
        count += 1;
    }
    Ok(count)
}

/// Restores a full backup into an empty database with the schema already
/// created.
pub fn mrrestore(db: &mut Database, backup: &BTreeMap<String, String>) -> MrResult<usize> {
    let mut total = 0;
    for (table, dump) in backup {
        if !db.has_table(table) {
            return Err(MrError::Internal);
        }
        total += restore_table(db, table, dump)?;
    }
    Ok(total)
}

/// Magic first line of a backup document.
const BACKUP_MAGIC: &str = "moira-backup:1";

/// One-file encoding of a full backup, suitable for atomic replacement on
/// durable media.
pub fn encode_backup(backup: &BTreeMap<String, String>) -> String {
    let tables = backup.iter().map(|(name, dump)| (escape_field(name), dump));
    write_document(BACKUP_MAGIC, "", tables, |out, dump| out.push_str(dump))
}

/// Reverses [`encode_backup`]. Every failure is [`MrError::Durability`]: a
/// backup that does not parse in full — including a missing `end` seal —
/// is treated as media corruption, never partially trusted.
pub fn decode_backup(text: &str) -> MrResult<BTreeMap<String, String>> {
    let (header, tables) = read_document(text, BACKUP_MAGIC)?;
    if !header.is_empty() {
        return Err(MrError::Durability);
    }
    let mut backup = BTreeMap::new();
    for (head, rows) in tables {
        let name = unescape_field(head).map_err(|_| MrError::Durability)?;
        let dump = rows.iter().flat_map(|row| [*row, "\n"]).collect();
        if backup.insert(name, dump).is_some() {
            return Err(MrError::Durability);
        }
    }
    Ok(backup)
}

/// On-line backup file names, newest first — `nightly.sh`'s three
/// generations.
pub const BACKUP_GENERATIONS: [&str; 3] = ["backup.1", "backup.2", "backup.3"];
/// Scratch name for the atomic-replace protocol.
pub const BACKUP_TMP: &str = "backup.tmp";
/// The generation shifts of one rotation, oldest first so no generation is
/// overwritten before it has been moved out of the way.
const SHIFT: [(&str, &str); 2] = [("backup.2", "backup.3"), ("backup.1", "backup.2")];

/// `nightly.sh`'s three-generation rotation ("maintains the last three
/// backups on line", §5.2.2) on durable [`Media`], with the snapshot's
/// crash discipline: the new backup is written to a temp file and fsynced
/// *before* any rename, the generation shifts are renames made durable by
/// the closing directory fsync, and a crash at any point leaves every
/// surviving generation fully decodable — never a torn or half-rotated
/// file.
#[derive(Debug)]
pub struct MediaRotation<M: Media> {
    media: M,
}

impl<M: Media> MediaRotation<M> {
    /// Wraps `media`; existing generations on it are picked up as-is.
    pub fn new(media: M) -> Self {
        Self { media }
    }

    /// Takes a backup of `db` and rotates it in as `backup.1`, shifting
    /// the older generations down and discarding the fourth-oldest.
    pub fn run_nightly(&mut self, db: &Database) -> MrResult<()> {
        let bytes = encode_backup(&mrbackup(db)).into_bytes();
        let (tmp, newest) = (BACKUP_TMP, BACKUP_GENERATIONS[0]);
        replace_file(&mut self.media, tmp, newest, &bytes, &SHIFT)
    }

    /// The on-line generations, newest first. The list ends at the first
    /// generation that is missing, unreadable or does not decode, so an
    /// older backup never stands in for a damaged newer one.
    pub fn generations(&self) -> Vec<BTreeMap<String, String>> {
        BACKUP_GENERATIONS
            .iter()
            .map_while(|name| {
                let bytes = self.media.read(name).ok()??;
                decode_backup(std::str::from_utf8(&bytes).ok()?).ok()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::storage::{OpKind, SimMedia};
    use moira_common::clock::VClock;

    fn sample_db() -> Database {
        let mut db = Database::new(VClock::new());
        db.create_table(TableSchema::new(
            "users",
            vec![
                ColumnDef::str("login").unique(),
                ColumnDef::int("uid"),
                ColumnDef::boolean("active"),
                ColumnDef::str("fullname"),
            ],
        ));
        db
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "a:b\\c\nd\te";
        let escaped = escape_field(nasty);
        assert!(!escaped.contains('\n'));
        assert_eq!(escaped, "a\\:b\\\\c\\012d\\011e");
        assert_eq!(unescape_field(&escaped).unwrap(), nasty);
    }

    #[test]
    fn unescape_rejects_garbage() {
        assert!(unescape_field("trailing\\").is_err());
        assert!(unescape_field("bad\\x").is_err());
        assert!(unescape_field("short\\01").is_err());
        // An octal escape cut by a multi-byte character is an error, not a
        // slice across a character boundary.
        assert!(unescape_field("\\1\u{20ac}").is_err());
    }

    #[test]
    fn dump_and_restore_round_trip() {
        let mut db = sample_db();
        db.append(
            "users",
            vec![
                "babette".into(),
                6530.into(),
                true.into(),
                "Harmon C Fowler".into(),
            ],
        )
        .unwrap();
        db.append(
            "users",
            vec![
                "co:lon".into(),
                6531.into(),
                false.into(),
                "Weird: Name\\".into(),
            ],
        )
        .unwrap();
        let backup = mrbackup(&db);
        assert!(backup_size(&backup) > 0);

        let mut fresh = sample_db();
        let restored = mrrestore(&mut fresh, &backup).unwrap();
        assert_eq!(restored, 2);
        let t = fresh.table("users");
        let rows: Vec<_> = t.iter().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r[0] == Value::Str("co:lon".into())
            && r[3] == Value::Str("Weird: Name\\".into())
            && r[2] == Value::Bool(false)));
    }

    #[test]
    fn restore_requires_empty_table() {
        let mut db = sample_db();
        db.append("users", vec!["x".into(), 1.into(), true.into(), "X".into()])
            .unwrap();
        let backup = mrbackup(&db);
        assert_eq!(mrrestore(&mut db, &backup), Err(MrError::Exists));
    }

    #[test]
    fn restore_rejects_wrong_arity() {
        let mut db = sample_db();
        assert_eq!(
            restore_table(&mut db, "users", "only:two\n"),
            Err(MrError::Internal)
        );
    }

    #[test]
    fn backup_document_round_trip_and_rejects_torn() {
        let mut db = sample_db();
        db.append(
            "users",
            vec!["co:lon".into(), 1.into(), true.into(), "A\\B".into()],
        )
        .unwrap();
        let backup = mrbackup(&db);
        let text = encode_backup(&backup);
        assert_eq!(decode_backup(&text).unwrap(), backup);
        // Any truncation — a torn write — must fail, not half-parse.
        for cut in 0..text.len() - 1 {
            assert!(decode_backup(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_backup(&format!("{text}junk\n")).is_err());
    }

    #[test]
    fn media_rotation_keeps_three_decodable_generations() {
        let mut db = sample_db();
        let mut rot = MediaRotation::new(SimMedia::new());
        for i in 0..5 {
            db.append(
                "users",
                vec![format!("u{i}").into(), i.into(), true.into(), "U".into()],
            )
            .unwrap();
            rot.run_nightly(&db).unwrap();
        }
        let gens = rot.generations();
        assert_eq!(gens.len(), 3);
        assert_eq!(gens[0]["users"].lines().count(), 5);
        assert_eq!(gens[2]["users"].lines().count(), 3);
    }

    #[test]
    fn damaged_newest_generation_ends_the_list() {
        let db = sample_db();
        let mut media = SimMedia::new();
        let mut rot = MediaRotation::new(media.clone());
        rot.run_nightly(&db).unwrap();
        rot.run_nightly(&db).unwrap();
        assert_eq!(rot.generations().len(), 2);
        media
            .write_new(BACKUP_GENERATIONS[0], b"moira-backup:1\n")
            .unwrap();
        assert!(rot.generations().is_empty(), "backup.2 must not stand in");
    }

    #[test]
    fn crash_between_renames_preserves_old_generations() {
        let mut db = sample_db();
        let media = SimMedia::new();
        let mut rot = MediaRotation::new(media.clone());
        for i in 0..3 {
            db.append(
                "users",
                vec![format!("u{i}").into(), i.into(), true.into(), "U".into()],
            )
            .unwrap();
            rot.run_nightly(&db).unwrap();
        }
        let before = rot.generations();

        // Every rename in the rotation is a kill point: shift 2→3, shift
        // 1→2, and the tmp→1 replacement itself.
        for nth in 0..3 {
            media.arm_crash(OpKind::Rename, nth);
            db.append(
                "users",
                vec![
                    format!("crash{nth}").into(),
                    (100 + nth as i64).into(),
                    true.into(),
                    "C".into(),
                ],
            )
            .unwrap();
            assert_eq!(
                rot.run_nightly(&db),
                Err(MrError::Durability),
                "rename #{nth}"
            );
            media.power_cycle();
            // The directory fsync never ran, so no rename became durable:
            // the old trio is intact and every file still decodes.
            assert_eq!(rot.generations(), before, "rename #{nth}");
        }

        // The next nightly run converges: stale tmp is discarded and the
        // new backup (with all crash-era rows) becomes generation one.
        rot.run_nightly(&db).unwrap();
        let after = rot.generations();
        assert_eq!(after.len(), 3);
        assert!(after[0]["users"].contains("crash2"));
        assert_eq!(after[1], before[0]);
    }
}
