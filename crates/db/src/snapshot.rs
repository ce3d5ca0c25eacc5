//! Durable snapshot documents: the full database image a recovering server
//! boots from before replaying the WAL tail.
//!
//! A snapshot is this system's backup. It is an `mrbackup` dump (§5.2.2:
//! text files are the only dump format whose corruption is always curable)
//! extended with the *mutation state* the delta-DCM machinery depends on:
//! the database epoch, per-table statistics, per-row generation stamps,
//! tombstones, and free-list order. It does not carry the journal: the
//! journal lists only the changes since the newest backup, and after a
//! crash those are exactly the WAL frames past the snapshot's `seq`.
//!
//! The document uses the dump codec of [`crate::backup`]: a `row:<id>:<gen>:`
//! line is followed by that row's `mrbackup` line, and the sealed framing
//! (`table:` … `endtable` sections, a final `end`) means a torn file
//! (impossible under the temp-file + rename + dir-fsync write protocol, but
//! disks lie) is detected rather than half-applied.

use std::fmt::Write as _;
use std::str::FromStr;

use moira_common::errors::{MrError, MrResult};

use crate::backup::{parse_row, push_row, read_document, write_document};
use crate::database::Database;
use crate::table::{RowId, TableImage, TableStats};

/// Magic first line; the `:2` is the format version. Version 1 carried
/// the journal and is rejected.
const MAGIC: &str = "moira-snapshot:2";

/// One table's image inside a snapshot document; its rows stay `mrbackup`
/// lines until [`SnapshotImage::apply`] types them against the schema.
#[derive(Debug, Clone, Default)]
struct RawTable {
    image: TableImage,
    rows: Vec<(RowId, u64, String)>,
}

/// A parsed snapshot document, ready to apply to a schema-created database.
#[derive(Debug, Clone)]
pub struct SnapshotImage {
    /// Epoch of the database the snapshot was cut from.
    pub epoch: u64,
    /// Clock reading at snapshot time.
    pub now: i64,
    /// Last WAL sequence number the snapshot covers; recovery replays only
    /// frames with a higher sequence.
    pub seq: u64,
    tables: Vec<(String, RawTable)>,
}

/// Serializes the database into a snapshot document sealing every WAL
/// frame up to and including `seq`.
pub fn encode_snapshot(db: &Database, seq: u64) -> String {
    let header = format!("epoch:{}\nnow:{}\nseq:{seq}\n", db.epoch(), db.now());
    let tables = db.table_names().into_iter().map(|name| {
        let image = db.table(name).export_image();
        let s = image.stats;
        let head = format!(
            "{name}:{}:{}:{}:{}:{}",
            s.appends, s.updates, s.deletes, s.modtime, s.generation
        );
        (head, image)
    });
    write_document(MAGIC, &header, tables, |out, image| {
        for (id, gen, row) in &image.rows {
            let _ = write!(out, "row:{id}:{gen}:");
            push_row(out, row);
        }
        for (id, gen) in &image.dead {
            let _ = writeln!(out, "dead:{id}:{gen}");
        }
        let free: Vec<String> = image.free.iter().map(|id| id.to_string()).collect();
        let _ = writeln!(out, "free:{}", free.join(","));
    })
}

fn num<T: FromStr>(s: &str) -> MrResult<T> {
    s.parse().map_err(|_| MrError::Durability)
}

/// Splits `tag:rest` at its first colon.
fn pair(line: &str) -> MrResult<(&str, &str)> {
    line.split_once(':').ok_or(MrError::Durability)
}

/// Parses one `table:` section: its head and its body lines.
fn decode_table(head: &str, body: &[&str]) -> MrResult<(String, RawTable)> {
    let parts: Vec<&str> = head.split(':').collect();
    let [name, appends, updates, deletes, modtime, generation] = parts[..] else {
        return Err(MrError::Durability);
    };
    let mut raw = RawTable::default();
    raw.image.stats = TableStats {
        appends: num(appends)?,
        updates: num(updates)?,
        deletes: num(deletes)?,
        modtime: num(modtime)?,
        generation: num(generation)?,
    };
    for line in body {
        match pair(line)? {
            ("row", rest) => {
                let (id, rest) = pair(rest)?;
                let (gen, row) = pair(rest)?;
                raw.rows.push((num(id)?, num(gen)?, row.to_owned()));
            }
            ("dead", rest) => {
                let (id, gen) = pair(rest)?;
                raw.image.dead.push((num(id)?, num(gen)?));
            }
            ("free", ids) => {
                raw.image.free = ids
                    .split_terminator(',')
                    .map(num)
                    .collect::<MrResult<_>>()?
            }
            _ => return Err(MrError::Durability),
        }
    }
    Ok((name.to_owned(), raw))
}

/// Parses a snapshot document. Rejects (with `MR_DURABILITY`) anything
/// malformed, torn, or of another format version.
pub fn decode_snapshot(text: &str) -> MrResult<SnapshotImage> {
    let (header, tables) = read_document(text, MAGIC)?;
    let (mut epoch, mut now, mut seq) = (None, None, None);
    for line in header {
        match pair(line)? {
            ("epoch", v) => epoch = Some(num(v)?),
            ("now", v) => now = Some(num(v)?),
            ("seq", v) => seq = Some(num(v)?),
            _ => return Err(MrError::Durability),
        }
    }
    let tables = tables
        .iter()
        .map(|(head, body)| decode_table(head, body))
        .collect::<MrResult<_>>()?;
    match (epoch, now, seq) {
        (Some(epoch), Some(now), Some(seq)) => Ok(SnapshotImage {
            epoch,
            now,
            seq,
            tables,
        }),
        _ => Err(MrError::Durability),
    }
}

impl SnapshotImage {
    /// Applies the image to a database whose schema has already been
    /// created (and whose epoch the caller set via [`Database::recovered`]).
    /// Every table named in the snapshot must exist and be pristine.
    pub fn apply(&self, db: &mut Database) -> MrResult<()> {
        for (name, raw) in &self.tables {
            if !db.has_table(name) {
                return Err(MrError::Durability);
            }
            let columns = db.table(name).schema().columns.clone();
            let rows = raw
                .rows
                .iter()
                .map(|(id, gen, line)| {
                    let row = parse_row(line, &columns).map_err(|_| MrError::Durability)?;
                    Ok((*id, *gen, row))
                })
                .collect::<MrResult<_>>()?;
            let image = TableImage {
                rows,
                ..raw.image.clone()
            };
            db.table_mut(name)
                .import_image(&image)
                .map_err(|_| MrError::Durability)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use moira_common::clock::VClock;

    fn schema() -> Vec<TableSchema> {
        vec![
            TableSchema::new(
                "users",
                vec![
                    ColumnDef::str("login").unique(),
                    ColumnDef::int("uid").indexed(),
                    ColumnDef::boolean("active"),
                ],
            ),
            TableSchema::new("values", vec![ColumnDef::str("name"), ColumnDef::int("v")]),
        ]
    }

    fn build_db() -> Database {
        let clock = VClock::new();
        let mut db = Database::new(clock.clone());
        for s in schema() {
            db.create_table(s);
        }
        let a = db
            .append("users", vec!["co:lon".into(), 1.into(), true.into()])
            .unwrap();
        db.append("users", vec!["b\\ck".into(), 2.into(), false.into()])
            .unwrap();
        clock.advance(60);
        db.update("users", a, &[("uid", 9.into())]).unwrap();
        db.delete("users", a).unwrap();
        db.append("values", vec!["dcm\nenable".into(), 1.into()])
            .unwrap();
        db
    }

    fn rebuild(image: &SnapshotImage) -> Database {
        let mut back = Database::recovered(VClock::starting_at(image.now), image.epoch);
        for s in schema() {
            back.create_table(s);
        }
        image.apply(&mut back).unwrap();
        back
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let db = build_db();
        let text = encode_snapshot(&db, 17);
        let image = decode_snapshot(&text).unwrap();
        assert_eq!(image.epoch, db.epoch());
        assert_eq!(image.now, db.now());
        assert_eq!(image.seq, 17);

        let back = rebuild(&image);
        assert_eq!(back.epoch(), db.epoch());
        for name in db.table_names() {
            assert_eq!(
                back.table(name).export_image(),
                db.table(name).export_image(),
                "table {name}"
            );
        }
        // Re-encoding the rebuilt database is byte-identical.
        assert_eq!(encode_snapshot(&back, 17), text);
    }

    #[test]
    fn truncated_or_mangled_documents_are_rejected() {
        let db = build_db();
        let text = encode_snapshot(&db, 3);
        // Any prefix missing the end marker is rejected.
        let cut = text.len() - 5;
        assert!(decode_snapshot(&text[..cut]).is_err());
        assert!(decode_snapshot("").is_err());
        assert!(decode_snapshot("moira-snapshot:9\nend\n").is_err());
        let mangled = text.replace("seq:3", "seq:banana");
        assert!(decode_snapshot(&mangled).is_err());
        let trailing = format!("{text}junk\n");
        assert!(decode_snapshot(&trailing).is_err());
        // A version-1 document (which carried the journal) has no reader.
        let v1 = text.replacen("moira-snapshot:2", "moira-snapshot:1", 1);
        assert_eq!(decode_snapshot(&v1).unwrap_err(), MrError::Durability);
    }

    #[test]
    fn apply_requires_known_pristine_tables() {
        let image = decode_snapshot(&encode_snapshot(&build_db(), 0)).unwrap();
        // Missing table.
        let mut missing = Database::recovered(VClock::new(), image.epoch);
        missing.create_table(schema().remove(0));
        assert_eq!(image.apply(&mut missing), Err(MrError::Durability));
        // Non-pristine table.
        let mut dirty = Database::recovered(VClock::new(), image.epoch);
        for s in schema() {
            dirty.create_table(s);
        }
        dirty
            .append("users", vec!["z".into(), 99.into(), true.into()])
            .unwrap();
        assert_eq!(image.apply(&mut dirty), Err(MrError::Durability));
    }
}
