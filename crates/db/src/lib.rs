#![warn(missing_docs)]

//! An embedded relational engine — the substrate standing in for RTI INGRES.
//!
//! The paper (§5.2) is explicit that "Moira does not depend on any special
//! feature of INGRES … Moira can easily utilize other relational databases":
//! every access goes through predefined query handles layered over plain
//! retrieve/append/update/delete operations. This crate supplies exactly that
//! operation set:
//!
//! - [`value`] / [`schema`] — typed columns and table schemas.
//! - [`table`] — slab-stored rows, secondary indexes, predicate selection,
//!   and per-table statistics (the TBLSTATS relation's raw material).
//! - [`query`] — the predicate language (equality, wildcard `Like`,
//!   conjunction/disjunction) used by the query-handle layer.
//! - [`plan`] — the predicate planner: point/intersect/range index access
//!   chosen by a cost model over live bucket cardinalities, with the scan
//!   fallback and EXPLAIN descriptions.
//! - [`database`] — the named-table container with a shared virtual clock.
//! - [`backup`] — `mrbackup`/`mrrestore` (§5.2.2): the colon-separated
//!   ASCII dump codec with `\:`, `\\` and `\nnn` escapes that snapshots
//!   share, plus three-generation rotation on durable media.
//! - [`journal`] — the journal of successful changes since the newest
//!   backup, which closes the "no more than a day's transactions" gap.
//! - [`wal`] / [`snapshot`] / [`storage`] — the durable engine: CRC-framed
//!   write-ahead log with group commit, atomic snapshot documents, and
//!   crash recovery that preserves the epoch and per-row generations the
//!   delta-DCM cursors depend on.

pub mod backup;
pub mod database;
pub mod journal;
pub mod plan;
pub mod query;
pub mod schema;
pub mod snapshot;
pub mod storage;
pub mod table;
pub mod value;
pub mod wal;

pub use database::{Database, GenCursor};
pub use plan::Plan;
pub use query::Pred;
pub use schema::{ColumnDef, TableSchema};
pub use storage::{
    DiskMedia, DurableEngine, GroupCommitConfig, Media, NullStorage, OpKind, RecoveredImage,
    SimMedia, Storage,
};
pub use table::{RowChange, RowId, Table};
pub use value::{ColType, Symbols, Value};
