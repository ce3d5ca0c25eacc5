//! Runtime lock-order witness configuration.
//!
//! The static lint proves lock discipline over the calls it can resolve;
//! the runtime witness covers the rest (dynamic dispatch, closures,
//! destructured receivers) by tracking which threads hold the state lock
//! as the code actually runs — lockdep-style. `MOIRA_LOCK_ORDER` selects
//! how loud the witness is:
//!
//! - `off` — record nothing (release default);
//! - `observe` — count re-entrant acquisitions, queryable by tests (debug
//!   default);
//! - `strict` — panic at the violation site, so the offending test fails
//!   loudly (the CI lockdep job).

use std::sync::OnceLock;

/// How the runtime lock-order witness reacts to violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderMode {
    /// Witness disabled; zero bookkeeping.
    Off,
    /// Count violations, never panic.
    Observe,
    /// Panic at the violation site.
    Strict,
}

/// The process-wide witness mode: `MOIRA_LOCK_ORDER` if set (`off` /
/// `observe` / `strict`), otherwise `Observe` in debug builds and `Off` in
/// release. Read once; changing the variable mid-process has no effect.
pub fn order_mode() -> OrderMode {
    static MODE: OnceLock<OrderMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MOIRA_LOCK_ORDER").as_deref() {
        Ok("strict") => OrderMode::Strict,
        Ok("observe") => OrderMode::Observe,
        Ok("off") => OrderMode::Off,
        _ => {
            if cfg!(debug_assertions) {
                OrderMode::Observe
            } else {
                OrderMode::Off
            }
        }
    })
}
